"""Deterministic seeds and the random streams derived from them.

Every random quantity in this library is a pure function of a 64-bit
`Seed` plus the operation's own arguments.  Child seeds are derived by a
fixed mixing rule, so independent streams can be assigned to points,
matrices, or Monte Carlo chunks without coordination:

    child(seed, i) = mix64((seed + (i + 1) * GOLDEN) mod 2**64)

where ``mix64`` is the splitmix64 finalizer and ``GOLDEN`` is the 64-bit
golden-ratio increment ``0x9E3779B97F4A7C15``.

A `Seed` keys a numpy ``Generator`` backed by the ``SFC64`` bit generator
(seeded through ``SeedSequence``), and normal variates are drawn with
``Generator.standard_normal`` (the ziggurat method).  This pairing is part
of the reproducibility contract: identical seeds must give bit-identical
output across platforms, and golden values in the test suite pin the
streams.

The point-set builders (`gaussian_vectors`, `hard_instance`) draw point
``j`` from the stream of ``seed.child(j).generator()`` without building a
``SeedSequence`` and an ``SFC64`` per point.  `_fill_child_normals` works
in blocks of `_BLOCK` children.  For each block, `_child_values` computes
the splitmix64 children and `_sfc64_states` the SFC64 state numpy seeds
from each: ``SeedSequence``'s pool hash and ``generate_state(3, uint64)``,
then SFC64's counter of 1 and 12 warm-up rounds, all in uint32 and uint64
array arithmetic.  Every row is drawn from one reused ``SFC64`` and
``Generator`` whose state is set per row, so the streams are the bits
``Seed.generator`` gives.  ``tests/test_seeds.py`` checks the states
against ``np.random.SFC64(np.random.SeedSequence(v)).state`` and the rows
against the per-point route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx),
# whose pool is four uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# children whose states `_fill_child_normals` derives in one array pass
_BLOCK = 4096


def mix64(z: int) -> int:
    """splitmix64 finalizer, a fixed bijective mixing of 64-bit integers.

    A uint64 array is mixed elementwise, wrapping as the integers do.
    """
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Seed:
    """64-bit reproducibility seed with pure child derivation.

    ``Seed(v).child(i)`` depends only on ``(v, i)``, never on call order,
    so any indexed collection of independent streams can be derived from
    one root seed.
    """

    value: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise TypeError(f"seed value must be an int, got {type(self.value).__name__}")
        if not 0 <= self.value <= _MASK64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.value}")

    def child(self, index: int) -> "Seed":
        """Return the ``index``-th child seed (index must be nonnegative)."""
        if index < 0:
            raise ValueError(f"child index must be nonnegative, got {index}")
        return Seed(mix64((self.value + (index + 1) * _GOLDEN) & _MASK64))

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator keyed by this seed (SFC64 bit generator)."""
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(self.value)))


def as_seed(seed: int | Seed) -> Seed:
    """Coerce an int or Seed to a Seed."""
    return seed if isinstance(seed, Seed) else Seed(seed)


def _child_values(value: int, first: int, count: int) -> np.ndarray:
    # Seed(value).child(j).value for j = first .. first + count - 1 as a
    # uint64 array; the index wraps mod 2^64, as in `Seed.child`.  uint64
    # array arithmetic wraps silently
    z = np.arange(count, dtype=np.uint64)
    z += first + 1 & _MASK64
    z *= _GOLDEN
    z += value
    return mix64(z)


def _sfc64_states(z: np.ndarray) -> np.ndarray:
    # np.random.SFC64(np.random.SeedSequence(v)).state["state"]["state"] for
    # each v of the uint64 array z, one (len(z), 4) uint64 row each.  The
    # entropy is v's two little-endian uint32 words, a missing word hashing
    # as 0, so a v below 2^32, one word to numpy, hashes the same
    hash_const = _INIT_A

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        v = v ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        v *= hash_const
        return v ^ v >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * _MIX_L - y * _MIX_R
        return r ^ r >> 16

    zero = np.zeros(len(z), dtype=np.uint32)
    pool = [hashmix(w) for w in ((z & _MASK32).astype(np.uint32), (z >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # generate_state(3, uint64): six uint32 words, low word first
    hash_const = _INIT_B
    words = []
    for i in range(6):
        v = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        v *= hash_const
        words.append((v ^ v >> 16).astype(np.uint64))
    s0, s1, s2 = (words[2 * i] | words[2 * i + 1] << 32 for i in range(3))
    # SFC64's seeding: counter 1, then 12 rounds, after which it reads 13
    for counter in range(1, 13):
        tmp = s0 + s1 + counter
        s0, s1, s2 = s1 ^ s1 >> 11, s2 + (s2 << 3), (s2 << 24 | s2 >> 40) + tmp
    return np.stack([s0, s1, s2, np.full(len(z), 13, dtype=np.uint64)], axis=1)


def _fill_child_normals(seed: Seed, out: np.ndarray) -> None:
    # row j of the C-ordered float64 array ``out`` becomes
    # seed.child(j).generator().standard_normal(n), bit for bit, drawn from
    # one SFC64 whose state is set per row
    bits = np.random.SFC64(0)
    gen = np.random.Generator(bits)
    state = {"bit_generator": "SFC64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for first in range(0, len(out), _BLOCK):
        rows = out[first : first + _BLOCK]
        for row, s in zip(rows, _sfc64_states(_child_values(seed.value, first, len(rows)))):
            state["state"]["state"] = s
            bits.state = state
            gen.standard_normal(out=row)
