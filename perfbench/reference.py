"""Recomputations made apart from jllab, for checking the workloads' outputs.

The seed derivation (splitmix64 child rule on an SFC64 ziggurat stream)
and the file formats are written out here from their documented
definitions, so a check does not trust the code it checks.
"""

from __future__ import annotations

import math
import struct

import numpy as np

_MASK64 = (1 << 64) - 1


def child(seed: int, index: int) -> int:
    """splitmix64 finalizer of seed + (index + 1) * golden-ratio increment."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


def hard_points(n: int, k: int, seed: int) -> np.ndarray:
    """Standard basis followed by k gaussian points, point j from child(seed, j)."""
    gauss = [stream(child(seed, j)).standard_normal(n) for j in range(k)]
    return np.vstack([np.eye(n), *gauss])


def gaussian_map(m: int, n: int, seed: int) -> np.ndarray:
    """Entries N(0, 1/m) from the stream of child(seed, 0)."""
    return stream(child(seed, 0)).standard_normal((m, n)) / math.sqrt(m)


def norm_eps(E: np.ndarray, P: np.ndarray) -> float:
    """max over points of |‖E x‖² / ‖x‖² - 1|."""
    before = (P * P).sum(axis=1)
    img = P @ E.T
    return float(np.abs((img * img).sum(axis=1) / before - 1.0).max())


def read_rows(path, header: str) -> np.ndarray:
    """Rows of comma-separated floats after a header line that starts with `header`."""
    lines = open(path, encoding="ascii").read().splitlines()
    if not lines or not lines[0].startswith(header):
        raise ValueError(f"{path}: header does not start with {header!r}")
    body = [line for line in lines[1:] if not line.startswith("roles=")]
    return np.array([[float(v) for v in line.split(",")] for line in body])


def read_binary_points(path) -> np.ndarray:
    """Coordinates of a JLPS binary point set: magic, <IQQ version/n/N, float64s, roles."""
    blob = open(path, "rb").read()
    if blob[:4] != b"JLPS":
        raise ValueError(f"{path}: no JLPS magic")
    _, n, count = struct.unpack_from("<IQQ", blob, 4)
    return np.frombuffer(blob, dtype="<f8", count=n * count, offset=24).reshape(count, n)


def read_csv(path) -> list[dict[str, str]]:
    """Data rows of a jllab CSV report (config line, header line, rows)."""
    lines = open(path, encoding="ascii").read().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]
