"""Seed derivation and stream determinism."""

import tracemalloc
import warnings

import numpy as np
import pytest

from jllab import gaussian_vectors, hard_instance
from jllab.seeds import _BLOCK, Seed, _child_values, _fill_child_normals, _sfc64_states, as_seed, mix64


def test_mix64_is_pure_and_bounded():
    a = mix64(12345)
    assert a == mix64(12345)
    assert 0 <= a < 2**64
    assert mix64(12345) != mix64(12346)


def test_child_values_are_frozen():
    # golden values: any change to the derivation breaks every stream
    s = Seed(12345)
    assert s.child(0).value == 2454886589211414944
    assert s.child(1).value == 3778200017661327597
    assert s.child(7).value == 7959005890829367068


def test_child_is_pure_function_of_value_and_index():
    s = Seed(99)
    first = [s.child(i).value for i in range(10)]
    second = [Seed(99).child(i).value for i in reversed(range(10))]
    assert first == list(reversed(second))
    assert len(set(first)) == 10


def test_seed_validation():
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(2**64)
    with pytest.raises(TypeError):
        Seed(1.5)
    with pytest.raises(ValueError):
        Seed(0).child(-1)
    Seed(2**64 - 1).child(2**64)  # large indexes reduce mod 2^64


def test_generator_streams_are_reproducible():
    a = Seed(7).generator().standard_normal(8)
    b = Seed(7).generator().standard_normal(8)
    assert np.array_equal(a, b)
    c = Seed(8).generator().standard_normal(8)
    assert not np.array_equal(a, c)


def test_generator_uses_sfc64():
    assert type(Seed(0).generator().bit_generator).__name__ == "SFC64"


def test_as_seed():
    assert as_seed(5) == Seed(5)
    assert as_seed(Seed(5)) == Seed(5)


def _numpy_state(value):
    # numpy's own route: SeedSequence, then SFC64's seeding
    return np.random.SFC64(np.random.SeedSequence(value)).state["state"]["state"]


def test_sfc64_states_match_numpys_seeding():
    values = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    values += [int(v) for v in np.random.default_rng(3).integers(0, 2**64, 100, dtype=np.uint64, endpoint=False)]
    states = _sfc64_states(np.array(values, dtype=np.uint64))
    assert states.dtype == np.uint64 and states.shape == (len(values), 4)
    for value, state in zip(values, states):
        assert np.array_equal(state, _numpy_state(value)), value


@pytest.mark.parametrize("first", [0, _BLOCK - 3, 2**64 - 3], ids=["start", "block-boundary", "index-wrap"])
@pytest.mark.parametrize("value", [0, 12345, 2**64 - 1])
def test_child_states_match_the_per_point_route(value, first):
    children = _child_values(value, first, 6)
    assert children.tolist() == [Seed(value).child(first + j).value for j in range(6)]
    for j, state in enumerate(_sfc64_states(children)):
        assert np.array_equal(state, Seed(value).child(first + j).generator().bit_generator.state["state"]["state"])


@pytest.mark.parametrize("k", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_builder_rows_match_the_per_point_route(k):
    s = Seed(2**64 - 1)
    expected = np.array([s.child(j).generator().standard_normal(3) for j in range(k)]).reshape(k, 3)
    assert np.array_equal(gaussian_vectors(3, k, s).points, expected)
    assert np.array_equal(hard_instance(3, k, s).points, np.vstack([np.eye(3), expected]))


def test_block_derivation_raises_no_warning():
    # the uint32 and uint64 arithmetic wraps on purpose; it must do so in
    # array operations, which neither warn nor consult np.errstate
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        _sfc64_states(_child_values(2**64 - 1, 2**64 - 3, 6))
        _fill_child_normals(Seed(2**64 - 1), np.empty((_BLOCK + 1, 2)))


def test_builder_memory_stays_within_a_block():
    # gaussian_vectors(1, k) holds the point array, PointSet's copy and the
    # k-entry role tuple, 8 bytes a point each; the block derivation may add
    # at most 2 MiB, while one state per point at once would take 32 bytes
    # a point (6.1 MiB here)
    k = 200_000
    tracemalloc.start()
    try:
        gaussian_vectors(1, k, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * k + (2 << 20)
