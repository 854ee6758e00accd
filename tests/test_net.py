"""Grid quantization, error budgets, and cardinality accounting."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jllab.cli import main
from jllab.embeddings import LinearMap
from jllab.net import (
    covering_radius_for,
    log_cardinality,
    net_params,
    quantize,
)


def test_params_worked_example():
    # n=2, alpha=0.01: step = 0.1/20 = 0.005, range = 40/0.1 = 400
    p = net_params(2, 0.01)
    assert p.grid_step == pytest.approx(0.005, rel=1e-15)
    assert p.index_range == 400
    assert p.covers  # 400.5 * 0.005 = 2.0025 >= 2
    data = p.to_json()
    assert list(data.items()) == [
        ("n", p.n),
        ("alpha", p.alpha),
        ("grid_step", p.grid_step),
        ("index_range", p.index_range),
        ("covers", p.covers),
    ]
    assert [type(v) for v in data.values()] == [int, float, float, int, bool]


def test_params_validation():
    with pytest.raises(ValueError):
        net_params(0, 0.5)
    with pytest.raises(ValueError):
        net_params(3, 0.0)
    with pytest.raises(ValueError):
        net_params(3, 1.0)


def test_index_range_never_truncates():
    # 20 n / sqrt(alpha) is an exact integer for these pairs; the floor
    # guard must not lose it to representation error
    for n, alpha in [(2, 0.01), (5, 0.25), (1, 0.04), (10, 0.0625)]:
        span = 20.0 * n / math.sqrt(alpha)
        assert net_params(n, alpha).index_range == round(span)


def test_quantize_worked_example():
    # step 0.005: 0.0127 is nearer 0.015 than 0.010
    A = LinearMap(np.array([[0.0127, -0.0127], [0.0, 2.0]]))
    Q = quantize(A, 0.01)
    assert Q.entries[0, 0] == pytest.approx(0.015, rel=1e-15)
    assert Q.entries[0, 1] == pytest.approx(-0.015, rel=1e-15)
    assert Q.entries[1, 0] == 0.0
    assert Q.entries[1, 1] == pytest.approx(2.0, rel=1e-15)


def test_quantize_ties_toward_zero():
    step = net_params(2, 0.01).grid_step
    A = LinearMap(np.array([[1.5 * step, -1.5 * step], [0.5 * step, -0.5 * step]]))
    Q = quantize(A, 0.01)
    # exact half-step magnitudes round to the smaller magnitude
    assert Q.entries[0, 0] == pytest.approx(step, rel=1e-15)
    assert Q.entries[0, 1] == pytest.approx(-step, rel=1e-15)
    assert Q.entries[1, 0] == 0.0
    assert Q.entries[1, 1] == 0.0
    # and no negative zero escapes
    assert math.copysign(1.0, Q.entries[1, 1]) == 1.0


def test_quantize_rejects_out_of_range():
    A = LinearMap(np.array([[0.0, 2.5], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        quantize(A, 0.01)


def test_quantize_idempotent_bitwise():
    rng = np.random.default_rng(5)
    A = LinearMap(rng.uniform(-2.0, 2.0, size=(3, 3)))
    Q1 = quantize(A, 0.3)
    Q2 = quantize(Q1, 0.3)
    assert Q1.entries.tobytes() == Q2.entries.tobytes()


def test_quantize_accepts_extreme_grid_value():
    # the largest grid point can land one ulp above 2; it must requantize
    for n, alpha in [(1, 0.9), (3, 0.7), (7, 0.123)]:
        p = net_params(n, alpha)
        v = p.index_range * p.grid_step
        A = LinearMap(np.full((n, n), v))
        Q = quantize(A, alpha)
        assert np.array_equal(Q.entries, A.entries)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    alpha=st.floats(min_value=1e-6, max_value=0.999),
    data=st.data(),
)
def test_quantize_error_budget(n, alpha, data):
    m = data.draw(st.integers(min_value=1, max_value=n))
    rows = data.draw(
        st.lists(
            st.lists(
                st.one_of(
                    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                    st.sampled_from([-2.0, 2.0]),
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=m,
            max_size=m,
        )
    )
    A = LinearMap(np.array(rows, dtype=np.float64))
    p = net_params(n, alpha)
    Q = quantize(A, alpha)
    B = Q.entries - A.entries
    budget = alpha / 100.0
    frob_sq = float(np.sum(B * B))
    assert frob_sq <= budget * (1.0 + 1e-12)
    clamped = np.abs(A.entries / p.grid_step) > p.index_range + 0.5
    if p.covers and not clamped.any():
        assert frob_sq <= (alpha / 400.0) * (1.0 + 1e-12)


def test_cardinality_small_cases():
    # n=1, alpha in [0.25, 1): range floor(20/sqrt(alpha)); alpha=0.25 -> 40
    card = log_cardinality(1, 0.25)
    assert card.values_per_entry == 81
    assert card.exact_log == pytest.approx(math.log(81), rel=1e-15)
    # n=2: V^2 + V^4 over one- and two-row matrices
    card2 = log_cardinality(2, 0.25)
    V = card2.values_per_entry
    assert card2.exact_log == pytest.approx(math.log(V**2 + V**4), rel=1e-12)


def test_cardinality_bound_dominates():
    for n in (1, 2, 3, 8, 32, 64):
        for k in (1, 4, 10, 20):
            card = log_cardinality(n, 2.0**-k)
            assert card.exact_log <= card.bound_log
    # V = 2 floor(20 n / sqrt(alpha)) + 1 overshoots 40 n / sqrt(alpha) by up
    # to 1, which adds about n sqrt(alpha) / 40 nats at large n
    for n in (387, 1000, 10**6):
        card = log_cardinality(n, 0.5)
        assert card.exact_log <= card.bound_log


def test_cardinality_sum_stops_at_underflow():
    # the sum runs from m = n down and stops at the first term that
    # underflows; the full sum over every m gives the same float
    for n in (1, 2, 3, 17, 59, 700, 5000):
        for alpha in (0.999, 0.5, 0.01, 1e-4):
            card = log_cardinality(n, alpha)
            ln_v = math.log(card.values_per_entry)
            tail = math.fsum(math.exp((m - n) * n * ln_v) for m in range(1, n + 1))
            assert card.exact_log == n * n * ln_v + math.log(tail)
    # so a huge n costs a few terms, not n of them
    started = time.perf_counter()
    card = log_cardinality(10**9, 0.5)
    assert time.perf_counter() - started < 1.0
    assert card.exact_log == 10**18 * math.log(card.values_per_entry)

def test_cardinality_bound_formula():
    card = log_cardinality(5, 0.04)
    want = math.log(5) + 25 * math.log(40.0 * 5 / 0.2 + 1.0)
    assert card.bound_log == pytest.approx(want, rel=1e-15)
    data = card.to_json()
    assert list(data.items()) == [
        ("n", card.n),
        ("alpha", card.alpha),
        ("values_per_entry", card.values_per_entry),
        ("exact_log", card.exact_log),
        ("bound_log", card.bound_log),
    ]
    assert [type(v) for v in data.values()] == [int, float, int, float, float]


def test_covering_radius_solves_budget():
    alpha = covering_radius_for(100, 1.0)
    assert alpha == pytest.approx(100.0 * 100.0**-2.0, rel=1e-15)
    # plugging back: quantization error budget alpha/100 = n^{-2C}
    assert alpha / 100.0 == pytest.approx(100.0**-2.0, rel=1e-15)


def test_covering_radius_clamps_with_warning():
    with pytest.warns(UserWarning, match="clamping"):
        alpha = covering_radius_for(2, 1.0)
    assert 0.0 < alpha < 1.0


def test_covering_radius_refuses_an_underflowing_alpha(tmp_path, capsys):
    # 100 n^(-2C) underflows to 0 here; the refusal names C, the value given,
    # not the alpha of 0.0 derived from it
    with pytest.raises(ValueError, match=r"C = 300.0 is too large at n=4: alpha = 100 n\^\(-2C\) underflows to 0"):
        covering_radius_for(4, 300.0)
    out = tmp_path / "net.json"
    assert main(["net", "--n", "4", "--exponent", "300", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "jllab: error: C = 300.0 is too large at n=4: alpha = 100 n^(-2C) underflows to 0\n"
    assert not out.exists()
    # just above the underflow alpha is a subnormal and still accepted
    assert 0.0 < covering_radius_for(4, 267.0) < 1e-300


def test_covering_radius_validation():
    with pytest.raises(ValueError):
        covering_radius_for(0, 1.0)
    with pytest.raises(ValueError):
        covering_radius_for(4, 0.0)
