"""Tail estimators, the chi-square oracle, and constant calibration."""

import gc
import math
import os
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import jllab.concentration as concentration
import jllab.embeddings as embeddings
from jllab.concentration import (
    CHUNK_TRIALS,
    CalibrationConstants,
    TailEstimate,
    TailQuery,
    calibrate_constants,
    chaos_tail_estimate,
    chaos_threshold,
    chi_square_sf,
    joint_event_rate,
    map_samples,
    norm_deviation_sample,
    norm_tail_estimate,
    norm_tail_oracle,
    symmetric_form_tail_estimate,
)
from jllab.embeddings import LinearMap, OptimizerOptions, _pool_size, gaussian_map, identity_map
from jllab.net import covering_radius_for
from jllab.pointset import SizeError
from jllab.seeds import Seed

scipy_stats = pytest.importorskip("scipy.stats")


# ---------------------------------------------------------------------------
# chi-square survival function


def test_chi_square_sf_exponential_case():
    # two degrees of freedom: sf(x) = exp(-x/2) in closed form
    for x in (0.1, 1.0, 2.0, 7.5, 40.0):
        assert chi_square_sf(2, x) == pytest.approx(math.exp(-x / 2), rel=1e-12)


def test_chi_square_sf_against_scipy():
    worst = 0.0
    for n in (1, 2, 3, 5, 10, 17, 64, 100, 501, 1000, 2000):
        for x in np.linspace(0.0, 4.0 * n, 33):
            worst = max(worst, abs(chi_square_sf(n, float(x)) - scipy_stats.chi2.sf(x, n)))
    assert worst <= 1e-10


def test_chi_square_sf_large_n_against_scipy():
    # near the mean the series needs about sqrt(n) terms; a fixed cap of
    # 1000 failed to converge from n = 1e5 on
    worst = 0.0
    for n in (1000, 10_000, 100_000, 1_000_000):
        for z in np.linspace(-8.0, 8.0, 33):
            x = n + z * math.sqrt(2.0 * n)
            worst = max(worst, abs(chi_square_sf(n, float(x)) - scipy_stats.chi2.sf(x, n)))
    assert worst <= 1e-9
    assert chi_square_sf(100_000, 1e5) == pytest.approx(scipy_stats.chi2.sf(1e5, 100_000), abs=1e-9)
    assert chi_square_sf(1_000_000, 997_000.0) == pytest.approx(
        scipy_stats.chi2.sf(997_000.0, 1_000_000), abs=1e-9
    )


def test_chi_square_sf_continued_fraction_at_n_1e8():
    # near the mean the continued fraction, like the series, needs about
    # sqrt(n) terms: 2100-3400 at n = 1e8, where a fixed cap of 2000 raised
    # ArithmeticError, and so did norm_tail_oracle(10**8, 1, 0.01)
    n = 10**8
    for dx in (2.5, 100.0, 3000.0):
        want = scipy_stats.chi2.sf(n + dx, n)
        assert abs(chi_square_sf(n, n + dx) - want) <= 1e-7 * want
    want = scipy_stats.chi2.sf(n + 100.0, n) + scipy_stats.chi2.cdf(n - 100.0, n)
    assert abs(norm_tail_oracle(n, 1.0, 0.01) - want) <= 1e-7 * want


def test_chi_square_sf_edge_values():
    assert chi_square_sf(5, 0.0) == 1.0
    assert chi_square_sf(1, 1e6) == 0.0
    with pytest.raises(ValueError):
        chi_square_sf(0, 1.0)
    with pytest.raises(ValueError):
        chi_square_sf(3, -0.5)


def test_chi_square_sf_monotone_in_x():
    xs = np.linspace(0.0, 50.0, 200)
    vals = [chi_square_sf(7, float(x)) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_norm_tail_oracle_formula():
    # thr small enough that both sides contribute
    n, t, c = 10, 1.0, 1.0
    thr = c * math.sqrt(n * t)
    expected = chi_square_sf(n, n + thr) + (1.0 - chi_square_sf(n, n - thr))
    assert norm_tail_oracle(n, t, c) == pytest.approx(expected, abs=1e-15)
    # thr >= n: the lower side vanishes
    assert norm_tail_oracle(4, 9.0, 1.0) == pytest.approx(chi_square_sf(4, 10.0), abs=1e-15)


@pytest.mark.parametrize("n, sd, rel", [(1000, 6, 1e-12), (1000, 8, 1e-12), (100_000, 6, 1e-9)])
def test_norm_tail_oracle_lower_tail_relative_error(monkeypatch, n, sd, rel):
    # sd standard deviations sqrt(2n) below the mean; with the upper tail
    # set to 0 the oracle returns its lower tail alone, which must not be
    # 1 - (1 - P) (relative error 1.9e-6, 1 and 2.8e-8 at these points)
    monkeypatch.setattr(concentration, "chi_square_sf", lambda n, x: 0.0)
    want = scipy_stats.chi2.cdf(n - sd * math.sqrt(2 * n), n)
    assert abs(norm_tail_oracle(n, 2.0 * sd * sd, 1.0) - want) <= rel * want


# ---------------------------------------------------------------------------
# estimator plumbing


def test_tail_estimate_fields():
    est = TailEstimate.from_hits(2.0, 1000, 100)
    assert est.p_hat == 0.1
    assert est.stderr == pytest.approx(math.sqrt(0.1 * 0.9 / 1000))
    data = est.to_json()
    assert list(data.items()) == [
        ("threshold", est.threshold),
        ("trials", est.trials),
        ("hits", est.hits),
        ("p_hat", est.p_hat),
        ("stderr", est.stderr),
    ]
    assert [type(v) for v in data.values()] == [float, int, int, float, float]
    cal = CalibrationConstants(c=0.5, c1=0.25, c2=2.0, delta0=0.25)
    data = cal.to_json()
    assert list(data.items()) == [("c", cal.c), ("c1", cal.c1), ("c2", cal.c2), ("delta0", cal.delta0)]
    assert [type(v) for v in data.values()] == [float] * 4


def test_tail_query_validation():
    TailQuery(t=1.0, delta=0.05)
    with pytest.raises(ValueError):
        TailQuery(t=0.5, delta=0.05)
    with pytest.raises(ValueError):
        TailQuery(t=1.0, delta=0.5)


def test_min_trials_enforced():
    with pytest.raises(ValueError, match="trials"):
        norm_tail_estimate(4, 1.0, 1.0, 999, 0)


def test_norm_estimate_matches_shared_sample():
    # the estimator is exactly a threshold count over the shared sample
    n, trials, seed = 6, 5000, Seed(3)
    dev = norm_deviation_sample(n, trials, seed)
    for t in (1.0, 2.0, 3.0):
        thr = 1.0 * math.sqrt(n * t)
        est = norm_tail_estimate(n, t, 1.0, trials, seed)
        assert est.hits == int(np.count_nonzero(dev > thr))
        assert est.threshold == thr


def test_norm_estimate_deterministic():
    a = norm_tail_estimate(8, 2.0, 1.0, 2000, 42)
    b = norm_tail_estimate(8, 2.0, 1.0, 2000, 42)
    assert (a.hits, a.threshold) == (b.hits, b.threshold)
    c = norm_tail_estimate(8, 2.0, 1.0, 2000, 43)
    assert a.hits != c.hits or a.p_hat == c.p_hat  # different sample, same config


def test_chunking_is_part_of_the_contract(monkeypatch):
    # every sampler's length crosses several chunk boundaries and stays deterministic
    trials = CHUNK_TRIALS * 2 + 17
    A = gaussian_map(2, 3, Seed(6))
    M = np.array([[2.0, 0.5, -1.0], [0.5, -1.0, 0.25], [-1.0, 0.25, 0.5]])

    def samples():
        img, nrm = map_samples(A, trials, 5)
        est = symmetric_form_tail_estimate(M, 1.0, 0.5, trials, 5)
        return norm_deviation_sample(3, trials, 5), img, nrm, est.hits

    dev, img, nrm, hits = samples()
    assert dev.shape == img.shape == nrm.shape == (trials,)
    # serial recomputation: chunk c holds the next (up to) CHUNK_TRIALS
    # trials, drawn from Seed(5).child(c); the last chunk is partial
    parts = {"dev": [], "img": [], "nrm": [], "form": []}
    for c, lo in enumerate(range(0, trials, CHUNK_TRIALS)):
        g = Seed(5).child(c).generator().standard_normal((min(CHUNK_TRIALS, trials - lo), 3))
        Ag = g @ A.entries.T
        sq = np.einsum("ij,ij->i", g, g)
        parts["dev"].append(np.abs(sq - 3.0))
        parts["img"].append(np.einsum("ij,ij->i", Ag, Ag))
        parts["nrm"].append(sq)
        parts["form"].append(np.einsum("ij,ij->i", g @ M, g))
    want = {k: np.concatenate(v) for k, v in parts.items()}
    assert np.array_equal(dev, want["dev"])
    assert np.array_equal(img, want["img"])
    assert np.array_equal(nrm, want["nrm"])
    thr = 0.5 * (np.linalg.norm(M) + np.abs(np.linalg.eigvalsh(M)).max())
    assert hits == np.count_nonzero(np.abs(want["form"] - np.trace(M)) > thr)
    assert 0 < hits < trials
    # the worker count follows the cores the process may use (one worker
    # runs inline, three is one per chunk) and never changes the result
    for cores in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        again = samples()
        assert all(np.array_equal(x, y) for x, y in zip(again, (dev, img, nrm, hits)))


@pytest.mark.parametrize("sampler", ["norm", "map", "form"])
def test_samplers_hold_one_blas_thread_across_their_chunks(monkeypatch, sampler):
    # the count is set to 1 before the first chunk is drawn and restored
    # after the last, for every sampler, products or not
    A, M = gaussian_map(3, 4, 1), np.diag([2.0, 1.0, -1.0, 0.5])
    calls = {
        "norm": lambda: norm_deviation_sample(4, 3000, 1),
        "map": lambda: map_samples(A, 3000, 1),
        "form": lambda: symmetric_form_tail_estimate(M, 1.0, 1.0, 3000, 1),
    }
    events = []
    monkeypatch.setattr(embeddings._BLAS, "api", (lambda: 4, events.append))
    monkeypatch.setattr(embeddings._BLAS, "looked", True)
    generator = Seed.generator
    monkeypatch.setattr(Seed, "generator", lambda self: events.append("chunk") or generator(self))
    calls[sampler]()
    assert events == [1, "chunk", "chunk", "chunk", 4]


def test_norm_sample_holds_a_block_per_worker():
    # each worker draws its chunks in blocks of at most 2^17 values (1 MiB)
    # into a buffer taken before the pool starts; a whole 1024 x 1000 chunk
    # per worker held 8 MiB each.  Beside the blocks sit the output, its
    # deviations and 64 KiB for the interpreter's own objects
    n, trials = 1000, 8192
    norm_deviation_sample(n, 1000, 1)
    tracemalloc.start()
    try:
        norm_deviation_sample(n, trials, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (_pool_size(trials // CHUNK_TRIALS) << 20) + 2 * 8 * trials + (64 << 10)


def test_trials_over_limit_raise_size_error():
    # the refusal comes before the (trials,) output is allocated
    with pytest.raises(SizeError, match="trials must be at most 10000000"):
        norm_deviation_sample(1, 10**7 + 1, 0)


def test_norm_estimate_agrees_with_oracle():
    n, t, c, trials = 8, 1.0, 1.0, 20000
    est = norm_tail_estimate(n, t, c, trials, 17)
    p = norm_tail_oracle(n, t, c)
    assert abs(est.p_hat - p) <= 4.0 * max(est.stderr, math.sqrt(p * (1 - p) / trials))


def test_norm_sample_distribution_ks():
    # Dvoretzky-Kiefer-Wolfowitz: sup |ecdf - cdf| <= sqrt(ln(2/d)/2N),
    # d = 1e-6 -> 0.0191 at N = 2e4
    n, trials = 6, 20000
    _, nrm = map_samples(identity_map(n), trials, Seed(31))
    xs = np.sort(nrm)
    ecdf = np.arange(1, trials + 1) / trials
    cdf = np.array([1.0 - chi_square_sf(n, float(x)) for x in xs])
    assert float(np.abs(ecdf - cdf).max()) <= 0.0191


def test_chaos_identity_equals_norm_bitwise():
    # at A = I the two estimators see the same sample and the same values
    n, trials, seed = 7, 4000, Seed(12)
    dev = norm_deviation_sample(n, trials, seed)
    img, nrm = map_samples(identity_map(n), trials, seed)
    assert np.array_equal(img, nrm)
    assert np.array_equal(np.abs(img - float(n)), dev)
    # matched thresholds: chaos threshold with frob=sqrt(n), top=1
    t = 2.0
    c_chaos = 1.0
    thr = c_chaos * (math.sqrt(t) * math.sqrt(n) + t * 1.0)
    est_chaos = chaos_tail_estimate(identity_map(n), t, c_chaos, trials, seed)
    assert est_chaos.threshold == pytest.approx(thr, rel=1e-15)
    assert est_chaos.hits == int(np.count_nonzero(dev > est_chaos.threshold))


def test_chaos_threshold_diagonal_oracle():
    lam = np.array([4.0, 1.0, 0.25])
    A = LinearMap(np.diag(np.sqrt(lam)))
    t = 3.0
    thr = chaos_threshold(A, t, 0.5)
    frob = math.sqrt(float(np.sum(lam**2)))
    assert thr == pytest.approx(0.5 * (math.sqrt(t) * frob + t * 4.0), rel=1e-12)


def test_chaos_validation():
    A = gaussian_map(2, 4, 1)
    with pytest.raises(ValueError, match="t"):
        chaos_tail_estimate(A, 0.5, 1.0, 2000, 0)
    with pytest.raises(ValueError, match="zero map"):
        chaos_tail_estimate(LinearMap(np.zeros((2, 2))), 1.0, 1.0, 2000, 0)
    with pytest.raises(ValueError, match="zero map"):
        joint_event_rate(LinearMap(np.zeros((2, 2))), 0.05, 0.5, 1.0, 2000, 0)


@pytest.mark.parametrize("entries", [np.ldexp([[0.75, 0.5]], -340), [[1e-100, 0.0]], [[1e-160, 0.0]]])
def test_tiny_maps_scale_back_exactly(entries):
    # the events are scale-invariant: tiny = 2^e big counts as big does, and
    # its thresholds are big's times 2^(2e) exactly, although tiny's squared
    # Frobenius norm of A^T A underflows to 0
    tiny = LinearMap(entries)
    e = math.frexp(np.abs(tiny.entries).max())[1]
    big = LinearMap(np.ldexp(tiny.entries, -e))
    for estimate in (lambda A: chaos_tail_estimate(A, 2.0, 0.5, 2000, 3),
                     lambda A: joint_event_rate(A, 0.05, 0.5, 1.0, 2000, 3)):
        want, got = estimate(big), estimate(tiny)
        assert got.hits == want.hits
        assert got.threshold == math.ldexp(want.threshold, 2 * e)
    assert chaos_threshold(tiny, 2.0, 0.5) == chaos_tail_estimate(tiny, 2.0, 0.5, 2000, 3).threshold


def test_symmetric_form_matches_chaos_on_gram():
    # g^T (A^T A) g = |Ag|^2: same event up to rounding at the threshold
    A = gaussian_map(3, 6, 9)
    M = A.entries.T @ A.entries
    trials, seed, t, c = 20000, Seed(4), 1.0, 0.8
    a = chaos_tail_estimate(A, t, c, trials, seed)
    b = symmetric_form_tail_estimate(M, t, c, trials, seed)
    assert b.threshold == pytest.approx(a.threshold, rel=1e-12)
    assert abs(a.hits - b.hits) <= 2


def test_symmetric_form_indefinite_matrix():
    M = np.diag([1.0, -1.0, 0.5])
    est = symmetric_form_tail_estimate(M, 1.0, 1.0, 2000, 6)
    assert 0.0 <= est.p_hat <= 1.0
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_form_tail_estimate(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 1.0, 2000, 0)


def test_symmetric_form_checks_every_strip():
    # the symmetry check reads M one strip of rows at a time: an asymmetry
    # whose two entries both lie past the first strip is refused, and one
    # within the relative tolerance 1e-12 passes
    n = 400
    assert concentration._STRIP_VALUES // n < n - 2
    M = np.eye(n)
    M[n - 1, n - 2] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_form_tail_estimate(M, 1.0, 1.0, 1000, 0)
    M[n - 2, n - 1] = 1e-3 * (1 + 5e-13)
    assert symmetric_form_tail_estimate(M, 1.0, 1.0, 1000, 0).trials == 1000


def test_symmetric_form_check_holds_no_n_by_n_temporary(run_capped):
    # the traced peak is M's frozen copy plus the chunk's normals and image;
    # np.allclose(M, M.T) put n x n temporaries on top (53.7 MiB here
    # against a 44.6 MiB bound)
    n = 1500
    code = f"import tracemalloc\nimport numpy as np\nfrom jllab import *\nM = np.eye({n})\ntracemalloc.start()\n"
    code += "symmetric_form_tail_estimate(M, 1, 1, 1000, 1)\nprint(tracemalloc.get_traced_memory()[1])\n"
    done = run_capped(code)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 8 * (n * n + 2 * CHUNK_TRIALS * n) + (4 << 20)


@pytest.mark.parametrize(
    "diag", [[1e-200, 0.0], [1e-170, 1e-170], [1e200, -1e200]], ids=["zero-frob", "subnormal-frob", "inf-frob"]
)
def test_symmetric_form_scales_an_out_of_range_matrix(diag):
    # ‖M‖_F² underflows to 0, is subnormal, or overflows: the estimate is
    # that of M scaled by the power of two 2^-e that puts its largest entry
    # in [1/2, 1), with the threshold reported times 2^e, bit for bit
    M = np.diag(diag)
    e = math.frexp(max(abs(v) for v in diag))[1]
    est = symmetric_form_tail_estimate(M, 1.0, 1.0, 1000, 1)
    ref = symmetric_form_tail_estimate(np.ldexp(M, -e), 1.0, 1.0, 1000, 1)
    assert est.hits == ref.hits and 0 < est.hits < 1000
    assert est.threshold == math.ldexp(ref.threshold, e)
    # c (sqrt(t) ‖M‖_F + t ‖M‖) at t = c = 1
    frob = math.sqrt(2.0) * abs(diag[0]) if diag[1] else abs(diag[0])
    assert est.threshold == pytest.approx(frob + abs(diag[0]), rel=1e-15)
    with pytest.raises(ValueError, match="zero matrix"):
        symmetric_form_tail_estimate(np.zeros((2, 2)), 1.0, 1.0, 1000, 1)


def test_joint_event_rate_limits():
    A = gaussian_map(8, 16, 2)
    trials = 20000
    # c1 tiny: the form side is nearly always on, rate ~ Pr(norm small) ~ 1 - delta/2
    est = joint_event_rate(A, 0.05, 1e-12, 8.0, trials, 3)
    assert est.p_hat >= 0.99
    # c2 huge keeps the norm side on; c1 huge kills the rate
    est2 = joint_event_rate(A, 0.05, 50.0, 8.0, trials, 3)
    assert est2.p_hat == 0.0
    with pytest.raises(ValueError, match="delta"):
        joint_event_rate(A, 0.6, 1.0, 1.0, trials, 0)
    # a NaN constant fails every comparison, so it must not reach the count
    for name, c1, c2 in (("c1", math.nan, 2.0), ("c2", 0.5, math.nan)):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            joint_event_rate(A, 0.05, c1, c2, trials, 0)


def test_joint_event_monotone_in_c1():
    A = gaussian_map(4, 8, 5)
    rates = [joint_event_rate(A, 0.05, c1, 2.0, 5000, 7).p_hat for c1 in (0.25, 0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


# ---------------------------------------------------------------------------
# the map-sample record


@pytest.fixture
def counts(monkeypatch):
    # counts the certificates and map draws the estimators make, starting
    # from an empty record
    calls = {"map_samples": 0, "spectral_certificate": 0}

    def counted(name):
        fn = getattr(concentration, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(concentration, name, counted(name))
    monkeypatch.setattr(concentration, "_record", None)
    return calls


def test_record_hit_equals_a_fresh_draw(counts, monkeypatch):
    A, trials, seed = gaussian_map(6, 12, 3), 5000, Seed(8)
    chaos_tail_estimate(A, 1.0, 0.5, trials, seed)
    hits = [chaos_tail_estimate(A, 2.0, 0.5, trials, seed), joint_event_rate(A, 0.05, 0.5, 1.0, trials, seed)]
    assert counts["map_samples"] == 1
    fresh = []
    for estimate in (lambda: chaos_tail_estimate(A, 2.0, 0.5, trials, seed),
                     lambda: joint_event_rate(A, 0.05, 0.5, 1.0, trials, seed)):
        monkeypatch.setattr(concentration, "_record", None)
        fresh.append(estimate())
    assert counts["map_samples"] == 3
    # every field is finite and no zero is negative, so equal means bit-equal
    assert hits == fresh


def test_record_serves_a_loop_over_t_with_one_draw(counts, monkeypatch):
    A, ts = gaussian_map(4, 9, 1), (1.0, 2.0, 3.0)
    ests = [chaos_tail_estimate(A, t, 0.5, 3000, Seed(2)) for t in ts]
    assert counts == {"map_samples": 1, "spectral_certificate": 1}
    fresh = []
    for t in ts:
        monkeypatch.setattr(concentration, "_record", None)
        fresh.append(chaos_tail_estimate(A, t, 0.5, 3000, Seed(2)))
    assert counts["map_samples"] == 4
    assert ests == fresh


def test_norm_record_serves_a_loop_over_t_with_one_draw(monkeypatch):
    draws = []
    draw = concentration.norm_deviation_sample
    monkeypatch.setattr(concentration, "norm_deviation_sample", lambda *a: draws.append(a) or draw(*a))
    monkeypatch.setattr(concentration, "_record", None)
    ts = (1.0, 2.0, 3.0)
    ests = [norm_tail_estimate(16, t, 1.0, 3000, Seed(4)) for t in ts]
    assert len(draws) == 1
    dev = draw(16, 3000, Seed(4))
    assert ests == [concentration._tail(dev, math.sqrt(16 * t)) for t in ts]


def test_record_misses_on_a_changed_map_trials_or_seed(counts):
    A = gaussian_map(3, 5, 4)
    chaos_tail_estimate(A, 1.0, 0.5, 2000, 6)
    changed = A.entries.copy()
    changed[0, 0] += 1.0
    A = LinearMap(changed)
    chaos_tail_estimate(A, 1.0, 0.5, 2000, 6)
    chaos_tail_estimate(A, 1.0, 0.5, 2001, 6)
    chaos_tail_estimate(A, 1.0, 0.5, 2001, Seed(7))
    # a miss on the same map object reuses the record's certificate
    assert counts == {"map_samples": 4, "spectral_certificate": 2}
    # an int seed and the Seed of the same value are one key
    chaos_tail_estimate(A, 2.0, 0.5, 2001, 7)
    assert counts["map_samples"] == 4
    # a map of equal entries is another object, so it misses
    chaos_tail_estimate(LinearMap(changed), 2.0, 0.5, 2001, 7)
    assert counts["map_samples"] == 5


def test_record_keeps_no_map_alive(counts):
    A = gaussian_map(3, 6, 1)
    chaos_tail_estimate(A, 1.0, 0.5, 1000, 2)
    ref = weakref.ref(A)
    del A
    gc.collect()
    assert ref() is None
    # the record still holds the sample, under the map's dead weak reference
    key, _ = concentration._record
    assert isinstance(key[0], weakref.ref) and key[0]() is None


def test_record_is_dropped_before_a_draw(counts, monkeypatch):
    # a miss releases the old sample before it draws, so no call holds two
    seen = []
    draw = concentration.map_samples
    monkeypatch.setattr(concentration, "map_samples", lambda *a: seen.append(concentration._record) or draw(*a))
    A = gaussian_map(2, 3, 5)
    chaos_tail_estimate(A, 1.0, 0.5, 2000, 1)
    chaos_tail_estimate(A, 1.0, 0.5, 2000, 2)
    assert seen == [None, None]


def test_joint_rate_over_c1_draws_once(counts):
    A = gaussian_map(4, 8, 5)
    [joint_event_rate(A, 0.05, c1, 2.0, 5000, 7) for c1 in (0.25, 0.5, 1.0, 2.0)]
    assert counts == {"map_samples": 1, "spectral_certificate": 1}


def test_record_under_concurrent_callers(monkeypatch):
    # threads on different seeds share the one record; each must still get
    # its own seed's counts, which pairing one call's key with another's
    # sample would break
    A, seeds, ts = gaussian_map(3, 6, 2), range(4), (1.0, 2.0)

    def fresh(s, t):
        monkeypatch.setattr(concentration, "_record", None)
        return chaos_tail_estimate(A, t, 0.5, 1000, s)

    want = {s: [fresh(s, t) for t in ts] for s in seeds}
    got, errors = {s: [] for s in seeds}, []

    def caller(s):
        try:
            for _ in range(15):
                got[s].append([chaos_tail_estimate(A, t, 0.5, 1000, s) for t in ts])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(s,)) for s in seeds]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and errors == []
    assert all(run == want[s] for s in seeds for run in got[s])


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_identity_singleton():
    cal = calibrate_constants([identity_map(16)], [1.0], 20000, 1)
    assert cal.c >= 2.0**-10
    assert cal.c1 > 0 and cal.c2 > 0
    assert cal.delta0 == 0.25


def test_calibrate_rank_one_family():
    A = LinearMap(np.outer([1.0], [1.0, 0.0, 0.0]))
    cal = calibrate_constants([A], [1.0, 2.0], 20000, 2)
    assert cal.c >= 2.0**-10


def test_calibrate_deterministic():
    fam = [gaussian_map(4, 8, 3)]
    a = calibrate_constants(fam, [1.0], 10000, 5)
    b = calibrate_constants(fam, [1.0], 10000, 5)
    assert (a.c, a.c1, a.c2) == (b.c, b.c1, b.c2)


def test_calibrated_c_feasible_on_family_samples():
    # member i is sampled from seed.child(i); re-estimating there reproduces
    # the calibration sample exactly, so the feasibility predicate must hold
    fam = [identity_map(16), gaussian_map(8, 16, 7)]
    t_grid = [1.0, 2.0]
    trials, seed = 20000, Seed(9)
    cal = calibrate_constants(fam, t_grid, trials, seed)
    for i, A in enumerate(fam):
        for t in t_grid:
            est = chaos_tail_estimate(A, t, cal.c, trials, seed.child(i))
            assert est.p_hat >= min(cal.c, math.exp(-t)) - 4.0 * est.stderr
    # and c is maximal at the advertised resolution: one step up must fail
    # for at least one member somewhere on the grid
    bumped = cal.c + 2.0**-9
    ok = True
    for i, A in enumerate(fam):
        for t in t_grid:
            est = chaos_tail_estimate(A, t, bumped, trials, seed.child(i))
            if est.p_hat < min(bumped, math.exp(-t)) - 4.0 * est.stderr:
                ok = False
    assert not ok


def test_calibrated_c1_c2_feasible_on_family_samples():
    # the joint-event counterpart of the test above: calibration and
    # joint_event_rate count on the same member samples
    fam = [identity_map(16), gaussian_map(8, 16, 7)]
    deltas = (0.25, 0.125, 0.0625, 0.05, 0.03125)
    trials, seed = 20000, Seed(9)
    cal = calibrate_constants(fam, [1.0], trials, seed, delta_grid=deltas)

    def feasible(c1: float) -> bool:
        for i, A in enumerate(fam):
            for d in deltas:
                est = joint_event_rate(A, d, c1, cal.c2, trials, seed.child(i))
                if est.p_hat < d - 4.0 * est.stderr:
                    return False
        return True

    assert feasible(cal.c1)
    assert not feasible(cal.c1 + 2.0**-9)


def test_calibrate_validation():
    with pytest.raises(ValueError):
        calibrate_constants([], [1.0], 2000, 0)
    with pytest.raises(ValueError):
        calibrate_constants([identity_map(4)], [], 2000, 0)
    with pytest.raises(ValueError):
        calibrate_constants([identity_map(4)], [0.5], 2000, 0)


@pytest.mark.parametrize("name", ["resolution", "floor"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_calibrate_refuses_a_bad_resolution_or_floor(name, value):
    # a zero or negative resolution used to bisect forever, and a NaN one
    # returned the unrefined constants
    with pytest.raises(ValueError, match=name):
        calibrate_constants([identity_map(4)], [1.0], 2000, 0, **{name: value})


def test_calibrate_at_a_resolution_below_one_ulp_returns():
    # bisection stops at adjacent doubles, where the gap cannot shrink
    # further, inside the default resolution's bracket (c1 is searched
    # with the c2 found, so it has no such bracket)
    fine = calibrate_constants([identity_map(4)], [1.0], 2000, 0, resolution=5e-324)
    cal = calibrate_constants([identity_map(4)], [1.0], 2000, 0)
    assert cal.c <= fine.c < cal.c + 2.0**-10
    assert cal.c2 - 2.0**-10 < fine.c2 <= cal.c2


def test_calibration_constants_validation():
    with pytest.raises(ValueError):
        CalibrationConstants(c=0.0, c1=1.0, c2=1.0, delta0=0.25)
    with pytest.raises(ValueError):
        CalibrationConstants(c=1.0, c1=1.0, c2=1.0, delta0=0.5)


# ---------------------------------------------------------------------------
# argument domains


# reproducers of arguments the library took although they lie outside the
# shared domains (or, for M, outside the finite matrices): each returned a
# number, warned or raised another error.  A str is the whole ValueError
# message expected; chi_square_sf, whose value underflows, returns scipy's
DOMAIN_REPRODUCERS = {
    "oracle-c-negative": (lambda: norm_tail_oracle(100, 1.0, -1.0), "c must be positive and finite, got -1.0"),
    "oracle-c-zero": (lambda: norm_tail_oracle(100, 1.0, 0.0), "c must be positive and finite, got 0.0"),
    "oracle-c-nan": (lambda: norm_tail_oracle(100, 1.0, math.nan), "c must be positive and finite, got nan"),
    "oracle-t-zero": (lambda: norm_tail_oracle(100, 0.0, 1.0), "t must be positive and finite, got 0.0"),
    "norm-c-inf": (lambda: norm_tail_estimate(8, 1.0, math.inf, 1000, 1), "c must be positive and finite, got inf"),
    "joint-c2-inf": (lambda: joint_event_rate(gaussian_map(2, 4, 1), 0.05, 0.5, math.inf, 1000, 1),
                     "c2 must be nonnegative and finite, got inf"),
    "step-init-inf": (lambda: OptimizerOptions(step_init=math.inf), "step_init must be positive and finite, got inf"),
    "tol-inf": (lambda: OptimizerOptions(tol=math.inf), "tol must be positive and finite, got inf"),
    "smoothing-inf": (lambda: OptimizerOptions(smoothing=math.inf), "smoothing must be positive and finite, got inf"),
    "calibration-c-inf": (lambda: CalibrationConstants(c=math.inf, c1=1.0, c2=1.0, delta0=0.25),
                          "c must be positive and finite, got inf"),
    "covering-exponent-inf": (lambda: covering_radius_for(4, math.inf), "C must be positive and finite, got inf"),
    "chi-square-1e308": (lambda: chi_square_sf(3, 1e308), scipy_stats.chi2.sf(1e308, 3)),
    "chi-square-inf": (lambda: chi_square_sf(1, math.inf), scipy_stats.chi2.sf(math.inf, 1)),
    "form-inf": (lambda: symmetric_form_tail_estimate(np.array([[math.inf]]), 1.0, 1.0, 1000, 1),
                 "non-finite entry at (0, 0)"),
    "form-nan": (lambda: symmetric_form_tail_estimate(np.array([[math.nan]]), 1.0, 1.0, 1000, 1),
                 "non-finite entry at (0, 0)"),
}


@pytest.mark.parametrize("call, want", DOMAIN_REPRODUCERS.values(), ids=DOMAIN_REPRODUCERS.keys())
def test_out_of_domain_arguments_are_refused(call, want):
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            call()
    else:
        assert want == 0.0 and call() == want
