"""Distortion reports, spectral certificates, witnesses, and the audit."""

import json
import math
import os
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jllab._runtime as _runtime
import jllab.certify as certify
import jllab.concentration as concentration
from jllab.certify import (
    MAX_PAIRS,
    AuditError,
    _pairwise_worst,
    audit_embedding,
    distortion,
    pair_from_flat,
    rank_lower_bound,
    spectral_certificate,
    witness_search,
)
from jllab.concentration import chaos_tail_estimate, chaos_threshold, joint_event_rate
from jllab.embeddings import LinearMap, gaussian_map, identity_map, pca_map
from jllab.pointset import (
    PointSet,
    SizeError,
    gaussian_vectors,
    hard_instance,
    simplex,
    standard_basis,
)
from jllab.seeds import Seed


def _random_map(seed: int, max_side: int = 12) -> LinearMap:
    rng = Seed(seed).generator()
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    if rng.integers(2):
        return LinearMap(rng.standard_normal((m, n)))
    return LinearMap(rng.uniform(-1, 1, (m, n)) * rng.uniform(0.1, 10.0))


# ---------------------------------------------------------------------------
# distortion


def test_distortion_identity_is_zero():
    X = hard_instance(4, 6, 0)
    rep = distortion(identity_map(4), X)
    assert rep.eps_max == 0.0
    assert np.array_equal(rep.ratios, np.ones(len(X)))


def test_distortion_hand_oracle():
    # A doubles the first coordinate: ratios computable by hand
    A = LinearMap(np.array([[2.0, 0.0], [0.0, 1.0]]))
    X = PointSet(2, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), ("basis", "basis", "gaussian"))
    rep = distortion(A, X)
    assert rep.ratios.tolist() == [4.0, 1.0, 2.5]
    assert rep.eps_max == 3.0
    assert rep.violating_index == 0


def test_distortion_skips_zero_vectors_with_note():
    X = simplex(3)
    rep = distortion(identity_map(3), X)
    assert rep.skipped == (0,)
    assert rep.ratios.shape == (3,)
    assert rep.eps_max == 0.0


@pytest.mark.parametrize(
    "third, row", [((1e-170, 0.0), (2.0, 0.0)), ((1e200, 1.0), (1.0, 0.0))], ids=["underflow", "overflow"]
)
def test_distortion_norm_ratios_survive_underflow_and_overflow(third, row):
    # the third point's squared norm underflows to 0 or overflows to inf;
    # its ratio is still the exact rational one, rounded, and only the
    # exactly zero fourth point is skipped
    P = np.array([[1.0, 0.0], [0.0, 1.0], third, [0.0, 0.0]])
    A = LinearMap(np.array([row]))
    rep = distortion(A, PointSet(2, P, ("gaussian",) * 4))
    exact = []
    for x in P[:3]:
        x = [Fraction(v) for v in x]
        img = sum(Fraction(a) * v for a, v in zip(row, x))
        exact.append(img * img / sum(v * v for v in x))
    assert rep.ratios.tolist() == [float(r) for r in exact]
    assert rep.eps_max == float(max(abs(r - 1) for r in exact))
    assert rep.violating_index == (0 if third[0] < 1 else 1)
    assert rep.skipped == (3,)
    # the other points keep the bits of the unscaled computation
    plain = distortion(A, PointSet(2, P[:2], ("gaussian",) * 2))
    assert rep.ratios[:2].tobytes() == plain.ratios.tobytes()


def test_distortion_permutation_invariant():
    X = hard_instance(5, 10, 3)
    A = gaussian_map(3, 5, 4)
    perm = Seed(9).generator().permutation(len(X))
    Xp = PointSet(5, X.points[perm], tuple(X.roles[i] for i in perm))
    assert distortion(A, X).eps_max == distortion(A, Xp).eps_max


def test_distortion_pairwise_matches_brute_force():
    X = hard_instance(4, 16, 7)
    A = gaussian_map(2, 4, 8)
    rep = distortion(A, X, "pairwise")
    P, Q = X.points, A.apply(X.points)
    N = len(X)
    expected = []
    for i in range(N):
        for j in range(i + 1, N):
            expected.append(np.sum((Q[i] - Q[j]) ** 2) / np.sum((P[i] - P[j]) ** 2))
    assert rep.ratios.shape == (N * (N - 1) // 2,)
    assert np.allclose(rep.ratios, expected, rtol=1e-12)
    assert rep.eps_max == pytest.approx(max(abs(r - 1.0) for r in expected))


def test_distortion_pairwise_duplicate_points_skipped():
    X = PointSet(2, np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), ("gaussian",) * 3)
    rep = distortion(identity_map(2), X, "pairwise")
    assert rep.skipped == (0,)  # pair (0, 1) has zero distance
    assert pair_from_flat(3, 0) == (0, 1)
    assert pair_from_flat(3, 2) == (1, 2)


def test_pair_from_flat_inverts_the_pair_order():
    # every flat index of np.triu_indices order at small N
    for N in range(2, 120):
        i, j = np.triu_indices(N, 1)
        assert [pair_from_flat(N, f) for f in range(len(i))] == list(zip(i.tolist(), j.tolist()))
    # exact round trips where a float square root would round wrong
    for N in (14142, 10**7, 10**9, 10**12):
        total = N * (N - 1) // 2
        for flat in (0, 1, N - 2, N - 1, total // 3, total // 2, total - 3, total - 2, total - 1):
            i, j = pair_from_flat(N, flat)
            assert 0 <= i < j < N
            assert i * (2 * N - i - 1) // 2 + j - i - 1 == flat
    with pytest.raises(ValueError):
        pair_from_flat(3, 3)
    with pytest.raises(ValueError, match="N must be nonnegative, got -2"):
        pair_from_flat(-2, 0)


def _pairwise_oracle(A, P):
    # all pairs at once, in lexicographic (i, j) order, with the same
    # subtraction and row sums as the streamed pass
    i, j = np.triu_indices(len(P), 1)
    Q = P @ A.entries.T
    before = np.einsum("ij,ij->i", P[j] - P[i], P[j] - P[i])
    after = np.einsum("ij,ij->i", Q[j] - Q[i], Q[j] - Q[i])
    keep = before > 0.0
    ratios = after[keep] / before[keep]
    dev = np.abs(ratios - 1.0)
    k = int(np.argmax(dev))
    skipped = tuple(int(f) for f in np.flatnonzero(~keep))
    return ratios, float(dev[k]), int(np.flatnonzero(keep)[k]), skipped


def test_distortion_pairwise_streamed_matches_all_pairs_bitwise():
    X = hard_instance(5, 60, 2)
    P = X.points.copy()
    P[40] = P[17]  # one duplicated point: one skipped pair
    dup = PointSet(5, P, X.roles)
    # a grid under diag(2, 1): every horizontal pair ties at the worst ratio 4
    grid = np.array([[x, y] for x in range(4) for y in range(3)], dtype=float)
    ties = PointSet(2, grid, ("gaussian",) * len(grid))
    reports = []
    for A, Y in ((gaussian_map(3, 5, 4), dup), (LinearMap(np.diag([2.0, 1.0])), ties)):
        rep = distortion(A, Y, "pairwise")
        ratios, eps_max, violating, skipped = _pairwise_oracle(A, Y.points)
        assert rep.ratios.tobytes() == ratios.tobytes()
        assert rep.eps_max == eps_max
        assert rep.violating_index == violating
        assert rep.skipped == skipped
        reports.append(rep)
    assert [pair_from_flat(len(P), f) for f in reports[0].skipped] == [(17, 40)]


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_distortion_pairwise_pool_matches_all_pairs_bitwise(monkeypatch, cores):
    # the pooled pass gives the serial pass's bytes whatever the worker count;
    # these rows are narrow enough to run inline, so the pool is forced
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(certify, "_POOL_WIDTH", 0)
    X = hard_instance(5, 60, 2)
    P = X.points.copy()
    P[40] = P[17]
    dup = PointSet(5, P, X.roles)
    # more than two 1024-point tiles; the skipped pair (3, 1500) sits in
    # row 3's second tile
    Q = gaussian_vectors(3, 2 * 1024 + 37, 11).points.copy()
    Q[1500] = Q[3]
    tiles = PointSet(3, Q, ("gaussian",) * len(Q))
    # under diag(2, 1) the worst ratio 4 ties in every row, and rows 0 and 1
    # go to different workers
    grid = np.array([[x, y] for x in range(4) for y in range(3)], dtype=float)
    ties = PointSet(2, grid, ("gaussian",) * len(grid))
    # under x -> 2x every ratio is exactly 4, so ties also span a row's tiles
    line = PointSet(1, np.arange(len(Q), dtype=float)[:, None], ("gaussian",) * len(Q))
    cases = (
        (gaussian_map(3, 5, 4), dup, [(17, 40)]),
        (gaussian_map(2, 3, 12), tiles, [(3, 1500)]),
        (LinearMap(np.diag([2.0, 1.0])), ties, []),
        (LinearMap(np.array([[2.0]])), line, []),
    )
    for A, Y, pairs in cases:
        # switch threads often, so workers interleave inside their rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rep = distortion(A, Y, "pairwise")
        finally:
            sys.setswitchinterval(interval)
        ratios, eps_max, violating, skipped = _pairwise_oracle(A, Y.points)
        assert rep.ratios.tobytes() == ratios.tobytes()
        assert rep.eps_max == eps_max
        assert rep.violating_index == violating
        assert rep.skipped == skipped
        assert [pair_from_flat(len(Y), f) for f in rep.skipped] == pairs


def test_distortion_pairwise_pair_budget():
    # one point over the budget: N(N-1)/2 = 100005153 pairs, 800 MB of ratios
    assert 14142 * 14141 // 2 <= MAX_PAIRS < 14143 * 14142 // 2
    X = PointSet(1, np.arange(14143.0)[:, None], ("gaussian",) * 14143)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="over the 100000000 pair limit"):
            distortion(identity_map(1), X, "pairwise")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # nothing the size of the ratios was allocated
    assert distortion(identity_map(1), X).eps_max == 0.0  # norm mode has no pair budget


def test_distortion_pairwise_memory_is_the_ratios():
    # 8 bytes per pair for the returned ratios, plus per-row scratch
    N = 2000
    X = gaussian_vectors(8, N, 3)
    A = gaussian_map(4, 8, 5)
    tracemalloc.start()
    try:
        rep = distortion(A, X, "pairwise")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = N * (N - 1) // 2
    assert rep.ratios.size == pairs
    assert peak < 12 * pairs


# ---------------------------------------------------------------------------
# the max-only pairwise route: a Gram-tile screen, then the exact kernel


def _assert_worst_matches(A, Y):
    # the max-only route reports distortion()'s eps_max, violating_index,
    # n_ratios and skipped bit for bit; both take skipped from the grouping.
    # Neither may warn: the pyproject filter makes a package warning a failure
    rep = distortion(A, Y, "pairwise")
    eps_max, violating = _pairwise_worst(A, Y.points)
    skipped = certify._skipped_pairs(Y.points).tolist()
    N = len(Y)
    assert np.float64(eps_max).tobytes() == np.float64(rep.eps_max).tobytes()
    assert violating == rep.violating_index
    assert N * (N - 1) // 2 - len(skipped) == rep.ratios.size
    assert tuple(skipped) == rep.skipped
    return rep


@pytest.fixture
def screened(monkeypatch):
    # the members of the spans the screen sends to the exact kernel, which
    # writes no ratios for it; the full-pass fallback of the max-only route
    # fails the test, so the screen itself is tested
    kept = set()
    pairs, scan_all = certify._PairScan.pairs, certify._scan_all

    def spy(self, i, js, out=None):
        if out is None:
            kept.update((i, j) for j in js)
        return pairs(self, i, js, out)

    def no_fallback(P, Y, A, ratios=None, skipped=()):
        assert ratios is not None, "the screen fell back to the full pass"
        return scan_all(P, Y, A, ratios, skipped)

    monkeypatch.setattr(certify._PairScan, "pairs", spy)
    monkeypatch.setattr(certify, "_scan_all", no_fallback)
    return kept


def _gaussian_set(points):
    return PointSet(points.shape[1], points, ("gaussian",) * len(points))


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_pairwise_worst_matches_distortion_on_the_pool_sets(monkeypatch, cores):
    # the sets of test_distortion_pairwise_pool_matches_all_pairs_bitwise;
    # every ratio of the line ties, so the route takes its full-pass fallback
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(certify, "_POOL_WIDTH", 0)
    X = hard_instance(5, 60, 2)
    P = X.points.copy()
    P[40] = P[17]
    Q = gaussian_vectors(3, 2 * 1024 + 37, 11).points.copy()
    Q[1500] = Q[3]
    grid = np.array([[x, y] for x in range(4) for y in range(3)], dtype=float)
    line = np.arange(len(Q), dtype=float)[:, None]
    cases = (
        (gaussian_map(3, 5, 4), PointSet(5, P, X.roles)),
        (gaussian_map(2, 3, 12), _gaussian_set(Q)),
        (LinearMap(np.diag([2.0, 1.0])), _gaussian_set(grid)),
        (LinearMap(np.array([[2.0]])), _gaussian_set(line)),
    )
    for A, Y in cases:
        _assert_worst_matches(A, Y)


@pytest.mark.parametrize("tile", [16, 192])
def test_pairwise_worst_near_duplicates_fall_back_to_the_kernel(monkeypatch, screened, tile):
    # twelve points a few ulps apart at the offset 1e8: the Gram estimate of
    # their distances cancels to noise, so every such pair goes to the
    # exact kernel, whose image differences are rounding noise too
    monkeypatch.setattr(certify, "_SCREEN_TILE", tile)
    rng = Seed(21).generator()
    P = rng.standard_normal((300, 4))
    cluster = np.full((12, 4), 1e8)
    cluster[:, 0] += np.arange(12) * np.spacing(1e8)
    P[100:112] = cluster
    rep = _assert_worst_matches(gaussian_map(3, 4, 22), _gaussian_set(P))
    assert {(i, j) for i in range(100, 112) for j in range(i + 1, 112)} <= screened
    assert pair_from_flat(300, rep.violating_index)[0] >= 100  # the noise is the worst pair
    assert len(screened) < 1000  # of 44850 pairs


def test_pairwise_worst_screen_work_on_the_benchmark_set(screened):
    # the certify benchmark's set and map at seed 1: the screen sends 10 of
    # its 4.6M pairs to the exact kernel, each row's as one span
    X = hard_instance(32, 3000, 1)
    _assert_worst_matches(gaussian_map(128, 32, 1), X)
    assert len(screened) == 10


@pytest.mark.parametrize("tile", [16, 192])
def test_pairwise_worst_exact_duplicates(monkeypatch, screened, tile):
    monkeypatch.setattr(certify, "_SCREEN_TILE", tile)
    P = gaussian_vectors(5, 300, 23).points.copy()
    P[50] = P[250] = P[7]
    P[299] = P[100]
    rep = _assert_worst_matches(gaussian_map(3, 5, 24), _gaussian_set(P))
    assert [pair_from_flat(300, f) for f in rep.skipped] == [(7, 50), (7, 250), (50, 250), (100, 299)]


@pytest.mark.parametrize("tile", [16, 192])
def test_pairwise_worst_ties_span_tiles(monkeypatch, screened, tile):
    # under diag(2, 1) the 2850 horizontal pairs of a 20 x 15 grid tie at
    # the worst ratio 4, in every tile; the first, (0, 15), is reported
    monkeypatch.setattr(certify, "_SCREEN_TILE", tile)
    grid = np.array([[x, y] for x in range(20) for y in range(15)], dtype=float)
    rep = _assert_worst_matches(LinearMap(np.diag([2.0, 1.0])), _gaussian_set(grid))
    assert (rep.eps_max, pair_from_flat(300, rep.violating_index)) == (3.0, (0, 15))
    # only (0, 300) and (1, 2) are horizontal; the tile of (1, 2) is screened
    # first, yet (0, 300) has the lower flat index
    rng = Seed(28).generator()
    P = np.column_stack([rng.standard_normal(400), 10.0 + 0.37 * np.arange(400)])
    P[[0, 300, 1, 2]] = [[0.0, 0.0], [1.0, 0.0], [5.0, 1.0], [6.0, 1.0]]
    rep = _assert_worst_matches(LinearMap(np.diag([2.0, 1.0])), _gaussian_set(P))
    assert (rep.eps_max, pair_from_flat(400, rep.violating_index)) == (3.0, (0, 300))


@pytest.mark.parametrize("tile", [16, 192])
def test_pairwise_worst_overflowing_images(monkeypatch, screened, tile):
    # the images of points 120 and 150 overflow, and so do their squared
    # distances to every point; each of their pairs is measured as norm mode
    # measures x - y, whose image is finite, so every ratio is finite and
    # within rounding of the exact one
    monkeypatch.setattr(certify, "_SCREEN_TILE", tile)
    P = gaussian_vectors(2, 200, 25).points.copy()
    P[120], P[150] = [1.5e308, 1e308], [1.2e308, 1.4e308]
    row = [1.0, 0.5]
    rep = _assert_worst_matches(LinearMap(np.array([row])), _gaussian_set(P))
    assert np.isfinite(rep.ratios).all()
    for i, j in [(i, j) for i in range(200) for j in range(i + 1, 200) if {i, j} & {120, 150}]:
        exact = _exact_ratio([row], P[i], P[j])
        assert rep.ratios[i * (399 - i) // 2 + j - i - 1] == pytest.approx(float(exact), rel=1e-15)
    assert rep.eps_max == np.abs(rep.ratios - 1.0).max()


_PAIRWISE_ROUTES = {
    "ratios": (lambda A, X: distortion(A, X, "pairwise"), gaussian_map(4, 8, 1)),
    "max-only": (lambda A, X: certify._distortion_json(A, X, "pairwise"), gaussian_map(4, 8, 1)),
    "max-only-fallback": (lambda A, X: certify._distortion_json(A, X, "pairwise"), identity_map(8)),
}


@pytest.mark.parametrize("route", list(_PAIRWISE_ROUTES))
def test_pairwise_routes_take_one_image_from_apply(monkeypatch, route):
    # every pairwise route takes the image P Aᵀ once, from `LinearMap.apply`
    # (the one size check, BLAS-thread scope and product of an image), on
    # the set's own points.  508 points have 128,778 pairs, over the
    # 100,000 under which `_distortion_json` keeps every ratio; under the
    # identity map every pair ties and the screen falls back to the full pass
    measure, A = _PAIRWISE_ROUTES[route]
    X = hard_instance(8, 500, 2)
    images, scans = [], []
    apply, scan_all = LinearMap.apply, certify._scan_all

    def spy_scan(P, Y, A, ratios=None, skipped=()):
        scans.append(ratios is None)
        return scan_all(P, Y, A, ratios, skipped)

    monkeypatch.setattr(LinearMap, "apply", lambda self, points: images.append(points) or apply(self, points))
    monkeypatch.setattr(certify, "_scan_all", spy_scan)
    measure(A, X)
    assert len(images) == 1 and images[0] is X.points
    # the full pass without ratios runs only as the max-only route's fallback
    assert scans == {"ratios": [False], "max-only": [], "max-only-fallback": [True]}[route]


def test_pair_scan_first_nan_rule():
    # one argmax over every pair in flat order, whatever order the pairs are
    # offered in and however they are split among workers: the first NaN,
    # else the largest deviation, the lowest flat index on ties
    P, A = np.zeros((4, 1)), identity_map(1)
    scans = [certify._PairScan(P, P, A, 4) for _ in range(3)]
    offers = [[(1.0, 5), (math.inf, 2)], [(0.5, 1), (math.nan, 9), (math.nan, 7)], [(math.inf, 0)]]
    for scan, offered in zip(scans, offers):
        for dev, flat in offered:
            scan.offer(dev, flat)
    assert (scans[0].worst, scans[0].worst_flat) == (math.inf, 2)
    assert scans[1].worst_flat == 7 and math.isnan(scans[1].worst)
    eps_max, violating = certify._merge(scans)
    assert math.isnan(eps_max) and violating == 7
    # without a NaN, infinities tie and the lower flat index wins
    clean = [certify._PairScan(P, P, A, 4) for _ in range(2)]
    clean[0].offer(math.inf, 2)
    clean[1].offer(math.inf, 0)
    assert certify._merge(clean) == (math.inf, 0)
    assert certify._merge([certify._PairScan(P, P, A, 4)]) == (0.0, None)


@pytest.mark.parametrize("tile", [16, 192])
def test_pairwise_worst_subnormal_differences(monkeypatch, screened, tile):
    # differences whose squares are subnormal or underflow to 0, and points
    # whose squared norms underflow
    monkeypatch.setattr(certify, "_SCREEN_TILE", tile)
    P = gaussian_vectors(2, 100, 26).points.copy()
    P[10:16] = [[1.0, 0.0], [1.0, 5e-324], [1.0, 1e-160], [1e-170, 0.0], [2e-170, 0.0], [0.0, 3e-170]]
    P[60] = [1.0, 1e-161]
    _assert_worst_matches(gaussian_map(2, 2, 27), _gaussian_set(P))


def test_pairwise_rescued_pairs_keep_their_bits_in_any_batch():
    # every pair's squared distance underflows, so each is measured as norm
    # mode measures x - y; point 5 repeats point 0, so pairs (0, 6) and
    # (5, 6) are the same pair and tie, although the full pass meets them in
    # different batches than the max-only route's spans
    rng = Seed(0).generator()
    P = rng.standard_normal((7, 4)) * 1e-300
    P[5] = P[0]
    A = LinearMap(rng.standard_normal((2, 4)) * 1e100)
    rep = _assert_worst_matches(A, _gaussian_set(P))
    # with the skipped pair (0, 5), flat 4, left out, flat indices 5 and
    # 20 hold ratios 4 and 19
    assert rep.skipped == (4,)
    assert rep.ratios[4].tobytes() == rep.ratios[19].tobytes()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pairwise_worst_matches_distortion_property(data):
    # small random sets with points scaled across the double range and
    # duplicated, at several tile sizes
    N, n, m = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    rng = Seed(data.draw(st.integers(0, 2**32 - 1))).generator()
    scales = [1e-300, 1e-160, 1e-8, 1.0, 1e8, 1e160, 1e300]
    P = rng.standard_normal((N, n)) * np.array(data.draw(st.lists(st.sampled_from(scales), min_size=N, max_size=N)))[:, None]
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), max_size=6)):
        P[a] = P[b]
    A = LinearMap(rng.standard_normal((m, n)) * data.draw(st.sampled_from([1e-100, 1.0, 1e100])))
    tile = certify._SCREEN_TILE
    certify._SCREEN_TILE = data.draw(st.sampled_from([2, 5, 16, 192]))
    try:
        _assert_worst_matches(A, _gaussian_set(P))
    finally:
        certify._SCREEN_TILE = tile


def _spy_precision(seen):
    # wraps the screen's precision rule; returns the original to restore
    rule = certify._screen_dtype
    certify._screen_dtype = lambda *a: seen.append(rule(*a)) or seen[-1]
    return rule


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pairwise_worst_float32_screen_property(data):
    # sets scaled by 2^e on both sides of the float32 screen's range
    # [2^-50, 2^50] of squared norms, under maps scaled by 2^f, with repeated
    # points and the origin: the screen runs in the precision the rule names
    # for the squared norms, and the max-only route equals the ratio route
    N, n, m = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    rng = Seed(data.draw(st.integers(0, 2**32 - 1))).generator()
    P = rng.standard_normal((N, n)) * 2.0 ** data.draw(st.integers(-40, 40))
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), max_size=4)):
        P[a] = P[b]
    if data.draw(st.booleans()):
        P[data.draw(st.integers(0, N - 1))] = 0.0
    A = LinearMap(rng.standard_normal((m, n)) * 2.0 ** data.draw(st.integers(-12, 12)))
    tile, seen = certify._SCREEN_TILE, []
    certify._SCREEN_TILE = data.draw(st.sampled_from([2, 5, 16, 192]))
    rule = _spy_precision(seen)
    try:
        _assert_worst_matches(A, _gaussian_set(P))
    finally:
        certify._SCREEN_TILE, certify._screen_dtype = tile, rule
    sqs = np.concatenate([np.einsum("ij,ij->i", M, M) for M in (P, A.apply(P))])
    inside = np.all(((sqs == 0.0) | (sqs >= 2.0**-50)) & (sqs <= 2.0**50))
    assert seen == [np.float32 if inside else np.float64]


def test_screen_precision_rule():
    # float32 when every squared norm of the points and of their images is 0
    # or in [2^-50, 2^50] and c = 12 (k + 4) 2^-24 is at most 2^-8 on both
    # sides (k <= 5457); float64 otherwise
    rule = certify._screen_dtype
    inside = np.array([0.0, 2.0**-50, 1.0, 2.0**50])
    assert rule((32, 128), [inside, inside]) is np.float32
    assert rule((5457, 1), [inside, inside]) is np.float32
    assert rule((1, 5458), [inside, inside]) is np.float64
    for v in (np.nextafter(2.0**-50, 0.0), 5e-324, np.nextafter(2.0**50, np.inf), np.inf, np.nan):
        assert rule((32, 128), [inside, np.append(inside, v)]) is np.float64
        assert rule((32, 128), [np.append(inside, v), inside]) is np.float64


def test_pairwise_worst_near_tie_is_the_float64_argmax(screened):
    # two pairs along e1 under diag(1.5, 1, 1), (0, 1) and (2, 3), deviate by
    # 1.25 / (1 + δ²) with δ² = 2e-9 and 1e-9: 1e-9 apart, far below the
    # float32 screen's resolution, so both reach the exact kernel, which
    # names the later pair (2, 3).  The other points lie in the plane x = 0
    rng = Seed(29).generator()
    P = np.zeros((300, 3))
    P[4:, 1:] = rng.uniform(5.0, 10.0, (296, 2))
    P[:4] = [[0.0, 0.0, 0.0], [1.0, math.sqrt(2e-9), 0.0], [0.0, 0.0, 100.0], [1.0, math.sqrt(1e-9), 100.0]]
    seen = []
    rule = _spy_precision(seen)
    try:
        rep = _assert_worst_matches(LinearMap(np.diag([1.5, 1.0, 1.0])), _gaussian_set(P))
    finally:
        certify._screen_dtype = rule
    assert seen == [np.float32]
    assert {(0, 1), (2, 3)} <= screened
    worst = certify._row_base(300, 2) + 3  # the flat index of (2, 3); no pair is skipped
    assert rep.violating_index == worst
    assert 0.0 < rep.ratios[worst] - rep.ratios[0] < 2e-9


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pairwise_worst_on_the_benchmark_shape_matches_pdist(seed):
    # an independent route: scipy's pdist of the set and of its image gives
    # the same worst pair as the float32 screen and its exact kernel
    from scipy.spatial.distance import pdist

    X, A = hard_instance(32, 3000, seed), gaussian_map(128, 32, seed)
    seen = []
    rule = _spy_precision(seen)
    try:
        eps_max, violating = _pairwise_worst(A, X.points)
    finally:
        certify._screen_dtype = rule
    assert seen == [np.float32]
    dev = np.abs(pdist(X.points @ A.entries.T, "sqeuclidean") / pdist(X.points, "sqeuclidean") - 1.0)
    worst = int(np.argmax(dev))
    assert violating == worst
    assert eps_max == pytest.approx(float(dev[worst]), rel=1e-12)


def _exact_ratio(rows, x, y):
    # ‖A(x - y)‖² / ‖x - y‖² in exact rational arithmetic
    d = [Fraction(u) - Fraction(v) for u, v in zip(x, y)]
    return sum(sum(Fraction(a) * v for a, v in zip(row, d)) ** 2 for row in rows) / sum(v * v for v in d)


def _rounded(q):
    # the double nearest the rational q, inf past the largest double
    try:
        return float(q)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize(
    "points, rows, eps_max, violating",
    [
        ([[1.0, 0.0], [0.0, 1.0], [1e200, 1.0]], [[1.0, 0.0]], 0.5, 0),
        ([[1.0, 0.0], [0.0, 1.0], [1e-170, 0.0], [2e-170, 0.0]], [[2.0, 0.0]], 3.0, 1),
        # Ax and Ay round to 1e300, while A(x - y) = (3e-160)
        ([[1e300, 1e-160], [1e300, 0.0], [0.0, 1.0]], [[1.0, 3.0]], 8.0, 0),
        # Ax and Ay overflow, so Ax - Ay is NaN, while A(x - y) = (0, 1); the
        # images of the other two differences overflow in norm mode too
        ([[1e154, 0.0], [1e154, 1.0], [0.0, 1.0]], [[2e154, 0.0], [0.0, 1.0]], math.inf, 1),
    ],
    ids=["overflow", "underflow", "cancelled-image", "overflowing-images"],
)
def test_pairwise_ratios_survive_underflow_and_overflow(points, rows, eps_max, violating):
    # a pair whose squared distance overflows, or underflows although x != y,
    # or whose image difference Ax - Ay is not finite, gets the ratio norm
    # mode gives the point x - y: every ratio is the exact rational one,
    # rounded, by both routes, nothing is skipped, and the pairs in range
    # keep the bits of the unscaled computation
    P, A = np.array(points), LinearMap(np.array(rows))
    exact = [_rounded(_exact_ratio(rows, P[i], P[j])) for i in range(len(P)) for j in range(i + 1, len(P))]
    rep = _assert_worst_matches(A, _gaussian_set(P))
    assert rep.ratios.tolist() == exact
    assert (rep.eps_max, rep.violating_index, rep.skipped) == (eps_max, violating, ())
    i, j = np.triu_indices(len(P), 1)
    norm = [distortion(A, _gaussian_set(P[[b]] - P[[a]])).ratios[0] for a, b in zip(i, j)]
    assert rep.ratios.tolist() == norm
    with np.errstate(over="ignore", invalid="ignore"):  # this unguarded image overflows where A's does
        Q = P @ A.entries.T
        before = np.einsum("ij,ij->i", P[j] - P[i], P[j] - P[i])
        after = np.einsum("ij,ij->i", Q[j] - Q[i], Q[j] - Q[i])
    normal = (before >= np.finfo(float).tiny) & (before < np.inf) & (after < np.inf)
    assert rep.ratios[normal].tobytes() == (after[normal] / before[normal]).tobytes()


def test_pairwise_skips_exactly_the_equal_pairs():
    # differences whose squares underflow, between points near 1e300 and
    # near 1e-300, are scaled rather than skipped; only (0, 2) has x = y
    P = np.array([[1e300, 1e-160], [1e300, 0.0], [1e300, 1e-160], [1e-300, 0.0], [0.0, 0.0], [1e-300, 5e-324]])
    rep = _assert_worst_matches(gaussian_map(2, 2, 1), _gaussian_set(P))
    assert [pair_from_flat(6, f) for f in rep.skipped] == [(0, 2)]
    assert np.isfinite(rep.ratios).all()


def test_pairwise_worst_memory_is_under_a_byte_per_pair():
    # the library route's 8 bytes per pair are gone: the image, the screen's
    # Gram tiles and the kernel's scratch stay under 1 byte per pair
    N = 2000
    X = gaussian_vectors(8, N, 3)
    A = gaussian_map(4, 8, 5)
    tracemalloc.start()
    try:
        eps_max, violating = _pairwise_worst(A, X.points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * (N - 1) // 2
    rep = distortion(A, X, "pairwise")
    assert (eps_max, violating) == (rep.eps_max, rep.violating_index)
    assert certify._skipped_pairs(X.points).size == 0 and rep.skipped == ()


def test_pairwise_skipped_pairs_cost_one_int_each():
    # 500 identical points: every pair is skipped, and each costs one int64
    # in the grouping's list, then one Python int in the report's tuple and
    # the JSON's list
    N = 500
    P = np.zeros((N, 2))
    P[:, 0] = 1.0
    tracemalloc.start()
    try:
        report = certify._distortion_json(identity_map(2), _gaussian_set(P), "pairwise")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = N * (N - 1) // 2
    assert report["skipped"] == list(range(pairs)) and report["n_ratios"] == 0
    assert peak < 80 * pairs


def test_pairwise_skipped_pair_budget():
    # one point over the budget: 3163 identical points have 5000703
    # zero-distance pairs; both routes refuse them before the scan
    assert 3162 * 3161 // 2 <= certify.MAX_SKIPPED < 3163 * 3162 // 2
    P = np.zeros((3163, 2))
    P[:, 1] = -1.0
    X = _gaussian_set(P)
    for measure in (lambda: distortion(identity_map(2), X, "pairwise"),
                    lambda: certify._distortion_json(identity_map(2), X, "pairwise")):
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="5000703 zero-distance pairs, over the 5000000 skipped-pair limit"):
                measure()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    # the count up front is the kernel's: -0.0 = 0.0, as in x - y
    P = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 0.0], [-0.0, -0.0], [5e-324, 0.0], [1.0, 1.0]])
    rep = distortion(identity_map(2), _gaussian_set(P), "pairwise")
    assert [pair_from_flat(6, f) for f in rep.skipped] == [(0, 1), (2, 3)]
    assert certify._skipped_pairs(P).tolist() == list(rep.skipped) == [0, 9]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_skipped_pairs_are_the_equal_rows_property(data):
    # the grouping's list is the brute-force list of pairs i < j with equal
    # rows, with -0.0 = 0.0, and both routes report it as ``skipped``
    N, n = data.draw(st.integers(2, 30)), data.draw(st.integers(1, 3))
    values = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 1e300, -1e300])
    P = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=N, max_size=N)))
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), max_size=6)):
        P[a] = P[b]
    brute = [certify._row_base(N, i) + j for i in range(N) for j in range(i + 1, N) if np.array_equal(P[i], P[j])]
    assert certify._skipped_pairs(P).tolist() == brute
    A, X = gaussian_map(2, n, 1), _gaussian_set(P)
    assert list(distortion(A, X, "pairwise").skipped) == brute
    cap = certify._JSON_RATIO_CAP
    certify._JSON_RATIO_CAP = -1  # every set takes the max-only route
    try:
        assert certify._distortion_json(A, X, "pairwise")["skipped"] == brute
    finally:
        certify._JSON_RATIO_CAP = cap


def test_distortion_mode_and_shape_validation():
    X = standard_basis(3)
    with pytest.raises(ValueError, match="mode"):
        distortion(identity_map(3), X, "weird")
    with pytest.raises(ValueError, match="dimension"):
        distortion(identity_map(4), X)


def test_violating_index_is_original_enumeration():
    # zero vector sits before the worst point
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    X = PointSet(2, pts, ("origin", "gaussian", "gaussian"))
    A = LinearMap(np.array([[1.0, 0.0], [0.0, 2.0]]))
    rep = distortion(A, X)
    assert rep.skipped == (0,)
    assert rep.violating_index == 2


def test_report_json_fields():
    X = hard_instance(3, 4, 2)
    rep = distortion(gaussian_map(2, 3, 5), X)
    blob = json.dumps(rep.to_json())
    data = json.loads(blob)
    assert set(data) == {"mode", "eps_max", "violating_index", "n_ratios", "ratios", "skipped"}
    data = rep.to_json()
    assert data == {
        "mode": rep.mode,
        "eps_max": rep.eps_max,
        "violating_index": rep.violating_index,
        "n_ratios": rep.ratios.size,
        "ratios": rep.ratios.tolist(),
        "skipped": list(rep.skipped),
    }
    assert [type(data[k]) for k in ("mode", "eps_max", "violating_index", "n_ratios")] == [
        str,
        float,
        int,
        int,
    ]
    assert [type(v) for v in data["ratios"]] == [float] * rep.ratios.size


# ---------------------------------------------------------------------------
# spectral certificates


def test_certificate_against_svd_oracle():
    A = gaussian_map(4, 7, 13)
    cert = spectral_certificate(A)
    s = np.linalg.svd(A.entries, compute_uv=False)
    lam = np.zeros(7)
    lam[:4] = s**2
    assert np.allclose(np.sort(cert.eigenvalues), np.sort(lam), atol=1e-10)
    assert cert.trace == pytest.approx(float(np.sum(s**2)), rel=1e-12)
    assert cert.frob_sq == pytest.approx(float(np.sum(s**4)), rel=1e-12)


def test_trace_two_routes_agree():
    for seed in range(20):
        A = _random_map(seed)
        cert = spectral_certificate(A)
        spectral_trace = float(cert.eigenvalues.sum())
        assert cert.trace == pytest.approx(spectral_trace, rel=1e-8)


def test_rank_lb_identity_is_exact():
    cert = spectral_certificate(identity_map(9))
    assert cert.rank_lb == 9
    assert cert.trace == 9.0


def test_rank_lb_projection_is_exact():
    # orthonormal rows: all eigenvalues are 0 or 1, the bound is tight
    X = hard_instance(8, 20, 1)
    A = pca_map(X, 5)
    assert spectral_certificate(A).rank_lb == 5


def test_rank_lb_zero_map():
    cert = spectral_certificate(LinearMap(np.zeros((3, 4))))
    assert cert.rank_lb == 0
    assert rank_lower_bound(cert) == 0


@pytest.mark.parametrize(
    "entries, name",
    [([[1e200, 0.0]], "the trace"), ([[1e100, 1e100], [1e100, 1e100]], "the squared trace")],
)
def test_certificate_refuses_an_overflowing_trace(entries, name):
    # a trace of inf (or one whose square is) would reach the rank bound as
    # int(ceil(inf * inf / inf)); it is refused first, by name
    with pytest.raises(ArithmeticError, match=f"^{name} of A\\^T A overflows for a"):
        spectral_certificate(LinearMap(np.array(entries)))


def test_rank_lb_rank_one():
    A = LinearMap(np.outer([1.0, 2.0], [3.0, 0.5, -1.0]))
    assert spectral_certificate(A).rank_lb == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_rank_lb_bounded_by_nonzero_count(seed):
    A = _random_map(seed)
    cert = spectral_certificate(A)
    nnz = cert.nonzero_count()
    assert 1 <= cert.rank_lb <= nnz <= min(A.m, A.n)


@pytest.mark.parametrize("m, n", [(3, 11), (6, 6), (11, 3), (40, 90)])
def test_certificate_on_the_smaller_gram_matches_the_n_by_n_route(m, n):
    # the n x n route: eigvalsh(EᵀE), its trace and Frobenius norm, the rank
    # bound and the nonzero count taken from them
    E = gaussian_map(m, n, Seed(70 + m)).entries
    gram = E.T @ E
    lam = np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0)
    frob_sq = float(np.einsum("ij,ij->", gram, gram))
    cert = spectral_certificate(LinearMap(E))
    assert cert.eigenvalues.shape == (n,)
    assert np.abs(cert.eigenvalues - lam).max() <= 1e-12 * lam[0]
    assert cert.frob_sq == pytest.approx(frob_sq, rel=1e-13, abs=0.0)
    assert cert.trace == float(np.einsum("ij,ij->", E, E))
    if m < n:
        assert (cert.eigenvalues[m:] == 0.0).all()
    assert cert.rank_lb == math.ceil(cert.trace**2 / frob_sq - 1e-9)
    assert cert.nonzero_count() == int(np.count_nonzero(lam > 1e-10 * lam[0])) == min(m, n)


def test_certificate_of_a_wide_map_still_refuses_the_size():
    # the spectrum of AᵀA has n entries, so n stays within sqrt(MAX_TOTAL_COORDS)
    with pytest.raises(SizeError, match="100000x100000 Gram matrix"):
        spectral_certificate(LinearMap(np.full((1, 100_000), 0.5)))


@pytest.mark.parametrize(
    "entries",
    [[[1e-100, 0.0]], [[1e-200, 0.0]], [[1e-170, 3e-170, 0.0], [2e-170, -5e-171, 7e-170]]],
    ids=["1e-100", "1e-200", "2x3"],
)
def test_certificate_of_an_underflowing_map(entries):
    # trace, frob_sq and the rank bound against exact rational arithmetic;
    # the sums are reported on the map's own scale (rounding to 0 if they
    # must), the rank bound and the witness come from the rescaled map
    A = LinearMap(np.array(entries))
    E = [[Fraction(v) for v in row] for row in A.entries.tolist()]
    gram = [[sum(r[i] * r[j] for r in E) for j in range(A.n)] for i in range(A.n)]
    trace = sum(v * v for r in E for v in r)
    frob_sq = sum(v * v for r in gram for v in r)
    cert = spectral_certificate(A)
    assert cert.trace == float(trace)
    assert cert.frob_sq == float(frob_sq)
    assert cert.rank_lb == math.ceil(trace * trace / frob_sq) == min(A.m, A.n)
    # squared witness deviations (‖Ae_j‖² - tr)² / ‖AᵀA‖_F² over the basis
    devs_sq = [(gram[j][j] - trace) ** 2 / frob_sq for j in range(A.n)]
    j = max(range(A.n), key=lambda i: devs_sq[i])
    v, dev = witness_search(A, standard_basis(A.n))
    assert np.array_equal(v, np.eye(A.n)[j])
    assert dev == pytest.approx(math.sqrt(devs_sq[j]), rel=1e-12)
    report = audit_embedding(A, standard_basis(A.n), 0.5)
    assert report.rank_lb == cert.rank_lb and report.witness_deviation == dev


def test_eigenvalues_descending_nonnegative():
    A = _random_map(404)
    lam = spectral_certificate(A).eigenvalues
    assert (np.diff(lam) <= 0).all()
    assert (lam >= 0).all()


# ---------------------------------------------------------------------------
# witness


def test_witness_identity_oracle():
    # A = I: deviation of v is ||v|^2 - n| / sqrt(n)
    X = hard_instance(4, 5, 21)
    v, dev = witness_search(identity_map(4), X)
    sq = np.einsum("ij,ij->i", X.points, X.points)
    expected = np.abs(sq - 4.0) / 2.0
    j = int(np.argmax(expected))
    assert dev == pytest.approx(expected[j])
    assert np.array_equal(v, X.points[j])


def test_witness_ties_break_low():
    X = PointSet(2, np.array([[1.0, 0.0], [0.0, 1.0]]), ("basis", "basis"))
    v, _ = witness_search(identity_map(2), X)
    assert np.array_equal(v, np.array([1.0, 0.0]))


def test_witness_scale_invariant():
    # numerator and denominator both scale by c^2, so deviation and argmax
    # are unchanged
    X = hard_instance(5, 30, 2)
    A = gaussian_map(3, 5, 3)
    v1, d1 = witness_search(A, X)
    v2, d2 = witness_search(LinearMap(3.0 * A.entries), X)
    assert np.array_equal(v1, v2)
    assert d2 == pytest.approx(d1, rel=1e-12)


def test_witness_zero_map_rejected():
    with pytest.raises(ValueError, match="zero map"):
        witness_search(LinearMap(np.zeros((2, 2))), standard_basis(2))


@pytest.mark.parametrize(
    "call",
    [lambda A, X: distortion(A, X), lambda A, X: distortion(A, X, "pairwise"),
     lambda A, X: witness_search(A, X), lambda A, X: audit_embedding(A, X, 0.5)],
    ids=["norm", "pairwise", "witness", "audit"],
)
def test_map_and_set_dimensions_must_agree(call):
    # one check serves every entry point that takes a map and a set
    with pytest.raises(ValueError, match="map has 3 columns but the set has dimension 4"):
        call(identity_map(3), standard_basis(4))


def test_witness_example_frequency():
    # pre-registered thresholds: over 50 seeded (map, set) pairs at
    # (n, m, k) = (64, 8, 4096) the top deviation is at least 1.0 in at
    # least 95% of pairs
    hits = 0
    for i in range(50):
        A = gaussian_map(8, 64, Seed(1000 + i))
        V = hard_instance(64, 4096, Seed(2000 + i))
        _, dev = witness_search(A, V)
        hits += dev >= 1.0
    assert hits >= 48


# ---------------------------------------------------------------------------
# audit


def test_audit_passes_on_good_map():
    n = 16
    X = hard_instance(n, 40, 5)
    A = gaussian_map(64, n, 6)  # m > n: norms concentrate tightly
    eps = distortion(A, X).eps_max
    assert eps < 1.0
    report = audit_embedding(A, X, min(0.99, eps * 1.01))
    assert report.precondition_ok
    assert report.trace_window_ok
    assert report.rank_ok
    assert report.ok
    assert "more rows than columns" in report.notes


def test_audit_computes_one_certificate(monkeypatch):
    import jllab.certify

    calls = []
    real = jllab.certify.spectral_certificate
    monkeypatch.setattr(jllab.certify, "spectral_certificate", lambda A: calls.append(A) or real(A))
    X = hard_instance(8, 20, 5)
    A = gaussian_map(32, 8, 6)
    report = audit_embedding(A, X, 0.99)
    assert len(calls) == 1
    _, wdev = witness_search(A, X)
    assert report.witness_deviation == wdev


@pytest.mark.parametrize("entries", [[[1e-200, 0.0]], [[1e-100, 0.0]], [[0.75, -0.5]]], ids=["1e-200", "1e-100", "normal"])
def test_each_caller_eigensolves_once(monkeypatch, entries):
    # a map whose sums underflow is certified in one eigendecomposition, as
    # a map with normal sums is: its certificate keeps the scaled map's, so
    # the witness, the threshold and the tail sample never take a second one
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M) or eigvalsh(M))
    monkeypatch.setattr(concentration, "_record", None)
    X = standard_basis(2)
    for run in (
        lambda A: audit_embedding(A, X, 0.5),
        lambda A: witness_search(A, X),
        lambda A: chaos_tail_estimate(A, 1.0, 1.0, 1000, 1),
        lambda A: joint_event_rate(A, 0.05, 0.5, 1.0, 1000, 1),
        lambda A: chaos_threshold(A, 1.0, 1.0),
    ):
        calls.clear()
        run(LinearMap(entries))
        assert len(calls) == 1


def test_audit_requires_basis():
    X = PointSet(3, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), ("basis", "basis"))
    with pytest.raises(AuditError, match="e_3"):
        audit_embedding(identity_map(3), X, 0.5)


def test_audit_trace_window_identity():
    report = audit_embedding(identity_map(5), standard_basis(5), 0.1)
    assert report.trace == 5.0
    assert report.eps_max == 0.0
    assert report.ok


def test_audit_flags_precondition_failure():
    X = standard_basis(4)
    A = LinearMap(np.eye(4) * 2.0)  # ratios are 4.0 on every basis vector
    report = audit_embedding(A, X, 0.5)
    assert not report.precondition_ok
    assert not report.trace_window_ok
    assert "exceeds eps" in report.notes
    assert not report.ok


def test_audit_window_is_sharp():
    # trace = sum of basis ratios: scaled identity sits exactly on the edge
    n = 4
    A = LinearMap(np.eye(n) * math.sqrt(1.25))
    report = audit_embedding(A, standard_basis(n), 0.25 + 1e-12)
    assert report.precondition_ok
    assert report.trace_window_ok


def test_audit_eps_range():
    with pytest.raises(ValueError, match="eps"):
        audit_embedding(identity_map(2), standard_basis(2), 0.0)
    with pytest.raises(ValueError, match="eps"):
        audit_embedding(identity_map(2), standard_basis(2), 1.0)


def test_audit_json_fields():
    report = audit_embedding(identity_map(3), standard_basis(3), 0.2)
    data = report.to_json()
    for key in (
        "eps",
        "eps_max",
        "trace",
        "frob_sq",
        "eigenvalues",
        "rank_lb",
        "witness_deviation",
        "trace_window_ok",
        "precondition_ok",
        "rank_ok",
        "notes",
    ):
        assert key in data
    json.dumps(data)
    assert list(data.items()) == [
        ("eps", report.eps),
        ("eps_max", report.eps_max),
        ("precondition_ok", report.precondition_ok),
        ("trace", report.trace),
        ("trace_window_ok", report.trace_window_ok),
        ("frob_sq", report.frob_sq),
        ("eigenvalues", report.eigenvalues.tolist()),
        ("rank_lb", report.rank_lb),
        ("rank_ok", report.rank_ok),
        ("witness_deviation", report.witness_deviation),
        ("m", report.m),
        ("n", report.n),
        ("notes", report.notes),
    ]
    types = [float, float, bool, float, bool, float, list, int, bool, float, int, int, str]
    assert [type(v) for v in data.values()] == types
    assert [type(v) for v in data["eigenvalues"]] == [float] * 3
    cert = spectral_certificate(identity_map(3))
    data = cert.to_json()
    assert list(data.items()) == [
        ("trace", cert.trace),
        ("frob_sq", cert.frob_sq),
        ("eigenvalues", cert.eigenvalues.tolist()),
        ("rank_lb", cert.rank_lb),
    ]
    assert [type(v) for v in data.values()] == [float, float, list, int]
    assert [type(v) for v in data["eigenvalues"]] == [float] * 3


# ---------------------------------------------------------------------------
# BLAS threads


_ENTRY_POINTS = {
    "norm": lambda A, X, M: distortion(A, X),
    "pairwise": lambda A, X, M: distortion(A, X, "pairwise"),
    "max-only": lambda A, X, M: certify._distortion_json(A, X, "pairwise"),
    "certificate": lambda A, X, M: spectral_certificate(A),
    "witness": lambda A, X, M: witness_search(A, X),
    "audit": lambda A, X, M: audit_embedding(A, X, 0.99),
    "form": lambda A, X, M: concentration.symmetric_form_tail_estimate(M, 1.0, 1.0, 3000, 1),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_certify_layer_holds_one_blas_thread(monkeypatch, entry):
    # every product of the entry point (an image, the screen's GEMMs, an
    # eigensolver) runs while the count is 1, and the count is restored
    # after the last.  The probe sits in the product itself, np.matmul, which
    # `LinearMap.apply` calls inside its own scope.  508 points have 128,778
    # pairs, over the 100,000 under which `_distortion_json` takes the route
    # that keeps every ratio
    A, X, M = gaussian_map(4, 8, 1), hard_instance(8, 500, 2), np.diag([2.0, 1.0, -1.0, 0.5])
    events = []
    monkeypatch.setattr(_runtime._BLAS, "api", (lambda: 4, events.append))
    monkeypatch.setattr(_runtime._BLAS, "looked", True)
    matmul, eigvalsh = np.matmul, np.linalg.eigvalsh
    monkeypatch.setattr(np, "matmul", lambda *a, **k: events.append("product") or matmul(*a, **k))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: events.append("product") or eigvalsh(G))
    if entry == "max-only":
        worst = certify._pairwise_worst
        monkeypatch.setattr(certify, "_pairwise_worst", lambda *a: (worst(*a), events.append("max-only"))[0])
    _ENTRY_POINTS[entry](A, X, M)
    assert events[0] == 1 and "product" in events
    count = 4
    for event in events:
        if event == "product":
            assert count == 1
        elif event != "max-only":
            count = event
    assert count == 4
    assert ("max-only" in events) == (entry == "max-only")


_THREAD_CASES = {
    "apply": "from jllab import gaussian_map, hard_instance\n"
    "out = gaussian_map(300, 700, 2).apply(hard_instance(700, 5000, 3).points).tobytes()\n",
    "certificate": "from jllab import gaussian_map, spectral_certificate\n"
    "out = spectral_certificate(gaussian_map(512, 1024, 1)).eigenvalues.tobytes()\n",
    "map-sample": "from jllab import gaussian_map, map_samples\n"
    "img, nrm = map_samples(gaussian_map(900, 1000, 1), 3000, 2)\n"
    "out = img.tobytes() + nrm.tobytes()\n",
    "norm-distortion": "from jllab import distortion, gaussian_map, hard_instance\n"
    "rep = distortion(gaussian_map(300, 700, 2), hard_instance(700, 5000, 3))\n"
    "out = rep.ratios.tobytes() + rep.eps_max.hex().encode()\n",
    "pairwise": "from jllab import distortion, gaussian_map, gaussian_vectors\n"
    "rep = distortion(gaussian_map(40, 400, 2), gaussian_vectors(400, 700, 3), 'pairwise')\n"
    "out = rep.ratios.tobytes() + rep.eps_max.hex().encode() + str(rep.violating_index).encode()\n",
    "max-only": "import json, pathlib, tempfile\n"
    "from jllab import gaussian_map, gaussian_vectors, write_map, write_pointset\n"
    "from jllab.cli import main\n"
    "with tempfile.TemporaryDirectory() as d:\n"
    "    s, m, c = (str(pathlib.Path(d) / f) for f in ('s.jlps', 'm.jlmap', 'c.json'))\n"
    "    write_pointset(s, gaussian_vectors(500, 700, 3))\n"
    "    write_map(m, gaussian_map(50, 500, 2))\n"
    "    import jllab.certify as C\n"
    "    rule, seen = C._screen_dtype, []\n"
    "    C._screen_dtype = lambda *a: seen.append(rule(*a)) or seen[-1]\n"
    "    main(['certify', '--map', m, '--set', s, '--mode', 'pairwise', '--out', c])\n"
    "    assert [d.__name__ for d in seen] == ['float32'], seen\n"
    "    out = json.dumps(json.loads(pathlib.Path(c).read_text())['distortion']).encode()\n",
    "pca": "from jllab import hard_instance, pca_map\n"
    "out = pca_map(hard_instance(256, 2000, 3), 128).entries.tobytes()\n",
    "tails": "import pathlib, tempfile\nfrom jllab.cli import main\n"
    "with tempfile.TemporaryDirectory() as d:\n"
    "    path = pathlib.Path(d) / 't.csv'\n"
    "    main(['tails', '--n', '1024', '--trials', '2048', '--seed', '1', '--out', str(path)])\n"
    "    out = path.read_bytes().split(b'\\n', 1)[1]\n",
}


@pytest.mark.parametrize("case", list(_THREAD_CASES))
def test_certify_layer_does_not_depend_on_the_blas_thread_count(run_capped, case):
    # one- and two-thread OpenBLAS give different bits for these products
    # (the 900 x 1000 map's sample on some hosts); each holds one thread,
    # `LinearMap.apply`, the samplers and `pca_map`'s SVD too, so processes
    # at either count agree (the tails body, its config line aside, carries
    # the chaos thresholds of the 512 x 1024 map's certificate).  The two
    # pairwise routes (the ratios on the pool, n + m >= 64, and the CLI's
    # max-only route over the JSON's 100,000 ratios) take images whose bits
    # differ on two threads at these widths
    code = _THREAD_CASES[case] + "import hashlib\nprint(hashlib.sha256(out).hexdigest())\n"
    done = [run_capped(code, blas_threads=k) for k in (1, 2)]
    assert [d.returncode for d in done] == [0, 0], [d.stderr for d in done]
    # the last line is the hash; the tails run prints its summary first
    assert done[0].stdout.splitlines()[-1] == done[1].stdout.splitlines()[-1]
