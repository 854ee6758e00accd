"""Linear map constructors, the distortion optimizer, and map files."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from jllab import _runtime, embeddings
from jllab.certify import distortion
from jllab.cli import main
from jllab.embeddings import (
    LinearMap,
    OptimizerOptions,
    gaussian_map,
    identity_map,
    optimize_map,
    pca_map,
    read_map,
    write_map,
)
from jllab.pointset import PointSet, SizeError, gaussian_vectors, hard_instance, simplex
from jllab.seeds import Seed

GOLDEN_GMAP_2_3_7 = [
    [0.8249787413744273, -0.3498345009439923, 0.3264328714884595],
    [-0.36727673102175135, 0.5794234603096167, 0.7026223650869813],
]


def test_linear_map_validation():
    with pytest.raises(ValueError):
        LinearMap(np.zeros(3))
    with pytest.raises(ValueError):
        LinearMap(np.array([[np.inf]]))
    # the size rule runs before the entries are copied; the view costs nothing
    with pytest.raises(SizeError, match="a linear map needs a 3163x3162 matrix"):
        LinearMap(np.broadcast_to(0.0, (3163, 3162)))
    A = LinearMap(np.ones((2, 3)))
    assert (A.m, A.n) == (2, 3)


def test_linear_map_is_a_read_only_copy():
    a = np.eye(2)
    A = LinearMap(a)
    a[0, 0] = 5.0
    assert A.entries[0, 0] == 1.0
    with pytest.raises(ValueError):
        A.entries[0, 0] = 5.0
    assert A.entries[0, 0] == 1.0


def test_import_does_not_load_the_thread_pool(run_capped):
    # `_run_strided` imports its pool when it first runs one, so `import
    # jllab`, paid by every CLI call, loads neither concurrent.futures nor
    # the logging it imports
    done = run_capped("import sys\nimport jllab\nprint('concurrent.futures' in sys.modules)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_identity_map():
    A = identity_map(4)
    assert np.array_equal(A.entries, np.eye(4))
    x = np.arange(8.0).reshape(2, 4)
    assert np.array_equal(A.apply(x), x)


def test_gaussian_map_golden():
    assert gaussian_map(2, 3, 7).entries.tolist() == GOLDEN_GMAP_2_3_7


def test_gaussian_map_determinism_and_scale():
    A = gaussian_map(3, 5, 9)
    B = gaussian_map(3, 5, 9)
    assert np.array_equal(A.entries, B.entries)
    assert not np.array_equal(A.entries, gaussian_map(3, 5, 10).entries)


def test_gaussian_map_preserves_norms_in_expectation():
    # MC oracle: the mean squared-norm ratio over many seeded maps is 1
    x = np.array([1.0, 2.0, -1.0, 0.5])
    trials = 4000
    ratios = np.empty(trials)
    for i in range(trials):
        A = gaussian_map(3, 4, Seed(0).child(i))
        ratios[i] = np.sum(A.apply(x[None, :]) ** 2) / np.sum(x**2)
    se = ratios.std(ddof=1) / math.sqrt(trials)
    assert abs(ratios.mean() - 1.0) < 4.0 * se


def test_pca_map_rows_orthonormal():
    X = gaussian_vectors(6, 40, 3)
    A = pca_map(X, 4)
    assert np.allclose(A.entries @ A.entries.T, np.eye(4), atol=1e-12)


def test_pca_map_recovers_low_rank_sets():
    # points inside a 3-dim subspace of R^8: m=3 projection is an isometry on them
    basis = np.linalg.qr(gaussian_vectors(8, 3, 1).points.T)[0][:, :3]
    coeff = gaussian_vectors(3, 50, 2).points
    X = PointSet(8, coeff @ basis.T, ("gaussian",) * 50)
    A = pca_map(X, 3)
    assert distortion(A, X).eps_max < 1e-12


@pytest.mark.parametrize("n, k", [(32, 1024), (64, 4096)])
def test_pca_map_thin_svd_matches_full(n, k):
    X = hard_instance(n, k, 1)
    vt = np.linalg.svd(X.points, full_matrices=True)[2]
    for m in (1, n // 2, n):
        assert pca_map(X, m).entries.tobytes() == vt[:m].tobytes()


def test_pca_map_fewer_points_than_m():
    # 3 points in R^8: the thin SVD has 3 rows, so m = 6 needs the full one
    X = gaussian_vectors(8, 3, 4)
    A = pca_map(X, 6)
    assert A.entries.shape == (6, 8)
    assert np.allclose(A.entries @ A.entries.T, np.eye(6), atol=1e-12)
    assert distortion(A, X).eps_max < 1e-12


def test_pca_map_degenerate_warns():
    X = PointSet(3, np.zeros((2, 3)), ("origin", "origin"))
    with pytest.warns(UserWarning, match="degenerate"):
        A = pca_map(X, 2)
    assert A.entries.shape == (2, 3)


def test_pca_map_range_check():
    X = gaussian_vectors(4, 5, 0)
    with pytest.raises(ValueError):
        pca_map(X, 0)
    with pytest.raises(ValueError):
        pca_map(X, 5)


def test_optimizer_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerOptions(step_shrink=1.0)
    with pytest.raises(ValueError):
        OptimizerOptions(tol=0.0)
    with pytest.raises(ValueError):
        OptimizerOptions(smoothing=-1.0)
    assert OptimizerOptions(seed=5).seed == Seed(5)


def test_optimize_full_dimension_is_near_exact():
    X = hard_instance(6, 20, 4)
    A = optimize_map(X, 6)
    assert distortion(A, X).eps_max <= 1e-6


def test_optimize_reaches_span_dimension():
    # m >= dim(span X): distortion at most 1e-9
    basis = np.linalg.qr(gaussian_vectors(7, 2, 5).points.T)[0][:, :2]
    coeff = gaussian_vectors(2, 30, 6).points
    X = PointSet(7, coeff @ basis.T, ("gaussian",) * 30)
    A = optimize_map(X, 3)
    assert distortion(A, X).eps_max <= 1e-9


def test_optimize_never_worse_than_init():
    X = hard_instance(5, 15, 8)
    opts = OptimizerOptions(max_iters=50)
    init = gaussian_map(3, 5, 2)
    A, info = optimize_map(X, 3, opts, init=init, return_info=True)
    final = distortion(A, X).eps_max
    assert final <= distortion(init, X).eps_max
    assert final <= distortion(pca_map(X, 3), X).eps_max
    assert final == pytest.approx(info.final_distortion)


def test_optimize_improves_on_pca():
    X = hard_instance(6, 30, 1)
    pca_eps = distortion(pca_map(X, 3), X).eps_max
    A, info = optimize_map(X, 3, OptimizerOptions(max_iters=500), return_info=True)
    assert distortion(A, X).eps_max < pca_eps
    assert info.iterations <= 500


def test_objective_history_non_increasing():
    X = hard_instance(5, 20, 9)
    _, info = optimize_map(X, 2, OptimizerOptions(max_iters=300), return_info=True)
    hist = np.array(info.objective_history)
    assert (np.diff(hist) <= 0.0).all()
    assert len(hist) >= 2


def test_optimize_budget_flag():
    X = hard_instance(8, 40, 3)
    _, info = optimize_map(X, 2, OptimizerOptions(max_iters=5), return_info=True)
    assert info.iterations == 5
    assert not info.converged


def test_optimizer_one_image_per_evaluation(monkeypatch):
    # one _rowsq for the set's norms, then one direct image per starting
    # candidate, per 32 accepted steps and for the returned map; every
    # iteration takes one Z = G Pᵀ, and trial steps take no image
    calls, rays = [], []
    rowsq, ray = embeddings._rowsq, embeddings._ray

    def counted(M):
        calls.append(M.shape)
        return rowsq(M)

    def counted_ray(*args):
        rays.append(args[1].shape)
        return ray(*args)

    monkeypatch.setattr(embeddings, "_rowsq", counted)
    monkeypatch.setattr(embeddings, "_ray", counted_ray)
    X = hard_instance(8, 40, 3)
    init = gaussian_map(4, 8, 2)
    _, info = optimize_map(X, 4, OptimizerOptions(max_iters=200), init=init, return_info=True)
    assert info.iterations == 200
    assert info.accepted >= 2 * embeddings._REFRESH and info.backtracks >= 1
    assert len(calls) == 1 + 2 + info.accepted // embeddings._REFRESH + 1
    assert calls[1:] == [(40 + 8, 4)] * (len(calls) - 1)
    assert rays == [(4, 8)] * info.iterations


def test_optimizer_ray_drift_is_bounded_by_refreshes(monkeypatch):
    # just before each refresh, the ratios carried along the accepted ray
    # steps lie within 1e-12 relative of the direct image of the same map
    events = []
    rowsq, smooth = embeddings._rowsq, embeddings._smooth

    def direct(M):
        events.append(("direct", None))
        return rowsq(M)

    def smoothed(r, tau, *bound):
        events.append(("smooth", r))
        return smooth(r, tau, *bound)

    monkeypatch.setattr(embeddings, "_rowsq", direct)
    monkeypatch.setattr(embeddings, "_smooth", smoothed)
    X = hard_instance(16, 64, 1)
    _, info = optimize_map(X, 8, OptimizerOptions(max_iters=300), init=gaussian_map(8, 16, 2),
                           return_info=True)
    # the set's norms and the two starting candidates come first, the
    # returned map's image last; between them, each refresh's image
    # follows its accepted trial's smoothing and precedes its own
    refreshes = [i for i, (kind, _) in enumerate(events) if kind == "direct"][3:-1]
    assert len(refreshes) == info.accepted // embeddings._REFRESH >= 5
    for i in refreshes:
        ray, exact = events[i - 1][1], events[i + 1][1]
        assert np.all(np.abs(ray - exact) <= 1e-12 * np.abs(exact))


def test_optimizer_one_smoothing_per_evaluation(monkeypatch):
    # one log-sum-exp pass per starting candidate, per trial step, per
    # refresh and per temperature change; an accepted step's pass also
    # serves the next gradient, and the history grows once per accepted
    # step, refresh or tau change
    calls = []
    smooth = embeddings._smooth

    def counted(r, tau, *bound):
        calls.append(tau)
        return smooth(r, tau, *bound)

    monkeypatch.setattr(embeddings, "_smooth", counted)
    X = hard_instance(3, 5, 1)
    init = gaussian_map(1, 3, 2)
    _, info = optimize_map(X, 1, OptimizerOptions(max_iters=5000), init=init, return_info=True)
    assert info.stop_reason == "tau_floor"
    assert info.accepted >= 1 and info.backtracks >= 1
    assert len(info.objective_history) - 1 > info.accepted  # some tau changes
    assert len(calls) == 2 + info.backtracks + len(info.objective_history) - 1


def test_smoothing_rejects_before_its_exp_only_what_the_full_pass_rejects():
    # a bound at or under the distortion gives None, and there the full
    # pass's objective is at least the bound, so a trial compared against
    # it is rejected either way; a bound over the distortion, or a NaN
    # distortion, gives the full pass's bits
    rng = np.random.default_rng(5)
    for tau in (1.0, 0.1, 1e-3, 1e-12):
        r = 1.0 + rng.standard_normal(50)
        full = embeddings._smooth(r, tau)
        for bound in (full.top / 2, full.top, np.nextafter(full.top, np.inf), full.objective, np.inf, np.nan):
            got = embeddings._smooth(r, tau, bound)
            if full.top >= bound:
                assert got is None and full.objective >= bound
            else:
                assert got.objective == full.objective and np.array_equal(got.weights, full.weights)
        r[7] = np.nan
        assert math.isnan(embeddings._smooth(r, tau, 0.0).top)
    # with no bound even an infinite distortion (an overflowing candidate's)
    # takes the full pass, as `optimize_map` needs to rank its candidates;
    # that pass's inf - inf warns
    with np.errstate(invalid="ignore"):
        assert embeddings._smooth(np.array([np.inf, 1.0]), 0.1).top == np.inf


def _reference_optimize(X, m, opts, init):
    # the optimizer loop written out in its ray form: a direct image P Eᵀ
    # for each starting candidate, every 32 accepted steps and for the
    # returned map; in between, the weights re-derived from the ratios,
    # gradient 2 (Yt ∘ coef) P, one Z = G Pᵀ per iteration, and each trial
    # step's ratios r + s (s c - b) in closed form
    P = X.points
    sqn = np.einsum("ij,ij->i", P, P)
    isqn = 1.0 / sqn
    Pt = np.ascontiguousarray(P.T)

    def image(E):
        Y = P @ E.T
        return np.ascontiguousarray(Y.T), np.einsum("ij,ij->i", Y, Y) / sqn

    def true_dist(r):
        return float(np.abs(r - 1.0).max())

    def smoothed(r, tau):
        d = np.abs(r - 1.0)
        top = float(d.max())
        return top + tau * math.log(float(np.exp((d - top) / tau).sum()))

    candidates = [pca_map(X, m).entries]
    if init is not None:
        candidates.append(init.entries)
    images = [image(E) for E in candidates]
    dists = [true_dist(r) for _, r in images]
    best = int(np.argmin(dists))
    start = candidates[best]
    A = start.copy()
    Yt, r = images[best]
    best_E, best_dist = start, dists[best]
    init_dist = best_dist
    tau = opts.smoothing
    history = [smoothed(r, tau)]
    step = opts.step_init
    iters = accepted = backtracks = stall = 0
    stop_reason = "max_iters"
    kick = opts.seed.child(0).generator()
    while iters < opts.max_iters and best_dist > 1e-13:
        iters += 1
        d = np.abs(r - 1.0)
        w = np.exp((d - float(d.max())) / tau)
        G = (Yt * (np.sign(r - 1.0) * w * isqn)) @ P
        G *= 2.0 / float(w.sum())
        if np.vdot(G, G) == 0.0:
            G = kick.standard_normal(A.shape)
        Z = G @ Pt
        b = np.einsum("ij,ij->j", Yt, Z) * (2.0 * isqn)
        c = np.einsum("ij,ij->j", Z, Z) * isqn
        moved = False
        prev_f = history[-1]
        while step > 1e-18:
            rc = r + step * (step * c - b)
            fc = smoothed(rc, tau)
            if fc < history[-1]:
                A -= step * G
                Yt -= step * Z
                r = rc
                history.append(fc)
                dc = true_dist(rc)
                if dc < best_dist:
                    best_dist, best_E = dc, A.copy()
                accepted += 1
                if accepted % 32 == 0:
                    Yt, r = image(A)
                    history.append(min(smoothed(r, tau), history[-1]))
                step = min(step * 2.0, 1e9)
                moved = True
                break
            backtracks += 1
            step *= opts.step_shrink
        stall = stall + 1 if not moved or prev_f - history[-1] <= opts.tol * max(1.0, abs(history[-1])) else 0
        if stall >= 2:
            if tau <= 1e-12:
                stop_reason = "tau_floor"
                break
            tau = max(tau * 0.25, 1e-12)
            history.append(min(smoothed(r, tau), history[-1]))
            step = max(step, 1e-6 * opts.step_init)
            stall = 0
    if best_dist <= 1e-13:
        stop_reason = "dist_floor"
    final = true_dist(image(best_E)[1])
    if final > init_dist:
        best_E, final = start, init_dist
    info = embeddings.OptimizeInfo(
        iterations=iters,
        converged=stop_reason != "max_iters",
        init_distortion=init_dist,
        final_distortion=final,
        objective_history=tuple(history),
        stop_reason=stop_reason,
        accepted=accepted,
        backtracks=backtracks,
    )
    return best_E, info


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("with_init", [False, True])
def test_optimizer_matches_reference_loop_bitwise(m, with_init):
    # the ray-priced loop must reproduce its written-out form bit for bit
    # on whatever BLAS runs the suite
    X = hard_instance(8, 40, 3)
    init = gaussian_map(m, 8, 2) if with_init else None
    opts = OptimizerOptions(max_iters=200)
    A, info = optimize_map(X, m, opts, init=init, return_info=True)
    ref_E, ref_info = _reference_optimize(X, m, opts, init)
    assert A.entries.tobytes() == ref_E.tobytes()
    for field in ("iterations", "converged", "stop_reason", "accepted", "backtracks"):
        assert getattr(info, field) == getattr(ref_info, field), field
    for field in ("init_distortion", "final_distortion"):
        assert getattr(info, field).hex() == getattr(ref_info, field).hex(), field
    # the run record's distortion is the map's: `jllab frontier` reports it as eps_opt
    assert info.final_distortion.hex() == distortion(A, X).eps_max.hex()
    assert [v.hex() for v in info.objective_history] == [v.hex() for v in ref_info.objective_history]


def test_optimizer_stop_reasons():
    X = hard_instance(3, 5, 1)
    _, free = optimize_map(X, 1, OptimizerOptions(max_iters=5000), return_info=True)
    assert free.stop_reason == "tau_floor" and free.converged
    # the same run with the budget ending on its tau-floor iteration
    _, last = optimize_map(X, 1, OptimizerOptions(max_iters=free.iterations), return_info=True)
    assert last.iterations == free.iterations
    assert last.stop_reason == "tau_floor" and last.converged
    _, capped = optimize_map(X, 1, OptimizerOptions(max_iters=10), return_info=True)
    assert capped.stop_reason == "max_iters" and not capped.converged
    _, exact = optimize_map(hard_instance(6, 20, 4), 6, return_info=True)
    assert exact.stop_reason == "dist_floor" and exact.converged


def test_optimizer_returns_start_when_ray_overstates_progress(monkeypatch):
    # a ray that claims the first step lands every ratio on 1 makes that
    # step the best iterate; its direct image shows it is worse than the
    # PCA start, so the start comes back with its own distortion
    ray = embeddings._ray

    def overstated(Yt, G, Pt, isqn):
        Z, _, c = ray(Yt, G, Pt, isqn)
        return Z, (np.einsum("ij,ij->j", Yt, Yt) * isqn - 1.0) / 1e6, 0.0 * c

    monkeypatch.setattr(embeddings, "_ray", overstated)
    X = hard_instance(6, 20, 4)
    A, info = optimize_map(X, 3, OptimizerOptions(max_iters=5, step_init=1e6), return_info=True)
    assert info.accepted == 1 and info.stop_reason == "dist_floor"
    assert A.entries.tobytes() == pca_map(X, 3).entries.tobytes()
    assert info.final_distortion == info.init_distortion == distortion(A, X).eps_max


@pytest.mark.parametrize("third", [(1e-170, 0.0), (1e200, 1.0)], ids=["underflow", "overflow"])
@pytest.mark.parametrize("m", [1, 2])
def test_optimizer_ratios_survive_norm_underflow_and_overflow(third, m):
    # the third point's squared norm underflows to 0 or overflows to inf;
    # scaled by a power of two it keeps its ratios, so the run's distortions
    # match exact rational arithmetic on the returned map
    P = np.array([[1.0, 0.0], [0.0, 1.0], third])
    scaled, sqn = embeddings._norm_scaled(P)
    assert scaled[:2].tobytes() == P[:2].tobytes()
    assert np.array_equal(scaled[2], np.ldexp(P[2], -np.frexp(np.abs(P[2]).max())[1]))
    assert np.isfinite(sqn).all() and (sqn >= 0.25).all()
    X = PointSet(2, P, ("gaussian",) * 3)
    A, info = optimize_map(X, m, OptimizerOptions(max_iters=300), return_info=True)

    def exact(E):
        rows = [[Fraction(v) for v in row] for row in E]
        worst = Fraction(0)
        for x in P:
            x = [Fraction(v) for v in x]
            img = sum(sum(a * b for a, b in zip(row, x)) ** 2 for row in rows)
            worst = max(worst, abs(img / sum(v * v for v in x) - 1))
        return float(worst)

    assert info.final_distortion <= 1e-9
    assert abs(info.final_distortion - exact(A.entries)) <= 8 * 2.0**-52
    # `distortion` scales the point by the same rule, so it reads the same bits
    assert info.final_distortion == distortion(A, X).eps_max
    assert abs(info.init_distortion - exact(pca_map(X, m).entries)) <= 8 * 2.0**-52


def test_optimize_rejects_zero_vectors():
    with pytest.raises(ValueError, match="zero norm"):
        optimize_map(simplex(4), 2)


def test_optimize_rejects_bad_init_shape():
    X = hard_instance(4, 8, 0)
    with pytest.raises(ValueError, match="init"):
        optimize_map(X, 2, init=identity_map(4))


def test_optimize_is_deterministic():
    X = hard_instance(5, 12, 6)
    opts = OptimizerOptions(max_iters=100)
    A = optimize_map(X, 3, opts)
    B = optimize_map(X, 3, opts)
    assert np.array_equal(A.entries, B.entries)


def _openblas():
    # numpy's OpenBLAS thread-count getter and setter; skips without them
    api = _runtime._find_openblas()
    if api is None:
        pytest.skip("numpy does not run on OpenBLAS here")
    return api


def _run_record(A, info):
    # every bit of an optimizer run: the map and each OptimizeInfo field
    fields = {k: v.hex() if isinstance(v, float) else v for k, v in vars(info).items()}
    fields["objective_history"] = [v.hex() for v in info.objective_history]
    return A.entries.tobytes(), fields


def test_one_blas_thread_keeps_every_bit(monkeypatch):
    # the frontier benchmark's shapes: its m = 16 row (m N n = 0.54M) runs
    # on one thread and its m = 32 row (1.08M) on the process's threads, on
    # either side of 2^20.  With the threshold just over the m = 16 run's
    # products it holds one thread, with the threshold at them it keeps the
    # process's threads, and the optimizer gives the same bits either way
    get, _ = _openblas()
    X = hard_instance(32, 1024, 5)
    init = gaussian_map(16, 32, 6)
    seen = []
    optimize = embeddings._optimize
    monkeypatch.setattr(embeddings, "_optimize", lambda *a: (seen.append(get()), optimize(*a))[1])
    for m in (16, 32):
        optimize_map(X, m, OptimizerOptions(max_iters=1))
    assert seen == [1, get()]
    runs = []
    work = 16 * len(X) * X.dim
    for bound in (work + 1, work):
        monkeypatch.setattr(embeddings, "_ONE_THREAD_WORK", bound)
        seen.clear()
        A, info = optimize_map(X, 16, OptimizerOptions(max_iters=150), init=init, return_info=True)
        runs.append(_run_record(A, info))
        assert seen == [1 if work < bound else get()]
    assert runs[0] == runs[1]


def test_one_blas_thread_restores_the_count():
    get, _ = _openblas()
    blas = _runtime._BLAS
    before = get()
    with blas.one_thread():
        assert get() == 1
    assert get() == before
    with pytest.raises(RuntimeError, match="inside"):
        with blas.one_thread():
            raise RuntimeError("inside")
    assert get() == before and blas.depth == 0


def test_one_blas_thread_without_openblas(monkeypatch):
    # under another BLAS the scope does nothing
    get, _ = _openblas()
    before = get()
    monkeypatch.setattr(_runtime, "_find_openblas", lambda: None)
    blas = _runtime._BlasThreads()
    with blas.one_thread():
        assert get() == before and blas.depth == 0
    assert blas.looked and blas.api is None and get() == before


class _YieldingCount:
    # a stand-in thread count whose getter and setter give up the
    # interpreter lock, as ctypes calls do, on every call
    def __init__(self):
        self.count = 2

    def get(self):
        time.sleep(0)
        return self.count

    def set(self, k):
        time.sleep(0)
        self.count = k


@pytest.mark.parametrize("api", ["openblas", "yielding"])
def test_one_blas_thread_overlapping_scopes(monkeypatch, api):
    # more threads than cores enter and leave overlapping scopes; while any
    # scope is open the count is 1, and the last to leave restores it
    if api == "openblas":
        get, _ = _openblas()
        blas = _runtime._BLAS
    else:
        fake = _YieldingCount()
        get = fake.get
        monkeypatch.setattr(_runtime, "_find_openblas", lambda: (fake.get, fake.set))
        blas = _runtime._BlasThreads()
    before = get()
    errors = []

    def worker():
        try:
            stop = time.monotonic() + 0.5
            while time.monotonic() < stop:
                with blas.one_thread():
                    if get() != 1:
                        errors.append(get())
                    with blas.one_thread():
                        if get() != 1:
                            errors.append(get())
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert get() == before and blas.depth == 0


def test_import_does_not_look_up_blas():
    # the lookup opens numpy's core library, so importing jllab must not
    # pay for it: a fresh interpreter finds it unresolved after the import
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = "import jllab, jllab._runtime as r; print(r._BLAS.looked, r._BLAS.api)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "None"]


def test_map_roundtrip_exact(tmp_path):
    A = gaussian_map(3, 5, 77)
    path = tmp_path / "map.jlmap"
    write_map(path, A)
    back = read_map(path)
    assert np.array_equal(back.entries, A.entries)
    first = path.read_bytes()
    assert first.startswith(b"jlmap v1 m=3 n=5\n")
    write_map(path, back)
    assert path.read_bytes() == first


def test_map_parse_errors(tmp_path, capsys):
    path = tmp_path / "bad.jlmap"
    path.write_text("jlmap v1 m=2 n=2\n1,0\n")
    with pytest.raises(ValueError, match="expected 3 lines"):
        read_map(path)
    path.write_text("jlmap v1 m=1 n=2\n1,zzz\n")
    with pytest.raises(ValueError, match="line 2"):
        read_map(path)

    def read_peak(line: str) -> int:
        # read_map must raise naming ``line``; returns its tracemalloc peak
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=line):
                read_map(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a header over the size limit (sized at 7.28 TiB) is refused before
    # any row is read
    path.write_text("jlmap v1 m=1 n=1000000000000\n1,2\n")
    assert read_peak("the header needs a 1x1000000000000 map") < 2**20
    # so is one just over it, without its rows: a 40 MB file of this shape
    # made certify exit 0 at 309 MiB
    path.write_text("jlmap v1 m=3163 n=3162\n")
    assert main(["certify", "--map", str(path)]) == 1
    assert "the header needs a 3163x3162 map, over the 10000000 coordinate limit" in capsys.readouterr().err
    # one inside it (80 MB at the limit) is not allocated before a row shows
    # its width; the row has 2 values, not 10**7
    path.write_text("jlmap v1 m=1 n=10000000\n1,2\n")
    assert read_peak("line 2") < 2**20
    assert main(["certify", "--map", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err
    # one full-width first row does not size the array either: row 3 is short
    # (3162 x 3162 would be 80 MB)
    k = 3162
    path.write_text(f"jlmap v1 m={k} n={k}\n" + ",".join(["1"] * k) + "\n" + "1\n" * (k - 1))
    assert read_peak("line 3") < 2**24
