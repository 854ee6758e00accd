"""Linear map constructors, the distortion optimizer, and map files."""

import math
import tracemalloc

import numpy as np
import pytest

from jllab import embeddings
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
from jllab.pointset import PointSet, gaussian_vectors, hard_instance, simplex
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
    A = LinearMap(np.ones((2, 3)))
    assert (A.m, A.n) == (2, 3)


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
    # one _rowsq for the set's norms, then one image per starting
    # candidate and per trial step, accepted or rejected
    calls = []
    rowsq = embeddings._rowsq

    def counted(M):
        calls.append(M.shape)
        return rowsq(M)

    monkeypatch.setattr(embeddings, "_rowsq", counted)
    X = hard_instance(8, 40, 3)
    init = gaussian_map(4, 8, 2)
    _, info = optimize_map(X, 4, OptimizerOptions(max_iters=200), init=init, return_info=True)
    assert info.iterations == 200
    assert info.accepted >= 1 and info.backtracks >= 1
    assert len(calls) == 1 + 2 + info.accepted + info.backtracks


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

    # a header sized at 7.28 TiB must not be allocated before a row shows
    # its width; the row has 2 values, not 10**12
    path.write_text("jlmap v1 m=1 n=1000000000000\n1,2\n")
    assert read_peak("line 2") < 2**20
    assert main(["certify", "--map", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err
    # one full-width first row does not size the array either: row 3 is short
    # (10**5 x 10**5 would be 80 GB)
    k = 100_000
    path.write_text(f"jlmap v1 m={k} n={k}\n" + ",".join(["1"] * k) + "\n" + "1\n" * (k - 1))
    assert read_peak("line 3") < 2**24
