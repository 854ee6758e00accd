"""Linear maps: random, spectral, and optimized constructions.

A `LinearMap` wraps an ``(m, n)`` float64 matrix acting on row vectors of a
`PointSet` by ``x -> A x``.  Constructors cover the identity, the seeded
gaussian baseline with entry variance ``1/m`` (so squared norms are
preserved in expectation), an uncentered PCA projection, and a local
optimizer that descends a smoothed version of the worst-case distortion.
Sizes follow the package's one rule (`pointset._check_size`): each
constructor refuses a map (or, in `pca_map`, an n x n SVD factor) over
`MAX_TOTAL_COORDS` values with `SizeError` before allocating it, and so
do `LinearMap` before it copies its entries, `read_map` on the header's
m x n before it reads a row, and `LinearMap.apply` for an N x m image.

Maps serialize to a text format with header ``jlmap v1 m=<m> n=<n>`` and
one comma-separated row per output coordinate, 17 significant digits.
`read_map` streams the rows into the map's own array, as the point-set
readers do (see `pointset`).
"""

from __future__ import annotations

import math
import re
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._runtime import _BLAS
from .pointset import PointSet, _Owned, _check_size, _frozen_matrix, _head, _header, _read_body, _write_rows
from .pointset import _require_positive, _require_positive_int
from .seeds import Seed, as_seed

_MAP_HEADER = re.compile(r"^jlmap v1 m=(\d+) n=(\d+)$")


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Immutable (m, n) matrix mapping R^n to R^m.

    ``entries`` is a read-only float64 copy of the matrix it was built from.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = _frozen_matrix(self.entries, "a linear map", "matrix")
        if mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError(f"a linear map needs m, n >= 1, got shape {mat.shape}")
        object.__setattr__(self, "entries", mat)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Image of an (N, n) array of row vectors, shape (N, m).

        Raises `SizeError` before it allocates the image when N m is over
        `MAX_TOTAL_COORDS`.  The product runs on one OpenBLAS thread (see
        `_runtime._BlasThreads`), so the image is the same bytes at any
        ``OPENBLAS_NUM_THREADS``.
        """
        _check_size(f"a {self.m}x{self.n} map", "image", *np.shape(points)[:-1], self.m)
        with _BLAS.one_thread():
            return np.matmul(points, self.entries.T)


def identity_map(n: int) -> LinearMap:
    _require_positive_int("dimension", n)
    _check_size(f"an identity map of dimension {n}", "matrix", n, n)
    return LinearMap(np.eye(n))


def gaussian_map(m: int, n: int, seed: int | Seed) -> LinearMap:
    """Entries iid N(0, 1/m), so E‖Ax‖² = ‖x‖² for every x.

    Entries are drawn as one SFC64 stream keyed by ``seed.child(0)`` and
    scaled by ``1/sqrt(m)``.
    """
    _require_positive_int("m", m)
    _require_positive_int("n", n)
    _check_size(f"a gaussian map from R^{n} to R^{m}", "matrix", m, n)
    gen = as_seed(seed).child(0).generator()
    return LinearMap(gen.standard_normal((m, n)) / math.sqrt(m))


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for `optimize_map`.

    ``smoothing`` is the initial temperature of the soft-max objective and
    ``step_shrink`` the backtracking factor.  ``step_shrink`` must lie in
    (0, 1), and ``step_init``, ``tol`` and ``smoothing`` must be positive
    and finite.
    """

    max_iters: int = 2000
    step_init: float = 1.0
    step_shrink: float = 0.5
    tol: float = 1e-9
    smoothing: float = 0.1
    seed: Seed = Seed(0)

    def __post_init__(self) -> None:
        _require_positive_int("max_iters", self.max_iters)
        for name in ("step_init", "tol", "smoothing"):
            _require_positive(name, getattr(self, name))
        if not 0 < self.step_shrink < 1:
            raise ValueError(f"step_shrink must lie in (0, 1), got {self.step_shrink}")
        object.__setattr__(self, "seed", as_seed(self.seed))


@dataclass(frozen=True)
class OptimizeInfo:
    """Diagnostics from one `optimize_map` run.

    ``objective_history`` records the smoothed objective at the start and
    after every accepted step, refresh and temperature change (see
    `optimize_map`); it is non-increasing.  ``stop_reason`` is ``"dist_floor"``,
    ``"tau_floor"`` or ``"max_iters"`` (see `optimize_map`), and
    ``converged`` is False iff it is ``"max_iters"``.  ``accepted`` and
    ``backtracks`` count the accepted and the rejected trial steps.
    """

    iterations: int
    converged: bool
    init_distortion: float
    final_distortion: float
    objective_history: tuple[float, ...]
    stop_reason: str = "max_iters"
    accepted: int = 0
    backtracks: int = 0


_DIST_FLOOR = 1e-13
_STEP_FLOOR = 1e-18
_REFRESH = 32  # accepted ray steps between direct images of the iterate
_TINY = np.finfo(np.float64).tiny


def _pow2(sq: np.ndarray, *rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the one power-of-two rule of norms, pairs and certificates: the indices
    # k where the squared quantity sq is 0, subnormal, inf or NaN, and for
    # each the exponent e at which 2^-e puts the largest |entry| of row k of
    # the arrays ``rows`` (aligned with sq) in [1/2, 1); 0 for a zero row
    k = np.flatnonzero(~((sq >= _TINY) & (sq < np.inf)))
    big = [np.abs(M[k]).max(axis=tuple(range(1, M.ndim)), initial=0.0) for M in rows]
    return k, np.frexp(np.max(big, axis=0))[1]


def _rowsq(M: np.ndarray) -> np.ndarray:
    # squared norm of every row; certify and concentration share this one
    return np.einsum("ij,ij->i", M, M)


class _Smoothing(NamedTuple):
    objective: float  # top + tau log(total)
    top: float  # the true distortion max|r - 1|
    weights: np.ndarray  # exp((|r - 1| - top) / tau)
    total: float  # sum of the weights
    residual: np.ndarray  # r - 1


def _smooth(r: np.ndarray, tau: float, bound: float | None = None) -> _Smoothing | None:
    # the one log-sum-exp pass over an evaluated map's norm ratios; the
    # optimizer's objective, distortion and gradient weights all read it
    residual = r - 1.0
    d = np.abs(residual)
    top = float(d.max())
    if bound is not None and top >= bound:  # the objective is at least top
        return None
    if top == math.inf:  # an overflowing map's limit, without inf - inf
        weights = (d == top).astype(np.float64)
    else:
        weights = np.exp((d - top) / tau)
    total = float(weights.sum())
    return _Smoothing(top + tau * math.log(total), top, weights, total, residual)


def _norm_scaled(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the points and their squared norms, shared by the optimizer and
    # `distortion`; a point whose squared norm is out of range is first
    # scaled by `_pow2`'s power of two.  Its ratios do not change, the
    # scaling is exact but for coordinates under 2^-1021 times the largest
    # (too small to move the squared norm), and every other point keeps its
    # bits.  A squared norm of 0 is then left only by an exactly zero point
    sqn = _rowsq(P)
    out, e = _pow2(sqn, P)
    if out.size:
        P = P.copy()
        P[out] = np.ldexp(P[out], -e[:, None])
        sqn[out] = _rowsq(P[out])
    return P, sqn


def _ray(Yt: np.ndarray, G: np.ndarray, Pt: np.ndarray, isqn: np.ndarray) -> tuple[np.ndarray, ...]:
    # an optimizer iteration's one product Z = G Pᵀ and the column sums
    # b = 2⟨Ax, Gx⟩/‖x‖², c = ‖Gx‖²/‖x‖² that price its ray A - sG
    Z = G @ Pt
    return Z, np.einsum("ij,ij->j", Yt, Z) * (2.0 * isqn), np.einsum("ij,ij->j", Z, Z) * isqn


# multiply-adds under which `optimize_map`, its only reader, holds one BLAS
# thread.  One optimizer iteration on 2 cores (300 iterations, best of
# 3-5) took, on one thread against two: at n = 64, N = 4160, 0.35 against
# 0.37 ms at m = 1 (m N n = 0.27M), 0.41-0.43 against 0.45 ms at m = 2
# (0.53M) and 0.65 against 0.50 ms at m = 4 (1.06M); at n = 32, N = 1056
# the two stayed within noise of each other (0.07-0.16 ms) up to m = 16
# (0.54M), where the `frontier` benchmark's sweep spent twice the CPU time
# on two threads.  Over it the loop's products come back to back, so the
# second thread always has the next one to do
_ONE_THREAD_WORK = 1 << 20


@_BLAS.one_thread()
def pca_map(X: PointSet, m: int) -> LinearMap:
    """Top-m right singular directions of the (uncentered) point matrix.

    Rows are orthonormal, so the map is a projection onto the dominant
    m-dimensional subspace of the points.  A degenerate all-zero set is
    flagged with a warning and falls back to coordinate directions.  The
    SVD holds one OpenBLAS thread (see `_runtime._BlasThreads`).
    """
    if not 1 <= m <= X.dim:
        raise ValueError(f"need 1 <= m <= {X.dim}, got m={m}")
    P = X.points
    if len(X) == 0 or not P.any():
        warnings.warn("degenerate point set (all zero); using leading coordinate directions")
        _check_size(f"a pca map from R^{X.dim} to R^{m}", "matrix", m, X.dim)
        return LinearMap(np.eye(m, X.dim))
    # the thin SVD has min(N, n) right singular rows; only a set with
    # fewer than m points needs the full n x n factor
    full = len(X) < m
    if full:
        _check_size(f"a pca map of {len(X)} points in dimension {X.dim}", "SVD factor", X.dim, X.dim)
    _, _, vt = np.linalg.svd(P, full_matrices=full)
    return LinearMap(vt[:m])


def optimize_map(
    X: PointSet,
    m: int,
    opts: OptimizerOptions | None = None,
    init: LinearMap | None = None,
    return_info: bool = False,
) -> LinearMap | tuple[LinearMap, OptimizeInfo]:
    """Locally minimize the worst-case norm distortion of X under an (m, n) map.

    The objective is a log-sum-exp smoothing of max_i |‖Ax_i‖²/‖x_i‖² - 1|
    at a temperature that starts at ``opts.smoothing`` and anneals toward
    zero.  Steps are accept-only backtracking descent, and the returned map
    is the iterate with the smallest distortion seen anywhere in the run,
    never worse than its initialization.  Starting candidates are the PCA
    projection and, if given, ``init`` (same shape).

    Trial steps are priced along the gradient ray.  On A - sG a point's
    squared image norm is ‖Ax‖² - 2s⟨Ax, Gx⟩ + s²‖Gx‖², so one product per
    iteration, Z = G Pᵀ (m x N, against a contiguous Pᵀ taken once per
    call), gives every trial's ratios in O(N) as r + s (s c - b), with
    b = 2⟨Ax, Gx⟩/‖x‖² and c = ‖Gx‖²/‖x‖² as column sums.  Each trial then
    costs one smoothing pass, which gives the objective, the distortion
    max|r - 1| and the log-sum-exp weights (none once the distortion
    reaches the objective to beat); an accepted step keeps them for its
    gradient 2 (Yt ∘ coef) P and updates A -= sG, Yt -= sZ in place.

    Direct images are taken as `distortion` takes them, Y = P Eᵀ (N x m)
    with row sums, so a direct max|r - 1| is ``distortion(E, X).eps_max``
    bit for bit (under 2^20 multiply-adds; see below); the loop holds Y
    transposed.  There is one for each starting candidate, one every 32
    accepted steps (the running Yt and ratios are refreshed from A, which
    bounds their drift) and one for the returned map: ``final_distortion``
    is its distortion, and when that would exceed the best starting
    candidate's, the run returns that candidate.

    A point whose squared norm is 0, subnormal or infinite is first scaled
    by a power of two, which leaves its ratios unchanged; every other point
    keeps its bits.  An exactly zero point raises ValueError.

    Running out of ``max_iters`` is not an error; request the run record
    with ``return_info=True`` to see the iteration count, the accepted and
    rejected steps, and the ``stop_reason``: ``"dist_floor"`` when the best
    distortion reached 1e-13, ``"tau_floor"`` when two stalled iterations
    came at the lowest temperature, ``"max_iters"`` when the budget ran
    out first (the only reason with ``converged`` False).

    The run's products are m x N x n multiply-adds at most.  Under 2^20 of
    them the whole run holds OpenBLAS at one thread, as every other product
    of the library (`pca_map` included) does at any size (see
    `_runtime._BlasThreads`).  Larger runs keep the process's threads, so
    at widths where one- and two-thread products differ (none up to n = 64
    on the shapes measured, some at n = 700) their bits, and a direct
    image's against `distortion`'s, may depend on ``OPENBLAS_NUM_THREADS``.
    """
    opts = opts or OptimizerOptions()
    small = m * len(X) * X.dim < _ONE_THREAD_WORK
    with _BLAS.one_thread() if small else nullcontext():
        result, info = _optimize(X, m, opts, init)
    return (result, info) if return_info else result


def _optimize(
    X: PointSet, m: int, opts: OptimizerOptions, init: LinearMap | None
) -> tuple[LinearMap, OptimizeInfo]:
    # the body of `optimize_map`
    if len(X) == 0:
        raise ValueError("cannot optimize over an empty point set")
    if not 1 <= m <= X.dim:
        raise ValueError(f"need 1 <= m <= {X.dim}, got m={m}")
    _check_size(f"an optimized map from R^{X.dim} to R^{m}", "matrix", m, X.dim)
    P, sqn = _norm_scaled(X.points)
    zero = np.flatnonzero(sqn == 0.0)
    if zero.size:
        raise ValueError(f"point {zero[0]} has zero norm; norm ratios are undefined for it")
    Pt = np.ascontiguousarray(P.T)
    isqn = 1.0 / sqn

    def direct(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Y = P @ E.T
        return np.ascontiguousarray(Y.T), _rowsq(Y) / sqn

    candidates = [pca_map(X, m).entries]
    if init is not None:
        if init.m != m or init.n != X.dim:
            raise ValueError(f"init must have shape ({m}, {X.dim}), got ({init.m}, {init.n})")
        candidates.append(init.entries)
    tau = opts.smoothing
    tau_floor = 1e-12
    images = [direct(E) for E in candidates]
    passes = [_smooth(r, tau) for _, r in images]
    best = int(np.argmin([s.top for s in passes]))
    start = candidates[best].copy()
    A = start.copy()
    Yt, r = images[best]
    sm = passes[best]
    best_E, best_dist = start, sm.top
    init_dist = best_dist

    history = [sm.objective]
    step = opts.step_init
    iters = accepted = backtracks = 0
    stop_reason = "max_iters"
    stall = 0
    kick = opts.seed.child(0).generator()
    while iters < opts.max_iters and best_dist > _DIST_FLOOR:
        iters += 1
        G = (Yt * (np.sign(sm.residual) * sm.weights * isqn)) @ P
        G *= 2.0 / sm.total
        if np.vdot(G, G) == 0.0:
            # flat objective: random direction from the options seed
            G = kick.standard_normal(A.shape)
        Z, b, c = _ray(Yt, G, Pt, isqn)
        moved = False
        prev_f = history[-1]
        while step > _STEP_FLOOR:
            rc = r + step * (step * c - b)
            sc = _smooth(rc, tau, history[-1])
            if sc is not None and sc.objective < history[-1]:
                G *= step
                A -= G
                Z *= step
                Yt -= Z
                r, sm = rc, sc
                history.append(sm.objective)
                if sm.top < best_dist:
                    best_dist, best_E = sm.top, A.copy()
                accepted += 1
                if accepted % _REFRESH == 0:
                    Yt, r = direct(A)
                    sm = _smooth(r, tau)
                    history.append(min(sm.objective, history[-1]))
                step = min(step * 2.0, 1e9)
                moved = True
                break
            backtracks += 1
            step *= opts.step_shrink
        if not moved or prev_f - history[-1] <= opts.tol * max(1.0, abs(history[-1])):
            stall += 1
        else:
            stall = 0
        if stall >= 2:
            if tau <= tau_floor:
                stop_reason = "tau_floor"
                break
            tau = max(tau * 0.25, tau_floor)
            sm = _smooth(r, tau)
            history.append(min(sm.objective, history[-1]))
            step = max(step, 1e-6 * opts.step_init)
            stall = 0
    if best_dist <= _DIST_FLOOR:
        stop_reason = "dist_floor"
    final = float(np.abs(direct(best_E)[1] - 1.0).max())
    if final > init_dist:
        best_E, final = start, init_dist

    info = OptimizeInfo(
        iterations=iters,
        converged=stop_reason != "max_iters",
        init_distortion=init_dist,
        final_distortion=final,
        objective_history=tuple(history),
        stop_reason=stop_reason,
        accepted=accepted,
        backtracks=backtracks,
    )
    return LinearMap(best_E), info


def write_map(path: str | Path, A: LinearMap) -> None:
    """Write a map to ``path`` in the jlmap text format."""
    with Path(path).open("wb") as f:
        _write_rows(f, f"jlmap v1 m={A.m} n={A.n}", A.entries)


def read_map(path: str | Path) -> LinearMap:
    """Read a map written by `write_map`."""
    path = Path(path)
    with path.open("rb") as f:
        head = _head(f, binary=False)
        m, n = _header(head, _MAP_HEADER, "jlmap v1 m=<m> n=<n>", path)
        _check_size(f"{path}: the header", "map", m, n)
        return LinearMap(_Owned(_read_body(f, head, path, "m", m, n, footer=False)[0]))
