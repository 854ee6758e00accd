"""Linear maps: random, spectral, and optimized constructions.

A `LinearMap` wraps an ``(m, n)`` float64 matrix acting on row vectors of a
`PointSet` by ``x -> A x``.  Constructors cover the identity, the seeded
gaussian baseline with entry variance ``1/m`` (so squared norms are
preserved in expectation), an uncentered PCA projection, and a local
optimizer that descends a smoothed version of the worst-case distortion.

Maps serialize to a text format with header ``jlmap v1 m=<m> n=<n>`` and
one comma-separated row per output coordinate, 17 significant digits.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .pointset import PointSet, _format_rows, _read_rows
from .seeds import Seed, as_seed

_MAP_HEADER = re.compile(r"^jlmap v1 m=(\d+) n=(\d+)$")


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Immutable (m, n) matrix mapping R^n to R^m."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.ascontiguousarray(np.asarray(self.entries, dtype=np.float64))
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError(f"entries must be a 2-d matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            bad = np.argwhere(~np.isfinite(mat))[0]
            raise ValueError(f"non-finite entry at ({bad[0]}, {bad[1]})")
        object.__setattr__(self, "entries", mat)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Image of an (N, n) array of row vectors, shape (N, m)."""
        return points @ self.entries.T


def identity_map(n: int) -> LinearMap:
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    return LinearMap(np.eye(n))


def gaussian_map(m: int, n: int, seed: int | Seed) -> LinearMap:
    """Entries iid N(0, 1/m), so E‖Ax‖² = ‖x‖² for every x.

    Entries are drawn as one SFC64 stream keyed by ``seed.child(0)`` and
    scaled by ``1/sqrt(m)``.
    """
    if m < 1 or n < 1:
        raise ValueError(f"map shape must be positive, got ({m}, {n})")
    gen = as_seed(seed).child(0).generator()
    return LinearMap(gen.standard_normal((m, n)) / math.sqrt(m))


def pca_map(X: PointSet, m: int) -> LinearMap:
    """Top-m right singular directions of the (uncentered) point matrix.

    Rows are orthonormal, so the map is a projection onto the dominant
    m-dimensional subspace of the points.  A degenerate all-zero set is
    flagged with a warning and falls back to coordinate directions.
    """
    if not 1 <= m <= X.dim:
        raise ValueError(f"need 1 <= m <= {X.dim}, got m={m}")
    P = X.points
    if len(X) == 0 or not P.any():
        warnings.warn("degenerate point set (all zero); using leading coordinate directions")
        return LinearMap(np.eye(X.dim)[:m])
    # the thin SVD has min(N, n) right singular rows; only a set with
    # fewer than m points needs the full n x n factor
    _, _, vt = np.linalg.svd(P, full_matrices=len(X) < m)
    return LinearMap(vt[:m])


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for `optimize_map`.

    ``smoothing`` is the initial temperature of the soft-max objective and
    ``step_shrink`` the backtracking factor; both must lie in (0, 1) for
    the shrink and be positive for the rest.
    """

    max_iters: int = 2000
    step_init: float = 1.0
    step_shrink: float = 0.5
    tol: float = 1e-9
    smoothing: float = 0.1
    seed: Seed = Seed(0)

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        for name in ("step_init", "tol", "smoothing"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if not 0 < self.step_shrink < 1:
            raise ValueError(f"step_shrink must lie in (0, 1), got {self.step_shrink}")
        object.__setattr__(self, "seed", as_seed(self.seed))


@dataclass(frozen=True)
class OptimizeInfo:
    """Diagnostics from one `optimize_map` run.

    ``objective_history`` records the smoothed objective at every accepted
    step; it is non-increasing.  ``stop_reason`` is ``"dist_floor"``,
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


def _rowsq(M: np.ndarray) -> np.ndarray:
    # squared norm of every row; certify and concentration share this one
    return np.einsum("ij,ij->i", M, M)


class _Smoothing(NamedTuple):
    objective: float  # top + tau log(total)
    top: float  # the true distortion max|r - 1|
    weights: np.ndarray  # exp((|r - 1| - top) / tau)
    total: float  # sum of the weights
    residual: np.ndarray  # r - 1


def _smooth(r: np.ndarray, tau: float) -> _Smoothing:
    # the one log-sum-exp pass over an evaluated map's norm ratios; the
    # optimizer's objective, distortion and gradient weights all read it
    residual = r - 1.0
    d = np.abs(residual)
    top = d.max()
    weights = np.exp((d - top) / tau)
    total = weights.sum()
    return _Smoothing(float(top + tau * np.log(total)), float(top), weights, float(total), residual)


def _worker_count(tasks: int) -> int:
    # threads for a pool over independent tasks, shared by certify and
    # concentration: min(available cores, tasks, 8); 1 means run inline
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, tasks, 8)


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
    is the iterate with the smallest true distortion seen anywhere in the
    run, so the result never does worse than its initialization.  Starting
    candidates are the PCA projection and, if given, ``init`` (same shape).

    Every evaluated map E (each starting candidate and each trial step,
    accepted or rejected) costs one image of the points, held as
    Yt = E Pᵀ (m x N) against a contiguous Pᵀ taken once per call, and one
    smoothing pass over its norm ratios.  That pass gives the objective,
    the true distortion max|r - 1| and the log-sum-exp weights with their
    sum; an accepted map keeps them, so its gradient 2 (Yt ∘ coef) P needs
    no second pass, and a temperature change re-smooths the cached ratios.
    At m = 1 the image is taken as P e instead: numpy runs both forms
    through GEMV, and only P e rounds as the N x m image P Eᵀ did, so the
    output is the same bits for every m.

    Running out of ``max_iters`` is not an error; request the run record
    with ``return_info=True`` to see the iteration count, the accepted and
    rejected steps, and the ``stop_reason``: ``"dist_floor"`` when the best
    distortion reached 1e-13, ``"tau_floor"`` when two stalled iterations
    came at the lowest temperature, ``"max_iters"`` when the budget ran
    out first (the only reason with ``converged`` False).
    """
    opts = opts or OptimizerOptions()
    if len(X) == 0:
        raise ValueError("cannot optimize over an empty point set")
    if not 1 <= m <= X.dim:
        raise ValueError(f"need 1 <= m <= {X.dim}, got m={m}")
    P = X.points
    sqn = _rowsq(P)
    zero = np.where(sqn == 0.0)[0]
    if zero.size:
        raise ValueError(f"point {zero[0]} has zero norm; norm ratios are undefined for it")

    Pt = np.ascontiguousarray(P.T)

    def image(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the one product per evaluated map, Yt = E Pᵀ (m x N); the ratios
        # take a contiguous Yt.T, as _rowsq on the transposed view rounds
        # differently once m >= 3; at m = 1 numpy runs E Pᵀ through GEMV
        # in the other orientation, and only P e keeps the bits of P Eᵀ
        Yt = (P @ E[0])[None, :] if len(E) == 1 else E @ Pt
        return Yt, _rowsq(np.ascontiguousarray(Yt.T)) / sqn

    candidates = [pca_map(X, m).entries]
    if init is not None:
        if init.m != m or init.n != X.dim:
            raise ValueError(f"init must have shape ({m}, {X.dim}), got ({init.m}, {init.n})")
        candidates.append(init.entries)
    tau = opts.smoothing
    tau_floor = 1e-12
    images = [image(E) for E in candidates]
    passes = [_smooth(r, tau) for _, r in images]
    best = int(np.argmin([s.top for s in passes]))
    A = candidates[best].copy()
    Yt, r = images[best]
    sm = passes[best]
    best_E, best_dist = A.copy(), sm.top
    init_dist = best_dist

    history = [sm.objective]
    step = opts.step_init
    iters = accepted = backtracks = 0
    stop_reason = "max_iters"
    stall = 0
    kick = opts.seed.child(0).generator()
    while iters < opts.max_iters and best_dist > _DIST_FLOOR:
        iters += 1
        coef = sm.weights / sm.total * np.sign(sm.residual) / sqn
        G = 2.0 * ((Yt * coef) @ P)
        if float(np.einsum("ij,ij->", G, G)) == 0.0:
            # flat objective: random direction from the options seed
            G = kick.standard_normal(A.shape)
        moved = False
        prev_f = sm.objective
        while step > _STEP_FLOOR:
            cand = A - step * G
            Yc, rc = image(cand)
            sc = _smooth(rc, tau)
            if sc.objective < sm.objective:
                A, Yt, r, sm = cand, Yc, rc, sc
                history.append(sm.objective)
                if sm.top < best_dist:
                    best_dist = sm.top
                    best_E = cand.copy()
                step = min(step * 2.0, 1e9)
                accepted += 1
                moved = True
                break
            backtracks += 1
            step *= opts.step_shrink
        if not moved or prev_f - sm.objective <= opts.tol * max(1.0, abs(sm.objective)):
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

    result = LinearMap(best_E)
    if not return_info:
        return result
    info = OptimizeInfo(
        iterations=iters,
        converged=stop_reason != "max_iters",
        init_distortion=init_dist,
        final_distortion=best_dist,
        objective_history=tuple(history),
        stop_reason=stop_reason,
        accepted=accepted,
        backtracks=backtracks,
    )
    return result, info


def write_map(path: str | Path, A: LinearMap) -> None:
    """Write a map to ``path`` in the jlmap text format."""
    lines = [f"jlmap v1 m={A.m} n={A.n}", *_format_rows(A.entries)]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def read_map(path: str | Path) -> LinearMap:
    """Read a map written by `write_map`."""
    path = Path(path)
    lines = path.read_bytes().decode("ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    match = _MAP_HEADER.match(lines[0])
    if not match:
        raise ValueError(f"{path}: line 1: expected 'jlmap v1 m=<m> n=<n>' header")
    m, n = int(match.group(1)), int(match.group(2))
    if len(lines) != m + 1:
        raise ValueError(f"{path}: expected {m + 1} lines for m={m}, found {len(lines)}")
    return LinearMap(_read_rows(lines, 1, m, n, path))
