"""Entry quantization onto a finite grid and net cardinality accounting.

For a parameter alpha in (0, 1) and column dimension n, matrix entries in
[-2, 2] are rounded to the lattice ``i * sqrt(alpha) / (10 n)`` with the
integer index capped at ``floor(20 n / sqrt(alpha))``.  The quantization
error matrix B then satisfies ``tr(B^T B) <= alpha / 100`` for any matrix
with at most n rows: interior entries move by at most half a step, capped
entries by at most a full step, and ``m n`` step-squares sum to at most
``alpha / 100``.  When no entry is capped the stronger ``alpha / 400``
budget holds.

The net itself (all m-by-n index matrices over the capped range, for every
m up to n) is never materialized; `log_cardinality` accounts for its size
in log space.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .embeddings import LinearMap
from .pointset import _json_fields, _require_positive, _require_positive_int

# absorbs float representation error in 20 n / sqrt(alpha) so an intended
# integer range is never truncated by one
_RANGE_GUARD = 1e-9

# the extreme grid value can round one ulp above 2, and quantize must
# accept its own output
_ADMISSIBLE_SLACK = 4e-16

ALPHA_CEILING = 1.0 - 1e-9


@dataclass(frozen=True)
class NetParams:
    """Grid geometry for one (n, alpha) pair.

    ``covers`` reports whether round-to-nearest stays within the index cap
    for every admissible entry, i.e. whether the grid reaches 2 up to half
    a step; when False, boundary entries are clamped to the extreme grid
    value and their error can reach one full step.
    """

    n: int
    alpha: float
    grid_step: float
    index_range: int
    covers: bool

    to_json = _json_fields


@dataclass(frozen=True)
class NetCardinality:
    """Exact and closed-form log cardinality accounting for the net."""

    n: int
    alpha: float
    values_per_entry: int
    exact_log: float
    bound_log: float

    to_json = _json_fields


def net_params(n: int, alpha: float) -> NetParams:
    _require_positive_int("dimension", n)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    root = math.sqrt(alpha)
    step = root / (10.0 * n)
    span = 20.0 * n / root
    index_range = int(math.floor(span + _RANGE_GUARD))
    covers = (index_range + 0.5) * step >= 2.0 * (1.0 - 1e-12)
    return NetParams(n=n, alpha=alpha, grid_step=step, index_range=index_range, covers=covers)


def quantize(A: LinearMap, alpha: float) -> LinearMap:
    """Round every entry of A to the (A.n, alpha) grid, ties toward zero.

    Entries must lie in [-2, 2]; the first offending index is named
    otherwise.  Grid values are fixed points, so quantizing twice gives a
    bit-identical matrix.
    """
    params = net_params(A.n, alpha)
    E = A.entries
    over = np.abs(E) > 2.0 * (1.0 + _ADMISSIBLE_SLACK)
    if over.any():
        i, j = (int(v) for v in np.argwhere(over)[0])
        raise ValueError(f"entry ({i}, {j}) = {float(E[i, j])!r} lies outside [-2, 2]")
    r = E / params.grid_step
    idx = np.sign(r) * np.ceil(np.abs(r) - 0.5)
    idx = np.clip(idx, -params.index_range, params.index_range) + 0.0
    return LinearMap(idx * params.grid_step)


def log_cardinality(n: int, alpha: float) -> NetCardinality:
    """Natural-log count of grid matrices with m rows, n columns, m <= n.

    The exact count is sum over m of V^(m n) where V is the number of grid
    values per entry; summed stably in log space.  ``bound_log`` is the
    closed form ln(n) + n^2 ln(40 n / sqrt(alpha) + 1), an upper bound on
    ``exact_log`` for every n: V = 2 floor(20 n / sqrt(alpha)) + 1 is at
    most 40 n / sqrt(alpha) + 1, and the sum has n terms of at most
    V^(n^2) each.
    """
    params = net_params(n, alpha)
    V = 2 * params.index_range + 1
    ln_v = math.log(V)
    # logsumexp over m = 1..n of m*n*ln_v, shifted by the top term; the
    # terms for m = n, n - 1, ... shrink, and once one underflows to 0.0 so
    # do all the rest, so the exactly rounded fsum can stop there
    terms = (math.exp((m - n) * n * ln_v) for m in range(n, 0, -1))
    tail = math.fsum(itertools.takewhile(bool, terms))
    exact_log = n * n * ln_v + math.log(tail)
    bound_log = math.log(n) + n * n * math.log(40.0 * n / math.sqrt(alpha) + 1.0)
    return NetCardinality(
        n=n, alpha=alpha, values_per_entry=V, exact_log=exact_log, bound_log=bound_log
    )


def covering_radius_for(n: int, C: float) -> float:
    """The alpha making the quantization error n^{-C} in Frobenius norm.

    Solves 100 n^{-2C} for alpha; C must be positive and finite.  Values
    at or above 1 (small n or C) are clamped just below 1 with a warning,
    since the grid is only defined for alpha < 1.  A C so large that
    alpha underflows to 0 raises `ValueError` naming C.
    """
    _require_positive_int("dimension", n)
    _require_positive("C", C)
    alpha = 100.0 * float(n) ** (-2.0 * C)
    if alpha == 0.0:
        raise ValueError(f"C = {C} is too large at n={n}: alpha = 100 n^(-2C) underflows to 0")
    if alpha >= 1.0:
        warnings.warn(
            f"alpha = 100 n^(-2C) = {alpha:g} at n={n}, C={C}; clamping below 1",
            stacklevel=2,
        )
        return ALPHA_CEILING
    return alpha
