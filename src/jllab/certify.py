"""Distortion measurement and spectral rank certificates.

Distortion is reported as the worst multiplicative error of squared norms
(or squared pairwise distances) under a linear map.  The spectral
certificate summarizes the Gram matrix A^T A by its trace, squared
Frobenius norm, and eigenvalues, and converts them into a rank lower bound
via the Cauchy-Schwarz inequality

    rank(A) >= tr(A^T A)^2 / ||A^T A||_F^2.

The audit ties both together: for a point set containing the standard
basis and a map that preserves all norms to within eps, the trace is
forced into the window [(1-eps) n, (1+eps) n], and the certificate then
bounds the number of rows from below.  The audit recomputes the trace
independently of the eigendecomposition (as the sum of squared entries,
which equals the sum over basis directions of ||A e_i||^2) so the two
routes check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._runtime import _BLAS, _pool_size, _run_strided
from .embeddings import _TINY, LinearMap, _norm_scaled, _pow2, _rowsq
from .pointset import PointSet, SizeError, _check_size, _json_fields, _require_nonnegative_int, _unit_rows

MODE_NORM = "norm-preservation"
MODE_PAIRWISE = "pairwise"

# relative eigenvalue cutoff for counting "nonzero" spectrum
EIG_CUTOFF = 1e-10
# absorbs float rounding so the ceiling never exceeds the true rank
_RANK_SLACK = 1e-9

_JSON_RATIO_CAP = 100_000

# pair budget of pairwise distortion, N = 14142 points.  The library route's
# ratios take 8 bytes per pair, 800 MB at the limit; the CLI's max-only
# route stores none, and its budget is time: at the limit it took 1-2 s on
# 2 cores, and about 10 s when every pair ties and it makes a full pass
MAX_PAIRS = 10**8
# zero-distance pairs (x = y) of pairwise distortion.  `_skipped_pairs`
# lists them once, as int64 flat indices, before either route scans;
# ``skipped`` then holds one Python int per pair and the JSON lists them
# again, about 78 bytes a pair at peak: `certify` on 3162 identical points
# (4,997,541 pairs) peaked at 371 MiB RSS in 3.2 s on 2 cores.  A set over
# the limit is refused before the list is built
MAX_SKIPPED = 5 * 10**6
# points per tile of a pairwise row; smaller tiles lose the pool's gain
# to the interpreter lock, larger ones grow each worker's scratch
_PAIR_TILE = 1024
# width n + m of a point and its image under which the exact pairwise
# pass runs inline.  Pairwise distortion of 3000 gaussian points (n = m)
# on 2 cores took, on one worker against two, 0.25-0.26 s against
# 0.25-0.35 s at width 24, 0.33-0.35 against 0.32-0.36 s at 48, 0.41-0.42
# against 0.33-0.37 s at 64 and 0.97-1.01 against 0.58-0.64 s at 160.
# Where the pool gains no wall time it still keeps two cores busy
_POOL_WIDTH = 64
# points per side of a Gram tile of the max-only pairwise screen
_SCREEN_TILE = 192
# the max-only screen's working precisions (see `distortion`): each
# dtype's unit roundoff u and the squared norms its bounds cover
_SCREENS = {np.float32: (2.0**-24, 2.0**-50, 2.0**50), np.float64: (2.0**-53, 2.0**-960, 2.0**959)}
# the widest side k of a float32 screen: c = 12 (k + 4) 2^-24 <= 2^-8
_SCREEN32_WIDTH = 5457


class AuditError(ValueError):
    """The audited inputs violate a structural precondition."""


@dataclass(frozen=True, eq=False)
class DistortionReport:
    """Worst-case multiplicative error of squared norms or distances.

    ``ratios`` holds the preserved quantity after/before, one entry per
    point (norm mode) or per pair in lexicographic (i, j), i < j order
    (pairwise mode); items with zero reference norm carry no constraint
    and are listed in ``skipped`` (original indices) rather than in
    ``ratios``.  ``violating_index`` is the original enumeration index
    (point index, or flat pair index invertible by `pair_from_flat`) of
    the item achieving ``eps_max``, lowest index on ties, None when every
    item was skipped.
    """

    mode: str
    ratios: np.ndarray
    eps_max: float
    violating_index: int | None
    skipped: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return _report_json(
            self.mode, self.eps_max, self.violating_index, self.ratios.size, list(self.skipped), self.ratios
        )


def _report_json(mode, eps_max, violating, n_ratios, skipped, ratios=None) -> dict:
    # the JSON of a distortion report, for `DistortionReport.to_json` and the
    # max-only pairwise route alike: the ratios while there are at most
    # _JSON_RATIO_CAP of them, else null; ``skipped`` is the list it holds
    return {
        "mode": mode,
        "eps_max": eps_max,
        "violating_index": violating,
        "n_ratios": int(n_ratios),
        "ratios": [float(v) for v in ratios] if n_ratios <= _JSON_RATIO_CAP else None,
        "skipped": skipped,
    }


@dataclass(frozen=True, eq=False)
class SpectralCertificate:
    """Trace, squared Frobenius norm, and spectrum of A^T A plus the rank bound."""

    trace: float
    frob_sq: float
    eigenvalues: np.ndarray
    rank_lb: int
    # (e, the certificate of 2^-e A) when `spectral_certificate` scaled A; not in the JSON
    _normal: tuple[int, SpectralCertificate] | None = field(default=None, repr=False)

    def nonzero_count(self) -> int:
        """Eigenvalues above the relative cutoff EIG_CUTOFF * lambda_1."""
        if self.eigenvalues.size == 0 or self.eigenvalues[0] <= 0.0:
            return 0
        return int(np.count_nonzero(self.eigenvalues > EIG_CUTOFF * self.eigenvalues[0]))

    to_json = _json_fields


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Outcome of the basis-trace audit of a map against a point set."""

    eps: float
    eps_max: float
    precondition_ok: bool
    trace: float
    trace_window_ok: bool
    frob_sq: float
    eigenvalues: np.ndarray
    rank_lb: int
    rank_ok: bool
    witness_deviation: float
    m: int
    n: int
    notes: str

    @property
    def ok(self) -> bool:
        return self.precondition_ok and self.trace_window_ok and self.rank_ok

    to_json = _json_fields


def _checked_mode(A: LinearMap, X: PointSet, mode: str = MODE_NORM) -> str:
    # the canonical mode name, once A and X are known to fit together; the
    # one dimension check of every entry point that takes both
    if mode in (MODE_NORM, "norm"):
        mode = MODE_NORM
    elif mode != MODE_PAIRWISE:
        raise ValueError(f"mode must be '{MODE_NORM}' or '{MODE_PAIRWISE}', got {mode!r}")
    if A.n != X.dim:
        raise ValueError(f"map has {A.n} columns but the set has dimension {X.dim}")
    return mode


def distortion(A: LinearMap, X: PointSet, mode: str = MODE_NORM) -> DistortionReport:
    """Measure the worst multiplicative error of A on X.

    Norm mode compares ‖Ax‖² to ‖x‖² point by point; pairwise mode
    compares squared distances over all N(N-1)/2 unordered pairs and
    raises `SizeError` before it allocates anything per pair when that
    count exceeds `MAX_PAIRS`, or when more than `MAX_SKIPPED` pairs have
    x = y.  Either mode raises `SizeError` before it forms the image
    P Aᵀ when its N m values are over `MAX_TOTAL_COORDS`.

    In norm mode a point whose squared norm is 0, subnormal or infinite is
    first scaled by a power of two, as `optimize_map` scales it, which
    leaves its ratio unchanged; every other point keeps its bits, and
    ``skipped`` lists exactly the zero points.  Pairwise mode follows the
    same rule: a pair with x != y whose squared distance is out of range,
    or whose image difference Ax - Ay is not finite, gets the ratio norm
    mode gives the point x - y (where x - y overflows, both rows are first
    scaled by the power of two of their larger entry), but for the last
    bits of its image, which is taken one row at a time so that every
    route and worker count gives the pair the same bits.  Every other pair
    keeps its bits, and ``skipped`` lists exactly the pairs with x = y.  In
    either mode a ratio is infinite, or NaN, only where the image of its
    point (x, or x - y) overflows.

    Pairwise mode runs on a bounded thread pool of min(available cores,
    N - 1, 8) workers, inline when that is at most 1.  Worker w of W takes
    the rows i = w, w + W, ... and each row's pairs (i, j), j > i, in tiles
    of 1024 points.  A tile costs two subtractions into the worker's
    scratch, one of the points x and one of their images Ax (taken once,
    by `LinearMap.apply`), two row sums and one division written straight
    into the ratios.  One grouping of equal rows lists the pairs with
    x = y before the pass, so each ratio goes straight to its final slot:
    its flat index less the skipped pairs before it.  Each worker keeps
    its worst pair, and the workers' pairs merge by the same rule: the
    first NaN, else the largest |ratio - 1|, the lowest flat index on
    ties.  The report is bitwise the same for any worker count.  Memory is
    the returned ratios (8 bytes per pair), the N m image and
    O(workers * 1024 * (n + m)) scratch.  When n + m is under 64 the pass
    runs inline whatever the core count: on rows that narrow the pool
    loses to the interpreter lock.  Norm mode runs on no Python pool.

    Every BLAS product of either mode, the image P Aᵀ and the screen's
    GEMMs below, runs on one OpenBLAS thread (see
    `_runtime._BlasThreads`), so the report is the same bytes at any
    ``OPENBLAS_NUM_THREADS``.

    The CLI's pairwise ``certify``, when the JSON would drop the ratios
    (more than 100,000 pairs with x != y, counted before either route
    runs), takes a private max-only route instead.  It stores no ratio and
    reports the same ``eps_max``, ``violating_index``, ``n_ratios`` and
    ``skipped`` bit for bit.  Stage 1 screens the pairs of each pair of
    192-point tiles by GEMMs, in one working precision for the whole set:
    float32, with u = 2^-24, when every squared norm of the points and of
    their images is 0 or lies in [2^-50, 2^50] and c below is at most
    2^-8 on both sides (n, m <= 5457); float64, with u = 2^-53, otherwise.
    On one side with k coordinates (k = n for x, k = m for Ax), with
    D = ‖x - y‖², S = ‖x‖² + ‖y‖², E = c S and c = 12 (k + 4) u:

    - the rows [x, (1 + c)‖x‖², 1 + c] and [-2y, 1, ‖y‖²] give hi ≈ D + E
      by one GEMM, and one outer sum of the points' -2c‖x‖² gives -2E,
      added into lo = hi - 2E.  The squared norms and the columns made from
      them are taken in float64, then rounded to the working precision;
    - Higham's bound |fl(Σ) - Σ| ≤ γ_j Σ|terms|, γ_j = ju / (1 - ju), holds
      for any summation order, FMA included (Accuracy and Stability of
      Numerical Algorithms, §3.1), and here Σ|terms| ≤ (2 + c) S.  In
      float32 the rounding of x and y moves the -2x·y term by at most
      (2u + u²) S, the rounding of the norm columns and of 1 + c moves the
      rest by at most 2.01 u (1 + c) S, and a coordinate or product that
      underflows moves by at most 2^-126, under 2^-60 S in all since
      S ≥ 2^-50 (or S = 0, where every value is exactly 0).  The outer sum
      and the addition into lo add at most 2.02 u S.  So, to first order
      in ku (ku < 2^-11 in float32, < 2e-9 in float64 under
      MAX_TOTAL_COORDS), hi and lo lie within (3k + 9) u S and
      (3k + 11) u S of D + E and D - E in either precision, and the exact
      kernel's D^ (float64: one subtraction per coordinate, then the row
      sum) within γ_(k+3) D ≤ (2k + 6) u S of D;
    - so lo ≤ D^ ≤ hi, with (7k + 31) u S to spare, which covers the
      rounding of the divisions q_lo = fl(a_lo / b_hi) and
      q_hi = fl(a_hi / max(b_lo, 0)) (a on Ax, b on x), for which 2.1 u S
      suffices.  These bracket the kernel's quotient r = fl(a^ / b^), and
      its deviation fl(|fl(r - 1)|) lies in

          [(1 - 8u) max(q_lo - 1, 1 - q_hi), (1 + 8u) max(q_hi - 1, 1 - q_lo)],

      the 8u covering the rounding of the bounds' own subtractions and, in
      float32, of the threshold they are compared with.  In float32 the
      range keeps every value finite: b_hi ≥ 31 u S_b > 2^-70 on a pair
      with x != y, so |q_lo| < 2^123, while an overflowing q_hi is an upper
      bound still.

    A pair is kept when its upper bound reaches the largest lower bound or
    exact deviation seen so far, or when it cannot be bounded: b_lo ≤ 0
    (its distance may be 0, and q_hi is then infinite), or squared norms
    that may put S outside the guarded range (both under its lower end, or
    one over its upper end or not finite).  The float32 rule leaves only
    pairs of two zero points to this guard.  In float64 the range is
    [2^-960, 2^959]: above it the kernel's differences may overflow while
    both norms are finite; below it, products underflow and carry only
    absolute error.  Stage 2 recomputes, row by row in flat-index order,
    each row's span of the tile from its first kept pair to its last with
    the exact kernel above (a pair inside the span that the screen ruled
    out cannot be the worst), and picks the worst pair by the same rule, so
    BLAS rounding, the working precision and the thread count never reach
    the report.  Memory is the N m image, both sides' GEMM copies
    (N (n + m + 4) values, at 4 bytes each in float32 and 8 in float64), a
    few values per point and 4 * 192² scratch values.  Once the kept pairs
    outnumber both 192² and one in eight of the pairs screened (ties, as
    under the identity map, where every pair is kept), the route runs the
    pooled pass above, with its ratios in scratch.
    """
    mode = _checked_mode(A, X, mode)
    if mode == MODE_PAIRWISE:
        return _pairwise_distortion(A, X.points, _skipped_pairs(X.points))
    P, before = _norm_scaled(X.points)
    after = _rowsq(_image(A, P))
    keep = before > 0.0
    ratios = after[keep] / before[keep]
    eps_max, violating = 0.0, None
    if ratios.size:
        dev = np.abs(ratios - 1.0)
        j = int(np.argmax(dev))
        eps_max, violating = float(dev[j]), int(np.flatnonzero(keep)[j])
    return DistortionReport(
        mode=mode,
        ratios=ratios,
        eps_max=eps_max,
        violating_index=violating,
        skipped=tuple(int(k) for k in np.flatnonzero(~keep)),
    )


def _image(A: LinearMap, P: np.ndarray) -> np.ndarray:
    # P Aᵀ from `LinearMap.apply` for every distortion route.  An image that
    # overflows (to inf, or to NaN where infinities cancel) is no warning:
    # norm mode gives its point the infinite or NaN ratio `distortion`
    # describes, and pairwise mode sends its pairs to `_PairScan._rescale`
    with np.errstate(over="ignore", invalid="ignore"):
        return A.apply(P)


def _distortion_json(A: LinearMap, X: PointSet, mode: str) -> dict:
    # distortion(A, X, mode).to_json(), by the max-only pairwise route when
    # the JSON drops the ratios, which the list of zero-distance pairs tells
    # before either route runs
    if _checked_mode(A, X, mode) == MODE_NORM:
        return distortion(A, X, mode).to_json()
    skipped = _skipped_pairs(X.points)
    kept = len(X) * (len(X) - 1) // 2 - skipped.size
    if kept <= _JSON_RATIO_CAP:
        return _pairwise_distortion(A, X.points, skipped).to_json()
    return _report_json(MODE_PAIRWISE, *_pairwise_worst(A, X.points), kept, skipped.tolist())


def _skipped_pairs(P: np.ndarray) -> np.ndarray:
    # the one x = y rule of pairwise mode: the sorted flat indices (int64) of
    # the pairs of rows of P that are equal, with -0.0 = 0.0 as in x - y.
    # Refused with SizeError over MAX_PAIRS or MAX_SKIPPED before anything
    # per pair is allocated
    N = len(P)
    total = N * (N - 1) // 2
    if total > MAX_PAIRS:
        raise SizeError(
            f"pairwise distortion of {N} points has {total} pairs, over the {MAX_PAIRS} pair limit"
        )
    # equal rows are equal bytes once + 0.0 makes -0.0 into 0.0 (points are
    # finite), so one void view groups them without a structured sort
    Q = P + 0.0
    rows = Q.view(np.dtype((np.void, Q.itemsize * Q.shape[1])))[:, 0]
    _, group, counts = np.unique(rows, return_inverse=True, return_counts=True)
    count = int(np.sum(counts * (counts - 1) // 2))
    if count > MAX_SKIPPED:
        raise SizeError(
            f"pairwise distortion of {N} points has {count} zero-distance pairs, "
            f"over the {MAX_SKIPPED} skipped-pair limit"
        )
    # each row with an equal row pairs with the equal rows after it; rows
    # taken in increasing order fill ``flat`` already sorted, one row's
    # pairs at a time
    flat, k = np.empty(count, dtype=np.int64), 0
    for i in np.flatnonzero(counts[group] > 1).tolist():
        later = np.flatnonzero(group[i + 1 :] == group[i])
        flat[k : k + later.size] = later + (_row_base(N, i) + i + 1)
        k += later.size
    return flat


def _row_base(N: int, i: int) -> int:
    # the flat index of pair (i, j) is _row_base(N, i) + j
    return i * (2 * N - i - 1) // 2 - i - 1


class _PairScan:
    # one worker's exact pass over pairs (i, j), i < j, of the rows of P and
    # of their image Y = P Aᵀ: the one ratio kernel of both pairwise routes
    # and the worst pair seen so far.  Each side's differences have their
    # own scratch (in the halves of one buffer a tile took 40-45 % longer).
    # A pair with x = y has b = 0 and no constraint: its deviation is -inf,
    # and its ratio is not written out

    def __init__(self, P: np.ndarray, Y: np.ndarray, A: LinearMap, tile: int) -> None:
        self.P, self.Y, self.A = P, Y, A
        self.dx, self.dy = np.empty((tile, P.shape[1])), np.empty((tile, Y.shape[1]))
        self.sums = np.empty((2, tile))  # b and a, so that one max tests both
        self.dev, self.ratios = np.empty((2, tile))
        self.worst, self.worst_flat = -np.inf, -1

    def pairs(self, i: int, js: range, out: np.ndarray | None = None) -> None:
        # the pairs (i, j) for the columns js; the ratios of those with
        # x != y go to ``out`` in order, else to scratch
        t, base = len(js), _row_base(len(self.P), i) + js.start
        dx, dy = self.dx[:t], self.dy[:t]
        np.subtract(self.P[js.start : js.stop], self.P[i], out=dx)
        np.subtract(self.Y[js.start : js.stop], self.Y[i], out=dy)
        sums = self.sums[:, :t]
        b = np.einsum("ij,ij->i", dx, dx, out=sums[0])
        a = np.einsum("ij,ij->i", dy, dy, out=sums[1])
        normal = _TINY <= b.min() and sums.max() < np.inf  # a NaN fails too
        if not normal:
            self._rescale(i, js.start, dx, b, a)
        r = out if out is not None and len(out) == t else self.ratios[:t]
        dv = self.dev[:t]
        np.abs(np.subtract(np.divide(a, b, out=r), 1.0, out=dv), out=dv)
        if not normal:
            dv[b == 0.0] = -np.inf
            if out is not None and len(out) < t:  # the tile holds pairs with x = y
                np.compress(b != 0.0, r, out=out)
        k = int(dv.argmax())  # the first NaN, else the first maximum
        if (worst := float(dv[k])) != -np.inf:
            self.offer(worst, base + k)

    def _rescale(self, i: int, j0: int, dx: np.ndarray, b: np.ndarray, a: np.ndarray) -> None:
        # norm mode's rule for the pairs (i, j0 + k) with x != y whose squared
        # distance b is out of range or whose image difference a is not
        # finite: b and a become what `_norm_scaled` and the map give the
        # point d = x - y, in place, so b stays 0 exactly where x = y.  Where
        # x - y overflows, both rows are first scaled by the power of two of
        # their larger entry (rows are not scaled down for an underflow: that
        # could flush a difference such as (0, 1e-160) between points near
        # 1e300 to 0)
        k = np.flatnonzero(dx.any(axis=1) & ~((_TINY <= b) & (b < np.inf) & (a < np.inf)))
        x, y = self.P[j0 + k], self.P[i]
        d = x - y
        over, e = _pow2(np.where(np.isfinite(d).all(axis=1), 1.0, np.inf), x, np.broadcast_to(y, x.shape))
        d[over] = np.ldexp(x[over], -e[:, None]) - np.ldexp(y, -e[:, None])
        d, b[k] = _norm_scaled(d)
        # einsum's row of the image does not depend on which other rows share
        # the product, as a BLAS product's last bits do, so both routes give
        # the pair the same bits
        a[k] = _rowsq(np.einsum("ij,kj->ik", d, self.A.entries))

    def offer(self, dev: float, flat: int) -> None:
        # the rule of one argmax over every pair in flat order, whatever
        # order the pairs come in: a NaN beats any number, a larger deviation
        # a smaller one, and on ties the lower flat index wins
        if self.worst_flat >= 0:
            if (dev != dev) != (self.worst != self.worst):
                if dev == dev:
                    return
            elif not (dev > self.worst or (not dev < self.worst and flat < self.worst_flat)):
                return
        self.worst, self.worst_flat = dev, flat


def _merge(scans: list[_PairScan]) -> tuple[float, int | None]:
    # eps_max and violating_index of the workers' scans
    first = scans[0]
    for scan in scans[1:]:
        if scan.worst_flat >= 0:
            first.offer(scan.worst, scan.worst_flat)
    if first.worst_flat < 0:
        return 0.0, None
    return float(first.worst), first.worst_flat


def _scan_all(
    P: np.ndarray, Y: np.ndarray, A: LinearMap, ratios: np.ndarray | None = None, skipped: np.ndarray | tuple = ()
) -> list[_PairScan]:
    # the exact kernel over every pair of rows of P (image Y), on the pool
    # unless n + m is under _POOL_WIDTH; when ``ratios`` is given, each ratio
    # goes to its flat index less the number of the sorted ``skipped`` before it
    N = len(P)
    tile = min(_PAIR_TILE, N)

    def run(first: int, stride: int) -> _PairScan:
        scan = _PairScan(P, Y, A, tile)
        # x = y divides 0, or a rounding difference of the images, by 0; an
        # image that overflows gives inf and NaN
        with np.errstate(all="ignore"):
            for i in range(first, N - 1, stride):
                base = _row_base(N, i)
                for j0 in range(i + 1, N, tile):
                    j1 = min(j0 + tile, N)
                    s0, s1 = np.searchsorted(skipped, (base + j0, base + j1)).tolist() if len(skipped) else (0, 0)
                    scan.pairs(i, range(j0, j1), None if ratios is None else ratios[base + j0 - s0 : base + j1 - s1])
        return scan

    return _run_strided(1 if P.shape[1] + Y.shape[1] < _POOL_WIDTH else _pool_size(N - 1), run)


def _pairwise_distortion(A: LinearMap, P: np.ndarray, skipped: np.ndarray) -> DistortionReport:
    # pairwise distortion of the rows of P, whose x = y pairs `_skipped_pairs` listed
    N = len(P)
    Y = _image(A, P)
    ratios = np.empty(N * (N - 1) // 2 - skipped.size)
    eps_max, violating = _merge(_scan_all(P, Y, A, ratios, skipped))
    return DistortionReport(
        mode=MODE_PAIRWISE,
        ratios=ratios,
        eps_max=eps_max,
        violating_index=violating,
        skipped=tuple(skipped.tolist()),
    )


def _screen_dtype(widths: tuple[int, int], sqs: list[np.ndarray]) -> type:
    # the max-only screen's working precision (see `distortion`): float32
    # when its bound covers every pair, float64 otherwise
    _, small, big = _SCREENS[np.float32]
    if max(widths) <= _SCREEN32_WIDTH and all(np.all(((sq == 0.0) | (small <= sq)) & (sq <= big)) for sq in sqs):
        return np.float32
    return np.float64


@_BLAS.one_thread()
def _pairwise_worst(A: LinearMap, P: np.ndarray) -> tuple[float, int | None]:
    # the max-only route of `distortion`'s docstring: eps_max and
    # violating_index, with no ratio stored, on one BLAS thread throughout
    # (its screen GEMMs and its `_scan_all` fallback alike); the caller has
    # checked the sizes with `_skipped_pairs`
    N = len(P)
    Y = _image(A, P)
    sqs = [_rowsq(P), _rowsq(Y)]
    dtype = _screen_dtype((P.shape[1], Y.shape[1]), sqs)
    u, small_sq, big_sq = _SCREENS[dtype]
    slack = 1.0 - 8 * u  # room for the rounding of the deviation bounds
    T = _SCREEN_TILE
    upper = np.triu(np.ones((T, T), dtype=bool), 1)  # j > i in a diagonal block
    sides = []
    for M, sq in zip((P, Y), sqs):
        k = M.shape[1]
        c = 12 * (k + 4) * u
        # the rows [-2y, 1, ‖y‖²] of the screen's GEMM, the left rows'
        # (1 + c)‖x‖² and each point's share -2c‖x‖² of -2E (see `distortion`).
        # In float64 a coordinate or squared norm near the largest double
        # overflows here; its squared norm is then over the range, and its
        # pairs are guarded.  The float32 rule admits no value that overflows
        right = np.empty((N, k + 2), dtype=dtype)
        with np.errstate(over="ignore"):
            np.multiply(M, -2.0, out=right[:, :k], casting="same_kind")
            right[:, k], right[:, k + 1] = 1.0, sq
            norm_col = ((1.0 + c) * sq).astype(dtype)
        share = (-2.0 * c * sq).astype(dtype)
        # a pair is guarded when both squared norms are under the range, or
        # one is over it or not finite; per tile, whether any point is
        small, big = sq < small_sq, ~(sq <= big_sq)
        tiles = [(small[t : t + T].any(), big[t : t + T].any()) for t in range(0, N, T)]
        sides.append((M, right, norm_col, 1.0 + c, share, small, big, tiles))
    scan = _PairScan(P, Y, A, T)
    work, flags = np.empty((4, T * T), dtype=dtype), np.empty(T * T, dtype=bool)
    floor = -np.inf  # a lower bound on eps_max
    screened = kept = 0
    with np.errstate(all="ignore"):
        for i0 in range(0, N, T):
            I = slice(i0, min(i0 + T, N))
            lefts = []
            for M, _, norm_col, one_c, *_ in sides:
                # the rows [x, (1 + c)‖x‖², 1 + c]
                left = np.empty((I.stop - i0, M.shape[1] + 2), dtype=dtype)
                left[:, :-2], left[:, -2], left[:, -1] = M[I], norm_col[I], one_c
                lefts.append(left)
            for j0 in range(i0, N, T):
                J = slice(j0, min(j0 + T, N))
                shape = (I.stop - i0, J.stop - j0)
                blo, bhi, alo, ahi = (w[: shape[0] * shape[1]].reshape(shape) for w in work)
                guarded = None
                for (_, right, _, _, share, small, big, tiles), left, lo, hi in zip(
                    sides, lefts, (blo, alo), (bhi, ahi)
                ):
                    # lo <= D^ <= hi: hi ≈ D + E by one GEMM, lo = hi - 2E
                    np.matmul(left, right[J].T, out=hi)
                    np.add(share[I, None], share[None, J], out=lo)
                    lo += hi
                    (small_i, big_i), (small_j, big_j) = tiles[i0 // T], tiles[j0 // T]
                    if (small_i and small_j) or big_i or big_j:
                        g = np.logical_and.outer(small[I], small[J])
                        g |= big[I, None] | big[None, J]
                        guarded = g if guarded is None else guarded | g
                # a_hi > 0 on every unguarded pair, so b_lo <= 0 makes q_hi infinite
                np.maximum(blo, 0.0, out=blo)
                qhi, qlo = np.divide(ahi, blo, out=ahi), np.divide(alo, bhi, out=alo)
                # the block's largest lower bound on the deviation, over its
                # unguarded pairs, taken in float64
                trusted = True if guarded is None else ~guarded
                block_lo = max(
                    float(np.fmax.reduce(qlo, axis=None, initial=-np.inf, where=trusted)) - 1.0,
                    1.0 - float(np.fmin.reduce(qhi, axis=None, initial=np.inf, where=trusted)),
                )
                floor = max(floor, block_lo * slack)
                # each pair's upper bound, before the slack
                dev = np.subtract(qhi, 1.0, out=ahi)
                np.maximum(dev, np.subtract(1.0, qlo, out=alo), out=dev)
                keep = np.less(dev, floor * slack, out=flags[: dev.size].reshape(shape))
                np.logical_not(keep, out=keep)
                if guarded is not None:
                    keep |= guarded
                if i0 == j0:
                    keep &= upper[: shape[0], : shape[1]]
                hits = np.count_nonzero(keep)
                screened += shape[0] * shape[1] if i0 != j0 else shape[0] * (shape[0] - 1) // 2
                kept += hits
                if kept > max(screened // 8, T * T):
                    # many ties, as under the identity map: the pooled full
                    # pass is faster than a recompute of nearly every pair
                    return _merge(_scan_all(P, Y, A))
                if hits:
                    # each row's span from its first kept column to its last;
                    # a pair inside it that the screen ruled out cannot be the worst
                    for r in np.flatnonzero(keep.any(axis=1)).tolist():
                        cs = np.flatnonzero(keep[r])
                        scan.pairs(i0 + r, range(j0 + int(cs[0]), j0 + int(cs[-1]) + 1))
                # an exact deviation bounds eps_max from below too; a NaN wins
                floor = max(floor, scan.worst if scan.worst == scan.worst else np.inf)
    return _merge([scan])


def pair_from_flat(N: int, flat: int) -> tuple[int, int]:
    """Invert the lexicographic pair enumeration used by pairwise mode."""
    _require_nonnegative_int("N", N)
    total = N * (N - 1) // 2
    if not 0 <= flat < total:
        raise ValueError(f"flat index {flat} out of range for N={N}")
    # counted from the last pair, rows N - 2, N - 3, ... hold 1, 2, ... pairs
    i = N - 2 - (math.isqrt(8 * (total - flat - 1) + 1) - 1) // 2
    return i, flat - _row_base(N, i)


@_BLAS.one_thread()
def spectral_certificate(A: LinearMap) -> SpectralCertificate:
    """Certificate for A: trace and Frobenius data of A^T A plus eigenvalues.

    The trace is computed directly from the entries (sum over basis
    directions of ‖Ae_i‖²) rather than from the spectrum, so eigensolver
    error cannot contaminate it.  The eigensolver runs on the smaller Gram
    matrix, A A^T when m < n and A^T A otherwise; the two share their
    nonzero spectrum, and ``frob_sq`` is taken from the one formed (the
    same value in exact arithmetic).  Eigenvalues are returned descending
    with negative rounding noise clipped to zero, n of them: when m < n the
    last n - m are exact zeros.  The spectrum of A^T A has n entries, so n
    must stay within sqrt(`MAX_TOTAL_COORDS`) (n <= 3162); a wider map
    raises `SizeError` before anything is allocated.  A trace, squared
    trace or squared Frobenius norm that overflows raises `ArithmeticError`
    naming it, before the eigensolver and the rank bound run.

    A nonzero map whose trace or ``frob_sq`` is 0 or subnormal is first
    scaled by the power of two that puts its largest entry in [1/2, 1).
    The rank bound is scale-invariant and comes from the scaled map, whose
    certificate is kept privately; the trace, ``frob_sq`` and eigenvalues
    are scaled back and may still round to 0.  Every other map keeps its
    bits.

    The Gram product and the eigensolver run on one OpenBLAS thread (see
    `_runtime._BlasThreads`), so the certificate is the same bytes at any
    ``OPENBLAS_NUM_THREADS``.
    """
    _check_size(f"spectral certificate of a {A.m}x{A.n} map", "Gram matrix", A.n, A.n)
    def sums(E: np.ndarray) -> tuple[np.ndarray, float, float]:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = E @ E.T if A.m < A.n else E.T @ E
            return gram, float(np.einsum("ij,ij->", E, E)), float(np.einsum("ij,ij->", gram, gram))

    gram, trace, frob_sq = sums(A.entries)
    for name, v in (("trace", trace), ("squared trace", trace * trace), ("squared Frobenius norm", frob_sq)):
        if not math.isfinite(v):
            raise ArithmeticError(f"the {name} of A^T A overflows for a {A.m}x{A.n} map")
    # the sums are finite, so only an underflow is out of range; e < 0 then
    _, e = _pow2(np.array([min(trace, frob_sq)]), A.entries[None])
    e = int(e[0]) if e.size else 0
    if e:
        gram, trace, frob_sq = sums(np.ldexp(A.entries, -e))
    try:
        lam = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        k = len(gram)
        raise np.linalg.LinAlgError(f"eigensolver failed on a {k}x{k} Gram matrix: {exc}") from exc
    lam = np.concatenate([np.maximum(lam[::-1], 0.0), np.zeros(A.n - len(lam))])
    cert = SpectralCertificate(trace, frob_sq, lam, _cs_rank_lb(trace, frob_sq))
    if e == 0:
        return cert
    return SpectralCertificate(
        math.ldexp(trace, 2 * e), math.ldexp(frob_sq, 4 * e), np.ldexp(lam, 2 * e), cert.rank_lb, (e, cert)
    )


def _normal_scale(A: LinearMap, cert: SpectralCertificate) -> tuple[LinearMap, SpectralCertificate, int]:
    # (B, B's certificate, e) for B = 2^-e A, as `spectral_certificate` kept
    # them: B is A unless A's sums were out of range, and B's sums are then
    # normal.  Scale-invariant values are taken on B; a value of degree 2 in
    # A is B's times 2^(2e).  Forms no Gram matrix
    e, scaled = cert._normal or (0, cert)
    return (LinearMap(np.ldexp(A.entries, -e)) if e else A), scaled, e


def _cs_rank_lb(trace: float, frob_sq: float) -> int:
    if frob_sq == 0.0:
        return 0
    return int(math.ceil(trace * trace / frob_sq - _RANK_SLACK))


def rank_lower_bound(cert: SpectralCertificate) -> int:
    """Alias of ``cert.rank_lb``: the bound ceil(trace² / frob_sq), 0 for the zero map."""
    return cert.rank_lb


def witness_search(A: LinearMap, V: PointSet) -> tuple[np.ndarray, float]:
    """Point of V whose squared image deviates most from the trace.

    Deviation is |‖Av‖² - tr(A^T A)| / ‖A^T A‖_F, the scale on which tail
    bounds for gaussian inputs are stated.  Returns the witness (a copy)
    and its deviation; ties break toward the lowest index.  Scaling A by
    c > 0 multiplies numerator and denominator by c² alike, so both the
    argmax and the deviation value are scale-invariant.
    """
    if len(V) == 0:
        raise ValueError("cannot search an empty point set")
    _checked_mode(A, V)
    j, dev = _max_deviation(A, V, spectral_certificate(A))
    return V.points[j].copy(), dev


def _max_deviation(A: LinearMap, V: PointSet, cert: SpectralCertificate) -> tuple[int, float]:
    # index and value of the largest |‖Av‖² - trace| / frob over V, from
    # A's certificate; ties break toward the lowest index.  The deviation is
    # scale-invariant, so it is taken on the map `_normal_scale` looks up
    B, cert, _ = _normal_scale(A, cert)
    frob = math.sqrt(cert.frob_sq)
    if frob == 0.0:
        raise ValueError("zero map: witness deviation is undefined")
    dev = np.abs(_rowsq(B.apply(V.points)) - cert.trace) / frob
    j = int(np.argmax(dev))
    return j, float(dev[j])


def audit_embedding(A: LinearMap, X: PointSet, eps: float) -> AuditReport:
    """Audit the trace-window and rank consequences of eps-preservation.

    Requires X to contain every standard basis vector of its dimension
    exactly (raises `AuditError` otherwise).  Measures the true norm
    distortion of A on X, checks the implied trace window
    [(1-eps) n, (1+eps) n], computes the spectral certificate, and asserts
    rank_lb <= m.  Nothing is trusted from a single route: the window uses
    the certificate's trace, an entry sum, never the spectrum.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    _checked_mode(A, X)
    n = X.dim
    missing = _missing_basis(X)
    if missing:
        raise AuditError(
            f"point set lacks exact standard basis vector(s), first missing e_{missing[0] + 1}"
        )
    report = distortion(A, X, MODE_NORM)
    precondition_ok = report.eps_max <= eps
    cert = spectral_certificate(A)
    trace = cert.trace
    trace_window_ok = (1.0 - eps) * n <= trace <= (1.0 + eps) * n
    _, wdev = _max_deviation(A, X, cert)
    rank_ok = cert.rank_lb <= A.m
    notes: list[str] = []
    if not precondition_ok:
        notes.append(f"measured eps_max={report.eps_max:.6g} exceeds eps={eps:g}")
    if not trace_window_ok:
        notes.append(f"trace {trace:.6g} outside [{(1 - eps) * n:.6g}, {(1 + eps) * n:.6g}]")
    if not rank_ok:
        notes.append(f"rank_lb={cert.rank_lb} exceeds m={A.m}")
    if A.m > A.n:
        notes.append(f"map has more rows than columns (m={A.m} > n={A.n})")
    return AuditReport(
        eps=eps,
        eps_max=report.eps_max,
        precondition_ok=precondition_ok,
        trace=trace,
        trace_window_ok=trace_window_ok,
        frob_sq=cert.frob_sq,
        eigenvalues=cert.eigenvalues,
        rank_lb=cert.rank_lb,
        rank_ok=rank_ok,
        witness_deviation=wdev,
        m=A.m,
        n=A.n,
        notes="; ".join(notes),
    )


def _missing_basis(X: PointSet) -> list[int]:
    P = X.points
    n = X.dim
    hit = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(_unit_rows(P)):
        hit[int(np.argmax(P[i]))] = True
    return [int(j) for j in np.where(~hit)[0]]
