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
from dataclasses import dataclass

import numpy as np

from .embeddings import LinearMap, _rowsq, _run_strided
from .pointset import MAX_TOTAL_COORDS, PointSet, SizeError, _json_fields, _unit_rows

MODE_NORM = "norm-preservation"
MODE_PAIRWISE = "pairwise"

# relative eigenvalue cutoff for counting "nonzero" spectrum
EIG_CUTOFF = 1e-10
# absorbs float rounding so the ceiling never exceeds the true rank
_RANK_SLACK = 1e-9

_JSON_RATIO_CAP = 100_000

# pair budget of pairwise distortion: the returned ratios alone take
# 8 bytes per pair, so 10**8 pairs is 800 MB; N = 14142 points fit under it
MAX_PAIRS = 10**8
# points per tile of a pairwise row; smaller tiles lose the pool's gain
# to the interpreter lock, larger ones grow each worker's scratch
_PAIR_TILE = 1024


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
        ratios = None
        if self.ratios.size <= _JSON_RATIO_CAP:
            ratios = [float(v) for v in self.ratios]
        return {
            "mode": self.mode,
            "eps_max": self.eps_max,
            "violating_index": self.violating_index,
            "n_ratios": int(self.ratios.size),
            "ratios": ratios,
            "skipped": list(self.skipped),
        }


@dataclass(frozen=True, eq=False)
class SpectralCertificate:
    """Trace, squared Frobenius norm, and spectrum of A^T A plus the rank bound."""

    trace: float
    frob_sq: float
    eigenvalues: np.ndarray
    rank_lb: int

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


def _normalize_mode(mode: str) -> str:
    if mode in (MODE_NORM, "norm"):
        return MODE_NORM
    if mode == MODE_PAIRWISE:
        return MODE_PAIRWISE
    raise ValueError(f"mode must be '{MODE_NORM}' or '{MODE_PAIRWISE}', got {mode!r}")


def distortion(A: LinearMap, X: PointSet, mode: str = MODE_NORM) -> DistortionReport:
    """Measure the worst multiplicative error of A on X.

    Norm mode compares ‖Ax‖² to ‖x‖² point by point; pairwise mode
    compares squared distances over all N(N-1)/2 unordered pairs and
    raises `SizeError` before it allocates anything when that count
    exceeds `MAX_PAIRS`.

    Pairwise mode runs on a bounded thread pool of min(available cores,
    N - 1, 8) workers, inline when that is at most 1.  Worker w of W takes
    the rows i = w, w + W, ... and each row's pairs (i, j), j > i, in tiles
    of 1024 points.  A tile costs one subtraction of the stacked rows
    [x | Ax] into the worker's scratch, two row sums and one division
    written straight into the ratios at the pairs' flat indices.  Each
    row keeps its worst pair; the main thread merges the rows in row
    order by the rule of one argmax over every kept pair (the first NaN,
    else the first maximum), then squeezes the skipped pairs' slots out
    of the ratios in place.  The report is bitwise the same for any
    worker count.  Memory is the returned ratios (8 bytes per pair), the
    N (n + m) stacked rows and O(workers * 1024 * (n + m)) scratch.  Norm
    mode stays serial.
    """
    mode = _normalize_mode(mode)
    if A.n != X.dim:
        raise ValueError(f"map has {A.n} columns but the set has dimension {X.dim}")
    if mode == MODE_PAIRWISE:
        return _pairwise_distortion(A, X.points)
    before, after = _rowsq(X.points), _rowsq(A.apply(X.points))
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


def _pairwise_distortion(A: LinearMap, P: np.ndarray) -> DistortionReport:
    N, n = P.shape
    total = N * (N - 1) // 2
    if total > MAX_PAIRS:
        raise SizeError(
            f"pairwise distortion of {N} points has {total} pairs, over the {MAX_PAIRS} pair limit"
        )
    Z = np.empty((N, n + A.m))  # [P | P Aᵀ], so one subtraction serves both sides
    Z[:, :n] = P
    np.matmul(P, A.entries.T, out=Z[:, n:])
    ratios = np.empty(total)
    rows = max(N - 1, 0)
    row_dev = np.full(rows, -np.inf)  # per row: worst |ratio - 1| and its flat index
    row_flat = np.full(rows, -1, dtype=np.int64)
    tile = min(_PAIR_TILE, N)

    def run(first: int, stride: int) -> list[int]:
        # rows first, first + stride, ...; returns their skipped flat indices
        # this worker's scratch: a tile of differences and three row vectors
        buf, (before, after, dev) = np.empty((tile, Z.shape[1])), np.empty((3, tile))
        skipped: list[int] = []
        for i in range(first, rows, stride):
            base = i * (2 * N - i - 1) // 2 - i - 1  # flat index of (i, j) is base + j
            best, best_flat = -np.inf, -1
            for j0 in range(i + 1, N, tile):
                j1 = min(j0 + tile, N)
                t, f0 = j1 - j0, base + j0
                d = buf[:t]
                np.subtract(Z[j0:j1], Z[i], out=d)
                b = np.einsum("ij,ij->i", d[:, :n], d[:, :n], out=before[:t])
                a = np.einsum("ij,ij->i", d[:, n:], d[:, n:], out=after[:t])
                r = ratios[f0 : f0 + t]
                dv = dev[:t]
                if b.min() > 0.0:
                    np.divide(a, b, out=r)
                    np.abs(np.subtract(r, 1.0, out=dv), out=dv)
                else:
                    # zero-distance pairs carry no constraint: their slots
                    # are left unwritten and squeezed out at the end
                    keep = b > 0.0
                    np.divide(a, b, out=r, where=keep)
                    np.abs(np.subtract(r, 1.0, out=dv, where=keep), out=dv, where=keep)
                    dv[~keep] = -np.inf
                    skipped.extend(f0 + int(k) for k in np.flatnonzero(~keep))
                k = int(np.argmax(dv))
                if dv[k] == -np.inf:
                    continue  # every pair of the tile was skipped
                # as one argmax over the row: the first NaN, else the first maximum
                if best_flat < 0 or (best == best and not dv[k] <= best):
                    best, best_flat = float(dv[k]), f0 + k
            row_dev[i], row_flat[i] = best, best_flat
        return skipped

    skipped = sorted(f for part in _run_strided(rows, run) for f in part)
    eps_max, violating = 0.0, None
    if rows:
        k = int(np.argmax(row_dev))  # rows with no kept pair hold -inf and -1
        if row_flat[k] >= 0:
            eps_max, violating = float(row_dev[k]), int(row_flat[k])
    return DistortionReport(
        mode=MODE_PAIRWISE,
        ratios=_compact(ratios, skipped),
        eps_max=eps_max,
        violating_index=violating,
        skipped=tuple(skipped),
    )


def _compact(ratios: np.ndarray, skipped: list[int]) -> np.ndarray:
    # drops the slots at the sorted indices ``skipped`` in place and returns
    # the kept prefix; each run of kept values moves left as one 1-d copy,
    # which numpy performs without a temporary
    pos = skipped[0] if skipped else ratios.size
    for s, nxt in zip(skipped, skipped[1:] + [ratios.size]):
        ratios[pos : pos + nxt - s - 1] = ratios[s + 1 : nxt]
        pos += nxt - s - 1
    return ratios[:pos]


def pair_from_flat(N: int, flat: int) -> tuple[int, int]:
    """Invert the lexicographic pair enumeration used by pairwise mode."""
    total = N * (N - 1) // 2
    if not 0 <= flat < total:
        raise ValueError(f"flat index {flat} out of range for N={N}")
    # counted from the last pair, rows N - 2, N - 3, ... hold 1, 2, ... pairs
    i = N - 2 - (math.isqrt(8 * (total - flat - 1) + 1) - 1) // 2
    return i, flat - (i * (2 * N - i - 1) // 2 - i - 1)


def spectral_certificate(A: LinearMap) -> SpectralCertificate:
    """Certificate for A: trace and Frobenius data of A^T A plus eigenvalues.

    The trace is computed directly from the entries (sum over basis
    directions of ‖Ae_i‖²) rather than from the spectrum, so eigensolver
    error cannot contaminate it.  Eigenvalues are returned descending with
    negative rounding noise clipped to zero.  The n x n Gram matrix must
    stay within `MAX_TOTAL_COORDS` entries (n <= 3162); a wider map raises
    `SizeError` before anything is allocated.
    """
    if A.n * A.n > MAX_TOTAL_COORDS:
        raise SizeError(
            f"spectral certificate of a {A.m}x{A.n} map needs a {A.n}x{A.n} Gram matrix, "
            f"over the {MAX_TOTAL_COORDS} coordinate limit"
        )
    E = A.entries
    gram = E.T @ E
    trace = float(np.einsum("ij,ij->", E, E))
    frob_sq = float(np.einsum("ij,ij->", gram, gram))
    try:
        lam = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"eigensolver failed on a {A.n}x{A.n} Gram matrix: {exc}") from exc
    lam = np.maximum(lam[::-1], 0.0)
    return SpectralCertificate(
        trace=trace, frob_sq=frob_sq, eigenvalues=lam, rank_lb=_cs_rank_lb(trace, frob_sq)
    )


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
    if A.n != V.dim:
        raise ValueError(f"map has {A.n} columns but the set has dimension {V.dim}")
    j, dev = _max_deviation(A, V, spectral_certificate(A))
    return V.points[j].copy(), dev


def _max_deviation(A: LinearMap, V: PointSet, cert: SpectralCertificate) -> tuple[int, float]:
    # index and value of the largest |‖Av‖² - trace| / frob over V, from
    # A's certificate; ties break toward the lowest index
    frob = math.sqrt(cert.frob_sq)
    if frob == 0.0:
        raise ValueError("zero map: witness deviation is undefined")
    dev = np.abs(_rowsq(A.apply(V.points)) - cert.trace) / frob
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
    if A.n != X.dim:
        raise ValueError(f"map has {A.n} columns but the set has dimension {X.dim}")
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
