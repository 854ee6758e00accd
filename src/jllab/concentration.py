"""Monte Carlo tail estimation for gaussian norms and quadratic forms.

Three events are estimated for g with iid standard normal coordinates:

* norm tails: |‖g‖² - n| > c sqrt(n t);
* quadratic-form (chaos) tails for a map A with Gram spectrum lambda:
  |‖Ag‖² - tr(A^T A)| > c (sqrt(t) ‖A^T A‖_F + t ‖A^T A‖);
* the joint event that the form deviates by at least
  c1 sqrt(ln(1/delta)) ‖A^T A‖_F while ‖g‖² <= n + c2 sqrt(n ln(1/delta)).

Estimates are exact binomial counts with the usual standard error.  The
norm tail has a closed-form oracle through the chi-square survival
function, implemented here from scratch via the regularized incomplete
gamma function so estimates can be checked against an independent route.

Sampling is chunked: chunk ``c`` of an estimate draws its block of trials
from ``seed.child(c)`` as one SFC64 ziggurat stream.  The chunk length
``CHUNK_TRIALS`` is a fixed constant of the scheme (results would change
under a different chunking), and it makes every estimate reproducible from
``(args, seed)`` alone, independent of thread layout or evaluation order.
All estimators consuming gaussian vectors of the same dimension share the
same chunk derivation, so at matched ``(n, trials, seed)`` they see
literally the same sample.

One private sampler draws every estimator's chunks and hands each chunk
to a per-estimator function that reduces it to a few values per trial.
A chunk of min(1024, trials) x n normals, and `map_samples`' chunk image
of min(1024, trials) x m, are each held to `MAX_TOTAL_COORDS` values, so
a larger n or m raises `SizeError` before anything is drawn.
Every sampler runs its chunks on one bounded thread pool of min(available
cores, chunks, 8) workers, each with its own buffers and its own slices of
the output, so the result does not depend on the worker count.  The pool
holds OpenBLAS at one thread for the whole loop, as every product of the
package does (see `embeddings._BlasThreads`), so each worker multiplies
its own chunk on its own core, and neither a sample nor a threshold
depends on the process's BLAS thread count.  A worker of the map or
symmetric-form sampler holds one chunk and its image; the norm
sample, whose per-row sums need no product, draws each chunk in blocks of
at most 2^17 values from the chunk's one generator, which is the same
stream.

Each estimator counts one threshold on a recorded sample.  The module
keeps one sample, the most recent: a norm deviation sample keyed by
(n, ``trials``, seed value), or a map sample keyed by (the map object, held
by weak reference, ``trials``, seed value).  Every estimator looks the
record up before it draws, so a loop of single calls over t or delta at
one key costs one draw, as `jllab tails` and the held-out checks after a
calibration do.  `LinearMap` entries are read-only, so a map object's
identity names its entries, and the weak reference keeps no map alive.  A
miss drops the old record before it draws, so no call holds two samples;
a miss on the same map object (other ``trials`` or seed) reuses the
record's spectral certificate.  The record is read and replaced as one
tuple, so concurrent callers each get their own key's sample.

A map sample holds the map's certificate and one `map_samples` draw, and
its methods are the only code that writes each map event's (chaos, norm
side, joint) threshold and hit count.  `chaos_tail_estimate`,
`joint_event_rate` and `calibrate_constants` all count through those
methods, so an estimate and the calibration validated against it cannot
drift apart.  A nonzero map whose certificate sums are 0 or subnormal is
sampled at the power-of-two scale `spectral_certificate` takes for its
rank bound (the events are scale-invariant), with the scaled map's
certificate that it keeps, so no second certificate is taken; the
thresholds are reported scaled back.  The strict count dev > threshold
of the norm, chaos and symmetric-form tails is one helper, and the chaos
and symmetric-form thresholds one formula.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .certify import SpectralCertificate, _normal_scale, spectral_certificate
from .embeddings import _BLAS, LinearMap, _pool_size, _pow2, _rowsq, _run_strided
from .pointset import MAX_TOTAL_COORDS, SizeError, _check_size, _frozen_matrix, _json_fields
from .pointset import _require_nonnegative, _require_positive, _require_positive_int
from .seeds import Seed, as_seed

CHUNK_TRIALS = 1024

MIN_TRIALS = 1000

# exp(x) is 0.0 below this: under ln(2^-1075), half the smallest subnormal
_LOG_UNDERFLOW = -745.14

_S = TypeVar("_S")


class CalibrationError(RuntimeError):
    """No feasible constant was found where one must exist."""


@dataclass(frozen=True)
class TailQuery:
    """A tail-probability query at deviation scale t or failure rate delta."""

    t: float
    delta: float

    def __post_init__(self) -> None:
        _check_ts((self.t,))
        _check_deltas((self.delta,))


def _check_ts(ts: Sequence[float]) -> None:
    for t in ts:
        if not t >= 1.0:
            raise ValueError(f"t must be at least 1, got {t}")


def _check_deltas(deltas: Sequence[float]) -> None:
    for delta in deltas:
        if not 0.0 < delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {delta}")


@dataclass(frozen=True)
class TailEstimate:
    """Binomial estimate of a tail probability.

    ``p_hat = hits / trials`` and ``stderr = sqrt(p_hat (1 - p_hat) / trials)``.
    """

    threshold: float
    trials: int
    hits: int
    p_hat: float
    stderr: float

    @classmethod
    def from_hits(cls, threshold: float, trials: int, hits: int) -> "TailEstimate":
        p = hits / trials
        return cls(
            threshold=threshold,
            trials=trials,
            hits=hits,
            p_hat=p,
            stderr=math.sqrt(p * (1.0 - p) / trials),
        )

    to_json = _json_fields


@dataclass(frozen=True)
class CalibrationConstants:
    """Constants returned by `calibrate_constants`; all positive and finite, delta0 < 1/2."""

    c: float
    c1: float
    c2: float
    delta0: float

    def __post_init__(self) -> None:
        for name in ("c", "c1", "c2", "delta0"):
            _require_positive(name, getattr(self, name))
        if not self.delta0 < 0.5:
            raise ValueError(f"delta0 must be below 1/2, got {self.delta0}")

    to_json = _json_fields


# ---------------------------------------------------------------------------
# chi-square survival function (independent oracle for norm tails)


def chi_square_sf(n: int, x: float) -> float:
    """Pr(chi2_n > x) for integer n >= 1 and x >= 0.

    Computed from scratch as the regularized upper incomplete gamma
    Q(n/2, x/2): a power series for the lower function when x < n + 2,
    otherwise a modified Lentz continued fraction.  Against scipy, the
    absolute error is below 1e-10 for n <= 2000 and x in [0, 4n], and
    below 1e-9 for n <= 1e6 and x within 8 standard deviations sqrt(2n)
    of the mean.  Beyond n of about 1e6 the exp(-s + a log s - lgamma a)
    prefactor costs accuracy (about 3e-8 at n = 1e7).  At n = 1e8 the
    relative error is below 1e-7 from x = n + 2.5 to n + 3000 (7.9e-8,
    8.9e-9 and 1.4e-8 at n + 2.5, n + 100 and n + 3000); the continued
    fraction there takes about 2100-3400 terms.  For n = 2 the value is
    exp(-x/2) up to rounding.  Where x/2 >= n/2 + 1 the fraction's value
    is below 1, so Q is below its prefactor; where that prefactor
    underflows (x = inf included) the result is 0.0 without iterating.
    """
    if n < 1 or not isinstance(n, int):
        raise ValueError(f"degrees of freedom must be a positive integer, got {n}")
    if not x >= 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    a = 0.5 * n
    s = 0.5 * x
    if s == 0.0:
        return 1.0
    if s < a + 1.0:
        return 1.0 - _gamma_p_series(a, s)
    # Q is below its prefactor here, so 0.0 where that underflows; the log
    # is NaN at s = inf, which the comparison sends the same way
    if not _log_prefactor(a, s) >= _LOG_UNDERFLOW:
        return 0.0
    return _gamma_q_contfrac(a, s)


def _log_prefactor(a: float, s: float) -> float:
    # log(s^a e^-s / Gamma(a)), the prefactor of both incomplete gamma routes
    return -s + a * math.log(s) - math.lgamma(a)


def _gamma_p_series(a: float, s: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    # near s = a the terms shrink like exp(-k^2 / 2a), so the number of
    # terms needed grows like sqrt(a)
    for _ in range(1000 + int(20 * math.sqrt(a))):
        ap += 1.0
        term *= s / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total * math.exp(_log_prefactor(a, s))
    raise ArithmeticError(f"incomplete gamma series failed to converge (a={a}, s={s})")


def _gamma_q_contfrac(a: float, s: float) -> float:
    tiny = 1e-300
    b = s + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    # as in the series, the terms needed near s = a grow like sqrt(a): at
    # n = 1e8, x = n + 2.5 to n + 3000 take about 2100-3400
    for i in range(1, 2000 + int(20 * math.sqrt(a))):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            return math.exp(_log_prefactor(a, s)) * h
    raise ArithmeticError(f"incomplete gamma continued fraction failed to converge (a={a}, s={s})")


def norm_tail_oracle(n: int, t: float, c: float) -> float:
    """Exact two-sided norm tail Pr(|‖g‖² - n| > c sqrt(n t)) via chi-square.

    The lower tail Pr(chi2_n < n - thr) is the series value P(n/2, (n - thr)/2)
    itself, never 1 - (1 - P), so it keeps its relative accuracy far below
    the mean (about 3e-13 at n = 1000, 8 standard deviations down).
    """
    _require_positive("t", t)
    _require_positive("c", c)
    thr = c * math.sqrt(n * t)
    upper = chi_square_sf(n, n + thr)
    lower = _gamma_p_series(0.5 * n, 0.5 * (n - thr)) if n - thr > 0.0 else 0.0
    return upper + lower


# ---------------------------------------------------------------------------
# chunked gaussian sampling


def _chunk_count(trials: int) -> int:
    return -(-trials // CHUNK_TRIALS)


def _validate_mc(n: int, trials: int) -> None:
    _require_positive_int("dimension", n)
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be at least {MIN_TRIALS}, got {trials}")
    if trials > MAX_TOTAL_COORDS:
        raise SizeError(f"trials must be at most {MAX_TOTAL_COORDS}, got {trials}")


# normals a norm sample draws at a time: its rows are row-local, so it
# draws each chunk in blocks of at most this many values from the chunk's
# one generator, which gives the same stream as one draw of the chunk
_NORM_BLOCK = 1 << 17


def _sample(
    n: int, trials: int, seed: int | Seed, rows: Callable[[np.ndarray, np.ndarray], object], width: int, image: int = 0
) -> np.ndarray:
    # the one chunk loop: chunk c (trials c*CHUNK_TRIALS, ...) is drawn from
    # seed.child(c), and rows(g, y) is the (width, len(g)) block of the
    # (width, trials) result for normals g, with y a len(g) x ``image``
    # buffer for the product rows takes, if any.  The chunks run on the
    # pool with OpenBLAS held at one thread, so each worker draws and
    # multiplies its own chunk on its own core; threaded products left the
    # draws serial beside an idle BLAS thread that spins.  On 2 cores the
    # tails CLI's 512 x 1024 map at 8192 trials took 0.16-0.19 s wall and
    # 0.31-0.36 s CPU this way, against 0.26-0.28 s and 0.51-0.56 s inline
    # on two BLAS threads.  Each worker's buffers are taken here, before
    # the pool starts; taken in the workers they raised the tails workload's
    # peak.  A product keeps the whole chunk: split into row blocks its bits
    # change at some shapes (n = 64, m = 4 in blocks of 256 rows).  So only
    # a sample without one (image = 0) draws in blocks of _NORM_BLOCK values
    _validate_mc(n, trials)
    _check_size(f"a sample of {trials} gaussian vectors in dimension {n}", "chunk", min(CHUNK_TRIALS, trials), n)
    s = as_seed(seed)
    chunk, chunks = min(CHUNK_TRIALS, trials), _chunk_count(trials)
    step = chunk if image else min(chunk, max(1, _NORM_BLOCK // n))
    out = np.empty((width, trials))
    buffers = [(np.empty((step, n)), np.empty((chunk, image))) for _ in range(_pool_size(chunks))]

    def fill(first: int, stride: int) -> None:
        gbuf, ybuf = buffers[first]
        for c in range(first, chunks, stride):
            draw = s.child(c).generator().standard_normal
            end = min((c + 1) * CHUNK_TRIALS, trials)
            for lo in range(c * CHUNK_TRIALS, end, step):
                g = gbuf[: min(step, end - lo)]
                draw(out=g)
                out[:, lo : lo + len(g)] = rows(g, ybuf[: len(g)])

    with _BLAS.one_thread():
        _run_strided(len(buffers), fill)
    return out


def norm_deviation_sample(n: int, trials: int, seed: int | Seed) -> np.ndarray:
    """The |‖g‖² - n| sample underlying `norm_tail_estimate`, in trial order."""
    return np.abs(_sample(n, trials, seed, lambda g, y: _rowsq(g), 1)[0] - float(n))


def map_samples(A: LinearMap, trials: int, seed: int | Seed) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (‖Ag‖², ‖g‖²) pairs from the shared chunk derivation."""
    _check_size(f"a sample of {trials} images under a {A.m}x{A.n} map", "chunk image",
                min(CHUNK_TRIALS, trials), A.m)
    At = A.entries.T
    img, nrm = _sample(A.n, trials, seed, lambda g, y: (_rowsq(np.matmul(g, At, out=y)), _rowsq(g)), 2, A.m)
    return img, nrm


def norm_tail_estimate(n: int, t: float, c: float, trials: int, seed: int | Seed) -> TailEstimate:
    """Estimate Pr(|‖g‖² - n| > c sqrt(n t)) by direct simulation."""
    _require_positive("t", t)
    _require_positive("c", c)
    dev = _recorded((n, trials, as_seed(seed).value), lambda: norm_deviation_sample(n, trials, seed))
    return _tail(dev, c * math.sqrt(n * t))


def _tail(dev: np.ndarray, thr: float, e: int = 0) -> TailEstimate:
    # the strict deviation event dev > thr, shared by the norm, chaos and form
    # tails, with thr reported times 2^e (see `_FormSample`)
    return TailEstimate.from_hits(math.ldexp(thr, e), dev.size, int(np.count_nonzero(dev > thr)))


def _chaos_threshold(frob: float, top: float, t: float, c: float) -> float:
    # c (sqrt(t) ‖M‖_F + t ‖M‖) for M = A^T A or a symmetric form's matrix
    return c * (math.sqrt(t) * frob + t * top)


def chaos_threshold(A: LinearMap, t: float, c: float) -> float:
    """Deviation threshold c (sqrt(t) ‖A^T A‖_F + t ‖A^T A‖), as `chaos_tail_estimate` reports it."""
    _, cert, e = _normal_scale(A, spectral_certificate(A))
    return math.ldexp(_chaos_threshold(math.sqrt(cert.frob_sq), float(cert.eigenvalues[0]), t, c), 2 * e)


def chaos_tail_estimate(
    A: LinearMap, t: float, c: float, trials: int, seed: int | Seed
) -> TailEstimate:
    """Estimate Pr(|‖Ag‖² - tr(A^T A)| > c (sqrt(t) ‖·‖_F + t ‖·‖)).

    Spectrum quantities come from `spectral_certificate`, the same route
    the certification reports use.  Requires t >= 1 and a nonzero map.
    At A = identity the event coincides with the norm tail at the matched
    threshold, and the shared sampling makes the counts identical.
    """
    _check_ts((t,))
    _require_positive("c", c)
    return _form_sample(A, trials, seed).chaos(t, c)


# entries of M in one strip of the symmetry check
_STRIP_VALUES = 1 << 17


def _symmetric(M: np.ndarray) -> bool:
    # |M - M^T| <= 1e-12 |M^T| entrywise (np.allclose's rule at atol 0),
    # one strip of rows at a time, so the check holds no n x n temporary
    rows = max(1, _STRIP_VALUES // len(M))
    for i in range(0, len(M), rows):
        a, b = M[i : i + rows], M[:, i : i + rows].T
        if not (np.abs(a - b) <= 1e-12 * np.abs(b)).all():
            return False
    return True


@_BLAS.one_thread()
def symmetric_form_tail_estimate(
    M: np.ndarray, t: float, c: float, trials: int, seed: int | Seed
) -> TailEstimate:
    """Tail estimate for the quadratic form g^T M g of a symmetric matrix M.

    Same deviation event as `chaos_tail_estimate` with A^T A replaced by
    M: threshold c (sqrt(t) ‖M‖_F + t ‖M‖) around tr(M).  M may be
    indefinite.  A nonzero M whose squared Frobenius norm is 0, subnormal or
    infinite is first scaled by the power of two 2^-e that puts its largest
    entry in [1/2, 1), as `spectral_certificate` scales a map; the event is
    scale-invariant, and the threshold, of degree 1 in M, is reported
    times 2^e.  Every other M keeps its bits.  M is taken as `LinearMap`
    takes its entries: n <= 3162 before the copy, and every entry finite.

    The whole estimate runs on one OpenBLAS thread (see
    `embeddings._BlasThreads`), so ‖M‖_F and the eigensolver give the same
    bits at any thread count.
    """
    M = _frozen_matrix(M, "a symmetric form", "matrix")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got shape {M.shape}")
    if not _symmetric(M):
        raise ValueError("M must be symmetric")
    _check_ts((t,))
    _require_positive("c", c)
    _validate_mc(M.shape[0], trials)
    with np.errstate(over="ignore"):  # an overflowing ‖M‖_F² is scaled below
        frob = float(np.linalg.norm(M))
    _, e = _pow2(np.array([frob * frob]), M[None])
    e = int(e[0]) if e.size else 0
    if e:
        M = np.ldexp(M, -e)
        frob = float(np.linalg.norm(M))
    if frob == 0.0:
        raise ValueError("zero matrix: the deviation event is degenerate")
    top = float(np.abs(np.linalg.eigvalsh(M)).max())
    form = _sample(len(M), trials, seed, lambda g, y: np.einsum("ij,ij->i", np.matmul(g, M, out=y), g), 1, len(M))
    return _tail(np.abs(form[0] - float(np.trace(M))), _chaos_threshold(frob, top, t, c), e)


def joint_event_rate(
    A: LinearMap, delta: float, c1: float, c2: float, trials: int, seed: int | Seed
) -> TailEstimate:
    """Rate of the event {form deviates by >= c1-threshold} and {norm stays small}.

    The form side asks |‖Ag‖² - tr(A^T A)| >= c1 sqrt(ln(1/delta)) ‖A^T A‖_F
    (non-strict), the norm side asks ‖g‖² <= n + c2 sqrt(n ln(1/delta)).
    The reported threshold is the form-side one.
    """
    _check_deltas((delta,))
    _require_nonnegative("c1", c1)
    _require_nonnegative("c2", c2)
    return _form_sample(A, trials, seed).joint(delta, c1, c2)


@dataclass(frozen=True, eq=False)
class _FormSample:
    """One sample of a map A = 2^e B, B and its certificate looked up by `_normal_scale`.

    Per trial, dev = |‖Bg‖² - tr(B^T B)| and normsq = ‖g‖²; ``frob`` and
    ``top`` are ‖B^T B‖_F and ‖B^T B‖, and ``cert`` is A's certificate.
    Its methods count the map events of the module docstring at one
    threshold each, on B's scale, and report the threshold on A's.  The
    chaos event is strict (dev > threshold), the joint event's form side
    is not (dev >= threshold), and the norm side is the joint event's
    second half, ‖g‖² <= n + c2 sqrt(n ln(1/delta)).
    """

    n: int
    cert: SpectralCertificate
    e: int
    frob: float
    top: float
    dev: np.ndarray
    normsq: np.ndarray

    def chaos(self, t: float, c: float) -> TailEstimate:
        return _tail(self.dev, _chaos_threshold(self.frob, self.top, t, c), 2 * self.e)

    def norm_side(self, delta: float, c2: float) -> TailEstimate:
        thr = self._norm_bound(delta, c2)
        return TailEstimate.from_hits(thr, self.dev.size, int(np.count_nonzero(self.normsq <= thr)))

    def joint(self, delta: float, c1: float, c2: float) -> TailEstimate:
        # reports the form-side threshold c1 sqrt(ln(1/delta)) ‖A^T A‖_F
        thr = c1 * math.sqrt(math.log(1.0 / delta)) * self.frob
        hits = np.count_nonzero((self.dev >= thr) & (self.normsq <= self._norm_bound(delta, c2)))
        return TailEstimate.from_hits(math.ldexp(thr, 2 * self.e), self.dev.size, int(hits))

    def _norm_bound(self, delta: float, c2: float) -> float:
        return self.n + c2 * math.sqrt(self.n * math.log(1.0 / delta))


# the most recent sample as one (key, sample) tuple, or None: a norm
# deviation sample keyed by (n, trials, seed value) or a _FormSample keyed by
# (weak reference to the map, trials, seed value); see the module docstring
_record: tuple[tuple, np.ndarray | _FormSample] | None = None


def _recorded(key: tuple, draw: Callable[[], _S]) -> _S:
    # the record's sample when it has this key, else draw(), recorded.  The
    # old record is dropped before the draw, so no call holds two samples
    global _record
    record = _record
    if record is not None and record[0] == key:
        return record[1]
    _record = record = None
    sample = draw()
    _record = (key, sample)
    return sample


def _form_sample(A: LinearMap, trials: int, seed: int | Seed) -> _FormSample:
    # A's map sample through the record; a miss on the same map object
    # reuses the record's certificate
    ref = weakref.ref(A)
    record = _record
    cert = record[1].cert if record is not None and record[0][0] == ref else None
    del record

    def draw() -> _FormSample:
        a_cert = spectral_certificate(A) if cert is None else cert
        B, scaled, e = _normal_scale(A, a_cert)
        if scaled.frob_sq == 0.0:
            raise ValueError("zero map: the deviation event is degenerate")
        img, nrm = map_samples(B, trials, seed)
        return _FormSample(
            n=A.n, cert=a_cert, e=e, frob=math.sqrt(scaled.frob_sq), top=float(scaled.eigenvalues[0]),
            dev=np.abs(img - scaled.trace), normsq=nrm,
        )

    return _recorded((ref, trials, as_seed(seed).value), draw)


# ---------------------------------------------------------------------------
# constant calibration


def _switch(lo: float, holds: Callable[[float], bool], resolution: float) -> tuple[float, float | None]:
    """Bracket (a, b) of where a monotone predicate, true at lo, turns false.

    b starts at 1 and doubles until the predicate fails there, then the
    bracket is bisected to ``resolution`` or to adjacent doubles, below
    which it would spin; holds(a) is true and holds(b) false throughout.
    b is None when the predicate still holds past 2^20, a then the last
    point it held at.
    """
    hi = 1.0
    while holds(hi):
        lo = hi
        hi *= 2.0
        if hi > 2.0**20:
            return lo, None
    while hi - lo > resolution and lo < (mid := 0.5 * (lo + hi)) < hi:
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def calibrate_constants(
    family: Sequence[LinearMap],
    t_grid: Sequence[float],
    trials: int,
    seed: int | Seed,
    delta_grid: Sequence[float] = (0.25, 0.125, 0.0625, 0.05, 0.03125),
    resolution: float = 2.0**-10,
    floor: float = 2.0**-10,
) -> CalibrationConstants:
    """Empirically calibrate the tail constants on a family of maps.

    One sample of ``trials`` gaussian vectors is drawn per member (member
    i from ``seed.child(i)``) and reused for every feasibility check, so
    each search is over an exactly monotone predicate and bisection to
    ``resolution`` is exact.  The predicates count with the same sample
    methods as `chaos_tail_estimate` and `joint_event_rate`, so member i's
    estimate at ``seed.child(i)`` gives exactly the counts the search saw.

    * ``c``: the largest value such that for every member and every t in
      ``t_grid`` the observed chaos tail is at least min(c, exp(-t)) minus
      four standard errors.  The same c plays both roles (threshold scale
      and probability floor); a single constant witnessing both exists
      and keeps the interface to one knob.
    * ``c2``: the smallest value such that ‖g‖² <= n + c2 sqrt(n ln(1/delta))
      holds with frequency at least 1 - delta/2 minus four standard errors
      for every member dimension and delta in ``delta_grid``.
    * ``c1``: the largest value such that the joint event (with the found
      c2) has frequency at least delta minus four standard errors for
      every member and delta in ``delta_grid``.
    * ``delta0``: the largest delta validated, max(delta_grid).

    ``resolution`` and ``floor`` must be positive and finite (`ValueError`
    otherwise).  Raises `CalibrationError` if no feasible constant is
    found at or above ``floor``; for c that signals a bug, since some
    positive c always works.
    """
    if not family:
        raise ValueError("family must be nonempty")
    if not t_grid:
        raise ValueError("t_grid must be nonempty")
    _check_ts(t_grid)
    _check_deltas(delta_grid)
    _require_positive("resolution", resolution)
    _require_positive("floor", floor)
    s = as_seed(seed)
    samples = [_form_sample(A, trials, s.child(i)) for i, A in enumerate(family)]

    def holds(est: TailEstimate, req: float) -> bool:
        return est.p_hat >= req - 4.0 * est.stderr

    def c_feasible(c: float) -> bool:
        return all(holds(x.chaos(t, c), min(c, math.exp(-t))) for x in samples for t in t_grid)

    def largest(feasible: Callable[[float], bool], what: str) -> float:
        # the largest feasible value of a monotone-decreasing predicate
        if not feasible(floor):
            raise CalibrationError(f"no feasible {what} at the floor {floor}")
        return _switch(floor, feasible, resolution)[0]

    c = largest(c_feasible, "c")

    def c2_feasible(c2: float) -> bool:
        return all(holds(x.norm_side(d, c2), 1.0 - 0.5 * d) for x in samples for d in delta_grid)

    # the smallest feasible value of a monotone-increasing predicate
    c2 = floor if c2_feasible(floor) else _switch(floor, lambda v: not c2_feasible(v), resolution)[1]
    if c2 is None:
        raise CalibrationError(f"no feasible c2 up to {2.0**21}")

    def c1_feasible(c1: float) -> bool:
        return all(holds(x.joint(d, c1, c2), d) for x in samples for d in delta_grid)

    c1 = largest(c1_feasible, "c1")
    return CalibrationConstants(c=c, c1=c1, c2=c2, delta0=max(delta_grid))
