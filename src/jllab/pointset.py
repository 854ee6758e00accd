"""Point sets: construction, validation, and serialization.

A `PointSet` is a dense ``(N, n)`` float64 array with one role tag per
point.  Roles distinguish exact standard basis vectors (``basis``), seeded
gaussian points (``gaussian``), and the origin (``origin``); downstream
audits rely on basis-tagged points being exact unit vectors, so that is
enforced at construction.

Gaussian sampling method (fixed, part of the determinism contract): point
``j`` draws its coordinates from ``seed.child(j)`` with numpy's ziggurat
``standard_normal`` on an SFC64 stream, so the result is independent of
generation order and thread layout.  The builders do not build one
generator per point: `seeds._fill_child_normals` derives the children's
SFC64 states in blocks with array arithmetic and draws each row from one
reused generator, the same bits as ``seed.child(j).generator()``.
`hard_instance` fills one array, the basis rows and then the gaussian
rows, which `PointSet` copies once.  Golden values in the test suite pin
the streams.

Every array the package sizes from its inputs (a point set, a map, a
Gram matrix, an image, a sample chunk) is held to `MAX_TOTAL_COORDS`
float64 values by one rule, `_check_size`, before it is allocated; over
it the caller gets `SizeError`.  One value rule, `_frozen_matrix`, takes
every input matrix (points, map entries, a symmetric form): it bounds it
so before the copy, and keeps a read-only C-ordered float64 copy, 2-d
and finite.  Beside them sit the four argument domains the library and
the CLI share, each written once and each naming the parameter (or flag)
it refuses in its `ValueError`: an integer at least 1, an integer at
least 0, a finite float above 0, a finite float at least 0.

Two file formats are supported.  Text files carry a header line
``jlps v1 n=<n> N=<N>``, one comma-separated row per point with 17
significant digits, and a trailing ``roles=...`` line.  Binary files start
with the magic bytes ``JLPS`` followed by a little-endian version, the
dimensions, raw float64 coordinates, and one role byte per point.  One
header rule, `_set_header`, parses and checks both formats' headers (the
size rule and, for binary, the version and the file's length); `_read_dim`
applies it to a file's first bytes alone, for a caller that needs only
the dimension.

The text point-set format and the ``jlmap`` text format of `embeddings`
share one row grammar, written by `_write_rows` and read by `_read_rows`.
Both readers take the header's two sizes from the file's first line alone
and hold their product to `MAX_TOTAL_COORDS` before the rest is decoded.
They then check the sizes against the rows themselves (the line count,
then every row's width) before they allocate the array, so the array
takes at most 8 bytes per byte of the file, whatever the header claims.
They convert all rows in one bulk call, `numpy.loadtxt`, which parses
each field with ``PyOS_string_to_double``, the routine behind
``float()``, so every value has the bits ``float()`` gives it.  Rows the
bulk call refuses or reads differently from ``float()`` go through a
per-row ``float()`` loop, the error path, which names the 1-based line of
a malformed value.  Both readers refuse a byte outside ASCII with its line.
"""

from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .seeds import Seed, _fill_child_normals, as_seed

ROLE_BASIS = "basis"
ROLE_GAUSSIAN = "gaussian"
ROLE_ORIGIN = "origin"
_ROLES = (ROLE_BASIS, ROLE_GAUSSIAN, ROLE_ORIGIN)
_ROLE_CODE = {role: i for i, role in enumerate(_ROLES)}

MAX_TOTAL_COORDS = 10**7

_TEXT_HEADER = re.compile(r"^jlps v1 n=(\d+) N=(\d+)$")
# the ASCII characters at which str.splitlines ends a line
_LINE_BREAK = re.compile(rb"[\n\r\x0b\x0c\x1c-\x1e]")
_BINARY_MAGIC = b"JLPS"
_BINARY_HEAD = len(_BINARY_MAGIC) + struct.calcsize("<IQQ")  # magic, version, n, N
_WRITE_BLOCK = 1 << 16  # values (or roles) a text writer formats at a time


class SizeError(ValueError):
    """An array sized by the inputs would exceed the total-coordinate budget."""


def _check_size(what: str, array: str, *shape: int) -> None:
    # the one size rule for an array of float64 values whose shape the inputs
    # set: at most MAX_TOTAL_COORDS values, checked before it is allocated
    if math.prod(shape) > MAX_TOTAL_COORDS:
        dims = "x".join(str(d) for d in shape)
        raise SizeError(f"{what} needs a {dims} {array}, over the {MAX_TOTAL_COORDS} coordinate limit")


def _frozen_matrix(values, what: str, array: str) -> np.ndarray:
    # the one value rule for an input matrix (see the module docstring)
    _check_size(what, array, *np.shape(values))
    mat = np.array(values, dtype=np.float64, order="C")
    if mat.ndim != 2:
        raise ValueError(f"{what} needs a 2-d {array}, got shape {mat.shape}")
    # NaN and ±inf reach the extremes, so no N x n mask is built unless one is there
    if not (math.isfinite(mat.min(initial=0.0)) and math.isfinite(mat.max(initial=0.0))):
        bad = np.argwhere(~np.isfinite(mat))[0]
        raise ValueError(f"non-finite entry at ({bad[0]}, {bad[1]})")
    mat.flags.writeable = False
    return mat


# the four argument domains; each names the parameter or flag it refuses,
# and a NaN, which fails every comparison, is refused by each
def _require_positive_int(name: str, value: int) -> None:
    if not value >= 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _require_nonnegative_int(name: str, value: int) -> None:
    if not value >= 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _require_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _require_nonnegative(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


@dataclass(frozen=True, eq=False)
class PointSet:
    """Immutable set of N points in R^n with per-point role tags; ``points`` is a read-only float64 copy."""

    dim: int
    points: np.ndarray
    roles: tuple[str, ...]

    def __post_init__(self) -> None:
        _require_positive_int("dimension", self.dim)
        pts = _frozen_matrix(self.points, f"a point set in dimension {self.dim}", "point array")
        if pts.shape[1] != self.dim:
            raise ValueError(f"points must have shape (N, {self.dim}), got {pts.shape}")
        object.__setattr__(self, "points", pts)
        roles = tuple(self.roles)
        object.__setattr__(self, "roles", roles)
        if len(roles) != pts.shape[0]:
            raise ValueError(f"{pts.shape[0]} points but {len(roles)} role tags")
        unknown = sorted(set(roles) - set(_ROLES))
        if unknown:
            raise ValueError(f"unknown roles {unknown}; expected one of {_ROLES}")
        basis = [i for i, r in enumerate(roles) if r == ROLE_BASIS]
        bad = np.flatnonzero(~_unit_rows(pts[basis]))
        if bad.size:
            raise ValueError(f"point {basis[bad[0]]} is tagged basis but is not an exact unit vector")

    def __len__(self) -> int:
        return self.points.shape[0]


def standard_basis(n: int) -> PointSet:
    """The n standard unit vectors e_1 .. e_n."""
    _require_positive_int("dimension", n)
    _check_size(f"a set of {n} points in dimension {n}", "point array", n, n)
    return PointSet(n, np.eye(n), (ROLE_BASIS,) * n)


def simplex(n: int) -> PointSet:
    """Origin plus the standard basis: n + 1 points."""
    _require_positive_int("dimension", n)
    _check_size(f"a set of {n + 1} points in dimension {n}", "point array", n + 1, n)
    pts = np.vstack([np.zeros((1, n)), np.eye(n)])
    return PointSet(n, pts, (ROLE_ORIGIN,) + (ROLE_BASIS,) * n)


def gaussian_vectors(n: int, k: int, seed: int | Seed) -> PointSet:
    """k points with iid standard normal coordinates, one child seed per point."""
    _require_positive_int("dimension", n)
    _require_nonnegative_int("point count", k)
    _check_size(f"a set of {k} points in dimension {n}", "point array", k, n)
    pts = np.empty((k, n))
    _fill_child_normals(as_seed(seed), pts)
    return PointSet(n, pts, (ROLE_GAUSSIAN,) * k)


def hard_instance(n: int, k: int, seed: int | Seed) -> PointSet:
    """Standard basis followed by k seeded gaussian points.

    The gaussian block uses the same per-point child derivation as
    `gaussian_vectors`, so ``hard_instance(n, k, s).points[n:]`` equals
    ``gaussian_vectors(n, k, s).points`` exactly.
    """
    _require_positive_int("dimension", n)
    _require_nonnegative_int("point count", k)
    _check_size(f"a set of {n + k} points in dimension {n}", "point array", n + k, n)
    pts = np.empty((n + k, n))
    pts[:n] = np.eye(n)
    _fill_child_normals(as_seed(seed), pts[n:])
    return PointSet(n, pts, (ROLE_BASIS,) * n + (ROLE_GAUSSIAN,) * k)


def _unit_rows(P: np.ndarray) -> np.ndarray:
    # mask of the rows of P that are exact standard basis vectors
    return (np.count_nonzero(P, axis=1) == 1) & (P.max(axis=1) == 1.0) & (P.min(axis=1) >= 0.0)


def _json_fields(obj) -> dict:
    # a dataclass as a JSON dict: its public fields in declaration order, an
    # array field as a list of Python floats
    out = {}
    for name in [f.name for f in fields(obj) if not f.name.startswith("_")]:
        v = getattr(obj, name)
        out[name] = [float(x) for x in v] if isinstance(v, np.ndarray) else v
    return out


def _write_rows(f, header: str, M: np.ndarray) -> None:
    # the header line, then one line per row of M, its values as
    # format(v, ".17g") joined by commas, to the open file f a block of about
    # _WRITE_BLOCK values at a time; shared by both text writers
    template = ",".join(["%.17g"] * M.shape[1]) + "\n"
    f.write((header + "\n").encode("ascii"))
    step = max(1, _WRITE_BLOCK // M.shape[1])
    for lo in range(0, len(M), step):
        f.write("".join([template % tuple(row.tolist()) for row in M[lo : lo + step]]).encode("ascii"))


def _read_rows(lines: list[str], first: int, count: int, width: int, path: Path) -> np.ndarray:
    # lines[first : first + count] as a (count, width) array, the inverse of
    # _write_rows; errors name the 1-based line.  Every row must show the
    # header's width before the array is allocated: a row of width values
    # holds width - 1 commas, so the array is at most 8 bytes per byte read.
    rows = lines[first : first + count]
    for i, row in enumerate(rows):
        found = row.count(",") + 1
        if found != width:
            raise ValueError(f"{path}: line {first + i + 1}: expected {width} values, found {found}")
    # one bulk conversion.  loadtxt parses each field with
    # PyOS_string_to_double, the routine behind float(), so the values are
    # the same bits.  Where it parts from float() the rows go to the per-row
    # loop below, the error path: it refuses some values float() takes
    # ("1_0"), skips blank rows (a result of the wrong shape), warns when
    # every row is blank, and strips a "\x1f" around a field, which float()
    # refuses.
    if any(rows) and not any("\x1f" in row for row in rows):
        try:
            out = np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            pass
        else:
            if out.shape == (count, width):
                return out
    out = np.empty((count, width))
    for i, row in enumerate(rows):
        try:
            out[i] = [float(f) for f in row.split(",")]
        except ValueError:
            raise ValueError(f"{path}: line {first + i + 1}: malformed value") from None
    return out


def write_pointset(path: str | Path, ps: PointSet, binary: bool = False) -> None:
    """Write a point set to ``path`` in the text (default) or binary format."""
    with Path(path).open("wb") as f:
        if binary:
            f.write(_BINARY_MAGIC + struct.pack("<IQQ", 1, ps.dim, len(ps)))
            f.write(np.ascontiguousarray(ps.points, "<f8"))  # the points' own buffer on a little-endian host
            f.write(bytes(_ROLE_CODE[r] for r in ps.roles))
            return
        _write_rows(f, f"jlps v1 n={ps.dim} N={len(ps)}", ps.points)
        for lo in range(0, max(len(ps), 1), _WRITE_BLOCK):  # "roles=" even for N = 0
            f.write((("," if lo else "roles=") + ",".join(ps.roles[lo : lo + _WRITE_BLOCK])).encode("ascii"))
        f.write(b"\n")


def read_pointset(path: str | Path) -> PointSet:
    """Read a point set written by `write_pointset` (format auto-detected)."""
    path = Path(path)
    blob = path.read_bytes()
    binary, n, count = _set_header(blob, len(blob), path)
    return (_read_binary if binary else _read_text)(blob, path, n, count)


def _read_dim(path: str | Path) -> int:
    # the dimension of the point set at ``path`` from its header alone: the
    # binary format's 24 bytes, or the text format's first line, however long.
    # The header's checks all run, and no row is read
    path = Path(path)
    with path.open("rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = more = bytearray(f.read(_BINARY_HEAD))
        while not head.startswith(_BINARY_MAGIC) and not _LINE_BREAK.search(more) and (more := f.read(1 << 16)):
            head += more
    return _set_header(head, size, path)[1]


def _set_header(head: bytes, size: int, path: Path) -> tuple[bool, int, int]:
    # (binary, n, N) of a point-set file from its first bytes, which hold at
    # least the binary header or the whole first line, and its length in
    # bytes: every check that needs no row, the size rule included
    if head.startswith(_BINARY_MAGIC):
        if size < _BINARY_HEAD:
            raise ValueError(f"{path}: truncated binary header")
        version, n, count = struct.unpack_from("<IQQ", head, len(_BINARY_MAGIC))
        _check_size(f"{path}: the header", "point array", count, n)
        if version != 1:
            raise ValueError(f"{path}: unsupported binary version {version}")
        need = _BINARY_HEAD + 8 * n * count + count
        if size != need:
            raise ValueError(f"{path}: expected {need} bytes, found {size}")
        return True, int(n), int(count)
    n, count = _header(head, _TEXT_HEADER, "jlps v1 n=<n> N=<N>", path)
    _check_size(f"{path}: the header", "point array", count, n)
    return False, n, count


def _read_binary(blob: bytes, path: Path, n: int, count: int) -> PointSet:
    pts = np.frombuffer(blob, dtype="<f8", count=n * count, offset=_BINARY_HEAD)
    codes = blob[_BINARY_HEAD + 8 * n * count :]
    try:
        roles = tuple(_ROLES[c] for c in codes)
    except IndexError:
        raise ValueError(f"{path}: invalid role byte") from None
    return PointSet(n, pts.reshape(count, n), roles)


def _text_lines(blob: bytes, path: Path) -> list[str]:
    # the lines of a text point set or map; a byte outside ASCII is refused
    # with the 1-based line it sits on, counted as splitlines counts
    try:
        return blob.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        line = len((blob[: exc.start].decode("ascii") + "x").splitlines())
        raise ValueError(f"{path}: line {line}: non-ASCII byte") from None


def _header(blob: bytes, pattern: re.Pattern[str], form: str, path: Path) -> tuple[int, int]:
    # the two sizes of a text file's header line, read without decoding the
    # rest of the file, so the caller can bound them before it does
    if not blob:
        raise ValueError(f"{path}: empty file")
    end = _LINE_BREAK.search(blob)
    first = _text_lines(blob[: end.start() if end else len(blob)], path)
    match = pattern.match(first[0] if first else "")
    if not match:
        raise ValueError(f"{path}: line 1: expected '{form}' header")
    return int(match.group(1)), int(match.group(2))


def _read_text(blob: bytes, path: Path, n: int, count: int) -> PointSet:
    lines = _text_lines(blob, path)
    if len(lines) != count + 2:
        raise ValueError(f"{path}: expected {count + 2} lines for N={count}, found {len(lines)}")
    pts = _read_rows(lines, 1, count, n, path)
    footer = lines[count + 1]
    if not footer.startswith("roles="):
        raise ValueError(f"{path}: line {count + 2}: expected 'roles=' footer")
    roles = tuple(footer[len("roles=") :].split(",")) if count else ()
    if count and len(roles) != count:
        raise ValueError(f"{path}: line {count + 2}: expected {count} roles, found {len(roles)}")
    return PointSet(n, pts, roles)
