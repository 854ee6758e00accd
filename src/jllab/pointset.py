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
rows.  Golden values in the test suite pin the streams.

Every array the package sizes from its inputs (a point set, a map, a
Gram matrix, an image, a sample chunk) is held to `MAX_TOTAL_COORDS`
float64 values by one rule, `_check_size`, before it is allocated; over
it the caller gets `SizeError`.  One value rule, `_frozen_matrix`, takes
every input matrix (points, map entries, a symmetric form): it bounds it
so before the copy, and keeps a read-only C-ordered float64 copy, 2-d
and finite.  An array jllab made itself and holds nowhere else (a
builder's, a reader's) is handed over as `_Owned` and frozen in place
after the same checks, so a set is never held twice.  Beside them sit
the four argument domains the library and the CLI share, each written
once and each naming the parameter (or flag) it refuses in its
`ValueError`: an integer at least 1, an integer at least 0, a finite
float above 0, a finite float at least 0.

Two file formats are supported.  Text files carry a header line
``jlps v1 n=<n> N=<N>``, one comma-separated row per point with 17
significant digits, and a trailing ``roles=...`` line.  Binary files start
with the magic bytes ``JLPS`` followed by a little-endian version, the
dimensions, raw float64 coordinates, and one role byte per point.  One
header rule, `_set_header`, parses and checks both formats' headers (the
size rule and, for binary, the version and the file's length) from a
file's first bytes alone (`_head`); `_read_dim` stops there, for a caller
that needs only the dimension.

The readers stream: after the header they read the file a block of
`_READ_BLOCK` bytes at a time into the one array they keep, which the
point set or map adopts.  A read holds that array, the roles (one pointer
per point, to one of the three role strings) and one block.  The binary
reader reads the coordinates straight into the array.  The text point-set
format and the ``jlmap`` text format of `embeddings` share one row
grammar, written by `_write_rows` and read by `_read_body`.  Before it
allocates, `_read_body` holds the header's sizes to the file's length (a
row of n values takes at least 2n bytes), so the array takes at most 4
bytes per byte of the file, whatever the header claims.  It converts each
block's rows in one bulk call, `numpy.loadtxt`, which parses each field
with ``PyOS_string_to_double``, the routine behind ``float()``, so every
value has the bits ``float()`` gives it.  Rows the bulk call refuses or
reads differently from ``float()`` go through a per-row ``float()`` loop,
the error path, which names the 1-based line of a malformed value.  The
readers refuse a byte outside ASCII with its line.  Errors keep the
whole-file order, whatever the block size: a byte outside ASCII first,
then the line count, a row of another width, a malformed value, and the
footer.
"""

from __future__ import annotations

import math
import os
import re
import struct
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .seeds import Seed, _fill_child_normals, as_seed

ROLE_BASIS = "basis"
ROLE_GAUSSIAN = "gaussian"
ROLE_ORIGIN = "origin"
_ROLES = (ROLE_BASIS, ROLE_GAUSSIAN, ROLE_ORIGIN)
_ROLE_CODE = {role: i for i, role in enumerate(_ROLES)}
_ROLE_NAME = {role: role for role in _ROLES}  # a read role's one string

MAX_TOTAL_COORDS = 10**7

_TEXT_HEADER = re.compile(r"^jlps v1 n=(\d+) N=(\d+)$")
# the ASCII characters at which str.splitlines ends a line
_LINE_BREAK = re.compile(rb"[\n\r\x0b\x0c\x1c-\x1e]")
_BINARY_MAGIC = b"JLPS"
_BINARY_HEAD = len(_BINARY_MAGIC) + struct.calcsize("<IQQ")  # magic, version, n, N
_WRITE_BLOCK = 1 << 16  # values (or roles) a text writer formats at a time
_READ_BLOCK = 1 << 17  # bytes a reader decodes at a time
_STRIP = 1 << 14  # values a check by strips of rows holds at a time


class SizeError(ValueError):
    """An array sized by the inputs would exceed the total-coordinate budget."""


def _check_size(what: str, array: str, *shape: int) -> None:
    # the one size rule for an array of float64 values whose shape the inputs
    # set: at most MAX_TOTAL_COORDS values, checked before it is allocated
    if math.prod(shape) > MAX_TOTAL_COORDS:
        dims = "x".join(str(d) for d in shape)
        raise SizeError(f"{what} needs a {dims} {array}, over the {MAX_TOTAL_COORDS} coordinate limit")


class _Owned(NamedTuple):
    # an array jllab made itself and holds nowhere else, which
    # `_frozen_matrix` freezes in place of a copy
    array: np.ndarray


def _frozen_matrix(values, what: str, array: str) -> np.ndarray:
    # the one value rule for an input matrix (see the module docstring)
    owned = isinstance(values, _Owned)
    if owned:
        values = values.array
    _check_size(what, array, *np.shape(values))
    mat = (np.asarray if owned else np.array)(values, dtype=np.float64, order="C")
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
    """Immutable set of N points in R^n with per-point role tags.

    ``points`` is read-only float64.  The public constructor copies the
    caller's array; the builders and readers hand over their own array.
    """

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
        # by strips of rows, so that the check copies no more than a strip
        step = max(1, _STRIP // self.dim)
        for lo in range(0, len(roles), step):
            basis = lo + np.flatnonzero(np.array(roles[lo : lo + step], dtype=object) == ROLE_BASIS)
            bad = np.flatnonzero(~_unit_rows(pts[basis]))
            if bad.size:
                raise ValueError(f"point {basis[bad[0]]} is tagged basis but is not an exact unit vector")

    def __len__(self) -> int:
        return self.points.shape[0]


def standard_basis(n: int) -> PointSet:
    """The n standard unit vectors e_1 .. e_n."""
    _require_positive_int("dimension", n)
    _check_size(f"a set of {n} points in dimension {n}", "point array", n, n)
    return PointSet(n, _Owned(np.eye(n)), (ROLE_BASIS,) * n)


def simplex(n: int) -> PointSet:
    """Origin plus the standard basis: n + 1 points."""
    _require_positive_int("dimension", n)
    _check_size(f"a set of {n + 1} points in dimension {n}", "point array", n + 1, n)
    pts = np.zeros((n + 1, n))
    np.fill_diagonal(pts[1:], 1.0)
    return PointSet(n, _Owned(pts), (ROLE_ORIGIN,) + (ROLE_BASIS,) * n)


def gaussian_vectors(n: int, k: int, seed: int | Seed) -> PointSet:
    """k points with iid standard normal coordinates, one child seed per point."""
    _require_positive_int("dimension", n)
    _require_nonnegative_int("point count", k)
    _check_size(f"a set of {k} points in dimension {n}", "point array", k, n)
    pts = np.empty((k, n))
    _fill_child_normals(as_seed(seed), pts)
    return PointSet(n, _Owned(pts), (ROLE_GAUSSIAN,) * k)


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
    pts[:n] = 0.0
    np.fill_diagonal(pts[:n], 1.0)
    _fill_child_normals(as_seed(seed), pts[n:])
    return PointSet(n, _Owned(pts), (ROLE_BASIS,) * n + (ROLE_GAUSSIAN,) * k)


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
    with path.open("rb") as f:
        binary, n, count, head = _set_head(f, path)
        return (_read_binary if binary else _read_text)(f, head, path, n, count)


def _read_dim(path: str | Path) -> int:
    # the dimension of the point set at ``path`` from its header alone; the
    # header's checks all run, and no row is read
    path = Path(path)
    with path.open("rb") as f:
        return _set_head(f, path)[1]


def _set_head(f, path: Path) -> tuple[bool, int, int, bytes]:
    # (binary, n, N) of the point-set file open at f, checked by
    # `_set_header`, and the bytes read for them
    head = _head(f, binary=True)
    return (*_set_header(head, os.fstat(f.fileno()).st_size, path), head)


def _head(f, binary: bool) -> bytes:
    # the first bytes of the file open at f: the binary header, if binary
    # and the file begins with its magic, or else the whole first line,
    # however long, and maybe more
    head = more = f.read(_BINARY_HEAD)
    chunks = [head]
    while not (binary and head.startswith(_BINARY_MAGIC)) and not _LINE_BREAK.search(more):
        if not (more := f.read(_READ_BLOCK)):
            break
        chunks.append(more)
    return b"".join(chunks)


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


class _Counted:
    # items whose count is known, so that tuple() allocates the tuple once
    # instead of growing it
    def __init__(self, count: int, items: Iterator[str]) -> None:
        self._count, self._items = count, items

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[str]:
        return self._items


def _read_binary(f, head: bytes, path: Path, n: int, count: int) -> PointSet:
    # the body of the binary file open at f after its header; `_set_header`
    # has checked the file's length
    pts = np.empty((count, n), "<f8")
    f.readinto(pts)
    blocks = (map(_ROLES.__getitem__, f.read(_READ_BLOCK)) for _ in range(0, count, _READ_BLOCK))
    try:
        roles = tuple(_Counted(count, chain.from_iterable(blocks)))
    except IndexError:
        raise ValueError(f"{path}: invalid role byte") from None
    return PointSet(n, _Owned(pts), roles)


def _read_text(f, head: bytes, path: Path, n: int, count: int) -> PointSet:
    pts, roles = _read_body(f, head, path, "N", count, n, footer=True)
    return PointSet(n, _Owned(pts), roles)


def _ascii(blob: bytes, line: int, path: Path) -> str:
    # blob, which begins on 1-based line ``line`` of a text point set or map,
    # decoded; a byte outside ASCII is refused with its line, counted as
    # splitlines counts
    try:
        return blob.decode("ascii")
    except UnicodeDecodeError as exc:
        line += len((blob[: exc.start].decode("ascii") + "x").splitlines()) - 1
        raise ValueError(f"{path}: line {line}: non-ASCII byte") from None


def _header(blob: bytes, pattern: re.Pattern[str], form: str, path: Path) -> tuple[int, int]:
    # the two sizes of a text file's header line, from its first bytes
    if not blob:
        raise ValueError(f"{path}: empty file")
    end = _LINE_BREAK.search(blob)
    match = pattern.match(_ascii(blob[: end.start() if end else len(blob)], 1, path))
    if not match:
        raise ValueError(f"{path}: line 1: expected '{form}' header")
    return int(match.group(1)), int(match.group(2))


class _Lines:
    """The lines of an open text file, decoded a block at a time.

    ``parts`` is the block being read, split into lines as `str.splitlines`
    splits them: every part but the last ends a line, and the last one,
    maybe empty, begins the next.  The cursor stands at ``parts[at]``, on
    the 1-based line ``line``; ``parts`` is None at the end of the file.
    """

    def __init__(self, f, head: bytes, path: Path) -> None:
        self._f, self._path, self._next, self._open = f, path, head, False
        self.parts: list[str] | None = [""]
        self.at = 0
        self.line = 1

    def _load(self) -> None:
        # the next block, once the cursor stands on the last part of this one
        block = self._next
        if not block:
            self.parts = None
            return
        self._next = self._f.read(_READ_BLOCK)
        if self._next and block.endswith(b"\r"):  # a "\r\n" stays in one block
            block, self._next = block[:-1], b"\r" + self._next
        parts = (_ascii(block, self.line, self._path) + "x").splitlines()
        parts[-1] = parts[-1][:-1]
        self._open = bool(parts[-1]) or (self._open and len(parts) == 1)
        if self._open and not self._next:  # a last line with no line break
            parts.append("")
        self.parts, self.at = parts, 0

    def lines(self, limit: int) -> list[str]:
        """Up to ``limit`` whole lines from the cursor; none only at the end of the file."""
        line = self.line
        first = "".join(self.pieces())
        if self.line == line:
            return []
        end = min(len(self.parts) - 1, self.at + limit - 1)
        out = [first, *self.parts[self.at : end]]
        self.line += end - self.at
        self.at = end
        return out

    def pieces(self) -> Iterator[str]:
        """The rest of the cursor's line, a block's piece at a time."""
        while self.parts is not None:
            piece = self.parts[self.at]
            if self.at < len(self.parts) - 1:
                self.at += 1
                self.line += 1
                yield piece
                return
            self._load()
            yield piece

    def skip(self) -> int:
        """Move the cursor to the end of the file; the file's line count."""
        while self.parts is not None:
            self.line += len(self.parts) - 1 - self.at
            self.at = len(self.parts) - 1
            self._load()
        return self.line - 1


def _read_body(
    f, head: bytes, path: Path, name: str, count: int, width: int, footer: bool
) -> tuple[np.ndarray, tuple[str, ...] | None]:
    # the rows of the text point set or map open at f, its header line read
    # into head, as a (count, width) array, the inverse of _write_rows; and
    # with footer the roles of the point set's last line.  Errors name the
    # 1-based line, and each is raised once the line count is known, in the
    # order the whole-file reader found them.  A row of width values takes
    # at least 2 width bytes, so the array takes at most 4 bytes per byte of
    # the file; a file too short for its rows is read without one, and
    # always fails a check below
    out = np.empty((count, width)) if 2 * count * width <= os.fstat(f.fileno()).st_size else None
    text = _Lines(f, head, path)
    text.lines(1)
    widths = values = None  # the first row of another width, the first malformed value
    done = 0
    while done < count and (rows := text.lines(count - done)):
        line = text.line - len(rows)
        widths = widths or _width_error(rows, line, width, path)
        if not (widths or values):
            try:
                block = _read_rows(rows, line, width, path)
            except ValueError as exc:
                values = exc
            else:
                if out is not None:
                    out[done : done + len(rows)] = block
        done += len(rows)
    error, roles = widths or values, None
    if footer and not error:
        error, roles = _footer(text.pieces(), count, path)
    lines = count + 1 + footer
    found = text.skip()
    if found != lines:
        raise ValueError(f"{path}: expected {lines} lines for {name}={count}, found {found}")
    if error:
        raise error
    return out, roles


def _width_error(rows: list[str], line: int, width: int, path: Path) -> ValueError | None:
    # the first of rows, the first on 1-based line ``line``, that has
    # another width than ``width``, as its error
    for i, row in enumerate(rows):
        found = row.count(",") + 1
        if found != width:
            return ValueError(f"{path}: line {line + i}: expected {width} values, found {found}")
    return None


def _read_rows(rows: list[str], line: int, width: int, path: Path) -> np.ndarray:
    # rows of width values, the first on 1-based line ``line``, as a
    # (len(rows), width) array; a malformed value's error names its line.
    # One bulk conversion: loadtxt parses each field with
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
            if out.shape == (len(rows), width):
                return out
    out = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        try:
            out[i] = [float(f) for f in row.split(",")]
        except ValueError:
            raise ValueError(f"{path}: line {line + i}: malformed value") from None
    return out


def _footer(pieces: Iterator[str], count: int, path: Path) -> tuple[ValueError | None, tuple[str, ...]]:
    # the roles of a point set's footer line, ``roles=`` and the names, read
    # a piece at a time; a known name becomes its one role string, so the
    # roles take one pointer a point.  An error is returned, not raised
    start = ""
    for piece in pieces:
        start += piece
        if len(start) >= len("roles="):
            break
    if not start.startswith("roles="):
        return ValueError(f"{path}: line {count + 2}: expected 'roles=' footer"), ()
    if not count:
        return None, ()
    roles = tuple(_Counted(count, chain.from_iterable(_role_names(chain([start[len("roles=") :]], pieces)))))
    if len(roles) != count:
        return ValueError(f"{path}: line {count + 2}: expected {count} roles, found {len(roles)}"), roles
    return None, roles


def _role_names(pieces: Iterator[str]) -> Iterator[map]:
    # the comma-separated names across pieces, a piece's worth at a time;
    # a name split between two pieces is joined once, so a long line takes
    # linear time
    tail: list[str] = []
    for piece in pieces:
        names = piece.split(",")
        if len(names) > 1:
            names[0] = "".join([*tail, names[0]])
            tail = [names.pop()]
            yield map(_ROLE_NAME.get, names, names)
        else:
            tail.append(piece)
    last = "".join(tail)
    yield map(_ROLE_NAME.get, [last], [last])
