"""Point set construction, validation, and serialization."""

import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jllab.certify import audit_embedding, distortion, witness_search
from jllab.cli import main
from jllab.concentration import map_samples, norm_deviation_sample
from jllab.embeddings import LinearMap, identity_map, read_map, write_map
from jllab.pointset import (
    MAX_TOTAL_COORDS,
    PointSet,
    SizeError,
    _read_rows,
    gaussian_vectors,
    hard_instance,
    read_pointset,
    simplex,
    standard_basis,
    write_pointset,
)

# frozen from the pinned SFC64/ziggurat streams; a change here means the
# determinism contract broke
GOLDEN_GAUSS_3_2_42 = [
    [0.2665700932608333, -0.22195155617936815, 0.00883067691216302],
    [0.25451113398581415, -0.5220925500954412, 0.7476308153899625],
]


def test_standard_basis():
    ps = standard_basis(3)
    assert ps.dim == 3 and len(ps) == 3
    assert np.array_equal(ps.points, np.eye(3))
    assert ps.roles == ("basis",) * 3


def test_simplex_origin_first():
    ps = simplex(3)
    assert len(ps) == 4
    assert np.array_equal(ps.points[0], np.zeros(3))
    assert np.array_equal(ps.points[1:], np.eye(3))
    assert ps.roles == ("origin",) + ("basis",) * 3


def test_gaussian_vectors_golden():
    ps = gaussian_vectors(3, 2, 42)
    assert ps.roles == ("gaussian", "gaussian")
    assert ps.points.tolist() == GOLDEN_GAUSS_3_2_42


def test_gaussian_vectors_deterministic_and_seed_sensitive():
    a = gaussian_vectors(6, 5, 11)
    b = gaussian_vectors(6, 5, 11)
    c = gaussian_vectors(6, 5, 12)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_gaussian_vectors_per_point_streams():
    # point j depends only on (seed, j): extending the set keeps the prefix
    small = gaussian_vectors(4, 3, 5)
    large = gaussian_vectors(4, 9, 5)
    assert np.array_equal(small.points, large.points[:3])


def test_hard_instance_layout():
    ps = hard_instance(4, 6, 3)
    assert len(ps) == 10
    assert np.array_equal(ps.points[:4], np.eye(4))
    assert ps.roles[:4] == ("basis",) * 4
    assert ps.roles[4:] == ("gaussian",) * 6
    assert np.array_equal(ps.points[4:], gaussian_vectors(4, 6, 3).points)


def test_size_guard():
    with pytest.raises(SizeError):
        gaussian_vectors(10**4, 10**4, 0)
    with pytest.raises(SizeError):
        hard_instance(10**4, 10**3, 0)
    assert MAX_TOTAL_COORDS == 10**7


# the arrays the size rule bounds beside the inputs, each built from two of
# them; make(a, b) builds the inputs and returns the call that allocates the
# a x b array.  An image is N x m, and a chunk is min(1024, trials) x n or m
def _image_case(mode):
    def make(N, m):
        A = LinearMap(np.ones((m, 1)))
        X = PointSet(1, np.arange(1.0, N + 1.0)[:, None], ("gaussian",) * N)
        return (lambda: witness_search(A, X)) if mode == "witness" else (lambda: distortion(A, X, mode))
    return make


# (exact, over): exactly 10^7 values, and the next shape over.  10^7 + 1 =
# 11 x 909091 is one value more; a chunk has at least 1000 rows, and no row
# count from 1000 to 1024 divides 10^7 + 1, so its next shape over has one
# column more
IMAGE = ((2, 5 * 10**6), (11, 909091))
CHUNK = ((1000, 10**4), (1000, 10**4 + 1))
SIZE_TABLE = {
    "norm-image": (_image_case("norm"), "image", IMAGE),
    "witness-image": (_image_case("witness"), "image", IMAGE),
    "pairwise-image": (_image_case("pairwise"), "image", IMAGE),
    "norm-chunk": (lambda trials, n: lambda: norm_deviation_sample(n, trials, 1), "chunk", CHUNK),
    "map-chunk-image": (lambda trials, m: lambda: map_samples(LinearMap(np.ones((m, 1))), trials, 1),
                        "chunk image", CHUNK),
}


@pytest.mark.parametrize("make, array, shapes", SIZE_TABLE.values(), ids=SIZE_TABLE.keys())
def test_size_rule_bounds_derived_arrays(make, array, shapes):
    exact, over = shapes
    make(*exact)()
    call = make(*over)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError) as info:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"needs a {over[0]}x{over[1]} {array}, over the 10000000 coordinate limit" in str(info.value)
    assert peak < 16 << 20


# the library reproducers of arrays nothing bounded before the size rule:
# each asked for gigabytes (a 22.4 GiB image, a 782 MiB pairwise tile, a
# 74.5 GiB chunk) and raised MemoryError under a 3 GiB address space
SIZE_SETUP = """
import numpy as np
from jllab import *
from jllab.certify import _distortion_json
A = LinearMap(np.ones((100000, 100)))
"""
SIZE_REPRODUCERS = {
    "norm-image": ("distortion(A, gaussian_vectors(100, 30000, 1))", "30000x100000 image"),
    "witness-image": ("witness_search(A, gaussian_vectors(100, 30000, 1))", "30000x100000 image"),
    "pairwise-image": ("distortion(A, gaussian_vectors(100, 3000, 1), 'pairwise')", "3000x100000 image"),
    "max-only-image": ("_distortion_json(A, gaussian_vectors(100, 3000, 1), 'pairwise')", "3000x100000 image"),
    "norm-chunk": ("norm_tail_estimate(10**7, 1, 1, 1000, 1)", "1000x10000000 chunk"),
    "map-chunk-image": ("map_samples(LinearMap(np.ones((10**7, 1))), 1000, 1)", "1000x10000000 chunk image"),
}


@pytest.mark.parametrize("call, array", SIZE_REPRODUCERS.values(), ids=SIZE_REPRODUCERS.keys())
def test_size_rule_refuses_reproducers_under_a_memory_cap(run_capped, call, array):
    done = run_capped(SIZE_SETUP + f"try:\n    {call}\nexcept SizeError as exc:\n    print(exc)\n")
    assert done.returncode == 0, done.stderr
    assert f"needs a {array}, over the 10000000 coordinate limit" in done.stdout


# input matrices the value rule bounds before it copies them: read-only
# views that were copied (1.18 GiB of points) or given n x n temporaries
# (1.07 GiB each) before the size rule ran, the form although its own
# 1024 x 12000 chunk is over the rule too.  Nothing may be allocated
INPUT_REPRODUCERS = {
    "point-set": ("PointSet(3162, np.broadcast_to(0.0, (50000, 3162)), ('gaussian',) * 50000)",
                  "50000x3162 point array"),
    "symmetric-form": ("symmetric_form_tail_estimate(np.broadcast_to(1.0, (12000, 12000)), 1, 1, 1000, 1)",
                       "12000x12000 matrix"),
}


@pytest.mark.parametrize("call, array", INPUT_REPRODUCERS.values(), ids=INPUT_REPRODUCERS.keys())
def test_size_rule_refuses_input_matrices_before_copying_them(run_capped, call, array):
    code = f"import tracemalloc\nimport numpy as np\nfrom jllab import *\ntracemalloc.start()\ntry:\n    {call}\n"
    code += "except SizeError as exc:\n    print(exc)\nprint(tracemalloc.get_traced_memory()[1])\n"
    done = run_capped(code)
    assert done.returncode == 0, done.stderr
    refusal, peak = done.stdout.splitlines()
    assert f"needs a {array}, over the 10000000 coordinate limit" in refusal
    assert int(peak) < 16 << 20


@pytest.mark.parametrize("build", ["point-set", "map"])
def test_value_rule_holds_the_copy_and_no_mask(build):
    # finiteness is read off the copy's extremes; an N x n mask (0.95 MiB
    # here) is built only to name a bad entry
    if build == "point-set":
        values, roles = np.zeros((10**6, 1)), ("gaussian",) * 10**6
        make = lambda: PointSet(1, values, roles)
    else:
        values = np.ones((1000, 1000))
        make = lambda: LinearMap(values)
    tracemalloc.start()
    try:
        make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes + (1 << 19)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_value_rule_names_the_first_non_finite_entry(bad):
    M = np.ones((4, 3))
    M[2, 1], M[3, 0] = bad, np.nan
    for make in (LinearMap, lambda v: PointSet(3, v, ("gaussian",) * 4)):
        with pytest.raises(ValueError, match=r"^non-finite entry at \(2, 1\)$"):
            make(M)


def test_size_rule_cli_exits_one_under_a_memory_cap(run_capped, tmp_path):
    # the map has exactly 10^7 entries; its 1000 x 10^7 chunk image (74.5 GiB)
    # ended in an uncaught _ArrayMemoryError before the size rule
    out = tmp_path / "tails.csv"
    done = run_capped(["tails", "--n", "1", "--m", "10000000", "--t-grid", "1", "--trials", "1000",
                       "--seed", "1", "--out", str(out)])
    assert done.returncode == 1
    assert done.stderr.startswith("jllab: error: ") and done.stderr.count("\n") == 1
    assert "1000x10000000 chunk image, over the 10000000 coordinate limit" in done.stderr
    assert done.stdout == "" and not out.exists()


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        PointSet(2, np.zeros((2, 3)), ("origin", "origin"))
    with pytest.raises(ValueError):
        PointSet(2, np.zeros((2, 2)), ("origin",))
    with pytest.raises(ValueError):
        PointSet(2, np.zeros((1, 2)), ("nonsense",))
    with pytest.raises(ValueError):
        PointSet(2, np.array([[np.nan, 0.0]]), ("origin",))
    with pytest.raises(ValueError):
        standard_basis(0)
    with pytest.raises(ValueError):
        gaussian_vectors(3, -1, 0)


def test_point_set_is_a_read_only_copy():
    # a basis point changed through the caller's array would fail the audit
    a = np.eye(3)
    X = PointSet(3, a, ("basis",) * 3)
    a[0, 0] = 2.0
    assert np.array_equal(X.points, np.eye(3))
    audit_embedding(identity_map(3), X, 0.5)
    with pytest.raises(ValueError):
        X.points[1, 1] = 7.0
    assert np.array_equal(X.points, np.eye(3))


def test_basis_tag_requires_exact_unit_vector():
    with pytest.raises(ValueError, match="basis"):
        PointSet(2, np.array([[1.0, 1e-17]]), ("basis",))
    with pytest.raises(ValueError, match="basis"):
        PointSet(2, np.array([[2.0, 0.0]]), ("basis",))
    PointSet(2, np.array([[0.0, 1.0]]), ("basis",))


def test_text_roundtrip_is_exact(tmp_path):
    ps = hard_instance(5, 7, 123)
    path = tmp_path / "set.jlps"
    write_pointset(path, ps)
    back = read_pointset(path)
    assert back.dim == ps.dim
    assert back.roles == ps.roles
    assert np.array_equal(back.points, ps.points)
    first = path.read_bytes()
    assert first.startswith(b"jlps v1 n=5 N=12\n")
    write_pointset(path, back)
    assert path.read_bytes() == first


def test_text_writers_format_each_value_as_17g(tmp_path):
    # both text writers write every value as format(v, ".17g")
    values = [-0.0, 5e-324, 1e308, 0.1, 3.0, -2.0, 1e16, 2.0**53, -1.0 / 3.0]
    M = np.array([values, values[::-1]])
    expected = [",".join(format(v, ".17g") for v in row) for row in M]
    path = tmp_path / "set.jlps"
    write_pointset(path, PointSet(len(values), M, ("gaussian",) * 2))
    text = "\n".join([f"jlps v1 n={len(values)} N=2", *expected, "roles=gaussian,gaussian"])
    assert path.read_bytes() == (text + "\n").encode("ascii")
    path = tmp_path / "map.jlmap"
    write_map(path, LinearMap(M))
    text = "\n".join([f"jlmap v1 m=2 n={len(values)}", *expected])
    assert path.read_bytes() == (text + "\n").encode("ascii")


def test_binary_roundtrip_is_exact(tmp_path):
    ps = hard_instance(5, 7, 123)
    path = tmp_path / "set.bin"
    write_pointset(path, ps, binary=True)
    assert path.read_bytes().startswith(b"JLPS")
    back = read_pointset(path)
    assert back.roles == ps.roles
    assert np.array_equal(back.points, ps.points)


def _whole_file(header: str, M: np.ndarray, footer: list[str]) -> bytes:
    # the text formats as one string, the writers' route before they wrote
    # by blocks
    rows = [",".join("%.17g" % v for v in row) for row in M.tolist()]
    return ("\n".join([header, *rows, *footer]) + "\n").encode("ascii")


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_writers_by_blocks_give_the_whole_file_bytes(tmp_path, n, offset):
    # N = 0, 1 and one row either side of a block (2^16 values) in every
    # writer; the roles go by blocks of 2^16 too
    block = (1 << 16) // n
    count = 1 if offset is None else block + offset
    for N in (0, count):
        P = gaussian_vectors(n, N, 3).points.copy()
        P[1::2] = 0.0
        roles = tuple("origin" if i % 2 else "gaussian" for i in range(N))
        ps = PointSet(n, P, roles)
        path = tmp_path / "set"
        write_pointset(path, ps)
        text = _whole_file(f"jlps v1 n={n} N={N}", P, ["roles=" + ",".join(roles)])
        assert path.read_bytes() == text
        write_pointset(path, ps, binary=True)
        codes = bytes({"gaussian": 1, "origin": 2}[r] for r in roles)
        assert path.read_bytes() == b"JLPS" + struct.pack("<IQQ", 1, n, N) + P.astype("<f8").tobytes() + codes
        if N:
            write_map(path, LinearMap(P))
            assert path.read_bytes() == _whole_file(f"jlmap v1 m={N} n={n}", P, [])


def test_text_writer_holds_one_block(run_capped, tmp_path):
    # writing 2e6 values (a 48 MB text set) raises the peak by less than
    # 8 MiB; the whole-file route raised it by over 100 MiB.  The points are
    # one row repeated, so that `PointSet` copies them without a second
    # array, and every value still takes 17 digits
    done = run_capped(
        "import resource\n"
        "import numpy as np\n"
        "from jllab import PointSet, gaussian_vectors, write_pointset\n"
        "row = gaussian_vectors(20, 1, 1).points[0]\n"
        "ps = PointSet(20, np.broadcast_to(row, (100000, 20)), ('gaussian',) * 100000)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"write_pointset({str(tmp_path / 'big.jlps')!r}, ps)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "big.jlps").stat().st_size > 40_000_000
    assert int(done.stdout) < 8 << 10  # KiB


def test_text_and_binary_agree(tmp_path):
    ps = simplex(4)
    t, b = tmp_path / "a.jlps", tmp_path / "a.bin"
    write_pointset(t, ps)
    write_pointset(b, ps, binary=True)
    assert np.array_equal(read_pointset(t).points, read_pointset(b).points)
    assert read_pointset(t).roles == read_pointset(b).roles


def test_parse_errors_carry_line_numbers(tmp_path, capsys):
    path = tmp_path / "bad.jlps"
    path.write_text("jlps v1 n=2 N=2\n1,0\n1\nroles=basis,basis\n")
    with pytest.raises(ValueError, match="line 3"):
        read_pointset(path)
    path.write_text("not a header\n")
    with pytest.raises(ValueError, match="line 1"):
        read_pointset(path)
    path.write_text("jlps v1 n=2 N=2\n1,0\n0,1\nroles=basis\n")
    with pytest.raises(ValueError, match="roles"):
        read_pointset(path)
    # a header sized at 7.28 TiB is refused from the header itself, before
    # any row is read
    path.write_text("jlps v1 n=1000000000000 N=1\n1,2\nroles=gaussian\n")
    refusal = "the header needs a 1x1000000000000 point array, over the 10000000 coordinate limit"
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match=refusal):
            read_pointset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    out = tmp_path / "pca.jlmap"
    assert main(["embed", "--method", "pca", "--set", str(path), "--m", "1", "--out", str(out)]) == 1
    assert refusal in capsys.readouterr().err
    assert not out.exists()


def test_text_header_over_the_size_rule_is_refused_before_parsing(tmp_path):
    # 1001 rows of 10^4 zeros (20 MB) under a header whose n N is one row
    # over MAX_TOTAL_COORDS; the whole file was parsed (a 126 MiB tracemalloc
    # peak) before PointSet refused it.  Now the read holds the file's bytes
    # and no more
    n, count = 10_000, 1001
    path = tmp_path / "big.jlps"
    row = ",".join(["0"] * n) + "\n"
    path.write_text(f"jlps v1 n={n} N={count}\n" + row * count + "roles=" + ",".join(["gaussian"] * count) + "\n")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match=f"the header needs a {count}x{n} point array"):
            read_pointset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 20 * 10**6
    assert peak < size + 2**20


def test_binary_header_over_the_size_rule_is_refused_before_the_copy(tmp_path, capsys):
    # the binary form of the set above (80.1 MB): its body was copied (a
    # 152.8 MiB tracemalloc peak) before PointSet refused it, with a message
    # that named no file.  Now the read holds the file's bytes and no more
    n, count = 10_000, 1001
    path = tmp_path / "big.jlps"
    with path.open("wb") as f:
        f.write(b"JLPS" + np.array([1], "<u4").tobytes() + np.array([n, count], "<u8").tobytes())
        for _ in range(count):
            f.write(bytes(8 * n))
        f.write(bytes(count))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(SizeError) as refused:
            read_pointset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value).startswith(f"{path}: the header needs a {count}x{n} point array")
    assert size > 80 * 10**6
    assert peak < size + 2**20
    mp = tmp_path / "a.jlmap"
    write_map(mp, LinearMap(np.eye(1)))
    assert main(["certify", "--map", str(mp), "--set", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"jllab: error: {path}: the header needs") and err.count("\n") == 1


def test_truncated_binary_rejected(tmp_path):
    ps = standard_basis(3)
    path = tmp_path / "trunc.bin"
    write_pointset(path, ps, binary=True)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(ValueError, match="bytes"):
        read_pointset(path)


_ROWS = st.integers(1, 4).flatmap(
    lambda w: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=w, max_size=w),
        min_size=1,
        max_size=8,
    )
)


@settings(deadline=None)
@given(_ROWS, st.sampled_from(["%.17g", "%r"]))
@example([[5e-324, -5e-324, 0.0, -0.0], [1.7976931348623157e308, -2.2250738585072014e-308, 1e-310, 0.1]], "%.17g")
@example([[5e-324, -5e-324, 0.0, -0.0], [1.7976931348623157e308, -2.2250738585072014e-308, 1e-310, 0.1]], "%r")
def test_bulk_parse_matches_float_per_value(rows, fmt):
    # the one bulk conversion gives the bits float() gives, value by value
    lines = ["header"] + [",".join(fmt % v for v in row) for row in rows]
    got = _read_rows(lines, 1, len(rows), len(rows[0]), Path("p.jlps"))
    want = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_reader_takes_what_float_takes(tmp_path):
    # the bulk conversion refuses "1_0" and the per-row loop takes it
    path = tmp_path / "us.jlps"
    path.write_text("jlps v1 n=2 N=2\n1_0,2\n3,4\nroles=gaussian,gaussian\n")
    assert read_pointset(path).points.tolist() == [[10.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize(
    "text, line",
    [
        ("jlps v1 n=1 N=3\n1\n\n2\nroles=gaussian,gaussian,gaussian\n", 3),
        ("jlps v1 n=1 N=2\n\n\nroles=gaussian,gaussian\n", 2),
        ("jlps v1 n=2 N=3\n1,2\n3,x\n5,6\nroles=gaussian,gaussian,gaussian\n", 3),
        ("jlps v1 n=2 N=2\n1,2\n\x1f3,4\nroles=gaussian,gaussian\n", 3),
        ("jlmap v1 m=3 n=1\n1\n\n2\n", 3),
    ],
    ids=["blank-row", "all-blank", "malformed", "unit-separator", "map-blank-row"],
)
def test_malformed_rows_keep_their_messages(tmp_path, text, line):
    # blank rows (which the bulk conversion skips), a bad value and a "\x1f"
    # (which the bulk conversion strips, and float() refuses) all go to the
    # per-row loop, and no numpy warning escapes
    path = tmp_path / ("bad.jlmap" if text.startswith("jlmap") else "bad.jlps")
    path.write_text(text)
    reader = read_map if text.startswith("jlmap") else read_pointset
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            reader(path)
    assert str(info.value) == f"{path}: line {line}: malformed value"


@pytest.mark.parametrize(
    "blob, line",
    [
        (b"jlps v1 n=2 N=2\r\n1,0\r\n0,\xc3\nroles=basis,basis\n", 3),
        (b"\xc3jlps v1 n=2 N=1\n1,0\nroles=basis\n", 1),
        (b"jlmap v1 m=1 n=2\n1,\xc3\n", 2),
        (b"jlmap v1 m=1 n=2\n1,0\n\xc3", 3),
    ],
    ids=["set-crlf", "set-header", "map", "map-last-line"],
)
def test_non_ascii_byte_names_the_line(tmp_path, capsys, blob, line):
    is_map = blob.startswith(b"jlmap")
    path = tmp_path / ("bad.jlmap" if is_map else "bad.jlps")
    path.write_bytes(blob)
    with pytest.raises(ValueError) as info:
        (read_map if is_map else read_pointset)(path)
    assert str(info.value) == f"{path}: line {line}: non-ASCII byte"
    argv = ["certify", "--map", str(path)] if is_map else ["embed", "--method", "pca", "--set", str(path), "--m", "1"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"jllab: error: {path}: line {line}: non-ASCII byte\n"
