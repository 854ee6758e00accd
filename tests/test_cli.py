"""End-to-end command line checks: exit codes, file outputs, determinism."""

import json
import tracemalloc

import numpy as np
import pytest

import jllab.cli
import jllab.concentration
from jllab.cli import main
from jllab.concentration import (
    chaos_tail_estimate,
    joint_event_rate,
    norm_tail_estimate,
    norm_tail_oracle,
)
from jllab.embeddings import read_map, write_map, gaussian_map
from jllab.pointset import PointSet, read_pointset, write_pointset
from jllab.seeds import Seed


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_command_is_usage_error(capsys):
    code, _, err = run([], capsys)
    assert code == 1
    assert "usage" in err.lower() or "command" in err.lower()


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(["gen", "--n", "4", "--frobnicate", "--out", "x"], capsys)
    assert code == 1


def test_gen_certify_audit_happy_path(tmp_path, capsys):
    ps = tmp_path / "basis.jlps"
    mp = tmp_path / "id.jlmap"
    code, _, _ = run(["gen", "--kind", "basis", "--n", "5", "--out", str(ps)], capsys)
    assert code == 0
    code, _, _ = run(
        ["embed", "--method", "identity", "--n", "5", "--out", str(mp)], capsys
    )
    assert code == 0
    code, out, _ = run(
        ["audit", "--map", str(mp), "--set", str(ps), "--eps", "0.1"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True


def test_audit_failure_exits_two(tmp_path, capsys):
    ps = tmp_path / "basis.jlps"
    mp = tmp_path / "g.jlmap"
    run(["gen", "--kind", "basis", "--n", "16", "--out", str(ps)], capsys)
    run(
        ["embed", "--method", "gaussian", "--n", "16", "--m", "2", "--seed", "1",
         "--out", str(mp)],
        capsys,
    )
    code, out, _ = run(
        ["audit", "--map", str(mp), "--set", str(ps), "--eps", "0.05"], capsys
    )
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False


def test_audit_missing_basis_exits_two(tmp_path, capsys):
    ps = tmp_path / "g.jlps"
    mp = tmp_path / "id.jlmap"
    run(["gen", "--kind", "gaussian", "--n", "4", "--k", "3", "--seed", "0",
         "--out", str(ps)], capsys)
    run(["embed", "--method", "identity", "--n", "4", "--out", str(mp)], capsys)
    code, _, err = run(
        ["audit", "--map", str(mp), "--set", str(ps), "--eps", "0.1"], capsys
    )
    assert code == 2
    assert "e_1" in err


def test_missing_file_exits_one(tmp_path, capsys):
    code, _, err = run(
        ["certify", "--map", str(tmp_path / "absent.jlmap")], capsys
    )
    assert code == 1
    assert err.strip()


def test_malformed_pointset_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.jlps"
    bad.write_text("jlps v1 n=2 N=1\n1.0,oops\nroles=gaussian\n")
    mp = tmp_path / "id.jlmap"
    run(["embed", "--method", "identity", "--n", "2", "--out", str(mp)], capsys)
    code, _, err = run(
        ["audit", "--map", str(mp), "--set", str(bad), "--eps", "0.1"], capsys
    )
    assert code == 1
    assert "line" in err


def test_gen_hard_layout(tmp_path, capsys):
    ps = tmp_path / "hard.jlps"
    code, _, _ = run(
        ["gen", "--kind", "hard", "--n", "4", "--k", "3", "--seed", "9",
         "--out", str(ps)],
        capsys,
    )
    assert code == 0
    X = read_pointset(str(ps))
    assert X.points.shape == (7, 4)
    assert np.array_equal(X.points[:4], np.eye(4))


def test_gen_binary_roundtrip(tmp_path, capsys):
    a = tmp_path / "a.jlps"
    b = tmp_path / "b.jlps"
    run(["gen", "--kind", "gaussian", "--n", "3", "--k", "5", "--seed", "2",
         "--out", str(a)], capsys)
    run(["gen", "--kind", "gaussian", "--n", "3", "--k", "5", "--seed", "2",
         "--binary", "--out", str(b)], capsys)
    assert np.array_equal(read_pointset(str(a)).points, read_pointset(str(b)).points)


def test_certify_json_fields(tmp_path, capsys):
    mp = tmp_path / "g.jlmap"
    run(["embed", "--method", "gaussian", "--n", "6", "--m", "3", "--seed", "4",
         "--out", str(mp)], capsys)
    code, out, _ = run(["certify", "--map", str(mp)], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["m"] == 3 and blob["n"] == 6
    for key in ("trace", "frob_sq", "eigenvalues", "rank_lb"):
        assert key in blob["certificate"]
    eigs = blob["certificate"]["eigenvalues"]
    assert eigs == sorted(eigs, reverse=True)


def test_certify_with_distortion(tmp_path, capsys):
    ps = tmp_path / "b.jlps"
    mp = tmp_path / "id.jlmap"
    run(["gen", "--kind", "basis", "--n", "4", "--out", str(ps)], capsys)
    run(["embed", "--method", "identity", "--n", "4", "--out", str(mp)], capsys)
    code, out, _ = run(
        ["certify", "--map", str(mp), "--set", str(ps), "--mode", "norm"], capsys
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["distortion"]["eps_max"] == 0.0


def test_certify_over_pair_budget_exits_one(tmp_path, capsys):
    # 14143 points have 100005153 pairs, over the 10**8 pair budget; the
    # refusal comes before the 800 MB of ratios
    ps = tmp_path / "line.jlps"
    mp = tmp_path / "id.jlmap"
    out = tmp_path / "cert.json"
    write_pointset(ps, PointSet(1, np.arange(14143.0)[:, None], ("gaussian",) * 14143))
    run(["embed", "--method", "identity", "--n", "1", "--out", str(mp)], capsys)
    tracemalloc.start()
    try:
        code, _, err = run(["certify", "--map", str(mp), "--set", str(ps), "--mode", "pairwise",
                            "--out", str(out)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "100005153 pairs, over the 100000000 pair limit" in err
    assert not out.exists()
    assert peak < 16 << 20


def test_certify_gram_over_size_limit_exits_one(tmp_path, capsys):
    # a 400 KB map of shape 1 x 100000 would need a 74.5 GiB Gram matrix;
    # the certificate refuses it before the product
    mp = tmp_path / "wide.jlmap"
    out = tmp_path / "cert.json"
    mp.write_text("jlmap v1 m=1 n=100000\n" + ",".join(["0.5"] * 100000) + "\n")
    tracemalloc.start()
    try:
        code, _, err = run(["certify", "--map", str(mp), "--out", str(out)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "100000x100000 Gram matrix, over the 10000000 coordinate limit" in err
    assert not out.exists()
    assert peak < 16 << 20


def test_embed_optimize_writes_readable_map(tmp_path, capsys):
    ps = tmp_path / "h.jlps"
    mp = tmp_path / "opt.jlmap"
    run(["gen", "--kind", "hard", "--n", "6", "--k", "4", "--seed", "3",
         "--out", str(ps)], capsys)
    code, _, _ = run(
        ["embed", "--method", "optimize", "--set", str(ps), "--m", "3",
         "--max-iters", "50", "--seed", "0", "--out", str(mp)],
        capsys,
    )
    assert code == 0
    A = read_map(str(mp))
    assert A.m == 3 and A.n == 6


def test_embed_optimize_prints_stop_reason(tmp_path, capsys):
    ps = tmp_path / "h.jlps"
    run(["gen", "--kind", "hard", "--n", "6", "--k", "4", "--seed", "3",
         "--out", str(ps)], capsys)
    code, out, _ = run(
        ["embed", "--method", "optimize", "--set", str(ps), "--m", "3",
         "--max-iters", "5", "--seed", "0", "--out", str(tmp_path / "opt.jlmap")],
        capsys,
    )
    assert code == 0
    status = json.loads(out)
    assert status["stop_reason"] == "max_iters" and not status["converged"]
    assert status["iterations"] == 5
    assert status["accepted"] + status["backtracks"] >= 5


def test_tails_csv_shape(tmp_path, capsys):
    out_csv = tmp_path / "tails.csv"
    code, _, _ = run(
        ["tails", "--n", "8", "--t-grid", "1,2", "--delta-grid", "0.05",
         "--trials", "1000", "--seed", "6", "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("# config ")
    config = json.loads(lines[0][len("# config "):])
    assert config["n"] == 8
    header = lines[1].split(",")
    assert header[0] == "op"
    # norm and chaos rows for each t, one joint row per delta
    kinds = [ln.split(",")[0] for ln in lines[2:]]
    assert kinds.count("norm") == 2
    assert kinds.count("chaos") == 2
    assert kinds.count("joint") == 1
    # oracle column is populated for norm rows and estimates sit near it
    cols = {name: i for i, name in enumerate(header)}
    for ln in lines[2:]:
        parts = ln.split(",")
        if parts[0] == "norm":
            p_hat = float(parts[cols["p_hat"]])
            oracle = float(parts[cols["oracle"]])
            se = float(parts[cols["stderr"]])
            assert abs(p_hat - oracle) <= 6.0 * max(se, 1e-3)


def test_tails_empty_grid_header_only(tmp_path, capsys):
    out_csv = tmp_path / "tails.csv"
    code, _, _ = run(
        ["tails", "--n", "4", "--t-grid", "", "--delta-grid", "",
         "--trials", "1000", "--seed", "0", "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 2  # config + header, no data rows


def test_tails_rerun_byte_identical(tmp_path, capsys):
    # the config line echoes every argument including the output path, so
    # identical reruns target the same file
    out_csv = tmp_path / "a.csv"
    argv = ["tails", "--n", "6", "--t-grid", "1", "--delta-grid", "0.05",
            "--trials", "1000", "--seed", "3", "--out", str(out_csv)]
    run(argv, capsys)
    first = out_csv.read_bytes()
    run(argv, capsys)
    assert out_csv.read_bytes() == first


TAILS_GRID_ARGV = ["tails", "--n", "8", "--t-grid", "1,2,3", "--delta-grid", "0.05,0.1",
                   "--trials", "2000", "--seed", "4"]


def test_tails_grid_rows_match_single_threshold_estimators(tmp_path, capsys):
    # one sample per seed, counted at every threshold, gives the rows that
    # the public estimators give one threshold at a time
    out_csv = tmp_path / "tails.csv"
    code, _, _ = run(TAILS_GRID_ARGV + ["--out", str(out_csv)], capsys)
    assert code == 0
    n, m, trials, c, c1, c2 = 8, 4, 2000, 1.0, 0.5, 2.0
    seed = Seed(4)
    A = gaussian_map(m, n, seed.child(0))
    expected = []
    for t in (1.0, 2.0, 3.0):
        est = norm_tail_estimate(n, t, c, trials, seed.child(1))
        expected.append(("norm", n, None, t, c, est, norm_tail_oracle(n, t, c)))
    for t in (1.0, 2.0, 3.0):
        est = chaos_tail_estimate(A, t, c, trials, seed.child(2))
        expected.append(("chaos", n, m, t, c, est, None))
    for d in (0.05, 0.1):
        est = joint_event_rate(A, d, c1, c2, trials, seed.child(3))
        expected.append(("joint", n, m, d, c1, est, None))

    def cell(v):
        if v is None:
            return ""
        return format(v, ".17g") if isinstance(v, float) else str(v)

    rows = [
        ",".join(cell(v) for v in (op, nn, mm, x, cc, e.threshold, e.trials, e.hits,
                                   e.p_hat, e.stderr, oracle))
        for op, nn, mm, x, cc, e, oracle in expected
    ]
    assert out_csv.read_text().splitlines()[2:] == rows


def test_tails_draws_each_sample_once(tmp_path, capsys, monkeypatch):
    calls = {"norm_deviation_sample": 0, "map_samples": 0, "spectral_certificate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("norm_deviation_sample", "map_samples", "spectral_certificate"):
        monkeypatch.setattr(jllab.concentration, name, counted(name, getattr(jllab.concentration, name)))
    # cmd_tails reaches the certificate through jllab.cli's own binding; count it too
    monkeypatch.setattr(jllab.cli, "spectral_certificate", jllab.concentration.spectral_certificate)
    code, _, _ = run(TAILS_GRID_ARGV + ["--out", str(tmp_path / "tails.csv")], capsys)
    assert code == 0
    assert calls == {"norm_deviation_sample": 1, "map_samples": 2, "spectral_certificate": 1}


def test_tails_over_size_limit_exits_one(tmp_path, capsys):
    # a 50000 x 100000 map would need 37 GiB; the guard refuses it first
    out_csv = tmp_path / "tails.csv"
    code, _, err = run(
        ["tails", "--n", "100000", "--t-grid", "1", "--trials", "1000", "--seed", "7",
         "--out", str(out_csv)],
        capsys,
    )
    assert code == 1
    assert "over the 10000000 coordinate limit" in err
    assert not out_csv.exists()
    # the n x n Gram matrix counts too, even for a one-row map
    code, _, err = run(
        ["tails", "--n", "4000", "--m", "1", "--delta-grid", "0.05", "--trials", "1000",
         "--seed", "7", "--out", str(out_csv)],
        capsys,
    )
    assert code == 1
    assert "4000x4000 Gram matrix" in err


def test_frontier_csv(tmp_path, capsys):
    out_csv = tmp_path / "front.csv"
    code, out, _ = run(
        ["frontier", "--n", "8", "--k", "4", "--m-grid", "2,4,8",
         "--maps-per-m", "2", "--max-iters", "40", "--seed", "5",
         "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    header = lines[1].split(",")
    cols = {name: i for i, name in enumerate(header)}
    assert "seconds" not in cols
    rows = [ln.split(",") for ln in lines[2:]]
    assert [int(r[cols["m"]]) for r in rows] == [2, 4, 8]
    # optimized distortion never increases with m (warm starts guarantee it)
    eps_opt = [float(r[cols["eps_opt"]]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(eps_opt, eps_opt[1:]))
    # random never beats optimized
    eps_rand = [float(r[cols["eps_random_best"]]) for r in rows]
    assert all(o <= r + 1e-12 for o, r in zip(eps_opt, eps_rand))
    # stdout's m(n, eps): the first m whose column is <= --eps (default 0.25)
    ms = [int(r[cols["m"]]) for r in rows]
    status = json.loads(out)
    for col, eps in (("eps_random_best", eps_rand), ("eps_opt", eps_opt)):
        assert status[f"first_m_{col}"] == next((m for m, e in zip(ms, eps) if e <= 0.25), None)
    assert status["first_m_eps_opt"] is not None


def test_frontier_timings_column_opt_in(tmp_path, capsys):
    out_csv = tmp_path / "front.csv"
    run(
        ["frontier", "--n", "4", "--k", "3", "--m-grid", "2", "--maps-per-m", "1",
         "--max-iters", "10", "--seed", "0", "--timings", "--out", str(out_csv)],
        capsys,
    )
    header = out_csv.read_text().splitlines()[1].split(",")
    assert header[-1] == "seconds"


def test_net_report(capsys):
    code, out, _ = run(["net", "--n", "2", "--alpha", "0.01"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["params"]["index_range"] == 400
    assert blob["cardinality"]["values_per_entry"] == 801


def test_net_exponent_mode(capsys):
    code, out, _ = run(["net", "--n", "100", "--exponent", "1.0"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["params"]["alpha"] == pytest.approx(0.01, rel=1e-12)


def test_net_quantize_mode(tmp_path, capsys):
    src = tmp_path / "g.jlmap"
    dst = tmp_path / "q.jlmap"
    write_map(str(src), gaussian_map(2, 3, 8))
    code, _, _ = run(
        ["net", "--alpha", "0.25", "--quantize", str(src), "--out", str(dst)],
        capsys,
    )
    assert code == 0
    Q = read_map(str(dst))
    step = 0.5 / 30.0
    idx = Q.entries / step
    assert np.allclose(idx, np.round(idx), atol=1e-9)


def test_net_usage_conflicts(capsys):
    code, _, _ = run(["net"], capsys)
    assert code == 1
    code, _, _ = run(["net", "--n", "3", "--alpha", "0.1", "--exponent", "2"], capsys)
    assert code == 1
