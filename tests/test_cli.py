"""End-to-end command line checks: exit codes, file outputs, determinism."""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import jllab.certify
import jllab.cli
import jllab.concentration
from jllab.certify import distortion
from jllab.cli import main
from jllab.concentration import (
    chaos_tail_estimate,
    joint_event_rate,
    norm_tail_estimate,
    norm_tail_oracle,
)
from jllab.embeddings import LinearMap, read_map, write_map, gaussian_map, identity_map, pca_map
from jllab.pointset import PointSet, SizeError, gaussian_vectors, read_pointset, write_pointset
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


@pytest.mark.parametrize(
    "kind, extra, message",
    [
        ("basis", ["--gamma", "7"], "--gamma does not apply to kind 'basis'"),
        ("simplex", ["--k", "5"], "--k does not apply to kind 'simplex'"),
        ("hard", ["--k", "2", "--gamma", "9"], "--gamma does not apply with --k"),
    ],
)
def test_gen_refuses_count_flags_for_fixed_sets(tmp_path, capsys, kind, extra, message):
    out = tmp_path / "set.jlps"
    code, _, err = run(["gen", "--kind", kind, "--n", "3", "--out", str(out)] + extra, capsys)
    assert code == 1
    assert message in err
    assert not out.exists()


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
    # 14143 points have 100005153 pairs, over the 10**8 pair budget.  The
    # CLI's max-only route stores no ratio; its budget is time, 1-2 s at
    # the limit on 2 cores and about 10 s when every pair ties.  The
    # refusal comes before anything the size of the set's pairs
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


@pytest.mark.parametrize(
    "N, copies, max_only, ratios",
    [(447, 0, False, True), (460, 0, True, False), (449, 44, False, True)],
    ids=["at-cap", "over-cap", "duplicates-under-cap"],
)
def test_certify_pairwise_json_is_the_library_route(tmp_path, capsys, monkeypatch, N, copies, max_only, ratios):
    # 447 points have 99681 pairs, at most the 100000 ratios the JSON writes;
    # 460 have 105570 and take the max-only route; 449 points with 44 copies
    # of one have 100576 pairs, and their 946 zero-distance pairs, counted
    # before either route runs, bring n_ratios to 99630, so the library
    # route writes the ratios.  Each run's JSON is the bytes of the library
    # route, and a rerun's too
    P = gaussian_vectors(3, N, 31).points.copy()
    P[5 : 10 * copies : 10] = P[5]
    ps, mp = tmp_path / "set.jlps", tmp_path / "a.jlmap"
    write_pointset(ps, PointSet(3, P, ("gaussian",) * N))
    write_map(mp, gaussian_map(2, 3, 32))
    calls = []
    worst = jllab.certify._pairwise_worst
    monkeypatch.setattr(jllab.certify, "_pairwise_worst", lambda A, P: calls.append(1) or worst(A, P))

    def certify(out):
        argv = ["certify", "--map", str(mp), "--set", str(ps), "--mode", "pairwise", "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == 0, err
        return out.read_bytes()

    first, again = certify(tmp_path / "cert.json"), certify(tmp_path / "cert.json")
    assert len(calls) == (2 if max_only else 0)
    monkeypatch.setattr(jllab.cli, "_distortion_json", lambda A, X, mode: distortion(A, X, mode).to_json())
    assert first == again == certify(tmp_path / "cert.json")
    d = json.loads(first)["distortion"]
    assert d["n_ratios"] == N * (N - 1) // 2 - copies * (copies - 1) // 2
    assert (d["ratios"] is not None) == ratios


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


def test_tails_over_size_limit_exits_one(tmp_path, capsys, monkeypatch):
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
    # the n x n Gram matrix counts too, even for a one-row map, and it is
    # refused before any sample is drawn
    draws = []
    for name in ("norm_deviation_sample", "map_samples"):
        fn = getattr(jllab.concentration, name)
        monkeypatch.setattr(jllab.concentration, name, lambda *a, fn=fn, name=name: draws.append(name) or fn(*a))
    code, _, err = run(
        ["tails", "--n", "4000", "--m", "1", "--delta-grid", "0.05", "--trials", "1000",
         "--seed", "7", "--out", str(out_csv)],
        capsys,
    )
    assert code == 1
    assert "4000x4000 Gram matrix" in err
    assert draws == []


def test_tails_over_trials_limit_exits_one(tmp_path, capsys):
    # 10**7 + 1 trials would need about 240 MB for the norm sample alone;
    # the sampler refuses them before it allocates
    out_csv = tmp_path / "tails.csv"
    tracemalloc.start()
    try:
        code, _, err = run(["tails", "--n", "1", "--trials", "10000001", "--out", str(out_csv)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "trials must be at most 10000000" in err
    assert not out_csv.exists()
    assert peak < 16 << 20

def test_tails_nan_joint_constant_exits_one(tmp_path, capsys):
    out_csv = tmp_path / "tails.csv"
    for flag in ("--c1", "--c2"):
        code, out, err = run(
            ["tails", "--n", "8", "--t-grid", "1", "--delta-grid", "0.05", flag, "nan",
             "--trials", "1000", "--out", str(out_csv)],
            capsys,
        )
        assert code == 1
        assert f"{flag} must be nonnegative" in err
        assert out == ""
        assert not out_csv.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frontier", "--n", "4", "--k", "2", "--eps", "nan"], "--eps must be nonnegative and finite, got nan"),
        (["frontier", "--n", "4", "--k", "2", "--eps", "-3"], "--eps must be nonnegative and finite, got -3.0"),
        (["tails", "--n", "4", "--c", "nan", "--t-grid", "", "--delta-grid", ""],
         "--c must be positive and finite, got nan"),
        (["tails", "--n", "4", "--c1", "inf", "--t-grid", "1"], "--c1 must be nonnegative and finite"),
        (["tails", "--n", "4", "--c2", "inf", "--t-grid", "1"], "--c2 must be nonnegative and finite"),
        (["net", "--n", "4", "--exponent", "inf"], "C must be positive and finite, got inf"),
        (["tails", "--n", "4", "--seed", "-1"], "seed must fit in 64 unsigned bits, got -1"),
        (["tails", "--n", "4", "--m", "0"], "--m must be at least 1, got 0"),
    ],
    ids=["eps-nan", "eps-negative", "c-nan", "c1-inf", "c2-inf", "exponent-inf", "seed-negative", "m-zero"],
)
def test_out_of_domain_float_flags_exit_one_before_any_work(tmp_path, capsys, monkeypatch, argv, message):
    # checked as --gamma is, before any set, map or sample is made; before,
    # these ran the sweep or drew every sample and then exited 3 on the
    # config line, or (--eps -3) exited 0 with null answers.  The flags
    # share the library's domains and messages (net --exponent is its C)
    for name in ("hard_instance", "gaussian_map", "norm_tail_estimate"):
        monkeypatch.setattr(jllab.cli, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    out = tmp_path / "out.csv"
    code, stdout, err = run(argv + ["--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("jllab: error: ") and err.count("\n") == 1 and message in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["gen", "frontier"])
@pytest.mark.parametrize(
    "gamma, message",
    [("1000", "over the 10000000 coordinate limit"), ("inf", "--gamma"), ("nan", "--gamma")],
)
def test_default_k_gamma_out_of_range_exits_one(tmp_path, capsys, command, gamma, message):
    # n^(2+gamma) is never formed past the coordinate limit, so it cannot overflow
    out = tmp_path / "out"
    code, _, err = run([command, "--n", "64", "--gamma", gamma, "--out", str(out)], capsys)
    assert code == 1
    assert message in err
    assert not out.exists()


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


def test_frontier_csv_records_why_each_m_stopped(tmp_path, capsys):
    # deterministic run-record columns before the opt-in seconds: m < n
    # runs out of its 40 iterations, m = n reaches the distortion floor
    out_csv = tmp_path / "front.csv"
    code, _, _ = run(
        ["frontier", "--n", "8", "--k", "4", "--m-grid", "2,4,8", "--maps-per-m", "1",
         "--max-iters", "40", "--seed", "5", "--timings", "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[1] == "m,eps_random_best,eps_opt,rank_lb_of_best,iters,stop,seconds"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [(r[4], r[5]) for r in rows[:2]] == [("40", "max_iters")] * 2
    assert rows[2][5] == "dist_floor" and int(rows[2][4]) < 40


def test_frontier_warm_start_moves_new_rows(tmp_path, capsys):
    # zero rows padded onto the previous optimum get no gradient, so every m
    # below n reported the m = 1 optimum; seeded rows let each m improve
    out_csv = tmp_path / "front.csv"
    code, _, _ = run(
        ["frontier", "--n", "8", "--k", "16", "--m-grid", "1,2,4", "--maps-per-m", "1",
         "--max-iters", "200", "--seed", "5", "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    eps_opt = [float(r[2]) for r in (ln.split(",") for ln in out_csv.read_text().splitlines()[2:])]
    assert eps_opt[2] < eps_opt[1] < eps_opt[0]


def test_frontier_keeps_padded_previous_optimum_as_floor(tmp_path, capsys, monkeypatch):
    # an optimizer that returns a worse map than the zero-padded previous
    # optimum loses to it, so eps_opt never increases with m
    ps, out_csv = tmp_path / "h.jlps", tmp_path / "front.csv"
    run(["gen", "--kind", "hard", "--n", "6", "--k", "8", "--seed", "2", "--out", str(ps)], capsys)
    optimize = jllab.cli.optimize_map

    def worse_at_m3(X, m, opts, init=None, return_info=False):
        A, info = optimize(X, m, opts, init=init, return_info=True)
        if m < 3:
            return A, info
        bad = LinearMap(10.0 * A.entries)
        return bad, replace(info, final_distortion=distortion(bad, X).eps_max)

    monkeypatch.setattr(jllab.cli, "optimize_map", worse_at_m3)
    code, _, _ = run(["frontier", "--set", str(ps), "--m-grid", "2,3", "--maps-per-m", "0",
                      "--max-iters", "50", "--out", str(out_csv)], capsys)
    assert code == 0
    rows = [ln.split(",") for ln in out_csv.read_text().splitlines()[2:]]
    X = read_pointset(ps)
    A2, _ = optimize(X, 2, jllab.cli.OptimizerOptions(max_iters=50, seed=Seed(0).child(1)), return_info=True)
    padded = LinearMap(np.vstack([A2.entries, np.zeros((1, 6))]))
    assert float(rows[1][2]) == distortion(padded, X).eps_max


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--set", "{set}", "--k", "7"], "--k does not apply with --set"),
        (["--set", "{set}", "--n", "99"], "--n 99 disagrees with the set dimension 4"),
        (["--set", "{set}", "--maps-per-m", "-3"], "--maps-per-m must be nonnegative, got -3"),
        (["--set", "{set}", "--gamma", "5"], "--gamma does not apply with --set"),
        (["--n", "3", "--k", "2", "--gamma", "9", "--max-iters", "5"], "--gamma does not apply with --k"),
    ],
)
def test_frontier_refuses_ignored_or_invalid_flags(tmp_path, capsys, extra, message):
    ps = tmp_path / "set.jlps"
    out_csv = tmp_path / "front.csv"
    run(["gen", "--kind", "hard", "--n", "4", "--k", "3", "--out", str(ps)], capsys)
    code, _, err = run(["frontier", "--out", str(out_csv)] + [a.format(set=ps) for a in extra], capsys)
    assert code == 1
    assert message in err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["embed", "--method", "identity", "--set", "{set}"], "--n 99 disagrees with the set dimension 4"),
        (["net", "--alpha", "0.25", "--quantize", "{map}"], "--n 99 disagrees with the map's column count 4"),
    ],
)
def test_n_must_match_the_input_dimension(tmp_path, capsys, argv, message):
    ps, mp, out = tmp_path / "set.jlps", tmp_path / "a.jlmap", tmp_path / "out.jlmap"
    run(["gen", "--kind", "basis", "--n", "4", "--out", str(ps)], capsys)
    write_map(mp, gaussian_map(2, 4, 1))
    argv = [a.format(set=ps, map=mp) for a in argv]
    code, _, err = run(argv + ["--n", "99", "--out", str(out)], capsys)
    assert code == 1
    assert message in err
    assert not out.exists()


def _overflow_inputs(tmp_path):
    # the squared norm of (1e200, 1) overflows to inf
    ps, mp = tmp_path / "s.jlps", tmp_path / "a.jlmap"
    write_pointset(ps, PointSet(2, np.array([[1.0, 0.0], [0.0, 1.0], [1e200, 1.0]]), ("gaussian",) * 3))
    write_map(mp, LinearMap(np.array([[1.0, 0.5]])))
    return ps, mp


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--map", "{map}", "--set", "{set}", "--mode", "pairwise", "--out", "{dir}/cert.json"],
        ["audit", "--map", "{map}", "--set", "{set}", "--eps", "0.5", "--out", "{dir}/audit.json"],
    ],
    ids=["certify-pairwise", "audit"],
)
def test_nonfinite_output_exits_three(tmp_path, capsys, argv):
    # the squared norm of the image of (1e200, 1) overflows, so the audit's
    # witness deviation is infinite (about 1e400 on the true scale).  In the
    # pairwise certificate the squared distance of (0.9e154, 0.9e154) to e1
    # is in range but the squared norm of its image overflows, so that
    # pair's ratio is infinite, as norm mode's is for the point x - y.  RFC
    # 8259 JSON has no spelling for either
    ps, mp = _overflow_inputs(tmp_path)
    if argv[0] == "certify":
        P = np.array([[1.0, 0.0], [0.0, 1.0], [0.9e154, 0.9e154], [0.0, 0.0]])
        write_pointset(ps, PointSet(2, P, ("gaussian",) * 4))
    argv = [a.format(set=ps, map=mp, dir=tmp_path) for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert "numerical failure: non-finite value" in err
    assert out == ""
    assert not list(tmp_path.glob("*.json")) and not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--map", "{map}", "--set", "{set}", "--out", "{dir}/cert.json"],
        ["certify", "--map", "{map}", "--set", "{set}", "--mode", "pairwise", "--out", "{dir}/cert.json"],
        ["frontier", "--set", "{set}", "--maps-per-m", "2", "--max-iters", "20", "--out", "{dir}/front.csv"],
    ],
    ids=["certify", "certify-pairwise", "frontier"],
)
def test_overflowing_norm_gives_finite_output(tmp_path, capsys, argv):
    # norm mode, pairwise mode and the optimizer scale (1e200, 1), or its
    # differences, by a power of two before they square it, so its ratios
    # are finite and correct
    ps, mp = _overflow_inputs(tmp_path)
    argv = [a.format(set=ps, map=mp, dir=tmp_path) for a in argv]
    code, _, err = run(argv, capsys)
    assert code == 0 and err == ""
    if "pairwise" in argv:
        report = json.loads((tmp_path / "cert.json").read_text())["distortion"]
        # (1e200 - 1/2)² / ((1e200 - 1)² + 1) and 1e400 / 1e400 round to 1
        assert report["ratios"] == [0.125, 1.0, 1.0]
        assert report["eps_max"] == 0.875 and report["violating_index"] == 0
    elif argv[0] == "certify":
        report = json.loads((tmp_path / "cert.json").read_text())["distortion"]
        # (1e200 + 1/2)² / (1e400 + 1) is 1 + 1e-200 + ..., which rounds to 1
        assert report["ratios"] == [1.0, 0.25, 1.0]
        assert report["eps_max"] == 0.75 and report["violating_index"] == 1
    else:
        lines = (tmp_path / "front.csv").read_text().splitlines()
        assert lines[1].startswith("m,eps_random_best,eps_opt,")
        rows = [ln.split(",") for ln in lines[2:]]
        assert [r[0] for r in rows] == ["1", "2"]
        assert all(math.isfinite(float(v)) for r in rows for v in r[1:3])
        assert float(rows[-1][2]) <= 1e-6


def test_certify_overflowing_map_exits_three(tmp_path, capsys):
    # a map entry of 1e200 makes the trace of AᵀA inf; the certificate
    # names it instead of reaching int(ceil(inf * inf / inf))
    ps, mp, out_json = tmp_path / "b.jlps", tmp_path / "a.jlmap", tmp_path / "cert.json"
    run(["gen", "--kind", "basis", "--n", "2", "--out", str(ps)], capsys)
    mp.write_text("jlmap v1 m=1 n=2\n1e200,0\n")
    code, out, err = run(["certify", "--map", str(mp), "--set", str(ps), "--out", str(out_json)], capsys)
    assert code == 3
    assert err == "jllab: numerical failure: the trace of A^T A overflows for a 1x2 map\n"
    assert out == "" and not out_json.exists()


def test_audit_of_an_underflowing_map_has_a_finite_witness(tmp_path, capsys):
    # AᵀA of [[1e-200, 0]] underflows to 0; the certificate rescales the map
    # for its rank bound and witness, so the audit fails its trace window
    # (exit 2) instead of refusing a zero map (exit 1)
    ps, mp, out_json = tmp_path / "b.jlps", tmp_path / "a.jlmap", tmp_path / "audit.json"
    run(["gen", "--kind", "basis", "--n", "2", "--out", str(ps)], capsys)
    mp.write_text("jlmap v1 m=1 n=2\n1e-200,0\n")
    code, _, err = run(["audit", "--map", str(mp), "--set", str(ps), "--eps", "0.5", "--out", str(out_json)], capsys)
    assert code == 2 and err == ""
    report = json.loads(out_json.read_text())["audit"]
    assert report["rank_lb"] == 1 and report["witness_deviation"] == 1.0
    assert report["trace"] == 0.0 and report["frob_sq"] == 0.0


def test_embed_optimize_rescues_overflowing_norm(tmp_path, capsys):
    # the optimizer scales (1e200, 1) by a power of two before it squares
    # it, so the set that gives NaN distortions above embeds with exit 0
    ps, mp = tmp_path / "s.jlps", tmp_path / "opt.jlmap"
    write_pointset(ps, PointSet(2, np.array([[1.0, 0.0], [0.0, 1.0], [1e200, 1.0]]), ("gaussian",) * 3))
    code, out, _ = run(["embed", "--method", "optimize", "--set", str(ps), "--m", "1",
                        "--max-iters", "20", "--out", str(mp)], capsys)
    assert code == 0
    status = json.loads(out)
    assert status["init_distortion"] == 1.0
    assert 0.0 <= status["final_distortion"] < 1.0
    assert read_map(mp).entries.shape == (1, 2)


CONFIG_RULE_ARGVS = [
    ["gen", "--kind", "hard", "--n", "3", "--k", "2", "--out", "{dir}/g.jlps"],
    ["embed", "--method", "optimize", "--set", "{set}", "--m", "2", "--max-iters", "30",
     "--out", "{dir}/a.jlmap"],
    ["certify", "--map", "{map}", "--set", "{set}", "--out", "{dir}/cert.json"],
    ["audit", "--map", "{map}", "--set", "{set}", "--eps", "0.5", "--out", "{dir}/audit.json"],
    ["tails", "--n", "4", "--t-grid", "1", "--trials", "1000", "--out", "{dir}/tails.csv"],
    ["frontier", "--set", "{set}", "--maps-per-m", "1", "--max-iters", "5", "--out", "{dir}/front.csv"],
    ["net", "--n", "3", "--alpha", "0.25", "--out", "{dir}/net.json"],
]


# the flags each subcommand records as the values its run resolved
RESOLVED = {"gen": {"k"}, "embed": {"m", "n"}, "tails": {"m", "t_grid", "delta_grid"},
            "frontier": {"n", "k", "m_grid"}, "net": {"n", "alpha"}}


@pytest.mark.parametrize("argv", CONFIG_RULE_ARGVS, ids=[a[0] for a in CONFIG_RULE_ARGVS])
def test_config_records_every_flag(tmp_path, capsys, argv):
    # each output's config has one key per parsed flag, and no other, in the
    # status line, the CSV "# config" line and the JSON report alike; a flag
    # the run did not resolve is recorded as given (embed's --max-iters 30)
    ps, mp = tmp_path / "set.jlps", tmp_path / "in.jlmap"
    run(["gen", "--kind", "basis", "--n", "4", "--out", str(ps)], capsys)
    write_map(mp, gaussian_map(2, 4, 1))
    argv = [a.format(set=ps, map=mp, dir=tmp_path) for a in argv]
    code, out, _ = run(argv, capsys)
    assert code in (0, 2)
    status = json.loads(out)
    configs = [json.loads(Path(status["written"]).read_text())["config"]] if "written" in status else []
    configs += [status["config"]] if "config" in status else []
    configs += [json.loads(f.read_text().splitlines()[0][len("# config "):]) for f in tmp_path.glob("*.csv")]
    flags = vars(jllab.cli.build_parser().parse_args(argv))
    del flags["func"]
    given = {k: v for k, v in flags.items() if k not in RESOLVED.get(argv[0], ())}
    assert configs
    for config in configs:
        assert set(config) == set(flags)
        assert {k: config[k] for k in given} == given
    assert all(config == configs[0] for config in configs)


def test_embed_over_size_limit_exits_one(tmp_path, capsys):
    # an identity of 3163 columns or a 4000 x 4000 gaussian map is over the
    # coordinate limit; the constructors refuse it before allocating
    out = tmp_path / "a.jlmap"
    for argv in (["--method", "identity", "--n", "3163"], ["--method", "gaussian", "--n", "4000", "--m", "4000"]):
        tracemalloc.start()
        try:
            code, stdout, err = run(["embed", *argv, "--out", str(out)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "over the 10000000 coordinate limit" in err
        assert stdout == ""
        assert not out.exists()
        assert peak < 16 << 20
    with pytest.raises(SizeError):
        identity_map(3163)
    # fewer points than m needs the full 3163 x 3163 SVD factor, and an
    # all-zero set falls back to an m x n block of the identity
    with pytest.raises(SizeError):
        pca_map(PointSet(3163, np.ones((3, 3163)), ("gaussian",) * 3), 4)
    with pytest.warns(UserWarning, match="degenerate"), pytest.raises(SizeError):
        pca_map(PointSet(5000, np.zeros((1, 5000)), ("gaussian",)), 2001)


def test_library_warnings_print_one_line(tmp_path, capsys):
    # a library UserWarning reaches stderr as one "jllab: warning:" line,
    # without the file, line number and source line of Python's format;
    # the exit code and the output are those of a run without it
    code, out, err = run(["net", "--n", "8", "--exponent", "1.0"], capsys)
    assert code == 0
    assert err == "jllab: warning: alpha = 100 n^(-2C) = 1.5625 at n=8, C=1.0; clamping below 1\n"
    assert json.loads(out)["params"]["alpha"] == 0.999999999
    ps, mp = tmp_path / "zero.jlps", tmp_path / "a.jlmap"
    write_pointset(ps, PointSet(3, np.zeros((2, 3)), ("gaussian",) * 2))
    code, out, err = run(["embed", "--method", "pca", "--set", str(ps), "--m", "2", "--out", str(mp)], capsys)
    assert code == 0
    assert err == "jllab: warning: degenerate point set (all zero); using leading coordinate directions\n"
    assert np.array_equal(read_map(mp).entries, np.eye(2, 3))


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
