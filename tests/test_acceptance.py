"""Acceptance gate: eight end-to-end checks, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; the
whole suite is seeded and deterministic.  Each check enforces its own
wall-clock budget: wall clock of the check on the machine's available cores.
"""

import json
import math
import time

import numpy as np
import pytest

import jllab as jl
from jllab.cli import main as cli_main

pytestmark = pytest.mark.acceptance


def report(tag: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{tag}] {verdict}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")


def test_1_certificate_soundness():
    # 1e4 random maps, mixed gaussian and scaled-uniform entries, dims
    # up to 50: the rank bound never exceeds min(m, n)
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.SFC64(1))
    bad = 0
    for i in range(10_000):
        m = int(rng.integers(1, 51))
        n = int(rng.integers(1, 51))
        if i % 2:
            E = rng.standard_normal((m, n))
        else:
            E = rng.uniform(-1.0, 1.0, (m, n)) * rng.uniform(0.1, 10.0)
        cert = jl.spectral_certificate(jl.LinearMap(E))
        if cert.rank_lb > min(m, n):
            bad += 1
    elapsed = time.perf_counter() - t0
    report("1/8 certificate soundness", bad == 0, f"{bad} violations in 10000", elapsed, 30.0)
    assert bad == 0
    assert elapsed < 30.0


def test_2_trace_window_exactness():
    # the trace of A^T A is the sum of the embedded basis norms, so it
    # must land inside [(1-eps) n, (1+eps) n] at the measured eps
    t0 = time.perf_counter()
    base = jl.Seed(20)
    rng = np.random.Generator(np.random.SFC64(2))
    bad = 0
    for i in range(1000):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 2 * n + 1))
        A = jl.gaussian_map(m, n, base.child(i))
        eps = jl.distortion(A, jl.standard_basis(n)).eps_max
        trace = jl.spectral_certificate(A).trace
        if not (1.0 - eps) * n <= trace <= (1.0 + eps) * n:
            bad += 1
    elapsed = time.perf_counter() - t0
    report("2/8 trace window", bad == 0, f"{bad} violations in 1000", elapsed, 10.0)
    assert bad == 0
    assert elapsed < 10.0


def test_3_quantization_budget():
    # random admissible matrices, some entries pinned to the boundary:
    # error budget alpha/100 always holds and requantization is bit-exact
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.SFC64(3))
    bad_budget = 0
    bad_idem = 0
    total = 0
    for alpha in (1e-4, 1e-2, 0.5):
        for _ in range(1000):
            n = int(rng.integers(1, 17))
            m = int(rng.integers(1, n + 1))
            E = rng.uniform(-2.0, 2.0, (m, n))
            pins = rng.integers(0, 4)
            for _ in range(int(pins)):
                E[rng.integers(0, m), rng.integers(0, n)] = float(rng.choice([-2.0, 2.0]))
            A = jl.LinearMap(E)
            Q = jl.quantize(A, alpha)
            B = Q.entries - A.entries
            if float(np.sum(B * B)) > alpha / 100.0:
                bad_budget += 1
            if jl.quantize(Q, alpha).entries.tobytes() != Q.entries.tobytes():
                bad_idem += 1
            total += 1
    elapsed = time.perf_counter() - t0
    ok = bad_budget == 0 and bad_idem == 0
    report(
        "3/8 quantization budget",
        ok,
        f"{bad_budget} budget / {bad_idem} idempotence violations in {total}",
        elapsed,
        10.0,
    )
    assert bad_budget == 0 and bad_idem == 0
    assert elapsed < 10.0


def test_4_norm_tail_oracle_agreement():
    # empirical two-sided tails vs the chi-square oracle at threshold
    # 3 sqrt(n t): every (n, t) cell within 4 standard errors, for at
    # least 95 of 100 seeded runs
    t0 = time.perf_counter()
    trials = 100_000
    c = 3.0
    base = jl.Seed(40)
    grid = [(n, t) for n in (10, 100, 1000) for t in (1.0, 2.0, 3.0)]
    oracle = {(n, t): jl.norm_tail_oracle(n, t, c) for n, t in grid}
    passes = 0
    for r in range(100):
        run_seed = base.child(r)
        run_ok = True
        for ni, n in enumerate((10, 100, 1000)):
            # one sample per (run, n), shared across the t grid; the
            # estimator is a pure function of (n, trials, seed)
            dev = jl.norm_deviation_sample(n, trials, run_seed.child(ni))
            for t in (1.0, 2.0, 3.0):
                thr = c * math.sqrt(n * t)
                p_hat = float(np.count_nonzero(dev > thr)) / trials
                p = oracle[(n, t)]
                se = max(
                    math.sqrt(p_hat * (1.0 - p_hat) / trials),
                    math.sqrt(p * (1.0 - p) / trials),
                )
                if abs(p_hat - p) > 4.0 * se:
                    run_ok = False
        passes += run_ok
    elapsed = time.perf_counter() - t0
    report("4/8 norm tails vs oracle", passes >= 95, f"{passes}/100 runs within 4 se", elapsed, 120.0)
    assert passes >= 95
    assert elapsed < 120.0


def test_5_chaos_lower_tail_calibration():
    # calibrate on a structured family, then the min(c, exp(-t)) floor
    # holds on held-out maps with 4 stderr slack
    t0 = time.perf_counter()
    family = [
        jl.identity_map(16),
        jl.LinearMap(np.diag(np.linspace(1.0, 0.1, 16))),
        jl.LinearMap(np.diag(2.0 ** -np.arange(16.0))),
        jl.gaussian_map(8, 16, jl.Seed(101)),
        jl.gaussian_map(16, 32, jl.Seed(102)),
        jl.gaussian_map(4, 64, jl.Seed(103)),
    ]
    cal = jl.calibrate_constants(family, [1.0, 2.0, 3.0], 100_000, jl.Seed(7))
    held = [
        jl.gaussian_map(m, n, jl.Seed(900 + i))
        for i, (m, n) in enumerate([(8, 16), (16, 32), (12, 24), (32, 64), (6, 48)])
    ]
    worst = math.inf
    for i, A in enumerate(held):
        for t in (1.0, 2.0, 3.0):
            est = jl.chaos_tail_estimate(A, t, cal.c, 100_000, jl.Seed(3000 + i))
            req = min(cal.c, math.exp(-t))
            worst = min(worst, est.p_hat - (req - 4.0 * est.stderr))
    elapsed = time.perf_counter() - t0
    ok = cal.c >= 2.0**-10 and worst >= 0.0
    report(
        "5/8 chaos lower tail",
        ok,
        f"c={cal.c:.4f}, worst held-out margin {worst:+.4f}",
        elapsed,
        300.0,
    )
    assert cal.c >= 2.0**-10
    assert worst >= 0.0
    assert elapsed < 300.0


def test_6_joint_event_rate():
    # calibrated (c1, c2) keep the joint event above delta - 4 stderr on
    # ten held-out maps at n=64, m=32
    t0 = time.perf_counter()
    delta = 0.05
    fam = [jl.gaussian_map(32, 64, jl.Seed(500 + i)) for i in range(3)]
    cal = jl.calibrate_constants(fam, [1.0, 2.0], 100_000, jl.Seed(11))
    worst = math.inf
    for i in range(10):
        A = jl.gaussian_map(32, 64, jl.Seed(7000 + i))
        est = jl.joint_event_rate(A, delta, cal.c1, cal.c2, 100_000, jl.Seed(8000 + i))
        worst = min(worst, est.p_hat - (delta - 4.0 * est.stderr))
    elapsed = time.perf_counter() - t0
    report(
        "6/8 joint event rate",
        worst >= 0.0,
        f"c1={cal.c1:.4f}, c2={cal.c2:.4f}, worst margin {worst:+.4f}",
        elapsed,
        300.0,
    )
    assert worst >= 0.0
    assert elapsed < 300.0


def _frontier_rows(csv_path):
    lines = csv_path.read_text().splitlines()
    header = lines[1].split(",")
    cols = {name: i for i, name in enumerate(header)}
    return [
        {k: row.split(",")[i] for k, i in cols.items()} for row in lines[2:]
    ]


def test_7_frontier_sanity(tmp_path, capsys):
    # the basis-plus-gaussian set resists random maps at every m up to n,
    # while a set confined to an 8-dimensional subspace embeds at m=8
    t0 = time.perf_counter()
    hard_ps = tmp_path / "hard.jlps"
    hard_csv = tmp_path / "hard.csv"
    easy_ps = tmp_path / "easy.jlps"
    easy_csv = tmp_path / "easy.csv"
    m_grid = "1,2,4,8,16,32,64"

    assert cli_main(
        ["gen", "--kind", "hard", "--n", "64", "--k", "4096", "--seed", "1",
         "--binary", "--out", str(hard_ps)]
    ) == 0
    # 4160 gaussian points inside a fixed 8-dimensional subspace of R^64
    basis8 = np.linalg.qr(jl.gaussian_vectors(64, 8, jl.Seed(2)).points.T)[0][:, :8]
    coeff = jl.gaussian_vectors(8, 4160, jl.Seed(3)).points
    easy = jl.PointSet(64, coeff @ basis8.T, ("gaussian",) * 4160)
    jl.write_pointset(str(easy_ps), easy, binary=True)

    sweep_s = []
    for ps, out in ((hard_ps, hard_csv), (easy_ps, easy_csv)):
        started = time.perf_counter()
        assert cli_main(
            ["frontier", "--set", str(ps), "--m-grid", m_grid, "--maps-per-m", "10",
             "--eps", "0.25", "--seed", "5", "--out", str(out)]
        ) == 0
        sweep_s.append(time.perf_counter() - started)
    capsys.readouterr()

    hard_rows = _frontier_rows(hard_csv)
    easy_rows = _frontier_rows(easy_csv)
    hard_opt = [float(r["eps_opt"]) for r in hard_rows]
    full_row_ok = hard_opt[-1] <= 1e-6
    monotone_ok = all(a >= b - 1e-12 for a, b in zip(hard_opt, hard_opt[1:]))

    def first_m(rows, col):
        for r in rows:
            if float(r[col]) <= 0.25:
                return int(r["m"])
        return None

    m_hard = first_m(hard_rows, "eps_random_best")
    m_easy = first_m(easy_rows, "eps_opt")
    pca_eps = jl.distortion(jl.pca_map(easy, 8), easy).eps_max
    separation_ok = (
        m_easy is not None
        and m_easy <= 8
        and pca_eps <= 0.25
        and (m_hard is None or m_hard > m_easy)
    )
    elapsed = time.perf_counter() - t0
    ok = full_row_ok and monotone_ok and separation_ok
    report(
        "7/8 frontier sanity",
        ok,
        f"eps_opt(m=64)={hard_opt[-1]:.2e}, monotone={monotone_ok}, "
        f"m_hard={m_hard}, m_easy={m_easy}, pca_eps={pca_eps:.2e}; "
        f"hard sweep {sweep_s[0]:.1f}s (target 15s), stop "
        + " ".join(f"{r['m']}:{r['stop']}" for r in hard_rows),
        elapsed,
        600.0,
    )
    assert full_row_ok
    assert monotone_ok
    assert separation_ok
    assert elapsed < 600.0


def test_8_cli_determinism(tmp_path, capsys):
    # every subcommand, run twice with an identical config, rewrites its
    # output files byte for byte
    t0 = time.perf_counter()
    ps = tmp_path / "set.jlps"
    mp = tmp_path / "map.jlmap"
    commands = [
        ["gen", "--kind", "hard", "--n", "8", "--k", "6", "--seed", "2",
         "--out", str(ps)],
        ["embed", "--method", "optimize", "--set", str(ps), "--m", "4",
         "--max-iters", "30", "--seed", "3", "--out", str(mp)],
        ["certify", "--map", str(mp), "--set", str(ps),
         "--out", str(tmp_path / "cert.json")],
        ["audit", "--map", str(mp), "--set", str(ps), "--eps", "0.9",
         "--out", str(tmp_path / "audit.json")],
        ["tails", "--n", "8", "--t-grid", "1,2", "--delta-grid", "0.05",
         "--trials", "2000", "--seed", "4", "--out", str(tmp_path / "tails.csv")],
        ["frontier", "--set", str(ps), "--m-grid", "2,4", "--maps-per-m", "2",
         "--max-iters", "20", "--seed", "5", "--out", str(tmp_path / "front.csv")],
        ["net", "--alpha", "0.25", "--quantize", str(mp),
         "--out", str(tmp_path / "q.jlmap")],
    ]
    mismatches = []
    for argv in commands:
        out_path = tmp_path / argv[argv.index("--out") + 1].rsplit("/", 1)[-1]
        code = cli_main(argv)
        assert code in (0, 2), argv  # the audit legitimately reports failure
        first = out_path.read_bytes()
        code2 = cli_main(argv)
        assert code2 == code
        if out_path.read_bytes() != first:
            mismatches.append(argv[0])
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    report(
        "8/8 rerun determinism",
        not mismatches,
        "all 7 subcommands byte-identical" if not mismatches else f"drift in {mismatches}",
        elapsed,
        120.0,
    )
    assert not mismatches
