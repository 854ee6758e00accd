"""The workloads' output checks reject NaN.

    python3 -m pytest perfbench/test_workloads.py

Each test runs one real pass of a workload at the benchmark's sizes (a few
seconds), confirms that its checks pass, then puts a NaN where a check
reads a value and confirms that the check fails.
"""

import dataclasses
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

SEED = 3


def run_pass(wl, skip=()):
    wl.setup()
    results = {}
    for op in wl.ops(results):
        if op.name not in skip:
            results[op.name] = op.call()
    return results


def set_csv_cell(path, row, column, value):
    """Replace one cell of a jllab CSV report (config line, header line, rows)."""
    lines = path.read_text(encoding="ascii").splitlines()
    col = lines[1].split(",").index(column)
    cells = lines[2 + row].split(",")
    cells[col] = value
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@pytest.fixture(scope="module")
def tails(tmp_path_factory):
    wl = workloads.Tails(SEED, tmp_path_factory.mktemp("tails"))
    results = run_pass(wl, skip={"oracle_large_n"})  # fails on the known series fault
    assert wl.check(results) == []
    return wl, results


@pytest.mark.parametrize("column", ["oracle", "p_hat", "stderr"])
def test_tails_rejects_nan_in_a_norm_row(tails, column):
    wl, results = tails
    csv = wl.out / "tails.csv"
    saved = csv.read_bytes()
    try:
        set_csv_cell(csv, 0, column, "nan")
        assert wl.check(results)
    finally:
        csv.write_bytes(saved)


def test_tails_rejects_nan_margins_and_oracle(tails):
    wl, results = tails
    nan_chaos = dict(results, **{"chaos0:1.0": dataclasses.replace(results["chaos0:1.0"], p_hat=math.nan)})
    assert any("held-out chaos map 0" in msg for msg in wl.check(nan_chaos))
    nan_joint = dict(results, joint0=dataclasses.replace(results["joint0"], stderr=math.nan))
    assert any("held-out joint map 0" in msg for msg in wl.check(nan_joint))
    # CalibrationConstants refuses a NaN, so a stand-in carries it
    nan_c = dict(results, calibrate5=SimpleNamespace(**dict(dataclasses.asdict(results["calibrate5"]), c=math.nan)))
    assert any("calibrated c " in msg for msg in wl.check(nan_c))
    nan_oracle = dict(results, oracle_large_n=math.nan)
    assert any("oracle at n=" in msg for msg in wl.check(nan_oracle))


def test_frontier_rejects_nan_eps_opt(tmp_path):
    wl = workloads.Frontier(SEED, tmp_path)
    results = run_pass(wl)
    assert wl.check(results) == []
    set_csv_cell(wl.out / "frontier.csv", 2, "eps_opt", "nan")
    assert any("eps_opt increases" in msg for msg in wl.check(results))
