"""The six demos run to completion, and demo 06 reproduces its CSVs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))

# each demo runs under the tests' own filter (pyproject's
# "error::RuntimeWarning:jllab"), so a RuntimeWarning raised in any jllab
# module fails it.  -W and PYTHONWARNINGS match one module name exactly,
# never its submodules, so the child sets the filter and then runs the demo
LAUNCH = (
    "import runpy, sys, warnings\n"
    "warnings.filterwarnings('error', category=RuntimeWarning, module='jllab')\n"
    "sys.argv = sys.argv[1:]\n"
    "runpy.run_path(sys.argv[0], run_name='__main__')\n"
)


def test_six_demos():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # each demo runs from a copy, so the files it writes next to itself land
    # in tmp_path and the checkout's are left as they are
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", LAUNCH, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    if demo.name.startswith("06_"):
        # a change that moves the frontier must re-commit the CSVs with it
        for name in ("frontier_hard.csv", "frontier_easy.csv"):
            assert (tmp_path / name).read_bytes() == (ROOT / "demos" / name).read_bytes(), name
