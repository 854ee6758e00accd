"""Shared test tooling: a child interpreter under a 3 GiB address-space cap."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jllab

# the child's address space; an array the size rule lets through fits well
# inside it, and one it should have refused fails to allocate
CAPPED_BYTES = 3 << 30

_PREFIX = f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({CAPPED_BYTES}, {CAPPED_BYTES}))\n"
_CLI = "import sys\nfrom jllab.cli import main\nraise SystemExit(main(sys.argv[1:]))\n"


def _run_capped(job: str | list[str], blas_threads: int = 1) -> subprocess.CompletedProcess:
    # a Python snippet, or a jllab argv, in a child sys.executable capped at
    # CAPPED_BYTES of address space.  OpenBLAS runs on ``blas_threads``
    # threads, by default one, so its per-thread buffers, and with them the
    # cap's headroom, do not depend on the core count
    code, argv = (job, []) if isinstance(job, str) else (_CLI, job)
    src = str(Path(jllab.__file__).resolve().parents[1])
    env = os.environ | {
        "OPENBLAS_NUM_THREADS": str(blas_threads),
        "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]),
    }
    return subprocess.run(
        [sys.executable, "-c", _PREFIX + code, *argv], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.fixture
def run_capped():
    """`_run_capped`: run a snippet or a jllab argv in a capped child process."""
    return _run_capped
