"""The process runtime: one owner of the BLAS scope and the worker pool."""

import ast
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import jllab
from jllab import _runtime
from jllab.concentration import map_samples
from jllab.embeddings import gaussian_map

_SRC = Path(jllab.__file__).parent


def _tree(module: str) -> ast.Module:
    return ast.parse((_SRC / f"{module}.py").read_text())


def test_runtime_is_the_one_owner_of_threads():
    runtime = _tree("_runtime")
    for node in ast.walk(runtime):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("jllab"), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("jllab") for a in node.names), ast.dump(node)
    names = {n.name for n in runtime.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    names |= {t.id for n in runtime.body if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)}
    assert {"_BLAS", "_pool_size", "_run_strided", "_find_openblas"} <= names
    for module in ("certify", "concentration"):
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.ImportFrom) and node.module == "embeddings":
                assert not names & {a.name for a in node.names}, module
    # no other module builds a pool or a BLAS scope
    for path in _SRC.glob("*.py"):
        if path.stem != "_runtime":
            text = path.read_text()
            for owned in ("ThreadPoolExecutor", "def one_thread", "def _find_openblas", "_num_threads"):
                assert owned not in text, (path.name, owned)


def test_a_forked_child_builds_its_own_pool(run_capped):
    # the child has none of the parent's pool threads, so it must not queue
    # work on the parent's executor; it builds its own and gets the parent's
    # sample, and the parent's pool still serves the parent
    done = run_capped(
        "import os, signal\n"
        "import numpy as np\n"
        "from jllab import _runtime, gaussian_map, map_samples\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "A = gaussian_map(4, 8, 1)\n"
        "first = map_samples(A, 3000, 2)\n"
        "parent = _runtime._POOL[0]\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(60)\n"
        "    empty = _runtime._POOL == []\n"
        "    again = map_samples(A, 3000, 2)\n"
        "    own = len(_runtime._POOL) == 1 and _runtime._POOL[0] is not parent\n"
        "    os._exit(0 if empty and own and all(map(np.array_equal, first, again)) else 1)\n"
        "status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])\n"
        "again = map_samples(A, 3000, 2)\n"
        "print(status, _runtime._POOL == [parent], all(map(np.array_equal, first, again)))\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 True True\n"


def test_concurrent_pooled_runs_match_sequential_ones(monkeypatch):
    # more callers than cores share the one pool at once; each gets the
    # sample it gets alone
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    maps = [gaussian_map(4, 8, k) for k in range(4)]
    expected = [map_samples(A, 5000, k) for k, A in enumerate(maps)]
    errors = []

    def caller(k):
        try:
            for _ in range(10):
                got = map_samples(maps[k], 5000, k)
                if not all(map(np.array_equal, got, expected[k])):
                    errors.append(k)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(maps))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert _runtime._BLAS.depth == 0


def test_a_worker_error_is_raised_after_every_worker_ends():
    # the first error in worker order is raised once every worker has ended,
    # so no task outlives its run's BLAS scope; results come in worker order
    ended = []

    def run(first, stride):
        if first == 0:
            raise ValueError("worker 0")
        threading.Event().wait(0.05)
        ended.append(first)
        return first

    with pytest.raises(ValueError, match="worker 0"):
        _runtime._run_strided(3, run)
    assert sorted(ended) == [1, 2]
    assert _runtime._run_strided(3, lambda first, stride: (first, stride)) == [(0, 3), (1, 3), (2, 3)]
