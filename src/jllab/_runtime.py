"""The process runtime: every product of the package runs in the one
BLAS-thread scope, `_BLAS.one_thread()`, and every pooled run goes through
`_run_strided` on one worker pool.  This module imports nothing from jllab.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

_T = TypeVar("_T")
_MAX_WORKERS = 8


def _pool_size(tasks: int) -> int:
    # the worker count of a pooled run over ``tasks`` tasks: min(available
    # cores, tasks, 8), at least 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(min(cores, tasks, _MAX_WORKERS), 1)


def _find_openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    # numpy's OpenBLAS thread-count getter and setter, or None under another
    # BLAS.  The symbols are looked up through numpy's core extension, whose
    # handle also resolves the libraries it links, so the OpenBLAS found is
    # numpy's even when another package (scipy) has loaded its own
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
        try:
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _BlasThreads:
    # the one BLAS-thread rule, as `_pool_size` is the one Python-thread
    # rule: every product of the library runs in `one_thread`, but for an
    # optimizer run over `optimize_map`'s work bound.  After a threaded
    # product returns, OpenBLAS's idle worker spins on another core for about
    # 0.1 s, and at some widths one- and two-thread products differ in their
    # last bits (a 900 x 1000 map's sample, a 512 x 1024 map's eigenvalues,
    # a 300 x 700 map's image); on one thread every output is the same
    # bytes at any OPENBLAS_NUM_THREADS.  The count is process-wide, so
    # overlapping scopes share one entry count: the first to enter saves the
    # count and sets 1, the last to leave restores it.  OpenBLAS is looked
    # up on the first scope, never at import; under another BLAS the scope
    # does nothing

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.api: tuple[Callable[[], int], Callable[[int], None]] | None = None
        self.looked = False
        self.depth = self.saved = 0

    @contextmanager
    def one_thread(self) -> Iterator[None]:
        with self.lock:
            if not self.looked:
                self.api, self.looked = _find_openblas(), True
            api = self.api
            if api is not None:
                if self.depth == 0:
                    self.saved = api[0]()
                    api[1](1)
                self.depth += 1
        try:
            yield
        finally:
            if api is not None:
                with self.lock:
                    self.depth -= 1
                    if self.depth == 0:
                        api[1](self.saved)


_BLAS = _BlasThreads()


_POOL: list = []  # the executor of every pooled run, once the first run builds it
if hasattr(os, "register_at_fork"):  # a forked child has none of its threads
    os.register_at_fork(after_in_child=_POOL.clear)


def _run_strided(workers: int, run: Callable[[int, int], _T]) -> list[_T]:
    # a pooled run on one BLAS thread: worker w runs run(w, workers), which
    # takes its tasks w, w + workers, ...; inline when ``workers`` is 1 (see
    # `_pool_size`), else on an executor of _MAX_WORKERS threads kept for the
    # process.  Results come in worker order, a worker's error re-raised once
    # every worker has ended.  Runs share the executor, so a pooled task must
    # never start a pooled run: with every thread in such a task, the inner
    # run's tasks would wait forever.  No task of jllab does
    with _BLAS.one_thread():
        if workers <= 1:
            return [run(0, 1)]
        if not _POOL:  # two first runs at once may each build one; all use the first
            from concurrent.futures import ThreadPoolExecutor  # here, so `import jllab` skips it

            _POOL.append(ThreadPoolExecutor(_MAX_WORKERS, thread_name_prefix="jllab"))
        futures = [_POOL[0].submit(run, w, workers) for w in range(workers)]
        for future in futures:
            future.exception()
        return [future.result() for future in futures]
