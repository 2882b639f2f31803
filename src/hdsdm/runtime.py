"""Processes and BLAS threads: the task pool, its shared arrays and the BLAS pin.

``_run_tasks`` runs independent tasks at the same time in W = min(tasks,
usable CPUs) workers: the calling process runs tasks 0, W, 2W, ..., and a
standard-library pool of W - 1 ``fork``ed processes runs the others, queued.
The pool inherits each task, a callable of its index, through ``fork``. A
chain of ``fit`` writes its results into anonymous shared memory
(``_shared``), so no array is copied between processes. A row block of a
table of at least ``csvio.PARALLEL_CELLS`` cells, which
``csvio.write_table`` cuts into W blocks, goes into an anonymous temporary
file that the calling process appends in block order; each row is formatted
by the one ``%`` string of the table wherever it runs, so the file holds
the bytes of one loop. When a task fails, the queued tasks never start, but
one already running in a worker finishes first. Where OpenBLAS is not
pinned, the platform lacks ``fork`` or CPU affinity, or another Python
thread is running (a forked child would hold only the forking thread), all
tasks run in this process.

``_one_blas_thread`` pins every loaded OpenBLAS to one thread for its body,
and so for every numerical step whose bits the package promises: the chains
of ``fit`` and the grid factors of ``phi``. BLAS threads in each worker would
compete for the same CPUs, and a chain's proposal-image products give other
bits at one and at two threads. ``write_table`` forks under the same pin, so
its workers start as the chains' do. The libraries are found through
``/proc/self/maps`` once per process, at the first pin, and forked workers
inherit what was found; each pin reads the thread counts it restores.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import mmap
import multiprocessing
import os
import threading
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .exceptions import DiagnosticError

# (getter, setter) of the OpenBLAS thread count, by the names the numpy and
# scipy wheels and plain OpenBLAS builds export; the first pair a library
# has is used. The ``..._64_`` and trailing-underscore names are the
# Fortran forms, which take a pointer, and are not listed.
_BLAS_THREAD_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _loaded_openblas() -> tuple[tuple, ...]:
    """The thread-count getter and setter of each OpenBLAS mapped into this
    process when first called; none where ``/proc/self/maps`` cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return ()
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_API:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Pin every loaded OpenBLAS to one thread for the body and restore the
    previous counts after it; yields whether any OpenBLAS was pinned."""
    apis = _loaded_openblas()
    before = [get() for get, _ in apis]
    try:
        for _, set_ in apis:
            set_(1)
        yield bool(apis)
    finally:
        for (_, set_), n in zip(apis, before):
            set_(n)


def _workers(tasks: int, pinned: bool) -> int:
    """Processes to run ``tasks`` tasks in: one per usable CPU, at most one
    per task; 1, the calling process alone, where OpenBLAS is not
    ``pinned``, ``fork`` or the CPU affinity is unavailable, or another
    Python thread is running."""
    usable = pinned and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if not usable or threading.active_count() > 1:
        return 1
    return max(1, min(tasks, len(os.sched_getaffinity(0))))


def _shared(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float array in anonymous shared memory: what a forked worker
    writes into it, the parent reads."""
    nbytes = 8 * math.prod(shape)
    if nbytes == 0:  # mmap cannot map zero bytes
        return np.zeros(shape)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=float).reshape(shape)


_forked = None  # the task, set only in a pool worker: inherited through fork, not pickled


def _inherit(task: Callable) -> None:
    """Initializer of a pool worker: keep the task as the fork left it."""
    global _forked
    _forked = task


def _forked_task(i: int):
    return _forked(i)


def _run_tasks(task: Callable, n: int, workers: int) -> list:
    """``task(i)`` for i in 0 .. n - 1. This process runs tasks 0, W, 2W, ...
    (W = ``workers``); a pool of W - 1 forked processes runs the others as
    queued tasks. A worker's exception is raised here. On any exception the
    queued tasks never start, but a task already running in a worker runs to
    its end, since the pool cannot stop it; every worker is reaped before
    this returns or raises."""
    if workers == 1:
        return [task(i) for i in range(n)]
    with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit, initargs=(task,)) as pool:
        try:
            forked = {i: pool.submit(_forked_task, i) for i in range(n) if i % workers}
            out = {i: task(i) for i in range(0, n, workers)}
            out.update((i, future.result()) for i, future in forked.items())
        except BrokenProcessPool as err:
            raise DiagnosticError("a pool worker exited without a result") from err
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [out[i] for i in range(n)]
