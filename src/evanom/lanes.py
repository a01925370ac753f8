"""Run a call's independent tasks on the CPUs a one-thread BLAS leaves idle.

Scoring splits a stream's generator calls into parts, and each GAN
training step runs its two discriminators' work as two tasks. Either
way the calling thread runs the first task and a pool opened for the
call runs the others (numpy drops the GIL inside BLAS and the large
elementwise ops); every task has finished, and every pool thread is
joined, before the call returns or raises. A BLAS that runs several
threads per call serializes concurrent calls: on 2 vCPUs, splitting a
stream at 2 OpenBLAS threads made the median stream 29-41% slower than
one part, so tasks share out only under a one-thread BLAS. The caller
runs a task itself because each further thread gets its own malloc
arena, which raises peak RSS.
"""
from __future__ import annotations

import contextvars
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np


@functools.cache
def _blas_get_num_threads():
    """The loaded OpenBLAS's get_num_threads, or None if none is found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn
    return None


def usable_cpus() -> int:
    """Tasks to run at once: the CPUs this process may run on if the
    loaded BLAS runs one thread per call, else 1."""
    fn = _blas_get_num_threads()
    return len(os.sched_getaffinity(0)) if fn is not None and fn() == 1 else 1


def run_tasks(tasks) -> list:
    """Call each of `tasks` (callables of no argument); their results in
    order. With `usable_cpus()` >= 2 the calling thread runs the first
    while a pool opened for this call runs the rest, each in a copy of
    the caller's context (so `np.errstate` reaches it); otherwise the
    caller runs them in order. The first task's error, in task order,
    is raised once every started task has finished."""
    workers = min(len(tasks), usable_cpus()) - 1
    if workers < 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, task)
                   for task in tasks[1:]]
        first = tasks[0]()
    return [first] + [f.result() for f in futures]
