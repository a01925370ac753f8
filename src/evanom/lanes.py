"""One BLAS thread while evanom computes, and a call's independent tasks
on the CPUs that leaves idle.

`msnet.train_ms`, `gan.train_gan` and `pipeline.score_sequence` run under
`one_blas_thread`, so no output byte depends on `OPENBLAS_NUM_THREADS`
(OpenBLAS splits a long reduction differently at one thread and at
two). `run_tasks` alone spreads work over CPUs, and pins BLAS itself
while its tasks run: it cuts its callers' self-contained tasks (an event
CSV's chunks; a scoring call's 16 frames; in a GAN step, the generator's
two half-batch shards, forward and then backward, and one task per
discriminator with the generator loss's terms that read it) into one
contiguous run per usable CPU; the calling thread runs the first run
and a pool opened for the call runs the others (numpy drops the GIL
inside BLAS and the large elementwise ops); every run has finished, and
every pool thread is joined, before the call returns or raises. The
caller runs a run itself because each further thread gets its own
malloc arena, which raises peak RSS.
"""
from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np


@functools.cache
def _openblas():
    """The loaded OpenBLAS's (get_num_threads, set_num_threads), or None
    if no library exports both."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_{}_num_threads64_",
                    "scipy_openblas_{}_num_threads",
                    "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(handle, sym.format("get"), None)
            set_ = getattr(handle, sym.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_PIN_LOCK = threading.Lock()
_pin_depth = 0       # one_blas_thread blocks entered and not yet left
_pin_saved = 0       # the thread count the outermost block restores


@contextlib.contextmanager
def one_blas_thread():
    """Run the block (or, as a decorator, each call) with the loaded
    OpenBLAS at one thread, restoring its count afterwards, also on an
    error. The count is process-wide, so nested blocks and blocks in
    several threads share it: the first entry saves and sets it, the
    last exit restores it. With no OpenBLAS get/set_num_threads found
    (an MKL numpy, say), this does nothing, and `usable_cpus` is 1."""
    global _pin_depth, _pin_saved
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _PIN_LOCK:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def usable_cpus() -> int:
    """Tasks to run at once: the CPUs this process may run on if
    `one_blas_thread` can pin BLAS to one thread, else 1 (a BLAS that
    runs several threads per call serializes concurrent calls)."""
    return len(os.sched_getaffinity(0)) if _openblas() is not None else 1


@one_blas_thread()
def run_tasks(tasks) -> list:
    """Call each of `tasks` (callables of no argument), with BLAS at one
    thread; their results in order. The tasks are cut into
    k = min(len(tasks), `usable_cpus()`) contiguous runs; with k >= 2 the
    calling thread runs the first run while a pool opened for this call
    runs the others, each in a copy of the caller's context (so
    `np.errstate` reaches it). A run stops at its first error; the first
    error in task order is raised once every run has finished."""
    n, k = len(tasks), min(len(tasks), usable_cpus())
    if k < 2:
        return [task() for task in tasks]

    def run(i: int) -> list:
        return [task() for task in tasks[n * i // k:n * (i + 1) // k]]

    with ThreadPoolExecutor(k - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, run, i)
                   for i in range(1, k)]
        first = run(0)
    return first + [r for f in futures for r in f.result()]
