import functools
import os
import threading

import pytest

from evanom import lanes
from evanom.gan import train_gan
from evanom.msnet import DivergenceDetected, train_ms
from evanom.pipeline import (PipelineConfig, score_sequence, windows_for,
                             write_score_csv)
from evanom.representation import window_arrays
from evanom.simulate import render_scene, walking_scene

CFG = PipelineConfig(bins=4, ms_filters=8, ms_epochs=2, ms_batch=8,
                     gan_ngf=4, gan_ndf=4, gan_epochs=1, gan_batch=8)


@pytest.fixture
def blas_get():
    """The loaded OpenBLAS's get_num_threads, with BLAS set to 2 threads
    for the test (so a pinned count of 1 is told apart from the old one)
    and its count before the test restored after it."""
    blas = lanes._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS get/set_num_threads found, so nothing pins")
    get, set_ = blas
    old = get()
    set_(2)
    yield get
    set_(old)


@pytest.fixture(scope="module")
def tiny():
    stream, track = render_scene(walking_scene(2, duration=500_000, size=16))
    windows = windows_for(stream, CFG)
    ms_params, _ = train_ms(window_arrays(windows, CFG.cap)[0],
                            CFG, seed=1)
    gan_params, _ = train_gan(windows, ms_params, CFG, seed=1)
    return stream, track, windows, ms_params, gan_params


def _recording(monkeypatch, get):
    """Patch `lanes.run_tasks` to record (BLAS threads, usable_cpus())
    at each call; the list it appends to."""
    seen, run_tasks = [], lanes.run_tasks

    def recorded(tasks):
        seen.append((get(), lanes.usable_cpus()))
        return run_tasks(tasks)
    monkeypatch.setattr(lanes, "run_tasks", recorded)
    return seen


def test_pin_is_counted_across_nesting_threads_and_errors(blas_get):
    with lanes.one_blas_thread():
        assert blas_get() == 1
        with pytest.raises(KeyError):
            with lanes.one_blas_thread():
                raise KeyError("inner")
        assert blas_get() == 1
        other = threading.Thread(target=lanes.one_blas_thread()(lambda: None))
        other.start()
        other.join()
        assert blas_get() == 1
    assert blas_get() == 2 and lanes._pin_depth == 0


@pytest.mark.parametrize("fails, want", [
    ((), [0, 1, 2, 3, 4]), ((3,), [0, 1, 2, 3]), ((0, 3), [0, 2, 3])])
def test_run_tasks_cuts_one_contiguous_run_per_cpu(monkeypatch, fails,
                                                   want):
    """At 2 usable CPUs, tasks 0-1 run in the calling thread and 2-4 in
    one pool thread; results come back in task order. A failing task
    stops only its own run, and the first error in task order is raised
    once both runs are done."""
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    ran = []

    def task(i):
        ran.append((i, threading.current_thread()))
        if i in fails:
            raise ValueError(i)
        return 10 * i

    tasks = [functools.partial(task, i) for i in range(5)]
    if not fails:
        assert lanes.run_tasks(tasks) == [0, 10, 20, 30, 40]
    else:
        with pytest.raises(ValueError) as err:
            lanes.run_tasks(tasks)
        assert err.value.args == (fails[0],)
    threads = dict(ran)
    assert sorted(threads) == want
    caller = threading.current_thread()
    assert {threads[i] for i in want if i < 2} == {caller}
    pool = {threads[i] for i in want if i >= 2}
    assert len(pool) == 1 and caller not in pool


def test_run_tasks_pins_blas_for_its_tasks(blas_get, monkeypatch):
    """Called unpinned, run_tasks runs every task, in the calling thread
    and in the pool, with BLAS at one thread, and restores the count."""
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    assert lanes.run_tasks([blas_get] * 3) == [1, 1, 1]
    assert blas_get() == 2 and lanes._pin_depth == 0


def test_entry_points_restore_blas_threads(tiny, blas_get, monkeypatch):
    stream, track, windows, ms_params, gan_params = tiny
    seen = _recording(monkeypatch, blas_get)
    train_ms(window_arrays(windows, CFG.cap)[0], CFG, seed=1)
    assert blas_get() == 2
    train_gan(windows, ms_params, CFG, seed=1)
    assert blas_get() == 2
    score_sequence(ms_params, gan_params, stream, CFG, track=track)
    assert blas_get() == 2
    bad = PipelineConfig(**{**vars(CFG), "gan_lr": 1e30})
    with pytest.raises(DivergenceDetected):
        train_gan(windows, ms_params, bad, seed=1)
    assert blas_get() == 2 and lanes._pin_depth == 0
    assert seen and all(threads == 1 for threads, _ in seen)


def test_train_gan_uses_every_usable_cpu(tiny, blas_get, monkeypatch):
    """At a 2-thread BLAS, as in a default environment on 2 CPUs, GAN
    training still runs its tasks on every CPU this process may use."""
    _, _, windows, ms_params, _ = tiny
    seen = _recording(monkeypatch, blas_get)
    train_gan(windows, ms_params, CFG, seed=1)
    assert seen
    assert set(seen) == {(1, len(os.sched_getaffinity(0)))}


def test_concurrent_scoring_matches_serial_bytes(tiny, blas_get):
    stream, track, _, ms_params, gan_params = tiny

    def score():
        return write_score_csv(score_sequence(ms_params, gan_params, stream,
                                              CFG, track=track))
    want = score()
    got = [None, None]

    def run(i):
        got[i] = score()
    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == [want, want]
    assert blas_get() == 2 and lanes._pin_depth == 0


def test_pin_is_a_no_op_without_openblas_symbols(blas_get, monkeypatch):
    monkeypatch.setattr(lanes, "_openblas", lambda: None)
    with lanes.one_blas_thread():
        assert blas_get() == 2 and lanes._pin_depth == 0
        assert lanes.usable_cpus() == 1
    assert blas_get() == 2
