import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from evanom import cli, events, io, msnet, pipeline, representation, simulate
from evanom.cli import cli_main
from evanom.events import EventStream, write_event_csv
from evanom.gan import GanHyper, GanParams, g_forward, prepare_batches, train_gan
from evanom.msnet import MsHyper, MsNetParams, train_ms
from evanom.pipeline import (EmptySeries, EvalMetrics, PipelineConfig,
                             ScoreSeries, SingleClass, evaluate, plot_scores,
                             read_label_csv, read_score_csv, score_sequence,
                             windows_for, write_label_csv, write_score_csv)
from evanom.representation import sliding_windows
from evanom.simulate import LabelTrack, render_scene, walking_scene


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def series(scores, labels=None):
    return ScoreSeries(t0=100_000, frame_dt=50_000,
                       scores=np.asarray(scores, dtype=np.float64),
                       labels=labels)


# ---------------------------------------------------------------- evaluation

def test_evaluate_perfect_separation():
    m = evaluate(series([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1]))
    assert m.auc == 1.0
    assert m.best_f1 == 1.0
    assert 0.2 < m.threshold <= 0.8


def test_evaluate_random_scores_near_half(rng):
    scores = rng.random(4000)
    labels = rng.integers(0, 2, 4000)
    m = evaluate(series(scores, labels))
    assert abs(m.auc - 0.5) < 0.05


def test_evaluate_all_equal_scores_is_half():
    m = evaluate(series([0.3] * 10, [0, 1] * 5))
    assert m.auc == pytest.approx(0.5, abs=1e-12)


def test_evaluate_monotone_transform_invariance(rng):
    scores = rng.random(200)
    labels = (rng.random(200) < 0.3).astype(int)
    labels[0], labels[1] = 0, 1  # both classes present
    a = evaluate(series(scores, labels)).auc
    b = evaluate(series(np.exp(3 * scores) + 7, labels)).auc
    assert abs(a - b) < 1e-12


def test_evaluate_matches_sklearn(rng):
    sklearn = pytest.importorskip("sklearn.metrics")
    for _ in range(5):
        scores = np.round(rng.random(300), 2)  # ties included
        labels = (rng.random(300) < 0.25).astype(int)
        labels[:2] = [0, 1]
        ours = evaluate(series(scores, labels)).auc
        ref = sklearn.roc_auc_score(labels, scores)
        assert ours == pytest.approx(ref, abs=1e-12)


def _pair_count_auc(scores, labels):
    """Mann-Whitney: share of (positive, negative) pairs with the positive
    scored higher, ties counted as 1/2."""
    pos = [s for s, lab in zip(scores, labels) if lab]
    neg = [s for s, lab in zip(scores, labels) if not lab]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_evaluate_matches_pair_count(rng):
    for _ in range(5):
        scores = np.round(rng.random(300), 2)  # ties included
        labels = (rng.random(300) < 0.25).astype(int)
        labels[:2] = [0, 1]
        ours = evaluate(series(scores, labels)).auc
        assert ours == pytest.approx(_pair_count_auc(scores, labels),
                                     abs=1e-12)


def _best_f1_loop(scores, labels):
    """(best F1, its threshold) by a plain sweep over the distinct scores,
    highest first (anomaly = score >= t); the first best wins."""
    pos = sum(labels)
    best_f1, best_thr = 0.0, max(scores)
    for t in sorted(set(scores), reverse=True):
        tp = float(sum(1 for s, lab in zip(scores, labels) if s >= t and lab))
        fp = float(sum(1 for s, lab in zip(scores, labels)
                       if s >= t and not lab))
        prec = tp / (tp + fp)
        rec = tp / pos
        f1 = 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
        if f1 > best_f1:
            best_f1, best_thr = f1, t
    return best_f1, best_thr


@pytest.mark.parametrize("kind", ["tied", "distinct", "single-positive"])
def test_evaluate_best_f1_matches_loop_bit_for_bit(rng, kind):
    for _ in range(5):
        scores = rng.random(200)
        labels = (rng.random(200) < 0.3).astype(int)
        labels[:2] = [0, 1]
        if kind == "tied":
            scores = np.round(scores, 1)
        elif kind == "single-positive":
            labels[:] = 0
            labels[rng.integers(0, 200)] = 1
        m = evaluate(series(scores, labels))
        want = _best_f1_loop(scores.tolist(), labels.tolist())
        assert (m.best_f1, m.threshold) == want


def test_evaluate_equal_best_f1_takes_highest_threshold():
    # F1 is 2/3 at both t=0.9 (tp 1, fp 0) and t=0.6 (tp 2, fp 2)
    scores, labels = [0.9, 0.8, 0.7, 0.6, 0.5], [1, 0, 0, 1, 0]
    m = evaluate(series(scores, labels))
    assert (m.best_f1, m.threshold) == _best_f1_loop(scores, labels)
    assert m.threshold == 0.9


def test_evaluate_requires_both_classes():
    with pytest.raises(SingleClass):
        evaluate(series([1.0, 2.0]))
    with pytest.raises(SingleClass):
        evaluate(series([1.0, 2.0], [1, 1]))


def test_score_series_validation():
    with pytest.raises(ValueError):
        series([1.0, -0.5])
    with pytest.raises(ValueError):
        series([1.0, np.nan])
    with pytest.raises(ValueError):
        series([1.0, 2.0], [1])
    for bad in ([0, 2], [0, -1], [0, 300], [0, 10**22], [0, 0.5]):
        with pytest.raises(ValueError, match="0 or 1"):
            series([1.0, 2.0], bad)
    assert series([1.0, 2.0], [True, False]).labels.tolist() == [1, 0]


# ------------------------------------------------------------------- formats

def test_score_csv_round_trip(rng):
    s = series(rng.random(20), rng.integers(0, 2, 20))
    back = read_score_csv(write_score_csv(s))
    np.testing.assert_array_equal(back.scores, s.scores)  # repr round-trip
    np.testing.assert_array_equal(back.labels, s.labels)
    assert back.t0 == s.t0 and back.frame_dt == s.frame_dt


def test_score_csv_without_labels(rng):
    s = series(rng.random(5))
    back = read_score_csv(write_score_csv(s))
    assert back.labels is None
    with pytest.raises(ValueError):
        read_score_csv("bad header\n1,2,3,4\n")


@pytest.mark.parametrize("row, match", [
    ("1,200,0.25", "expected 4 fields, got 3"),
    ("1,200,0.25,0,7", "expected 4 fields, got 5"),
    ("1,abc,0.25,0", "invalid literal for int"),
    ("1,200,abc,0", "could not convert string to float: 'abc'"),
])
def test_score_csv_bad_row_names_its_line(row, match):
    text = f"frame,t0_us,mse,label\n0,100,0.5,0\n\n{row}\n"
    with pytest.raises(ValueError, match=f"line 4: {match}"):
        read_score_csv(text)


@pytest.mark.parametrize("rows, match", [
    ("0,100,0.5,0\n1,200,0.5,0\n7,900,0.5,0", "line 4: frame 7, expected 2"),
    ("1,100,0.5,0", "line 2: frame 1, expected 0"),
    ("0,100,0.5,0\n1,200,0.5,0\n2,350,0.5,0", "line 4: t0_us 350, expected 300"),
    ("0,1,nan,0", "line 2: mse 'nan' is not finite and non-negative"),
    ("0,1,0.5,0\n1,2,inf,0", "line 3: mse 'inf' is not finite"),
    ("0,1,-0.25,0", "line 2: mse '-0.25' is not finite and non-negative"),
    ("0,100,0.5,0\n1,100,0.5,0\n2,100,0.5,0",
     "line 3: t0_us 100 is not after frame 0's 100"),
    ("0,300,0.5,0\n1,200,0.5,0\n2,100,0.5,0",
     "line 3: t0_us 200 is not after frame 0's 300"),
])
def test_score_csv_checks_frames_times_and_mse(rows, match):
    with pytest.raises(ValueError, match=match):
        read_score_csv(f"frame,t0_us,mse,label\n{rows}\n")


def test_score_csv_one_row_loads_with_frame_dt_1():
    back = read_score_csv("frame,t0_us,mse,label\n0,200000,0.5,\n")
    assert (back.t0, back.frame_dt, back.frame_start(0)) == (200000, 1, 200000)


@pytest.mark.parametrize("frame_dt", [0, -100])
def test_score_series_rejects_frame_dt_below_1(frame_dt):
    with pytest.raises(ValueError, match="frame_dt must be >= 1"):
        ScoreSeries(100, frame_dt, np.array([0.5, 0.5]))


def test_score_csv_label_must_be_0_or_1():
    head = "frame,t0_us,mse,label\n0,100,0.5,0\n"
    for lab in ("300", "2", "-1", "1" * 23):
        with pytest.raises(ValueError, match=f"line 4: label '{lab}'"):
            read_score_csv(head + "\n1,200,0.25," + lab + "\n")


def test_label_csv_round_trip():
    track = LabelTrack(((0, 300, "normal"), (300, 400, "anomaly"),
                        (400, 900, "normal")))
    back = read_label_csv(write_label_csv(track))
    assert back == track
    with pytest.raises(ValueError):
        read_label_csv("nope\n")


def test_pipeline_config_round_trip():
    cfg = PipelineConfig(bins=4, gan_lambda_l1=50.0, ms_epochs=7)
    assert PipelineConfig.from_text(cfg.to_text()) == cfg
    with pytest.raises(ValueError):
        PipelineConfig.from_text("unknown_key=3\n")


# One case per rule: (key, a value the rule rejects, the boundary it allows).
CONFIG_RULES = {
    "at least 1": [(k, 0, 1) for k in (
        "bins", "bin_dt_us", "stride", "ms_filters", "ms_batch", "gan_ngf",
        "gan_ndf", "gan_batch")],
    "a known mode": [("mode", "zzz", "count")],
    "positive": [(k, v, 1e-9) for k in ("cap", "ms_lr", "gan_lr")
                 for v in (0.0, -1.0, float("nan"))],
    "non-negative": [(k, -1, 0) for k in (
        "ms_epochs", "gan_epochs", "noise_samples", "ms_lambda_sparse",
        "gan_lambda_l1")],
    "beta1 in [0, 1)": [("gan_beta1", v, 0.0) for v in (1.0, -0.1, 1.5)],
    "finite": [(f.name, v, getattr(PipelineConfig(), f.name))
               for f in fields(PipelineConfig) if f.type == "float"
               for v in (float("inf"), float("nan"))],
}


@pytest.mark.parametrize("rule", sorted(CONFIG_RULES))
def test_pipeline_config_rejects_bad_values(rule):
    from dataclasses import replace
    for key, bad, ok in CONFIG_RULES[rule]:
        for make in (lambda v: PipelineConfig(**{key: v}),
                     lambda v: replace(PipelineConfig(), **{key: v}),
                     lambda v: PipelineConfig.from_text(f"{key}={v}\n")):
            with pytest.raises(ValueError, match=key):
                make(bad)
            assert getattr(make(ok), key) == ok


@pytest.mark.parametrize("setting", ["ms_lr=1e30", "ms_lambda_sparse=1e40"])
def test_cli_train_ms_divergence_writes_no_checkpoint(tmp_path, capsys,
                                                      setting):
    ev, cfg, out = (tmp_path / "events.csv", tmp_path / "pipe.cfg",
                    tmp_path / "ms.evck")
    stream, _ = render_scene(walking_scene(1, duration=500_000, size=16))
    ev.write_text(write_event_csv(stream))
    cfg.write_text(f"bins=4\nms_filters=4\nms_epochs=3\n{setting}\n")
    assert cli_main(["train-ms", "--events", str(ev), "--width", "16",
                     "--height", "16", "--config", str(cfg),
                     "--out", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_train_gan_divergence_writes_no_checkpoint(tmp_path, capsys):
    ev, cfg, ms, out = (tmp_path / n for n in ("events.csv", "pipe.cfg",
                                               "ms.evck", "gan.evck"))
    stream, _ = render_scene(walking_scene(1, duration=500_000, size=16))
    ev.write_text(write_event_csv(stream))
    cfg.write_text("bins=4\nms_filters=4\nms_epochs=1\ngan_ngf=4\n"
                   "gan_ndf=4\ngan_epochs=3\ngan_lr=1e30\n")
    args = ["--events", str(ev), "--width", "16", "--height", "16",
            "--config", str(cfg)]
    assert cli_main(["train-ms", *args, "--out", str(ms)]) == 0
    assert cli_main(["train-gan", *args, "--ms-ckpt", str(ms),
                     "--out", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


EXIT_1_ERRORS = [
    events.EventError, representation.EmptyGeometry, representation.TooShort,
    simulate.ConfigError, io.FormatError, msnet.EmptyDataset,
    msnet.DivergenceDetected, pipeline.SingleClass, pipeline.EmptySeries,
    ValueError, OSError]


@pytest.mark.parametrize("error", EXIT_1_ERRORS,
                         ids=[e.__name__ for e in EXIT_1_ERRORS])
def test_cli_domain_errors_exit_1(monkeypatch, capsys, error):
    """Each error the package raises on bad data is a domain error."""
    def cmd(args):
        raise error("bad input")

    monkeypatch.setattr(cli, "cmd_verify_math", cmd)
    assert cli_main(["verify-math"]) == 1
    assert "error: bad input" in capsys.readouterr().err


def test_cli_config_with_zero_bins(tmp_path, capsys):
    ev, cfg = tmp_path / "events.csv", tmp_path / "pipe.cfg"
    ev.write_text("t_us,x,y,p\n0,0,0,1\n")
    cfg.write_text("bins=0\n")
    assert cli_main(["train-ms", "--events", str(ev), "--width", "8",
                     "--height", "8", "--config", str(cfg),
                     "--out", str(tmp_path / "ms.evck")]) == 1
    assert "bins" in capsys.readouterr().err


# --------------------------------------------------------------------- plots

def test_plot_structure_and_determinism(rng):
    labels = np.array([0, 0, 1, 1, 0, 0, 1, 0, 0, 0])
    s = series(rng.random(10), labels)
    svg = plot_scores(s)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # one polyline with one point per frame
    poly = [ln for ln in svg.splitlines() if ln.startswith("<polyline")]
    assert len(poly) == 1
    assert poly[0].count(",") == 10
    # two shaded anomaly runs
    shaded = [ln for ln in svg.splitlines() if "#fdd" in ln]
    assert len(shaded) == 2
    assert plot_scores(s) == svg  # byte-identical


def test_plot_flat_zero_series():
    svg = plot_scores(series([0.0, 0.0, 0.0]))
    assert "<polyline" in svg


def test_plot_empty_series_raises():
    with pytest.raises(EmptySeries):
        plot_scores(series([]))


# ----------------------------------------------------------------- score_sequence

@pytest.fixture(scope="module")
def tiny_models():
    cfg = PipelineConfig(bins=4, stride=2, ms_filters=8, ms_epochs=5,
                         ms_batch=8, gan_ngf=4, gan_ndf=4, gan_epochs=1,
                         gan_batch=8)
    stream, track = render_scene(walking_scene(2, duration=500_000, size=16))
    windows = sliding_windows(stream, cfg.bin_dt_us, cfg.bins,
                              stride=cfg.stride, mode=cfg.mode)
    vols = np.stack([np.clip(w[:-1], -5, 5) / 5.0 for w in windows])
    ms_params, _ = train_ms(vols, cfg.ms_hyper(), seed=1)
    gan_params, _ = train_gan(windows, ms_params, cfg.gan_hyper(), seed=1)
    return cfg, stream, track, ms_params, gan_params


def test_score_sequence_deterministic(tiny_models):
    cfg, stream, track, ms_params, gan_params = tiny_models
    a = score_sequence(ms_params, gan_params, stream, cfg, track=track)
    b = score_sequence(ms_params, gan_params, stream, cfg, track=track)
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert np.isfinite(a.scores).all() and (a.scores >= 0).all()
    assert a.frame_dt == cfg.stride * cfg.bin_dt_us
    assert a.t0 == cfg.bins * cfg.bin_dt_us


def test_score_sequence_noise_sampling(tiny_models):
    cfg, stream, _, ms_params, gan_params = tiny_models
    noisy_cfg = PipelineConfig(**{**cfg.__dict__, "noise_samples": 2})
    a = score_sequence(ms_params, gan_params, stream, noisy_cfg, seed=3)
    b = score_sequence(ms_params, gan_params, stream, noisy_cfg, seed=3)
    c = score_sequence(ms_params, gan_params, stream, noisy_cfg, seed=4)
    np.testing.assert_array_equal(a.scores, b.scores)
    assert not np.array_equal(a.scores, c.scores)


def test_score_sequence_no_track_means_no_labels(tiny_models):
    cfg, stream, _, ms_params, gan_params = tiny_models
    s = score_sequence(ms_params, gan_params, stream, cfg)
    assert s.labels is None


def _stream_of(n_frames, cfg):
    """Random events on 16x16 whose last one gives exactly n_frames windows."""
    rng = np.random.default_rng(n_frames)
    last = (cfg.bins + 1 + (n_frames - 1) * cfg.stride) * cfg.bin_dt_us
    t = np.sort(rng.integers(0, last, 40 * n_frames))
    t[-1] = last
    return EventStream.from_arrays(16, 16, rng.integers(0, 16, len(t)),
                                   rng.integers(0, 16, len(t)), t,
                                   rng.choice([1, -1], len(t)))


def _one_frame_per_call(ms_params, gan_params, stream, cfg, seed):
    surfaces, targets = prepare_batches(windows_for(stream, cfg), ms_params,
                                        cfg.cap)
    n, _, h, w = surfaces.shape
    rng = np.random.default_rng(seed)
    zs = ([np.zeros((n, 1, h, w), dtype=np.float32)] if cfg.noise_samples == 0
          else [rng.standard_normal((n, 1, h, w)).astype(np.float32)
                for _ in range(cfg.noise_samples)])
    scores = np.zeros(n)
    for z in zs:
        for i in range(n):
            d = g_forward(gan_params, surfaces[i:i + 1], z[i:i + 1]) \
                - targets[i:i + 1]
            scores[i] += (d.reshape(1, -1) ** 2).mean(axis=1)[0]
    return scores / len(zs)


@pytest.mark.parametrize("noise_samples", [0, 2])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 33])
@pytest.mark.parametrize("workers", [1, 2])
def test_score_sequence_bits_do_not_depend_on_workers(
        tiny_models, monkeypatch, workers, n, noise_samples):
    cfg, _, _, ms_params, gan_params = tiny_models
    cfg = replace(cfg, noise_samples=noise_samples)
    stream = _stream_of(n, cfg)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: workers)
    got = score_sequence(ms_params, gan_params, stream, cfg, seed=5)
    want = _one_frame_per_call(ms_params, gan_params, stream, cfg, seed=5)
    assert len(got) == n
    assert got.scores.tobytes() == want.tobytes()


def _first_frame(y):
    """The surfaces row a generator call's input view starts at."""
    offset = (y.__array_interface__["data"][0]
              - y.base.__array_interface__["data"][0])
    return offset // y.strides[0]


def _score_with_fake_generator(tiny_models, monkeypatch, n, parts, forward):
    """score_sequence on an n-frame stream split into `parts` parts, with
    forward(first_frame, frames) in place of each generator call."""
    cfg, _, _, ms_params, gan_params = tiny_models

    def g_forward(params, y, z):
        forward(_first_frame(y), len(y))
        return np.zeros_like(z)

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: parts)
    monkeypatch.setattr(pipeline.gan_mod, "g_forward", g_forward)
    return score_sequence(ms_params, gan_params, _stream_of(n, cfg), cfg)


def test_score_sequence_scores_each_frame_once_with_more_parts_than_cpus(
        tiny_models, monkeypatch):
    n, parts, rounds = 7 * pipeline._G_FRAMES - 3, 7, 20
    counts = np.zeros(n, dtype=np.int64)

    def forward(start, frames):
        for _ in range(rounds):   # read-modify-write of its own frames
            counts[start:start + frames] = counts[start:start + frames] + 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _score_with_fake_generator(tiny_models, monkeypatch, n, parts, forward)
    finally:
        sys.setswitchinterval(interval)
    assert (counts == rounds).all()


@pytest.mark.parametrize("failing", [(0,), (2,), (0, 2)])
def test_score_sequence_raises_after_every_part_finished(
        tiny_models, monkeypatch, failing):
    """Part 0 runs in the calling thread, parts 1 and 2 in the pool; the
    first failing part's error is raised once the others are done."""
    finished = []

    def forward(start, frames):
        k = start // pipeline._G_FRAMES
        if k in failing:
            raise ValueError(k)
        time.sleep(0.2)
        finished.append(k)

    with pytest.raises(ValueError) as err:
        _score_with_fake_generator(tiny_models, monkeypatch,
                                   3 * pipeline._G_FRAMES, 3, forward)
    assert err.value.args == (failing[0],)
    assert sorted(finished) == sorted(set(range(3)) - set(failing))


@pytest.mark.parametrize("fails", [False, True])
def test_score_sequence_leaves_no_thread_running(tiny_models, monkeypatch,
                                                 fails):
    before, ran = set(threading.enumerate()), set()

    def forward(start, frames):
        ran.add(threading.current_thread())
        if fails:
            raise ValueError(start)

    with pytest.raises(ValueError) if fails else contextlib.nullcontext():
        _score_with_fake_generator(tiny_models, monkeypatch,
                                   2 * pipeline._G_FRAMES, 2, forward)
    helpers = ran - {threading.current_thread()}
    assert len(helpers) == 1
    assert not any(t.is_alive() for t in helpers)
    assert set(threading.enumerate()) == before


def test_score_sequence_in_forked_child_after_scoring(tiny_models,
                                                      monkeypatch):
    """A child forked after its parent scored at 2 parts scores the same
    bytes at 2 parts."""
    cfg, _, _, ms_params, gan_params = tiny_models
    stream = _stream_of(3 * pipeline._G_FRAMES, cfg)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    want = score_sequence(ms_params, gan_params, stream, cfg).scores.tobytes()
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork while BLAS threads exist; forking is
        # the point here.
        warnings.filterwarnings("ignore", "This process", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            signal.alarm(60)
            got = score_sequence(ms_params, gan_params, stream, cfg)
            with os.fdopen(write_fd, "wb") as out:
                out.write(got.scores.tobytes())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as f:
        got = f.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == want


def test_cli_score_bytes_do_not_depend_on_cpu_affinity(tiny_models, tmp_path):
    """At one BLAS thread scoring splits frames across the usable CPUs;
    pinned to one CPU it runs one range. The score CSVs are equal."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("only one CPU is usable, so scoring never splits")
    cfg, stream, track, ms_params, gan_params = tiny_models
    ev, ms, gp, cf = (tmp_path / n for n in ("ev.csv", "ms.evck", "gan.evck",
                                             "pipe.cfg"))
    ev.write_text(write_event_csv(stream))
    ms.write_bytes(io.write_evck(ms_params.to_arrays()))
    gp.write_bytes(io.write_evck(gan_params.to_arrays()))
    cf.write_text(cfg.to_text())
    script = ("import os, sys\n"
              "from evanom import cli, pipeline\n"
              "if sys.argv[1] != 'all':\n"
              "    os.sched_setaffinity(0, {int(sys.argv[1])})\n"
              "print(pipeline._usable_cpus())\n"
              "sys.exit(cli.cli_main(sys.argv[2:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    ranges, csvs = [], []
    for pin in (str(cpus[0]), "all"):
        out = tmp_path / f"scores-{pin}.csv"
        run = subprocess.run(
            [sys.executable, "-c", script, pin, "score", "--events", str(ev),
             "--width", "16", "--height", "16", "--ms-ckpt", str(ms),
             "--gan-ckpt", str(gp), "--config", str(cf), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        ranges.append(int(run.stdout.split()[0]))
        csvs.append(out.read_bytes())
    if ranges[1] == 1:
        pytest.skip("no OpenBLAS thread count found, so scoring never splits")
    assert ranges == [1, len(cpus)]
    assert csvs[0] == csvs[1]


# ----------------------------------------------------------------------- CLI

def test_cli_usage_errors(capsys):
    assert cli_main([]) == 2
    assert cli_main(["no-such-command"]) == 2
    capsys.readouterr()


def test_cli_domain_error(tmp_path, capsys):
    assert cli_main(["eval", "--scores", str(tmp_path / "missing.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_eval_header_only_scores(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("frame,t0_us,mse,label\n")
    assert cli_main(["eval", "--scores", str(scores)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_eval_rejects_label_outside_0_1(tmp_path, capsys):
    # 300 used to wrap to int8 44 and count as an anomaly; 23 digits
    # overflowed int8 with a traceback.
    for lab in ("300", "1" * 23):
        scores = tmp_path / "scores.csv"
        scores.write_text("frame,t0_us,mse,label\n0,100,0.5,0\n"
                          f"1,200,0.9,{lab}\n")
        assert cli_main(["eval", "--scores", str(scores)]) == 1
        assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("t0s", [(100, 100, 100), (300, 200, 100)],
                         ids=["equal", "decreasing"])
def test_cli_eval_rejects_non_increasing_t0(tmp_path, capsys, t0s):
    scores = tmp_path / "scores.csv"
    scores.write_text("frame,t0_us,mse,label\n" + "".join(
        f"{i},{t0},0.5,{i % 2}\n" for i, t0 in enumerate(t0s)))
    assert cli_main(["eval", "--scores", str(scores)]) == 1
    assert "line 3: t0_us" in capsys.readouterr().err


def test_cli_train_ms_header_only_events(tmp_path, capsys):
    ev = tmp_path / "events.csv"
    ev.write_text("t_us,x,y,p\n")
    assert cli_main(["train-ms", "--events", str(ev), "--width", "8",
                     "--height", "8", "--out", str(tmp_path / "ms.evck")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_timestamp_beyond_int64(tmp_path, capsys):
    ev = tmp_path / "events.csv"
    ev.write_text("t_us,x,y,p\n100000000000000000000,1,1,1\n")
    assert cli_main(["voxelize", "--events", str(ev), "--width", "8",
                     "--height", "8", "--t0", "0", "--bin-dt", "10", "--bins",
                     "2", "--out", str(tmp_path / "v.evol")]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("t0, bin_dt, bins", [
    pytest.param("-1", "10", "2", id="-1"),
    pytest.param(str(2**64), "10", "2", id=str(2**64)),
    # a window reaching the events from below int64: binning it overflowed
    pytest.param(str(-2**63 - 1), str(2**62), "4", id="below-int64"),
])
def test_cli_voxelize_rejects_t0_outside_u64(tmp_path, capsys, t0, bin_dt,
                                             bins):
    ev, out = tmp_path / "events.csv", tmp_path / "v.evol"
    ev.write_text("t_us,x,y,p\n0,1,1,1\n100,2,2,-1\n")
    assert cli_main(["voxelize", "--events", str(ev), "--width", "8",
                     "--height", "8", "--t0", t0, "--bin-dt", bin_dt,
                     "--bins", bins, "--out", str(out)]) == 1
    assert "t0" in capsys.readouterr().err
    assert not out.exists()


BIG_T = 2**63 - 1   # the last int64 microsecond


@pytest.mark.parametrize("t0, bin_dt, mode, cells", [
    (BIG_T, 10, "bilinear", {(0, 3, 3): 1}),
    (2**64 - 1, 10, "bilinear", {}),
    (0, 2**62, "bilinear", {(0, 1, 1): 1, (0, 2, 2): -1,
                            (1, 2, 2): -np.float32(100 / 2**62),
                            (1, 3, 3): 1}),
    (0, 2**64 - 1, "bilinear", {(0, 1, 1): 1, (0, 2, 2): -1,
                                (1, 2, 2): -np.float32(100 / 2**64),
                                (0, 3, 3): 0.5, (1, 3, 3): 0.5}),
    (0, 2**64 - 1, "count", {(0, 1, 1): 1, (0, 2, 2): 1, (0, 3, 3): 1}),
    (0, 2**64 - 1, "signed", {(0, 1, 1): 1, (0, 2, 2): -1, (0, 3, 3): 1}),
])
def test_cli_voxelize_integer_range(tmp_path, t0, bin_dt, mode, cells):
    """t0 and bin_dt anywhere in EVOL's u64 fields: a bin_dt beyond int64
    puts every event in interval 0, and a t0 beyond every event gives an
    empty volume."""
    ev, out = tmp_path / "events.csv", tmp_path / "v.evol"
    ev.write_text(f"t_us,x,y,p\n0,1,1,1\n100,2,2,-1\n{BIG_T},3,3,1\n")
    assert cli_main(["voxelize", "--events", str(ev), "--width", "8",
                     "--height", "8", "--t0", str(t0), "--bin-dt",
                     str(bin_dt), "--bins", "2", "--mode", mode,
                     "--out", str(out)]) == 0
    vol = io.read_evol(out.read_bytes())
    expected = np.zeros((2, 8, 8), dtype=np.float32)
    for cell, value in cells.items():
        expected[cell] = value
    assert (vol.t0, vol.bin_dt, vol.mode) == (t0, bin_dt, mode)
    assert vol.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("duration", [0, -5000])
def test_cli_simulate_rejects_non_positive_duration(tmp_path, capsys,
                                                    duration):
    scene, ev, lab = (tmp_path / n for n in ("s.cfg", "ev.csv", "lab.csv"))
    scene.write_text("width=8\nheight=8\nmicro_step_us=1000\n"
                     f"duration_us={duration}\n"
                     "object.0.shape=rect:2x2\nobject.0.start=0,0\n"
                     "object.0.velocity=0:10,0\nobject.0.active=0,1000\n")
    assert cli_main(["simulate", "--config", str(scene), "--out-events",
                     str(ev), "--out-labels", str(lab)]) == 1
    assert "duration" in capsys.readouterr().err
    assert not lab.exists()


def test_cli_score_rejects_ms_checkpoint_as_gan(tmp_path, capsys):
    ev, ms = tmp_path / "events.csv", tmp_path / "ms.evck"
    ev.write_text("t_us,x,y,p\n0,0,0,1\n")
    params = MsNetParams.init(8, 4, np.random.default_rng(0))
    ms.write_bytes(io.write_evck(params.to_arrays()))
    assert cli_main(["score", "--events", str(ev), "--width", "8",
                     "--height", "8", "--ms-ckpt", str(ms), "--gan-ckpt",
                     str(ms), "--out", str(tmp_path / "scores.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_score_rejects_bad_label_file(tmp_path, capsys):
    ev, ms, gp = (tmp_path / n for n in ("events.csv", "ms.evck", "gan.evck"))
    ev.write_text("t_us,x,y,p\n0,0,0,1\n")
    rng = np.random.default_rng(0)
    ms.write_bytes(io.write_evck(MsNetParams.init(8, 4, rng).to_arrays()))
    gp.write_bytes(io.write_evck(
        GanParams.init(8, 8, GanHyper(ngf=2, ndf=2), rng).to_arrays()))
    labels = tmp_path / "labels.csv"
    for bad in ("0,300,anomoly", "200,100,anomaly",
                "0,300,normal\n200,400,anomaly"):
        labels.write_text(f"t0_us,t1_us,label\n{bad}\n")
        assert cli_main(["score", "--events", str(ev), "--width", "8",
                         "--height", "8", "--ms-ckpt", str(ms), "--gan-ckpt",
                         str(gp), "--labels", str(labels),
                         "--out", str(tmp_path / "scores.csv")]) == 1
        assert "line" in capsys.readouterr().err


def test_cli_score_rejects_checkpoint_of_other_frame_size(tmp_path, capsys):
    ev, ms, gp = (tmp_path / n for n in ("events.csv", "ms.evck", "gan.evck"))
    ev.write_text("t_us,x,y,p\n0,0,0,1\n")
    rng = np.random.default_rng(0)
    ms.write_bytes(io.write_evck(MsNetParams.init(8, 4, rng).to_arrays()))
    gp.write_bytes(io.write_evck(
        GanParams.init(64, 64, GanHyper(ngf=2, ndf=2), rng).to_arrays()))
    assert cli_main(["score", "--events", str(ev), "--width", "32",
                     "--height", "32", "--ms-ckpt", str(ms), "--gan-ckpt",
                     str(gp), "--out", str(tmp_path / "scores.csv")]) == 1
    err = capsys.readouterr().err
    assert "dxy.fc.w has shape (512, 1), expected (128, 1)" in err
    assert "gan_ndf=2, height=32, width=32" in err


@pytest.mark.parametrize("command", ["score", "train-gan"])
def test_cli_rejects_ms_checkpoint_of_other_bins(tmp_path, capsys, command):
    ev, ms, cfg = (tmp_path / n for n in ("events.csv", "ms.evck", "p.cfg"))
    ev.write_text("t_us,x,y,p\n0,0,0,1\n")
    cfg.write_text("bins=4\n")
    ms.write_bytes(io.write_evck(
        MsNetParams.init(8, 4, np.random.default_rng(0)).to_arrays()))
    args = [command, "--events", str(ev), "--width", "8", "--height", "8",
            "--config", str(cfg), "--ms-ckpt", str(ms),
            "--out", str(tmp_path / "out")]
    if command == "score":
        args += ["--gan-ckpt", str(ms)]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert "ms.enc1.w has shape (4, 8), expected (4, 4)" in err
    assert "bins=4, ms_filters=4" in err


def test_cli_verify_math(capsys):
    assert cli_main(["verify-math", "--instances", "5", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_cli_end_to_end(tmp_path, capsys):
    from evanom.simulate import write_scene_config

    scene = tmp_path / "scene.cfg"
    scene.write_text(write_scene_config(walking_scene(1, duration=500_000,
                                                      size=16)))
    cfg = PipelineConfig(bins=4, stride=2, ms_filters=8, ms_epochs=3,
                         ms_batch=8, gan_ngf=4, gan_ndf=4, gan_epochs=1,
                         gan_batch=8)
    cfg_path = tmp_path / "pipe.cfg"
    cfg_path.write_text(cfg.to_text())
    ev, lab = tmp_path / "events.csv", tmp_path / "labels.csv"
    ms, gp = tmp_path / "ms.evck", tmp_path / "gan.evck"
    scores, svg = tmp_path / "scores.csv", tmp_path / "plot.svg"
    size = ["--width", "16", "--height", "16"]

    assert cli_main(["simulate", "--config", str(scene),
                     "--out-events", str(ev), "--out-labels", str(lab)]) == 0
    assert cli_main(["voxelize", "--events", str(ev), *size, "--bin-dt",
                     "25000", "--bins", "4",
                     "--out", str(tmp_path / "vol.evol")]) == 0
    assert cli_main(["train-ms", "--events", str(ev), *size, "--config",
                     str(cfg_path), "--out", str(ms)]) == 0
    assert cli_main(["train-gan", "--events", str(ev), *size, "--config",
                     str(cfg_path), "--ms-ckpt", str(ms),
                     "--out", str(gp)]) == 0
    assert cli_main(["score", "--events", str(ev), *size, "--ms-ckpt",
                     str(ms), "--gan-ckpt", str(gp), "--config",
                     str(cfg_path), "--labels", str(lab),
                     "--out", str(scores)]) == 0
    assert cli_main(["plot", "--scores", str(scores),
                     "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    # the walking scene is all-normal, so eval reports the single-class error
    assert cli_main(["eval", "--scores", str(scores)]) == 1
    capsys.readouterr()
