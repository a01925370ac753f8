import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from evanom import (cli, events, experiments, io, lanes, msnet, pipeline,
                    representation, simulate)
from evanom.autodiff import ShapeMismatch, WrongParamShapes
from evanom.cli import cli_main
from evanom.events import EventStream, write_event_csv
from evanom.gan import GanParams, g_forward, prepare_batches, train_gan
from evanom.msnet import MsNetParams, train_ms
from evanom.pipeline import (EmptySeries, EvalMetrics, PipelineConfig,
                             ScoreSeries, SingleClass, evaluate, plot_scores,
                             read_label_csv, read_score_csv, score_sequence,
                             windows_for, write_label_csv, write_score_csv)
from evanom.representation import window_block
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
        "bins", "bin_dt_us", "stride", "ms_filters", "ms_epochs", "ms_batch",
        "gan_ngf", "gan_ndf", "gan_epochs", "gan_batch")],
    "a known mode": [("mode", "zzz", "count")],
    "positive": [(k, v, 1e-9) for k in ("cap", "ms_lr", "gan_lr")
                 for v in (0.0, -1.0, float("nan"))],
    "non-negative": [(k, -1, 0) for k in (
        "noise_samples", "ms_lambda_sparse", "gan_lambda_l1")],
    "beta1 in [0, 1)": [("gan_beta1", v, 0.0) for v in (1.0, -0.1, 1.5)],
    "finite": [(f.name, v, getattr(PipelineConfig(), f.name))
               for f in fields(PipelineConfig) if f.type == "float"
               for v in (float("inf"), float("nan"))],
    "an int64": [(f.name, 2**63, 2**63 - 1)
                 for f in fields(PipelineConfig) if f.type == "int"],
    "a float32 cap": [("cap", v, 1e-44) for v in (1e-320, 1e39)],
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


def test_pipeline_config_is_frozen():
    cfg = PipelineConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.ms_epochs = 0
    assert cfg == PipelineConfig()


@pytest.mark.parametrize("text, match", [
    ("bins=4\nstride=1\nbins=8\n", "line 3: key 'bins' given twice"),
    ("# comment\n\nms_epochs\n", "line 3: expected key=value, got 'ms_epochs'"),
    ("bins=abc\n", "config bins='abc': invalid literal"),
    ("cap=1..5\n", "config cap='1..5': could not convert"),
])
def test_pipeline_config_reader_names_line_or_key(text, match):
    with pytest.raises(ValueError, match=match):
        PipelineConfig.from_text(text)


def test_training_shims_give_the_same_checkpoints():
    """`cfg.ms_hyper()` and `cfg.gan_hyper()`, as the benchmark passes
    them, train the same bytes as the config itself."""
    cfg = PipelineConfig(bins=4, ms_filters=4, ms_epochs=2, gan_ngf=2,
                         gan_ndf=2, gan_epochs=1, gan_lambda_l1=50.0)
    stream, _ = render_scene(walking_scene(1, duration=500_000, size=16))
    windows = windows_for(stream, cfg)
    vols = representation.window_arrays(windows, cfg.cap)[0]
    blobs = []
    for ms_cfg, gan_cfg in ((cfg, cfg), (cfg.ms_hyper(), cfg.gan_hyper())):
        ms, _ = train_ms(vols, ms_cfg, seed=1)
        g, _ = train_gan(windows, ms, gan_cfg, seed=1)
        blobs.append((io.write_evck(ms.to_arrays()),
                      io.write_evck(g.to_arrays())))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("command, key", [("train-ms", "ms_epochs"),
                                          ("train-gan", "gan_epochs")])
def test_cli_train_with_zero_epochs_exits_1(tmp_path, capsys, command, key):
    ev, cfg, ms = (tmp_path / n for n in ("events.csv", "pipe.cfg",
                                          "ms.evck"))
    stream, _ = render_scene(walking_scene(1, duration=500_000, size=16))
    ev.write_text(write_event_csv(stream))
    cfg.write_text(f"bins=4\nms_filters=4\n{key}=0\n")
    ms.write_bytes(io.write_evck(
        MsNetParams.init(4, 4, np.random.default_rng(0)).to_arrays()))
    out = tmp_path / "out.evck"
    assert cli_main([command, "--events", str(ev), "--width", "16",
                     "--height", "16", "--config", str(cfg), "--out",
                     str(out), *(["--ms-ckpt", str(ms)]
                                 if command == "train-gan" else [])]) == 1
    assert f"config {key}=0: must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", [f.name for f in fields(PipelineConfig)
                                 if f.type == "int"])
def test_cli_int_beyond_int64_exits_1(tmp_path, capsys, key):
    """An int config value of 2**63 is refused, naming its key, before
    numpy computes with it (such a stride overflows the int64 window
    offsets)."""
    ev, cfg = tmp_path / "events.csv", tmp_path / "pipe.cfg"
    stream, _ = render_scene(walking_scene(1, duration=500_000, size=16))
    ev.write_text(write_event_csv(stream))
    cfg.write_text(f"{key}={2**63}\n")
    args = ["--events", str(ev), "--width", "16", "--height", "16",
            "--config", str(cfg), "--out", str(tmp_path / "out")]
    ckpts = ["--ms-ckpt", str(tmp_path / "ms.evck"),
             "--gan-ckpt", str(tmp_path / "gan.evck")]
    for command, extra in (("train-ms", []), ("score", ckpts)):
        assert cli_main([command, *args, *extra]) == 1, command
        err = capsys.readouterr().err
        assert f"config {key}={2**63}: must be <= 2**63 - 1" in err, command
        assert "Traceback" not in err


@pytest.mark.parametrize("cap, code", [("1e-320", 1), ("1e-44", 0)])
def test_cli_cap_must_be_positive_as_float32(tiny_models, tmp_path, capsys,
                                             cap, code):
    """`normalize` divides by float32(cap): 1e-320 is 0 there and is
    refused, naming cap; 1e-44 is not 0 there, and both commands run."""
    _, _, _, ms_params, gan_params = tiny_models
    ev, cfg, ms, gp = (tmp_path / n for n in ("events.csv", "pipe.cfg",
                                              "ms.evck", "gan.evck"))
    stream, _ = render_scene(walking_scene(1, duration=500_000, size=16))
    ev.write_text(write_event_csv(stream))
    cfg.write_text(f"bins=4\nms_filters=4\nms_epochs=1\ncap={cap}\n")
    gp.write_bytes(io.write_evck(gan_params.to_arrays()))
    args = ["--events", str(ev), "--width", "16", "--height", "16",
            "--config", str(cfg)]
    assert cli_main(["train-ms", *args, "--out", str(ms)]) == code
    if code:
        ms.write_bytes(io.write_evck(ms_params.to_arrays()))
    assert cli_main(["score", *args, "--ms-ckpt", str(ms), "--gan-ckpt",
                     str(gp), "--out", str(tmp_path / "s.csv")]) == code
    err = capsys.readouterr().err
    assert err.count(f"config cap={float(cap)!r}: must be finite and > 0 "
                     "as a float32") == 2 * code


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


def test_cli_train_gan_divergence_writes_no_checkpoint(tmp_path, capsys,
                                                      monkeypatch):
    """At 2 lanes the D_x step's overflow happens in a pool thread, which
    must run under train_gan's np.errstate too."""
    ev, cfg, ms, out = (tmp_path / n for n in ("events.csv", "pipe.cfg",
                                               "ms.evck", "gan.evck"))
    stream, _ = render_scene(walking_scene(1, duration=500_000, size=16))
    ev.write_text(write_event_csv(stream))
    cfg.write_text("bins=4\nms_filters=4\nms_epochs=1\ngan_ngf=4\n"
                   "gan_ndf=4\ngan_epochs=3\ngan_lr=1e30\n")
    args = ["--events", str(ev), "--width", "16", "--height", "16",
            "--config", str(cfg)]
    assert cli_main(["train-ms", *args, "--out", str(ms)]) == 0
    capsys.readouterr()
    for n in (1, 2):
        monkeypatch.setattr(lanes, "usable_cpus", lambda n=n: n)
        assert cli_main(["train-gan", *args, "--ms-ckpt", str(ms),
                         "--out", str(out)]) == 1, f"{n} lanes"
        assert "non-finite" in capsys.readouterr().err, f"{n} lanes"
        assert not out.exists(), f"{n} lanes"


EXIT_1_ERRORS = [
    events.EventError, representation.TooShort,
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
    # a run at each end and a one-frame run between: each rect spans its
    # run's first to last frame, x = 50 + 740 * frame / 9
    ends = series(rng.random(10), np.array([1, 1, 0, 0, 1, 0, 0, 0, 1, 1]))
    rects = [(ln.split('x="')[1].split('"')[0],
              ln.split('width="')[1].split('"')[0])
             for ln in plot_scores(ends).splitlines() if "#fdd" in ln]
    assert rects == [("50.00", "82.22"), ("378.89", "0.00"),
                     ("707.78", "82.22")]


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
    windows = window_block(stream, cfg.bin_dt_us, cfg.bins,
                           stride=cfg.stride, mode=cfg.mode)
    vols = np.stack([np.clip(w[:-1], -5, 5) / 5.0 for w in windows])
    ms_params, _ = train_ms(vols, cfg, seed=1)
    gan_params, _ = train_gan(windows, ms_params, cfg, seed=1)
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


def test_score_sequence_memory_does_not_grow_with_noise_samples(
        monkeypatch):
    """Each generator call draws its own noise, so no noise grid of the
    whole stream is held: on the desk mixed scene with random-init nets,
    the tracemalloc peak at 8 noise samples is within 4 MiB of that at 1
    (a stream-wide grid is 1.5 MiB a sample here). Scoring runs on one
    lane: on two, the peak depends on whether the two threads' working
    sets overlap in time, and it spread by over 5 MiB between runs."""
    cfg = experiments.desk_config()
    stream, _ = render_scene(simulate.mixed_test_scene(1001))
    rng = np.random.default_rng(0)
    ms_params = MsNetParams.init(cfg.bins, cfg.ms_filters, rng)
    gan_params = GanParams.init(64, 64, cfg.gan_ngf, cfg.gan_ndf, rng)
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)
    peaks = []
    for k in (1, 8):
        tracemalloc.start()
        try:
            score_sequence(ms_params, gan_params, stream,
                           replace(cfg, noise_samples=k))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4 * 2**20, [p / 2**20 for p in peaks]


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
    """Each frame's score from a generator call of its own, with the
    noise its 16-frame call draws: sample after sample of that call's
    frames from default_rng((seed, its first frame))."""
    surfaces, targets = prepare_batches(windows_for(stream, cfg), ms_params,
                                        cfg.cap)
    n, _, h, w = surfaces.shape
    calls = range(0, n, pipeline._G_FRAMES)
    rngs = [np.random.default_rng((seed, a)) for a in calls]
    z = np.zeros((n, 1, h, w), dtype=np.float32)
    scores = np.zeros(n)
    for _ in range(max(1, cfg.noise_samples)):
        if cfg.noise_samples:
            z = np.concatenate([rng.standard_normal(
                (min(pipeline._G_FRAMES, n - a), 1, h, w), dtype=np.float32)
                for a, rng in zip(calls, rngs)])
        for i in range(n):
            d = g_forward(gan_params, surfaces[i:i + 1], z[i:i + 1]) \
                - targets[i:i + 1]
            scores[i] += (d.reshape(1, -1) ** 2).mean(axis=1)[0]
    return scores / max(1, cfg.noise_samples)


@pytest.mark.parametrize("noise_samples", [0, 2])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 33])
@pytest.mark.parametrize("workers", [1, 2, 7])
def test_score_sequence_bits_do_not_depend_on_workers(
        tiny_models, monkeypatch, workers, n, noise_samples):
    cfg, _, _, ms_params, gan_params = tiny_models
    cfg = replace(cfg, noise_samples=noise_samples)
    stream = _stream_of(n, cfg)
    monkeypatch.setattr(lanes, "usable_cpus", lambda: workers)
    got = score_sequence(ms_params, gan_params, stream, cfg, seed=5)
    want = _one_frame_per_call(ms_params, gan_params, stream, cfg, seed=5)
    assert len(got) == n
    assert got.scores.tobytes() == want.tobytes()


def _score_with_fake_generator(tiny_models, monkeypatch, n, parts, forward):
    """score_sequence on an n-frame stream at `parts` lanes, with
    forward(first_frame, frames) in place of each generator call (its
    first frame is the one its task binned last, in the same thread)."""
    cfg, _, _, ms_params, gan_params = tiny_models
    binned = threading.local()

    def windows(*args, t0, **kwargs):
        binned.first = t0 // (cfg.stride * cfg.bin_dt_us)
        return representation.window_block(*args, t0=t0, **kwargs)

    def g_forward(params, y, z):
        forward(binned.first, len(z))
        return np.zeros_like(z)

    monkeypatch.setattr(lanes, "usable_cpus", lambda: parts)
    monkeypatch.setattr(pipeline, "window_block", windows)
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
    """At 3 lanes call 0 runs in the calling thread, calls 1 and 2 in
    the pool; the first failing call's error is raised once the others
    are done."""
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
    """A child forked after its parent scored at 2 lanes scores the same
    bytes at 2 lanes."""
    cfg, _, _, ms_params, gan_params = tiny_models
    stream = _stream_of(3 * pipeline._G_FRAMES, cfg)
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
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


def test_score_sequence_bins_one_call_of_windows_at_a_time(tiny_models,
                                                           monkeypatch):
    """Each call bins its own windows: every `window_block` call asks for
    at most one generator call's windows, and together they cover each
    frame once."""
    cfg, _, _, ms_params, gan_params = tiny_models
    n = 3 * pipeline._G_FRAMES - 5
    step = cfg.stride * cfg.bin_dt_us
    covered, lock = np.zeros(n, dtype=np.int64), threading.Lock()

    def windows(*args, t0, **kwargs):
        out = representation.window_block(*args, t0=t0, **kwargs)
        assert t0 % step == 0 and len(out) <= pipeline._G_FRAMES
        with lock:
            covered[t0 // step:t0 // step + len(out)] += 1
        return out

    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "window_block", windows)
    score_sequence(ms_params, gan_params, _stream_of(n, cfg), cfg)
    assert (covered == 1).all()


def test_training_windows_concatenate_the_scenes_windows():
    """The desk recipe's training windows are one array: the three walking
    scenes' `windows_for` arrays, in order."""
    cfg = PipelineConfig(bins=4, stride=4)
    want = [windows_for(render_scene(walking_scene(100 * 2 + s))[0], cfg)
            for s in range(3)]
    got = experiments.training_windows(2, cfg)
    assert isinstance(got, np.ndarray) and got.flags.c_contiguous
    assert got.tobytes() == np.concatenate(want).tobytes()
    assert len(got) == sum(map(len, want))


def _no_work(monkeypatch, binning):
    """Make score_sequence fail the test if it starts its scoring threads
    or, with `binning`, if it bins a window."""
    def work(*args, **kwargs):
        raise AssertionError("score_sequence started work")
    monkeypatch.setattr(lanes, "run_tasks", work)
    if binning:
        monkeypatch.setattr(pipeline, "window_block", work)


@pytest.mark.parametrize("side, error", [
    (36, ShapeMismatch), (40, WrongParamShapes)])
def test_score_sequence_checks_frame_size_first(monkeypatch, side, error):
    """A 36x36 stream fits no GAN (H and W must be multiples of 8); a
    40x40 one does not fit a 32x32 checkpoint. Both are refused before
    any window is binned."""
    cfg = PipelineConfig(bins=4)
    rng = np.random.default_rng(0)
    ms_params = MsNetParams.init(4, 4, rng)
    gan_params = GanParams.init(32, 32, 2, 2, rng)
    t = np.arange(0, 2_000_000, 1000)
    stream = EventStream.from_arrays(side, side, t % side, t % side, t,
                                     np.ones(len(t)))
    _no_work(monkeypatch, binning=True)
    with pytest.raises(error):
        score_sequence(ms_params, gan_params, stream, cfg)


def test_score_sequence_checks_ms_bins_first(monkeypatch):
    """A 4-bin MS net under an 8-bin config is refused before any window
    is binned."""
    cfg = PipelineConfig(bins=8)
    rng = np.random.default_rng(0)
    ms_params = MsNetParams.init(4, 4, rng)
    gan_params = GanParams.init(32, 32, 2, 2, rng)
    t = np.arange(0, 2_000_000, 1000)
    stream = EventStream.from_arrays(32, 32, t % 32, t % 32, t,
                                     np.ones(len(t)))
    _no_work(monkeypatch, binning=True)
    with pytest.raises(ShapeMismatch, match="8 bins, net expects 4"):
        score_sequence(ms_params, gan_params, stream, cfg)


SHORT_STREAMS = {"empty": "", "one event": "0,0,0,1\n",
                 "shorter than a window": "0,0,0,1\n124999,7,7,-1\n"}


@pytest.mark.parametrize("rows", SHORT_STREAMS.values(),
                         ids=SHORT_STREAMS.keys())
def test_score_sequence_too_short_raises_before_any_thread(
        tiny_models, monkeypatch, rows):
    """A window of the tiny models' config spans 5 bins of 25 ms."""
    cfg, _, _, ms_params, gan_params = tiny_models
    stream = events.parse_event_csv(f"t_us,x,y,p\n{rows}", 16, 16)
    _no_work(monkeypatch, binning=False)
    with pytest.raises(representation.TooShort):
        score_sequence(ms_params, gan_params, stream, cfg)


@pytest.mark.parametrize("rows", SHORT_STREAMS.values(),
                         ids=SHORT_STREAMS.keys())
def test_cli_score_too_short_stream_exits_1(tiny_models, tmp_path, capsys,
                                            rows):
    _, _, _, ms_params, gan_params = tiny_models
    ev, cfg, ms, gp = (tmp_path / n for n in ("events.csv", "p.cfg",
                                              "ms.evck", "gan.evck"))
    ev.write_text(f"t_us,x,y,p\n{rows}")
    cfg.write_text("bins=4\n")
    ms.write_bytes(io.write_evck(ms_params.to_arrays()))
    gp.write_bytes(io.write_evck(gan_params.to_arrays()))
    assert cli_main(["score", "--events", str(ev), "--width", "16",
                     "--height", "16", "--config", str(cfg),
                     "--ms-ckpt", str(ms), "--gan-ckpt", str(gp),
                     "--out", str(tmp_path / "scores.csv")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


def test_cli_score_bytes_do_not_depend_on_cpu_affinity(tiny_models, tmp_path):
    """Scoring splits frames across the usable CPUs; pinned to one CPU it
    runs one range. The score CSVs are equal."""
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
              "from evanom import cli, lanes\n"
              "if sys.argv[1] != 'all':\n"
              "    os.sched_setaffinity(0, {int(sys.argv[1])})\n"
              "print(lanes.usable_cpus())\n"
              "sys.exit(cli.cli_main(sys.argv[2:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
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
        pytest.skip("no OpenBLAS get/set_num_threads found, so scoring "
                    "never splits")
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


@pytest.mark.parametrize("width", [0, -3])
def test_cli_simulate_rejects_non_positive_width(tmp_path, capsys, width):
    scene, ev, lab = (tmp_path / n for n in ("s.cfg", "ev.csv", "lab.csv"))
    scene.write_text(f"width={width}\nheight=8\nmicro_step_us=1000\n"
                     "duration_us=2000\n"
                     "object.0.shape=rect:2x2\nobject.0.start=0,0\n"
                     "object.0.velocity=0:10,0\n")
    assert cli_main(["simulate", "--config", str(scene), "--out-events",
                     str(ev), "--out-labels", str(lab)]) == 1
    assert f"error: width must be positive, got {width}" in \
        capsys.readouterr().err
    assert not ev.exists() and not lab.exists()


def test_cli_simulate_rejects_misspelled_scene_key(tmp_path, capsys):
    from evanom.simulate import write_scene_config

    scene, ev, lab = (tmp_path / n for n in ("s.cfg", "ev.csv", "lab.csv"))
    scene.write_text(write_scene_config(walking_scene(1, size=16))
                     .replace("noise_rate=", "noise_rat="))
    assert cli_main(["simulate", "--config", str(scene), "--out-events",
                     str(ev), "--out-labels", str(lab)]) == 1
    assert "error: unknown scene config key 'noise_rat'" in \
        capsys.readouterr().err
    assert not ev.exists()


_PHYS = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _walking_scene_with(tmp_path, line):
    """Write the 16x16 walking scene's config to tmp_path with the line
    of `line`'s key replaced by `line`; the (scene, events, labels)
    paths."""
    from evanom.simulate import write_scene_config

    key = line.partition("=")[0]
    scene, ev, lab = (tmp_path / n for n in ("s.cfg", "ev.csv", "lab.csv"))
    scene.write_text("".join(
        line + "\n" if ln.startswith(key + "=") else ln + "\n"
        for ln in write_scene_config(walking_scene(1, size=16)).splitlines()))
    return scene, ev, lab


@pytest.mark.parametrize("line, key", [
    ("noise_rate=nan", "noise_rate"), ("noise_rate=inf", "noise_rate"),
    ("object.1.start=inf,36.0", "object.1.start"),
    ("object.0.velocity=0:nan,0.0", "object.0.velocity"),
    ("object.0.shape=disk:inf", "object.0.shape"),
])
def test_cli_simulate_refuses_non_finite_values(tmp_path, capsys, line, key):
    scene, ev, lab = _walking_scene_with(tmp_path, line)
    assert cli_main(["simulate", "--config", str(scene), "--out-events",
                     str(ev), "--out-labels", str(lab)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}")
    assert not ev.exists() and not lab.exists()


def test_cli_simulate_refuses_a_rect_beyond_float64(tmp_path, capsys):
    """A rect width of 401 digits, which no float64 holds, is refused by
    name rather than overflowing."""
    scene, ev, lab = _walking_scene_with(
        tmp_path, f"object.0.shape=rect:1{'0' * 400}x5")
    assert cli_main(["simulate", "--config", str(scene), "--out-events",
                     str(ev), "--out-labels", str(lab)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: object.0.shape: rect:1000")
    assert err.endswith("x5 has a non-finite size\n")
    assert "Traceback" not in err
    assert not ev.exists() and not lab.exists()


@pytest.mark.parametrize("line", ["object.0.shape=disk:1e300",
                                  "object.0.velocity=0:1e308,0"])
def test_cli_simulate_renders_values_beyond_float64(tmp_path, capsys, line):
    scene, ev, lab = _walking_scene_with(tmp_path, line)
    assert cli_main(["simulate", "--config", str(scene), "--out-events",
                     str(ev), "--out-labels", str(lab)]) == 0
    assert capsys.readouterr().err == ""
    assert ev.exists() and lab.exists()


@pytest.mark.parametrize("line, key", [
    ("noise_rate=1e30", "noise_rate"),
    (f"noise_rate={2 * _PHYS / (16 * 16 * 2 * 17)}", "noise_rate"),
    (f"width={_PHYS}", "width"),
    ("width=100000000000000000000", "width"),
    ("duration_us=1000000000000000000", "duration_us"),
], ids=["noise 1e30", "noise sized from memory", "width sized from memory",
        "width 1e20", "duration 1e18"])
def test_cli_simulate_refuses_scenes_larger_than_memory(tmp_path, capsys,
                                                        line, key):
    scene, ev, lab = _walking_scene_with(tmp_path, line)
    assert cli_main(["simulate", "--config", str(scene), "--out-events",
                     str(ev), "--out-labels", str(lab)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}=") and "Traceback" not in err
    assert err.count("\n") == 1
    assert not ev.exists() and not lab.exists()


def test_cli_maps_memory_error_to_exit_1(tmp_path):
    """A volume of 98304 bins on a 64x64 sensor (a 1.5 GiB grid and
    1.5 GiB of windows, under physical memory, so `_windows` does not
    refuse it) in a child process whose address space is capped at
    2 GiB: exit 1, one line."""
    ev, out = tmp_path / "events.csv", tmp_path / "v.evol"
    ev.write_text("t_us,x,y,p\n0,1,1,1\n5,2,3,-1\n")
    script = ("import resource, sys\n"
              "from evanom import cli\n"
              "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
              "cap = 2**31 if hard == resource.RLIM_INFINITY "
              "else min(2**31, hard)\n"
              "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
              "sys.exit(cli.cli_main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    run = subprocess.run(
        [sys.executable, "-c", script, "voxelize", "--events", str(ev),
         "--width", "64", "--height", "64", "--bin-dt", "1",
         "--bins", "98304", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error: out of memory")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
    assert not out.exists()


def test_windows_larger_than_memory_are_refused_unallocated(tmp_path,
                                                            capsys):
    """A volume whose grid and windows exceed physical memory (under
    overcommit they might be allocated, and the process killed later) is
    a ValueError naming bins and stride, raised before any allocation;
    voxelize exits 1 with it."""
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    bins = phys // (2 * 64 * 64 * 4) + 1    # grid plus windows > phys
    stream = EventStream.from_arrays(64, 64, np.array([0, 5]),
                                     np.array([1, 2]), np.array([1, 3]),
                                     np.array([1, -1]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=rf"bins={bins}, stride=1 .* GiB grid .* GiB"):
            representation.discretize(stream, 0, 1, bins)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    ev, out = tmp_path / "events.csv", tmp_path / "v.evol"
    ev.write_text(write_event_csv(stream))
    assert cli_main(["voxelize", "--events", str(ev), "--width", "64",
                     "--height", "64", "--bin-dt", "1", "--bins", str(bins),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bins={bins}") and "Traceback" not in err
    assert not out.exists()


def test_voxelize_names_the_sensor_too_large_for_memory(tmp_path, capsys):
    """A sensor whose 4-bin grid and window (36 bytes a pixel) exceed
    physical memory: the refusal names the sensor as well as bins and
    stride."""
    width = _PHYS // (36 * 16) + 1
    ev, out = tmp_path / "events.csv", tmp_path / "v.evol"
    ev.write_text("t_us,x,y,p\n1,0,0,1\n")
    assert cli_main(["voxelize", "--events", str(ev), "--width", str(width),
                     "--height", "16", "--bin-dt", "1000", "--bins", "4",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bins=4, stride=1 need")
    assert f" on a {width}x16 sensor, " in err and "Traceback" not in err
    assert not out.exists()


def test_voxelize_refuses_a_sensor_beyond_float64(tmp_path, capsys):
    """A 401-digit width, whose sizes no float64 holds: the refusal
    formats them without a float division, which would overflow."""
    width = 10**400
    ev, out = tmp_path / "events.csv", tmp_path / "v.evol"
    ev.write_text("t_us,x,y,p\n1,0,0,1\n")
    assert cli_main(["voxelize", "--events", str(ev), "--width", str(width),
                     "--height", "16", "--bin-dt", "1000", "--bins", "4",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bins=4, stride=1 need")
    assert f" on a {width}x16 sensor, " in err and "Traceback" not in err
    assert not out.exists()


def test_layers_larger_than_memory_are_refused_undrawn(tmp_path, capsys):
    """An MS net whose weight draws exceed physical memory is a ValueError
    naming bins, ms_filters and the size, raised before any draw;
    train-ms exits 1 with it."""
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    filters = phys // (8 * 8) + 1    # enc1's float64 draw alone > phys
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=rf"bins=8, ms_filters={filters} need "
                                 rf"[0-9.]+ GiB"):
            MsNetParams.init(8, filters, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    ev, cfg, out = (tmp_path / n for n in ("events.csv", "pipe.cfg",
                                           "ms.evck"))
    stream, _ = render_scene(walking_scene(1, duration=500_000, size=16))
    ev.write_text(write_event_csv(stream))
    cfg.write_text(f"ms_filters={filters}\n")
    assert cli_main(["train-ms", "--events", str(ev), "--width", "16",
                     "--height", "16", "--config", str(cfg),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bins=8, ms_filters={filters}")
    assert "Traceback" not in err
    assert not out.exists()


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
        GanParams.init(8, 8, 2, 2, rng).to_arrays()))
    labels = tmp_path / "labels.csv"
    for bad in ("0,300,anomoly", "200,100,anomaly",
                "0,300,normal\n200,400,anomaly"):
        labels.write_text(f"t0_us,t1_us,label\n{bad}\n")
        assert cli_main(["score", "--events", str(ev), "--width", "8",
                         "--height", "8", "--ms-ckpt", str(ms), "--gan-ckpt",
                         str(gp), "--labels", str(labels),
                         "--out", str(tmp_path / "scores.csv")]) == 1
        assert "line" in capsys.readouterr().err


def test_cli_score_names_a_bad_row_past_the_first_chunk(tmp_path, capsys):
    rows = [f"{t},{t % 8},{t % 7},{1 - 2 * (t % 2)}" for t in range(60_000)]
    rows[50_000] = "50000,8,0,1"  # x equal to the width
    text = "t_us,x,y,p\n" + "\n".join(rows) + "\n"
    assert text.index(rows[50_000]) > 2 * events._CHUNK
    ev, ms, gp = (tmp_path / n for n in ("events.csv", "ms.evck", "gan.evck"))
    ev.write_text(text)
    rng = np.random.default_rng(0)
    ms.write_bytes(io.write_evck(MsNetParams.init(8, 4, rng).to_arrays()))
    gp.write_bytes(io.write_evck(
        GanParams.init(8, 8, 2, 2, rng).to_arrays()))
    assert cli_main(["score", "--events", str(ev), "--width", "8",
                     "--height", "8", "--ms-ckpt", str(ms), "--gan-ckpt",
                     str(gp), "--out", str(tmp_path / "scores.csv")]) == 1
    assert "line 50002: coordinate out of bounds" in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


def test_cli_score_rejects_checkpoint_of_other_frame_size(tmp_path, capsys):
    ev, ms, gp = (tmp_path / n for n in ("events.csv", "ms.evck", "gan.evck"))
    ev.write_text("t_us,x,y,p\n0,0,0,1\n")
    rng = np.random.default_rng(0)
    ms.write_bytes(io.write_evck(MsNetParams.init(8, 4, rng).to_arrays()))
    gp.write_bytes(io.write_evck(
        GanParams.init(64, 64, 2, 2, rng).to_arrays()))
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


@pytest.mark.parametrize("instances", ["0", "-1"])
def test_cli_verify_math_refuses_no_instances(capsys, instances):
    """With no instance checked, no check may print PASS."""
    assert cli_main(["verify-math", "--instances", instances]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert f"error: instances must be >= 1, got {instances}" in err


# Each subcommand that takes --seed, with its other required arguments;
# the parser refuses the seed before any file is read.
SEEDED = {
    "simulate": ["--config", "s.cfg", "--out-events", "e.csv",
                 "--out-labels", "l.csv"],
    "train-ms": ["--events", "e.csv", "--width", "8", "--height", "8",
                 "--out", "ms.evck"],
    "train-gan": ["--events", "e.csv", "--width", "8", "--height", "8",
                  "--ms-ckpt", "ms.evck", "--out", "gan.evck"],
    "score": ["--events", "e.csv", "--width", "8", "--height", "8",
              "--ms-ckpt", "ms.evck", "--gan-ckpt", "gan.evck",
              "--out", "s.csv"],
    "verify-math": [],
}


@pytest.mark.parametrize("command", SEEDED)
def test_cli_refuses_a_negative_seed(capsys, command):
    assert cli_main([command, *SEEDED[command], "--seed", "-1"]) == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


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
