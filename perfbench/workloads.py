"""The benchmark's workloads: inputs made from a seed, and one timed pass.

`simulate` is the load generator. The program under test receives only
what it generates: training scenes rendered to events, and labeled test
streams handed over as event CSV text, the way the CLI receives them.

Every workload trains a detector (memory-surface net, then the GAN) on
walking scenes, hands the weights through EVCK as the CLI does from
train to score, and scores test streams through
parse_event_csv -> score_sequence -> write_score_csv -> evaluate. The
test streams are rendered once per pass, before set-up; set-up (timed
as setup_s, the median of at least SETUPS repeats and SETUP_MIN_S
seconds) renders and windows the training scenes and, for
stream_score, trains the detector.

- desk_train: the desk recipe (`experiments.desk_config`) on its three
  clean walking scenes, then eight mixed test scenes, the first the one
  `experiments.score_mixed_scene` pairs with the seed. Epochs are cut
  from 50 + 8 to 6 + 1 so a run fits; the cost per epoch is the same.
- dense_train: the same with 20 background events/pixel/s on every
  scene, so almost no pixel vector is zero and sparsity cannot help.
- stream_score: a detector trained in set-up on one desk scene (scoring
  cost does not depend on the weights), then mixed and trajectory test
  streams scored round-robin for the whole run: forward passes only.
"""
from __future__ import annotations

import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from evanom import (events, experiments, gan, io, msnet, pipeline,
                    representation, simulate)

import checks
import hostspeed

SETUPS = 3          # set-ups per run at least; setup_s is their median
SETUP_MIN_S = 1.0   # ... and this many seconds of it: a desk set-up takes ~0.08 s
HOST_EVERY = 2      # streams between host-speed calibrations


@dataclass(frozen=True)
class Workload:
    name: str
    noise_rate: float      # background events / pixel / s on every scene
    ms_epochs: int
    gan_epochs: int
    scenes: int            # walking scenes the detector is trained on
    train_in_setup: bool   # build the detector in each set-up; train_s times those
    mixed: int             # test streams from mixed_test_scene ...
    trajectory: int        # ... and from trajectory_anomaly_scene
    min_streams: int       # streams scored per run at least

    @property
    def tail_percentile(self) -> float:
        """The highest percentile with ten of min_streams samples beyond
        it. Fixed per workload, so every run reports the same statistic."""
        return 100 * (1 - 10 / self.min_streams)

    def config(self) -> pipeline.PipelineConfig:
        return replace(experiments.desk_config(), ms_epochs=self.ms_epochs,
                       gan_epochs=self.gan_epochs)

    def training_scenes(self, seed: int) -> list[simulate.SceneConfig]:
        # Same scene seeds as experiments.training_windows.
        return [replace(simulate.walking_scene(100 * seed + s),
                        noise_rate=self.noise_rate) for s in range(self.scenes)]

    def test_scenes(self, seed: int) -> list[simulate.SceneConfig]:
        # The first is the mixed scene experiments.score_mixed_scene pairs
        # with this seed; the rest have seeds drawn from it.
        n = self.mixed + self.trajectory
        seeds = [1000 + seed] + [int(s) for s in np.random.default_rng(seed)
                                 .integers(0, 2**31 - 1, size=n - 1)]
        makers = ([simulate.mixed_test_scene] * self.mixed
                  + [simulate.trajectory_anomaly_scene] * self.trajectory)
        return [replace(make(s), noise_rate=self.noise_rate)
                for make, s in zip(makers, seeds)]


WORKLOADS = {w.name: w for w in (
    Workload("desk_train", noise_rate=0.0, ms_epochs=6, gan_epochs=1, scenes=3,
             train_in_setup=False, mixed=8, trajectory=0, min_streams=30),
    Workload("dense_train", noise_rate=20.0, ms_epochs=6, gan_epochs=1, scenes=3,
             train_in_setup=False, mixed=8, trajectory=0, min_streams=25),
    Workload("stream_score", noise_rate=0.0, ms_epochs=2, gan_epochs=1, scenes=1,
             train_in_setup=True, mixed=9, trajectory=3, min_streams=40),
)}


@dataclass
class TestStream:
    name: str
    csv: str
    track: simulate.LabelTrack
    width: int
    height: int
    events: int
    frames: int          # window count the stream's duration implies


@dataclass
class Detector:
    ms: msnet.MsNetParams
    gan: gan.GanParams
    blobs: tuple[bytes, bytes]   # EVCK checkpoints (ms, gan)
    ms_curve: list
    gan_curves: dict
    train_s: float


@dataclass
class Inputs:
    windows: list
    vols: np.ndarray
    train_events: list[int]
    detector: Detector | None

    def digests(self) -> list[str]:
        out = [checks.digest(self.vols.tobytes())]
        if self.detector is not None:
            out += [checks.digest(b) for b in self.detector.blobs]
        return out


def train(windows, vols, cfg, seed: int) -> Detector:
    """experiments.train_models on given windows, then the EVCK hand-off."""
    t = time.perf_counter()
    ms, ms_curve = msnet.train_ms(vols, cfg.ms_hyper(), seed=seed)
    g, gan_curves = gan.train_gan(windows, ms, cfg.gan_hyper(), seed=seed)
    train_s = time.perf_counter() - t
    blobs = (io.write_evck(ms.to_arrays()), io.write_evck(g.to_arrays()))
    ms = msnet.MsNetParams.from_arrays(io.read_evck(blobs[0]))
    g = gan.GanParams.from_arrays(io.read_evck(blobs[1]))
    return Detector(ms, g, blobs, ms_curve, gan_curves, train_s)


def make_tests(wl: Workload, seed: int, cfg) -> list[TestStream]:
    """The load: labeled test streams rendered to event CSV text."""
    tests = []
    for k, scene in enumerate(wl.test_scenes(seed)):
        stream, track = simulate.render_scene(scene)
        tests.append(TestStream(
            f"stream{k}", events.write_event_csv(stream), track, scene.width,
            scene.height, len(stream),
            checks.expected_frames(int(stream.t[-1]), cfg)))
    return tests


def make_inputs(wl: Workload, seed: int, cfg) -> Inputs:
    """The set-up: render and window the training data and, for
    stream_score, build the detector."""
    windows, train_events = [], []
    for scene in wl.training_scenes(seed):
        stream, _ = simulate.render_scene(scene)
        train_events.append(len(stream))
        windows += representation.sliding_windows(
            stream, cfg.bin_dt_us, cfg.bins, stride=cfg.stride, mode=cfg.mode,
            t0=0, duration=int(stream.t[-1]))
    vols = experiments.normalized_volumes(windows, cfg)
    detector = train(windows, vols, cfg, seed) if wl.train_in_setup else None
    return Inputs(windows, vols, train_events, detector)


@dataclass
class Scored:
    stream: events.EventStream
    series: pipeline.ScoreSeries
    csv: str
    auc: float


@dataclass
class Pass:
    """What one timed pass produced and how long its parts took."""

    tests: list[TestStream]
    inputs: Inputs        # from the first set-up, with its detector
    setup_s: list[float]
    train_s: list[float]
    latencies: list[float] = field(default_factory=list)
    frames: int = 0
    first: dict[int, Scored] = field(default_factory=dict)  # pool index -> first score
    scored: list[tuple[int, bool]] = field(default_factory=list)  # (pool index, ok)
    problems: list[str] = field(default_factory=list)  # not tied to one stream
    # hostspeed.measure() times taken around each timed phase:
    # "setup", "train" and "streams"
    host_s: dict[str, list[float]] = field(default_factory=dict)
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0   # process high-water mark when the pass ended

    @property
    def detector(self) -> Detector:
        return self.inputs.detector

    def host_scale(self, phase: str) -> float:
        """Factor that turns seconds of this run's `phase` into seconds
        of the reference host (see hostspeed.py)."""
        return hostspeed.REFERENCE_S / statistics.median(self.host_s[phase])

    def output_digests(self) -> list[str]:
        return ([checks.digest(b) for b in self.detector.blobs]
                + [checks.digest(self.first[k].csv) for k in sorted(self.first)])


def timed_pass(wl: Workload, seed: int, seconds: float, setups: int,
               setup_min_s: float = 0.0, n_streams: int | None = None,
               tracer=None) -> Pass:
    """Render the test streams, set up at least `setups` times and until
    `setup_min_s` seconds were spent in set-up, train (unless set-up
    did), then score the test streams round-robin until `seconds`
    have passed since set-up ended and at least `wl.min_streams` streams
    and the whole pool were scored; or exactly `n_streams` streams if
    given. Host speed is measured after each set-up, three times before
    and after training, and every HOST_EVERY streams, outside every
    timed step.
    `tracer` is active throughout."""
    cfg = wl.config()
    with tracer or nullcontext():
        t_pass = time.perf_counter()
        pool = make_tests(wl, seed, cfg)
        hostspeed.measure()   # warm-up, and slow right after rendering: not kept
        setup_s, train_s, problems = [], [], []
        host_s = {"setup": [], "train": [], "streams": []}
        inputs = digests = None
        while len(setup_s) < setups or sum(setup_s) < setup_min_s:
            t = time.perf_counter()
            made = make_inputs(wl, seed, cfg)
            setup_s.append(time.perf_counter() - t)
            if made.detector is not None:
                train_s.append(made.detector.train_s)
            if inputs is None:
                inputs, digests = made, made.digests()
            elif made.digests() != digests:
                problems.append("repeated set-up produced different inputs")
            del made   # so the next set-up does not run beside two others
            host_s["setup"].append(hostspeed.measure())
        t_measure = time.perf_counter()
        if inputs.detector is None:
            host_s["train"] += [hostspeed.measure() for _ in range(3)]
            inputs.detector = train(inputs.windows, inputs.vols, cfg, seed)
            train_s.append(inputs.detector.train_s)
            host_s["train"] += [hostspeed.measure() for _ in range(3)]
        else:   # trained inside each set-up
            host_s["train"] = host_s["setup"]
        det = inputs.detector
        run = Pass(pool, inputs, setup_s, train_s, problems=problems,
                   host_s=host_s)
        least = max(wl.min_streams, len(pool))
        i = 0
        while (i < n_streams if n_streams is not None else
               i < least or time.perf_counter() - t_measure < seconds):
            k = i % len(pool)
            ts = pool[k]
            i += 1
            if i % HOST_EVERY == 0:
                host_s["streams"].append(hostspeed.measure())
            try:
                t = time.perf_counter()
                stream = events.parse_event_csv(ts.csv, ts.width, ts.height)
                series = pipeline.score_sequence(det.ms, det.gan, stream, cfg,
                                                 track=ts.track)
                csv = pipeline.write_score_csv(series)
                auc = pipeline.evaluate(series).auc
                run.latencies.append(time.perf_counter() - t)
            except Exception:
                run.problems.append(f"{ts.name} raised:\n{traceback.format_exc()}")
                run.scored.append((k, False))
                continue
            run.frames += len(series)
            if k not in run.first:
                run.first[k] = Scored(stream, series, csv, auc)
            run.scored.append((k, csv == run.first[k].csv))
        run.wall_s = time.perf_counter() - t_pass
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


def pooled_series(run: Pass) -> pipeline.ScoreSeries | None:
    """All frames of the pool's first scoring, as one labeled series;
    None if no stream was scored."""
    firsts = [run.first[k].series for k in sorted(run.first)]
    if not firsts:
        return None
    return pipeline.ScoreSeries(0, 1, np.concatenate([s.scores for s in firsts]),
                                np.concatenate([s.labels for s in firsts]))


def _recon_mse(params, vols) -> float:
    return float(np.mean((msnet.reconstruct(params, vols).astype(np.float64)
                          - vols) ** 2))


def check(wl: Workload, seed: int, run: Pass) -> tuple[int, int, list[str]]:
    """Correctness checks on a finished pass: (attempted, failed, problems).

    A training run or a scored stream is one attempt; it fails if it
    raised or any check on its output failed.
    """
    cfg = wl.config()
    det, vols = run.detector, run.inputs.vols
    bad_train = checks.finite_losses("ms", det.ms_curve)
    for name, curve in det.gan_curves.items():
        bad_train += checks.finite_losses(f"gan.{name}", curve)
    bad_train += checks.surfaces_in_open_unit(
        "training volumes", msnet.encode(det.ms, vols))
    init = msnet.MsNetParams.init(cfg.bins, cfg.ms_filters,
                                  np.random.default_rng(seed))
    bad_train += checks.reconstruction_falls(_recon_mse(init, vols),
                                             _recon_mse(det.ms, vols))
    if (io.write_evck(det.ms.to_arrays()), io.write_evck(det.gan.to_arrays())) \
            != det.blobs:
        bad_train.append("EVCK checkpoints do not round-trip bit-exactly")

    bad_pool = set()
    problems = list(run.problems) + bad_train
    for k, sc in run.first.items():
        ts = run.tests[k]
        found = checks.scored_stream(ts.name, sc.series, sc.csv,
                                     pipeline.read_score_csv(sc.csv), sc.auc,
                                     ts.frames)
        windows = representation.sliding_windows(
            sc.stream, cfg.bin_dt_us, cfg.bins, stride=cfg.stride, mode=cfg.mode,
            t0=0, duration=int(sc.stream.t[-1]))
        surfaces, _ = gan.prepare_batches(windows, det.ms, cfg.cap)
        found += checks.surfaces_in_open_unit(ts.name, surfaces)
        if found:
            bad_pool.add(k)
            problems += found
    pooled = pooled_series(run)
    if pooled is None:
        problems.append("no stream was scored")
    else:
        problems += checks.auc_agrees("pooled", pooled.scores, pooled.labels,
                                      pipeline.evaluate(pooled).auc)
    failed_streams = sum(1 for k, ok in run.scored if not ok or k in bad_pool)
    if any(not ok and k in run.first for k, ok in run.scored):
        problems.append("a stream scored differently when repeated")
    attempted = len(run.train_s) + len(run.scored)
    failed = (len(run.train_s) if bad_train else 0) + failed_streams
    return attempted, failed, problems


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile. The rank is rounded before its ceiling
    so float error in p (66.666...% of 30 is 20.000000000000004) does
    not move it one up."""
    xs = sorted(xs)
    return xs[max(0, int(np.ceil(round(p / 100 * len(xs), 9))) - 1)]


def end_to_end(wl: Workload, run: Pass) -> dict[str, float]:
    """The end-to-end metrics, every time in seconds of the reference
    host (see hostspeed.py). A run in which no stream was scored fails
    its checks; its stream metrics then read 0."""
    lat, pooled = run.latencies, pooled_series(run)
    scale = run.host_scale("streams")
    return {
        "setup_s": statistics.median(run.setup_s) * run.host_scale("setup"),
        "train_s": statistics.median(run.train_s) * run.host_scale("train"),
        "auc": pipeline.evaluate(pooled).auc if pooled is not None else 0.0,
        "score_fps": run.frames / sum(lat) / scale if lat else 0.0,
        "stream_latency_p50_s": percentile(lat, 50) * scale if lat else 0.0,
        "stream_latency_tail_s":
            percentile(lat, wl.tail_percentile) * scale if lat else 0.0,
        "peak_rss_mb": run.peak_rss_mb,
    }


def properties(run: Pass) -> dict:
    """Input properties later sparse-path changes depend on."""
    vols = run.inputs.vols
    rows = vols.transpose(0, 2, 3, 1).reshape(-1, vols.shape[1])
    tests = run.tests
    return {
        "training_events_per_stream": statistics.mean(run.inputs.train_events),
        "test_events_per_stream": statistics.mean(t.events for t in tests),
        "windows": len(run.inputs.windows),
        "test_streams": len(tests),
        "frames_per_pool_pass": sum(t.frames for t in tests),
        "pixel_vectors": len(rows),
        "nonzero_row_frac": float(np.mean(rows.any(axis=1))),
        "unique_row_frac": len(np.unique(rows, axis=0)) / len(rows),
    }
