"""Acceptance gate: the seven headline checks, at their stated tolerances.

Each test prints a PASS line with the measured numbers so a log skim
shows the margins. Training-based criteria share session fixtures so the
expensive artifacts are built once (and rebuilt once more for the
determinism criterion).
"""
import hashlib
import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

import evanom.autodiff as ad
from evanom import events, experiments, io, msnet, oracle, pipeline
from evanom.autodiff import Tensor
from evanom.msnet import MsNetParams
from evanom.representation import discretize

from conftest import random_stream
from test_autodiff import (_away_from_zero, _sum_loss, check_gradients,
                           random_shapes)
from test_representation import brute_force_bilinear


def report(num, name, detail):
    print(f"\nACCEPTANCE {num} PASS ({name}): {detail}")


# ------------------------------------------------------------- criterion 1

def test_acceptance_1_optimal_discriminator_theorem():
    start = time.time()
    worst = oracle.verify(100, seed=0, max_outcomes=4)
    elapsed = time.time() - start
    assert worst["d_xy"] < 1e-8
    assert worst["d_x"] < 1e-8
    assert worst["decomposition"] < 1e-10
    assert elapsed < 10.0
    report(1, "optimal-discriminator theorem",
           f"worst D_xy {worst['d_xy']:.2e}, D_x {worst['d_x']:.2e}, "
           f"decomposition {worst['decomposition']:.2e}, {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 2

def _op_cases(rng):
    """(name, make_loss, arrays) for every differentiable op, one case."""
    n, c, h, w = (int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                  int(rng.integers(4, 7)), int(rng.integers(4, 7)))
    o, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    shp = tuple(int(rng.integers(1, 5)) for _ in range(2))
    yield ("add", _sum_loss(ad.add), [rng.standard_normal(shp)] * 2)
    yield ("mul", _sum_loss(ad.mul), [rng.standard_normal(shp)] * 2)
    yield ("sigmoid", _sum_loss(ad.sigmoid), [rng.standard_normal(shp)])
    yield ("tanh", _sum_loss(ad.tanh), [rng.standard_normal(shp)])
    yield ("leaky_relu", _sum_loss(ad.leaky_relu),
           [_away_from_zero(rng, shp)])
    yield ("concat", _sum_loss(lambda a, b: ad.concat([a, b])),
           [rng.standard_normal((n, c, h, w)),
            rng.standard_normal((n, o, h, w))])
    yield ("conv2d",
           _sum_loss(lambda x, wt, b: ad.conv2d(x, wt, b, stride=2, pad=1)),
           [rng.standard_normal((n, c, h, w)),
            rng.standard_normal((o, c, k, k)), rng.standard_normal(o)])
    yield ("conv_transpose2d",
           _sum_loss(lambda x, wt, b:
                     ad.conv_transpose2d(x, wt, b, stride=2, pad=1)),
           [rng.standard_normal((n, c, h, w)),
            rng.standard_normal((c, o, 4, 4)), rng.standard_normal(o)])
    yield ("channel_mix",
           _sum_loss(lambda x, wt, b: ad.channel_mix(x, wt, b)),
           [rng.standard_normal((n, c, h, w)),
            rng.standard_normal((o, c)), rng.standard_normal(o)])
    yield ("dense", _sum_loss(lambda x, wt, b: ad.dense(x, wt, b)),
           [rng.standard_normal((n, h)), rng.standard_normal((h, o)),
            rng.standard_normal(o)])
    yield ("reshape",
           _sum_loss(lambda x: ad.reshape(x, (x.shape[0], -1))),
           [rng.standard_normal((n, c, h))])
    yield ("mse_loss", lambda a, b: ad.mse_loss(a, b),
           [rng.standard_normal(shp), rng.standard_normal(shp)])
    yield ("bce_with_logits",
           lambda lg: ad.bce_with_logits(lg, Tensor(
               np.round(np.random.default_rng(0).random(shp)))),
           [rng.standard_normal(shp)])
    yield ("l1_norm", lambda a: ad.l1_norm(a), [_away_from_zero(rng, shp)])


def test_acceptance_2_gradient_fidelity():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = {}
    for trial in range(10):
        for name, make_loss, arrays in _op_cases(rng):
            err = check_gradients(make_loss, arrays, seed=trial)
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.time() - start
    assert max(worst.values()) < 1e-4
    assert elapsed < 60.0
    report(2, "gradient fidelity",
           f"{len(worst)} ops x 10 shapes, worst rel err "
           f"{max(worst.values()):.2e} ({max(worst, key=worst.get)}), "
           f"{elapsed:.1f}s")


# ------------------------------------------------------------- criterion 3

def test_acceptance_3_representation_conservation():
    rng = np.random.default_rng(33)
    for _ in range(100):
        stream = random_stream(rng, n=int(rng.integers(1, 400)))
        vol = discretize(stream, 0, 10_000, 10, "count")
        assert vol.data.sum() == len(stream)
    # single event at 75% of a bin: 0.75/0.25 split across neighbors
    s = events.EventStream.from_arrays(4, 4, [1], [2], [1750], [1])
    vol = discretize(s, 0, 1_000, 4, "bilinear")
    np.testing.assert_allclose(vol.data[2, 2, 1], 0.75, atol=1e-7)
    np.testing.assert_allclose(vol.data[1, 2, 1], 0.25, atol=1e-7)
    # oracle comparison on full streams (float32 accumulation noise only)
    worst = 0.0
    for _ in range(20):
        stream = random_stream(rng, n=100)
        vol = discretize(stream, 0, 12_500, 8, "bilinear")
        ref = brute_force_bilinear(stream, 0, 12_500, 8)
        worst = max(worst, np.abs(vol.data - ref).max())
    assert worst < 1e-5
    report(3, "representation conservation",
           f"count exact on 100 streams; single-event split exact to 1e-7; "
           f"bilinear vs oracle on 20 streams {worst:.2e}")


# ----------------------------------------------- shared training artifacts

SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="session")
def desk_cfg():
    return experiments.desk_config()


@pytest.fixture(scope="session")
def ms_run(desk_cfg):
    """Criterion-4 artifacts: (initial_mse, final_mse, surfaces, ckpt, secs)."""
    windows = experiments.training_windows(1, desk_cfg)
    vols = experiments.normalized_volumes(windows, desk_cfg)
    start = time.time()
    init_params = MsNetParams.init(desk_cfg.bins, desk_cfg.ms_filters,
                                   np.random.default_rng(1))
    initial = float(np.mean((msnet.reconstruct(init_params, vols) - vols) ** 2))
    params, _ = msnet.train_ms(vols, desk_cfg, seed=1)
    elapsed = time.time() - start
    final = float(np.mean((msnet.reconstruct(params, vols) - vols) ** 2))
    surfaces = msnet.encode(params, vols)
    return initial, final, surfaces, io.write_evck(params.to_arrays()), elapsed


def run_seed(seed, cfg):
    """Train and score one seed; returns (ckpt blobs, score CSV, metrics)."""
    ms_params, _, gan_params, _ = experiments.train_models(seed, cfg)
    series = experiments.score_mixed_scene(seed, ms_params, gan_params, cfg)
    metrics = pipeline.evaluate(series)
    blobs = (io.write_evck(ms_params.to_arrays()),
             io.write_evck(gan_params.to_arrays()))
    return blobs, pipeline.write_score_csv(series), series, metrics


@pytest.fixture(scope="session")
def seed_runs(desk_cfg):
    runs = {}
    for seed in SEEDS:
        start = time.time()
        runs[seed] = (*run_seed(seed, desk_cfg), time.time() - start)
    return runs


# ------------------------------------------------------------- criterion 4

def test_acceptance_4_memory_surface_training(ms_run):
    initial, final, surfaces, _, elapsed = ms_run
    assert final <= 0.1 * initial
    assert (surfaces > 0).all() and (surfaces < 1).all()
    assert elapsed < 300.0
    report(4, "memory-surface training",
           f"MSE {initial:.5f} -> {final:.6f} "
           f"(ratio {final / initial:.4f} <= 0.1), bottleneck in (0,1), "
           f"{elapsed:.0f}s")


# ------------------------------------------------------------- criterion 5

def test_acceptance_5_anomaly_separation(seed_runs):
    aucs, lines = [], []
    for seed in SEEDS:
        _, _, series, metrics, elapsed = seed_runs[seed]
        anom = series.scores[series.labels == 1].mean()
        norm = series.scores[series.labels == 0].mean()
        assert anom > norm, f"seed {seed}: no separation"
        assert elapsed < 900.0
        aucs.append(metrics.auc)
        lines.append(f"seed {seed}: auc {metrics.auc:.3f} "
                     f"anom/norm {anom:.4f}/{norm:.4f} ({elapsed:.0f}s)")
    mean_auc = float(np.mean(aucs))
    assert mean_auc >= 0.85
    report(5, "end-to-end anomaly separation",
           "; ".join(lines) + f"; mean AUC {mean_auc:.3f} >= 0.85")


# ------------------------------------------------------------- criterion 6

def test_acceptance_6_determinism(desk_cfg, ms_run, seed_runs):
    vols = experiments.normalized_volumes(
        experiments.training_windows(1, desk_cfg), desk_cfg)
    params, _ = msnet.train_ms(vols, desk_cfg, seed=1)
    assert io.write_evck(params.to_arrays()) == ms_run[3]
    for seed in SEEDS:
        blobs, csv, _, _, _ = seed_runs[seed]
        blobs2, csv2, _, _ = run_seed(seed, desk_cfg)
        assert blobs2 == blobs, f"seed {seed}: checkpoint bytes differ"
        assert csv2 == csv, f"seed {seed}: score CSV differs"
    report(6, "determinism",
           f"repeat of criteria 4-5 bit-identical over seeds {SEEDS}")


# ---------------------------------------------------- pinned recipe bytes

DIGESTS = Path(__file__).with_name("recipe_digests.json")


def recipe_environment():
    """What the recipe's bytes depend on besides (data, seed): the numpy
    build, its BLAS, the CPU model (by which BLAS picks its kernels) and
    the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.partition(":")[2].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu, "machine": platform.machine()}


def test_recipe_bytes_match_the_pinned_digests(seed_runs):
    """The five desk seeds' MS checkpoint, GAN checkpoint and score CSV
    have the SHA-256 digests committed for this environment. A change
    that moves them on purpose updates recipe_digests.json."""
    env = recipe_environment()
    pinned = next((e["digests"] for e in json.loads(DIGESTS.read_text())
                   if e["environment"] == env), None)
    if pinned is None:
        pytest.skip(f"no pinned digests for environment {env}")
    got = {}
    for seed in SEEDS:
        (ms, gan), csv, _, _, _ = seed_runs[seed]
        got[str(seed)] = {
            name: hashlib.sha256(blob).hexdigest()
            for name, blob in (("ms", ms), ("gan", gan),
                               ("csv", csv.encode()))}
    assert got == pinned


# ------------------------------------------------------------- criterion 7

def test_acceptance_7_round_trips():
    rng = np.random.default_rng(77)
    for _ in range(20):
        stream = random_stream(rng, n=int(rng.integers(0, 300)))
        assert events.parse_event_csv(events.write_event_csv(stream),
                                      stream.width, stream.height) == stream
        vol = discretize(stream, 0, 10_000, int(rng.integers(1, 9)),
                         "bilinear")
        back = io.read_evol(io.write_evol(vol))
        assert (back.data == vol.data).all()
        assert (back.bins, back.t0, back.bin_dt, back.mode) == \
            (vol.bins, vol.t0, vol.bin_dt, vol.mode)
        arrays = {f"t{i}": rng.standard_normal(
            tuple(int(rng.integers(1, 5))
                  for _ in range(int(rng.integers(1, 4))))).astype(np.float32)
            for i in range(int(rng.integers(1, 6)))}
        back_arrays = io.read_evck(io.write_evck(arrays))
        assert set(back_arrays) == set(arrays)
        for k in arrays:
            assert (back_arrays[k] == arrays[k]).all()
    report(7, "round-trip formats",
           "event CSV, EVOL, EVCK bit-exact on 20 seeded payloads")
