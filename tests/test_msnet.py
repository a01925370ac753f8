import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evanom import autodiff as ad
from evanom import io, msnet
from evanom.autodiff import ShapeMismatch, Tensor
from evanom.msnet import (DivergenceDetected, EmptyDataset, MsNetParams,
                          encode, encode_t, reconstruct, train_ms)
from evanom.pipeline import PipelineConfig


@pytest.fixture
def rng():
    return np.random.default_rng(5)


@pytest.fixture
def params(rng):
    return MsNetParams.init(bins=4, filters=8, rng=rng)


def test_encode_output_in_open_interval(params, rng):
    vols = rng.standard_normal((3, 4, 6, 6)).astype(np.float32)
    ms = encode(params, vols)
    assert ms.shape == (3, 6, 6)
    assert (ms > 0).all() and (ms < 1).all()


def test_encode_zero_volume_is_constant(params):
    ms = encode(params, np.zeros((1, 4, 5, 7), dtype=np.float32))
    assert np.ptp(ms) == 0.0


def test_encode_translation_equivariance(params, rng):
    vol = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
    shifted = np.roll(vol, shift=2, axis=3)
    np.testing.assert_array_equal(np.roll(encode(params, vol), 2, axis=2),
                                  encode(params, shifted))


def test_encode_shape_mismatch(params, rng):
    with pytest.raises(ShapeMismatch):
        encode(params, rng.standard_normal((1, 5, 6, 6)))


def test_reconstruct_is_decode_of_encode(params, rng):
    vol = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
    out = reconstruct(params, vol)
    assert out.shape == vol.shape
    # composition: deterministic
    np.testing.assert_array_equal(out, reconstruct(params, vol))
    # past one block of rows it still matches the dense 4-D forward
    batch = _sparse_batch(rng, (2, 4, 72, 72), 0.9)
    assert batch.any(axis=1).sum() > msnet._ENCODE_BLOCK
    np.testing.assert_allclose(
        reconstruct(params, batch),
        msnet.decode_t(params, encode_t(params, Tensor(batch))).data,
        rtol=0, atol=1e-6)


def ms_loss(vol: np.ndarray, vol_hat: np.ndarray, ms: np.ndarray,
            lambda_sparse: float) -> float:
    """Float64 reference of the training loss:
    mean||vol - vol_hat||^2 + lambda * mean|ms|."""
    if lambda_sparse < 0:
        raise ValueError("lambda_sparse must be >= 0")
    vol = np.asarray(vol, dtype=np.float64)
    vol_hat = np.asarray(vol_hat, dtype=np.float64)
    if vol.shape != vol_hat.shape:
        raise ShapeMismatch(f"{vol.shape} vs {vol_hat.shape}")
    return float(np.mean((vol - vol_hat) ** 2)
                 + lambda_sparse * np.mean(np.abs(ms)))


def test_ms_loss_cases(rng):
    vol = rng.standard_normal((2, 4, 4))
    ms = rng.random((4, 4))
    assert ms_loss(vol, vol, ms, 0.0) == 0.0
    assert ms_loss(vol, vol + 1.0, ms, 0.0) == pytest.approx(1.0)
    assert ms_loss(vol, vol, ms, 0.5) > 0.0
    assert ms_loss(vol, vol, np.zeros((4, 4)), 0.5) == 0.0


def test_ms_loss_validation(rng):
    with pytest.raises(ShapeMismatch):
        ms_loss(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        ms_loss(np.zeros(2), np.zeros(2), np.zeros(2), -1.0)


def test_train_rejects_empty():
    with pytest.raises(EmptyDataset):
        train_ms(np.zeros((0, 4, 4, 4)), PipelineConfig(ms_epochs=1))


def test_train_loss_curve_improves(rng):
    # toy structure: one-hot temporal profiles at random bins
    n, b = 40, 4
    data = np.zeros((n, b, 8, 8), dtype=np.float32)
    for i in range(n):
        data[i, rng.integers(0, b)] = rng.random((8, 8)) > 0.5
    cfg = PipelineConfig(ms_filters=8, ms_epochs=20, ms_batch=8)
    _, curve = train_ms(data, cfg, seed=3)
    assert len(curve) == 20
    assert np.isfinite(curve).all()
    assert curve[-1] <= curve[0]


def test_train_deterministic(rng):
    data = rng.random((12, 4, 6, 6)).astype(np.float32)

    def ckpt():
        params, _ = train_ms(data, PipelineConfig(
            ms_filters=8, ms_epochs=3, ms_batch=4), seed=9)
        return io.write_evck(params.to_arrays())
    assert ckpt() == ckpt()


def test_divergence_carries_last_finite_params(rng):
    """At lr 1e30 the first step leaves finite weights near 1e30, whose
    reconstruction MSE overflows float32 on the next step."""
    data = rng.random((8, 4, 6, 6)).astype(np.float32)
    with pytest.raises(DivergenceDetected, match="non-finite") as exc:
        train_ms(data, PipelineConfig(ms_filters=8, ms_epochs=2, ms_batch=4,
                                      ms_lr=1e30), seed=0)
    params = exc.value.params
    assert isinstance(params, MsNetParams)
    assert list(params) == list(MsNetParams.NAMES)
    assert np.abs(params["ms.enc1.w"].data).max() > 1e29   # one step taken
    for arr in params.to_arrays().values():
        assert np.isfinite(arr).all()


def test_load_reads_width_from_checkpoint(params):
    """The filter count comes from the arrays; the bins are checked."""
    back = MsNetParams.load(params.to_arrays(), bins=4)
    assert io.write_evck(back.to_arrays()) == io.write_evck(params.to_arrays())
    with pytest.raises(ad.WrongParamShapes,
                       match=r"ms\.enc1\.w has shape \(8, 4\), expected "
                             r"\(8, 6\) for bins=6, ms_filters=8"):
        MsNetParams.load(params.to_arrays(), bins=6)
    arrays = params.to_arrays()
    del arrays["ms.enc1.w"]
    with pytest.raises(ad.WrongParamNames, match=r"missing \['ms\.enc1\.w'\]"):
        MsNetParams.load(arrays, bins=4)


def test_overfit_single_sample(rng):
    # One repeated sample whose per-pixel temporal profiles lie on a
    # one-parameter family (amplitude x fixed profile) -- exactly what a
    # scalar-bottleneck net can represent.  Predicting all zeros would
    # leave MSE ~0.12, so passing requires actually learning the code.
    profile = np.array([0.2, 1.0, -0.6, 0.1], dtype=np.float32)
    amp = rng.random((8, 8)).astype(np.float32)
    sample = amp[None] * profile[:, None, None]
    data = np.repeat(sample[None], 16, axis=0)
    params, _ = train_ms(data, PipelineConfig(
        ms_filters=16, ms_epochs=120, ms_lr=1e-2, ms_lambda_sparse=0.0,
        ms_batch=1), seed=1)
    mse = np.mean((reconstruct(params, data) - data) ** 2)
    assert np.mean(sample ** 2) > 0.1  # trivial zero predictor is far off
    assert mse < 1e-3


def test_checkpoint_round_trip(params, rng):
    blob = io.write_evck(params.to_arrays())
    back = MsNetParams.from_arrays(io.read_evck(blob))
    vol = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
    np.testing.assert_array_equal(encode(params, vol), encode(back, vol))


# The loss and encode run on non-zero pixel rows, in blocks of
# msnet.BLOCK, plus one all-zero row; the dense 4-D forward on the whole
# batch is their reference. The (2,4,48,48) batch has 4608 non-zero rows:
# two full blocks and a partial one.

BATCHES = [((3, 4, 6, 5), 0.3), ((3, 4, 6, 5), 0.0), ((3, 4, 6, 5), 1.0),
           ((2, 4, 48, 48), 1.0)]
BATCH_IDS = ["some-zero", "all-zero", "none-zero", "three-blocks"]


def _sparse_batch(rng, shape, active):
    """float32 batch whose pixels are non-zero with prob. `active`."""
    n, _, h, w = shape
    batch = rng.standard_normal(shape).astype(np.float32)
    return batch * (rng.random((n, 1, h, w)) < active)


def _dense_loss_and_grads(params, batch, lambda_sparse):
    plist = params.parameters()
    for p in plist:
        p.zero_grad()
    x = Tensor(batch)
    ms = encode_t(params, x)
    loss = ad.mse_loss(msnet.decode_t(params, ms), x)
    loss = ad.add(loss, ad.mul(ad.l1_norm(ms), lambda_sparse))
    ad.backward(loss, plist)
    return loss.item(), [p.grad.copy() for p in plist]


def _row_loss_and_grads(params, batch, lambda_sparse):
    """The blocked loss: the sum of the per-block terms, and its gradient."""
    plist = params.parameters()
    loss = msnet._loss_and_grads(params, plist, batch, lambda_sparse)
    return loss, [p.grad.copy() for p in plist]


@pytest.mark.parametrize("shape, active", BATCHES, ids=BATCH_IDS)
def test_row_loss_matches_dense_loss(params, rng, shape, active):
    batch = _sparse_batch(rng, shape, active)
    assert batch.any(axis=1).mean() == pytest.approx(active, abs=0.2)
    value, grads = _row_loss_and_grads(params, batch, 1e-2)
    ref_value, ref_grads = _dense_loss_and_grads(params, batch, 1e-2)
    assert value == pytest.approx(ref_value, rel=1e-6)
    for name, g, ref in zip(params, grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=1e-5,
                                   atol=1e-6 * np.abs(ref).max(), err_msg=name)


@pytest.mark.parametrize("shape, active", BATCHES, ids=BATCH_IDS)
def test_encode_matches_dense_encode(params, rng, shape, active):
    batch = _sparse_batch(rng, shape, active)
    np.testing.assert_allclose(encode(params, batch),
                               encode_t(params, Tensor(batch)).data[:, 0],
                               rtol=0, atol=1e-6)


# `encode` runs the non-zero rows _ENCODE_BLOCK (8192) a block, training
# BLOCK (2048). One pass over all rows need not give a blocked pass's
# bits: at 8 filters (the `params` fixture) OpenBLAS rounds the (R,8) x
# (8,1) enc2 product of 18k and 59k rows differently. This batch's ~5.5k
# rows, over two training blocks, are one encode block, and match one
# pass; the next test covers several encode blocks.
def test_blocked_encode_equals_one_pass(params, rng):
    batch = _sparse_batch(rng, (3, 4, 48, 48), 0.8)
    mask, parts = msnet._pixel_rows(batch, msnet.BLOCK)
    rows = np.concatenate([x for x, _ in parts[:-1]])
    assert len(rows) > 2 * msnet.BLOCK and len(rows) % msnet.BLOCK
    one_pass = encode_t(params, Tensor(rows)).data.reshape(-1)
    np.testing.assert_array_equal(encode(params, batch)[mask], one_pass)


def test_encode_blocks_give_the_training_blocks_bits(rng):
    """At the shipped 32 filters on 8 bins, two full encode blocks and a
    partial one give the bits of the 2048-row blocked pass."""
    params = MsNetParams.init(bins=8, filters=32, rng=rng)
    batch = _sparse_batch(rng, (2, 8, 128, 80), 0.9)
    mask, parts = msnet._pixel_rows(batch, msnet._ENCODE_BLOCK)
    assert len(parts) > 3 and len(parts[-2][0]) < msnet._ENCODE_BLOCK
    _, parts = msnet._pixel_rows(batch, msnet.BLOCK)
    blocked = np.concatenate([encode_t(params, Tensor(x)).data
                              for x, _ in parts[:-1]])
    np.testing.assert_array_equal(encode(params, batch)[mask],
                                  blocked.reshape(-1))


# Trains both nets on a small walking scene and scores it; prints the
# SHA-256 of the MS and GAN EVCK checkpoints and of the score CSV.
_RECIPE = """
import hashlib
from evanom import gan, io, msnet, pipeline, representation, simulate
stream, track = simulate.render_scene(
    simulate.walking_scene(3, duration=1_000_000, size=32))
cfg = pipeline.PipelineConfig(ms_epochs=2, gan_epochs=1, gan_ngf=8,
                              gan_ndf=8, gan_lambda_l1=50.0)
windows = pipeline.windows_for(stream, cfg)
vols = representation.window_arrays(windows, cfg.cap)[0]
ms, _ = msnet.train_ms(vols, cfg, seed=1)
g, _ = gan.train_gan(windows, ms, cfg, seed=1)
csv = pipeline.write_score_csv(
    pipeline.score_sequence(ms, g, stream, cfg, track=track))
for name, blob in (("ms", io.write_evck(ms.to_arrays())),
                   ("gan", io.write_evck(g.to_arrays())),
                   ("csv", csv.encode())):
    print(name, hashlib.sha256(blob).hexdigest())
"""


def test_checkpoint_bytes_do_not_depend_on_blas_threads():
    # evanom runs BLAS at one thread while it trains and scores. Without
    # that, OpenBLAS splits the GAN's long reductions differently at one
    # thread and at two, and the GAN checkpoints and score CSVs differ.
    src = str(Path(msnet.__file__).resolve().parent.parent)
    procs = [subprocess.Popen(
        [sys.executable, "-c", _RECIPE], stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n})
        for n in ("1", "2")]
    try:
        digests = [p.communicate(timeout=300)[0] for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [0, 0]
    assert [line.split()[0] for line in digests[0].splitlines()] == \
        ["ms", "gan", "csv"]
    assert digests[0] == digests[1]
