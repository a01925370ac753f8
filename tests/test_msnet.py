import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evanom import autodiff as ad
from evanom import io, msnet
from evanom.autodiff import ShapeMismatch, Tensor
from evanom.msnet import (EmptyDataset, MsHyper, MsNetParams, encode,
                          encode_t, reconstruct, train_ms)


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
        train_ms(np.zeros((0, 4, 4, 4)), MsHyper(epochs=1))


def test_train_loss_curve_improves(rng):
    # toy structure: one-hot temporal profiles at random bins
    n, b = 40, 4
    data = np.zeros((n, b, 8, 8), dtype=np.float32)
    for i in range(n):
        data[i, rng.integers(0, b)] = rng.random((8, 8)) > 0.5
    hyper = MsHyper(filters=8, epochs=20, batch=8)
    _, curve = train_ms(data, hyper, seed=3)
    assert len(curve) == 20
    assert np.isfinite(curve).all()
    assert curve[-1] <= curve[0]


def test_train_deterministic(rng):
    data = rng.random((12, 4, 6, 6)).astype(np.float32)

    def ckpt():
        params, _ = train_ms(data, MsHyper(filters=8, epochs=3, batch=4),
                             seed=9)
        return io.write_evck(params.to_arrays())
    assert ckpt() == ckpt()


def test_overfit_single_sample(rng):
    # One repeated sample whose per-pixel temporal profiles lie on a
    # one-parameter family (amplitude x fixed profile) -- exactly what a
    # scalar-bottleneck net can represent.  Predicting all zeros would
    # leave MSE ~0.12, so passing requires actually learning the code.
    profile = np.array([0.2, 1.0, -0.6, 0.1], dtype=np.float32)
    amp = rng.random((8, 8)).astype(np.float32)
    sample = amp[None] * profile[:, None, None]
    data = np.repeat(sample[None], 16, axis=0)
    params, _ = train_ms(data, MsHyper(filters=16, epochs=120, lr=1e-2,
                                       lambda_sparse=0.0, batch=1), seed=1)
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


# At 8 filters (the `params` fixture) the blocked and one-pass bits agree
# only below ~20k rows: past that, OpenBLAS rounds the (R,8) x (8,1) enc2
# product differently. This batch has ~5.5k rows. At the shipped 32
# filters they agreed up to 385k rows. `encode` returns the blocked bits.
def test_blocked_encode_equals_one_pass(params, rng):
    batch = _sparse_batch(rng, (3, 4, 48, 48), 0.8)
    mask, rows = msnet._pixel_rows(batch)
    assert len(rows) > 2 * msnet.BLOCK and len(rows) % msnet.BLOCK
    one_pass = encode_t(params, Tensor(rows)).data.reshape(-1)
    np.testing.assert_array_equal(encode(params, batch)[mask], one_pass)


# Trains with ~8.3k non-zero rows per batch, four full blocks and a partial
# one, and writes the EVCK checkpoint to stdout.
_TINY_RECIPE = """
import sys
import numpy as np
from evanom import io, msnet
rng = np.random.default_rng(0)
data = rng.random((8, 8, 48, 48), dtype=np.float32)
data *= rng.random((8, 1, 48, 48)) < 0.9
params, _ = msnet.train_ms(data, msnet.MsHyper(filters=32, epochs=2, batch=4),
                           seed=1)
sys.stdout.buffer.write(io.write_evck(params.to_arrays()))
"""


def test_checkpoint_bytes_do_not_depend_on_blas_threads():
    # Unblocked, OpenBLAS splits the weight gradients' long reductions
    # differently at one thread and at two, and the checkpoints differ.
    src = str(Path(msnet.__file__).resolve().parent.parent)
    procs = [subprocess.Popen(
        [sys.executable, "-c", _TINY_RECIPE], stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n})
        for n in ("1", "2")]
    try:
        ckpts = [p.communicate(timeout=300)[0] for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [0, 0]
    assert ckpts[0][:4] == b"EVCK" and ckpts[0] == ckpts[1]
