"""Memory-surface network: compress a B-bin event volume to one image.

Encoder and decoder act purely across the time dimension (1x1 spatial
kernels), so the spatial layout of events is untouched and the
bottleneck is a single H x W image squeezed through a sigmoid. Loss is
reconstruction MSE plus an L1 sparsity term on the bottleneck.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .representation import DiscretizedVolume


class EmptyDataset(ValueError):
    pass


@dataclass
class MsHyper:
    filters: int = 32
    epochs: int = 50
    lr: float = 1e-3
    lambda_sparse: float = 1e-3
    batch: int = 16


class MsNetParams(ad.Params):
    """Two channel-mix layers each way; sigmoid bottleneck, linear output."""

    NAMES = ("ms.enc1.w", "ms.enc1.b", "ms.enc2.w", "ms.enc2.b",
             "ms.dec1.w", "ms.dec1.b", "ms.dec2.w", "ms.dec2.b")

    @classmethod
    def init(cls, bins: int, filters: int, rng: np.random.Generator,
             dtype=np.float32) -> "MsNetParams":
        return cls.init_layers(rng, [
            ("ms.enc1", (filters, bins), bins, filters),
            ("ms.enc2", (1, filters), filters, 1),
            ("ms.dec1", (filters, 1), 1, filters),
            ("ms.dec2", (bins, filters), filters, bins)], dtype)

    @property
    def bins(self) -> int:
        return self["ms.enc1.w"].shape[1]


def _as_batch(vol) -> np.ndarray:
    if isinstance(vol, DiscretizedVolume):
        return vol.data[None]
    a = np.asarray(vol)
    return a if a.ndim == 4 else a[None]


def _mix(params: MsNetParams, layer: str, x: Tensor) -> Tensor:
    return ad.channel_mix(x, params[f"ms.{layer}.w"], params[f"ms.{layer}.b"])


def encode_t(params: MsNetParams, x: Tensor) -> Tensor:
    return ad.sigmoid(_mix(params, "enc2", ad.sigmoid(_mix(params, "enc1", x))))


def decode_t(params: MsNetParams, ms: Tensor) -> Tensor:
    return _mix(params, "dec2", ad.sigmoid(_mix(params, "dec1", ms)))


def encode(params: MsNetParams, vol) -> np.ndarray:
    """Normalized volume(s) -> memory surface(s), entries in (0,1).

    Accepts a DiscretizedVolume or an (N,B,H,W) array; returns (H,W) for
    a single volume, (N,H,W) for a batch.
    """
    batch = _as_batch(vol)
    if batch.shape[1] != params.bins:
        raise ad.ShapeMismatch(
            f"volume has {batch.shape[1]} bins, net expects {params.bins}")
    out = encode_t(params, Tensor(batch)).data[:, 0]
    return out[0] if (isinstance(vol, DiscretizedVolume)
                      or np.asarray(vol).ndim == 3) else out


def reconstruct(params: MsNetParams, vol) -> np.ndarray:
    """decode(encode(vol)); deterministic, same shape as the input data."""
    batch = _as_batch(vol)
    if batch.shape[1] != params.bins:
        raise ad.ShapeMismatch(
            f"volume has {batch.shape[1]} bins, net expects {params.bins}")
    out = decode_t(params, encode_t(params, Tensor(batch))).data
    return out[0] if (isinstance(vol, DiscretizedVolume)
                      or np.asarray(vol).ndim == 3) else out


def ms_loss(vol: np.ndarray, vol_hat: np.ndarray, ms: np.ndarray,
            lambda_sparse: float) -> float:
    """mean||vol - vol_hat||^2 + lambda * mean|ms|."""
    if lambda_sparse < 0:
        raise ValueError("lambda_sparse must be >= 0")
    vol = np.asarray(vol, dtype=np.float64)
    vol_hat = np.asarray(vol_hat, dtype=np.float64)
    if vol.shape != vol_hat.shape:
        raise ad.ShapeMismatch(f"{vol.shape} vs {vol_hat.shape}")
    return float(np.mean((vol - vol_hat) ** 2)
                 + lambda_sparse * np.mean(np.abs(ms)))


def _loss_t(params: MsNetParams, x: Tensor, lambda_sparse: float) -> Tensor:
    ms = encode_t(params, x)
    out = decode_t(params, ms)
    loss = ad.mse_loss(out, x.detach())
    if lambda_sparse > 0:
        loss = ad.add(loss, ad.mul(ad.l1_norm(ms), lambda_sparse))
    return loss


def train_ms(dataset, hyper: MsHyper, seed: int = 0,
             params: MsNetParams | None = None):
    """Train on (N,B,H,W) normalized volumes; returns (params, loss curve).

    Deterministic for a fixed seed: init, minibatch shuffling, and update
    order are all driven by one seeded RNG.
    """
    data = np.asarray(dataset, dtype=np.float32)
    if data.ndim == 3:
        data = data[None]
    if data.ndim != 4 or data.shape[0] == 0:
        raise EmptyDataset(f"need a non-empty (N,B,H,W) dataset, got {data.shape}")
    rng = np.random.default_rng(seed)
    if params is None:
        params = MsNetParams.init(data.shape[1], hyper.filters, rng)
    state = ad.AdamState(lr=hyper.lr)
    plist = params.parameters()
    curve = []
    n = len(data)
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hyper.batch):
            idx = order[start:start + hyper.batch]
            x = Tensor(data[idx])
            loss = _loss_t(params, x, hyper.lambda_sparse)
            for p in plist:
                p.zero_grad()
            ad.backward(loss, plist)
            ad.adam_step(plist, state)
            total += loss.item() * len(idx)
        curve.append(total / n)
    return params, curve
