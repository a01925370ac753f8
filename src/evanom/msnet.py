"""Memory-surface network: compress a B-bin event volume to one image.

Encoder and decoder act purely across the time dimension (1x1 spatial
kernels), so the spatial layout of events is untouched and the
bottleneck is a single H x W image squeezed through a sigmoid. Loss is
reconstruction MSE plus an L1 sparsity term on the bottleneck.

With 1x1 kernels the net is a per-pixel B -> F -> 1 -> F -> B MLP, and
every pixel with no events in its window gives the same output. `encode`,
`reconstruct` and `train_ms` therefore run only the pixels' non-zero
B-vectors, as an (R,B,1,1) batch, plus the one all-zero vector. Training
weights the zero vector's terms by its count, so the loss equals the
dense mean over every pixel; `encode_t`/`decode_t` on a whole (N,B,H,W)
batch give the same values and serve as the reference in the tests.

The non-zero rows run in consecutive blocks of `BLOCK` rows. A training
step runs each block's forward and backward in turn, its term weighted
by its share of the batch's pixels, so a block's (BLOCK,F) activations
stay in cache and each weight gradient is a sum of per-block products
in block order. At 2048 rows a block runs as fast as any size tried on
dense scenes, and its products are short enough that OpenBLAS reduces
them the same way at one thread or two, so checkpoints do not depend on
the BLAS thread count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


# Rows per block. On dense data 2048 and 4096 tie as the fastest of 1024 to
# 8192 (2 epochs of train_ms on 64 volumes of 8x64x64 at 98% non-zero
# pixels, one BLAS thread: 0.28 s at both, 0.32 s at 8192, 0.56 s
# unblocked), and 2048 is the largest of 2048, 4096 and 8192 at which the
# seed-1 desk MS checkpoint is byte-equal at OPENBLAS_NUM_THREADS=1 and =2.
BLOCK = 2048


class EmptyDataset(ValueError):
    pass


class DivergenceDetected(RuntimeError):
    def __init__(self, msg, params=None):
        super().__init__(msg)
        self.params = params


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

    @staticmethod
    def layers(bins: int, filters: int):
        """The layer table (see `ad.Params`) of a net on `bins`-bin volumes."""
        f = f"ms_filters={filters}"
        bf = f"bins={bins}, {f}"
        return [("ms.enc1", (filters, bins), bins, filters, bf),
                ("ms.enc2", (1, filters), filters, 1, f),
                ("ms.dec1", (filters, 1), 1, filters, f),
                ("ms.dec2", (bins, filters), filters, bins, bf)]

    @classmethod
    def init(cls, bins: int, filters: int, rng: np.random.Generator,
             dtype=np.float32) -> "MsNetParams":
        return cls.init_layers(rng, cls.layers(bins, filters), dtype)

    @property
    def bins(self) -> int:
        return self["ms.enc1.w"].shape[1]


def _pixel_rows(batch: np.ndarray):
    """(N,B,H,W) -> ((N,H,W) mask of pixels with any non-zero bin, their
    B-vectors as an (R,B,1,1) array in mask order)."""
    mask = batch.any(axis=1)
    return mask, np.moveaxis(batch, 1, -1)[mask][:, :, None, None]


def _blocks(rows: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of `rows`, BLOCK rows each but the last."""
    return np.split(rows, range(BLOCK, len(rows), BLOCK))


def _zero_row(batch: np.ndarray) -> np.ndarray:
    return np.zeros((1, batch.shape[1], 1, 1), dtype=batch.dtype)


def _mix(params: MsNetParams, layer: str, x: Tensor) -> Tensor:
    return ad.channel_mix(x, params[f"ms.{layer}.w"], params[f"ms.{layer}.b"])


def encode_t(params: MsNetParams, x: Tensor) -> Tensor:
    return ad.sigmoid(_mix(params, "enc2", ad.sigmoid(_mix(params, "enc1", x))))


def decode_t(params: MsNetParams, ms: Tensor) -> Tensor:
    return _mix(params, "dec2", ad.sigmoid(_mix(params, "dec1", ms)))


def _check_bins(params: MsNetParams, batch: np.ndarray):
    if batch.shape[1] != params.bins:
        raise ad.ShapeMismatch(
            f"volume has {batch.shape[1]} bins, net expects {params.bins}")


def _per_pixel(params: MsNetParams, batch: np.ndarray, net) -> np.ndarray:
    """`net`, an (R,B,1,1) -> (R,K,1,1) Tensor function, on each pixel of an
    (N,B,H,W) batch -> (N,H,W,K). The non-zero rows run BLOCK at a time, so
    the bits are the blocked pass's, which need not equal one pass over all
    rows; the all-zero row runs once and its output fills the rest."""
    _check_bins(params, batch)
    mask, rows = _pixel_rows(batch)
    zero = net(params, Tensor(_zero_row(batch))).data.reshape(-1)
    out = np.full(mask.shape + zero.shape, zero, dtype=zero.dtype)
    out[mask] = np.concatenate([net(params, Tensor(x)).data
                                for x in _blocks(rows)]).reshape(-1, len(zero))
    return out


def encode(params: MsNetParams, batch: np.ndarray) -> np.ndarray:
    """(N,B,H,W) normalized volumes -> (N,H,W) memory surfaces in (0,1)."""
    return _per_pixel(params, batch, encode_t)[..., 0]


def reconstruct(params: MsNetParams, batch: np.ndarray) -> np.ndarray:
    """decode(encode(batch)) on (N,B,H,W) volumes; same shape as batch."""
    return np.moveaxis(_per_pixel(
        params, batch, lambda p, x: decode_t(p, encode_t(p, x))), -1, 1)


def _term_grads(params: MsNetParams, plist: list[Tensor], x: np.ndarray,
                weight: float, lambda_sparse: float) -> float:
    """Add to `.grad` the gradient of weight * (MSE + lambda * mean|ms|)
    on the (R,B,1,1) rows x, and return that term. Its graph is freed on
    return."""
    x = Tensor(x)
    ms = encode_t(params, x)
    term = ad.mse_loss(decode_t(params, ms), x)
    if lambda_sparse > 0:
        term = ad.add(term, ad.mul(ad.l1_norm(ms), lambda_sparse))
    term = ad.mul(term, weight)
    ad.backward(term, plist)
    return term.item()


def _loss_and_grads(params: MsNetParams, plist: list[Tensor],
                    batch: np.ndarray, lambda_sparse: float) -> float:
    """Set `.grad` to the gradient of mean MSE + lambda * mean|ms| over
    every pixel of an (N,B,H,W) batch, and return that loss: the sum of
    one term per block of non-zero pixel rows, in block order, then the
    all-zero row's, each weighted by the share of pixels it stands for."""
    mask, rows = _pixel_rows(batch)
    parts = [(x, len(x)) for x in _blocks(rows)]
    parts.append((_zero_row(batch), mask.size - len(rows)))
    for p in plist:
        p.zero_grad()
    return sum(_term_grads(params, plist, x, count / mask.size, lambda_sparse)
               for x, count in parts if count)


# a diverging run reports DivergenceDetected, not numpy's overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def train_ms(dataset, hyper: MsHyper, seed: int = 0):
    """Train on (N,B,H,W) normalized volumes; returns (params, loss curve).

    Deterministic for a fixed seed: init, minibatch shuffling, and update
    order are all driven by one seeded RNG. Raises DivergenceDetected if
    a loss or, after a step, a parameter is non-finite.
    """
    data = np.asarray(dataset, dtype=np.float32)
    if data.ndim != 4 or data.shape[0] == 0:
        raise EmptyDataset(f"need a non-empty (N,B,H,W) dataset, got {data.shape}")
    rng = np.random.default_rng(seed)
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
            loss = _loss_and_grads(params, plist, data[idx],
                                   hyper.lambda_sparse)
            ad.adam_step(plist, state)
            if not (np.isfinite(loss)
                    and all(np.isfinite(p.data).all() for p in plist)):
                raise DivergenceDetected(f"non-finite loss {loss} or weights")
            total += loss * len(idx)
        curve.append(total / n)
    return params, curve
