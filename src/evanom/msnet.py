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

Training and the forward pass cut a batch the same way (`_pixel_rows`):
the non-zero rows in consecutive blocks, then the all-zero row. Only
the block size differs. A training step runs each block of `BLOCK`
rows' forward and backward in turn, its term weighted by its share of
the batch's pixels, so a block's (BLOCK,F) activations and their
gradients stay in cache and each weight gradient is a sum of per-block
products in block order; the block size is part of the MS checkpoint's
bytes. A forward pass alone (`encode`, `reconstruct`, scoring and the
GAN's inputs) keeps no graph to walk back, so it runs `_ENCODE_BLOCK`
rows a block: fewer, larger numpy calls, which on two lanes hand the
GIL back and forth less often. `encode` gave the bits of 2048-row
blocks at every block size tried up to 131072 rows, on dense and desk
volumes; one pass over all rows need not. `reconstruct`'s (B,F) output
layer can round an ulp differently at 8192 rows.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from . import lanes
from .autodiff import Tensor

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


# Rows per training block. On dense data 2048 and 4096 tie as the fastest of 1024 to
# 8192 (2 epochs of train_ms on 64 volumes of 8x64x64 at 98% non-zero
# pixels, one BLAS thread: 0.28 s at both, 0.32 s at 8192, 0.56 s
# unblocked).
BLOCK = 2048
# Rows per block of a forward pass alone. Scoring a dense 415k-event
# stream (desk nets, 2 lanes on 2 vCPUs, median of 12) took 73.0 ms at
# 2048, 62.8 ms at 8192 and 81.5 ms in one pass, with byte-equal scores.
_ENCODE_BLOCK = 8192


class EmptyDataset(ValueError):
    pass


class DivergenceDetected(RuntimeError):
    def __init__(self, msg, params=None):
        super().__init__(msg)
        self.params = params


class MsNetParams(ad.Params):
    """Two channel-mix layers each way; sigmoid bottleneck, linear output."""

    NAMES = ("ms.enc1.w", "ms.enc1.b", "ms.enc2.w", "ms.enc2.b",
             "ms.dec1.w", "ms.dec1.b", "ms.dec2.w", "ms.dec2.b")
    WIDTHS = {"filters": "ms.enc1.w"}

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


def _pixel_rows(batch: np.ndarray, block: int):
    """(N,B,H,W) -> ((N,H,W) mask of pixels with any non-zero bin, parts).
    Each part is (rows, the pixels they stand for): the mask's B-vectors
    as (R,B,1,1) blocks of `block` rows in mask order, then the all-zero
    row, which stands for every pixel outside the mask."""
    mask = batch.any(axis=1)
    rows = np.moveaxis(batch, 1, -1)[mask][:, :, None, None]
    blocks = np.split(rows, range(block, len(rows), block))
    zero = np.zeros((1, batch.shape[1], 1, 1), dtype=batch.dtype)
    return mask, [(x, len(x)) for x in blocks] + [(zero, mask.size - len(rows))]


def _mix(params: MsNetParams, layer: str, x: Tensor) -> Tensor:
    return ad.channel_mix(x, params[f"ms.{layer}.w"], params[f"ms.{layer}.b"])


def encode_t(params: MsNetParams, x: Tensor) -> Tensor:
    return ad.sigmoid(_mix(params, "enc2", ad.sigmoid(_mix(params, "enc1", x))))


def decode_t(params: MsNetParams, ms: Tensor) -> Tensor:
    return _mix(params, "dec2", ad.sigmoid(_mix(params, "dec1", ms)))


def check_bins(params: MsNetParams, bins: int):
    if bins != params.bins:
        raise ad.ShapeMismatch(
            f"volume has {bins} bins, net expects {params.bins}")


def _per_pixel(params: MsNetParams, batch: np.ndarray, net) -> np.ndarray:
    """`net`, an (R,B,1,1) -> (R,K,1,1) Tensor function, on each pixel of an
    (N,B,H,W) batch -> (N,H,W,K). The non-zero rows run _ENCODE_BLOCK at a
    time, so the bits are the blocked pass's, which need not equal one pass
    over all rows; the all-zero row runs once and its output fills the
    rest."""
    check_bins(params, batch.shape[1])
    mask, (*blocks, (zero_row, _)) = _pixel_rows(batch, _ENCODE_BLOCK)
    zero = net(params, Tensor(zero_row)).data.reshape(-1)
    out = np.full(mask.shape + zero.shape, zero, dtype=zero.dtype)
    out[mask] = np.concatenate([net(params, Tensor(x)).data
                                for x, _ in blocks]).reshape(-1, len(zero))
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
    mask, parts = _pixel_rows(batch, BLOCK)
    for p in plist:
        p.zero_grad()
    return sum(_term_grads(params, plist, x, count / mask.size, lambda_sparse)
               for x, count in parts if count)


def fit(params: ad.Params, rng: np.random.Generator, n: int, epochs: int,
        batch: int, step) -> list[list[float]]:
    """The minibatch loop both trainers share: each epoch draws one
    permutation of range(n) from `rng`, and `step(idx)` updates `params`
    on each slice of `batch` indices and returns a tuple of losses.
    Returns each loss's curve of per-epoch means. Raises
    DivergenceDetected, carrying the last finite parameters, if a loss
    or, after a step, a parameter is non-finite."""
    curves = []
    last_good = params.to_arrays()
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            vals = step(idx)
            arrays = params.to_arrays()
            if not (np.isfinite(vals).all()
                    and all(np.isfinite(a).all() for a in arrays.values())):
                raise DivergenceDetected(
                    f"non-finite loss {vals} or weights",
                    params=type(params).from_arrays(last_good))
            total = total + np.multiply(vals, len(idx))
            last_good = arrays
        curves.append(total / n)
    return np.array(curves).T.tolist()


# a diverging run reports DivergenceDetected, not numpy's overflow warnings
@lanes.one_blas_thread()
@np.errstate(over="ignore", invalid="ignore")
def train_ms(dataset, cfg: PipelineConfig, seed: int = 0):
    """Train on (N,B,H,W) normalized volumes with the config's `ms_*`
    settings; returns (params, loss curve).

    Deterministic for a fixed seed: init, minibatch shuffling, and update
    order are all driven by one seeded RNG. Diverging raises as in `fit`.
    """
    data = np.asarray(dataset, dtype=np.float32)
    if data.ndim != 4 or data.shape[0] == 0:
        raise EmptyDataset(f"need a non-empty (N,B,H,W) dataset, got {data.shape}")
    rng = np.random.default_rng(seed)
    params = MsNetParams.init(data.shape[1], cfg.ms_filters, rng)
    state = ad.AdamState(lr=cfg.ms_lr)
    plist = params.parameters()

    def step(idx):
        loss = _loss_and_grads(params, plist, data[idx], cfg.ms_lambda_sparse)
        ad.adam_step(plist, state)
        return (loss,)

    (curve,) = fit(params, rng, len(data), cfg.ms_epochs, cfg.ms_batch, step)
    return params, curve
