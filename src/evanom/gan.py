"""Dual-discriminator conditional GAN for next-event-frame prediction.

The generator takes a memory surface plus a same-sized noise channel and
emits the next event frame through tanh. Two discriminators judge it:
one sees (frame, surface) pairs, the other frames alone. Losses run
through stable logits; the generator uses the non-saturating form.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from . import lanes
from .autodiff import Tensor
from .msnet import EmptyDataset, MsNetParams, encode, fit
from .representation import window_arrays

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


@dataclass
class GanBatch:
    y: np.ndarray  # (N,1,H,W) memory surfaces, in (0,1)
    x: np.ndarray  # (N,1,H,W) true next frames, normalized to [-1,1]
    z: np.ndarray  # (N,1,H,W) noise, N(0,1)


class GanParams(ad.Params):
    """Generator `g`: three stride-2 downs, three stride-2 transposed-conv
    ups with skip connections, tanh output; noise enters as a second input
    channel. Discriminators `dxy` (frame, surface) and `dx` (frame): three
    stride-2 convs then a dense layer to one logit."""

    NAMES = tuple(f"{layer}.{s}" for layer in (
        "g.d1", "g.d2", "g.d3", "g.u1", "g.u2", "g.u3",
        "dxy.c1", "dxy.c2", "dxy.c3", "dxy.fc",
        "dx.c1", "dx.c2", "dx.c3", "dx.fc") for s in "wb")
    WIDTHS = {"ngf": "g.d1.w", "ndf": "dxy.c1.w"}

    @staticmethod
    def layers(h: int, w: int, ngf: int, ndf: int):
        """The layer table (see `ad.Params`) of the nets on HxW frames,
        with generator base width `ngf` and discriminator base width
        `ndf`."""
        if h % 8 or w % 8:
            raise ad.ShapeMismatch(f"H and W must be divisible by 8, got {h}x{w}")
        g, d = ngf, ndf

        def settings(name):
            return f"gan_ngf={g}" if name.startswith("g.") else f"gan_ndf={d}"

        def conv(name, cin, cout):
            return name, (cout, cin, 4, 4), cin * 16, cout, settings(name)

        def up(name, cin, cout):  # transposed-conv weights are (in, out, k, k)
            return name, (cin, cout, 4, 4), cin * 16, cout, settings(name)

        feat = 4 * d * (h // 8) * (w // 8)
        layers = [conv("g.d1", 2, g), conv("g.d2", g, 2 * g),
                  conv("g.d3", 2 * g, 4 * g), up("g.u1", 4 * g, 2 * g),
                  up("g.u2", 4 * g, g), up("g.u3", 2 * g, 1)]
        for part, cin in (("dxy", 2), ("dx", 1)):
            layers += [conv(f"{part}.c1", cin, d), conv(f"{part}.c2", d, 2 * d),
                       conv(f"{part}.c3", 2 * d, 4 * d),
                       (f"{part}.fc", (feat, 1), feat, 1,
                        f"{settings(part)}, height={h}, width={w}")]
        return layers

    @classmethod
    def init(cls, h: int, w: int, ngf: int, ndf: int,
             rng: np.random.Generator) -> "GanParams":
        return cls.init_layers(rng, cls.layers(h, w, ngf, ndf))

def g_forward_t(p: GanParams, y: Tensor, z: Tensor) -> Tensor:
    def down(x, layer):
        return ad.leaky_relu(ad.conv2d(x, p[f"g.{layer}.w"], p[f"g.{layer}.b"],
                                       stride=2, pad=1))

    def up(x, layer):
        return ad.conv_transpose2d(x, p[f"g.{layer}.w"], p[f"g.{layer}.b"],
                                   stride=2, pad=1)

    e1 = down(ad.concat([y, z], axis=1), "d1")
    e2 = down(e1, "d2")
    e3 = down(e2, "d3")
    u1 = ad.leaky_relu(up(e3, "u1"))
    u2 = ad.leaky_relu(up(ad.concat([u1, e2]), "u2"))
    return ad.tanh(up(ad.concat([u2, e1]), "u3"))


def d_forward_t(p: GanParams, part: str, x: Tensor) -> Tensor:
    """Logits of discriminator `part` ("dxy" or "dx") on input x."""
    h = x
    for layer in ("c1", "c2", "c3"):
        h = ad.leaky_relu(ad.conv2d(h, p[f"{part}.{layer}.w"],
                                    p[f"{part}.{layer}.b"], stride=2, pad=1))
    h = ad.reshape(h, (h.shape[0], -1))
    return ad.dense(h, p[f"{part}.fc.w"], p[f"{part}.fc.b"])


def g_forward(params: GanParams, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Predict next frames (N,1,H,W) in (-1,1) from surfaces y and noise z,
    both (N,1,H,W), recording no graph."""
    return g_forward_t(params.detach(), Tensor(y, dtype=np.float32),
                       Tensor(z, dtype=np.float32)).data


_D_PARTS = ("dxy", "dx")   # the discriminators, in update order


def _bce(logits: Tensor, target: float) -> Tensor:
    return ad.bce_with_logits(logits, Tensor(np.full_like(logits.data, target)))


def _judged(part: str, x: Tensor, y: Tensor) -> Tensor:
    """What discriminator `part` judges: (frame, surface) pairs for
    "dxy", frames alone for "dx"."""
    return ad.concat([x, y]) if part == "dxy" else x


def d_loss(params: GanParams, part: str, batch: GanBatch,
           x_fake: Tensor) -> Tensor:
    """Loss of discriminator `part` ("dxy" or "dx") on this batch: BCE of
    its logits against 1 on the true frames and against 0 on the
    generator's frames `x_fake`, detached here so no gradient reaches the
    generator."""
    y = Tensor(batch.y)
    real = d_forward_t(params, part, _judged(part, Tensor(batch.x), y))
    fake = d_forward_t(params, part, _judged(part, x_fake.detach(), y))
    return ad.add(_bce(real, 1.0), _bce(fake, 0.0))


def g_adv_loss(params: GanParams, part: str, batch: GanBatch,
               x_fake: Tensor) -> Tensor:
    """Non-saturating adversarial term of discriminator `part` in the
    generator loss, -mean log D(x_fake), with D's parameters held fixed
    (detached tensors sharing the same arrays), so backward computes no
    D gradients."""
    return _bce(d_forward_t(params.detach(), part,
                            _judged(part, x_fake, Tensor(batch.y))), 1.0)


def l1_loss(batch: GanBatch, x_fake: Tensor, lambda_l1: float) -> Tensor:
    """lambda * mean|x_fake - x|."""
    return ad.mul(ad.l1_norm(ad.add(x_fake, Tensor(-batch.x))), lambda_l1)


def prepare_batches(windows, ms_params: MsNetParams, cap: float):
    """Windows -> (surfaces (N,1,H,W), normalized targets (N,1,H,W))."""
    vols, targets = window_arrays(windows, cap)
    return encode(ms_params, vols)[:, None], targets[:, None]


def _halves(n: int) -> list[tuple[int, int]]:
    """G's fixed shards of a batch of n rows: [0, ceil(n/2)) and
    [ceil(n/2), n), or one shard if n is 1."""
    m = -(-n // 2)
    return [(0, 1)] if n == 1 else [(0, m), (m, n)]


def _g_shard(params: GanParams, batch: GanBatch, lo: int, hi: int):
    """(leaves, frames): the generator's frames for batch rows [lo, hi),
    run on leaf tensors `leaves` that share G's arrays, so a backward from
    the frames fills only the leaves' `.grad`."""
    leaves = GanParams((name, Tensor(t.data, requires_grad=True))
                       for name, t in params.items() if name.startswith("g."))
    return leaves, g_forward_t(leaves, Tensor(batch.y[lo:hi]),
                               Tensor(batch.z[lo:hi]))


def _frame_grad(term, frames: Tensor):
    """(value, gradient to the frames) of `term`, one term of the generator
    loss, computed on a leaf tensor of its own that shares their array."""
    leaf = Tensor(frames.data, requires_grad=True)
    value = term(leaf)
    ad.backward(value)
    return value.detach(), leaf.grad


def _d_round(params: GanParams, part: str, batch: GanBatch, x_fake: Tensor,
             state: ad.AdamState):
    """One Adam step on discriminator `part`; returns D's loss value and
    the `_frame_grad` of its term -mean log D(x_fake) in the generator's
    loss. D's graph is freed before the term builds its own."""
    loss = d_loss(params, part, batch, x_fake)
    plist = params.parameters(f"{part}.")
    for p in plist:
        p.zero_grad()
    ad.backward(loss, plist)
    ad.adam_step(plist, state)
    d_value = loss.item()
    del loss
    return d_value, _frame_grad(
        functools.partial(g_adv_loss, params, part, batch), x_fake)


@lanes.one_blas_thread()
@np.errstate(over="ignore", invalid="ignore")
def train_gan(windows, ms_params: MsNetParams, cfg: PipelineConfig,
              seed: int = 0):
    """Alternating D_xy / D_x / G updates with the config's `gan_*`
    settings, on target frames clipped to its `cap`; deterministic for a
    fixed seed.

    The generator runs once per batch: the D steps only change D's arrays,
    so its frames serve both the D losses and the G loss. A step is three
    rounds of `lanes.run_tasks` tasks (at once on two or more CPUs, else
    in turn; BLAS runs one thread):
    - `_g_shard`: G's forward over the two fixed halves of the batch;
    - `_d_round`, once per discriminator: its step, then its adversarial
      term of the G loss;
    - G's backward over the two halves.
    `_frame_grad` differentiates each term of the G loss, the L1 term
    (if `gan_lambda_l1` > 0) in the calling thread between the last two
    rounds. The terms are summed in the order D_xy, D_x, L1, as one
    backward through their sum adds them, and G's gradient is half 0's
    plus half 1's. The halves are fixed, not one per CPU, so the
    checkpoint bytes are the same however many CPUs run them.

    Returns (GanParams, curves) with per-epoch mean losses. Diverging
    raises as in `msnet.fit`.
    """
    if len(windows) == 0:
        raise EmptyDataset("no training windows")
    surfaces, targets = prepare_batches(windows, ms_params, cfg.cap)
    n, _, h, w = surfaces.shape
    rng = np.random.default_rng(seed)
    params = GanParams.init(h, w, cfg.gan_ngf, cfg.gan_ndf, rng)
    opts = {part: ad.AdamState(lr=cfg.gan_lr, beta1=cfg.gan_beta1)
            for part in ("g", *_D_PARTS)}

    def step(idx):
        batch = GanBatch(
            y=surfaces[idx], x=targets[idx],
            z=rng.standard_normal((len(idx), 1, h, w)).astype(np.float32))
        halves = _halves(len(idx))
        shards = lanes.run_tasks([
            functools.partial(_g_shard, params, batch, lo, hi)
            for lo, hi in halves])
        x_fake = Tensor(np.concatenate([frames.data for _, frames in shards]))
        (v_dxy, t_dxy), (v_dx, t_dx) = lanes.run_tasks([functools.partial(
            _d_round, params, part, batch, x_fake, opts[part])
            for part in _D_PARTS])
        terms = [t_dxy, t_dx]
        if cfg.gan_lambda_l1 > 0:
            terms.append(_frame_grad(functools.partial(
                l1_loss, batch, lambda_l1=cfg.gan_lambda_l1), x_fake))
        loss = functools.reduce(ad.add, [value for value, _ in terms])
        dframes = functools.reduce(np.add, [grad for _, grad in terms])
        lanes.run_tasks([
            functools.partial(ad.backward, frames, leaves.parameters(),
                              grad=dframes[lo:hi])
            for (leaves, frames), (lo, hi) in zip(shards, halves)])
        for name in shards[0][0]:
            params[name].grad = functools.reduce(
                np.add, [leaves[name].grad for leaves, _ in shards])
        ad.adam_step(params.parameters("g."), opts["g"])
        return v_dxy, v_dx, loss.item()

    curves = fit(params, rng, n, cfg.gan_epochs, cfg.gan_batch, step)
    return params, dict(zip(("d_xy", "d_x", "g"), curves))
