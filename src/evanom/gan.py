"""Dual-discriminator conditional GAN for next-event-frame prediction.

The generator takes a memory surface plus a same-sized noise channel and
emits the next event frame through tanh. Two discriminators judge it:
one sees (frame, surface) pairs, the other frames alone. Losses run
through stable logits; the generator uses the non-saturating form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .msnet import DivergenceDetected, EmptyDataset, MsNetParams, encode
from .representation import window_arrays


@dataclass
class GanHyper:
    ngf: int = 16          # generator base width
    ndf: int = 16          # discriminator base width
    epochs: int = 10
    lr: float = 2e-4
    beta1: float = 0.5
    batch: int = 16
    lambda_l1: float = 0.0  # stability knob; the plain objective uses 0
    cap: float = 5.0        # normalization cap for target frames


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

    @staticmethod
    def layers(h: int, w: int, hyper: GanHyper):
        """The layer table (see `ad.Params`) of the nets on HxW frames."""
        if h % 8 or w % 8:
            raise ad.ShapeMismatch(f"H and W must be divisible by 8, got {h}x{w}")
        g, d = hyper.ngf, hyper.ndf

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
    def init(cls, h: int, w: int, hyper: GanHyper,
             rng: np.random.Generator) -> "GanParams":
        return cls.init_layers(rng, cls.layers(h, w, hyper))


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


def _ones_like(t: Tensor) -> Tensor:
    return Tensor(np.ones_like(t.data))


def _zeros_like(t: Tensor) -> Tensor:
    return Tensor(np.zeros_like(t.data))


def d_losses(params: GanParams, batch: GanBatch, x_fake: Tensor):
    """(L_Dxy, L_Dx) loss tensors on the generator's frames `x_fake` for
    this batch, detached here so no gradient reaches the generator."""
    y, x = Tensor(batch.y), Tensor(batch.x)
    x_fake = x_fake.detach()
    lr_xy = d_forward_t(params, "dxy", ad.concat([x, y]))
    lf_xy = d_forward_t(params, "dxy", ad.concat([x_fake, y]))
    l_dxy = ad.add(ad.bce_with_logits(lr_xy, _ones_like(lr_xy)),
                   ad.bce_with_logits(lf_xy, _zeros_like(lf_xy)))
    lr_x = d_forward_t(params, "dx", x)
    lf_x = d_forward_t(params, "dx", x_fake)
    l_dx = ad.add(ad.bce_with_logits(lr_x, _ones_like(lr_x)),
                  ad.bce_with_logits(lf_x, _zeros_like(lf_x)))
    return l_dxy, l_dx


def g_loss(params: GanParams, batch: GanBatch, x_fake: Tensor,
           lambda_l1: float = 0.0) -> Tensor:
    """Non-saturating generator loss on the generator's frames `x_fake`:
    -mean log D_xy(x_hat, y) - mean log D_x(x_hat) + lambda * mean|x_hat - x|.

    Both discriminators run with their parameters held fixed (detached
    tensors sharing the same arrays), so backward computes no D gradients.
    """
    if lambda_l1 < 0:
        raise ValueError("lambda_l1 must be >= 0")
    fixed = params.detach()
    y = Tensor(batch.y)
    lf_xy = d_forward_t(fixed, "dxy", ad.concat([x_fake, y]))
    lf_x = d_forward_t(fixed, "dx", x_fake)
    loss = ad.add(ad.bce_with_logits(lf_xy, _ones_like(lf_xy)),
                  ad.bce_with_logits(lf_x, _ones_like(lf_x)))
    if lambda_l1 > 0:
        resid = ad.add(x_fake, Tensor(-batch.x))
        loss = ad.add(loss, ad.mul(ad.l1_norm(resid), lambda_l1))
    return loss


def prepare_batches(windows, ms_params: MsNetParams, cap: float):
    """Windows -> (surfaces (N,1,H,W), normalized targets (N,1,H,W))."""
    vols, targets = window_arrays(windows, cap)
    surfaces = encode(ms_params, vols)[:, None].astype(np.float32)
    return surfaces, targets[:, None]


def train_gan(windows, ms_params: MsNetParams, hyper: GanHyper,
              seed: int = 0):
    """Alternating D_xy / D_x / G updates; deterministic for a fixed seed.

    The generator runs once per batch: the D steps only change D's arrays,
    so its frames serve both the D losses and the G loss. Each loss graph
    is dropped once its step is done.

    Returns (GanParams, curves) with per-epoch mean losses. Raises
    DivergenceDetected (carrying the last finite parameters) if any loss
    goes non-finite.
    """
    if len(windows) == 0:
        raise EmptyDataset("no training windows")
    surfaces, targets = prepare_batches(windows, ms_params, hyper.cap)
    n, _, h, w = surfaces.shape
    rng = np.random.default_rng(seed)
    params = GanParams.init(h, w, hyper, rng)
    opt_g = ad.AdamState(lr=hyper.lr, beta1=hyper.beta1)
    opt_dxy = ad.AdamState(lr=hyper.lr, beta1=hyper.beta1)
    opt_dx = ad.AdamState(lr=hyper.lr, beta1=hyper.beta1)
    curves = {"d_xy": [], "d_x": [], "g": []}
    last_good = params.to_arrays()
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        sums = {"d_xy": 0.0, "d_x": 0.0, "g": 0.0}
        for start in range(0, n, hyper.batch):
            idx = order[start:start + hyper.batch]
            batch = GanBatch(
                y=surfaces[idx], x=targets[idx],
                z=rng.standard_normal((len(idx), 1, h, w)).astype(np.float32))
            x_fake = g_forward_t(params, Tensor(batch.y), Tensor(batch.z))
            l_dxy, l_dx = d_losses(params, batch, x_fake)
            v_dxy = _step(l_dxy, params.parameters("dxy."), opt_dxy)
            del l_dxy
            v_dx = _step(l_dx, params.parameters("dx."), opt_dx)
            del l_dx
            v_g = _step(g_loss(params, batch, x_fake, hyper.lambda_l1),
                        params.parameters("g."), opt_g)
            del x_fake
            vals = (v_dxy, v_dx, v_g)
            if not all(np.isfinite(vals)):
                raise DivergenceDetected(
                    f"non-finite loss {vals}", params=GanParams.from_arrays(last_good))
            for k, v in zip(("d_xy", "d_x", "g"), vals):
                sums[k] += v * len(idx)
            last_good = params.to_arrays()
        for k in curves:
            curves[k].append(sums[k] / n)
    return params, curves


def _step(loss: Tensor, plist, state: ad.AdamState) -> float:
    """One Adam step on plist from loss; returns the loss value."""
    for p in plist:
        p.zero_grad()
    ad.backward(loss, plist)
    ad.adam_step(plist, state)
    return loss.item()
