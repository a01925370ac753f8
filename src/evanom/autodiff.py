"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Only the ops the two networks need. Tensors wrap numpy arrays; an op
on inputs of which some need a gradient returns a new tensor carrying a
backward closure (on no such input, a plain tensor), and `backward` walks
the recorded DAG once in reverse topological order, so gradients are
bit-deterministic for a fixed graph. No op mutates its inputs. Training
code uses float32 storage; gradient checks run the same ops in float64.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NotScalar(ValueError):
    pass


class DisconnectedParameter(UserWarning):
    pass


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_prev", "_back", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None,
                 _prev=(), _back=None, _op="leaf"):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._prev = _prev
        self._back = _back
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op})"


def _acc(t: Tensor, g: np.ndarray, fresh: bool = True):
    """Add g to t.grad. A fresh g, computed by the calling closure and held
    by nothing else, becomes the first gradient as is; any other g (the
    incoming gradient or a view of it) is copied first."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = (np.asarray(g, dtype=t.data.dtype) if fresh
                  else np.array(g, dtype=t.data.dtype))
    else:
        t.grad += g


def _result(data, inputs, back, op) -> Tensor:
    """The op's output; it records its inputs and backward closure only
    if some input needs a gradient, so inference holds no graph."""
    prev = tuple(x for x in inputs if isinstance(x, Tensor))
    if not any(p.requires_grad for p in prev):
        return Tensor(data, _op=op)
    return Tensor(data, requires_grad=True, _prev=prev, _back=back, _op=op)


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeMismatch(f"{op}: {a.shape} vs {b.shape}")


# --- elementwise ----------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        _check_same_shape("add", a.data, b.data)
        out_data = a.data + b.data

        def back(g):
            _acc(a, g, fresh=False)
            _acc(b, g, fresh=False)
    else:
        out_data = a.data + b

        def back(g):
            _acc(a, g, fresh=False)
    return _result(out_data, (a, b), back, "add")


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        _check_same_shape("mul", a.data, b.data)
        out_data = a.data * b.data

        def back(g):
            _acc(a, g * b.data)
            _acc(b, g * a.data)
    else:
        out_data = a.data * b

        def back(g):
            _acc(a, g * b)
    return _result(out_data, (a, b), back, "mul")


def _logistic(x: np.ndarray) -> np.ndarray:
    """1/(1+exp(-x)) in x's dtype, computed in place on one new buffer.
    exp(-x) overflows to inf for very negative x, which gives exactly 0."""
    s = np.negative(x, out=np.empty_like(x))
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1
    np.reciprocal(s, out=s)
    return s


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function 1/(1+exp(-x)); its backward reuses the output."""
    s = _logistic(x.data)

    def back(g):
        d = np.subtract(1, s)
        d *= s
        d *= g
        _acc(x, d)
    return _result(s, (x,), back, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def back(g):
        _acc(x, g * (1.0 - y * y))
    return _result(y, (x,), back, "tanh")


def leaky_relu(x: Tensor, alpha: float = 0.2) -> Tensor:
    """x where x > 0, else alpha*x. For 0 < alpha <= 1 that is
    max(x, alpha*x), bit for bit, including -0, inf and NaN (an alpha of
    0 in x's precision would turn x = inf into 0*inf = NaN)."""
    if not 0 < alpha <= 1:
        raise ValueError(f"leaky_relu: alpha must be in (0, 1], got {alpha}")
    y = np.multiply(x.data, alpha, out=np.empty_like(x.data))
    np.maximum(x.data, y, out=y)

    def back(g):
        # the factor (1 where x > 0, else alpha) is built in the result
        # buffer: no select, whose branches mispredict on random signs
        gx = np.greater(x.data, 0, out=np.empty_like(x.data))
        np.maximum(gx, alpha, out=gx)
        gx *= g
        _acc(x, gx)
    return _result(y, (x,), back, "leaky_relu")


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def back(g):
        off = 0
        for t, s in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(off, off + s)
            _acc(t, g[tuple(idx)], fresh=False)
            off += s
    return _result(out_data, tuple(tensors), back, "concat")


# --- convolution ----------------------------------------------------------
#
# A stride-s convolution with a kh x kw kernel is a stride-1 convolution
# with a Kh x Kw kernel, K = ceil(k/s), on the space-to-depth form of its
# zero-padded input (Shi et al., arXiv 1609.05158; Dumoulin & Visin, arXiv
# 1603.07285). `_Layout` holds that geometry for one call:
#
# - The zero-padded (N,C,H,W) image is copied once, by s*s strided copies,
#   into a grid of C*s*s rows, one per (channel, row phase, column phase).
#   Its columns run over (n, i, j) for each image's Hs x Ws blocks of s x s
#   pixels, Hs = ceil((H + 2*pad)/s) >= Ho + Kh - 1, then over a zero tail
#   of (Kh-1)*Ws + Kw-1 columns.
# - Output pixel (n, y, x) is column n*Hs*Ws + y*Ws + x, and kernel tap
#   (u, v) reads the m grid columns shifted by u*Ws + v. With the weights
#   regrouped as one (O, C*s*s) block w2_t per tap t, a conv is one 2-D
#   matmul per tap, summed in tap order (kn2row; Vasudevan et al. 2017).
# - Output columns with y >= Ho or x >= Wo, whose shifted reads run into
#   the next block row or image, are computed and then dropped.
# - Its adjoints: (stacked w2_t.T) @ cols, each tap's block added into a
#   zero grid at its shift in tap order, and cols @ (tap t's columns).T.
#
# conv_transpose2d is the adjoint of conv2d: its forward is conv2d's
# input-gradient path, and its backward is conv2d's forward path for the
# input gradient plus conv2d's weight-gradient product. Results come out
# channel-major; the returned NCHW arrays are views of them, and the
# elementwise ops that follow keep that memory order.

class _Layout:
    """Space-to-depth geometry of a conv with an (N,C,H,W) input, a
    (kh, kw) kernel, stride s and zero padding `pad`: output size (Ho, Wo),
    grid of (Hs, Ws) blocks of s x s pixels per image, (Kh, Kw) taps."""

    def __init__(self, n, h, w, kh, kw, stride, pad):
        s = stride
        self.n, self.h, self.w, self.kh, self.kw = n, h, w, kh, kw
        self.s, self.pad = s, pad
        self.ho = (h + 2 * pad - kh) // s + 1
        self.wo = (w + 2 * pad - kw) // s + 1
        if min(h, w, self.ho, self.wo) < 1:
            raise ShapeMismatch(f"{kh}x{kw} kernel, pad {pad}, stride {s}: "
                                f"no output from a {h}x{w} image")
        self.hs, self.ws = -(-(h + 2 * pad) // s), -(-(w + 2 * pad) // s)
        self.taps_h, self.taps_w = -(-kh // s), -(-kw // s)
        self.m = n * self.hs * self.ws
        self.shifts = [u * self.ws + v for u in range(self.taps_h)
                       for v in range(self.taps_w)]

    def phases(self):
        """For each row phase a and column phase b: the block rows and
        columns of the grid that hold image pixels, and those pixels' rows
        and columns in the image (every s-th, from the first one at or
        after the padding)."""
        s, p = self.s, self.pad
        for a in range(s):
            r0 = -((a - p) // s)
            xr = range(r0 * s + a - p, self.h, s)
            for b in range(s):
                c0 = -((b - p) // s)
                xc = range(c0 * s + b - p, self.w, s)
                yield a, b, (slice(r0, r0 + len(xr)), slice(c0, c0 + len(xc))), \
                    (slice(xr.start, None, s), slice(xc.start, None, s))

    def space_to_depth(self, xd):
        """(N,C,H,W) -> (C*s*s, m + tail) grid of the zero-padded image."""
        C, s = xd.shape[1], self.s
        grid = np.zeros((C * s * s, self.m + self.shifts[-1]), dtype=xd.dtype)
        blocks = grid[:, :self.m].reshape(C, s, s, self.n, self.hs, self.ws)
        img = xd.transpose(1, 0, 2, 3)
        for a, b, (gr, gc), (xr, xc) in self.phases():
            blocks[:, a, b, :, gr, gc] = img[:, :, xr, xc]
        return grid

    def depth_to_space(self, grid):
        """Adjoint of `space_to_depth`: (C*s*s, m + tail) grid -> (N,C,H,W)
        view of a channel-major image."""
        s = self.s
        C = grid.shape[0] // (s * s)
        blocks = grid[:, :self.m].reshape(C, s, s, self.n, self.hs, self.ws)
        img = np.empty((C, self.n, self.h, self.w), dtype=grid.dtype)
        for a, b, (gr, gc), (xr, xc) in self.phases():
            img[:, :, xr, xc] = blocks[:, a, b, :, gr, gc]
        return img.transpose(1, 0, 2, 3)

    def product(self, w2, grid):
        """(taps, O, R) weights, (R, m + tail) grid -> (O, m) conv columns."""
        out = w2[0] @ grid[:, :self.m]                 # shifts[0] is 0
        for w2_t, off in zip(w2[1:], self.shifts[1:]):
            out += w2_t @ grid[:, off:off + self.m]
        return out

    def grid_adjoint(self, w2, cols):
        """Adjoint of `product` in the grid: (O, m) -> (R, m + tail), as one
        (taps*R, O) @ (O, m) product whose tap blocks are added in order."""
        taps, O, R = w2.shape
        taps_out = w2.transpose(0, 2, 1).reshape(taps * R, O) @ cols
        grid = np.zeros((R, self.m + self.shifts[-1]), dtype=taps_out.dtype)
        for t, off in enumerate(self.shifts):
            grid[:, off:off + self.m] += taps_out[t * R:(t + 1) * R]
        return grid

    def weight_adjoint(self, cols, grid):
        """Adjoint of `product` in the weights: (O, m) -> (taps, O, R)."""
        return np.stack([cols @ grid[:, off:off + self.m].T
                         for off in self.shifts])

    def out_cols(self, g):
        """(N,O,Ho,Wo) -> (O, m), zero in the columns outside the output."""
        O = g.shape[1]
        cols = np.zeros((O, self.n, self.hs, self.ws), dtype=g.dtype)
        cols[:, :, :self.ho, :self.wo] = g.transpose(1, 0, 2, 3)
        return cols.reshape(O, self.m)

    def out_view(self, cols):
        """Adjoint of `out_cols`: (O, m) -> (N,O,Ho,Wo) view."""
        return cols.reshape(-1, self.n, self.hs, self.ws)[
            :, :, :self.ho, :self.wo].transpose(1, 0, 2, 3)

    def regroup(self, w):
        """(O,C,kh,kw) weights -> (taps, O, C*s*s), one block w2_t per tap."""
        O, C = w.shape[:2]
        s, th, tw = self.s, self.taps_h, self.taps_w
        wp = np.zeros((O, C, th * s, tw * s), dtype=w.dtype)
        wp[:, :, :self.kh, :self.kw] = w
        return wp.reshape(O, C, th, s, tw, s).transpose(2, 4, 0, 1, 3, 5) \
            .reshape(th * tw, O, C * s * s)

    def ungroup(self, w2):
        """Adjoint of `regroup`: (taps, O, C*s*s) -> (O,C,kh,kw)."""
        s, th, tw = self.s, self.taps_h, self.taps_w
        O, C = w2.shape[1], w2.shape[2] // (s * s)
        wp = w2.reshape(th, tw, O, C, s, s).transpose(2, 3, 0, 4, 1, 5) \
            .reshape(O, C, th * s, tw * s)
        return wp[:, :, :self.kh, :self.kw]


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1,
           pad: int = 0) -> Tensor:
    """x: (N,C,H,W), w: (O,C,kh,kw), b: (O,). Zero padding, any stride."""
    N, C, H, W = x.shape
    O, Cw, kh, kw = w.shape
    if C != Cw or b.shape != (O,):
        raise ShapeMismatch(f"conv2d: x {x.shape} w {w.shape} b {b.shape}")
    lay = _Layout(N, H, W, kh, kw, stride, pad)
    w2 = lay.regroup(w.data)                           # (taps, O, C*s*s)
    grid = lay.space_to_depth(x.data)                  # (C*s*s, m + tail)
    out = lay.product(w2, grid)
    # adding the bias also crops the output into a channel-major array
    out = np.add(lay.out_view(out), b.data.reshape(1, O, 1, 1),
                 dtype=out.dtype)

    def back(g):
        if b.requires_grad:
            _acc(b, g.sum(axis=(0, 2, 3)))
        if not (w.requires_grad or x.requires_grad):
            return
        g2 = lay.out_cols(g)                           # (O, m)
        if w.requires_grad:
            _acc(w, lay.ungroup(lay.weight_adjoint(g2, grid)))
        if x.requires_grad:
            _acc(x, lay.depth_to_space(lay.grid_adjoint(w2, g2)))
    return _result(out, (x, w, b), back, "conv2d")


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2,
                     pad: int = 1) -> Tensor:
    """x: (N,C,H,W), w: (C,O,kh,kw), b: (O,). Output (H-1)*stride-2*pad+kh."""
    N, C, H, W = x.shape
    Cw, O, kh, kw = w.shape
    if C != Cw or b.shape != (O,):
        raise ShapeMismatch(f"conv_transpose2d: x {x.shape} w {w.shape} b {b.shape}")
    # the conv2d from (N,O,Ho,Wo) to (N,C,H,W) whose adjoint this is
    lay = _Layout(N, (H - 1) * stride - 2 * pad + kh,
                  (W - 1) * stride - 2 * pad + kw, kh, kw, stride, pad)
    w2 = lay.regroup(w.data)                           # (taps, C, O*s*s)
    x2 = lay.out_cols(x.data)                          # (C, m)
    out = lay.depth_to_space(lay.grid_adjoint(w2, x2))
    out += b.data.reshape(1, O, 1, 1)

    def back(g):
        if b.requires_grad:
            _acc(b, g.sum(axis=(0, 2, 3)))
        if not (w.requires_grad or x.requires_grad):
            return
        grid = lay.space_to_depth(g)                   # (O*s*s, m + tail)
        if w.requires_grad:
            _acc(w, lay.ungroup(lay.weight_adjoint(x2, grid)))
        if x.requires_grad:
            _acc(x, lay.out_view(lay.product(w2, grid)))
    return _result(out, (x, w, b), back, "conv_transpose2d")


def _channels_last(a):
    """(N,C,H,W) -> (N*H*W, C); free when `a` is channel-last in memory,
    as channel_mix's outputs are, or when H = W = 1."""
    return a.transpose(0, 2, 3, 1).reshape(-1, a.shape[1])


def channel_mix(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """1x1 spatial convolution mixing channels: x (N,C,H,W), w (O,C), b (O,).

    Each contraction is one 2-D product on the (N*H*W, C) rows, by np.dot
    or `@`, whichever was faster over the MS net's four layers at 64k
    rows: `@` takes 4-7 ms where the inner size is 1 (C = 1 forward,
    O = 1 input gradient), np.dot ~1 ms. The bias gradient is a BLAS
    product with a ones vector, 3-9x faster there than a sum over rows.
    """
    N, C, H, W = x.shape
    O, Cw = w.shape
    if C != Cw or b.shape != (O,):
        raise ShapeMismatch(f"channel_mix: x {x.shape} w {w.shape} b {b.shape}")
    x2 = _channels_last(x.data)
    out = np.dot(x2, w.data.T)
    out += b.data
    out = out.reshape(N, H, W, O).transpose(0, 3, 1, 2)

    def back(g):
        g2 = _channels_last(g)                         # (N*H*W, O)
        if b.requires_grad:
            _acc(b, np.ones(len(g2), dtype=g2.dtype) @ g2)
        if w.requires_grad:
            _acc(w, g2.T @ x2)
        if x.requires_grad:
            gx = np.dot(g2, w.data).reshape(N, H, W, C)
            _acc(x, gx.transpose(0, 3, 1, 2))
    return _result(out, (x, w, b), back, "channel_mix")


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x: (N,D), w: (D,M), b: (M,)."""
    if x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatch(f"dense: x {x.shape} w {w.shape} b {b.shape}")
    out = x.data @ w.data + b.data

    def back(g):
        _acc(b, g.sum(axis=0))
        if w.requires_grad:
            _acc(w, x.data.T @ g)
        if x.requires_grad:
            _acc(x, g @ w.data.T)
    return _result(out, (x, w, b), back, "dense")


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)

    def back(g):
        _acc(x, g.reshape(x.shape), fresh=False)
    return _result(out, (x,), back, "reshape")


# --- losses ---------------------------------------------------------------

def mse_loss(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mse_loss", a.data, b.data)
    d = a.data - b.data
    n = d.size

    def back(g):
        _acc(a, g * 2.0 * d / n)
        if b.requires_grad:
            _acc(b, g * (-2.0) * d / n)
    return _result(np.mean(d * d), (a, b), back, "mse_loss")


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy on raw logits (numerically stable)."""
    _check_same_shape("bce_with_logits", logits.data, targets.data)
    l, t = logits.data, targets.data
    n = l.size
    with np.errstate(invalid="ignore"):  # NaN logits give a NaN loss
        val = np.mean(np.logaddexp(0.0, l) - t * l)

    def back(g):
        _acc(logits, g * (_logistic(l) - t) / n)
        if targets.requires_grad:
            _acc(targets, g * (-l) / n)
    return _result(val, (logits, targets), back, "bce_with_logits")


def l1_norm(x: Tensor) -> Tensor:
    """Mean absolute value (subgradient sign(x) at 0 taken as 0)."""
    n = x.data.size

    def back(g):
        _acc(x, g * np.sign(x.data) / n)
    return _result(np.mean(np.abs(x.data)), (x,), back, "l1_norm")


# --- backward pass --------------------------------------------------------

def backward(loss: Tensor, params: list[Tensor] | None = None, grad=None):
    """Accumulate `.grad` of every requires_grad tensor reachable from loss.

    Visits each graph node exactly once, children before parents, in a
    fixed order. Below the loss, a tensor with requires_grad=False, and
    every node built only from such tensors, keeps `.grad` None and runs
    no backward code. If `params` is given, parameters not reached by the
    graph get a zero grad and a DisconnectedParameter warning.

    `grad`, the gradient of some scalar with respect to `loss` and of
    loss's shape, seeds the pass; without it the loss must be a scalar,
    and its seed is 1.
    """
    if grad is None:
        if loss.data.size != 1:
            raise NotScalar(f"loss has shape {loss.shape}")
        grad = np.ones_like(loss.data)
    elif np.shape(grad) != loss.shape:
        raise ShapeMismatch(f"backward: grad {np.shape(grad)} vs loss "
                            f"{loss.shape}")
    topo: list[Tensor] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            stack.append((p, False))
    loss.grad = np.asarray(grad, dtype=loss.data.dtype)
    for node in reversed(topo):
        if node._back is not None and node.grad is not None:
            node._back(node.grad)
    if params is not None:
        for p in params:
            if p.grad is None:
                if id(p) not in seen:
                    warnings.warn(f"parameter {p!r} not reachable from loss",
                                  DisconnectedParameter, stacklevel=2)
                p.grad = np.zeros_like(p.data)


# --- Adam -----------------------------------------------------------------

@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: list[Tensor], state: AdamState):
    """Standard Adam update with bias correction, in place on params.
    Every param needs a `.grad`; `backward(loss, params)` gives each one."""
    state.step += 1
    t = state.step
    for i, p in enumerate(params):
        g = p.grad
        if i not in state.m:
            state.m[i] = np.zeros_like(p.data)
            state.v[i] = np.zeros_like(p.data)
        if state.m[i].shape != p.data.shape:
            raise ShapeMismatch(f"adam moment {state.m[i].shape} vs "
                                f"param {p.data.shape}")
        state.m[i] = state.beta1 * state.m[i] + (1 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1 - state.beta2) * g * g
        mhat = state.m[i] / (1 - state.beta1 ** t)
        vhat = state.v[i] / (1 - state.beta2 ** t)
        p.data = p.data - (state.lr * mhat /
                           (np.sqrt(vhat) + state.eps)).astype(p.data.dtype)


class WrongParamNames(ValueError):
    pass


class WrongParamShapes(ValueError):
    pass


class Params(dict):
    """A network's parameter tensors keyed by checkpoint name, in NAMES order.

    Each layer `l` owns `l.w` and `l.b`. Subclasses set NAMES and WIDTHS,
    give their layer table as `layers(**geometry, **widths)` and build
    their layers with `init_layers`, so a checkpoint written from
    `to_arrays` lists tensors in NAMES order.

    A layer table lists, in NAMES order, one (name, weight shape, fan_in,
    bias length, settings) row per layer, where settings names the
    configuration values that fix the layer's shapes.
    """

    NAMES: tuple[str, ...] = ()
    WIDTHS: dict[str, str] = {}

    @classmethod
    def init_layers(cls, rng: np.random.Generator, layers, dtype=np.float32):
        """Weights draw uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) from `rng`
        in table order; biases start at zero. Refuses, before drawing, a
        table whose float64 draws exceed physical memory (under overcommit
        they might be allocated, and the process killed later), naming
        the largest layer's settings."""
        sizes = [math.prod(shape) * 8 for _, shape, _, _, _ in layers]
        phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if sum(sizes) > phys:
            settings = layers[sizes.index(max(sizes))][4]
            raise ValueError(
                f"{settings} need {sum(sizes) >> 30} GiB of weight "
                f"draws, more than this machine's physical memory")
        p = cls()
        for name, shape, fan_in, n_out, _ in layers:
            bound = 1.0 / np.sqrt(fan_in)
            p[f"{name}.w"] = Tensor(
                rng.uniform(-bound, bound, size=shape).astype(dtype),
                requires_grad=True)
            p[f"{name}.b"] = Tensor(np.zeros(n_out, dtype=dtype),
                                    requires_grad=True)
        return p

    def parameters(self, prefix: str = "") -> list[Tensor]:
        return [t for name, t in self.items() if name.startswith(prefix)]

    def detach(self):
        """The same arrays, as tensors that need no gradient."""
        return type(self)((name, t.detach()) for name, t in self.items())

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.items()}

    @classmethod
    def load(cls, arrays: dict[str, np.ndarray], **geometry):
        """`from_arrays` checked against the layer table of the input
        `geometry`, with each width in WIDTHS read as the first-axis size
        of its tensor (0 if missing or scalar)."""
        widths = {arg: (np.shape(arrays.get(name)) + (0,))[0]
                  for arg, name in cls.WIDTHS.items()}
        return cls.from_arrays(arrays, cls.layers(**geometry, **widths))

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], layers=None):
        """Tensors from checkpoint arrays, which must hold exactly NAMES.
        Given a layer table, each tensor must also have the table's shape,
        else WrongParamShapes names the first that has not."""
        if set(arrays) != set(cls.NAMES):
            missing = sorted(set(cls.NAMES) - set(arrays))
            extra = sorted(set(arrays) - set(cls.NAMES))
            raise WrongParamNames(f"{cls.__name__}: missing {missing}, "
                                  f"unexpected {extra}")
        for name, shape, _, n_out, settings in layers or ():
            for key, want in ((f"{name}.w", tuple(shape)),
                              (f"{name}.b", (n_out,))):
                if arrays[key].shape != want:
                    raise WrongParamShapes(
                        f"{cls.__name__}: {key} has shape "
                        f"{arrays[key].shape}, expected {want} for {settings}")
        return cls((name, Tensor(arrays[name].astype(np.float32),
                                 requires_grad=True)) for name in cls.NAMES)
