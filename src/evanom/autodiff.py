"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Only the ops the two networks need. Tensors wrap numpy arrays; every op
returns a new tensor carrying a backward closure, and `backward` walks
the recorded DAG once in reverse topological order, so gradients are
bit-deterministic for a fixed graph. No op mutates its inputs. Training
code uses float32 storage; gradient checks run the same ops in float64.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit


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
    prev = tuple(x for x in inputs if isinstance(x, Tensor))
    return Tensor(data, requires_grad=any(p.requires_grad for p in prev),
                  _prev=prev, _back=back, _op=op)


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


def sigmoid(x: Tensor) -> Tensor:
    """1/(1+exp(-x)), computed in place on one buffer. exp(-x) overflows
    to inf for very negative x, which gives exactly 0."""
    s = np.negative(x.data, out=np.empty_like(x.data))
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1
    np.reciprocal(s, out=s)

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
# Each convolution is one 2-D matmul against a patch matrix whose rows run
# over (channel, ki, kj) and whose columns run over (n, y, x), so the
# weights enter as `w.reshape(O, -1)` or `w.reshape(C, -1)` without a copy.
# Results come out channel-major; the returned NCHW arrays are views of
# them, and the elementwise ops that follow keep that memory order.

def _im2col(xd, kh, kw, stride, pad):
    """(N,C,H,W) -> (C*kh*kw, N*Ho*Wo) patch matrix, built in one copy."""
    N, C, H, W = xd.shape
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]               # (N,C,Ho,Wo,kh,kw)
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(C * kh * kw, -1)


def _col2im(cols, out_hw, stride, pad):
    """Sum (C,kh,kw,N,h,w) patches into an (N,C,H,W) view of a (C,N,H,W)
    array; each slice-add reads one contiguous (N,h,w) block per channel."""
    C, kh, kw, N, h, w = cols.shape
    H, W = out_hw
    xp = np.zeros((C, N, H + 2 * pad, W + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + stride * h:stride, j:j + stride * w:stride] += \
                cols[:, i, j]
    return xp[:, :, pad:pad + H, pad:pad + W].transpose(1, 0, 2, 3)


def _channels_first(a):
    """(N,C,H,W) -> (C, N*H*W); free when `a` is already channel-major."""
    return a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1,
           pad: int = 0) -> Tensor:
    """x: (N,C,H,W), w: (O,C,kh,kw), b: (O,). Zero padding, any stride."""
    N, C, H, W = x.shape
    O, Cw, kh, kw = w.shape
    if C != Cw or b.shape != (O,):
        raise ShapeMismatch(f"conv2d: x {x.shape} w {w.shape} b {b.shape}")
    Ho = (H + 2 * pad - kh) // stride + 1
    Wo = (W + 2 * pad - kw) // stride + 1
    cols = _im2col(x.data, kh, kw, stride, pad)
    out = w.data.reshape(O, -1) @ cols
    out += b.data[:, None]
    out = out.reshape(O, N, Ho, Wo).transpose(1, 0, 2, 3)

    def back(g):
        g2 = _channels_first(g)                        # (O, N*Ho*Wo)
        if b.requires_grad:
            _acc(b, g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            _acc(w, (g2 @ cols.T).reshape(w.shape))
        if x.requires_grad:
            gcols = (w.data.reshape(O, -1).T @ g2).reshape(C, kh, kw, N, Ho, Wo)
            _acc(x, _col2im(gcols, (H, W), stride, pad))
    return _result(out, (x, w, b), back, "conv2d")


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2,
                     pad: int = 1) -> Tensor:
    """x: (N,C,H,W), w: (C,O,kh,kw), b: (O,). Output (H-1)*stride-2*pad+kh."""
    N, C, H, W = x.shape
    Cw, O, kh, kw = w.shape
    if C != Cw or b.shape != (O,):
        raise ShapeMismatch(f"conv_transpose2d: x {x.shape} w {w.shape} b {b.shape}")
    Ho = (H - 1) * stride - 2 * pad + kh
    Wo = (W - 1) * stride - 2 * pad + kw
    x2 = _channels_first(x.data)                       # (C, N*H*W)
    cols = (w.data.reshape(C, -1).T @ x2).reshape(O, kh, kw, N, H, W)
    out = _col2im(cols, (Ho, Wo), stride, pad)
    out += b.data.reshape(1, O, 1, 1)

    def back(g):
        if b.requires_grad:
            _acc(b, g.sum(axis=(0, 2, 3)))
        if not (w.requires_grad or x.requires_grad):
            return
        gcols = _im2col(g, kh, kw, stride, pad)        # (O*kh*kw, N*H*W)
        if w.requires_grad:
            _acc(w, (x2 @ gcols.T).reshape(w.shape))
        if x.requires_grad:
            gx = (w.data.reshape(C, -1) @ gcols).reshape(C, N, H, W)
            _acc(x, gx.transpose(1, 0, 2, 3))
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
        _acc(logits, g * (expit(l) - t) / n)
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

def backward(loss: Tensor, params: list[Tensor] | None = None):
    """Accumulate `.grad` of every requires_grad tensor reachable from loss.

    Visits each graph node exactly once, children before parents, in a
    fixed order. Below the loss, a tensor with requires_grad=False, and
    every node built only from such tensors, keeps `.grad` None and runs
    no backward code. If `params` is given, parameters not reached by the
    graph get a zero grad and a DisconnectedParameter warning.
    """
    if loss.data.size != 1:
        raise NotScalar(f"loss has shape {loss.shape}")
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
    loss.grad = np.ones_like(loss.data)
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


class Params(dict):
    """A network's parameter tensors keyed by checkpoint name, in NAMES order.

    Each layer `l` owns `l.w` and `l.b`. Subclasses set NAMES and build
    their layers with `init_layers`, so a checkpoint written from
    `to_arrays` lists tensors in NAMES order.
    """

    NAMES: tuple[str, ...] = ()

    @classmethod
    def init_layers(cls, rng: np.random.Generator, layers, dtype=np.float32):
        """layers: (name, weight shape, fan_in, bias length), in NAMES order.
        Weights draw uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) from `rng` in
        that order; biases start at zero."""
        p = cls()
        for name, shape, fan_in, n_out in layers:
            bound = 1.0 / np.sqrt(fan_in)
            p[f"{name}.w"] = Tensor(
                rng.uniform(-bound, bound, size=shape).astype(dtype),
                requires_grad=True)
            p[f"{name}.b"] = Tensor(np.zeros(n_out, dtype=dtype),
                                    requires_grad=True)
        return p

    def parameters(self, prefix: str = "") -> list[Tensor]:
        return [t for name, t in self.items() if name.startswith(prefix)]

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.items()}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]):
        if set(arrays) != set(cls.NAMES):
            missing = sorted(set(cls.NAMES) - set(arrays))
            extra = sorted(set(arrays) - set(cls.NAMES))
            raise WrongParamNames(f"{cls.__name__}: missing {missing}, "
                                  f"unexpected {extra}")
        return cls((name, Tensor(arrays[name].astype(np.float32),
                                 requires_grad=True)) for name in cls.NAMES)
