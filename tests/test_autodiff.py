import tracemalloc
import warnings

import numpy as np
import pytest

import evanom.autodiff as ad
from evanom.autodiff import AdamState, Tensor
from evanom import io, lanes
from evanom.gan import GanParams

H_STEP = 1e-3
TOL = 1e-4


def check_gradients(make_loss, arrays, max_entries=24, seed=0, grad=None):
    """Central finite differences (h=1e-3, float64) vs backward(). Given
    `grad`, make_loss may return any shape and backward is seeded with
    grad, so the function checked is sum(grad * make_loss(...))."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(a.astype(np.float64), requires_grad=True)
               for a in arrays]

    def value(*ts):
        out = make_loss(*ts)
        return out.item() if grad is None else float(np.sum(grad * out.data))

    loss = make_loss(*tensors)
    for t in tensors:
        t.zero_grad()
    ad.backward(loss, tensors, grad=grad)
    worst = 0.0
    for t in tensors:
        flat = t.data.ravel()
        n = flat.size
        picks = range(n) if n <= max_entries else \
            rng.choice(n, max_entries, replace=False)
        for i in picks:
            orig = flat[i]
            flat2 = flat.copy()
            flat2[i] = orig + H_STEP
            t.data = flat2.reshape(t.data.shape)
            up = value(*tensors)
            flat2[i] = orig - H_STEP
            t.data = flat2.reshape(t.data.shape)
            down = value(*tensors)
            flat2[i] = orig
            t.data = flat2.reshape(t.data.shape)
            numeric = (up - down) / (2 * H_STEP)
            analytic = t.grad.ravel()[i]
            rel = abs(numeric - analytic) / max(abs(numeric),
                                                abs(analytic), 1e-3)
            worst = max(worst, rel)
    assert worst < TOL, f"max relative error {worst}"
    return worst


def _away_from_zero(rng, shape, margin=0.15):
    """Random values bounded away from 0 (kinks of |.| and leaky_relu)."""
    a = rng.standard_normal(shape)
    return np.where(np.abs(a) < margin, np.sign(a) * margin + a, a)


def _sum_loss(op):
    def make(*tensors):
        out = op(*tensors)
        w = Tensor(np.random.default_rng(99).standard_normal(out.shape))
        return ad.mse_loss(out, w)
    return make


def random_shapes(rng, count, ndim, lo=1, hi=5):
    return [tuple(int(rng.integers(lo, hi)) for _ in range(ndim))
            for _ in range(count)]


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# --- forward-value examples ----------------------------------------------

def test_sigmoid_of_zero():
    out = ad.sigmoid(Tensor(np.zeros((2, 3))))
    np.testing.assert_array_equal(out.data, 0.5)


def test_channel_mix_identity():
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4, 4)))
    w = Tensor(np.eye(3))
    b = Tensor(np.zeros(3))
    out = ad.channel_mix(x, w, b)
    np.testing.assert_allclose(out.data, x.data)


def test_conv2d_all_ones_kernel():
    x = Tensor(np.ones((1, 1, 5, 5)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    out = ad.conv2d(x, w, b, stride=1, pad=1).data[0, 0]
    assert out[2, 2] == 9
    assert out[0, 0] == 4
    assert out[0, 2] == 6


def _conv2d_reference(x, w, stride, pad):
    """Direct convolution, one output value at a time, in float64."""
    N, _, H, W = x.shape
    O, _, kh, kw = w.shape
    Ho, Wo = (H + 2 * pad - kh) // stride + 1, (W + 2 * pad - kw) // stride + 1
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ref = np.zeros((N, O, Ho, Wo))
    for n in range(N):
        for o in range(O):
            for i in range(Ho):
                for j in range(Wo):
                    ref[n, o, i, j] = np.sum(
                        xp[n, :, i * stride:i * stride + kh,
                           j * stride:j * stride + kw] * w[o])
    return ref


def _conv_transpose2d_reference(x, w, stride, pad):
    """Scatter each input value times the kernel, then crop the padding."""
    N, C, H, W = x.shape
    _, O, kh, kw = w.shape
    full = np.zeros((N, O, (H - 1) * stride + kh, (W - 1) * stride + kw))
    for n in range(N):
        for c in range(C):
            for i in range(H):
                for j in range(W):
                    full[n, :, i * stride:i * stride + kh,
                         j * stride:j * stride + kw] += x[n, c, i, j] * w[c]
    return full[:, :, pad:full.shape[2] - pad, pad:full.shape[3] - pad]


def _assert_close_relative(out, ref, rel):
    assert np.abs(out - ref).max() <= rel * np.abs(ref).max()


def test_conv2d_matches_brute_force(rng):
    x = rng.standard_normal((2, 3, 6, 7))
    w = rng.standard_normal((4, 3, 3, 3))
    out = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(4)),
                    stride=1, pad=1).data
    np.testing.assert_allclose(out, _conv2d_reference(x, w, 1, 1), atol=1e-10)


@pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12),
                                        (np.float32, 1e-5)])
def test_strided_conv2d_matches_brute_force(rng, dtype, rel):
    # the GAN's layer: k=4, stride 2, pad 1, several channels in and out
    x = rng.standard_normal((3, 5, 8, 10)).astype(dtype)
    w = rng.standard_normal((6, 5, 4, 4)).astype(dtype)
    b = rng.standard_normal(6).astype(dtype)
    out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, pad=1).data
    assert out.dtype == dtype and out.shape == (3, 6, 4, 5)
    _assert_close_relative(
        out, _conv2d_reference(x, w, 2, 1) + b.reshape(1, 6, 1, 1), rel)


@pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12),
                                        (np.float32, 1e-5)])
@pytest.mark.parametrize("k, stride, pad", [(4, 2, 1), (3, 1, 1), (3, 2, 0)])
def test_conv_transpose2d_matches_brute_force(rng, dtype, rel, k, stride, pad):
    x = rng.standard_normal((2, 5, 4, 3)).astype(dtype)
    w = rng.standard_normal((5, 3, k, k)).astype(dtype)
    b = rng.standard_normal(3).astype(dtype)
    out = ad.conv_transpose2d(Tensor(x), Tensor(w), Tensor(b),
                              stride=stride, pad=pad).data
    ref = _conv_transpose2d_reference(x, w, stride, pad) + b.reshape(1, 3, 1, 1)
    assert out.dtype == dtype and out.shape == ref.shape
    _assert_close_relative(out, ref, rel)


@pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12),
                                        (np.float32, 1e-5)])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("k, stride", [(3, 2), (5, 3), (1, 2)])
def test_conv_matches_brute_force_when_stride_does_not_divide_k(
        rng, dtype, rel, k, stride, pad):
    # odd H and W: the last block of stride x stride pixels is part padding
    x = rng.standard_normal((2, 3, 7, 9)).astype(dtype)
    b = rng.standard_normal(4).astype(dtype)
    for op, ref_op, w_shape in (
            (ad.conv2d, _conv2d_reference, (4, 3, k, k)),
            (ad.conv_transpose2d, _conv_transpose2d_reference, (3, 4, k, k))):
        w = rng.standard_normal(w_shape).astype(dtype)
        out = op(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad).data
        ref = ref_op(x, w, stride, pad) + b.reshape(1, 4, 1, 1)
        assert out.dtype == dtype and out.shape == ref.shape
        _assert_close_relative(out, ref, rel)


def test_conv_kernel_larger_than_padded_input_raises():
    x, b = Tensor(np.ones((1, 1, 2, 2))), Tensor(np.zeros(1))
    with pytest.raises(ad.ShapeMismatch, match="no output"):
        ad.conv2d(x, Tensor(np.ones((1, 1, 5, 5))), b, pad=1)
    with pytest.raises(ad.ShapeMismatch, match="no output"):
        ad.conv_transpose2d(Tensor(np.ones((1, 1, 1, 1))),
                            Tensor(np.ones((1, 1, 2, 2))), b, stride=2, pad=1)


def test_conv_transpose_inverts_spatial_reduction(rng):
    x = Tensor(rng.standard_normal((1, 3, 4, 4)))
    w = Tensor(rng.standard_normal((3, 2, 4, 4)))
    out = ad.conv_transpose2d(x, w, Tensor(np.zeros(2)), stride=2, pad=1)
    assert out.shape == (1, 2, 8, 8)


# A conv's forward and weight-gradient contractions are one matmul per tap
# on the space-to-depth grid, so conv2d's forward and its transpose's
# backward build no array taps (here 4) times the grid. At this GAN-sized
# stride-2 conv from (16,32,32,32) to 64 channels, and in the backward of
# its transpose, the grid is 2.27 MiB.
def test_conv_peak_memory_stays_near_grid(rng):
    f32 = lambda *shape: rng.standard_normal(shape).astype(np.float32)
    x, w, b = f32(16, 32, 32, 32), f32(64, 32, 4, 4), f32(64)
    grid = ad._Layout(16, 32, 32, 4, 4, 2, 1).space_to_depth(x).nbytes
    tracemalloc.start()
    try:
        ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, pad=1)
        fwd = tracemalloc.get_traced_memory()[1]
        y = ad.conv_transpose2d(
            Tensor(f32(16, 64, 16, 16), requires_grad=True),
            Tensor(w, requires_grad=True), Tensor(f32(32)), stride=2, pad=1)
        g = np.ones(y.shape, np.float32)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        y._back(g)                    # its backward: the (16,32,32,32) grid
        bwd = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert fwd < 3 * grid and bwd < 3 * grid, (fwd / grid, bwd / grid)


def _per_tap_grid_adjoint(lay, w2, cols):
    """`_Layout.grid_adjoint` as one matmul per tap: w2_t.T @ cols added
    into a zero grid at tap t's shift, in tap order."""
    grid = np.zeros((w2.shape[2], lay.m + lay.shifts[-1]),
                    dtype=np.result_type(w2, cols))
    for w2_t, off in zip(w2, lay.shifts):
        grid[:, off:off + lay.m] += w2_t.T @ cols
    return grid


# Input side of each GAN layer's layout on 64x64 frames (a transposed
# conv's layout is that of the conv it is the adjoint of).
_GAN_LAYOUT_SIDE = {"d1": 64, "d2": 32, "d3": 16, "u1": 16, "u2": 32,
                    "u3": 64, "c1": 64, "c2": 32, "c3": 16}


def test_grid_adjoint_is_the_per_tap_sum_bit_for_bit(rng):
    """The folded product gives each grid element the per-tap products'
    bits, added in the same order, on every G and D conv at N=16: the
    generator's downs and ups (u3 has R = 1*2*2 = 4 grid rows) and both
    discriminators' convs."""
    for name, shape, *_ in GanParams.layers(64, 64, 16, 16):
        if name.endswith(".fc"):
            continue
        side = _GAN_LAYOUT_SIDE[name.split(".")[1]]
        lay = ad._Layout(16, side, side, 4, 4, 2, 1)
        w2 = lay.regroup(rng.standard_normal(shape).astype(np.float32))
        cols = rng.standard_normal((shape[0], lay.m)).astype(np.float32)
        with lanes.one_blas_thread():
            got = lay.grid_adjoint(w2, cols)
            want = _per_tap_grid_adjoint(lay, w2, cols)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes(), name


# --- elementwise kernels against their reference formulas -----------------

_UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _bits(a):
    return np.asarray(a).view(_UINT[np.asarray(a).dtype])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_expit(dtype):
    from scipy.special import expit
    x = np.linspace(-120, 120, 100_001).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ad.sigmoid(Tensor(x)).data
    want = expit(x)
    assert got.dtype == want.dtype == dtype
    # both in [0, 1], where the bit patterns order like the values
    ulps = np.abs(_bits(got).astype(np.int64) - _bits(want).astype(np.int64))
    assert ulps.max() <= 4
    np.testing.assert_array_equal(got == 0, want == 0)
    np.testing.assert_array_equal(got == 1, want == 1)
    assert (want == 1).any() and (dtype == np.float64 or (want == 0).any())


def _special_values(rng, dtype):
    """Random values plus +-0, +-inf, NaN and subnormals, in one array."""
    x = rng.standard_normal(64).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    x[:8] = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, -3 * tiny]
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [0.2, 1.0, 0.01, 1e-30])
def test_leaky_relu_bit_equal_to_where_formulas(rng, dtype, alpha):
    x = _special_values(rng, dtype)
    g = _special_values(rng, dtype)[::-1].copy()
    t = Tensor(x, requires_grad=True)
    y = ad.leaky_relu(t, alpha)
    np.testing.assert_array_equal(
        _bits(y.data), _bits(np.where(x > 0, x, alpha * x)))
    y._back(g)
    np.testing.assert_array_equal(
        _bits(t.grad), _bits(g * np.where(x > 0, 1.0, alpha).astype(dtype)))


def test_leaky_relu_rejects_alpha_outside_unit_interval():
    for alpha in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            ad.leaky_relu(Tensor(np.ones(3)), alpha)


@pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12),
                                        (np.float32, 1e-5)])
@pytest.mark.parametrize("n, c, h, w, o", [(2, 1, 3, 4, 5), (3, 4, 2, 5, 1),
                                           (5, 3, 1, 1, 4), (1, 1, 1, 1, 1),
                                           (4, 6, 2, 3, 2)])
def test_channel_mix_matches_einsum(rng, dtype, rel, n, c, h, w, o):
    x = rng.standard_normal((n, c, h, w))
    wt = rng.standard_normal((o, c))
    b = rng.standard_normal(o)
    g = rng.standard_normal((n, o, h, w))
    tx, tw, tb = (Tensor(a.astype(dtype), requires_grad=True)
                  for a in (x, wt, b))
    out = ad.channel_mix(tx, tw, tb)
    out._back(g.astype(dtype))
    want = {"out": np.einsum("nchw,oc->nohw", x, wt) + b[None, :, None, None],
            "x": np.einsum("nohw,oc->nchw", g, wt),
            "w": np.einsum("nohw,nchw->oc", g, x),
            "b": np.einsum("nohw->o", g)}
    got = {"out": out.data, "x": tx.grad, "w": tw.grad, "b": tb.grad}
    for key in want:
        assert got[key].shape == want[key].shape and got[key].dtype == dtype
        _assert_close_relative(got[key], want[key], rel)


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ad.ShapeMismatch) as e:
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    assert "(2, 3)" in str(e.value) and "(3, 2)" in str(e.value)


def test_bce_with_logits_half():
    logits = Tensor(np.zeros(4))
    assert ad.bce_with_logits(logits, Tensor(np.ones(4))).item() == \
        pytest.approx(np.log(2))


def test_bce_with_logits_nan_logits_give_nan_without_warning():
    logits = Tensor(np.array([0.5, np.nan, -2.0], dtype=np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = ad.bce_with_logits(logits, Tensor(np.ones(3, np.float32)))
    assert np.isnan(loss.item())


def test_backward_simple_cases():
    w = Tensor(np.array([3.0]), requires_grad=True)
    loss = ad.mse_loss(w, Tensor(np.zeros(1)))
    ad.backward(loss)
    assert w.grad[0] == pytest.approx(6.0)

    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    x = Tensor(np.array([5.0, -3.0]))
    loss = ad.mse_loss(ad.mul(w, x), Tensor(np.zeros(2)))
    ad.backward(loss)
    np.testing.assert_allclose(w.grad, 2 * w.data * x.data ** 2 / 2)


def test_backward_requires_scalar():
    with pytest.raises(ad.NotScalar):
        ad.backward(Tensor(np.zeros((2, 2)), requires_grad=True))


def test_seeded_backward_is_gradient_of_seed_weighted_sum(rng):
    # backward(root, params, grad=g) on a non-scalar root gives the
    # gradient of sum(g * root), as the GAN's generator step uses it
    def net(x, w, b):
        return ad.tanh(ad.conv2d(x, w, b, stride=2, pad=1))

    arrays = [rng.standard_normal((2, 3, 8, 8)),
              0.3 * rng.standard_normal((4, 3, 4, 4)),
              rng.standard_normal(4)]
    check_gradients(net, arrays, grad=rng.standard_normal((2, 4, 4, 4)))


def test_seeded_backward_checks_root_and_seed_shapes(rng):
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    with pytest.raises(ad.NotScalar):
        ad.backward(ad.tanh(x), [x])
    with pytest.raises(ad.ShapeMismatch, match=r"\(3, 2\) vs loss \(2, 3\)"):
        ad.backward(ad.tanh(x), [x], grad=np.ones((3, 2)))
    assert x.grad is None


def test_disconnected_parameter_warns():
    w = Tensor(np.ones(2), requires_grad=True)
    other = Tensor(np.ones(2), requires_grad=True)
    loss = ad.mse_loss(w, Tensor(np.zeros(2)))
    with pytest.warns(ad.DisconnectedParameter):
        ad.backward(loss, [w, other])
    np.testing.assert_array_equal(other.grad, 0)


def test_grad_accumulates_over_shared_subexpression():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x
    loss = ad.mse_loss(y, Tensor(np.zeros(1)))
    ad.backward(loss)
    # d/dx (x^2+3x)^2 / 1 = 2*(x^2+3x)*(2x+3) = 2*10*7
    assert x.grad[0] == pytest.approx(140.0)


@pytest.mark.parametrize("c_first", [True, False])
def test_gradient_handed_to_two_inputs_is_not_shared(rng, c_first):
    # add() hands one gradient to a and b; if both kept that array, the
    # later 2a term would leak into b's gradient
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    c, m = ad.add(a, b), ad.mul(a, 2.0)
    e = ad.add(c, m) if c_first else ad.add(m, c)     # 3a + b
    ad.backward(ad.mse_loss(e, Tensor(np.zeros((2, 3)))))
    g_e = 2 * (3 * a.data + b.data) / 6
    np.testing.assert_allclose(a.grad, 3 * g_e, rtol=1e-12)
    np.testing.assert_allclose(b.grad, g_e, rtol=1e-12)


def test_sum_of_losses_backward_linearity(rng):
    x = rng.standard_normal((3, 4))
    a = Tensor(x.copy(), requires_grad=True)
    t = Tensor(rng.standard_normal((3, 4)))
    l1 = ad.mse_loss(a, t)
    l2 = ad.l1_norm(a)
    ad.backward(ad.add(l1, l2))
    combined = a.grad.copy()

    b = Tensor(x.copy(), requires_grad=True)
    ad.backward(ad.mse_loss(b, t))
    g1 = b.grad.copy()
    b.zero_grad()
    ad.backward(ad.l1_norm(b))
    np.testing.assert_allclose(combined, g1 + b.grad, atol=1e-12)


def test_ops_do_not_mutate_inputs(rng):
    x = rng.standard_normal((2, 2, 4, 4))
    t = Tensor(x.copy())
    w = Tensor(rng.standard_normal((3, 2, 3, 3)))
    ad.conv2d(t, w, Tensor(np.zeros(3)), pad=1)
    ad.sigmoid(t)
    ad.leaky_relu(t)
    np.testing.assert_array_equal(t.data, x)


# --- inputs that do not require gradients --------------------------------

# op -> (build(x, *params) -> output, shape of x, shapes of params). x is
# the op's own input that will not require grad; mul by a parameter gives
# every case a parameter when the op has none of its own.
NO_GRAD_CASES = {
    "add": (ad.add, (2, 3), [(2, 3)]),
    "mul": (ad.mul, (2, 3), [(2, 3)]),
    "sigmoid": (lambda x, p: ad.mul(ad.sigmoid(x), p), (2, 3), [(2, 3)]),
    "tanh": (lambda x, p: ad.mul(ad.tanh(x), p), (2, 3), [(2, 3)]),
    "leaky_relu": (lambda x, p: ad.mul(ad.leaky_relu(x), p), (2, 3), [(2, 3)]),
    "concat": (lambda x, p: ad.concat([x, p]), (2, 1, 3, 3), [(2, 2, 3, 3)]),
    "conv2d": (lambda x, w, b: ad.conv2d(x, w, b, stride=2, pad=1),
               (2, 3, 6, 6), [(4, 3, 4, 4), (4,)]),
    "conv_transpose2d": (ad.conv_transpose2d, (2, 3, 3, 3),
                         [(3, 2, 4, 4), (2,)]),
    "channel_mix": (ad.channel_mix, (2, 3, 4, 4), [(2, 3), (2,)]),
    "dense": (ad.dense, (4, 3), [(3, 2), (2,)]),
    "reshape": (lambda x, p: ad.mul(ad.reshape(x, (2, 3)), p), (3, 2),
                [(2, 3)]),
    "mse_loss": (lambda x, p: ad.mse_loss(p, x), (2, 3), [(2, 3)]),
    "bce_with_logits": (lambda x, p: ad.bce_with_logits(p, x), (2, 3),
                        [(2, 3)]),
    "l1_norm": (lambda x, p: ad.mul(ad.l1_norm(x), p), (2, 3), [()]),
}


def test_no_grad_cases_cover_every_op():
    public = {name for name, f in vars(ad).items()
              if callable(f) and getattr(f, "__module__", "") == ad.__name__
              and not name.startswith("_") and name[0].islower()}
    assert public - {"backward", "adam_step"} == \
        set(NO_GRAD_CASES)


@pytest.mark.parametrize("op", sorted(NO_GRAD_CASES))
def test_input_without_grad_gets_none(op, monkeypatch):
    build, x_shape, p_shapes = NO_GRAD_CASES[op]
    rng = np.random.default_rng(3)
    x_data = rng.standard_normal(x_shape)
    p_data = [rng.standard_normal(s) for s in p_shapes]

    def grads(x_requires_grad):
        x = Tensor(x_data, requires_grad=x_requires_grad)
        params = [Tensor(a, requires_grad=True) for a in p_data]
        out = build(x, *params)
        if out.data.size > 1:
            out = ad.mse_loss(out, Tensor(np.zeros(out.shape)))
        ad.backward(out, params)
        return x.grad, [p.grad for p in params]

    x_grad, p_grads = grads(False)
    assert x_grad is None
    ref_x_grad, ref_p_grads = grads(True)
    assert ref_x_grad is not None
    for got, want in zip(p_grads, ref_p_grads):
        np.testing.assert_array_equal(got, want)

    # with no input needing a gradient, no op records a graph
    made = []
    monkeypatch.setattr(ad, "_result",
                        lambda *a, f=ad._result: made.append(f(*a)) or made[-1])
    build(Tensor(x_data), *(Tensor(a) for a in p_data))
    assert made and all(t._prev == () and t._back is None for t in made)


# --- gradient checks, 10 random shapes per op -----------------------------

N_SHAPES = 10


def test_grad_add_mul(rng):
    for _ in range(N_SHAPES):
        shape = tuple(rng.integers(1, 5, size=2))
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        check_gradients(lambda u, v: _sum_loss(ad.add)(u, v), [a, b])
        check_gradients(lambda u, v: _sum_loss(ad.mul)(u, v), [a, b])
        check_gradients(lambda u: _sum_loss(lambda t: ad.mul(t, 2.5))(u), [a])
        check_gradients(lambda u: _sum_loss(lambda t: ad.add(t, -1.5))(u), [a])


def test_grad_activations(rng):
    for _ in range(N_SHAPES):
        shape = tuple(rng.integers(1, 6, size=2))
        x = rng.standard_normal(shape)
        check_gradients(lambda u: _sum_loss(ad.sigmoid)(u), [x])
        check_gradients(lambda u: _sum_loss(ad.tanh)(u), [x])
        xa = _away_from_zero(rng, shape)
        check_gradients(
            lambda u: _sum_loss(lambda t: ad.leaky_relu(t, 0.2))(u), [xa])


def test_grad_concat(rng):
    for _ in range(N_SHAPES):
        n, c1, c2, h, w = (int(rng.integers(1, 4)) for _ in range(5))
        a = rng.standard_normal((n, c1, h, w))
        b = rng.standard_normal((n, c2, h, w))
        check_gradients(
            lambda u, v: _sum_loss(lambda s, t: ad.concat([s, t]))(u, v),
            [a, b])


def test_grad_conv2d(rng):
    for k in range(N_SHAPES):
        stride = 1 if k % 2 == 0 else 2
        n, cin, cout = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
        hw = int(rng.integers(4, 8))
        x = rng.standard_normal((n, cin, hw, hw))
        w = rng.standard_normal((cout, cin, 3, 3))
        b = rng.standard_normal(cout)
        check_gradients(
            lambda xx, ww, bb: _sum_loss(
                lambda s, t, u: ad.conv2d(s, t, u, stride=stride, pad=1)
            )(xx, ww, bb), [x, w, b])


def test_grad_conv_transpose2d(rng):
    for _ in range(N_SHAPES):
        n, cin, cout = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
        hw = int(rng.integers(2, 5))
        x = rng.standard_normal((n, cin, hw, hw))
        w = rng.standard_normal((cin, cout, 4, 4))
        b = rng.standard_normal(cout)
        check_gradients(
            lambda xx, ww, bb: _sum_loss(
                lambda s, t, u: ad.conv_transpose2d(s, t, u, stride=2, pad=1)
            )(xx, ww, bb), [x, w, b])


@pytest.mark.parametrize("op, k, stride, pad", [
    (ad.conv2d, 4, 2, 1),              # the GAN's layer
    (ad.conv_transpose2d, 3, 2, 0),
    (ad.conv_transpose2d, 3, 2, 1),
])
def test_grad_strided_conv_geometries(rng, op, k, stride, pad):
    for _ in range(N_SHAPES // 2):
        n, cin, cout = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
        h, w = (int(rng.integers(3, 8)) for _ in range(2))
        x = rng.standard_normal((n, cin, h, w))
        wt = rng.standard_normal((cout, cin, k, k) if op is ad.conv2d
                                 else (cin, cout, k, k))
        b = rng.standard_normal(cout)
        check_gradients(
            lambda xx, ww, bb: _sum_loss(
                lambda s, t, u: op(s, t, u, stride=stride, pad=pad)
            )(xx, ww, bb), [x, wt, b])


def test_grad_channel_mix(rng):
    for _ in range(N_SHAPES):
        n, cin, cout, hw = (int(rng.integers(1, 5)) for _ in range(4))
        x = rng.standard_normal((n, cin, hw, hw))
        w = rng.standard_normal((cout, cin))
        b = rng.standard_normal(cout)
        check_gradients(
            lambda xx, ww, bb: _sum_loss(ad.channel_mix)(xx, ww, bb),
            [x, w, b])


def test_grad_dense(rng):
    for _ in range(N_SHAPES):
        n, d, m = (int(rng.integers(1, 6)) for _ in range(3))
        check_gradients(
            lambda xx, ww, bb: _sum_loss(ad.dense)(xx, ww, bb),
            [rng.standard_normal((n, d)), rng.standard_normal((d, m)),
             rng.standard_normal(m)])


def test_grad_reshape(rng):
    for _ in range(N_SHAPES):
        n, c, h, w = (int(rng.integers(1, 4)) for _ in range(4))
        x = rng.standard_normal((n, c, h, w))
        check_gradients(
            lambda u: _sum_loss(lambda t: ad.reshape(t, (n, c * h * w)))(u),
            [x])


def test_grad_losses(rng):
    for _ in range(N_SHAPES):
        shape = tuple(rng.integers(1, 6, size=2))
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        check_gradients(lambda u, v: ad.mse_loss(u, v), [a, b])
        check_gradients(lambda u: ad.l1_norm(u),
                        [_away_from_zero(rng, shape)])
        t = rng.random(shape)
        check_gradients(lambda u: ad.bce_with_logits(u, Tensor(t)), [a])


def test_grad_tanh_composed_network(rng):
    # sanity: grads flow through a deep composition
    x = rng.standard_normal((1, 2, 8, 8))
    w1 = rng.standard_normal((3, 2, 3, 3))
    w2 = rng.standard_normal((3, 1, 4, 4))

    def net(xx, ww1, ww2):
        h = ad.leaky_relu(ad.conv2d(xx, ww1, Tensor(np.zeros(3)),
                                    stride=2, pad=1))
        out = ad.tanh(ad.conv_transpose2d(h, ww2, Tensor(np.zeros(1)),
                                          stride=2, pad=1))
        return ad.mse_loss(out, Tensor(np.zeros(out.shape)))
    check_gradients(net, [x, w1, w2])


# --- Adam -----------------------------------------------------------------

def test_adam_zero_gradient_no_move():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    before = p.data.copy()
    ad.adam_step([p], AdamState(lr=0.1))
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_magnitude():
    # bias-corrected Adam: |delta| = lr * g / (sqrt(g^2) + eps) ~ lr
    for g in (0.5, -3.0, 10.0):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([g])
        ad.adam_step([p], AdamState(lr=1e-3))
        assert abs(p.data[0]) == pytest.approx(1e-3, rel=1e-4)
        assert np.sign(p.data[0]) == -np.sign(g)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(0)
        p = Tensor(rng.standard_normal(5).astype(np.float32),
                   requires_grad=True)
        st = AdamState(lr=1e-2)
        for _ in range(10):
            loss = ad.mse_loss(p, Tensor(np.zeros(5, dtype=np.float32)))
            p.zero_grad()
            ad.backward(loss, [p])
            ad.adam_step([p], st)
        return p.data.tobytes()
    assert run() == run()


def test_adam_shape_mismatch():
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = np.zeros(3)
    st = AdamState()
    st.m[0] = np.zeros(4)
    st.v[0] = np.zeros(4)
    with pytest.raises(ad.ShapeMismatch):
        ad.adam_step([p], st)


# --- EVCK checkpoints -----------------------------------------------------

def test_evck_round_trip(rng):
    tensors = {
        "g.d1.w": rng.standard_normal((4, 2, 3, 3)).astype(np.float32),
        "g.d1.b": rng.standard_normal(4).astype(np.float32),
        "ms.enc1.w": rng.standard_normal((32, 8)).astype(np.float32),
    }
    back = io.read_evck(io.write_evck(tensors))
    assert set(back) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(back[k], tensors[k])


def test_evck_rejects_garbage():
    with pytest.raises(io.FormatError):
        io.read_evck(b"XXXX" + b"\x00" * 16)
