import contextlib
import functools
import sys
import threading

import numpy as np
import pytest

import evanom.autodiff as ad
from evanom import gan as gan_mod
from evanom import io, lanes
from evanom.autodiff import ShapeMismatch, Tensor
from evanom.gan import (GanBatch, GanParams, d_forward_t, d_loss, g_adv_loss,
                        g_forward, g_forward_t, l1_loss, prepare_batches,
                        train_gan)
from evanom.msnet import DivergenceDetected, MsNetParams, train_ms
from evanom.oracle import (LOG2, DiscreteJoint, dual_objective, optimal_d_x,
                           optimal_d_xy)
from evanom.pipeline import PipelineConfig
from evanom.representation import window_block
from evanom.simulate import render_scene, walking_scene


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def tiny_params(rng, h=8, w=8, ngf=2, ndf=2):
    return GanParams.init(h, w, ngf, ndf, rng)


def tiny_batch(rng, n=2, h=8, w=8):
    return GanBatch(
        y=rng.random((n, 1, h, w)).astype(np.float32),
        x=np.tanh(rng.standard_normal((n, 1, h, w))).astype(np.float32),
        z=rng.standard_normal((n, 1, h, w)).astype(np.float32))


def generated(params, batch):
    """The generator's frames for a batch, from one forward pass."""
    return g_forward_t(params, Tensor(batch.y), Tensor(batch.z))


def d_losses(params, batch, x_fake):
    """(L_Dxy, L_Dx) loss tensors on the generator's frames `x_fake`."""
    return tuple(d_loss(params, part, batch, x_fake) for part in ("dxy", "dx"))


def g_loss(params, batch, x_fake, lambda_l1=0.0):
    """Non-saturating generator loss on the generator's frames `x_fake`, as
    one graph: -mean log D_xy(x_hat, y) - mean log D_x(x_hat)
    + lambda * mean|x_hat - x|."""
    terms = [g_adv_loss(params, part, batch, x_fake) for part in ("dxy", "dx")]
    if lambda_l1 > 0:
        terms.append(l1_loss(batch, x_fake, lambda_l1))
    return functools.reduce(ad.add, terms)


def test_init_rejects_bad_geometry(rng):
    with pytest.raises(ShapeMismatch):
        GanParams.init(12, 16, 16, 16, rng)


def test_generator_output_shape_and_range(rng):
    params = tiny_params(rng)
    batch = tiny_batch(rng, n=3)
    out = g_forward(params, batch.y, batch.z)
    assert out.shape == (3, 1, 8, 8)
    assert (np.abs(out) < 1.0).all()  # tanh output


def test_forward_deterministic(rng):
    params = tiny_params(rng)
    batch = tiny_batch(rng)
    np.testing.assert_array_equal(g_forward(params, batch.y, batch.z),
                                  g_forward(params, batch.y, batch.z))


def test_params_follow_checkpoint_names(rng):
    params = tiny_params(rng)
    assert tuple(params) == GanParams.NAMES
    arrays = params.to_arrays()
    back = GanParams.from_arrays(dict(reversed(arrays.items())))
    assert tuple(back) == GanParams.NAMES
    assert io.write_evck(back.to_arrays()) == io.write_evck(arrays)
    with pytest.raises(ValueError):
        MsNetParams.from_arrays(arrays)
    del arrays["dx.fc.b"]
    with pytest.raises(ValueError):
        GanParams.from_arrays(arrays)


def test_params_shapes_checked_against_layer_table(rng):
    arrays = GanParams.init(16, 16, 2, 2, rng).to_arrays()
    GanParams.from_arrays(arrays, GanParams.layers(16, 16, 2, 2))
    with pytest.raises(ad.WrongParamShapes,
                       match=r"g\.d1\.w has shape \(2, 2, 4, 4\), expected "
                             r"\(3, 2, 4, 4\) for gan_ngf=3"):
        GanParams.from_arrays(arrays, GanParams.layers(16, 16, 3, 2))
    arrays["dx.c3.b"] = arrays["dx.c3.b"][:1]
    with pytest.raises(ad.WrongParamShapes, match=r"dx\.c3\.b .* \(8,\)"):
        GanParams.from_arrays(arrays, GanParams.layers(16, 16, 2, 2))


def test_load_reads_widths_from_checkpoint(rng):
    """ngf and ndf come from the arrays; the frame size is checked."""
    arrays = GanParams.init(16, 24, 2, 3, rng).to_arrays()
    back = GanParams.load(arrays, h=16, w=24)
    assert io.write_evck(back.to_arrays()) == io.write_evck(arrays)
    with pytest.raises(ad.WrongParamShapes,
                       match=r"dxy\.fc\.w .* for gan_ndf=3, height=16, "
                             r"width=16"):
        GanParams.load(arrays, h=16, w=16)
    with pytest.raises(ShapeMismatch, match="divisible by 8"):
        GanParams.load(arrays, h=16, w=20)


def test_discriminator_logit_shape(rng):
    params = tiny_params(rng)
    batch = tiny_batch(rng, n=4)
    logits = d_forward_t(params, "dx", Tensor(batch.x))
    assert logits.shape == (4, 1)
    assert np.isfinite(logits.data).all()


def test_d_loss_is_2log2_at_indifference(rng):
    # zeroed discriminators emit logit 0 -> D = 1/2 everywhere
    params = tiny_params(rng)
    for p in params.parameters("dxy.") + params.parameters("dx."):
        p.data[...] = 0.0
    batch = tiny_batch(rng)
    l_dxy, l_dx = d_losses(params, batch, generated(params, batch))
    assert l_dxy.item() == pytest.approx(2 * LOG2, abs=1e-6)
    assert l_dx.item() == pytest.approx(2 * LOG2, abs=1e-6)


def test_g_loss_decreases_when_discriminator_fooled(rng):
    # raising the fc bias raises D(fake) and must lower the generator loss
    params = tiny_params(rng)
    batch = tiny_batch(rng)
    base = g_loss(params, batch, generated(params, batch)).item()
    params["dxy.fc.b"].data[...] = 5.0
    params["dx.fc.b"].data[...] = 5.0
    assert g_loss(params, batch, generated(params, batch)).item() < base


def test_g_loss_lambda_l1(rng):
    params = tiny_params(rng)
    batch = tiny_batch(rng)
    x_fake = generated(params, batch)
    plain = g_loss(params, batch, x_fake, lambda_l1=0.0).item()
    with_l1 = g_loss(params, batch, x_fake, lambda_l1=10.0).item()
    fake = g_forward(params, batch.y, batch.z)
    l1 = np.mean(np.abs(fake - batch.x))
    assert with_l1 == pytest.approx(plain + 10.0 * l1, rel=1e-5)


def _float64(params):
    for p in params.parameters():
        p.data = p.data.astype(np.float64)
    return params


def _check_param_grads(loss_fn, params, plist, rng, h=1e-5, rel=1e-4):
    loss = loss_fn()
    for p in plist:
        p.zero_grad()
    ad.backward(loss, plist)
    for p in plist:
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_fn().item()
            flat[idx] = keep - h
            down = loss_fn().item()
            flat[idx] = keep
            num = (up - down) / (2 * h)
            denom = max(abs(num), abs(gflat[idx]), 1e-4)
            assert abs(num - gflat[idx]) / denom < rel, \
                f"grad mismatch {num} vs {gflat[idx]}"


def test_d_loss_gradients_match_finite_differences(rng):
    params = _float64(tiny_params(rng))
    batch = tiny_batch(rng)
    batch.y, batch.x, batch.z = (a.astype(np.float64)
                                 for a in (batch.y, batch.x, batch.z))
    def losses():
        return d_losses(params, batch, generated(params, batch))
    _check_param_grads(lambda: losses()[0],
                       params, params.parameters("dxy."), rng)
    _check_param_grads(lambda: losses()[1],
                       params, params.parameters("dx."), rng)


def test_g_loss_gradients_match_finite_differences(rng):
    params = _float64(tiny_params(rng))
    batch = tiny_batch(rng)
    batch.y, batch.x, batch.z = (a.astype(np.float64)
                                 for a in (batch.y, batch.x, batch.z))
    _check_param_grads(lambda: g_loss(params, batch, generated(params, batch),
                                      lambda_l1=1.0),
                       params, params.parameters("g."), rng)


def test_g_loss_computes_no_discriminator_grads(rng):
    # D is held fixed in the G step: only G's parameters get gradients
    params = tiny_params(rng)
    batch = tiny_batch(rng)
    ad.backward(g_loss(params, batch, generated(params, batch), lambda_l1=1.0),
                params.parameters("g."))
    for p in params.parameters("g."):
        assert p.grad.any()
    for p in params.parameters("dxy.") + params.parameters("dx."):
        assert p.grad is None


def test_d_loss_does_not_reach_generator(rng):
    # fakes are detached: discriminator training must leave G untouched
    params = tiny_params(rng)
    batch = tiny_batch(rng)
    l_dxy, l_dx = d_losses(params, batch, generated(params, batch))
    for p in params.parameters():
        p.zero_grad()
    with pytest.warns(UserWarning):
        ad.backward(l_dxy, params.parameters())
    for p in params.parameters("g."):
        assert not p.grad.any()
    for p in params.parameters("dxy."):
        assert p.grad.any()


def _logit(d):
    return np.log(d / (1.0 - d))


def _multiset(values, weights, denom):
    """Repeat each value round(weight*denom) times -> exact sample mean."""
    counts = np.round(np.asarray(weights) * denom).astype(int)
    assert counts.sum() == denom
    return np.repeat(np.asarray(values, dtype=np.float64), counts)


def minimax_value(logits_dd, logits_gd, logits_dx, logits_gx) -> float:
    """Four-term adversarial objective evaluated from logit samples via the
    same stable BCE path the training losses use (sample means, so exact
    probability-weighted multisets give exact expectations)."""

    def term(logits, target):
        t = Tensor(np.asarray(logits, dtype=np.float64))
        fill = np.ones_like(t.data) if target else np.zeros_like(t.data)
        return ad.bce_with_logits(t, Tensor(fill)).item()

    return -(term(logits_dd, 1) + term(logits_gd, 0)
             + term(logits_dx, 1) + term(logits_gx, 0))


def test_minimax_value_matches_oracle_objective():
    # exact rational joint so probability-weighted multisets are exact
    p_dd = np.array([[4, 2], [3, 7]], dtype=np.float64) / 16
    p_g_cond = np.array([[2, 5], [6, 3]], dtype=np.float64) / 8
    j = DiscreteJoint(p_dd, p_g_cond)
    d_xy, d_x = optimal_d_xy(j), optimal_d_x(j)
    want = dual_objective(j, d_xy, d_x)
    got = minimax_value(
        _multiset(_logit(d_xy).ravel(), j.p_dd.ravel(), 128),
        _multiset(_logit(d_xy).ravel(), j.p_gd.ravel(), 128),
        _multiset(_logit(d_x), j.p_d_x, 128),
        _multiset(_logit(d_x), j.p_g_x, 128))
    assert got == pytest.approx(want, abs=1e-6)


def test_minimax_value_at_zero_logits():
    zeros = np.zeros(5)
    assert minimax_value(zeros, zeros, zeros, zeros) == \
        pytest.approx(-4 * LOG2, abs=1e-12)


@pytest.fixture(scope="module")
def trained_setup():
    stream, _ = render_scene(walking_scene(3, duration=500_000, size=16))
    windows = window_block(stream, bin_dt=25_000, bins=4, stride=2,
                           mode="bilinear")
    vols = np.stack([np.clip(w[:-1], -5, 5) / 5.0 for w in windows])
    ms_params, _ = train_ms(
        vols, PipelineConfig(ms_filters=8, ms_epochs=5, ms_batch=8), seed=1)
    return windows, ms_params


def test_prepare_batches_ranges(trained_setup):
    windows, ms_params = trained_setup
    surfaces, targets = prepare_batches(windows, ms_params, cap=5.0)
    assert surfaces.shape == (len(windows), 1, 16, 16)
    assert targets.shape == surfaces.shape
    assert (surfaces > 0).all() and (surfaces < 1).all()
    assert (np.abs(targets) <= 1).all()


def test_train_gan_smoke_and_determinism(trained_setup):
    windows, ms_params = trained_setup
    cfg = PipelineConfig(gan_ngf=4, gan_ndf=4, gan_epochs=2, gan_batch=8)

    def run():
        params, curves = train_gan(windows, ms_params, cfg, seed=5)
        return io.write_evck(params.to_arrays()), curves
    blob_a, curves = run()
    blob_b, _ = run()
    assert blob_a == blob_b
    assert set(curves) == {"d_xy", "d_x", "g"}
    assert all(len(c) == 2 and np.isfinite(c).all()
               for c in curves.values())


def _reference_train_gan(windows, ms_params, cfg, seed):
    """train_gan's update sequence, written out on one thread. The
    generator runs on the fixed half-batch rows [0, ceil(n/2)) and
    [ceil(n/2), n) (one shard if n is 1), and both losses see the
    shards' frames concatenated. The D steps are plain backward passes.
    G's gradient is one backward per shard, seeded with that shard's rows
    of the gradient of the whole-batch G loss (one graph) to the frames,
    and the shards' gradients are added in shard order."""
    surfaces, targets = prepare_batches(windows, ms_params, cfg.cap)
    n, _, h, w = surfaces.shape
    rng = np.random.default_rng(seed)
    params = GanParams.init(h, w, cfg.gan_ngf, cfg.gan_ndf, rng)
    opts = {prefix: ad.AdamState(lr=cfg.gan_lr, beta1=cfg.gan_beta1)
            for prefix in ("g.", "dxy.", "dx.")}

    def step(loss, prefix, grad=None):
        plist = params.parameters(prefix)
        for p in plist:
            p.zero_grad()
        ad.backward(loss, plist, grad=grad)
        return plist

    for _ in range(cfg.gan_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.gan_batch):
            idx = order[start:start + cfg.gan_batch]
            batch = GanBatch(
                y=surfaces[idx], x=targets[idx],
                z=rng.standard_normal((len(idx), 1, h, w)).astype(np.float32))
            cut = -(-len(idx) // 2)
            halves = [(0, cut), (cut, len(idx))] if len(idx) > 1 else [(0, 1)]
            shards = [g_forward_t(params, Tensor(batch.y[lo:hi]),
                                  Tensor(batch.z[lo:hi])) for lo, hi in halves]
            frames = np.concatenate([f.data for f in shards])
            for loss, prefix in zip(d_losses(params, batch, Tensor(frames)),
                                    ("dxy.", "dx.")):
                ad.adam_step(step(loss, prefix), opts[prefix])
            leaf = Tensor(frames, requires_grad=True)
            ad.backward(g_loss(params, batch, leaf, cfg.gan_lambda_l1))
            grads = []
            for f, (lo, hi) in zip(shards, halves):
                plist = step(f, "g.", grad=leaf.grad[lo:hi])
                grads.append([p.grad for p in plist])
            for p, *gs in zip(plist, *grads):
                p.grad = functools.reduce(np.add, gs)
            ad.adam_step(plist, opts["g."])
    return params


@pytest.mark.parametrize("lambda_l1", [0.0, 0.5])
def test_train_gan_runs_generator_once_per_batch(trained_setup, monkeypatch,
                                                 lambda_l1):
    # The D steps leave G's arrays alone, so one G forward per shard of a
    # batch must give the same checkpoint bytes as the reference. At 2
    # lanes the shards, the D steps and the G loss's adversarial terms run
    # at once on two threads, switching as often as the interpreter
    # allows; the bytes must not change.
    windows, ms_params = trained_setup
    cfg = PipelineConfig(gan_ngf=4, gan_ndf=4, gan_epochs=2, gan_batch=8,
                         gan_lambda_l1=lambda_l1)
    want = io.write_evck(
        _reference_train_gan(windows, ms_params, cfg, seed=5).to_arrays())
    calls = []

    def counted(*args):
        calls.append(1)
        return g_forward_t(*args)
    monkeypatch.setattr(gan_mod, "g_forward_t", counted)
    interval = sys.getswitchinterval()
    sizes = [min(cfg.gan_batch, len(windows) - start)
             for start in range(0, len(windows), cfg.gan_batch)]
    for n in (1, 2):
        monkeypatch.setattr(lanes, "usable_cpus", lambda n=n: n)
        calls.clear()
        sys.setswitchinterval(1e-6 if n == 2 else interval)
        try:
            params, _ = train_gan(windows, ms_params, cfg, seed=5)
        finally:
            sys.setswitchinterval(interval)
        assert io.write_evck(params.to_arrays()) == want, f"{n} lanes"
        assert len(calls) == cfg.gan_epochs * sum(min(2, s) for s in sizes)


@pytest.mark.parametrize("gan_batch", [3, 1])
def test_train_gan_bytes_do_not_depend_on_lanes(trained_setup, monkeypatch,
                                                gan_batch):
    """G's shards are fixed halves of its batch, not one per CPU: the
    checkpoint bytes are the reference's at 1, 2 and 7 usable CPUs, for
    an odd batch (whose last batch here is 1 row) and a batch of 1."""
    windows, ms_params = trained_setup
    assert len(windows) % 3 == 1    # gan_batch=3 ends on a batch of one
    cfg = PipelineConfig(gan_ngf=4, gan_ndf=4, gan_epochs=1,
                         gan_batch=gan_batch, gan_lambda_l1=0.5)
    want = io.write_evck(
        _reference_train_gan(windows, ms_params, cfg, seed=3).to_arrays())
    interval = sys.getswitchinterval()
    for n in (1, 2, 7):
        monkeypatch.setattr(lanes, "usable_cpus", lambda n=n: n)
        sys.setswitchinterval(1e-6 if n == 2 else interval)
        try:
            params, _ = train_gan(windows, ms_params, cfg, seed=3)
        finally:
            sys.setswitchinterval(interval)
        assert io.write_evck(params.to_arrays()) == want, f"{n} lanes"


@pytest.mark.parametrize("fails", [None, "dxy", "dx", "shard 0", "shard 1"])
def test_train_gan_leaves_no_thread_running(trained_setup, monkeypatch,
                                            fails):
    """At 2 lanes G's second shard and the D_x step run in pool threads
    opened for the step; they are joined before train_gan returns or
    raises, and the failing task's error is the one raised."""
    windows, ms_params = trained_setup
    before, ran = set(threading.enumerate()), set()

    def recorded(params, part, batch, x_fake):
        ran.add(threading.current_thread())
        if part == fails:
            raise ValueError(part)
        return d_loss(params, part, batch, x_fake)

    def shard(params, batch, lo, hi):
        ran.add(threading.current_thread())
        if fails == f"shard {int(lo > 0)}":
            raise ValueError(fails)
        return g_shard(params, batch, lo, hi)

    g_shard = gan_mod._g_shard
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    monkeypatch.setattr(gan_mod, "d_loss", recorded)
    monkeypatch.setattr(gan_mod, "_g_shard", shard)
    with (pytest.raises(ValueError, match=fails) if fails
          else contextlib.nullcontext()):
        train_gan(windows, ms_params, PipelineConfig(
            gan_ngf=4, gan_ndf=4, gan_epochs=1, gan_batch=8), seed=0)
    helpers = ran - {threading.current_thread()}
    assert helpers
    assert not any(t.is_alive() for t in helpers)
    assert set(threading.enumerate()) == before


def test_train_gan_rejects_empty(trained_setup):
    from evanom.msnet import EmptyDataset
    _, ms_params = trained_setup
    with pytest.raises(EmptyDataset):
        train_gan([], ms_params, PipelineConfig(gan_epochs=1))


def test_divergence_carries_last_params(trained_setup, monkeypatch):
    windows, ms_params = trained_setup
    bad = windows.copy()
    bad[:, -1] = np.nan
    for n in (1, 2):
        monkeypatch.setattr(lanes, "usable_cpus", lambda n=n: n)
        with pytest.raises(DivergenceDetected) as exc:
            train_gan(bad, ms_params, PipelineConfig(
                gan_ngf=4, gan_ndf=4, gan_epochs=1, gan_batch=8), seed=0)
        assert isinstance(exc.value.params, GanParams)
        for arr in exc.value.params.to_arrays().values():
            assert np.isfinite(arr).all(), f"{n} lanes"


def test_divergence_on_non_finite_weights_after_last_step(trained_setup,
                                                          monkeypatch):
    """The last Adam step of a one-batch run leaves a NaN weight; its loss
    was finite, so only the weight check can catch it."""
    windows, ms_params = trained_setup
    cfg = PipelineConfig(gan_ngf=4, gan_ndf=4, gan_epochs=1,
                         gan_batch=len(windows))
    steps, adam_step = [], ad.adam_step

    def poisoned_step(plist, state):
        adam_step(plist, state)
        steps.append(plist)
        if len(steps) == 3:   # the G step, after both D steps
            plist[0].data = np.full_like(plist[0].data, np.nan)

    monkeypatch.setattr(ad, "adam_step", poisoned_step)
    init = GanParams.init(16, 16, 4, 4, np.random.default_rng(0))
    for n in (1, 2):
        monkeypatch.setattr(lanes, "usable_cpus", lambda n=n: n)
        steps.clear()
        with pytest.raises(DivergenceDetected, match="non-finite") as exc:
            train_gan(windows, ms_params, cfg, seed=0)
        assert len(steps) == 3, f"{n} lanes"
        for name, arr in exc.value.params.to_arrays().items():
            np.testing.assert_array_equal(arr, init[name].data)


def test_checkpoint_round_trip(rng):
    params = tiny_params(rng)
    back = GanParams.from_arrays(io.read_evck(io.write_evck(params.to_arrays())))
    batch = tiny_batch(rng)
    np.testing.assert_array_equal(g_forward(params, batch.y, batch.z),
                                  g_forward(back, batch.y, batch.z))
