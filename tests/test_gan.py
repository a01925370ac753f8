import numpy as np
import pytest

import evanom.autodiff as ad
from evanom import gan as gan_mod
from evanom import io
from evanom.autodiff import ShapeMismatch, Tensor
from evanom.gan import (DivergenceDetected, GanBatch, GanHyper, GanParams,
                        d_forward_t, d_losses, g_forward, g_forward_t, g_loss,
                        prepare_batches, train_gan)
from evanom.msnet import MsHyper, MsNetParams, train_ms
from evanom.oracle import (LOG2, DiscreteJoint, dual_objective, optimal_d_x,
                           optimal_d_xy)
from evanom.representation import sliding_windows
from evanom.simulate import render_scene, walking_scene


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def tiny_params(rng, h=8, w=8, ngf=2, ndf=2):
    return GanParams.init(h, w, GanHyper(ngf=ngf, ndf=ndf), rng)


def tiny_batch(rng, n=2, h=8, w=8):
    return GanBatch(
        y=rng.random((n, 1, h, w)).astype(np.float32),
        x=np.tanh(rng.standard_normal((n, 1, h, w))).astype(np.float32),
        z=rng.standard_normal((n, 1, h, w)).astype(np.float32))


def generated(params, batch):
    """The generator's frames for a batch, as train_gan feeds both losses."""
    return g_forward_t(params, Tensor(batch.y), Tensor(batch.z))


def test_init_rejects_bad_geometry(rng):
    with pytest.raises(ShapeMismatch):
        GanParams.init(12, 16, GanHyper(), rng)


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
    hyper = GanHyper(ngf=2, ndf=2)
    arrays = GanParams.init(16, 16, hyper, rng).to_arrays()
    GanParams.from_arrays(arrays, GanParams.layers(16, 16, hyper))
    with pytest.raises(ad.WrongParamShapes,
                       match=r"g\.d1\.w has shape \(2, 2, 4, 4\), expected "
                             r"\(3, 2, 4, 4\) for gan_ngf=3"):
        GanParams.from_arrays(arrays, GanParams.layers(
            16, 16, GanHyper(ngf=3, ndf=2)))
    arrays["dx.c3.b"] = arrays["dx.c3.b"][:1]
    with pytest.raises(ad.WrongParamShapes, match=r"dx\.c3\.b .* \(8,\)"):
        GanParams.from_arrays(arrays, GanParams.layers(16, 16, hyper))


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
    with pytest.raises(ValueError):
        g_loss(params, batch, x_fake, lambda_l1=-1.0)


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
    windows = sliding_windows(stream, bin_dt=25_000, bins=4, stride=2,
                              mode="bilinear")
    vols = np.stack([np.clip(w[:-1], -5, 5) / 5.0 for w in windows])
    ms_params, _ = train_ms(vols, MsHyper(filters=8, epochs=5, batch=8),
                            seed=1)
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
    hyper = GanHyper(ngf=4, ndf=4, epochs=2, batch=8)

    def run():
        params, curves = train_gan(windows, ms_params, hyper, seed=5)
        return io.write_evck(params.to_arrays()), curves
    blob_a, curves = run()
    blob_b, _ = run()
    assert blob_a == blob_b
    assert set(curves) == {"d_xy", "d_x", "g"}
    assert all(len(c) == 2 and np.isfinite(c).all()
               for c in curves.values())


def _reference_train_gan(windows, ms_params, hyper, seed):
    """train_gan's update sequence with the generator run twice per batch:
    once for the D losses and again for the G loss, after the D steps."""
    surfaces, targets = prepare_batches(windows, ms_params, hyper.cap)
    n, _, h, w = surfaces.shape
    rng = np.random.default_rng(seed)
    params = GanParams.init(h, w, hyper, rng)
    opts = {prefix: ad.AdamState(lr=hyper.lr, beta1=hyper.beta1)
            for prefix in ("g.", "dxy.", "dx.")}

    def step(loss, prefix):
        plist = params.parameters(prefix)
        for p in plist:
            p.zero_grad()
        ad.backward(loss, plist)
        ad.adam_step(plist, opts[prefix])

    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch):
            idx = order[start:start + hyper.batch]
            batch = GanBatch(
                y=surfaces[idx], x=targets[idx],
                z=rng.standard_normal((len(idx), 1, h, w)).astype(np.float32))
            l_dxy, l_dx = d_losses(params, batch, generated(params, batch))
            step(l_dxy, "dxy.")
            step(l_dx, "dx.")
            step(g_loss(params, batch, generated(params, batch),
                        hyper.lambda_l1), "g.")
    return params


@pytest.mark.parametrize("lambda_l1", [0.0, 0.5])
def test_train_gan_runs_generator_once_per_batch(trained_setup, monkeypatch,
                                                 lambda_l1):
    # The D steps leave G's arrays alone, so one G forward per batch must
    # give the same checkpoint bytes as a fresh forward for each loss.
    windows, ms_params = trained_setup
    hyper = GanHyper(ngf=4, ndf=4, epochs=2, batch=8, lambda_l1=lambda_l1)
    want = io.write_evck(
        _reference_train_gan(windows, ms_params, hyper, seed=5).to_arrays())
    calls = []

    def counted(*args):
        calls.append(1)
        return g_forward_t(*args)
    monkeypatch.setattr(gan_mod, "g_forward_t", counted)
    params, _ = train_gan(windows, ms_params, hyper, seed=5)
    assert io.write_evck(params.to_arrays()) == want
    assert len(calls) == hyper.epochs * -(-len(windows) // hyper.batch)


def test_train_gan_rejects_empty(trained_setup):
    from evanom.msnet import EmptyDataset
    _, ms_params = trained_setup
    with pytest.raises(EmptyDataset):
        train_gan([], ms_params, GanHyper(epochs=1))


def test_divergence_carries_last_params(trained_setup):
    windows, ms_params = trained_setup
    bad = [w.copy() for w in windows]
    for w in bad:
        w[-1] = np.nan
    with pytest.raises(DivergenceDetected) as exc:
        train_gan(bad, ms_params, GanHyper(ngf=4, ndf=4, epochs=1, batch=8),
                  seed=0)
    assert isinstance(exc.value.params, GanParams)
    for arr in exc.value.params.to_arrays().values():
        assert np.isfinite(arr).all()


def test_divergence_on_non_finite_weights_after_last_step(trained_setup,
                                                          monkeypatch):
    """The last Adam step of a one-batch run leaves a NaN weight; its loss
    was finite, so only the weight check can catch it."""
    windows, ms_params = trained_setup
    hyper = GanHyper(ngf=4, ndf=4, epochs=1, batch=len(windows))
    steps, adam_step = [], ad.adam_step

    def poisoned_step(plist, state):
        adam_step(plist, state)
        steps.append(plist)
        if len(steps) == 3:   # the G step, after both D steps
            plist[0].data = np.full_like(plist[0].data, np.nan)

    monkeypatch.setattr(ad, "adam_step", poisoned_step)
    with pytest.raises(DivergenceDetected, match="non-finite") as exc:
        train_gan(windows, ms_params, hyper, seed=0)
    assert len(steps) == 3
    init = GanParams.init(16, 16, hyper, np.random.default_rng(0))
    for name, arr in exc.value.params.to_arrays().items():
        np.testing.assert_array_equal(arr, init[name].data)


def test_checkpoint_round_trip(rng):
    params = tiny_params(rng)
    back = GanParams.from_arrays(io.read_evck(io.write_evck(params.to_arrays())))
    batch = tiny_batch(rng)
    np.testing.assert_array_equal(g_forward(params, batch.y, batch.z),
                                  g_forward(back, batch.y, batch.z))
