"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest perfbench -q
"""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from evanom import autodiff as ad  # noqa: E402
from evanom import gan, pipeline  # noqa: E402


@pytest.mark.parametrize("scores, labels, auc", [
    # Hand-counted: 3 of the 4 (positive, negative) pairs ranked right.
    ([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1], 0.75),
    # Two ties count 1/2 each: (1 vs 1) and (2 vs 2); (2 vs 1) wins.
    ([1.0, 1.0, 2.0, 2.0], [0, 1, 0, 1], 0.5),
    # One positive-negative tie at 3, two clean wins over 1.
    ([3.0, 3.0, 3.0, 1.0], [1, 1, 0, 0], 0.75),
    # Every score tied.
    ([5.0] * 6, [1, 0, 1, 0, 0, 1], 0.5),
    ([0.0, 1.0, 2.0], [0, 1, 1], 1.0),
    ([2.0, 1.0, 0.0], [0, 1, 1], 0.0),
])
def test_pair_count_auc_on_hand_made_cases(scores, labels, auc):
    assert checks.mann_whitney_auc(scores, labels) == auc


def test_pair_count_auc_needs_both_classes():
    with pytest.raises(ValueError):
        checks.mann_whitney_auc([1.0, 2.0], [1, 1])


def test_pair_count_auc_matches_evaluate_with_heavy_ties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        scores = rng.integers(0, 6, n) * 0.25   # few distinct values
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        series = pipeline.ScoreSeries(0, 1, scores, labels)
        assert not checks.auc_agrees("s", scores, labels,
                                     pipeline.evaluate(series).auc)


def test_expected_frames_matches_scoring():
    cfg = pipeline.PipelineConfig()
    span = (cfg.bins + 1) * cfg.bin_dt_us
    assert checks.expected_frames(span, cfg) == 1
    assert checks.expected_frames(span + cfg.stride * cfg.bin_dt_us - 1, cfg) == 1
    assert checks.expected_frames(span + cfg.stride * cfg.bin_dt_us, cfg) == 2


@pytest.mark.parametrize("wl", workloads.WORKLOADS.values(),
                         ids=list(workloads.WORKLOADS))
def test_tail_percentile_leaves_ten_samples_beyond(wl):
    n = wl.min_streams
    assert n - workloads.percentile(range(1, n + 1), wl.tail_percentile) == 10
    assert n + 7 - workloads.percentile(range(1, n + 8), wl.tail_percentile) > 10


def _conv_step():
    rng = np.random.default_rng(1)
    x = ad.Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
    w = ad.Tensor(rng.standard_normal((4, 3, 4, 4)).astype(np.float32),
                  requires_grad=True)
    b = ad.Tensor(np.zeros(4, np.float32), requires_grad=True)
    out = ad.conv2d(x, w, b, stride=2, pad=1)
    loss = ad.mse_loss(out, ad.Tensor(np.zeros_like(out.data)))
    ad.backward(loss, [w, b])
    return out.data, w.grad


def test_tracer_times_ops_and_changes_no_result():
    plain_out, plain_grad = _conv_step()
    before = (ad.conv2d, gan.encode)
    tracer = tracing.Tracer()
    with tracer:
        assert ad.conv2d is not before[0] and gan.encode is not before[1]
        out, grad = _conv_step()
    assert (ad.conv2d, gan.encode) == before
    assert out.tobytes() == plain_out.tobytes()
    assert grad.tobytes() == plain_grad.tobytes()

    names = [s[0] for s in tracer.spans]
    assert names.count("autodiff.conv2d") == 1
    assert names.count("autodiff.conv2d.bwd") == 1
    bwd = names.index("autodiff.conv2d.bwd")
    assert names[tracer.spans[bwd][3]] == "autodiff.backward"
    m = tracing.layer_metrics(tracer)
    assert m["autodiff.calls.conv2d"] == 1
    # out (2, 4, 4, 4), 3 input channels, 4x4 kernel, 2 flops per MAC
    assert m["autodiff.flops.conv2d"] == 2 * (2 * 4 * 4 * 4) * 3 * 4 * 4
    assert m["autodiff.bwd_s.conv2d"] > 0
