import numpy as np
import pytest

from evanom.events import EventStream, slice_time
from evanom.representation import (MODES, DiscretizedVolume, EmptyGeometry,
                                   TooShort, baseline_exp_surface,
                                   baseline_histogram, discretize, normalize,
                                   sliding_windows, window_arrays)
from evanom import io
from conftest import random_stream


def brute_force_bilinear(stream, t0, bin_dt, bins):
    """Per-event loop over the kernel definition; oracle for discretize."""
    grid = np.zeros((bins, stream.height, stream.width))
    for e in stream:
        if not (t0 <= e.t < t0 + bins * bin_dt):
            continue
        ts = min(max((e.t - t0) / bin_dt, 0.0), bins - 1.0)
        for b in range(bins):
            w = max(0.0, 1.0 - abs(ts - b))
            grid[b, e.y, e.x] += e.p * w
    return grid


def test_empty_stream_all_zero():
    vol = discretize(EventStream.empty(4, 4), 0, 100, 3, "count")
    assert not vol.data.any()
    assert vol.data.shape == (3, 4, 4)


def test_bilinear_bin_center_peak():
    s = EventStream.from_arrays(8, 8, [2], [3], [200], [1])
    vol = discretize(s, 0, 100, 4, "bilinear")
    assert vol.data[2, 3, 2] == 1.0
    assert vol.data.sum() == 1.0


def test_bilinear_split_hand_value():
    # t* = 1.25 -> 0.75 in bin 1, 0.25 in bin 2
    s = EventStream.from_arrays(8, 8, [3], [4], [125], [1])
    vol = discretize(s, 0, 100, 4, "bilinear")
    assert vol.data[1, 4, 3] == pytest.approx(0.75, abs=1e-7)
    assert vol.data[2, 4, 3] == pytest.approx(0.25, abs=1e-7)
    oracle = brute_force_bilinear(s, 0, 100, 4)
    np.testing.assert_allclose(vol.data, oracle, atol=1e-7)


def test_bilinear_matches_brute_force(rng):
    s = random_stream(rng, n=400)
    vol = discretize(s, 5_000, 10_000, 6, "bilinear")
    np.testing.assert_allclose(vol.data, brute_force_bilinear(s, 5_000, 10_000, 6),
                               atol=1e-5)


def test_count_conservation(rng):
    for _ in range(100):
        s = random_stream(rng, n=int(rng.integers(1, 300)))
        vol = discretize(s, 0, 20_000, 5, "count")
        in_window = len(slice_time(s, 0, 100_000))
        assert vol.data.sum() == in_window
        assert (vol.data >= 0).all()


def test_bilinear_conservation_positive_events(rng):
    n = 200
    s = EventStream.from_arrays(16, 12, rng.integers(0, 16, n),
                                rng.integers(0, 12, n),
                                np.sort(rng.integers(10_000, 40_000, n)),
                                np.ones(n, dtype=np.int8))
    vol = discretize(s, 0, 10_000, 5, "bilinear")
    assert vol.data.sum() == pytest.approx(n, rel=1e-6)


def test_discretize_linear_in_events(rng):
    a = random_stream(rng, n=150)
    b = random_stream(rng, n=150)
    both = EventStream.from_arrays(
        16, 12, np.concatenate([a.x, b.x]), np.concatenate([a.y, b.y]),
        np.concatenate([a.t, b.t]), np.concatenate([a.p, b.p]))
    for mode in ("count", "signed", "bilinear"):
        va = discretize(a, 0, 20_000, 5, mode).data
        vb = discretize(b, 0, 20_000, 5, mode).data
        vab = discretize(both, 0, 20_000, 5, mode).data
        np.testing.assert_allclose(vab, va + vb, atol=1e-5)


def test_permutation_invariance(rng):
    s = random_stream(rng, n=100)
    perm = rng.permutation(len(s))
    shuffled = EventStream.from_arrays(s.width, s.height, s.x[perm],
                                       s.y[perm], s.t[perm], s.p[perm])
    for mode in ("count", "signed", "bilinear"):
        np.testing.assert_array_equal(discretize(s, 0, 20_000, 5, mode).data,
                                      discretize(shuffled, 0, 20_000, 5, mode).data)


def test_empty_geometry_rejected():
    with pytest.raises((EmptyGeometry, Exception)):
        discretize(EventStream.empty(0, 4), 0, 100, 2, "count")


def test_normalize_cases():
    data = np.zeros((1, 2, 2), dtype=np.float32)
    data[0, 0, 0] = 5.0
    data[0, 0, 1] = 7.0
    data[0, 1, 0] = -9.0
    out = normalize(data, 5.0)
    assert out.dtype == np.float32
    assert out[0, 0, 0] == 1.0
    assert out[0, 0, 1] == 1.0   # clamped
    assert out[0, 1, 0] == -1.0
    assert out[0, 1, 1] == 0.0


def test_normalize_rejects_bad_cap():
    with pytest.raises(ValueError):
        normalize(np.zeros((1, 2, 2), dtype=np.float32), 0)


def test_window_count_boundary():
    n = 9 * 1000
    s = EventStream.from_arrays(8, 8, [0, 0], [0, 0], [0, n], [1, 1])
    wins = sliding_windows(s, 1000, 8, stride=1)
    assert len(wins) == 1


def test_window_count_arithmetic():
    s = EventStream.from_arrays(8, 8, [0, 0], [0, 0], [0, 11_000], [1, 1])
    wins = sliding_windows(s, 1000, 8, stride=1)
    assert len(wins) == 3


def test_windows_too_short():
    s = EventStream.from_arrays(8, 8, [0], [0], [100], [1])
    with pytest.raises(TooShort):
        sliding_windows(s, 1000, 8)


def test_windows_match_slice_restriction(rng):
    s = random_stream(rng, n=500, t_max=60_000)
    wins = sliding_windows(s, 5000, 4, stride=1, t0=0, duration=60_000)
    restricted = slice_time(s, 0, 60_000)
    wins2 = sliding_windows(restricted, 5000, 4, stride=1, t0=0,
                            duration=60_000)
    assert len(wins) == len(wins2)
    for a, b in zip(wins, wins2):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_window_shapes_and_target_bin(stride, mode):
    s = random_stream(np.random.default_rng(0), n=300, t_max=50_000)
    t0, bin_dt, bins = 1000, 5000, 4
    wins = sliding_windows(s, bin_dt, bins, stride=stride, mode=mode, t0=t0,
                           duration=49_000)
    assert len(wins) == (49_000 - 5 * bin_dt) // (stride * bin_dt) + 1
    for k, w in enumerate(wins):
        full = discretize(s, t0 + k * stride * bin_dt, bin_dt, bins + 1, mode)
        assert w.shape == (bins + 1, 12, 16) and w.dtype == np.float32
        assert w.tobytes() == full.data.tobytes()
    inputs, targets = window_arrays(wins, 2.0)
    assert inputs.shape == (len(wins), bins, 12, 16)
    assert targets.shape == (len(wins), 12, 16)
    stacked = np.stack(wins)
    assert inputs.tobytes() == normalize(stacked[:, :bins], 2.0).tobytes()
    assert targets.tobytes() == normalize(stacked[:, bins], 2.0).tobytes()
    # Separate arrays: keeping the targets must not keep the inputs alive.
    assert not np.shares_memory(inputs, targets)


def test_histogram_polarity_channels():
    s = EventStream.from_arrays(4, 4, [1, 1], [2, 2], [10, 20], [1, -1])
    grid = baseline_histogram(s, 0, 100)
    assert grid[0, 2, 1] == 1 and grid[1, 2, 1] == 1
    assert grid.sum() == 2


def test_histogram_only_positive():
    s = EventStream.from_arrays(4, 4, [0, 1], [0, 0], [10, 20], [1, 1])
    grid = baseline_histogram(s, 0, 100)
    assert not grid[1].any()


def test_histogram_channel_sums(rng):
    s = random_stream(rng, n=250)
    grid = baseline_histogram(s, 0, 200_000)
    assert grid[0].sum() == (s.p == 1).sum()
    assert grid[1].sum() == (s.p == -1).sum()


def test_exp_surface_values():
    s = EventStream.from_arrays(4, 4, [1], [1], [1000], [1])
    assert baseline_exp_surface(s, 1000, 500.0)[1, 1] == pytest.approx(1.0)
    assert baseline_exp_surface(s, 1500, 500.0)[1, 1] == pytest.approx(np.exp(-1))


def test_exp_surface_linearity():
    a = EventStream.from_arrays(4, 4, [1], [1], [100], [1])
    b = EventStream.from_arrays(4, 4, [1], [1], [300], [-1])
    both = EventStream.from_arrays(4, 4, [1, 1], [1, 1], [100, 300], [1, -1])
    np.testing.assert_allclose(
        baseline_exp_surface(both, 400, 200.0),
        baseline_exp_surface(a, 400, 200.0) + baseline_exp_surface(b, 400, 200.0))


def test_evol_round_trip(rng):
    for _ in range(20):
        bins, h, w = rng.integers(1, 6), rng.integers(1, 9), rng.integers(1, 9)
        data = rng.standard_normal((bins, h, w)).astype(np.float32)
        vol = DiscretizedVolume(int(bins), int(h), int(w),
                                int(rng.integers(0, 10**9)),
                                int(rng.integers(1, 10**6)),
                                "bilinear", data)
        back = io.read_evol(io.write_evol(vol))
        assert (back.bins, back.height, back.width) == (vol.bins, vol.height, vol.width)
        assert (back.t0, back.bin_dt, back.mode) == (vol.t0, vol.bin_dt, vol.mode)
        assert np.array_equal(back.data, vol.data)


def test_evol_rejects_garbage():
    with pytest.raises(io.FormatError):
        io.read_evol(b"NOPE" + b"\x00" * 40)
