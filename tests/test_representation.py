import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evanom.events import EventError, EventStream, slice_time
from evanom.representation import (MODES, DiscretizedVolume, TooShort,
                                   discretize, normalize, sliding_windows,
                                   window_arrays, window_block)
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


def per_window_reference(stream, t0, bin_dt, bins, mode):
    """One window binned on its own by the float rule: t* = (t - t0)/bin_dt
    clamped to [0, bins-1], own terms in one np.add.at and carried terms
    in a second. Oracle for the bytes of the one-pass windows."""
    hw = stream.height * stream.width
    grid = np.zeros(bins * hw, dtype=np.float32)
    w = slice_time(stream, t0, t0 + bins * bin_dt)
    pix = w.y.astype(np.int64) * stream.width + w.x
    pol = w.p.astype(np.float32)
    if mode != "bilinear":
        np.add.at(grid, (w.t - t0) // bin_dt * hw + pix,
                  np.ones_like(pol) if mode == "count" else pol)
    else:
        ts = np.clip((w.t - t0) / bin_dt, 0.0, bins - 1.0)
        lo = np.floor(ts).astype(np.int64)
        frac = (ts - lo).astype(np.float32)
        np.add.at(grid, lo * hw + pix, pol * (1 - frac))
        ok = lo + 1 < bins
        np.add.at(grid, (lo[ok] + 1) * hw + pix[ok], pol[ok] * frac[ok])
    return grid.reshape(bins, stream.height, stream.width)


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
    with pytest.raises(EventError, match="bad geometry"):
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
    wins = window_block(s, 1000, 8, stride=1)
    assert len(wins) == 1


def test_window_count_arithmetic():
    s = EventStream.from_arrays(8, 8, [0, 0], [0, 0], [0, 11_000], [1, 1])
    wins = window_block(s, 1000, 8, stride=1)
    assert len(wins) == 3


def test_windows_extend_a_list():
    """`sliding_windows` gives `window_block`'s rows as a list, which grows
    by `+=` (the benchmark's callers do this); with an array on the right,
    numpy would broadcast an addition instead."""
    s = EventStream.from_arrays(8, 8, [0, 1], [0, 2], [0, 11_000], [1, -1])
    windows = []
    windows += sliding_windows(s, 1000, 8, stride=1)
    windows += sliding_windows(s, 1000, 8, stride=2)
    assert [w.shape for w in windows] == [(9, 8, 8)] * 5
    np.testing.assert_array_equal(
        windows, np.concatenate([window_block(s, 1000, 8, stride=1),
                                 window_block(s, 1000, 8, stride=2)]))


def test_windows_too_short():
    s = EventStream.from_arrays(8, 8, [0], [0], [100], [1])
    with pytest.raises(TooShort):
        window_block(s, 1000, 8)


def test_windows_match_slice_restriction(rng):
    s = random_stream(rng, n=500, t_max=60_000)
    wins = window_block(s, 5000, 4, stride=1, t0=0, duration=60_000)
    restricted = slice_time(s, 0, 60_000)
    wins2 = window_block(restricted, 5000, 4, stride=1, t0=0,
                         duration=60_000)
    np.testing.assert_array_equal(wins, wins2)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_window_shapes_and_target_bin(stride, mode):
    s = random_stream(np.random.default_rng(0), n=300, t_max=50_000)
    t0, bin_dt, bins = 1000, 5000, 4
    wins = window_block(s, bin_dt, bins, stride=stride, mode=mode, t0=t0,
                        duration=49_000)
    assert len(wins) == (49_000 - 5 * bin_dt) // (stride * bin_dt) + 1
    for k, w in enumerate(wins):
        full = discretize(s, t0 + k * stride * bin_dt, bin_dt, bins + 1, mode)
        assert w.shape == (bins + 1, 12, 16) and w.dtype == np.float32
        assert w.tobytes() == full.data.tobytes()
    inputs, targets = window_arrays(wins, 2.0)
    assert inputs.shape == (len(wins), bins, 12, 16)
    assert targets.shape == (len(wins), 12, 16)
    assert inputs.tobytes() == normalize(wins[:, :bins], 2.0).tobytes()
    assert targets.tobytes() == normalize(wins[:, bins], 2.0).tobytes()
    # Separate arrays: keeping the targets must not keep the inputs alive.
    assert not np.shares_memory(inputs, targets)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_window_is_discretize_at_its_offset(data):
    bin_dt = data.draw(st.integers(2, 5000))
    bins = data.draw(st.integers(1, 9))
    stride = data.draw(st.integers(1, 3))
    mode = data.draw(st.sampled_from(MODES))
    # t0 off the bin grid, with events before it
    t0 = data.draw(st.integers(0, 3)) * bin_dt + data.draw(
        st.integers(1, bin_dt - 1))
    duration = (bins + 1) * bin_dt + data.draw(
        st.integers(0, 4 * stride * bin_dt))
    width, height = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    n = data.draw(st.integers(0, 60))
    ts = data.draw(st.lists(st.integers(0, t0 + duration + bin_dt),
                            min_size=n, max_size=n))
    s = EventStream.from_arrays(
        width, height, data.draw(st.lists(st.integers(0, width - 1),
                                          min_size=n + 1, max_size=n + 1)),
        data.draw(st.lists(st.integers(0, height - 1), min_size=n + 1,
                           max_size=n + 1)),
        [t0 - 1] + ts,
        data.draw(st.lists(st.sampled_from([1, -1]), min_size=n + 1,
                           max_size=n + 1)))
    block = window_block(s, bin_dt, bins, stride=stride, mode=mode, t0=t0,
                         duration=duration)
    n = (duration - (bins + 1) * bin_dt) // (stride * bin_dt) + 1
    assert isinstance(block, np.ndarray) and block.flags.c_contiguous
    assert block.dtype == np.float32
    assert block.shape == (n, bins + 1, height, width)
    for k, w in enumerate(block):
        offset = t0 + k * stride * bin_dt
        assert w.tobytes() == discretize(s, offset, bin_dt, bins + 1,
                                         mode).data.tobytes()
        assert w.tobytes() == per_window_reference(s, offset, bin_dt,
                                                   bins + 1, mode).tobytes()
        if mode == "bilinear":
            np.testing.assert_allclose(
                w, brute_force_bilinear(s, offset, bin_dt, bins + 1),
                atol=1e-5)
    np.testing.assert_allclose(
        discretize(s, t0, bin_dt, bins, "bilinear").data,
        brute_force_bilinear(s, t0, bin_dt, bins), atol=1e-5)


@pytest.mark.parametrize("mode", MODES)
def test_crowded_pixels_match_reference(mode):
    """Thousands of events on four pixels: every cell sums many own and
    carried terms, so the float32 order of the sums shows in the bytes."""
    s = random_stream(np.random.default_rng(3), n=4000, width=2, height=2,
                      t_max=20_000)
    for stride in (1, 2, 3):
        wins = window_block(s, 1000, 4, stride=stride, mode=mode, t0=0,
                            duration=20_000)
        for k, w in enumerate(wins):
            ref = per_window_reference(s, k * stride * 1000, 1000, 5, mode)
            assert w.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_window_edges_by_hand(mode):
    t0, bin_dt, bins = 1037, 1000, 3   # windows of 4 bins, span 4000
    s = EventStream.from_arrays(
        4, 1, [0, 1, 2, 3],
        [0, 0, 0, 0],
        [t0 - 537,                  # before the window
         t0 + 2 * bin_dt,           # exactly on the edge of bin 2
         t0 + 4 * bin_dt - 1,       # the window's last microsecond
         t0 + 4 * bin_dt],          # one past the window: excluded
        [1, -1, 1, 1])
    expected = np.zeros((4, 1, 4), dtype=np.float32)
    expected[2, 0, 1] = 1 if mode == "count" else -1
    expected[3, 0, 2] = 1
    win = window_block(s, bin_dt, bins, mode=mode, t0=t0,
                       duration=4 * bin_dt)
    assert len(win) == 1
    assert win[0].tobytes() == expected.tobytes()
    assert discretize(s, t0, bin_dt, 4, mode).data.tobytes() == \
        expected.tobytes()


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
