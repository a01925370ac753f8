import dataclasses
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evanom import simulate
from evanom.simulate import (ConfigError, LabelTrack, ObjectSpec, SceneConfig,
                             label_frames, mixed_test_scene,
                             parse_scene_config, render_scene,
                             trajectory_anomaly_scene, walking_scene,
                             write_scene_config)


def simple_config(velocity=(200_000.0, 0.0), steps=10, micro=5000, label="normal",
                  shape=("rect", 4, 4), start=(2.0, 2.0), noise=0.0, seed=3):
    return SceneConfig(
        width=32, height=16, duration=steps * micro, micro_step=micro,
        seed=seed, noise_rate=noise,
        objects=(ObjectSpec(shape, start, ((0, velocity[0], velocity[1]),),
                            label=label),))


# --- reference renderer ---------------------------------------------------
# One Python iteration per micro-step, with scalar position and mask: the
# renderer as it was before it rendered blocks of steps. It shares no code
# with render_scene, and sorts with numpy's stable argsort.

def ref_position(obj, t_us):
    x, y = obj.start
    t_prev = obj.active[0]
    segs = sorted(obj.velocity)
    for i, (t_from, vx, vy) in enumerate(segs):
        t_next = segs[i + 1][0] if i + 1 < len(segs) else t_us
        a = max(t_prev, t_from)
        b = min(t_us, t_next)
        if b > a:
            x += vx * (b - a) / 1e6
            y += vy * (b - a) / 1e6
    return x, y


def ref_mask(obj, t_us, width, height):
    out = np.zeros((height, width), dtype=bool)
    if not (obj.active[0] <= t_us < obj.active[1]):
        return out
    px, py = ref_position(obj, t_us)
    if obj.shape[0] == "rect":
        _, w, h = obj.shape
        x0, y0 = int(np.floor(px)), int(np.floor(py))
        xa, xb = max(x0, 0), min(x0 + w, width)
        ya, yb = max(y0, 0), min(y0 + h, height)
        if xa < xb and ya < yb:
            out[ya:yb, xa:xb] = True
    else:
        _, r = obj.shape
        yy, xx = np.mgrid[0:height, 0:width]
        out = (xx - px) ** 2 + (yy - py) ** 2 <= r ** 2
    return out


def ref_occupancy(config, t_us):
    mask = np.zeros((config.height, config.width), dtype=bool)
    for obj in config.objects:
        mask |= ref_mask(obj, t_us, config.width, config.height)
    return mask


def toggle_oracle(config):
    """Brute-force per-step mask diff count; independent of render_scene."""
    steps = config.duration // config.micro_step
    prev = ref_occupancy(config, 0)
    total = 0
    for k in range(1, steps + 1):
        cur = ref_occupancy(config, k * config.micro_step)
        total += int((cur != prev).sum())
        prev = cur
    return total


def ref_label(config, t_us):
    for obj in config.objects:
        if obj.label == "anomaly" and ref_mask(
                obj, t_us, config.width, config.height).any():
            return "anomaly"
    return "normal"


def ref_render(config):
    """(x, y, t, p) sorted by t with ties in emission order, and the label
    intervals."""
    rng = np.random.default_rng(config.seed)
    steps = config.duration // config.micro_step
    xs, ys, ts, ps = [], [], [], []
    labels = [ref_label(config, 0)]
    prev = ref_occupancy(config, 0)
    for k in range(1, steps + 1):
        t = k * config.micro_step
        cur = ref_occupancy(config, t)
        diff = cur != prev
        if diff.any():
            yy, xx = np.nonzero(diff)
            xs.append(xx)
            ys.append(yy)
            ts.append((k - 1) * config.micro_step
                      + rng.integers(0, config.micro_step, size=len(yy)))
            ps.append(np.where(cur[yy, xx], 1, -1))
        prev = cur
        if k < steps:
            labels.append(ref_label(config, t))
    if config.noise_rate > 0:
        n = rng.poisson(config.noise_rate * config.width * config.height
                        * config.duration / 1e6)
        xs.append(rng.integers(0, config.width, n))
        ys.append(rng.integers(0, config.height, n))
        ts.append(rng.integers(0, config.duration, n))
        ps.append(rng.choice(np.array([1, -1], dtype=np.int8), n))
    x, y, t, p = (np.concatenate(a) if a else np.zeros(0, np.int64)
                  for a in (xs, ys, ts, ps))
    order = np.argsort(t, kind="stable")
    intervals, start = [], 0
    for k in range(1, len(labels) + 1):
        if k == len(labels) or labels[k] != labels[start]:
            end = k * config.micro_step if k < len(labels) else config.duration
            intervals.append((start * config.micro_step, end, labels[start]))
            start = k
    return ((x[order].astype(np.int32), y[order].astype(np.int32),
             t[order].astype(np.int64), p[order].astype(np.int8)),
            tuple(intervals))


def assert_renders_as_reference(config):
    stream, track = render_scene(config)
    fields, intervals = ref_render(config)
    for got, want in zip((stream.x, stream.y, stream.t, stream.p), fields):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert track == LabelTrack(intervals)


PRESETS = [walking_scene, mixed_test_scene, trajectory_anomaly_scene]


@pytest.mark.parametrize("noise", [0.0, 20.0])
@pytest.mark.parametrize("make", PRESETS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", range(6))
def test_presets_render_as_reference(make, seed, noise):
    assert_renders_as_reference(dataclasses.replace(make(seed),
                                                    noise_rate=noise))


def _segments(micro_step, steps):
    """1-3 velocity segments, each 0-2.5 px per step either way."""
    speed = st.floats(-2.5, 2.5).map(lambda v: v * 1e6 / micro_step)
    seg = st.tuples(st.integers(-steps, 2 * steps).map(
        lambda k: k * micro_step // 2), speed, speed)
    return st.lists(seg, min_size=1, max_size=3).map(tuple)


@st.composite
def scenes(draw):
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    micro_step = draw(st.sampled_from([1, 7, 1000, 5000]))
    steps = draw(st.integers(1, 40))
    duration = steps * micro_step
    objects = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.one_of(
            st.tuples(st.just("rect"), st.integers(1, 6), st.integers(1, 6)),
            st.tuples(st.just("disk"), st.floats(0.2, 5.0))))
        start = (draw(st.floats(-15.0, 20.0)), draw(st.floats(-15.0, 20.0)))
        t_on = draw(st.integers(-duration, duration))
        t_off = draw(st.integers(t_on + 1, 2 * duration + 1))
        objects.append(ObjectSpec(
            shape, start, draw(_segments(micro_step, steps)),
            active=(t_on, t_off),
            label=draw(st.sampled_from(["normal", "anomaly"]))))
    return SceneConfig(width, height, duration, micro_step, tuple(objects),
                       seed=draw(st.integers(0, 2**16)),
                       noise_rate=draw(st.sampled_from([0.0, 0.0, 3e3])))


@settings(max_examples=80, deadline=None)
@given(scenes(), st.integers(1, 7))
def test_random_scenes_render_as_reference(config, block):
    # blocks of 1-7 steps, so most step counts are not a multiple of one
    pixels = config.width * config.height
    with mock.patch.object(simulate, "_BLOCK_PIXELS", block * pixels):
        assert_renders_as_reference(config)


def test_far_off_sensor_rect_is_empty():
    # a finite start beyond any int the sensor could hold renders nothing
    cfg = simple_config(start=(1e300, -1e300), velocity=(5e4, 5e4))
    stream, _ = render_scene(cfg)
    assert len(stream) == 0
    assert_renders_as_reference(cfg)


def test_moving_rect_exact_event_count():
    # 1 px per micro_step rightward for 10 steps: 8 toggles per step
    cfg = simple_config(velocity=(1e6 / 5000, 0.0), steps=10)
    stream, _ = render_scene(cfg)
    assert len(stream) == 80
    assert (stream.p == 1).sum() == 40
    assert (stream.p == -1).sum() == 40
    assert len(stream) == toggle_oracle(cfg)


def test_zero_velocity_no_events():
    cfg = simple_config(velocity=(0.0, 0.0))
    stream, _ = render_scene(cfg)
    assert len(stream) == 0


def test_doubling_velocity_doubles_toggles():
    slow = simple_config(velocity=(1e6 / 5000, 0.0), steps=10)
    fast = simple_config(velocity=(2e6 / 5000, 0.0), steps=5)
    s1, _ = render_scene(slow)
    s2, _ = render_scene(fast)
    # same distance covered; per-step toggle count doubles for the fast one
    assert toggle_oracle(fast) * 1 == 2 * 40  # 16 toggles x 5 steps
    assert len(s2) == toggle_oracle(fast)
    assert len(s1) == toggle_oracle(slow)


def test_event_count_matches_oracle_disk():
    cfg = SceneConfig(width=32, height=32, duration=100_000, micro_step=5000,
                      seed=1, objects=(
                          ObjectSpec(("disk", 5.0), (8.0, 8.0),
                                     ((0, 60.0, 40.0),)),))
    stream, _ = render_scene(cfg)
    assert len(stream) == toggle_oracle(cfg)


def test_determinism_bit_identical():
    cfg = simple_config(velocity=(123.0, 45.0), steps=40, noise=2.0)
    a, _ = render_scene(cfg)
    b, _ = render_scene(cfg)
    assert a == b


def test_different_seed_changes_jitter():
    a, _ = render_scene(simple_config(velocity=(1e6 / 5000, 0), seed=1))
    b, _ = render_scene(simple_config(velocity=(1e6 / 5000, 0), seed=2))
    assert len(a) == len(b)
    assert not np.array_equal(a.t, b.t)


def test_events_pass_stream_validation():
    # construction through EventStream validates bounds/polarity/sortedness
    stream, _ = render_scene(mixed_test_scene(5))
    assert len(stream) > 0
    assert np.all(np.diff(stream.t) >= 0)
    assert stream.t[-1] < 5_000_000


def test_config_invariants():
    with pytest.raises(ConfigError):
        SceneConfig(8, 8, 1001, 10, (simple_config().objects))
    with pytest.raises(ConfigError):
        SceneConfig(8, 8, 1000, 10, ())
    with pytest.raises(ConfigError):
        ObjectSpec(("blob", 3), (0, 0), ((0, 1.0, 0.0),))
    with pytest.raises(ConfigError):
        ObjectSpec(("rect", 2, 2), (0, 0), ((0, 1.0, 0.0),), active=(5, 5))


def test_label_track_anomaly_when_on_screen():
    # anomaly object active [0, 50ms) but enters the frame later
    cfg = SceneConfig(
        width=32, height=16, duration=100_000, micro_step=5000, seed=0,
        objects=(
            ObjectSpec(("rect", 4, 4), (2.0, 2.0), ((0, 0.0, 0.0),)),
            ObjectSpec(("rect", 4, 4), (-8.0, 8.0), ((0, 1e6 / 5000, 0.0),),
                       active=(0, 50_000), label="anomaly"),
        ))
    _, track = render_scene(cfg)
    assert not track.overlaps_anomaly(0, 1)       # still off-screen
    assert track.overlaps_anomaly(30_000, 30_001)
    assert not track.overlaps_anomaly(60_000, 60_001)  # past t_off


def test_label_frames_all_normal():
    track = LabelTrack(((0, 1000, "normal"),))
    assert label_frames(track, 0, 100, 10, 100).sum() == 0


def test_label_frames_one_hot():
    track = LabelTrack(((0, 300, "normal"), (300, 400, "anomaly"),
                        (400, 1000, "normal")))
    np.testing.assert_array_equal(label_frames(track, 0, 100, 10, 100),
                                  [0, 0, 0, 1, 0, 0, 0, 0, 0, 0])


def test_label_frames_straddling_boundary():
    track = LabelTrack(((0, 250, "normal"), (250, 350, "anomaly"),
                        (350, 1000, "normal")))
    np.testing.assert_array_equal(label_frames(track, 0, 100, 5, 100),
                                  [0, 0, 1, 1, 0])
    # a span narrower than the spacing no longer reaches the anomaly
    # from frame 2
    np.testing.assert_array_equal(label_frames(track, 0, 100, 5, 50),
                                  [0, 0, 0, 1, 0])


def test_scene_config_round_trip():
    for cfg in (walking_scene(3), mixed_test_scene(4),
                trajectory_anomaly_scene(5)):
        assert parse_scene_config(write_scene_config(cfg)) == cfg


# Each line is added to the 16x16 mixed scene's config, whose objects
# are numbered 0 to 4.
@pytest.mark.parametrize("extra, match", [
    ("noise_rat=20", "unknown scene config key 'noise_rat'"),
    ("object.0.lable=anomaly", "unknown scene config key 'object.0.lable'"),
    ("object.6.shape=disk:3", "unknown scene config key 'object.6.shape'"),
    ("width=32", "line 32: key 'width' given twice"),
    ("object.1.label=anomaly", "line 32: key 'object.1.label' given twice"),
    ("noise_rate 20", "line 32: expected key=value, got 'noise_rate 20'"),
])
def test_scene_config_rejects_unknown_repeated_and_bad_lines(extra, match):
    text = write_scene_config(mixed_test_scene(0, size=16)) + extra + "\n"
    with pytest.raises(ConfigError, match=match):
        parse_scene_config(text)


@pytest.mark.parametrize("key, value", [
    ("width", "abc"), ("seed", "1.5"), ("noise_rate", "x"),
    ("object.1.start", "1;2"), ("object.0.velocity", "0:1"),
    ("object.2.active", "5"), ("object.3.shape", "disk:r"),
])
def test_scene_config_cast_errors_name_the_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key}='{value}': "):
        parse_scene_config(_mixed_config_with(key, value))


def _mixed_config_with(key, value):
    """The 16x16 mixed scene's config with `key` set to `value`."""
    return "".join(f"{ln.partition('=')[0]}={value}\n"
                   if ln.partition("=")[0] == key else ln + "\n"
                   for ln in write_scene_config(
                       mixed_test_scene(0, size=16)).splitlines())


@pytest.mark.parametrize("key, value", [
    ("width", "0"), ("width", "-3"), ("height", "0"), ("height", "-16")])
def test_scene_config_rejects_non_positive_sizes(key, value):
    with pytest.raises(ConfigError,
                       match=f"^{key} must be positive, got {value}$"):
        parse_scene_config(_mixed_config_with(key, value))


# Objects 0 to 3 of the mixed scene are rects and object 4 is a disk.
@pytest.mark.parametrize("key, value, message", [
    ("object.1.label", "anomoly", "object.1.label: unknown label 'anomoly'"),
    ("object.2.active", "300,100",
     "object.2.active: need t_on < t_off, got 300,100"),
    ("object.3.shape", "rect:-5x10",
     "object.3.shape: rect:-5x10 has a size <= 0"),
    ("object.0.shape", "rect:6x0", "object.0.shape: rect:6x0 has a size <= 0"),
    ("object.4.shape", "disk:-7", "object.4.shape: disk:-7.0 has a size <= 0"),
    ("object.4.shape", "disk:nan", "object.4.shape: disk:nan has a size <= 0"),
], ids=["label", "active", "rect width", "rect height", "disk", "disk nan"])
def test_scene_config_object_errors_name_the_object(key, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_scene_config(_mixed_config_with(key, value))


def test_mixed_scene_has_both_labels():
    _, track = render_scene(mixed_test_scene(0))
    labels = {lab for _, _, lab in track.intervals}
    assert labels == {"normal", "anomaly"}


def test_trajectory_scene_continuity():
    cfg = trajectory_anomaly_scene(0)
    out_leg, back_leg = cfg.objects
    # reversal position matches where the outbound leg stops
    x_end = ref_position(out_leg, out_leg.active[1])[0]
    assert back_leg.start[0] == pytest.approx(x_end, abs=1e-6)


# Object 0 of the mixed scene is a rect and object 4 a disk.
@pytest.mark.parametrize("key, value, message", [
    ("noise_rate", "nan", "noise_rate must be finite and >= 0, got nan"),
    ("noise_rate", "inf", "noise_rate must be finite and >= 0, got inf"),
    ("noise_rate", "-inf", "noise_rate must be finite and >= 0, got -inf"),
    ("object.0.start", "inf,12.0",
     "object.0.start: need finite x,y, got inf,12.0"),
    ("object.0.start", "-6.0,nan",
     "object.0.start: need finite x,y, got -6.0,nan"),
    ("object.0.velocity", "0:inf,0.0",
     "object.0.velocity: need finite speeds, got 0:inf,0.0"),
    ("object.0.velocity", "0:35.0,0.0;500:1.0,nan",
     "object.0.velocity: need finite speeds, got 500:1.0,nan"),
    ("object.4.shape", "disk:inf",
     "object.4.shape: disk:inf has a non-finite size"),
])
def test_scene_config_refuses_non_finite_values(key, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_scene_config(_mixed_config_with(key, value))


def test_scene_config_refuses_a_negative_seed():
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        parse_scene_config(_mixed_config_with("seed", "-1"))
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -3$"):
        dataclasses.replace(simple_config(), seed=-3)


def test_scene_config_refuses_a_duration_beyond_int64():
    with pytest.raises(ConfigError, match="^duration must fit int64$"):
        SceneConfig(8, 8, 2**63, 2**62, simple_config().objects)


# Finite values whose float64 arithmetic overflows render without a
# warning (the suite turns warnings into errors).
def test_disk_beyond_float64_squares_covers_the_sensor_while_active():
    obj = ObjectSpec(("disk", 1e300), (-6.0, 12.0), ((0, 35.0, 0.0),),
                     active=(10_000, 30_000))
    t = np.arange(0, 50_000, 5000, dtype=np.int64)
    live = (t >= 10_000) & (t < 30_000)
    mask = obj._masks(t, 16, 8)
    assert mask.shape == (10, 8, 16)
    assert (mask == live[:, None, None]).all()
    stream, _ = render_scene(SceneConfig(16, 8, 50_000, 5000, (obj,)))
    assert len(stream) == 2 * 16 * 8
    assert sorted(np.unique(stream.p).tolist()) == [-1, 1]


@pytest.mark.parametrize("shape, start, velocity", [
    (("rect", 6, 12), (-6.0, 12.0), ((0, 1e308, 0.0),)),
    (("disk", 3.0), (4.0, 4.0), ((0, 0.0, -1e308),)),
    (("disk", 3.0), (1e200, 4.0), ((0, 0.0, 0.0),)),
    (("rect", 2, 2), (4.0, 4.0), ((0, 1e308, 0.0), (10_000, -1e308, 0.0))),
], ids=["rect to inf", "disk to -inf", "disk far off", "inf then nan"])
def test_objects_moved_beyond_float64_leave_the_sensor(shape, start,
                                                       velocity):
    obj = ObjectSpec(shape, start, velocity)
    t = np.arange(5000, 50_000, 5000, dtype=np.int64)
    assert not obj._masks(t, 16, 8).any()
    render_scene(SceneConfig(16, 8, 50_000, 5000, (obj,)))


def _phys():
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.parametrize("make, match", [
    (lambda: dataclasses.replace(
        simple_config(), noise_rate=2 * _phys() / (32 * 16 * 0.05 * 17)),
     r"^noise_rate=\S+ needs [0-9.]+ GiB of noise events on a 32x16 sensor"),
    (lambda: dataclasses.replace(simple_config(), noise_rate=1e30),
     r"^noise_rate=1e\+30 needs [0-9.]+ GiB of noise events"),
    (lambda: dataclasses.replace(simple_config(), width=_phys() // 16 + 1),
     r"^width=\d+, height=16 need a \d+ GiB mask each micro-step"),
    (lambda: dataclasses.replace(simple_config(), duration=10**18),
     r"^duration_us=1000000000000000000, micro_step_us=5000 need \d+ GiB "
     r"of step labels"),
], ids=["noise sized from memory", "noise 1e30", "width", "duration"])
def test_scenes_larger_than_memory_are_refused_undrawn(make, match):
    config = make()
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=match):
            render_scene(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
