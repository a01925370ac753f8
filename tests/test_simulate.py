import numpy as np
import pytest

from evanom.simulate import (ConfigError, LabelTrack, ObjectSpec, SceneConfig,
                             label_frames, mixed_test_scene, occupancy,
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


def toggle_oracle(config):
    """Brute-force per-step mask diff count; independent of render_scene."""
    steps = config.duration // config.micro_step
    prev = occupancy(config, 0)
    total = 0
    for k in range(1, steps + 1):
        cur = occupancy(config, k * config.micro_step)
        total += int((cur != prev).sum())
        prev = cur
    return total


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


def test_mixed_scene_has_both_labels():
    _, track = render_scene(mixed_test_scene(0))
    labels = {lab for _, _, lab in track.intervals}
    assert labels == {"normal", "anomaly"}


def test_trajectory_scene_continuity():
    cfg = trajectory_anomaly_scene(0)
    out_leg, back_leg = cfg.objects
    # reversal position matches where the outbound leg stops
    x_end = out_leg.position(out_leg.active[1])[0]
    assert back_leg.start[0] == pytest.approx(x_end, abs=1e-6)
