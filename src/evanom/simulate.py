"""Synthetic event-camera scenes with frame-level anomaly labels.

Objects are binary occupancy masks (rectangles and disks) translating
over an empty background. At every micro-step, each pixel whose
occupancy toggles emits one event: +1 when the pixel becomes occupied,
-1 when it is vacated. Event rate therefore scales with object speed,
which is the contrast the anomaly detector relies on. Rendering is fully
deterministic for a fixed seed.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import io
from .events import EventStream


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ObjectSpec:
    """One moving object.

    shape: ("rect", w, h) or ("disk", r), in pixels.
    start: (x, y) position of the shape's top-left / center at t_on;
        may be off-screen.
    velocity: list of (t_from_us, vx, vy) segments, speeds in px/s; the
        last segment extends to t_off. A single segment is the common case.
    active: [t_on, t_off) microseconds.
    label: "normal" or "anomaly".
    """

    shape: tuple
    start: tuple[float, float]
    velocity: tuple[tuple[int, float, float], ...]
    active: tuple[int, int] = (0, 10**12)
    label: str = "normal"

    def __post_init__(self):
        kind = self.shape[0]
        if kind not in ("rect", "disk"):
            raise ConfigError(f"shape: unknown kind {kind!r}")
        if not all(size > 0 for size in self.shape[1:]):
            raise ConfigError(f"shape: {_format_shape(self.shape)} has a "
                              f"size <= 0")
        # finite as a float64: a rect's int sizes may lie beyond it
        if not all(size <= sys.float_info.max for size in self.shape[1:]):
            raise ConfigError(f"shape: {_format_shape(self.shape)} has a "
                              f"non-finite size")
        if not all(map(math.isfinite, self.start)):
            raise ConfigError(f"start: need finite x,y, got "
                              f"{self.start[0]},{self.start[1]}")
        if self.label not in ("normal", "anomaly"):
            raise ConfigError(f"label: unknown label {self.label!r}")
        if self.active[0] >= self.active[1]:
            raise ConfigError(f"active: need t_on < t_off, got "
                              f"{self.active[0]},{self.active[1]}")
        if not self.velocity:
            raise ConfigError("velocity: need at least one segment")
        for t_from, vx, vy in self.velocity:
            if not (math.isfinite(vx) and math.isfinite(vy)):
                raise ConfigError(f"velocity: need finite speeds, got "
                                  f"{t_from}:{vx},{vy}")

    def _positions(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) at each of the int64 times `t`, moved from t_on at the
        segments' velocities in float64, exact up to 2**53 us."""
        tf = t.astype(np.float64)
        x = np.full(len(t), float(self.start[0]))
        y = np.full(len(t), float(self.start[1]))
        segs = sorted(self.velocity)
        for i, (t_from, vx, vy) in enumerate(segs):
            b = (np.minimum(tf, float(segs[i + 1][0])) if i + 1 < len(segs)
                 else tf)
            d = b - float(max(self.active[0], t_from))
            x = np.where(d > 0, x + float(vx) * d / 1e6, x)
            y = np.where(d > 0, y + float(vy) * d / 1e6, y)
        return x, y

    # A finite speed or size can still overflow float64: the position
    # or squared distance becomes inf (or nan), which leaves the shape
    # off the sensor, and a disk's squared radius inf, which covers it.
    @np.errstate(over="ignore", invalid="ignore")
    def _masks(self, t: np.ndarray, width: int, height: int) -> np.ndarray:
        """Binary occupancy at each of the int64 times `t`, all-zero outside
        [t_on, t_off), as one (len(t), height, width) array."""
        px, py = self._positions(t)
        live = (self.active[0] <= t) & (t < self.active[1])
        cols, rows = np.arange(width), np.arange(height)
        if self.shape[0] == "rect":
            # In float64, so an edge far off the sensor stays off it.
            _, w, h = self.shape
            x0, y0 = np.floor(px)[:, None], np.floor(py)[:, None]
            in_x = (x0 <= cols) & (cols < x0 + w)
            in_y = (y0 <= rows) & (rows < y0 + h) & live[:, None]
            return in_y[:, :, None] & in_x[:, None, :]
        _, r = self.shape
        dx2 = (cols - px[:, None]) ** 2
        dy2 = (rows - py[:, None]) ** 2
        disk = dy2[:, :, None] + dx2[:, None, :] <= np.float64(r) ** 2
        return disk & live[:, None, None]


@dataclass(frozen=True)
class SceneConfig:
    width: int
    height: int
    duration: int          # microseconds
    micro_step: int        # simulation tick, microseconds
    objects: tuple[ObjectSpec, ...]
    seed: int = 0
    noise_rate: float = 0.0  # background events / pixel / second

    def __post_init__(self):
        for key, size in (("width", self.width), ("height", self.height)):
            if size <= 0:
                raise ConfigError(f"{key} must be positive, got {size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.duration > np.iinfo(np.int64).max:
            raise ConfigError("duration must fit int64")
        if self.micro_step <= 0:
            raise ConfigError("micro_step must be positive")
        if self.duration % self.micro_step != 0:
            raise ConfigError("duration must be a multiple of micro_step")
        if not self.objects:
            raise ConfigError("need at least one object")
        if not 0 <= self.noise_rate < math.inf:
            raise ConfigError(f"noise_rate must be finite and >= 0, got "
                              f"{self.noise_rate}")


@dataclass(frozen=True)
class LabelTrack:
    """Disjoint, sorted (t0, t1, label) intervals covering [0, duration)."""

    intervals: tuple[tuple[int, int, str], ...]

    def overlaps_anomaly(self, a: int, b: int) -> bool:
        return any(lab == "anomaly" and t0 < b and a < t1
                   for t0, t1, lab in self.intervals)


def _occupancy(config: SceneConfig,
               t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union occupancy (len(t), height, width) at each of the int64 times
    `t`, ascending, and whether some anomaly object is on the sensor at
    each."""
    occ = np.zeros((len(t), config.height, config.width), dtype=bool)
    anomalous = np.zeros(len(t), dtype=bool)
    for obj in config.objects:
        if not (obj.active[0] <= t[-1] and t[0] < obj.active[1]):
            continue  # inactive at every time of `t`
        mask = obj._masks(t, config.width, config.height)
        occ |= mask
        if obj.label == "anomaly":
            anomalous |= mask.any(axis=(1, 2))
    return occ, anomalous


# Micro-steps are rendered a block at a time, of about _BLOCK_PIXELS mask
# pixels: 64 steps at 64x64, one at 512x512.
_BLOCK_PIXELS = 1 << 18


def render_scene(config: SceneConfig) -> tuple[EventStream, LabelTrack]:
    """Render a scene to events plus its ground-truth label track.

    Occupancy is sampled at every micro-step; a toggle between steps k-1
    and k emits one event stamped (k-1)*micro_step + jitter with jitter
    uniform in [0, micro_step), so all events land inside the duration.
    Toggles are found a block of steps at a time, in the order step, row,
    column, and their jitter is drawn in that order.

    Refuses, before drawing, a sensor whose one micro-step's mask (a byte
    a pixel), a duration whose step labels (a byte a micro-step) or a
    noise rate whose expected events (17 bytes each) would exceed
    physical memory.
    """
    ms, width = config.micro_step, config.width
    pixels = config.width * config.height
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if pixels > phys:
        raise ConfigError(
            f"width={config.width}, height={config.height} need a "
            f"{pixels >> 30} GiB mask each micro-step, more than this "
            f"machine's physical memory")
    steps = config.duration // ms
    if steps > phys:
        raise ConfigError(
            f"duration_us={config.duration}, micro_step_us={ms} need "
            f"{steps >> 30} GiB of step labels, more than this machine's "
            f"physical memory")
    expect = config.noise_rate * pixels * config.duration / 1e6
    if expect * 17 > phys:
        raise ConfigError(
            f"noise_rate={config.noise_rate} needs "
            f"{expect * 17 / 2**30:.1f} GiB of noise events on a "
            f"{config.width}x{config.height} sensor "
            f"over {config.duration} us, more than this machine's physical "
            f"memory")
    rng = np.random.default_rng(config.seed)
    xs, ys, ts, ps = [], [], [], []
    prev, anomalous = _occupancy(config, np.zeros(1, np.int64))
    labels = [anomalous]
    block = max(1, _BLOCK_PIXELS // pixels)
    for k0 in range(1, steps + 1, block):
        k = np.arange(k0, min(k0 + block, steps + 1), dtype=np.int64)
        cur, anomalous = _occupancy(config, k * ms)
        labels.append(anomalous)
        diff = np.empty_like(cur)
        np.not_equal(cur[0], prev[-1], out=diff[0])
        np.not_equal(cur[1:], cur[:-1], out=diff[1:])
        hit = np.flatnonzero(diff)
        if len(hit):
            step, pix = np.divmod(hit, pixels)
            yy, xx = np.divmod(pix, width)
            xs.append(xx.astype(np.int32))
            ys.append(yy.astype(np.int32))
            ts.append((k0 - 1 + step) * ms
                      + rng.integers(0, ms, size=len(hit)))
            ps.append(np.where(cur.reshape(-1)[hit], 1, -1).astype(np.int8))
        prev = cur

    if config.noise_rate > 0:
        n = rng.poisson(expect)
        xs.append(rng.integers(0, config.width, n).astype(np.int32))
        ys.append(rng.integers(0, config.height, n).astype(np.int32))
        ts.append(rng.integers(0, config.duration, n))
        ps.append(rng.choice(np.array([1, -1], dtype=np.int8), n))

    if xs:
        stream = EventStream.from_arrays(
            config.width, config.height,
            np.concatenate(xs), np.concatenate(ys),
            np.concatenate(ts), np.concatenate(ps))
    else:
        stream = EventStream.empty(config.width, config.height)
    return stream, _merge_labels(np.concatenate(labels)[:steps], ms)


def _merge_labels(anomalous: np.ndarray, micro_step: int) -> LabelTrack:
    """Runs of equal step labels as intervals; step k is
    [k*micro_step, (k+1)*micro_step)."""
    cuts = [0, *(np.flatnonzero(np.diff(anomalous)) + 1).tolist(),
            len(anomalous)]
    return LabelTrack(tuple(
        (a * micro_step, b * micro_step,
         "anomaly" if anomalous[a] else "normal")
        for a, b in zip(cuts, cuts[1:])))


def label_frames(track: LabelTrack, t0: int, frame_dt: int, n_frames: int,
                 span: int) -> np.ndarray:
    """Frame i is 1 iff [t0 + i*frame_dt, t0 + i*frame_dt + span) overlaps
    an anomaly interval."""
    if frame_dt <= 0 or span <= 0:
        raise ValueError("frame_dt and span must be positive")
    out = np.zeros(n_frames, dtype=np.int8)
    for i in range(n_frames):
        a = t0 + i * frame_dt
        if track.overlaps_anomaly(a, a + span):
            out[i] = 1
    return out


# --- flat key=value scene files -------------------------------------------

def _format_shape(shape: tuple) -> str:
    if shape[0] == "rect":
        return f"rect:{shape[1]}x{shape[2]}"
    return f"disk:{shape[1]}"


def _parse_shape(s: str) -> tuple:
    kind, _, rest = s.partition(":")
    if kind == "rect":
        w, _, h = rest.partition("x")
        return ("rect", int(w), int(h))
    if kind == "disk":
        return ("disk", float(rest))
    raise ConfigError(f"bad shape spec {s!r}")


def write_scene_config(config: SceneConfig) -> str:
    lines = [
        f"width={config.width}",
        f"height={config.height}",
        f"duration_us={config.duration}",
        f"micro_step_us={config.micro_step}",
        f"seed={config.seed}",
        f"noise_rate={config.noise_rate}",
    ]
    for i, obj in enumerate(config.objects):
        vel = ";".join(f"{t}:{vx},{vy}" for t, vx, vy in obj.velocity)
        lines += [
            f"object.{i}.shape={_format_shape(obj.shape)}",
            f"object.{i}.start={obj.start[0]},{obj.start[1]}",
            f"object.{i}.velocity={vel}",
            f"object.{i}.active={obj.active[0]},{obj.active[1]}",
            f"object.{i}.label={obj.label}",
        ]
    return "\n".join(lines) + "\n"


def _pair(s: str, cast) -> tuple:
    a, _, b = s.partition(",")
    return cast(a), cast(b)


def _parse_velocity(s: str) -> tuple:
    return tuple((int(t), *_pair(v, float)) for t, _, v in
                 (seg.partition(":") for seg in s.split(";")))


def parse_scene_config(text: str) -> SceneConfig:
    """`write_scene_config`'s format. Objects count 0, 1, 2, ... up to
    the first number without a shape. A line without '=', a repeated,
    missing or unknown key, or a value that does not parse is a
    ConfigError naming its line or key."""
    kv = io.read_key_values(text, ConfigError)
    used = set()

    def get(key, parse, default=None):
        used.add(key)
        val = kv.get(key, default)
        if val is None:
            raise ConfigError(f"missing key {key!r}")
        try:
            return parse(val)
        except ValueError as e:
            raise ConfigError(f"{key}={val!r}: {e}") from None

    duration = get("duration_us", int)
    objects = []
    while f"object.{len(objects)}.shape" in kv:
        pre = f"object.{len(objects)}."
        fields = dict(
            shape=get(pre + "shape", _parse_shape),
            start=get(pre + "start", lambda s: _pair(s, float)),
            velocity=get(pre + "velocity", _parse_velocity),
            active=get(pre + "active", lambda s: _pair(s, int),
                       f"0,{duration}"),
            label=get(pre + "label", str, "normal"))
        try:
            objects.append(ObjectSpec(**fields))
        except ConfigError as e:
            raise ConfigError(pre + str(e)) from None
    config = SceneConfig(get("width", int), get("height", int), duration,
                         get("micro_step_us", int), tuple(objects),
                         seed=get("seed", int, "0"),
                         noise_rate=get("noise_rate", float, "0"))
    unknown = [key for key in kv if key not in used]
    if unknown:
        raise ConfigError(f"unknown scene config key {unknown[0]!r}")
    return config


# --- desk-scale presets ----------------------------------------------------

WALK_SPEED = 35.0     # px/s: one 64 px crossing takes ~2 s
RUN_SPEED = 140.0


def walking_scene(seed: int, duration: int = 2_000_000,
                  size: int = 64) -> SceneConfig:
    """Normal activity: two rectangles crossing the frame at walking speed."""
    return SceneConfig(
        width=size, height=size, duration=duration, micro_step=5000,
        seed=seed,
        objects=(
            ObjectSpec(("rect", 6, 12), (-6.0, 12.0), ((0, WALK_SPEED, 0.0),)),
            ObjectSpec(("rect", 5, 10), (float(size), 36.0),
                       ((0, -WALK_SPEED, 0.0),)),
        ))


def mixed_test_scene(seed: int, size: int = 64) -> SceneConfig:
    """Walking activity throughout, with a running-speed anomaly around
    [2.0 s, 2.5 s) and a novel-shape (disk) anomaly in [4.0 s, 4.8 s)."""
    return SceneConfig(
        width=size, height=size, duration=5_000_000, micro_step=5000,
        seed=seed,
        objects=(
            ObjectSpec(("rect", 6, 12), (-6.0, 12.0), ((0, WALK_SPEED, 0.0),),
                       active=(0, 2_000_000)),
            ObjectSpec(("rect", 5, 10), (float(size), 30.0),
                       ((0, -WALK_SPEED, 0.0),),
                       active=(1_500_000, 3_500_000)),
            ObjectSpec(("rect", 6, 12), (-6.0, 12.0), ((0, WALK_SPEED, 0.0),),
                       active=(3_400_000, 5_000_000)),
            ObjectSpec(("rect", 5, 10), (float(size), 46.0),
                       ((0, -RUN_SPEED, 0.0),),
                       active=(2_000_000, 2_600_000), label="anomaly"),
            ObjectSpec(("disk", 7.0), (0.0, 46.0), ((0, WALK_SPEED, 0.0),),
                       active=(4_000_000, 4_800_000), label="anomaly"),
        ))


def trajectory_anomaly_scene(seed: int, size: int = 64) -> SceneConfig:
    """A walker that reverses direction mid-scene; the return leg is the
    anomaly. Modeled as two objects so only the reversed leg is labeled."""
    turn_x = -6.0 + WALK_SPEED * 1.5
    return SceneConfig(
        width=size, height=size, duration=3_000_000, micro_step=5000,
        seed=seed,
        objects=(
            ObjectSpec(("rect", 6, 12), (-6.0, 24.0), ((0, WALK_SPEED, 0.0),),
                       active=(0, 1_500_000)),
            ObjectSpec(("rect", 6, 12), (turn_x, 24.0),
                       ((0, -WALK_SPEED, 0.0),),
                       active=(1_500_000, 3_000_000), label="anomaly"),
        ))
