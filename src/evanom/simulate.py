"""Synthetic event-camera scenes with frame-level anomaly labels.

Objects are binary occupancy masks (rectangles and disks) translating
over an empty background. At every micro-step, each pixel whose
occupancy toggles emits one event: +1 when the pixel becomes occupied,
-1 when it is vacated. Event rate therefore scales with object speed,
which is the contrast the anomaly detector relies on. Rendering is fully
deterministic for a fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
            raise ConfigError(f"unknown shape {kind!r}")
        if self.label not in ("normal", "anomaly"):
            raise ConfigError(f"unknown label {self.label!r}")
        if self.active[0] >= self.active[1]:
            raise ConfigError("need t_on < t_off")
        if not self.velocity:
            raise ConfigError("need at least one velocity segment")

    def position(self, t_us: int) -> tuple[float, float]:
        """Integrate piecewise-constant velocity from t_on up to t_us."""
        x, y = self.start
        t_prev = self.active[0]
        segs = sorted(self.velocity)
        for i, (t_from, vx, vy) in enumerate(segs):
            t_next = segs[i + 1][0] if i + 1 < len(segs) else t_us
            a = max(t_prev, t_from)
            b = min(t_us, t_next)
            if b > a:
                x += vx * (b - a) / 1e6
                y += vy * (b - a) / 1e6
        return x, y

    def mask(self, t_us: int, width: int, height: int) -> np.ndarray:
        """Binary occupancy at time t_us; all-zero outside [t_on, t_off)."""
        out = np.zeros((height, width), dtype=bool)
        if not (self.active[0] <= t_us < self.active[1]):
            return out
        px, py = self.position(t_us)
        if self.shape[0] == "rect":
            _, w, h = self.shape
            x0, y0 = int(np.floor(px)), int(np.floor(py))
            xa, xb = max(x0, 0), min(x0 + w, width)
            ya, yb = max(y0, 0), min(y0 + h, height)
            if xa < xb and ya < yb:
                out[ya:yb, xa:xb] = True
        else:
            _, r = self.shape
            yy, xx = np.mgrid[0:height, 0:width]
            out = (xx - px) ** 2 + (yy - py) ** 2 <= r ** 2
        return out


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
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.micro_step <= 0:
            raise ConfigError("micro_step must be positive")
        if self.duration % self.micro_step != 0:
            raise ConfigError("duration must be a multiple of micro_step")
        if not self.objects:
            raise ConfigError("need at least one object")
        if self.noise_rate < 0:
            raise ConfigError("noise_rate must be >= 0")


@dataclass(frozen=True)
class LabelTrack:
    """Disjoint, sorted (t0, t1, label) intervals covering [0, duration)."""

    intervals: tuple[tuple[int, int, str], ...]

    def overlaps_anomaly(self, a: int, b: int) -> bool:
        return any(lab == "anomaly" and t0 < b and a < t1
                   for t0, t1, lab in self.intervals)


def occupancy(config: SceneConfig, t_us: int) -> np.ndarray:
    """Union occupancy of all active objects at t_us."""
    mask = np.zeros((config.height, config.width), dtype=bool)
    for obj in config.objects:
        mask |= obj.mask(t_us, config.width, config.height)
    return mask


def render_scene(config: SceneConfig) -> tuple[EventStream, LabelTrack]:
    """Render a scene to events plus its ground-truth label track.

    Occupancy is sampled at every micro-step; a toggle between steps k-1
    and k emits one event stamped (k-1)*micro_step + jitter with jitter
    uniform in [0, micro_step), so all events land inside the duration.
    """
    rng = np.random.default_rng(config.seed)
    steps = config.duration // config.micro_step
    xs, ys, ts, ps = [], [], [], []
    labels = []
    prev = occupancy(config, 0)
    labels.append(_step_label(config, 0))
    for k in range(1, steps + 1):
        t = k * config.micro_step
        cur = occupancy(config, t)
        diff = cur != prev
        if diff.any():
            yy, xx = np.nonzero(diff)
            pol = np.where(cur[yy, xx], 1, -1).astype(np.int8)
            jit = rng.integers(0, config.micro_step, size=len(yy))
            xs.append(xx.astype(np.int32))
            ys.append(yy.astype(np.int32))
            ts.append((k - 1) * config.micro_step + jit)
            ps.append(pol)
        prev = cur
        if k < steps:
            labels.append(_step_label(config, t))

    if config.noise_rate > 0:
        n_pix = config.width * config.height
        expect = config.noise_rate * n_pix * config.duration / 1e6
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
    return stream, _merge_labels(labels, config.micro_step, config.duration)


def _step_label(config: SceneConfig, t_us: int) -> str:
    for obj in config.objects:
        if obj.label == "anomaly" and obj.mask(t_us, config.width, config.height).any():
            return "anomaly"
    return "normal"


def _merge_labels(step_labels: list[str], micro_step: int, duration: int) -> LabelTrack:
    intervals = []
    run_start, run_label = 0, step_labels[0]
    for k, lab in enumerate(step_labels[1:], start=1):
        if lab != run_label:
            intervals.append((run_start * micro_step, k * micro_step, run_label))
            run_start, run_label = k, lab
    intervals.append((run_start * micro_step, duration, run_label))
    return LabelTrack(tuple(intervals))


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


def parse_scene_config(text: str) -> SceneConfig:
    kv: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}")
        key, _, val = line.partition("=")
        kv[key.strip()] = val.strip()
    try:
        width = int(kv["width"])
        height = int(kv["height"])
        duration = int(kv["duration_us"])
        micro_step = int(kv["micro_step_us"])
        seed = int(kv.get("seed", "0"))
        noise_rate = float(kv.get("noise_rate", "0"))
        objects = []
        i = 0
        while f"object.{i}.shape" in kv:
            pre = f"object.{i}."
            sx, _, sy = kv[pre + "start"].partition(",")
            vel = []
            for seg in kv[pre + "velocity"].split(";"):
                t, _, v = seg.partition(":")
                vx, _, vy = v.partition(",")
                vel.append((int(t), float(vx), float(vy)))
            a, _, b = kv.get(pre + "active", "0,%d" % duration).partition(",")
            objects.append(ObjectSpec(
                shape=_parse_shape(kv[pre + "shape"]),
                start=(float(sx), float(sy)),
                velocity=tuple(vel),
                active=(int(a), int(b)),
                label=kv.get(pre + "label", "normal")))
            i += 1
    except KeyError as k:
        raise ConfigError(f"missing key {k}") from None
    return SceneConfig(width, height, duration, micro_step, tuple(objects),
                       seed=seed, noise_rate=noise_rate)


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
