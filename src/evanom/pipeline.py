"""End-to-end anomaly scoring and evaluation.

A trained memory-surface net plus generator score a stream window by
window: encode the B input bins, predict the next frame with zero noise,
and take the MSE against the observed normalized frame. Frames are then
ranked by score; evaluation is threshold-free (ROC AUC and best F1).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from . import gan as gan_mod
from . import io, lanes
from .events import EventStream
from .msnet import MsNetParams, check_bins
from .representation import MODES, window_block, window_count
from .simulate import LabelTrack, _merge_labels, label_frames


class SingleClass(ValueError):
    pass


class EmptySeries(ValueError):
    pass


_COUNTS = ("bins", "bin_dt_us", "stride", "ms_filters", "ms_epochs",
           "ms_batch", "gan_ngf", "gan_ndf", "gan_epochs", "gan_batch")

# (keys, check, rule as reported) for PipelineConfig's values. Every int
# must fit numpy's int64, which binning and array shapes compute in; the
# cap must stay finite and positive as the float32 that `normalize`
# divides by.
_CONFIG_RULES = (
    (("mode",), lambda v: v in MODES, f"one of {MODES}"),
    (_COUNTS, lambda v: v >= 1, ">= 1"),
    (_COUNTS + ("noise_samples",), lambda v: v <= 2**63 - 1,
     "<= 2**63 - 1"),
    (("cap",), lambda v: 0 < np.float32(v) < np.inf,
     "finite and > 0 as a float32"),
    (("ms_lr", "gan_lr"), lambda v: 0 < v < np.inf, "finite and > 0"),
    (("noise_samples", "ms_lambda_sparse", "gan_lambda_l1"),
     lambda v: 0 <= v < np.inf, "finite and >= 0"),
    (("gan_beta1",), lambda v: 0 <= v < 1, "in [0, 1)"),
)


@dataclass(frozen=True)
class PipelineConfig:
    """Flat key=value configuration shared by training and scoring: the
    binning, the cap, and the MS net's (`ms_*`) and GAN's (`gan_*`)
    training settings. Frozen, so values checked once stay checked."""

    bins: int = 8
    bin_dt_us: int = 25_000
    mode: str = "bilinear"
    cap: float = 5.0
    stride: int = 2
    ms_filters: int = 32
    ms_epochs: int = 50
    ms_lr: float = 1e-3
    ms_lambda_sparse: float = 1e-3
    ms_batch: int = 16
    gan_ngf: int = 16
    gan_ndf: int = 16
    gan_epochs: int = 10
    gan_lr: float = 2e-4
    gan_beta1: float = 0.5
    gan_batch: int = 16
    gan_lambda_l1: float = 0.0
    noise_samples: int = 0  # 0 = deterministic zero-noise scoring

    def __post_init__(self):
        for keys, ok, rule in _CONFIG_RULES:
            for key in keys:
                with np.errstate(over="ignore"):  # float32(1e39) is inf
                    good = ok(getattr(self, key))
                if not good:
                    raise ValueError(
                        f"config {key}={getattr(self, key)!r}: must be {rule}")

    # The benchmark still passes these to train_ms and train_gan; they go
    # with ROADMAP item 1.
    def ms_hyper(self) -> "PipelineConfig":
        return self

    def gan_hyper(self) -> "PipelineConfig":
        return self

    def to_text(self) -> str:
        return "".join(f"{f.name}={getattr(self, f.name)}\n"
                       for f in fields(self))

    @classmethod
    def from_text(cls, text: str) -> "PipelineConfig":
        """`to_text`'s format; a key left out keeps its default. A line
        without '=', a repeated or unknown key, or a value that does not
        parse is a ValueError naming its line or key."""
        types = {f.name: f.type for f in fields(cls)}
        casts = {"int": int, "float": float, "str": str}
        kw = {}
        for key, val in io.read_key_values(text).items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            try:
                kw[key] = casts[types[key]](val)
            except ValueError as e:
                raise ValueError(f"config {key}={val!r}: {e}") from None
        return cls(**kw)


@dataclass
class ScoreSeries:
    t0: int              # start of the first scored frame, microseconds
    frame_dt: int        # spacing between scored frames, microseconds
    scores: np.ndarray   # per-frame MSE
    labels: np.ndarray | None = None  # per-frame {0,1}

    def __post_init__(self):
        if self.frame_dt < 1:
            raise ValueError(f"frame_dt must be >= 1 us, got {self.frame_dt}")
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if not np.all(np.isfinite(self.scores)) or (self.scores < 0).any():
            raise ValueError("scores must be finite and non-negative")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if len(labels) != len(self.scores):
                raise ValueError("labels length mismatch")
            if not np.isin(labels, (0, 1)).all():
                raise ValueError("labels must be 0 or 1")
            self.labels = labels.astype(np.int8)

    def __len__(self):
        return len(self.scores)

    def frame_start(self, i: int) -> int:
        return self.t0 + i * self.frame_dt


@dataclass
class EvalMetrics:
    auc: float
    best_f1: float
    threshold: float


def windows_for(stream: EventStream, cfg: PipelineConfig):
    """The config's windows, one array, from t=0 to a stream's last event."""
    return window_block(stream, cfg.bin_dt_us, cfg.bins, stride=cfg.stride,
                        mode=cfg.mode, t0=0,
                        duration=int(stream.t[-1]) if len(stream) else 0)


@lanes.one_blas_thread()
def score_sequence(ms_params: MsNetParams, gan_params: gan_mod.GanParams,
                   stream: EventStream, cfg: PipelineConfig,
                   track: LabelTrack | None = None,
                   seed: int = 0) -> ScoreSeries:
    """Per-window prediction MSE over a stream, deterministic by default.

    With cfg.noise_samples == 0 the generator runs with an all-zero noise
    grid; with k > 0 the score is the mean over k noise draws, which each
    16-frame generator call (one `lanes.run_tasks` task) takes from
    `np.random.default_rng((seed, its first frame))`. The MS net's bin
    count, the frame size and the window count are checked before any work.
    """
    h, w = stream.height, stream.width
    check_bins(ms_params, cfg.bins)
    gan_mod.GanParams.load(gan_params.to_arrays(), h=h, w=w)  # or raises
    step = cfg.stride * cfg.bin_dt_us
    n = window_count(stream, cfg.bin_dt_us, cfg.bins, cfg.stride, cfg.mode,
                     t0=0, duration=int(stream.t[-1]) if len(stream) else 0)
    scores = np.zeros(n, dtype=np.float64)

    def score_call(a: int):
        frames = min(_G_FRAMES, n - a)
        windows = window_block(
            stream, cfg.bin_dt_us, cfg.bins, stride=cfg.stride,
            mode=cfg.mode, t0=a * step,
            duration=(cfg.bins + 1) * cfg.bin_dt_us + (frames - 1) * step)
        surfaces, targets = gan_mod.prepare_batches(windows, ms_params,
                                                    cfg.cap)
        rng = np.random.default_rng((seed, a))
        z = np.zeros((frames, 1, h, w), dtype=np.float32)
        for _ in range(max(1, cfg.noise_samples)):
            if cfg.noise_samples:
                z = rng.standard_normal(z.shape, dtype=np.float32)
            d = gan_mod.g_forward(gan_params, surfaces, z) - targets
            scores[a:a + frames] += d.reshape(frames, -1).__pow__(2).mean(1)

    lanes.run_tasks([functools.partial(score_call, a)
                     for a in range(0, n, _G_FRAMES)])
    scores /= max(1, cfg.noise_samples)
    t0 = cfg.bins * cfg.bin_dt_us  # window 0 starts at t=0
    labels = None
    if track is not None:
        # A frame is labelled by its target bin, which is narrower than
        # the frame spacing when stride > 1.
        labels = label_frames(track, t0, step, n, cfg.bin_dt_us)
    return ScoreSeries(t0, step, scores, labels)


# A stream's frames are scored 16 a generator call, from frame 0, each
# call one `lanes.run_tasks` task (a window's bytes do not depend on where
# binning starts, and a call's noise on which lane draws it). A frame's
# prediction can change bits with the batch it is computed in (at 16x16
# frames, 8 a call moves the last of each call), so each frame's call is
# the same at any lane count.
_G_FRAMES = 16


def evaluate(series: ScoreSeries) -> EvalMetrics:
    """ROC over every distinct score threshold (anomaly = score >= t),
    trapezoidal AUC, and the best F1 along the sweep (on a tie, the
    highest threshold)."""
    if series.labels is None:
        raise SingleClass("series has no labels")
    y = series.labels.astype(bool)
    pos = int(y.sum())
    neg = len(y) - pos
    if pos == 0 or neg == 0:
        raise SingleClass("need both classes to evaluate")
    order = np.argsort(-series.scores, kind="stable")
    sorted_scores = series.scores[order]
    sorted_y = y[order]
    # cumulative counts at each distinct-score cut
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    cuts = np.append(distinct, len(sorted_scores) - 1)
    tp = np.cumsum(sorted_y)[cuts].astype(np.float64)
    fp = np.cumsum(~sorted_y)[cuts].astype(np.float64)
    tpr = np.concatenate([[0.0], tp / pos])
    fpr = np.concatenate([[0.0], fp / neg])
    auc = float(np.trapezoid(tpr, fpr))
    prec = tp / (tp + fp)
    rec = tp / pos
    denom = prec + rec
    f1 = np.divide(2 * prec * rec, denom, out=np.zeros_like(denom),
                   where=denom != 0)
    best = int(np.argmax(f1))
    return EvalMetrics(auc=auc, best_f1=float(f1[best]),
                       threshold=float(sorted_scores[cuts[best]]))


def write_score_csv(series: ScoreSeries) -> str:
    rows = ["frame,t0_us,mse,label"]
    for i, s in enumerate(series.scores):
        lab = "" if series.labels is None else str(int(series.labels[i]))
        rows.append(f"{i},{series.frame_start(i)},{float(s)!r},{lab}")
    return "\n".join(rows) + "\n"


def _csv_rows(text: str, header: str, kind: str):
    """Yield (line number, fields) for each non-blank row after `header`,
    which must be the first non-blank line; a row with another number of
    fields than the header is a ValueError naming its line."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines or lines[0][1] != header:
        raise ValueError(f"missing {kind} CSV header")
    n = header.count(",") + 1
    for lineno, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != n:
            raise ValueError(
                f"line {lineno}: expected {n} fields, got {len(fields)}")
        yield lineno, fields


def read_score_csv(text: str) -> ScoreSeries:
    """Frames must count 0, 1, 2, ... and start frame_dt apart, frame_dt
    being the gap between the first two, which must be positive; mse must
    be finite and >= 0. A one-row CSV loads with frame_dt 1, which
    `frame_start(0)` does not use."""
    t0s, scores, labels = [], [], []
    for i, (lineno, (frame, t0, mse, lab)) in enumerate(_csv_rows(
            text, "frame,t0_us,mse,label", "score")):
        try:
            frame, t0, score = int(frame), int(t0), float(mse)
            label = int(lab) if lab else None
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        if frame != i:
            raise ValueError(f"line {lineno}: frame {frame}, expected {i}")
        if i == 1 and t0 <= t0s[0]:
            raise ValueError(f"line {lineno}: t0_us {t0} is not after "
                             f"frame 0's {t0s[0]}")
        want = t0s[0] + i * (t0s[1] - t0s[0]) if i > 1 else t0
        if t0 != want:
            raise ValueError(f"line {lineno}: t0_us {t0}, expected {want}")
        if not (np.isfinite(score) and score >= 0):
            raise ValueError(f"line {lineno}: mse {mse!r} is not finite "
                             "and non-negative")
        if label not in (None, 0, 1):
            raise ValueError(f"line {lineno}: label {lab!r} is not 0 or 1")
        t0s.append(t0)
        scores.append(score)
        labels.append(label)
    if not t0s:
        raise EmptySeries("score CSV has no frames")
    frame_dt = t0s[1] - t0s[0] if len(t0s) > 1 else 1
    labs = None if any(l is None for l in labels) else np.array(labels)
    return ScoreSeries(t0s[0], frame_dt, np.array(scores), labs)


def plot_scores(series: ScoreSeries) -> str:
    """Self-contained static SVG: MSE per frame, anomaly frames shaded.

    Byte-deterministic for identical series; y axis spans [0, max*1.05].
    """
    if len(series) == 0:
        raise EmptySeries("nothing to plot")
    width, height = 800, 300
    ml, mr, mt, mb = 50, 10, 10, 30
    pw, ph = width - ml - mr, height - mt - mb
    n = len(series)
    d = pw / max(n - 1, 1)  # one frame's width
    ymax = float(series.scores.max()) * 1.05
    if ymax == 0:
        ymax = 1.0

    def sx(i):
        return ml + (pw * i / max(n - 1, 1))

    def sy(v):
        return mt + ph * (1.0 - v / ymax)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if series.labels is not None:
        for i, j, label in _merge_labels(series.labels, 1).intervals:
            if label == "anomaly":
                x0 = max(sx(i) - d / 2, ml)
                x1 = min(sx(j - 1) + d / 2, ml + pw)
                parts.append(
                    f'<rect x="{x0:.2f}" y="{mt}" width="{x1 - x0:.2f}" '
                    f'height="{ph}" fill="#fdd" stroke="none"/>')
    pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}"
                   for i, v in enumerate(series.scores))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" '
                 f'stroke-width="1.5"/>')
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" '
                 f'y2="{mt + ph}" stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
                 f'stroke="black"/>')
    parts.append(f'<text x="{ml}" y="{height - 8}" font-size="12">frame</text>')
    parts.append(f'<text x="4" y="{mt + 12}" font-size="12">'
                 f'{ymax:.4g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_label_csv(track: LabelTrack) -> str:
    rows = ["t0_us,t1_us,label"]
    rows += [f"{a},{b},{lab}" for a, b, lab in track.intervals]
    return "\n".join(rows) + "\n"


def read_label_csv(text: str) -> LabelTrack:
    """Sorted, non-overlapping (t0, t1, label) rows with t0 < t1 and a
    label of normal or anomaly; any other row is a ValueError naming its
    line."""
    intervals = []
    for lineno, (a, b, lab) in _csv_rows(text, "t0_us,t1_us,label", "label"):
        try:
            a, b = int(a), int(b)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        if lab not in ("normal", "anomaly"):
            raise ValueError(
                f"line {lineno}: label {lab!r} is not normal or anomaly")
        if b <= a:
            raise ValueError(f"line {lineno}: interval end {b} is not after "
                             f"its start {a}")
        if intervals and a < intervals[-1][1]:
            raise ValueError(f"line {lineno}: interval starts at {a}, before "
                             f"the previous one ends at {intervals[-1][1]}")
        intervals.append((a, b, lab))
    return LabelTrack(tuple(intervals))
