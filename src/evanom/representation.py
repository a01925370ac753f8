"""Discretized event volumes and baseline encodings.

The main representation is a B x H x W accumulation grid over a time
window, in one of three modes: per-pixel event counts, signed polarity
sums, or bilinear interpolation of each event's polarity between the two
nearest temporal bins.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .events import EventStream, slice_time

MODES = ("count", "signed", "bilinear")


class EmptyGeometry(ValueError):
    pass


class TooShort(ValueError):
    pass


@dataclass(frozen=True)
class DiscretizedVolume:
    bins: int
    height: int
    width: int
    t0: int          # microseconds
    bin_dt: int      # microseconds per bin
    mode: str
    data: np.ndarray  # (bins, height, width) float32

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.data.shape != (self.bins, self.height, self.width):
            raise ValueError(f"data shape {self.data.shape} != "
                             f"{(self.bins, self.height, self.width)}")

    @property
    def duration(self) -> int:
        return self.bins * self.bin_dt


@dataclass(frozen=True)
class WindowSample:
    """B input bins plus the following bin as prediction target."""

    input: DiscretizedVolume       # bins 0..B-1
    target: np.ndarray             # (H, W), bin B, same mode/normalization
    t0: int


def discretize(stream: EventStream, t0: int, bin_dt: int, bins: int,
               mode: str = "bilinear") -> DiscretizedVolume:
    """Accumulate events in [t0, t0 + bins*bin_dt) into a (B, H, W) grid.

    count: per-pixel event counts per bin. signed: polarity sums.
    bilinear: each event at normalized time t* = (t - t0)/bin_dt spreads
    polarity-weighted mass (1 - |t* - b|) over the two nearest bins,
    clamped at the volume edges.
    """
    if stream.width == 0 or stream.height == 0:
        raise EmptyGeometry("stream has zero-sized geometry")
    if bins < 1 or bin_dt <= 0:
        raise ValueError("need bins >= 1 and bin_dt > 0")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    H, W = stream.height, stream.width
    grid = np.zeros((bins, H, W), dtype=np.float32)
    window = slice_time(stream, t0, t0 + bins * bin_dt)
    if len(window) == 0:
        return DiscretizedVolume(bins, H, W, t0, bin_dt, mode, grid)

    flat = grid.ravel()
    pix = window.y.astype(np.int64) * W + window.x.astype(np.int64)
    if mode in ("count", "signed"):
        b = (window.t - t0) // bin_dt
        w = np.ones(len(window), dtype=np.float32) if mode == "count" \
            else window.p.astype(np.float32)
        np.add.at(flat, b * H * W + pix, w)
    else:
        # Mass at bin centers b=0..bins-1; t* in [0, bins) maps to [0, bins-1]
        # by clamping so edge events keep full weight.
        ts = (window.t - t0).astype(np.float64) / bin_dt
        ts = np.clip(ts, 0.0, bins - 1.0)
        lo = np.floor(ts).astype(np.int64)
        frac = (ts - lo).astype(np.float32)
        pol = window.p.astype(np.float32)
        np.add.at(flat, lo * H * W + pix, pol * (1.0 - frac))
        hi = lo + 1
        ok = hi < bins
        np.add.at(flat, hi[ok] * H * W + pix[ok], pol[ok] * frac[ok])
    return DiscretizedVolume(bins, H, W, t0, bin_dt, mode, grid)


def normalize(array: np.ndarray, cap: float) -> np.ndarray:
    """Clamp entries to [-cap, cap] and scale into [-1, 1], as float32."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    return (np.clip(array, -cap, cap) / np.float32(cap)).astype(np.float32,
                                                                copy=False)


def normalize_volume(vol: DiscretizedVolume, cap: float) -> DiscretizedVolume:
    """The volume with `normalize` applied to its data."""
    return replace(vol, data=normalize(vol.data, cap))


def window_arrays(windows, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Windows -> (normalized inputs (N,B,H,W), normalized targets (N,H,W))."""
    return (normalize(np.stack([w.input.data for w in windows]), cap),
            normalize(np.stack([w.target for w in windows]), cap))


def sliding_windows(stream: EventStream, bin_dt: int, bins: int,
                    stride: int = 1, mode: str = "bilinear",
                    t0: int | None = None,
                    duration: int | None = None) -> list[WindowSample]:
    """Cut (B input bins, 1 target bin) samples every `stride` bins.

    Window k starts at t0 + k*stride*bin_dt; its first B bins form the
    input volume, bin B the target frame. t0 defaults to the first event
    timestamp, duration to the stream's time extent from t0.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if len(stream) == 0:
        raise TooShort("empty stream")
    if t0 is None:
        t0 = int(stream.t[0])
    if duration is None:
        duration = int(stream.t[-1]) - t0
    span = (bins + 1) * bin_dt
    if duration < span:
        raise TooShort(f"duration {duration} < (B+1)*bin_dt = {span}")
    n = (duration - span) // (stride * bin_dt) + 1
    out = []
    for k in range(n):
        start = t0 + k * stride * bin_dt
        vol = discretize(stream, start, bin_dt, bins + 1, mode)
        inp = DiscretizedVolume(bins, vol.height, vol.width, start, bin_dt,
                                mode, vol.data[:bins].copy())
        out.append(WindowSample(inp, vol.data[bins].copy(), start))
    return out


def baseline_histogram(stream: EventStream, t0: int, dt: int) -> np.ndarray:
    """Two-channel per-polarity count image over [t0, t0+dt).

    Channel 0 counts positive events, channel 1 negative ones.
    """
    window = slice_time(stream, t0, t0 + dt)
    H, W = stream.height, stream.width
    grid = np.zeros((2, H, W), dtype=np.float32)
    ch = (window.p < 0).astype(np.int64)
    pix = window.y.astype(np.int64) * W + window.x.astype(np.int64)
    np.add.at(grid.ravel(), ch * H * W + pix, 1.0)
    return grid


def baseline_exp_surface(stream: EventStream, t_ref: int, tau: float) -> np.ndarray:
    """Exponentially time-decayed polarity accumulation at t_ref.

    grid[y, x] = sum over events at (x, y) with t <= t_ref of
    p * exp(-(t_ref - t)/tau).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    H, W = stream.height, stream.width
    grid = np.zeros((H, W), dtype=np.float64)
    past = slice_time(stream, 0, t_ref + 1)
    w = past.p.astype(np.float64) * np.exp(-(t_ref - past.t).astype(np.float64) / tau)
    pix = past.y.astype(np.int64) * W + past.x.astype(np.int64)
    np.add.at(grid.ravel(), pix, w)
    return grid
