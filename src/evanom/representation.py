"""Discretized event volumes.

A volume is a B x H x W accumulation grid over a time window, in one of
three modes: per-pixel event counts, signed polarity sums, or bilinear
interpolation of each event's polarity between the two nearest temporal
bins. A training or scoring window is one such grid with B+1 bins: the
first B are the input volume, the last is the frame to predict.

Every window of a stream comes from one binning pass over its events.
Bin centre j of the pass is the interval [t0 + j*bin_dt, t0 +
(j+1)*bin_dt). An event in interval j = (t - t0) // bin_dt has the
fraction f = float32(((t - t0) mod bin_dt) / bin_dt); count gives 1 and
signed p to centre j. Bilinear gives p*(1 - f) to centre j and p*f to
centre j + 1, except that a window's first bin takes nothing from before
the window and its last bin takes the full p of its own interval, so a
bilinear window bin is one of three per-centre grids:

- first: own p*(1 - f) only;
- mid: own p*(1 - f), then the previous interval's p*f;
- last: own p, then the previous interval's p*f.

Each grid is accumulated in float32 with `np.add.at` in event order,
own terms before carried ones, so a window's bytes do not depend on
where it starts or on how many other windows share the pass.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .events import EventStream, time_index

MODES = ("count", "signed", "bilinear")
_T_MAX = np.iinfo(np.int64).max
_I32_MAX = np.iinfo(np.int32).max


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


def _check(bin_dt: int, bins: int, mode: str):
    if bins < 1 or bin_dt <= 0:
        raise ValueError("need bins >= 1 and bin_dt > 0")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")


def _windows(stream: EventStream, t0: int, bin_dt: int, bins: int, n: int,
             stride: int, mode: str) -> np.ndarray:
    """One binning pass, cut by one gather of its grid rows into an (n,
    bins, H, W) float32 array; window k starts at t0 + k*stride*bin_dt.
    Refuses, before allocating, a grid and windows larger together than
    physical memory."""
    hw = stream.height * stream.width
    centres = (n - 1) * stride + bins
    grid_b, cut_b = (centres + 1) * hw * 4, n * bins * hw * 4
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if grid_b + cut_b > phys:
        raise ValueError(
            f"bins={bins}, stride={stride} need a {grid_b >> 30} GiB "
            f"grid and {cut_b >> 30} GiB of windows on a "
            f"{stream.width}x{stream.height} sensor, more than this "
            f"machine's physical memory")
    t = stream.t
    lo, hi = time_index(t, t0), time_index(t, t0 + centres * bin_dt)
    # with no event selected, t0 may lie beyond int64
    rel = t[lo:hi] - t0 if hi > lo else t[:0]
    if bin_dt > _T_MAX:  # every offset is below bin_dt, which int64 cannot hold
        j, r = np.zeros_like(rel), rel
    else:
        j, r = np.divmod(rel, bin_dt)
    itype = np.int32 if (centres + 1) * hw <= _I32_MAX else np.int64
    j = j.astype(itype, copy=False)
    pix = stream.y[lo:hi] * stream.width + stream.x[lo:hi]
    idx = j * hw + pix
    p = stream.p[lo:hi].astype(np.float32)
    # Row `centres` takes the last interval's carry; no window reads it.
    grid = np.zeros((centres + 1, stream.height, stream.width), np.float32)
    rows = np.arange(n)[:, None] * stride + np.arange(bins)
    if mode != "bilinear" or bins == 1:  # a one-bin window clamps to own p
        np.add.at(grid.ravel(), idx, np.float32(1) if mode == "count" else p)
        return grid[rows]
    f = (r / float(bin_dt)).astype(np.float32)
    del rel, r
    carry = p * f
    np.add.at(grid.ravel(), idx, p * (1 - f))
    first = grid[rows[:, 0]]
    np.add.at(grid.ravel(), idx + hw, carry)
    q, m = np.divmod(j - (bins - 1), stride)
    own = (q >= 0) & (m == 0)
    carried = (m == stride - 1) & (q >= -1) & (q < n - 1)
    last = np.zeros((n, stream.height, stream.width), dtype=np.float32)
    np.add.at(last.ravel(), q[own] * hw + pix[own], p[own])
    np.add.at(last.ravel(), (q[carried] + 1) * hw + pix[carried],
              carry[carried])
    w = grid[rows]
    w[:, 0], w[:, -1] = first, last
    return w


def discretize(stream: EventStream, t0: int, bin_dt: int, bins: int,
               mode: str = "bilinear") -> DiscretizedVolume:
    """Accumulate events in [t0, t0 + bins*bin_dt) into a (B, H, W) grid.

    count: per-pixel event counts per bin. signed: polarity sums.
    bilinear: each event at normalized time t* = (t - t0)/bin_dt spreads
    polarity-weighted mass (1 - |t* - b|) over the two nearest bins,
    clamped at the volume edges: the first bin takes nothing from before
    t0 and the last keeps the full polarity of its own events. The
    volume is the one-window case of the module's binning pass, so its
    fraction is the remainder rule f = ((t - t0) mod bin_dt) / bin_dt in
    float32, and own terms are added before carried ones.
    """
    _check(bin_dt, bins, mode)
    data = _windows(stream, t0, bin_dt, bins, 1, 1, mode)[0]
    return DiscretizedVolume(bins, stream.height, stream.width, t0, bin_dt,
                             mode, data)


def normalize(array: np.ndarray, cap: float) -> np.ndarray:
    """Clamp entries to [-cap, cap] and scale into [-1, 1], as float32."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    return (np.clip(array, -cap, cap) / np.float32(cap)).astype(np.float32,
                                                                copy=False)


def window_arrays(windows, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Windows -> (normalized inputs (N,B,H,W), normalized targets (N,H,W)),
    two separate arrays: holding the targets does not hold the inputs."""
    w = np.asarray(windows)
    return normalize(w[:, :-1], cap), normalize(w[:, -1], cap)


def window_block(stream: EventStream, bin_dt: int, bins: int,
                 stride: int = 1, mode: str = "bilinear",
                 t0: int | None = None,
                 duration: int | None = None) -> np.ndarray:
    """Cut a (B+1, H, W) float32 window every `stride` bins, as the rows
    of one C-contiguous (n, B+1, H, W) array.

    Window k has the bytes of `discretize(stream, t0 + k*stride*bin_dt,
    bin_dt, B+1, mode).data`: its first B bins form the input volume,
    bin B the target frame. All windows come from one binning pass, so
    each event is binned once however many windows it falls in. t0
    defaults to the first event timestamp, duration to the stream's time
    extent from t0.
    """
    n = window_count(stream, bin_dt, bins, stride, mode, t0, duration)
    t0 = int(stream.t[0]) if t0 is None else t0
    return _windows(stream, t0, bin_dt, bins + 1, n, stride, mode)


def sliding_windows(*args, **kwargs) -> list[np.ndarray]:
    """`window_block(...)`'s windows as a list of its rows, so that
    `windows += sliding_windows(...)` extends a list (with an array on
    the right, numpy would broadcast an addition instead)."""
    return list(window_block(*args, **kwargs))


def window_count(stream: EventStream, bin_dt: int, bins: int, stride: int,
                 mode: str, t0: int | None, duration: int | None) -> int:
    """How many windows `window_block` cuts with these arguments, with
    its errors (TooShort if none), binning nothing."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if len(stream) == 0:
        raise TooShort("empty stream")
    _check(bin_dt, bins + 1, mode)
    if duration is None:
        duration = int(stream.t[-1]) - (int(stream.t[0]) if t0 is None else t0)
    span = (bins + 1) * bin_dt
    if duration < span:
        raise TooShort(f"duration {duration} < (B+1)*bin_dt = {span}")
    return (duration - span) // (stride * bin_dt) + 1

