"""Event data model: validated streams of (x, y, t, p) sensor events.

Timestamps are integer microseconds. Polarity is +1 or -1. Streams are
immutable structure-of-arrays containers sorted by timestamp (stable
order for ties) and are safe to share across threads for reading.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import lanes

HEADER = "t_us,x,y,p"
_T_MAX = np.iinfo(np.int64).max

# Rows are read a chunk of about _CHUNK characters at a time, one chunk a
# lane, so the byte passes' and the row loop's temporaries stay a few MiB
# a lane however long the stream. A stream of one chunk (a desk test
# stream is ~0.1 MB) opens no pool.
# A 6.6 MB dense stream (2 vCPUs, numpy 2.4, one lane) parsed in a median
# 99 ms at 16 KiB chunks, 60 at 64 KiB, 53 at 256 KiB, 59 at 1 MiB and 76
# at 4 MiB: small chunks pay numpy's per-call cost, large ones miss cache.
_CHUNK = 1 << 18
# Canonical field lengths: t fits int64 in 18 digits, x and y int32 in 9,
# p is "1" or "-1". The longest row adds 3 commas and a newline.
_FIELD_MAX = (18, 9, 9, 2)
_ROW_MAX = 42


class EventError(ValueError):
    """Base class for event-stream validation errors."""


class MalformedRow(EventError):
    def __init__(self, line_no: int, detail: str):
        super().__init__(f"line {line_no}: malformed row ({detail})")
        self.line_no = line_no


class OutOfBounds(EventError):
    def __init__(self, line_no: int, detail: str):
        super().__init__(f"line {line_no}: coordinate out of bounds ({detail})")
        self.line_no = line_no


class BadPolarity(EventError):
    def __init__(self, line_no: int, detail: str):
        super().__init__(f"line {line_no}: polarity must be 1 or -1 ({detail})")
        self.line_no = line_no


class InvalidRange(EventError):
    """Raised when a time interval has t0 > t1."""


class Event(NamedTuple):
    x: int
    y: int
    t: int
    p: int


@dataclass(frozen=True)
class EventStream:
    """Immutable, time-sorted stream of events on a width x height sensor."""

    width: int
    height: int
    x: np.ndarray  # int32, column index
    y: np.ndarray  # int32, row index
    t: np.ndarray  # int64, microseconds
    p: np.ndarray  # int8, +1 / -1

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise EventError(f"bad geometry {self.width}x{self.height}")
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.p) == n):
            raise EventError("field arrays must have equal length")
        if n:
            if self.t.min() < 0:
                raise EventError("negative timestamp")
            if np.any(np.diff(self.t) < 0):
                raise EventError("timestamps must be non-decreasing")
            if np.any((self.x < 0) | (self.x >= self.width)):
                raise EventError("x out of bounds")
            if np.any((self.y < 0) | (self.y >= self.height)):
                raise EventError("y out of bounds")
            if np.any(np.abs(self.p) != 1):
                raise EventError("polarity must be +1 or -1")
        for a in (self.x, self.y, self.t, self.p):
            a.flags.writeable = False

    @classmethod
    def from_arrays(cls, width, height, x, y, t, p) -> "EventStream":
        """A stream owning one copy of each field, stably sorted by t. A
        value outside its field's dtype raises EventError; it does not wrap."""
        fields = []
        for name, a, dtype in zip("xytp", (x, y, t, p),
                                  (np.int32, np.int32, np.int64, np.int8)):
            a, info = np.asarray(a), np.iinfo(dtype)
            if a.dtype != dtype and np.any((a < info.min) | (a > info.max)):
                raise EventError(f"{name} outside the {info.dtype} range")
            fields.append(np.array(a, dtype))
        x, y, t, p = fields
        if len(t) and np.any(np.diff(t) < 0):
            order = _stable_order(t)
            x, y, t, p = x[order], y[order], t[order], p[order]
        return cls(width, height, x, y, t, p)

    @classmethod
    def empty(cls, width, height) -> "EventStream":
        return cls.from_arrays(width, height, [], [], [], [])

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.x[i]), int(self.y[i]), int(self.t[i]), int(self.p[i]))

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (self.width == other.width and self.height == other.height
                and np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y)
                and np.array_equal(self.t, other.t) and np.array_equal(self.p, other.p))


def _stable_order(t: np.ndarray) -> np.ndarray:
    """np.argsort(t, kind="stable"), by one sort of the unique keys
    (t - t.min()) * n + index, whose remainders mod n are the order. Its
    timsort of 167k ties-heavy timestamps took 6x as long (2 vCPUs,
    numpy 2.4). Where the keys would overflow int64, that argsort."""
    n, lo = len(t), t.min()
    if (int(t.max()) - int(lo) + 1) * n > _T_MAX:
        return np.argsort(t, kind="stable")
    keys = (t - lo) * n
    keys += np.arange(n)
    keys.sort()
    return keys % n


def _parse_row(line: str, line_no: int, width: int, height: int):
    parts = line.split(",")
    if len(parts) != 4:
        raise MalformedRow(line_no, f"expected 4 fields, got {len(parts)}")
    try:
        t, x, y, p = (int(s) for s in parts)
    except ValueError:
        raise MalformedRow(line_no, f"non-integer field in {line!r}") from None
    if t < 0:
        raise MalformedRow(line_no, f"negative timestamp {t}")
    if t > _T_MAX:
        raise MalformedRow(line_no, f"timestamp {t} exceeds int64")
    if not (0 <= x < width and 0 <= y < height):
        raise OutOfBounds(line_no, f"({x},{y}) on {width}x{height} sensor")
    if p not in (1, -1):
        raise BadPolarity(line_no, f"got {p}")
    return t, x, y, p


def _decode(d: np.ndarray, end: np.ndarray, length: np.ndarray, dtype):
    """Fields of `length` digits ending before `end`, as `dtype`: one
    multiply-add per digit column, most significant first, masked where
    some field is shorter: left of a short field the index falls in the
    previous row or, in the first row, wraps to the chunk's end."""
    v = np.zeros(len(end), dtype)
    full, top = int(length.min()), int(length.max())
    at = end - top
    for k in range(top, 0, -1):
        v *= 10
        v += d[at] if k <= full else d[at] * (length >= k)
        at += 1
    return v


def _canonical_chunk(chunk: str, width: int, height: int):
    """Columns (t, x, y, p) of the rows in `chunk`, decoded in bulk byte
    passes, if every row is exactly as write_event_csv writes it and on
    the sensor; else None, and the row loop finds and reports the bad row."""
    if not chunk.isascii() or len(chunk) > _CHUNK + _ROW_MAX:
        return None  # not ASCII, or a row longer than any canonical one
    b = np.frombuffer((chunk if chunk.endswith("\n") else chunk + "\n")
                      .encode("ascii"), np.uint8)
    d = b - ord("0")  # digit values; every other byte reads > 9
    seps = np.flatnonzero((d > 9) & (b != ord("-")))  # not digits or "-"
    n = len(seps) // 4
    if len(seps) != 4 * n or np.count_nonzero(b == ord(",")) != 3 * n:
        return None
    # With 3n of the 4n separators commas, a newline at every fourth one
    # leaves three commas in each row and no stray byte.
    c0, c1, c2, nl = seps.reshape(n, 4).T
    if np.any(b[nl] != ord("\n")):
        return None
    # By row, the lengths of t, x, y and p: the gaps between separators.
    # Less one and as uint64, an empty field wraps past every maximum.
    lt = c0 - 1
    lt[0] += 1  # the first row starts the chunk
    lt[1:] -= nl[:-1]
    lx, ly, lp = c1 - c0 - 1, c2 - c1 - 1, nl - c2 - 1
    for length, top in zip((lt, lx, ly, lp), _FIELD_MAX):
        if np.any((length - 1).view(np.uint64) >= top):
            return None
    # Each p ends in "1", and starts with "-" exactly where it has two
    # bytes; no other "-" is in the chunk, so no other field holds a
    # non-digit.
    neg = b[c2 + 1] == ord("-")
    if (np.any(d[nl - 1] != 1) or not np.array_equal(neg, lp == 2)
            or np.count_nonzero(b == ord("-")) != np.count_nonzero(neg)):
        return None
    x, y = _decode(d, c1, lx, np.int32), _decode(d, c2, ly, np.int32)
    if x.max() >= width or y.max() >= height:
        return None
    p = np.ones(n, np.int8)
    p[neg] = -1
    return _decode(d, c0, lt, np.int64), x, y, p


def _row_chunk(chunk: str, line_no: int, width: int, height: int):
    """Columns (t, x, y, p) of the rows in `chunk`, parsed one at a time;
    the first row is line `line_no` of the file."""
    lines = chunk.split("\n")
    if lines[-1] == "":
        lines.pop()
    rows = (_parse_row(line.strip(), i, width, height)
            for i, line in enumerate(lines, start=line_no))
    # one int64 array filled as the rows are read, with no tuple per row
    return np.fromiter(itertools.chain.from_iterable(rows), np.int64,
                       4 * len(lines)).reshape(-1, 4).T


def _chunk_columns(text: str, head: int, start: int, end: int,
                   width: int, height: int):
    """Columns (t, x, y, p) of the rows in text[start:end], a chunk of the
    body that begins at `head`: decoded in bulk if every row is canonical,
    else by the row loop, its first line numbered from the newlines
    before it."""
    chunk = text[start:end]
    part = _canonical_chunk(chunk, width, height)
    if part is None:
        line_no = 2 + text.count("\n", head, start)
        part = _row_chunk(chunk, line_no, width, height)
    return part


def parse_event_csv(text: str, width: int, height: int) -> EventStream:
    """Parse the event CSV format (header `t_us,x,y,p`).

    A row is stripped, cut at its commas into four fields, and each field
    read by Python's `int()`, so `+1`, `010`, `1_0`, non-ASCII digits and
    blanks around a field or a row (a trailing carriage return too) are
    accepted. t must fit int64 and be >= 0, (x, y) lie on the sensor and
    p be +1 or -1; any other row raises an `EventError` naming its line.

    The rows are read a bounded chunk at a time, the chunks spread over
    `lanes.run_tasks`. A chunk whose rows all read exactly as
    write_event_csv writes them (canonical rows) is decoded in bulk byte
    passes; any other chunk is read row by row, so the first bad row in
    file order is reported with its line number either way, at any lane
    count.
    Rows out of time order are stably sorted; already-sorted input keeps
    its row order, including ties. The stream does not depend on the
    lane count.
    """
    head = text.find("\n") + 1 or len(text)
    if text[:head].strip() != HEADER:
        raise MalformedRow(1, f"missing header {HEADER!r}")
    cuts = [head]
    while cuts[-1] < len(text):
        # cut after the first newline at or past the last cut + _CHUNK - 1
        cuts.append(text.find("\n", cuts[-1] + _CHUNK - 1) + 1 or len(text))
    if len(cuts) == 1:
        return EventStream.empty(width, height)
    cols = lanes.run_tasks([
        functools.partial(_chunk_columns, text, head, start, end,
                          width, height)
        for start, end in zip(cuts, cuts[1:])])
    t, x, y, p = (np.concatenate(c) for c in zip(*cols))
    del cols  # free the chunks' columns before from_arrays copies
    return EventStream.from_arrays(width, height, x, y, t, p)


def write_event_csv(stream: EventStream) -> str:
    """Serialize a stream; parse_event_csv(write_event_csv(s)) == s."""
    rows = [HEADER]
    rows.extend(f"{t},{x},{y},{p}" for t, x, y, p
                in zip(stream.t.tolist(), stream.x.tolist(),
                       stream.y.tolist(), stream.p.tolist()))
    return "\n".join(rows) + "\n"


def time_index(t: np.ndarray, v: int) -> int:
    """Index of the first timestamp >= v in sorted int64 `t`, for any
    Python int v: numpy would compare a v beyond int64 as a float, and
    2**63 + 19 rounds down to 2**63, the same float as 2**63 - 1."""
    return len(t) if v > _T_MAX else int(np.searchsorted(t, max(v, 0)))


def slice_time(stream: EventStream, t0: int, t1: int) -> EventStream:
    """Events with t0 <= t < t1 (half-open); geometry preserved."""
    if t0 > t1:
        raise InvalidRange(f"t0={t0} > t1={t1}")
    lo, hi = time_index(stream.t, t0), time_index(stream.t, t1)
    return EventStream(stream.width, stream.height,
                       stream.x[lo:hi].copy(), stream.y[lo:hi].copy(),
                       stream.t[lo:hi].copy(), stream.p[lo:hi].copy())
