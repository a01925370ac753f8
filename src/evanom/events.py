"""Event data model: validated streams of (x, y, t, p) sensor events.

Timestamps are integer microseconds. Polarity is +1 or -1. Streams are
immutable structure-of-arrays containers sorted by timestamp (stable
order for ties) and are safe to share across threads for reading.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

HEADER = "t_us,x,y,p"
_T_MAX = np.iinfo(np.int64).max

# A newline not followed by a row exactly as write_event_csv emits it:
# ASCII digits only, and few enough of them that every value fits its
# dtype. Searching for the first such newline keeps no per-row state,
# where one pattern repeated over all rows would.
_NONCANONICAL = re.compile(
    r"\n(?![0-9]{1,18},[0-9]{1,9},[0-9]{1,9},-?1(?:\n|\Z))")


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
        x = np.asarray(x, dtype=np.int32)
        y = np.asarray(y, dtype=np.int32)
        t = np.asarray(t, dtype=np.int64)
        p = np.asarray(p, dtype=np.int8)
        if len(t) and np.any(np.diff(t) < 0):
            order = np.argsort(t, kind="stable")
            x, y, t, p = x[order], y[order], t[order], p[order]
        return cls(width, height, x.copy(), y.copy(), t.copy(), p.copy())

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


def _parse_canonical(body: str, width: int, height: int) -> EventStream | None:
    """All rows in one numpy call, if every row is canonical and valid;
    None otherwise, and the row loop then finds and reports the bad row."""
    body = body.removesuffix("\n")
    if _NONCANONICAL.search("\n" + body) is not None:
        return None
    t, x, y, p = np.fromstring(body.replace("\n", ","), dtype=np.int64,
                               sep=",").reshape(-1, 4).T
    if np.any(x >= width) or np.any(y >= height):
        return None
    return EventStream.from_arrays(width, height, x, y, t, p)


def _parse_rows(body: str, width: int, height: int) -> EventStream:
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    rows = [_parse_row(line.strip(), i, width, height)
            for i, line in enumerate(lines, start=2)]
    t, x, y, p = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return EventStream.from_arrays(width, height, x, y, t, p)


def parse_event_csv(text: str, width: int, height: int) -> EventStream:
    """Parse the event CSV format (header `t_us,x,y,p`); strict validation.

    Text whose rows all read as write_event_csv writes them is converted
    in one numpy pass; any other text is checked row by row, so the first
    bad row is reported with its line number either way.
    Rows out of time order are stably sorted; already-sorted input keeps
    its row order, including ties.
    """
    header, _, body = text.partition("\n")
    if header.strip() != HEADER:
        raise MalformedRow(1, f"missing header {HEADER!r}")
    stream = _parse_canonical(body, width, height)
    if stream is None:
        stream = _parse_rows(body, width, height)
    return stream


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
