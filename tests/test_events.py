from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evanom import events
from evanom.events import (BadPolarity, EventStream, InvalidRange,
                           MalformedRow, OutOfBounds, parse_event_csv,
                           slice_time, write_event_csv)
from conftest import random_stream


def test_parse_single_row():
    s = parse_event_csv("t_us,x,y,p\n100,3,4,1", 8, 8)
    assert len(s) == 1
    assert s[0] == (3, 4, 100, 1)
    assert (s.width, s.height) == (8, 8)


def test_parse_header_only():
    s = parse_event_csv("t_us,x,y,p\n", 5, 7)
    assert len(s) == 0
    assert (s.width, s.height) == (5, 7)


def test_parse_sorts_unsorted_rows():
    s = parse_event_csv("t_us,x,y,p\n300,0,0,1\n100,1,1,-1\n", 4, 4)
    assert list(s.t) == [100, 300]


def test_parse_preserves_tie_order():
    s = parse_event_csv("t_us,x,y,p\n100,1,0,1\n100,2,0,1\n50,3,0,1\n", 4, 4)
    assert [(e.x, e.t) for e in s] == [(3, 50), (1, 100), (2, 100)]


@pytest.mark.parametrize("row,exc", [
    ("1,2,3", MalformedRow),
    ("a,2,3,1", MalformedRow),
    ("-5,2,3,1", MalformedRow),
    ("100,9,0,1", OutOfBounds),
    ("100,0,9,1", OutOfBounds),
    ("100,0,0,0", BadPolarity),
    ("100,0,0,2", BadPolarity),
])
def test_parse_strict_errors(row, exc):
    with pytest.raises(exc) as e:
        parse_event_csv(f"t_us,x,y,p\n{row}\n", 8, 8)
    assert e.value.line_no == 2


def test_parse_timestamp_beyond_int64():
    text = "t_us,x,y,p\n100,0,0,1\n100000000000000000000,1,1,1\n"
    with pytest.raises(MalformedRow, match="exceeds int64") as e:
        parse_event_csv(text, 8, 8)
    assert e.value.line_no == 3


def test_parse_largest_int64_timestamp():
    t = np.iinfo(np.int64).max
    assert parse_event_csv(f"t_us,x,y,p\n{t},1,1,1\n", 8, 8).t[0] == t


def test_parse_missing_header():
    with pytest.raises(MalformedRow):
        parse_event_csv("100,3,4,1\n", 8, 8)


def test_write_single_event():
    s = EventStream.from_arrays(8, 8, [3], [4], [100], [1])
    assert write_event_csv(s) == "t_us,x,y,p\n100,3,4,1\n"


def test_write_empty():
    assert write_event_csv(EventStream.empty(4, 4)) == "t_us,x,y,p\n"


def test_round_trip_random_streams(rng):
    for _ in range(100):
        s = random_stream(rng, n=int(rng.integers(0, 1000)))
        assert parse_event_csv(write_event_csv(s), s.width, s.height) == s


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 15),
                          st.integers(0, 11), st.sampled_from([1, -1])),
                max_size=50))
def test_round_trip_property(rows):
    t = sorted(r[0] for r in rows)
    s = EventStream.from_arrays(16, 12, [r[1] for r in rows],
                                [r[2] for r in rows], t,
                                [r[3] for r in rows])
    assert parse_event_csv(write_event_csv(s), 16, 12) == s


def test_slice_half_open_boundary():
    s = EventStream.from_arrays(4, 4, [0, 1, 2], [0, 0, 0],
                                [50, 100, 150], [1, 1, 1])
    out = slice_time(s, 100, 150)
    assert [e.t for e in out] == [100]


def test_slice_empty_interval():
    s = EventStream.from_arrays(4, 4, [0], [0], [50], [1])
    assert len(slice_time(s, 0, 0)) == 0


def test_slice_identity():
    s = EventStream.from_arrays(4, 4, [0, 1], [0, 0], [50, 150], [1, -1])
    assert slice_time(s, 0, 151) == s


def test_slice_bounds_beyond_int64():
    last = 2**63 - 1
    s = EventStream.from_arrays(4, 4, [0, 1], [0, 0], [5, last], [1, -1])
    assert [e.t for e in slice_time(s, last, last + 20)] == [last]
    assert [e.t for e in slice_time(s, 0, 2**63)] == [5, last]
    assert len(slice_time(s, 2**63, 2**64)) == 0
    assert slice_time(s, -2**64, 6) == slice_time(s, 0, 6)


def test_slice_invalid_range():
    with pytest.raises(InvalidRange):
        slice_time(EventStream.empty(4, 4), 10, 5)


def test_slice_union_is_partition(rng):
    s = random_stream(rng, n=300)
    for a, b, c in [(0, 40_000, 100_001), (10_000, 10_000, 90_000)]:
        left = slice_time(s, a, b)
        right = slice_time(s, b, c)
        both = slice_time(s, a, c)
        merged = sorted(list(left) + list(right), key=lambda e: e.t)
        assert merged == sorted(both, key=lambda e: e.t)


def test_stream_validates_bounds():
    with pytest.raises(Exception):
        EventStream.from_arrays(4, 4, [4], [0], [0], [1])
    with pytest.raises(Exception):
        EventStream.from_arrays(4, 4, [0], [0], [0], [2])


def test_stream_arrays_immutable():
    s = EventStream.from_arrays(4, 4, [0], [0], [0], [1])
    with pytest.raises(ValueError):
        s.t[0] = 5


def _outcome(text, width, height):
    try:
        return parse_event_csv(text, width, height)
    except events.EventError as err:
        return type(err), getattr(err, "line_no", None)


# Canonical characters, plus ones that int() or str.strip() accept but a
# canonical row never holds: signs, underscores, other whitespace and
# non-ASCII digits.
_EDIT_CHARS = "0123456789,\n-+_ \r\t\x0b\u0663\uff11\u2028a"


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 10**19), st.integers(0, 11),
                               st.integers(0, 9), st.sampled_from([1, -1])),
                     min_size=1, max_size=12),
       edits=st.lists(st.tuples(st.integers(0, 400),
                                st.sampled_from(["set", "insert", "delete"]),
                                st.sampled_from(_EDIT_CHARS)), max_size=4),
       trailing_newline=st.booleans())
def test_fast_parse_agrees_with_row_loop(rows, edits, trailing_newline):
    text = "t_us,x,y,p\n" + "\n".join(",".join(map(str, r)) for r in rows)
    text += "\n" if trailing_newline else ""
    chars = list(text)
    for pos, kind, ch in edits:
        pos = 11 + pos % max(1, len(chars) - 11)  # keep the header intact
        if kind == "set" and pos < len(chars):
            chars[pos] = ch
        elif kind == "insert":
            chars.insert(pos, ch)
        elif kind == "delete" and pos < len(chars):
            del chars[pos]
    text = "".join(chars)
    fast = _outcome(text, 10, 8)
    with mock.patch.object(events, "_parse_canonical", lambda *a: None):
        loop = _outcome(text, 10, 8)
    if isinstance(loop, EventStream):
        assert isinstance(fast, EventStream) and fast == loop
    else:
        assert fast == loop
