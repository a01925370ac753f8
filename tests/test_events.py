import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evanom import events, lanes
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
    # as many commas and newlines as two rows hold, in the wrong places
    ("1,2\n3,1,5,6,7,1", MalformedRow),
    # a polarity's "-" moved into the next row's timestamp
    ("5,1,2,21\n-6,1,2,1", BadPolarity),
])
def test_parse_strict_errors(row, exc):
    with pytest.raises(exc) as e:
        parse_event_csv(f"t_us,x,y,p\n{row}\n", 8, 8)
    assert e.value.line_no == 2


@pytest.mark.parametrize("row, event", [
    ("1_0,1,1,1", (1, 1, 10, 1)),
    ("\u0661\u0660,1,1,1", (1, 1, 10, 1)),     # Arabic-Indic digits
    ("+10,1,1,+1", (1, 1, 10, 1)),
    (" 10 , 1 ,1, -1 ", (1, 1, 10, -1)),
    ("010,01,1,1", (1, 1, 10, 1)),
    ("10,1,1,1\r", (1, 1, 10, 1)),
], ids=["underscore", "non-ascii digits", "plus signs", "blanks",
        "leading zeros", "carriage return"])
def test_parse_accepts_what_int_accepts_after_strip(row, event):
    # The row loop's grammar: each field is read by int() after the row
    # is stripped. Narrowing it changes which files parse, so these pins
    # must change with it.
    s = parse_event_csv(f"t_us,x,y,p\n{row}\n", 4, 4)
    assert len(s) == 1 and s[0] == event


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


FIELD_OVERFLOWS = {
    "x wraps to 0, p to 1": ([2**32], [0], [5], [257]),
    "x above int32": ([2**31], [0], [5], [1]),
    "y below int32": ([0], [-2**31 - 1], [5], [1]),
    "uint64 t above int64": ([0], [0], np.array([2**63], np.uint64), [1]),
    "t beyond uint64": ([0], [0], [2**64], [1]),
    "p below int8": ([0], [0], [5], [-129]),
}


@pytest.mark.parametrize("as_array", [True, False], ids=["arrays", "lists"])
@pytest.mark.parametrize("fields", FIELD_OVERFLOWS.values(),
                         ids=FIELD_OVERFLOWS.keys())
def test_from_arrays_refuses_values_outside_field_dtypes(fields, as_array):
    """A value that its field's dtype cannot hold raises EventError: cast
    from an array it would wrap into a valid one, and from a list numpy
    would raise OverflowError."""
    if as_array:
        fields = [np.asarray(f) for f in fields]
    with pytest.raises(events.EventError, match="outside the int"):
        EventStream.from_arrays(4, 4, *fields)


def test_from_arrays_keeps_in_range_values_of_any_dtype():
    x, y, t, p = [0, 3, 3], [3, 0, 3], [0, 7, 2**63 - 1], [1, -1, -1]
    want = EventStream.from_arrays(
        4, 4, np.array(x, np.int32), np.array(y, np.int32),
        np.array(t, np.int64), np.array(p, np.int8))
    assert EventStream.from_arrays(4, 4, x, y, t, p) == want
    assert EventStream.from_arrays(
        4, 4, *(np.array(a, np.int64) for a in (x, y, t, p))) == want
    assert EventStream.from_arrays(
        4, 4, *(np.array(a, np.uint64) for a in (x, y, t)),
        np.array(p, np.int16)) == want


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


@st.composite
def _edited_texts(draw):
    """Event CSVs of up to 12 rows, with up to 4 characters set, inserted
    or deleted after the header."""
    rows = draw(st.lists(st.tuples(
        st.integers(0, 10**19), st.integers(0, 11), st.integers(0, 9),
        st.sampled_from([1, -1])), min_size=1, max_size=12))
    text = "t_us,x,y,p\n" + "\n".join(",".join(map(str, r)) for r in rows)
    text += "\n" if draw(st.booleans()) else ""
    chars = list(text)
    for pos, kind, ch in draw(st.lists(st.tuples(
            st.integers(0, 400), st.sampled_from(["set", "insert", "delete"]),
            st.sampled_from(_EDIT_CHARS)), max_size=4)):
        pos = 11 + pos % max(1, len(chars) - 11)  # keep the header intact
        if kind == "set" and pos < len(chars):
            chars[pos] = ch
        elif kind == "insert":
            chars.insert(pos, ch)
        elif kind == "delete" and pos < len(chars):
            del chars[pos]
    return "".join(chars)


@settings(max_examples=300, deadline=None)
@given(text=_edited_texts())
def test_fast_parse_agrees_with_row_loop(text):
    assert _outcome(text, 10, 8) == _row_loop(text, 10, 8)


# Rows cross the cuts; at 1 character every row is a chunk of its own.
@pytest.mark.parametrize("chunk", [1, 9, 64])
@settings(max_examples=300, deadline=None)
@given(text=_edited_texts())
def test_fast_parse_agrees_with_row_loop_across_cuts(chunk, text):
    with mock.patch.object(events, "_CHUNK", chunk):
        fast = _outcome(text, 10, 8)
    assert fast == _row_loop(text, 10, 8)


def _row_loop(text, width, height):
    with mock.patch.object(events, "_canonical_chunk", lambda *a: None):
        return _outcome(text, width, height)


def _canonical_text(rng, min_chars, width, height):
    """A write_event_csv text of more than `min_chars` characters with
    18-digit timestamps, coordinates on both sensor edges and both
    polarities."""
    n = min_chars // 20 + 4
    s = EventStream.from_arrays(
        width, height, np.r_[0, width - 1, width - 1,
                             rng.integers(0, width, n - 3)],
        np.r_[height - 1, 0, height - 1, rng.integers(0, height, n - 3)],
        np.sort(rng.integers(10**17, 10**18, n)),
        np.r_[1, -1, -1, rng.choice([1, -1], n - 3)])
    text = write_event_csv(s)
    assert len(text) > min_chars
    return s, text


@pytest.mark.parametrize("chunk", [None, 1, 64])
def test_round_trip_across_chunks(rng, chunk):
    """Rows of up to 42 characters, the longest canonical ones, over at
    least 3 chunks."""
    chunk = chunk or events._CHUNK
    side = 10**9
    s, text = _canonical_text(rng, 3 * chunk, side, side)
    with mock.patch.object(events, "_CHUNK", chunk), \
            mock.patch.object(events, "_row_chunk", _no_row_loop):
        for fast_text in (text, text.removesuffix("\n")):
            assert parse_event_csv(fast_text, side, side) == s
    assert _row_loop(text, side, side) == s
    assert max(map(len, text.split("\n"))) == 41


def _no_row_loop(*args):
    raise AssertionError("a canonical chunk reached the row loop")


# Each row goes in after about 2.5 chunks of canonical rows.
LATE_ROWS = {"plus polarity": ("5,1,2,+1", None),
             "x equal to the width": ("5,16,2,1", OutOfBounds),
             "19-digit timestamp": (f"{2**63 - 1},1,2,-1", None),
             "blank line": ("", MalformedRow)}


def _lanes(n):
    """Pin `lanes.run_tasks` to `n` lanes inside the block."""
    return mock.patch.object(lanes, "usable_cpus", lambda: n)


@pytest.mark.parametrize("chunk", [None, 4096])
@pytest.mark.parametrize("row, exc", LATE_ROWS.values(), ids=LATE_ROWS.keys())
def test_rows_past_the_first_chunk(rng, chunk, row, exc):
    """Bad or non-canonical rows beyond the first chunk get the row
    loop's outcome, its exception class and line number or its stream,
    at 1, 2 and 7 lanes."""
    chunk = chunk or events._CHUNK
    _, text = _canonical_text(rng, 5 * chunk // 2, 16, 12)
    lines = text.split("\n")
    line_no = len(lines) - 2  # the second-last row's; the header is line 1
    lines.insert(line_no - 1, row)
    text = "\n".join(lines)
    assert len("\n".join(lines[:line_no - 1])) > 2 * chunk
    want = _row_loop(text, 16, 12)
    for cpus in (1, 2, 7):
        with mock.patch.object(events, "_CHUNK", chunk), _lanes(cpus):
            assert _outcome(text, 16, 12) == want
    if exc is None:
        assert isinstance(want, EventStream)
        assert len(want) == len(lines) - 2
    else:
        assert want == (exc, line_no)


def _body_chunks(body, chunk):
    """`body` cut just after the first newline at or past each chunk
    start + chunk - 1, as parse_event_csv cuts it."""
    cuts = [0]
    while cuts[-1] < len(body):
        cuts.append(body.find("\n", cuts[-1] + chunk - 1) + 1 or len(body))
    return [body[a:b] for a, b in zip(cuts, cuts[1:])]


def _with_rows(rng, chunk, rows):
    """A canonical text of over 4 chunks with each (fraction, row) of
    `rows` inserted as its own line about fraction of the way into the
    body; (text, body, the body's chunks)."""
    _, text = _canonical_text(rng, 4 * chunk, 16, 12)
    head = len(events.HEADER) + 1
    for frac, row in sorted(rows, reverse=True):
        at = text.index("\n", head + int(frac * (len(text) - head))) + 1
        text = text[:at] + row + "\n" + text[at:]
    return text, text[head:], _body_chunks(text[head:], chunk)


def _spy_parse(text, chunk):
    """The parse's outcome, the chunks handed to the bulk decoder in call
    order, and the (chunk, line number) of each row-loop call."""
    with mock.patch.object(events, "_CHUNK", chunk), \
            mock.patch.object(events, "_canonical_chunk",
                              wraps=events._canonical_chunk) as bulk, \
            mock.patch.object(events, "_row_chunk",
                              wraps=events._row_chunk) as rows:
        outcome = _outcome(text, 16, 12)
    return (outcome, [c.args[0] for c in bulk.call_args_list],
            [c.args[:2] for c in rows.call_args_list])


@pytest.mark.parametrize("row, exc", LATE_ROWS.values(), ids=LATE_ROWS.keys())
def test_only_the_bad_chunk_takes_the_row_loop(rng, row, exc):
    """Only the chunk holding the bad or non-canonical row goes on to the
    row loop, once, numbering its lines from the newlines before it, and
    the outcome is the row loop's, at 1, 2 and 7 lanes. On one lane each
    chunk goes to the bulk decoder once, in order, and after a bad row
    no later chunk is decoded; on more lanes the other runs still decode
    their own chunks, so that holds only on one."""
    chunk = 4096
    text, body, chunks = _with_rows(rng, chunk, [(0.6, row)])
    ends = np.cumsum([len(c) for c in chunks])
    bad = int(np.searchsorted(ends, body.index("\n" + row + "\n") + 1,
                              side="right"))
    assert 2 <= bad < len(chunks) - 1
    want = _row_loop(text, 16, 12)
    for cpus in (1, 2, 7):
        with _lanes(cpus):
            outcome, seen, row_calls = _spy_parse(text, chunk)
        assert outcome == want
        assert row_calls == [
            (chunks[bad], 2 + "".join(chunks[:bad]).count("\n"))]
        if cpus == 1:
            assert seen == (chunks if exc is None else chunks[:bad + 1])
        else:
            assert sorted(seen, key=body.index) == [
                c for c in chunks if c in seen]
            assert exc is not None or sorted(seen) == sorted(chunks)


@pytest.mark.parametrize("cpus", [2, 7])
def test_the_earlier_bad_row_is_raised_from_any_lane(rng, cpus):
    """With bad rows in the runs of two lanes, the parse raises the error
    of the row earlier in the file, as the row loop does."""
    text, _, chunks = _with_rows(rng, 4096, [(0.3, "5,1,12,1"),
                                             (0.9, "5,1,2,0")])
    bad = [k for k, c in enumerate(chunks) if "\n5,1," in "\n" + c]
    assert len(bad) == 2 and bad[0] < len(chunks) // 2 <= bad[1]
    want = _row_loop(text, 16, 12)
    assert want[0] is OutOfBounds
    with _lanes(cpus):
        outcome, _, row_calls = _spy_parse(text, 4096)
    assert outcome == want
    for c, line_no in row_calls:
        k = chunks.index(c)
        assert k in bad and line_no == 2 + "".join(chunks[:k]).count("\n")


@pytest.mark.parametrize("cpus", [2, 7])
def test_a_chunk_failing_in_the_pool_raises_and_leaves_no_thread(rng, cpus):
    """The last chunk's bad row is decoded in a pool thread: its error
    is raised, and every pool thread has ended when the parse returns."""
    text, _, _ = _with_rows(rng, 4096, [(0.95, "5,1,2,2")])
    want = _row_loop(text, 16, 12)
    assert want[0] is BadPolarity
    before, ran, real = set(threading.enumerate()), set(), events._row_chunk

    def row_chunk(*args):
        ran.add(threading.current_thread())
        return real(*args)

    with _lanes(cpus), mock.patch.object(events, "_CHUNK", 4096), \
            mock.patch.object(events, "_row_chunk", row_chunk):
        assert _outcome(text, 16, 12) == want
    assert ran and threading.current_thread() not in ran
    assert not any(t.is_alive() for t in ran)
    assert set(threading.enumerate()) == before


def test_crlf_text_parses_in_bounded_memory(rng):
    """CRLF text takes the row loop a chunk at a time: its peak stays
    within twice the LF text's, where a whole-text row loop holds a
    Python tuple per row."""
    s = random_stream(rng, n=50_000, width=64, height=64, t_max=5_000_000)
    lf = write_event_csv(s)
    peaks = []
    for text in (lf, lf.replace("\n", "\r\n")):
        tracemalloc.start()
        try:
            assert parse_event_csv(text, 64, 64) == s
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(lf) > 2 * events._CHUNK
    assert peaks[1] <= 2 * peaks[0]


@pytest.mark.parametrize("body", [
    "1,2,3,1," * (1 << 19),  # no newline
    "1234567\n" * (1 << 19),  # no comma
    "7" * (1 << 22),  # neither
], ids=["no newline", "no comma", "neither"])
def test_long_bodies_without_rows_are_malformed(body):
    """The bulk decoder gives up within about a chunk's memory, and the
    row loop reports the first row."""
    tracemalloc.start()
    try:
        assert events._canonical_chunk(body, 16, 12) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * events._CHUNK
    start = time.perf_counter()
    with pytest.raises(MalformedRow) as e:
        parse_event_csv("t_us,x,y,p\n" + body, 16, 12)
    assert e.value.line_no == 2
    assert time.perf_counter() - start < 20


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("t", [[5, 6, 7], [7, 5, 6]], ids=["sorted", "not"])
def test_from_arrays_owns_its_fields(dtype, t):
    x, y = np.array([1, 2, 3], dtype), np.array([0, 1, 2], dtype)
    t, p = np.array(t, np.int64), np.array([1, -1, 1], np.int8)
    s = EventStream.from_arrays(4, 4, x, y, t, p)
    before = (s.x.copy(), s.y.copy(), s.t.copy(), s.p.copy())
    for a in (x, y, t, p):
        a[:] = 0
    assert all(np.array_equal(a, b)
               for a, b in zip((s.x, s.y, s.t, s.p), before))
    assert (s.x.dtype, s.y.dtype, s.t.dtype, s.p.dtype) == (
        np.int32, np.int32, np.int64, np.int8)


def _from_arrays_with_argsort_spy(t):
    """from_arrays on t, with x the input index; and whether np.argsort
    ran."""
    n = len(t)
    with mock.patch.object(events.np, "argsort",
                           wraps=np.argsort) as argsort:
        s = EventStream.from_arrays(n, 1, np.arange(n), np.zeros(n, int),
                                    t, np.ones(n, int))
    return s, argsort.called


@pytest.mark.parametrize("offset", [0, 2**40])
@pytest.mark.parametrize("seed", range(3))
def test_from_arrays_orders_as_stable_argsort(seed, offset):
    # 3000 timestamps over 40 values: every value is tied many times
    t = offset + np.random.default_rng(seed).integers(0, 40, 3000)
    s, used_argsort = _from_arrays_with_argsort_spy(t)
    order = np.argsort(t, kind="stable")
    assert not used_argsort
    assert np.array_equal(s.x, order) and np.array_equal(s.t, t[order])


@pytest.mark.parametrize("t", [[2**62, 0, 2**62], [2**62, 5, 0, 2**62, 0]])
def test_from_arrays_falls_back_where_keys_overflow(t):
    t = np.array(t, np.int64)
    s, used_argsort = _from_arrays_with_argsort_spy(t)
    assert used_argsort
    assert np.array_equal(s.x, np.argsort(t, kind="stable"))


def test_from_arrays_keeps_sorted_input_in_order():
    t = np.array([0, 3, 3, 3, 8, 8, 2**62], np.int64)
    s, used_argsort = _from_arrays_with_argsort_spy(t)
    assert not used_argsort
    assert np.array_equal(s.x, np.arange(len(t)))


@pytest.mark.parametrize("row, exc", LATE_ROWS.values(), ids=LATE_ROWS.keys())
def test_crlf_text_reports_the_lf_outcome(rng, row, exc):
    """A CRLF file with a bad or non-canonical row gets the LF file's
    outcome: the same stream, or the same error, line number and text."""
    _, text = _canonical_text(rng, 4096, 16, 12)
    lines = text.split("\n")
    lines.insert(len(lines) // 2, row)
    lf = "\n".join(lines)
    crlf = lf.replace("\n", "\r\n")
    assert _outcome(crlf, 16, 12) == _outcome(lf, 16, 12)
    if exc is not None:
        with pytest.raises(exc) as want:
            parse_event_csv(lf, 16, 12)
        with pytest.raises(exc) as got:
            parse_event_csv(crlf, 16, 12)
        assert str(got.value) == str(want.value)
