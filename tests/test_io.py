"""Malformed EVOL and EVCK blobs fail with FormatError, never a crash."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evanom import io
from evanom.representation import DiscretizedVolume

EVOL = io.write_evol(DiscretizedVolume(
    2, 3, 4, 10, 100, "signed",
    np.arange(24, dtype=np.float32).reshape(2, 3, 4)))
EVCK = io.write_evck({"a.w": np.ones((2, 3), np.float32),
                      "a.b": np.zeros(3, np.float32),
                      "scale": np.float32(2.0)})
READERS = [(EVOL, io.read_evol), (EVCK, io.read_evck)]


@pytest.mark.parametrize("blob, read", READERS, ids=["evol", "evck"])
def test_every_truncation_is_a_format_error(blob, read):
    read(blob)
    for cut in range(len(blob)):
        with pytest.raises(io.FormatError):
            read(blob[:cut])


@pytest.mark.parametrize("blob, read", READERS, ids=["evol", "evck"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_blobs_parse_or_raise_format_error(blob, read, data):
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(0, 255)),
                               min_size=1, max_size=8))
    cut = data.draw(st.integers(0, len(blob)))
    tail = data.draw(st.binary(max_size=8))
    mutated = bytearray(blob)
    for pos, val in edits:
        mutated[pos] = val
    try:
        read(bytes(mutated[:cut]) + tail)
    except io.FormatError:
        pass


@pytest.mark.parametrize("blob, read", READERS, ids=["evol", "evck"])
def test_trailing_bytes_are_a_format_error(blob, read):
    for tail in (b"\x00", b"junk"):
        with pytest.raises(io.FormatError, match="after the end"):
            read(blob + tail)


def test_evck_duplicate_name_is_a_format_error():
    one = io.write_evck({"x": np.ones(2, np.float32)})
    tensor = one[12:]
    blob = one[:8] + (2).to_bytes(4, "little") + tensor + tensor
    with pytest.raises(io.FormatError, match="duplicate name 'x'"):
        io.read_evck(blob)


def test_key_values_skip_blank_and_comment_lines():
    assert io.read_key_values("# c\n\n a = 1 \nb=x=y\n  #d=2\nc=\n") == \
        {"a": "1", "b": "x=y", "c": ""}


@pytest.mark.parametrize("text, match", [
    ("a=1\n\nb\n", "line 3: expected key=value, got 'b'"),
    ("a=1\n# a=2\n a = 3\n", "line 3: key 'a' given twice"),
])
def test_key_values_name_the_bad_line(text, match):
    with pytest.raises(ValueError, match=match):
        io.read_key_values(text)
    with pytest.raises(RuntimeError, match=match):
        io.read_key_values(text, error=RuntimeError)


def test_empty_payload_of_a_shape_numpy_refuses_is_a_format_error():
    side = (2**32 - 1).to_bytes(4, "little")
    evol = bytearray(EVOL)
    evol[8:20] = bytes(4) + side + side   # B = 0, H = W = 2**32 - 1
    with pytest.raises(io.FormatError, match="numpy cannot make shape"):
        io.read_evol(bytes(evol[:37]))
    for shape in ((0,) * 65, (0,) + (2**31,) * 3):
        blob = (io.EVCK_MAGIC + (1).to_bytes(4, "little") * 2
                + (1).to_bytes(4, "little") + b"x"
                + len(shape).to_bytes(4, "little")
                + b"".join(n.to_bytes(4, "little") for n in shape))
        with pytest.raises(io.FormatError, match="numpy cannot make shape"):
            io.read_evck(blob)
