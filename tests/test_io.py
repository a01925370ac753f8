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
