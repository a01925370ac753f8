"""File formats: EVOL (discretized volumes), EVCK (checkpoints) and the
key=value text of pipeline and scene configs.

The binary formats are little-endian throughout and round-trip
bit-exactly. Their readers raise FormatError on any blob the writers
cannot produce: truncated, with bytes after the last tensor or payload,
or, for EVCK, with a tensor name given twice.
"""
from __future__ import annotations

import math
import struct
from typing import Mapping

import numpy as np

from .representation import MODES, DiscretizedVolume

EVOL_MAGIC = b"EVOL"
EVCK_MAGIC = b"EVCK"
FORMAT_VERSION = 1


class FormatError(ValueError):
    pass


def check_evol_times(t0: int, bin_dt: int) -> None:
    """Raise FormatError unless t0 and bin_dt fit EVOL's u64 fields."""
    for name, value in (("t0", t0), ("bin_dt", bin_dt)):
        if not 0 <= value < 2**64:
            raise FormatError(
                f"EVOL stores {name} as u64; {value} is out of range")


def write_evol(vol: DiscretizedVolume) -> bytes:
    """Serialize: magic, version u32, B/H/W u32, mode u8, t0/bin_dt u64,
    then B*H*W float32 values in bin-major, row-major order. Raises
    FormatError if t0 or bin_dt does not fit its u64 field."""
    check_evol_times(vol.t0, vol.bin_dt)
    head = EVOL_MAGIC + struct.pack(
        "<IIIIBQQ", FORMAT_VERSION, vol.bins, vol.height, vol.width,
        MODES.index(vol.mode), vol.t0, vol.bin_dt)
    return head + np.ascontiguousarray(vol.data, dtype="<f4").tobytes()


def _unpack(fmt: str, blob: bytes, off: int, what: str) -> tuple:
    try:
        return struct.unpack_from(fmt, blob, off)
    except struct.error:
        raise FormatError(f"truncated {what}") from None


def _floats(blob: bytes, off: int, n: int, what: str) -> np.ndarray:
    if off + 4 * n > len(blob):
        raise FormatError(f"truncated {what}")
    return np.frombuffer(blob, dtype="<f4", count=n, offset=off)


def _shaped(vals: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """A copy of vals in `shape`, which numpy may refuse even when empty:
    more than 64 axes, or extents whose product overflows."""
    try:
        return vals.reshape(shape).copy()
    except ValueError:
        raise FormatError(f"{what}: numpy cannot make shape {shape}") from None


def _check_end(blob: bytes, off: int, what: str):
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} bytes after the end of the {what} data")


def read_evol(blob: bytes) -> DiscretizedVolume:
    if blob[:4] != EVOL_MAGIC:
        raise FormatError("not an EVOL blob")
    version, bins, height, width, mode_tag, t0, bin_dt = _unpack(
        "<IIIIBQQ", blob, 4, "EVOL header")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported EVOL version {version}")
    if mode_tag >= len(MODES):
        raise FormatError(f"unknown mode tag {mode_tag}")
    off = 4 + struct.calcsize("<IIIIBQQ")
    data = _floats(blob, off, bins * height * width, "EVOL payload")
    _check_end(blob, off + data.nbytes, "EVOL")
    return DiscretizedVolume(bins, height, width, int(t0), int(bin_dt),
                             MODES[mode_tag],
                             _shaped(data, (bins, height, width), "EVOL"))


def write_evck(tensors: Mapping[str, np.ndarray]) -> bytes:
    """Serialize named float32 tensors: magic, version u32, count u32;
    per tensor: name (u32 length + UTF-8), rank u32, extents u32, values."""
    parts = [EVCK_MAGIC, struct.pack("<II", FORMAT_VERSION, len(tensors))]
    for name, arr in tensors.items():
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f4")
        parts.append(struct.pack("<I", len(raw)) + raw)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


def read_evck(blob: bytes) -> dict[str, np.ndarray]:
    if blob[:4] != EVCK_MAGIC:
        raise FormatError("not an EVCK blob")
    version, count = _unpack("<II", blob, 4, "EVCK header")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported EVCK version {version}")
    off = 12
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        what = f"EVCK tensor {i}"
        (nlen,) = _unpack("<I", blob, off, what)
        off += 4
        try:
            name = blob[off:off + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{what}: name is not UTF-8") from None
        off += nlen
        if name in out:
            raise FormatError(f"{what}: duplicate name {name!r}")
        (rank,) = _unpack("<I", blob, off, what)
        off += 4
        shape = _unpack(f"<{rank}I", blob, off, what)
        off += 4 * rank
        n = math.prod(shape)
        vals = _floats(blob, off, n, f"tensor {name!r}")
        off += 4 * n
        out[name] = _shaped(vals, shape, f"tensor {name!r}")
    _check_end(blob, off, "EVCK")
    return out


def read_key_values(text: str, error=ValueError) -> dict[str, str]:
    """A config text's `key=value` lines as {key: value}, both stripped.
    Blank and '#' lines are skipped; a line without '=' or a key given
    twice raises `error` naming its line."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        if not eq:
            raise error(f"line {lineno}: expected key=value, got {line!r}")
        if key in out:
            raise error(f"line {lineno}: key {key!r} given twice")
        out[key] = val.strip()
    return out
