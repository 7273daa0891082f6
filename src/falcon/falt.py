"""FALT tensor archive: a minimal hand-parseable container for named arrays.

Layout (all integers little-endian):

    magic  b"FALT"
    u16    version (1)
    u32    entry count
    entry: u16 name length, UTF-8 name, u8 ndim, ndim x u32 dims,
           u8 dtype (0 = float32, 1 = float64), payload row-major

dtype code 1 is a local extension for verification-mode (float64) tensors.
Entries keep insertion order, which callers use as the canonical order.
Names are unique: a name read twice is refused.
"""

from __future__ import annotations

import io
import math
import os
import struct

import numpy as np

from .errors import ArchiveError

MAGIC = b"FALT"
VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _chunks(entries: dict[str, np.ndarray]) -> list:
    """The archive as a list of header bytes and payload arrays, in file order.

    Every entry is checked and every header packed here, before any byte is
    written. Payloads are the entries' own buffers when they are already
    C-contiguous little-endian arrays; only other layouts are copied.
    """
    chunks = [MAGIC + struct.pack("<HI", VERSION, len(entries))]
    for name, array in entries.items():
        array = np.asarray(array)  # keeps 0-d entries 0-d, so they are refused below
        if array.dtype not in _DTYPE_CODES:
            raise ArchiveError(f"unsupported dtype {array.dtype} for entry {name!r}")
        if array.ndim == 0 or array.ndim > 255:
            raise ArchiveError(f"unsupported ndim {array.ndim} for entry {name!r}")
        encoded = name.encode("utf-8")
        chunks.append(
            struct.pack("<H", len(encoded))
            + encoded
            + struct.pack(f"<B{array.ndim}IB", array.ndim, *array.shape, _DTYPE_CODES[array.dtype])
        )
        chunks.append(np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<")))
    return chunks


def dumps(entries: dict[str, np.ndarray]) -> bytes:
    """Serialize named arrays; insertion order is preserved on disk."""
    return b"".join(_chunks(entries))


def _read(f, size: int) -> dict[str, np.ndarray]:
    """Parse an archive of ``size`` bytes from the binary stream ``f``.

    Each payload is read straight into its own fresh array, after its size
    has been checked against the bytes left, so hostile dims are refused
    before anything is allocated.
    """

    def take(n: int) -> bytes:
        chunk = f.read(n)
        if len(chunk) != n:
            raise ArchiveError("truncated archive")
        return chunk

    if take(4) != MAGIC:
        raise ArchiveError("bad magic; not a FALT archive")
    version, count = struct.unpack("<HI", take(6))
    if version != VERSION:
        raise ArchiveError(f"unsupported archive version {version}")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveError("entry name is not valid UTF-8") from exc
        if name in entries:
            raise ArchiveError(f"repeated entry name {name!r}")
        (ndim,) = struct.unpack("<B", take(1))
        if ndim == 0:
            raise ArchiveError(f"entry {name!r} has ndim 0")
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        (code,) = struct.unpack("<B", take(1))
        if code not in _CODE_DTYPES:
            raise ArchiveError(f"unknown dtype code {code} for entry {name!r}")
        dtype = _CODE_DTYPES[code]
        # Python ints, so a huge product is refused here instead of wrapping.
        nbytes = math.prod(dims) * dtype.itemsize
        if nbytes > size - f.tell():
            raise ArchiveError("truncated archive")
        try:
            array = np.empty(dims, dtype.newbyteorder("="))
        except ValueError as exc:  # a zero-size shape whose other dims overflow
            raise ArchiveError(f"unsupported dims {dims} for entry {name!r}") from exc
        # memoryview.cast refuses zero-size arrays, which have nothing to read.
        if nbytes and f.readinto(memoryview(array).cast("B")) != nbytes:
            raise ArchiveError("truncated archive")
        if not dtype.isnative:
            array.byteswap(inplace=True)
        entries[name] = array
    if f.tell() != size:
        raise ArchiveError("trailing bytes after last entry")
    return entries


def loads(data: bytes) -> dict[str, np.ndarray]:
    """Parse an archive back into an ordered name -> array mapping."""
    return _read(io.BytesIO(data), len(data))


def save(path: str, entries: dict[str, np.ndarray]) -> None:
    """Write the archive entry by entry; a rejected entry leaves ``path`` untouched."""
    chunks = _chunks(entries)
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)


def load(path: str) -> dict[str, np.ndarray]:
    """Read an archive from disk, each payload once, into its own array."""
    try:
        with open(path, "rb") as f:
            return _read(f, os.fstat(f.fileno()).st_size)
    except OSError as exc:
        raise ArchiveError(f"cannot read archive {path!r}: {exc}") from exc
