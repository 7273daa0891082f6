"""FALT tensor archive: a minimal hand-parseable container for named arrays.

Layout (all integers little-endian):

    magic  b"FALT"
    u16    version (1)
    u32    entry count
    entry: u16 name length, UTF-8 name, u8 ndim, ndim x u32 dims,
           u8 dtype (0 = float32, 1 = float64), payload row-major

dtype code 1 is a local extension for verification-mode (float64) tensors.
Entries keep insertion order, which callers use as the canonical order.
"""

from __future__ import annotations

import math
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


def loads(data: bytes) -> dict[str, np.ndarray]:
    """Parse an archive back into an ordered name -> array mapping."""
    view = memoryview(data)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise ArchiveError("truncated archive")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise ArchiveError("bad magic; not a FALT archive")
    version, count = struct.unpack("<HI", take(6))
    if version != VERSION:
        raise ArchiveError(f"unsupported archive version {version}")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveError("entry name is not valid UTF-8") from exc
        (ndim,) = struct.unpack("<B", take(1))
        if ndim == 0:
            raise ArchiveError(f"entry {name!r} has ndim 0")
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        (code,) = struct.unpack("<B", take(1))
        if code not in _CODE_DTYPES:
            raise ArchiveError(f"unknown dtype code {code} for entry {name!r}")
        dtype = _CODE_DTYPES[code]
        # Python ints, so a huge product is refused by take() instead of wrapping.
        payload = take(math.prod(dims) * dtype.itemsize)
        array = np.frombuffer(payload, dtype=dtype).reshape(dims)
        entries[name] = array.astype(dtype.newbyteorder("="))
    if pos != len(view):
        raise ArchiveError("trailing bytes after last entry")
    return entries


def save(path: str, entries: dict[str, np.ndarray]) -> None:
    """Write the archive entry by entry; a rejected entry leaves ``path`` untouched."""
    chunks = _chunks(entries)
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)


def load(path: str) -> dict[str, np.ndarray]:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ArchiveError(f"cannot read archive {path!r}: {exc}") from exc
    return loads(data)
