import struct

import numpy as np
import pytest

from falcon import falt
from falcon.errors import ArchiveError


def test_round_trip_preserves_order_dtype_bytes():
    rng = np.random.default_rng(0)
    entries = {
        "b_second": rng.normal(size=(3, 4)).astype(np.float32),
        "a_first": rng.normal(size=(2, 2, 2)).astype(np.float64),
        "c_third": rng.normal(size=(5,)).astype(np.float32),
    }
    data = falt.dumps(entries)
    assert data[:4] == b"FALT"
    back = falt.loads(data)
    assert list(back) == list(entries)  # insertion order kept
    for name, t in entries.items():
        assert back[name].dtype == t.dtype
        assert back[name].tobytes() == t.tobytes()


def test_file_round_trip(tmp_path):
    entries = {"x": np.arange(6, dtype=np.float32).reshape(2, 3)}
    path = tmp_path / "t.falt"
    falt.save(str(path), entries)
    assert np.array_equal(falt.load(str(path))["x"], entries["x"])


def test_bad_magic_rejected():
    with pytest.raises(ArchiveError):
        falt.loads(b"JUNKxxxxxx")


def test_truncated_rejected():
    data = falt.dumps({"x": np.ones((4, 4), np.float32)})
    with pytest.raises(ArchiveError):
        falt.loads(data[:-8])


def test_trailing_bytes_rejected():
    data = falt.dumps({"x": np.ones(3, np.float32)})
    with pytest.raises(ArchiveError):
        falt.loads(data + b"\x00")


def test_unknown_version_rejected():
    data = bytearray(falt.dumps({"x": np.ones(1, np.float32)}))
    data[4] = 9
    with pytest.raises(ArchiveError):
        falt.loads(bytes(data))


def test_unsupported_dtype_rejected():
    with pytest.raises(ArchiveError):
        falt.dumps({"x": np.ones(3, dtype=np.int32)})


def test_payload_is_little_endian():
    data = falt.dumps({"x": np.array([1.0], dtype=np.float32)})
    assert data[-4:] == np.array([1.0], dtype="<f4").tobytes()


def _single_entry(ndim_dims: bytes, payload: bytes = b"") -> bytes:
    return b"FALT" + struct.pack("<HIH", 1, 1, 1) + b"x" + ndim_dims + b"\x00" + payload


def test_overflowing_dims_rejected():
    # The int64 product of these dims wraps to 0, which once matched the
    # empty payload and failed later in reshape.
    data = _single_entry(struct.pack("<B3I", 3, 2**31, 2**31, 4))
    with pytest.raises(ArchiveError):
        falt.loads(data)


def test_zero_ndim_rejected():
    with pytest.raises(ArchiveError):
        falt.loads(_single_entry(struct.pack("<B", 0), np.float32(1.0).tobytes()))


_BASE = np.arange(24, dtype=np.float64).reshape(4, 6) / 7


@pytest.mark.parametrize(
    "entries",
    [
        {"a": np.ones((3, 4), np.float32) / 3, "b": np.arange(5, dtype=np.float32)},
        {"a": _BASE},
        {"strided": _BASE[1::2, ::3], "f32": _BASE.astype(np.float32)[:, 1]},
        {"fortran": np.asfortranarray(_BASE)},
        {"zero": np.zeros((0, 4), np.float32)},
        {},
    ],
    ids=["float32", "float64", "strided", "fortran", "zero-size", "empty"],
)
def test_save_writes_dumps_bytes(tmp_path, entries):
    path = tmp_path / "t.falt"
    falt.save(str(path), entries)
    data = falt.dumps(entries)
    assert path.read_bytes() == data
    back = falt.load(str(path))
    assert list(back) == list(entries)
    for name, t in entries.items():
        assert back[name].tobytes() == np.ascontiguousarray(t).tobytes()


@pytest.mark.parametrize(
    "bad",
    [
        {"ok": np.ones(2, np.float32), "y": np.ones(3, np.int32)},
        {"ok": np.ones(2, np.float32), "x" * 70000: np.ones(2, np.float32)},
    ],
    ids=["dtype", "long-name"],
)
def test_rejected_save_keeps_existing_archive(tmp_path, bad):
    path = tmp_path / "t.falt"
    falt.save(str(path), {"x": np.arange(6, dtype=np.float32).reshape(2, 3)})
    before = path.read_bytes()
    with pytest.raises((ArchiveError, struct.error)):
        falt.save(str(path), bad)
    assert path.read_bytes() == before
