import io
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def test_repeated_name_rejected():
    # Two entries named "x": refused, not folded into one key.
    one = falt.dumps({"x": np.ones(3, np.float32)})
    entry = one[len(falt.MAGIC) + 6 :]
    data = falt.MAGIC + struct.pack("<HI", falt.VERSION, 2) + entry + entry
    with pytest.raises(ArchiveError, match="repeated entry name 'x'"):
        falt.loads(data)


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


def test_zero_size_overflowing_dims_rejected():
    # The payload is empty, but numpy cannot hold the other dims' product.
    with pytest.raises(ArchiveError):
        falt.loads(_single_entry(struct.pack("<B4I", 4, 0, 2**31, 2**31, 2**31)))


def test_zero_ndim_rejected():
    with pytest.raises(ArchiveError):
        falt.loads(_single_entry(struct.pack("<B", 0), np.float32(1.0).tobytes()))


@pytest.mark.parametrize(
    "entries",
    [
        {"\u00e9" * 32768: np.zeros(1, np.float32)},
        {"x": np.empty((0, 2**32), np.float32)},
        {"ok": np.zeros(1, np.float32), "\ud800": np.zeros(1, np.float32)},
        {"ok": np.zeros(1, np.float32), 1: np.zeros(1, np.float32)},
    ],
    ids=["name-65536-bytes", "dim-2^32", "lone-surrogate-name", "int-name"],
)
def test_unencodable_entry_refused_before_writing(tmp_path, entries):
    # A name's length field is a u16 and a dim a u32: past them struct.pack
    # fails. A name must be a str with a UTF-8 encoding. The writer refuses
    # the entry before any byte is written.
    path = tmp_path / "t.falt"
    path.write_bytes(b"kept")
    with pytest.raises(ArchiveError):
        falt.dumps(entries)
    with pytest.raises(ArchiveError):
        falt.save(str(path), entries)
    assert path.read_bytes() == b"kept"


def test_largest_encodable_name_and_dim_round_trip():
    entries = {"\u00e9" * 32767 + "x": np.zeros(1, np.float32), "y": np.empty((0, 2**32 - 1))}
    back = falt.loads(falt.dumps(entries))
    assert list(back) == list(entries) and back["y"].shape == (0, 2**32 - 1)


_BASE = np.arange(24, dtype=np.float64).reshape(4, 6) / 7


@pytest.mark.parametrize(
    "entries",
    [
        {"a": np.ones((3, 4), np.float32) / 3, "b": np.arange(5, dtype=np.float32)},
        {"a": _BASE},
        {"strided": _BASE[1::2, ::3], "f32": _BASE.astype(np.float32)[:, 1]},
        {"fortran": np.asfortranarray(_BASE)},
        {"zero": np.zeros((0, 4), np.float32), "z64": np.zeros((2, 0, 3)), "x": _BASE},
        {},
    ],
    ids=["float32", "float64", "strided", "fortran", "zero-size", "empty"],
)
def test_save_writes_dumps_bytes(tmp_path, entries):
    path = tmp_path / "t.falt"
    falt.save(str(path), entries)
    data = falt.dumps(entries)
    assert path.read_bytes() == data
    _assert_loads_back(path, entries)


def _indexed(path):
    """The archive at ``path`` read through its index, entry by entry."""
    return {name: falt.read_entry(path, entry) for name, entry in falt.index(path).items()}


def _assert_loads_back(path, entries):
    """``load``, ``loads`` and the index agree with ``entries``; every array
    is fresh and owns its data."""
    for back in (falt.load(str(path)), falt.loads(path.read_bytes()), _indexed(str(path))):
        assert list(back) == list(entries)
        for name, t in entries.items():
            got = back[name]
            assert got.dtype == t.dtype and got.shape == t.shape
            assert got.tobytes() == np.ascontiguousarray(t).tobytes()
            assert got.base is None and got.flags.owndata
            assert got.flags.aligned and got.flags.writeable and got.flags.c_contiguous
            assert got.dtype.isnative


def test_paper_archive_loads_back(tmp_path):
    from falcon import encoder

    cfg = encoder.config_with_overrides(encoder.PRESETS["paper"], layers=1)
    entries = encoder.init_weights(cfg, 3)
    path = tmp_path / "paper.falt"
    falt.save(str(path), entries)
    _assert_loads_back(path, entries)


@pytest.mark.parametrize(
    "bad",
    [
        {"ok": np.ones(2, np.float32), "y": np.ones(3, np.int32)},
        {"ok": np.ones(2, np.float32), "x" * 70000: np.ones(2, np.float32)},
        {"ok": np.ones(2, np.float32), "s": np.float32(1.5)},
        {"ok": np.ones(2, np.float32), "s": np.array(2.0)},
        {"ok": np.ones(2, np.float32), "s": 1.5},
    ],
    ids=["dtype", "long-name", "numpy-scalar", "0-d-array", "python-float"],
)
def test_rejected_save_keeps_existing_archive(tmp_path, bad):
    path = tmp_path / "t.falt"
    falt.save(str(path), {"x": np.arange(6, dtype=np.float32).reshape(2, 3)})
    before = path.read_bytes()
    with pytest.raises((ArchiveError, struct.error)):
        falt.save(str(path), bad)
    assert path.read_bytes() == before
    with pytest.raises((ArchiveError, struct.error)):
        falt.dumps(bad)


def test_dims_beyond_file_refused_before_allocating(monkeypatch):
    # 2^20 x 2^20 float32 is 4 TiB; refused from the header alone.
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(ArchiveError, match="truncated"):
        falt.loads(_single_entry(struct.pack("<B2I", 2, 2**20, 2**20), b"\x00" * 16))


_FUZZ_BASE = falt.dumps(
    {
        "w": np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4),
        "e": np.zeros((0, 2), np.float64),
        "b": np.arange(3, dtype=np.float64),
    }
)


def _hostile_header():
    """One entry with arbitrary dims, dtype code and payload length."""
    return st.builds(
        lambda dims, code, payload: b"FALT"
        + struct.pack("<HIH", 1, 1, 1)
        + b"x"
        + struct.pack(f"<B{len(dims)}IB", len(dims), *dims, code)
        + payload,
        st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 8), min_size=1, max_size=4),
        st.integers(0, 3),
        st.binary(max_size=64),
    )


def _mutated():
    truncated = st.integers(0, len(_FUZZ_BASE) - 1).map(lambda n: _FUZZ_BASE[:n])

    def flip(bits):
        data = bytearray(_FUZZ_BASE)
        for bit in bits:
            data[bit // 8] ^= 1 << (bit % 8)
        return bytes(data)

    flipped = st.lists(st.integers(0, 8 * len(_FUZZ_BASE) - 1), min_size=1, max_size=4).map(flip)
    return truncated | flipped | _hostile_header() | st.binary(max_size=80)


def _outcome(parse, arg):
    try:
        return {k: (v.dtype, v.shape, v.tobytes()) for k, v in parse(arg).items()}
    except ArchiveError as exc:
        return ("ArchiveError", str(exc))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.falt"


@given(_mutated())
def test_fuzzed_archives_raise_only_archive_error(fuzz_path, data):
    # Each mutation either parses or raises ArchiveError, the same from
    # bytes, from disk, and through the index entry by entry.
    fuzz_path.write_bytes(data)
    expected = _outcome(falt.loads, data)
    assert _outcome(falt.load, str(fuzz_path)) == expected
    assert _outcome(_indexed, str(fuzz_path)) == expected


def test_index_reads_no_payload(tmp_path, monkeypatch):
    # The index seeks over the payloads: nothing is allocated, and each
    # entry's offset is where its payload starts.
    entries = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(4)}
    path = tmp_path / "t.falt"
    falt.save(str(path), entries)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated while indexing")

    with monkeypatch.context() as m:
        m.setattr(np, "empty", refuse)
        index = falt.index(str(path))
    data = path.read_bytes()
    assert list(index) == ["a", "b"]
    for name, t in entries.items():
        offset, dims, dtype = index[name]
        assert dims == t.shape and dtype == t.dtype.newbyteorder("<")
        assert data[offset : offset + t.nbytes] == t.tobytes()


@pytest.mark.parametrize("stored", [">f4", ">f8", "<f4", "<f8"])
def test_read_entry_returns_native_arrays(stored):
    # An entry stored in either byte order reads back as a native array of
    # the stored values: the byteswap that a big-endian host runs on every
    # entry, reached here through an Entry that names a big-endian dtype.
    values = np.array([[1.5, -2.25, 3.0], [0.0, 1e-3, -7.0]])
    payload = values.astype(stored).tobytes()
    entry = falt.Entry(4, values.shape, np.dtype(stored))
    got = falt._read_entry(io.BytesIO(b"head" + payload), entry)
    assert got.dtype.isnative and got.dtype == np.dtype(stored).newbyteorder("=")
    assert np.array_equal(got, values.astype(stored))
    with pytest.raises(ArchiveError, match="truncated archive"):
        falt._read_entry(io.BytesIO(b"head" + payload[:-1]), entry)
