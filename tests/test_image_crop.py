import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from falcon import image_crop as ic
from falcon import numerics
from falcon.errors import ConfigError, ImageError, ShapeError


class TestPpm:
    @pytest.mark.parametrize(
        "write, shape", [(ic.write_ppm, (2, 3, 3)), (ic.write_pgm, (2, 3))], ids=["ppm", "pgm"]
    )
    def test_writer_refuses_non_uint8(self, write, shape):
        with pytest.raises(ShapeError):
            write(np.zeros(shape, np.float32))

    def test_minimal_file(self):
        img = ic.load_ppm(b"P6\n1 1\n255\n\xff\x00\x00")
        assert img.shape == (1, 1, 3)
        assert img.tolist() == [[[255, 0, 0]]]

    def test_header_comment_ignored(self):
        plain = ic.load_ppm(b"P6\n2 1\n255\nabcdef")
        commented = ic.load_ppm(b"P6\n# a comment\n2 1\n# another\n255\nabcdef")
        assert np.array_equal(plain, commented)

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        data = ic.write_ppm(img)
        again = ic.load_ppm(data)
        assert np.array_equal(img, again)
        assert ic.write_ppm(again) == data

    def test_bad_magic(self):
        with pytest.raises(ImageError):
            ic.load_ppm(b"P5\n1 1\n255\nx")

    def test_truncated_payload(self):
        with pytest.raises(ImageError):
            ic.load_ppm(b"P6\n2 2\n255\n\x00\x01")

    def test_wrong_maxval(self):
        with pytest.raises(ImageError):
            ic.load_ppm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")

    def test_pixel_cap_checked_from_header(self):
        # Header-only files: over the cap is refused from the header alone;
        # at the cap the header passes and the missing payload is reported.
        assert ic.MAX_PIXELS == 2**26
        with pytest.raises(ImageError, match="pixel cap"):
            ic.load_ppm(b"P6\n8193 8192\n255\n")
        with pytest.raises(ImageError, match="pixel cap"):
            ic.load_ppm(b"P6\n1 %d\n255\n" % (2**26 + 1))
        with pytest.raises(ImageError, match="truncated"):
            ic.load_ppm(b"P6\n8192 8192\n255\n")

    def test_file_object_reads_header_then_payload(self):
        img = np.arange(60, dtype=np.uint8).reshape(4, 5, 3)
        # A long comment ends the header 10 bytes before the end of the header
        # read: those 10 payload bytes come from it, the other 50 from the file.
        header = _header_of_length(ic._HEADER_READ - 10, b"5 4")
        data = header + img.tobytes() + b"tail"
        f = io.BytesIO(data)
        assert np.array_equal(ic.load_ppm(f), img)
        assert f.tell() == len(header) + img.nbytes
        assert np.array_equal(ic.load_ppm(data), img)

    def test_header_read_is_bounded(self):
        # A header that ends at the last byte of the one header read parses;
        # one byte longer is refused after that read, whatever follows.
        img = np.arange(6, dtype=np.uint8).reshape(1, 2, 3)
        at_limit = _header_of_length(ic._HEADER_READ, b"2 1") + img.tobytes()
        for data in (at_limit, io.BytesIO(at_limit)):
            assert np.array_equal(ic.load_ppm(data), img)
        over = _header_of_length(ic._HEADER_READ + 1, b"2 1") + img.tobytes() + bytes(1 << 20)
        f = io.BytesIO(over)
        with pytest.raises(ImageError, match="end of header.*4096"):
            ic.load_ppm(f)
        assert f.tell() <= ic._HEADER_READ
        with pytest.raises(ImageError, match="end of header"):
            ic.load_ppm(over)

    def test_over_cap_header_reads_no_payload(self):
        f = io.BytesIO(b"P6\n8193 8192\n255\n" + bytes(1 << 20))
        with pytest.raises(ImageError, match="pixel cap"):
            ic.load_ppm(f)
        assert f.tell() <= ic._HEADER_READ

    def test_header_without_end_rejected(self):
        for data in (b"", b"P6", b"P6\n2 2\n255", b"P6\n2 2 # 255\n"):
            with pytest.raises(ImageError, match="end of header"):
                ic.load_ppm(data)


def _header_of_length(length: int, dims: bytes) -> bytes:
    """A P6 header of exactly ``length`` bytes, padded by one comment."""
    fixed = b"P6\n#\n" + dims + b"\n255\n"
    header = fixed[:3] + b"#" + b"c" * (length - len(fixed)) + fixed[4:]
    assert len(header) == length
    return header


_PPM_BASE = ic.write_ppm(np.arange(36, dtype=np.uint8).reshape(3, 4, 3))


def _hostile_ppm():
    """P6 headers with arbitrary tokens and separators, then a short payload."""
    number = st.integers(-2, 2**40).map(lambda v: str(v).encode())
    token = number | st.sampled_from([b"", b"1_0", b"+3", b"0x10", b"9" * 5000]) | st.binary(
        max_size=4
    )
    sep = st.sampled_from([b" ", b"\n", b"\t", b"#c\n", b" #\r", b""])
    return st.builds(
        lambda s, w, h, m, end, payload: b"P6" + s + w + s + h + s + m + end + payload,
        sep, token, token, token | st.just(b"255"), sep, st.binary(max_size=64),
    )


def _mutated_ppm():
    truncated = st.integers(0, len(_PPM_BASE) - 1).map(lambda n: _PPM_BASE[:n])

    def flip(bits):
        data = bytearray(_PPM_BASE)
        for bit in bits:
            data[bit // 8] ^= 1 << (bit % 8)
        return bytes(data)

    flipped = st.lists(st.integers(0, 8 * len(_PPM_BASE) - 1), min_size=1, max_size=4).map(flip)
    return truncated | flipped | _hostile_ppm() | st.binary(max_size=80)


@given(_mutated_ppm())
def test_fuzzed_ppm_raises_only_image_error(data):
    # Each mutation either parses to a uint8 image within the cap or raises ImageError.
    try:
        img = ic.load_ppm(data)
    except ImageError:
        return
    assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3
    assert 1 <= img.shape[0] * img.shape[1] <= ic.MAX_PIXELS


# The reader before the header read was bounded: it read the header in
# doubling pieces until it ended, however long. It is the reference for
# every input whose header ends within ``_HEADER_READ`` bytes.
class _RefShortHeader(ImageError):
    pass


def _ref_next_token(data, pos):
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in b" \t\r\n\x0b\x0c":
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in b" \t\r\n\x0b\x0c":
        pos += 1
    if pos == n:
        raise _RefShortHeader("unexpected end of header")
    return data[start:pos], pos


def _ref_ppm_header(data):
    magic, pos = _ref_next_token(data, 0)
    if magic != b"P6":
        raise ImageError(f"expected P6 magic, got {magic!r}")
    fields = []
    for _ in range(3):
        token, pos = _ref_next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError as exc:
            raise ImageError(f"non-numeric header field {token!r}") from exc
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageError(f"invalid dimensions {width}x{height}")
    if width * height > ic.MAX_PIXELS:
        raise ImageError(f"{width}x{height} image exceeds the {ic.MAX_PIXELS}-pixel cap")
    if maxval != 255:
        raise ImageError(f"only maxval 255 is supported, got {maxval}")
    return width, height, pos + 1


def _ref_load_ppm(data):
    f = io.BytesIO(data) if isinstance(data, (bytes, bytearray, memoryview)) else data
    head = f.read(4096)
    while True:
        try:
            width, height, start = _ref_ppm_header(head)
            break
        except _RefShortHeader:
            more = f.read(max(len(head), 4096))
            if not more:
                raise
            head += more
    img = np.empty((height, width, 3), dtype=np.uint8)
    payload = memoryview(img).cast("B")
    got = min(len(head) - start, len(payload))
    payload[:got] = head[start : start + got]
    while got < len(payload):
        n = f.readinto(payload[got:])
        if not n:
            raise ImageError(f"truncated payload: expected {len(payload)} bytes, got {got}")
        got += n
    return img


def _long_header_ppm():
    """P6 files whose comments put the end of the header near 4096 bytes."""
    comment = (st.integers(0, 4200) | st.integers(4075, 4095)).map(lambda n: b"#" + b"c" * n + b"\n")
    space = st.sampled_from([b" ", b"\n", b"\t", b"\r"])
    # A comment right after a token would join it, so a separator starts with whitespace.
    sep = st.builds(bytes.__add__, space, st.lists(comment | space, max_size=3).map(b"".join))
    dim = st.integers(1, 6).map(b"%d".__mod__) | st.sampled_from([b"0", b"x"])
    maxval = st.just(b"255") | st.sampled_from([b"65535", b"255#"])
    payload = st.binary(min_size=108, max_size=120) | st.binary(max_size=108)
    return st.builds(
        lambda s1, w, s2, h, s3, m, end, data: b"P6" + s1 + w + s2 + h + s3 + m + end + data,
        sep, dim, sep, dim, sep, maxval, space | comment, payload,
    )


def _outcome(load, data):
    try:
        img = load(data)
        return img.shape, img.tobytes()
    except ImageError:
        return ImageError


@given(_long_header_ppm() | _mutated_ppm())
@example(b"P6\n#" + b"c" * 5000 + b"\n1 1\n255\nabc")
def test_bounded_reader_matches_reference(data):
    # Where the reference parses a header that ends within the one header
    # read, both readers return the same image (or both refuse the payload);
    # everywhere else the bounded reader raises ImageError.
    try:
        within = _ref_ppm_header(data)[2] <= ic._HEADER_READ
    except ImageError:
        within = True  # the reference refuses it, so the bounded reader must too
    for wrap in (bytes, io.BytesIO):
        got = _outcome(ic.load_ppm, wrap(data))
        if within:
            assert got == _outcome(_ref_load_ppm, wrap(data))
        else:
            assert got is ImageError


class TestResizeBilinear:
    def test_identity_scale(self):
        rng = np.random.default_rng(0)
        img = rng.random((6, 9, 3), dtype=np.float32)
        out = ic.resize_bilinear(img, 6, 9)
        assert np.abs(out - img).max() < 1e-6

    def test_constant_image(self):
        img = np.full((4, 5, 3), 0.37, dtype=np.float32)
        out = ic.resize_bilinear(img, 9, 2)
        assert np.abs(out - 0.37).max() < 1e-6

    def test_checkerboard_matches_formula_oracle(self):
        img = np.zeros((2, 2, 3), dtype=np.float32)
        img[0, 0] = img[1, 1] = 1.0
        out = ic.resize_bilinear(img, 4, 4)

        def oracle(dy, dx, c):
            sy = min(max((dy + 0.5) * (2 / 4) - 0.5, 0.0), 1.0)
            sx = min(max((dx + 0.5) * (2 / 4) - 0.5, 0.0), 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, 1), min(x0 + 1, 1)
            fy, fx = sy - y0, sx - x0
            top = img[y0, x0, c] * (1 - fx) + img[y0, x1, c] * fx
            bot = img[y1, x0, c] * (1 - fx) + img[y1, x1, c] * fx
            return top * (1 - fy) + bot * fy

        expected = np.array(
            [[[oracle(y, x, c) for c in range(3)] for x in range(4)] for y in range(4)]
        )
        assert np.abs(out - expected).max() < 1e-6

    @pytest.mark.parametrize("shape", [(3, 4), (3, 4, 1), (3, 4, 4)], ids=["2d", "1ch", "4ch"])
    def test_other_pixel_layouts_refused(self, shape):
        # The crop serves one pixel layout, RGB: any other is refused.
        img = np.zeros(shape, np.float32)
        with pytest.raises(ShapeError, match=r"^expected an \(H, W, 3\) RGB image"):
            ic.resize_bilinear(img, 6, 8)
        with pytest.raises(ShapeError, match=r"^expected an \(H, W, 3\) RGB image"):
            ic.crop_tiles(img, ic.plan_crop(3, 4, 32, 16))

    def test_zero_rows_rejected(self):
        with pytest.raises(ShapeError):
            ic.resize_bilinear(np.zeros((4, 4, 3), np.float32), 0, 4)


class TestPlanCrop:
    @pytest.mark.parametrize(
        "args", [(0, 384, 384, 16), (384, 384, 0, 16), (384, 384, 384, 0)],
        ids=["zero-height", "zero-tile", "zero-max-tiles"],
    )
    def test_zero_argument_rejected(self, args):
        with pytest.raises(ConfigError):
            ic.plan_crop(*args)

    def test_exact_fit(self):
        plan = ic.plan_crop(384, 384, 384, 16)
        assert (plan.rows, plan.cols) == (1, 1)

    def test_square_four(self):
        plan = ic.plan_crop(768, 768, 384, 16)
        assert (plan.rows, plan.cols) == (2, 2)

    def test_wide_landscape(self):
        # Ideal grid is 3.906 x 5.208; 4x5 = 20 exceeds the cap, and
        # cost(3,5) = 1.114 beats cost(4,4) = 1.302.
        plan = ic.plan_crop(1500, 2000, 384, 16)
        assert (plan.rows, plan.cols) == (3, 5)

    def test_plan_invariants(self):
        plan = ic.plan_crop(1500, 2000, 384, 16)
        assert plan.n_tiles == plan.rows * plan.cols
        assert plan.resize_h == plan.rows * plan.tile
        assert plan.resize_w == plan.cols * plan.tile

    @given(st.integers(1, 8000), st.integers(1, 8000), st.integers(1, 16))
    def test_cap_respected(self, h, w, max_tiles):
        plan = ic.plan_crop(h, w, 384, max_tiles)
        assert 1 <= plan.n_tiles <= max_tiles

    @given(st.integers(1, 3000), st.integers(1, 3000), st.integers(1, 64), st.integers(1, 40))
    def test_matches_exhaustive_search(self, h, w, tile, max_tiles):
        # The planner stops scanning early; the grid is still the best of all.
        keys = [
            (abs(r - h / tile) + abs(c - w / tile), r * c, r, c)
            for r in range(1, max_tiles + 1)
            for c in range(1, max_tiles // r + 1)
        ]
        plan = ic.plan_crop(h, w, tile, max_tiles)
        assert (plan.rows, plan.cols) == min(keys)[2:]

    def test_huge_max_tiles_costs_what_the_image_needs(self):
        # A full scan up to 2^32 - 1 tiles would not finish.
        assert ic.plan_crop(64, 96, 32, 2**32 - 1).n_tiles == 6
        plan = ic.plan_crop(64, 96, 1, 2**32 - 1)
        assert (plan.rows, plan.cols) == (64, 96)

    @given(st.integers(1, 4000), st.integers(1, 4000), st.integers(16, 512))
    def test_scale_invariance(self, h, w, tile):
        a = ic.plan_crop(h, w, tile, 16)
        b = ic.plan_crop(2 * h, 2 * w, 2 * tile, 16)
        assert (a.rows, a.cols) == (b.rows, b.cols)


class TestCropTiles:
    def test_degenerate_grid_equals_thumbnail(self):
        rng = np.random.default_rng(1)
        img = rng.random((100, 130, 3), dtype=np.float32)
        plan = ic.plan_crop(100, 130, 96, 1)
        ts = ic.crop_tiles(img, plan)
        assert len(ts.tiles) == 1
        assert np.array_equal(ts.tiles[0], ic.resize_bilinear(img, 96, 96))
        assert np.array_equal(ts.tiles[0], ts.raster[-1])

    def test_tiles_partition_resized_image(self):
        rng = np.random.default_rng(2)
        img = rng.random((65, 97, 3), dtype=np.float32)
        plan = ic.plan_crop(65, 97, 32, 16)
        ts = ic.crop_tiles(img, plan)
        resized = ic.resize_bilinear(img, plan.resize_h, plan.resize_w)
        t = plan.tile
        for k, tile in enumerate(ts.tiles):
            r, c = divmod(k, plan.cols)
            assert np.array_equal(tile, resized[r * t : (r + 1) * t, c * t : (c + 1) * t])

    def test_tileset_is_one_raster(self):
        # bench/tracer.py's _forward_key counts an encode's tiles as
        # len(tiles.tiles): that must stay the plan's tile count, without
        # the thumbnail, and the raster the TileSet's one field.
        img = np.random.default_rng(6).random((65, 97, 3), dtype=np.float32)
        plan = ic.plan_crop(65, 97, 32, 16)
        ts = ic.crop_tiles(img, plan)
        assert len(ts.tiles) == plan.n_tiles and len(ts.raster) == plan.n_tiles + 1
        assert [f.name for f in dataclasses.fields(ic.TileSet)] == ["raster"]

    def test_quadrant_colors_stay_constant(self):
        img = np.zeros((64, 64, 3), dtype=np.float32)
        img[:32, :32] = 0.1
        img[:32, 32:] = 0.4
        img[32:, :32] = 0.7
        img[32:, 32:] = 1.0
        plan = ic.plan_crop(64, 64, 32, 16)
        ts = ic.crop_tiles(img, plan)
        for tile, value in zip(ts.tiles, [0.1, 0.4, 0.7, 1.0]):
            assert np.abs(tile - value).max() < 1e-6


def _four_tap_resize(img, out_h, out_w):
    """Reference: the whole-grid bilinear resize that gathers all four taps per pixel."""
    img = np.asarray(img, dtype=np.float32)
    in_h, in_w = img.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0.0, in_h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (ys - y0).astype(np.float32)
    fx = (xs - x0).astype(np.float32)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    v00 = img[y0[:, None], x0[None, :]]
    v01 = img[y0[:, None], x1[None, :]]
    v10 = img[y1[:, None], x0[None, :]]
    v11 = img[y1[:, None], x1[None, :]]
    top = v00 * (1.0 - fx) + v01 * fx
    bottom = v10 * (1.0 - fx) + v11 * fx
    return top * (1.0 - fy) + bottom * fy


def _assert_uint8_crop_is_float_crop(img, tile):
    """``crop_tiles`` of uint8 ``img`` is, byte for byte, its crop after
    ``to_float``, and both are the four-tap resize of the ``to_float`` pixels."""
    plan = ic.plan_crop(img.shape[0], img.shape[1], tile, 16)
    got = ic.crop_tiles(img, plan)
    pixels = ic.to_float(img)
    want = ic.crop_tiles(pixels, plan)
    ref = _four_tap_resize(pixels, plan.resize_h, plan.resize_w)
    t = plan.tile
    assert len(got.tiles) == len(want.tiles) == plan.n_tiles
    for k, (a, b) in enumerate(zip(got.tiles, want.tiles)):
        r, c = divmod(k, plan.cols)
        assert a.dtype == np.float32 and a.flags.c_contiguous
        assert a.tobytes() == b.tobytes() == ref[r * t : (r + 1) * t, c * t : (c + 1) * t].tobytes()
    thumb = _four_tap_resize(pixels, t, t)
    assert got.raster.dtype == np.float32
    assert got.raster[-1].tobytes() == want.raster[-1].tobytes() == thumb.tobytes()


class TestFourTapReference:
    """Band-by-band separable cropping gives the four-tap resize's exact bytes."""

    @pytest.mark.parametrize(
        "h, w, tile, max_tiles",
        [
            (1, 1, 32, 16),  # upsampling a single pixel, 1x1 plan
            (100, 130, 96, 1),  # 1-tile plan, downsampling
            (23, 41, 32, 16),  # upsampling onto a grid
            (65, 97, 32, 16),
            (200, 3000, 32, 16),  # extreme aspect ratios
            (3000, 200, 32, 16),
            (200, 3000, 384, 16),
            (3000, 200, 384, 16),
            (1450, 1620, 384, 16),  # 4x4 grid, 16 tiles
            (700, 1100, 384, 16),  # 2x3 grid, mild upsampling
            (384, 384, 384, 16),  # identity scale
        ],
    )
    @pytest.mark.parametrize("channels", [(3,)], ids=["rgb"])
    def test_tiles_and_thumbnail_match(self, h, w, tile, max_tiles, channels):
        rng = np.random.default_rng(h * 7919 + w)
        img = rng.random((h, w) + channels, dtype=np.float32)
        plan = ic.plan_crop(h, w, tile, max_tiles)
        ts = ic.crop_tiles(img, plan)
        ref = _four_tap_resize(img, plan.resize_h, plan.resize_w)
        t = plan.tile
        assert len(ts.tiles) == plan.n_tiles
        for k, got in enumerate(ts.tiles):
            r, c = divmod(k, plan.cols)
            assert got.flags.c_contiguous and got.dtype == np.float32
            assert np.array_equal(got, ref[r * t : (r + 1) * t, c * t : (c + 1) * t])
        assert np.array_equal(ts.raster[-1], _four_tap_resize(img, t, t))

    def test_uint8_input(self):
        # A uint8 image is read as to_float pixels, as load_ppm's array is.
        rng = np.random.default_rng(5)
        _assert_uint8_crop_is_float_crop(rng.integers(0, 256, size=(90, 150, 3), dtype=np.uint8), 32)

    @given(
        st.integers(1, 3000).flatmap(
            lambda h: st.tuples(st.just(h), st.integers(1, min(3000, 3_000_000 // h)))
        ),
        st.sampled_from([32, 384]),
        st.integers(0, 2**32 - 1),
    )
    @example((1, 1), 32, 0)
    @example((1, 3000), 384, 1)
    @example((3000, 1), 32, 2)
    @example((1000, 3000), 384, 3)
    def test_uint8_input_property(self, shape, tile, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
        _assert_uint8_crop_is_float_crop(img, tile)

    def test_uint8_crop_holds_no_float_image(self):
        # The crop gathers only the rows and columns its taps name, as uint8,
        # so its peak stays under one byte per input pixel. A float32 copy of
        # the image alone would take four.
        img = np.random.default_rng(0).integers(0, 256, size=(2000, 2000, 3), dtype=np.uint8)
        plan = ic.plan_crop(2000, 2000, 32, 16)
        tracemalloc.start()
        try:
            ic.crop_tiles(img, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000

    @pytest.mark.parametrize("budget", [1, 1 << 30], ids=["row-bands", "one-band"])
    @pytest.mark.parametrize("shape", [(30, 520), (520, 30), (130, 120)], ids=["1x16", "16x1", "4x4"])
    @pytest.mark.parametrize("channels", [(3,)], ids=["rgb"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_bytes_do_not_depend_on_band_size(self, monkeypatch, budget, shape, channels, dtype):
        # One output row per band, or the whole grid in one band: the raster
        # is the four-tap resize of the to_float pixels either way.
        rng = np.random.default_rng(shape[0])
        img = rng.integers(0, 256, size=shape + channels, dtype=np.uint8)
        pixels = ic.to_float(img)
        plan = ic.plan_crop(*shape, 32, 16)
        assert (plan.rows * plan.cols, plan.resize_h * plan.resize_w) == (16, 16 * 32 * 32)
        monkeypatch.setattr(numerics, "_BLOCK_BYTES", budget)
        got = ic.crop_tiles(img if dtype == np.uint8 else pixels, plan).raster
        t = plan.tile
        grid = _four_tap_resize(pixels, plan.resize_h, plan.resize_w)
        tiles = grid.reshape(plan.rows, t, plan.cols, t, *channels).swapaxes(1, 2)
        want = np.concatenate([tiles.reshape(-1, t, t, *channels), [_four_tap_resize(pixels, t, t)]])
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(400, 6100), (6100, 400)])
    def test_crop_peak_is_the_raster_and_one_band(self, shape):
        # A 1x16 or 16x1 plan of 384-pixel tiles: the crop holds its raster,
        # the thumbnail and one band of rows at a time, not a whole row of
        # tiles with its temporaries (201.2 and 46.7 MiB when it did).
        img = np.random.default_rng(1).integers(0, 256, size=shape + (3,), dtype=np.uint8)
        plan = ic.plan_crop(*shape, 384, 16)
        assert plan.n_tiles == 16
        raster_bytes = (plan.n_tiles + 1) * 384 * 384 * 3 * 4
        tracemalloc.start()
        try:
            ic.crop_tiles(img, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < raster_bytes + 4 * 2**20, peak

    @pytest.mark.parametrize(
        "shape, out",
        [((1, 1), (5, 3)), ((7, 300), (2, 19)), ((300, 7), (19, 2)), ((40, 60), (41, 59)),
         ((97, 211), (64, 512))],
    )
    def test_resize_2d_and_3d(self, shape, out):
        # The blend's column weights span a pixel's 3 channels: up or down,
        # along either axis, the resize keeps the four-tap bytes.
        rng = np.random.default_rng(shape[0] + 31 * shape[1])
        img = rng.random(shape + (3,), dtype=np.float32)
        got = ic.resize_bilinear(img, *out)
        assert got.shape == out + (3,)
        assert got.tobytes() == _four_tap_resize(img, *out).tobytes()


class TestPatchify:
    def test_non_square_tile_rejected(self):
        with pytest.raises(ShapeError):
            ic.patchify(np.zeros((32, 16, 3), np.float32), 16)

    def test_normalize_casts_uint8_to_float32(self):
        img = np.array([[[0, 128, 255]]], np.uint8)
        out = ic.normalize_pixels(img)
        assert out.dtype == np.float32
        assert out.tobytes() == ic.normalize_pixels(img.astype(np.float32)).tobytes()

    def test_paper_token_count(self):
        tile = np.zeros((384, 384, 3), dtype=np.float32)
        assert ic.patchify(tile, 16).shape == (576, 768)

    def test_single_patch(self):
        rng = np.random.default_rng(3)
        tile = rng.random((16, 16, 3), dtype=np.float32)
        tokens = ic.patchify(tile, 16)
        assert tokens.shape == (1, 768)
        assert np.array_equal(tokens[0], tile.reshape(-1))

    def test_distinct_patch_colors(self):
        tile = np.zeros((32, 32, 3), dtype=np.float32)
        values = [0.2, 0.4, 0.6, 0.8]
        tile[:16, :16] = values[0]
        tile[:16, 16:] = values[1]
        tile[16:, :16] = values[2]
        tile[16:, 16:] = values[3]
        tokens = ic.patchify(tile, 16)
        assert tokens.shape == (4, 768)
        for row, value in zip(tokens, values):
            assert np.all(row == np.float32(value))

    def test_stack_is_each_tile_patchified(self):
        # Leading axes are kept: each tile of a stack gets its own tile's rows.
        stack = np.random.default_rng(4).random((2, 3, 32, 32, 3), dtype=np.float32)
        tokens = ic.patchify(stack, 16)
        assert tokens.shape == (2, 3, 4, 768)
        for k in np.ndindex(2, 3):
            assert tokens[k].tobytes() == ic.patchify(stack[k], 16).tobytes()

    def test_non_divisible_side_rejected(self):
        with pytest.raises(ShapeError):
            ic.patchify(np.zeros((33, 33, 3), dtype=np.float32), 16)

    @given(st.integers(1, 4), st.sampled_from([1, 2, 4, 8]))
    def test_round_trip_bitwise(self, grid, p):
        side = grid * p
        rng = np.random.default_rng(grid * 31 + p)
        tile = rng.random((side, side, 3), dtype=np.float32)
        tokens = ic.patchify(tile, p)
        # patchify's inverse: token i * grid + j is the (p, p, 3) patch at grid cell (i, j).
        back = tokens.reshape(grid, grid, p, p, 3).transpose(0, 2, 1, 3, 4).reshape(side, side, 3)
        assert back.tobytes() == tile.tobytes()


class TestHeatmapRescale:
    def test_flat_map_becomes_zero(self):
        out = ic.heatmap_to_u8(np.full((3, 3), 0.25))
        assert np.array_equal(out, np.zeros((3, 3), dtype=np.uint8))

    def test_linear_rescale(self):
        out = ic.heatmap_to_u8(np.array([[0.0, 0.5, 1.0]]))
        assert out.tolist() == [[0, 128, 255]]
