import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from falcon import image_crop as ic
from falcon.errors import ImageError, ShapeError


class TestPpm:
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

    def test_grayscale_supported(self):
        img = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = ic.resize_bilinear(img, 6, 8)
        assert out.shape == (6, 8)


class TestPlanCrop:
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
        assert np.array_equal(ts.tiles[0], ts.global_thumb)

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
    if img.ndim == 3:
        fy = fy[:, None, None]
        fx = fx[None, :, None]
    else:
        fy = fy[:, None]
        fx = fx[None, :]
    v00 = img[y0[:, None], x0[None, :]]
    v01 = img[y0[:, None], x1[None, :]]
    v10 = img[y1[:, None], x0[None, :]]
    v11 = img[y1[:, None], x1[None, :]]
    top = v00 * (1.0 - fx) + v01 * fx
    bottom = v10 * (1.0 - fx) + v11 * fx
    return top * (1.0 - fy) + bottom * fy


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
    @pytest.mark.parametrize("channels", [(3,), ()], ids=["rgb", "2d"])
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
        assert np.array_equal(ts.global_thumb, _four_tap_resize(img, t, t))

    def test_uint8_input(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(90, 150, 3), dtype=np.uint8)
        plan = ic.plan_crop(90, 150, 32, 16)
        ts = ic.crop_tiles(img, plan)
        ref = _four_tap_resize(img, plan.resize_h, plan.resize_w)
        assert np.array_equal(np.concatenate(ts.tiles[: plan.cols], axis=1), ref[:32])

    @pytest.mark.parametrize(
        "shape, out",
        [((1, 1), (5, 3)), ((7, 300), (2, 19)), ((300, 7), (19, 2)), ((40, 60), (41, 59))],
    )
    def test_resize_2d_and_3d(self, shape, out):
        rng = np.random.default_rng(shape[0] + 31 * shape[1])
        for img in (rng.random(shape, dtype=np.float32), rng.random(shape + (3,), dtype=np.float32)):
            assert np.array_equal(ic.resize_bilinear(img, *out), _four_tap_resize(img, *out))


class TestPatchify:
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

    def test_non_divisible_side_rejected(self):
        with pytest.raises(ShapeError):
            ic.patchify(np.zeros((33, 33, 3), dtype=np.float32), 16)

    @given(st.integers(1, 4), st.sampled_from([1, 2, 4, 8]))
    def test_round_trip_bitwise(self, grid, p):
        side = grid * p
        rng = np.random.default_rng(grid * 31 + p)
        tile = rng.random((side, side, 3), dtype=np.float32)
        tokens = ic.patchify(tile, p)
        back = ic.unpatchify(tokens, side, p)
        assert back.tobytes() == tile.tobytes()


class TestHeatmapRescale:
    def test_flat_map_becomes_zero(self):
        out = ic.heatmap_to_u8(np.full((3, 3), 0.25))
        assert np.array_equal(out, np.zeros((3, 3), dtype=np.uint8))

    def test_linear_rescale(self):
        out = ic.heatmap_to_u8(np.array([[0.0, 0.5, 1.0]]))
        assert out.tolist() == [[0, 128, 255]]
