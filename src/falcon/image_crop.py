"""Image loading, shape-adaptive crop planning, tiling, and patch extraction.

Images move through the pipeline as numpy arrays: uint8 (H, W, 3) straight
from the loader, float32 in [0, 1] everywhere else. ``crop_tiles`` and
``resize_bilinear`` accept the loader's uint8 array as it is: they gather
the pixels each output needs and read those as ``to_float`` values, so no
float copy of the whole image is made. Both blend bands of output rows
sized, with the source rows they gather, by ``numerics._BLOCK_BYTES``, so
beyond its output a resize holds one band at a time, whatever the grid's
shape. ``normalize_pixels`` applies the fixed per-channel affine (mean
0.5, std 0.5) expected by the encoder just before patchification.
``crop_tiles`` returns one raster, thumbnail last.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConfigError, ImageError, ShapeError

_WHITESPACE = b" \t\r\n\x0b\x0c"

# Largest image ``load_ppm`` accepts. The uint8 image lives until the crop
# returns, 3 bytes per pixel (192 MiB at this cap); the crop adds its raster
# and the source rows of one band (``numerics._BLOCK_BYTES``) of output rows.
MAX_PIXELS = 1 << 26

# ``load_ppm`` reads a file's header, comments included, in one read of this
# many bytes and refuses a header that does not end within them, so a header
# costs at most this much whatever the file holds.
_HEADER_READ = 4096


@dataclass(frozen=True)
class CropPlan:
    """Grid geometry for splitting a resized image into square tiles."""

    rows: int
    cols: int
    tile: int
    resize_h: int
    resize_w: int
    n_tiles: int


@dataclass
class TileSet:
    """One (n_tiles + 1, T, T, 3) raster: the row-major tiles, then the
    whole image resized to a single tile, the thumbnail."""

    raster: np.ndarray

    @property
    def tiles(self) -> np.ndarray:
        """The tiles without the thumbnail, a view of the raster."""
        return self.raster[:-1]


# ---------------------------------------------------------------------------
# PPM / PGM I/O
# ---------------------------------------------------------------------------


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """The header token at or after ``pos`` and the whitespace position ending it.

    Every header token is followed by whitespace, so a token that reaches the
    end of ``data`` is incomplete.
    """
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    if pos == n:
        raise ImageError(f"unexpected end of header: it must end within {_HEADER_READ} bytes")
    return data[start:pos], pos


def _ppm_header(data: bytes) -> tuple[int, int, int]:
    """(width, height, payload offset) of the P6 header at the start of ``data``."""
    magic, pos = _next_token(data, 0)
    if magic != b"P6":
        raise ImageError(f"expected P6 magic, got {magic!r}")
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError as exc:
            raise ImageError(f"non-numeric header field {token!r}") from exc
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageError(f"invalid dimensions {width}x{height}")
    if width * height > MAX_PIXELS:
        raise ImageError(f"{width}x{height} image exceeds the {MAX_PIXELS}-pixel cap")
    if maxval != 255:
        raise ImageError(f"only maxval 255 is supported, got {maxval}")
    # Exactly one whitespace byte separates the header from the payload.
    return width, height, pos + 1


def load_ppm(data) -> np.ndarray:
    """Parse a binary PPM (P6, maxval 255) into a uint8 (H, W, 3) array.

    ``data`` is the file's bytes or a binary file object. The header,
    comments included, must end within its first ``_HEADER_READ`` bytes. It
    is read and checked first, then exactly its payload, so a header naming
    more than ``MAX_PIXELS`` is refused before any payload byte is read.
    """
    f = io.BytesIO(data) if isinstance(data, (bytes, bytearray, memoryview)) else data
    head = f.read(_HEADER_READ)
    width, height, start = _ppm_header(head)
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


def write_ppm(img: np.ndarray) -> bytes:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ShapeError(f"write_ppm expects uint8 (H, W, 3), got {img.dtype} {img.shape}")
    h, w = img.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes(order="C")


def write_pgm(img: np.ndarray) -> bytes:
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ShapeError(f"write_pgm expects uint8 (H, W), got {img.dtype} {img.shape}")
    h, w = img.shape
    return b"P5\n%d %d\n255\n" % (w, h) + img.tobytes(order="C")


def to_float(img: np.ndarray) -> np.ndarray:
    """uint8 pixels -> float32 in [0, 1]."""
    return np.asarray(img, dtype=np.float32) / np.float32(255.0)


def normalize_pixels(img: np.ndarray) -> np.ndarray:
    """Fixed preprocessing affine: (x - 0.5) / 0.5 per channel.

    Runs in the array's own float dtype so verification-mode (float64)
    inputs keep full precision; integer inputs are treated as float32.
    """
    img = np.asarray(img)
    if img.dtype not in (np.float32, np.float64):
        img = img.astype(np.float32)
    half = img.dtype.type(0.5)
    out = img - half
    out /= half
    return out


# ---------------------------------------------------------------------------
# Resizing and cropping
# ---------------------------------------------------------------------------


def _source_coords(n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis of ``resize_bilinear``: per output index, the source taps
    i0 = floor(src) and i1 = min(i0 + 1, in - 1) and the float32 weight
    w = src - i0 of i1."""
    src = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, (src - i0).astype(np.float32)


def _pixels(img) -> np.ndarray:
    """``img`` as the blend reads it: uint8 as it is, any other dtype cast to float32."""
    img = np.asarray(img)
    return img if img.dtype == np.uint8 else img.astype(np.float32, copy=False)


def _bands(img: np.ndarray, ys, xs):
    """Bilinear blend of ``img`` at the (i0, i1, w) taps ``ys``, ``xs``, as
    (first output row, rows) pairs, one per band of consecutive output rows.

    ``img`` is float32, or uint8 read as ``to_float`` pixels: only the
    gathered taps are converted. A band holds as many output rows as keep
    them and the source rows they gather, min(2, in/out) per output row,
    within ``numerics._BLOCK_BYTES``, and at least one. Separable: each source
    row a band needs is interpolated across once, at the output columns
    only, then pairs of those rows are blended down. The float32 expressions
    are those of the four-tap form, so the bytes are too, whatever the band.
    """
    x0, x1, fx = xs
    # Each column weight repeated over a pixel's channels, contiguous: against
    # a (W_out, 1) column numpy runs the products in inner loops of C elements.
    fx = fx.reshape((-1,) + (1,) * (img.ndim - 2))
    fx = np.broadcast_to(fx, fx.shape[:1] + img.shape[2:]).copy()
    gx = 1.0 - fx
    n_out, (n_in, in_w), pixel = len(ys[0]), img.shape[:2], math.prod(img.shape[2:])
    out_row, src_row = 4 * len(x0) * pixel, img.itemsize * in_w * pixel
    step = max(1, int(numerics._BLOCK_BYTES // (out_row + min(2.0, n_in / n_out) * src_row)))
    for start in range(0, n_out, step):
        y0, y1, fy = (a[start : start + step] for a in ys)
        fy = fy.reshape((-1,) + (1,) * (img.ndim - 1))
        # The taps ascend, so the band's source rows lie in [y0[0], y1[-1]]:
        # the rows in use there and each one's slot among them. A mask, not
        # np.unique: a sort would page numpy's sort kernels into the RSS.
        lo = y0[0]
        y0, y1 = y0 - lo, y1 - lo
        used = np.zeros(y1[-1] + 1, dtype=bool)
        used[y0] = used[y1] = True
        slot = np.cumsum(used) - 1
        src = img[lo : lo + len(used)].take(np.flatnonzero(used), 0)
        left, right = src.take(x0, 1), src.take(x1, 1)
        if img.dtype == np.uint8:
            left, right = to_float(left), to_float(right)
        # left * (1 - fx) + right * fx, then top * (1 - fy) + bottom * fy, each
        # product and sum written over a fresh array: fewer pages to fault in.
        left *= gx
        right *= fx
        left += right
        top, bottom = left[slot[y0]], left[slot[y1]]
        top *= 1.0 - fy
        bottom *= fy
        top += bottom
        yield start, top


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel-center source coordinates.

    src = (dst + 0.5) * (in / out) - 0.5, clamped to [0, in - 1]; the blend
    itself runs in float32, band by band (``_bands``). A uint8 ``img`` is
    read as ``to_float`` pixels.
    """
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output dimensions must be >= 1, got {out_h}x{out_w}")
    img = _pixels(img)
    in_h, in_w = img.shape[:2]
    out = np.empty((out_h, out_w, *img.shape[2:]), np.float32)
    for y, rows in _bands(img, _source_coords(out_h, in_h), _source_coords(out_w, in_w)):
        out[y : y + len(rows)] = rows
    return out


def plan_crop(h: int, w: int, tile: int, max_tiles: int) -> CropPlan:
    """Pick the (rows, cols) grid whose shape best matches the image.

    Among all grids with 1 <= rows*cols <= max_tiles, minimize
    |rows - h/tile| + |cols - w/tile|; break ties by smaller rows*cols,
    then smaller rows.
    """
    if h < 1 or w < 1:
        raise ConfigError(f"image dimensions must be >= 1, got {h}x{w}")
    if tile < 1 or max_tiles < 1:
        raise ConfigError(f"tile and max_tiles must be >= 1, got {tile}, {max_tiles}")
    ideal_r = h / tile
    ideal_c = w / tile
    best_key = None
    best = (1, 1)
    # A grid whose rows or cols alone overshoot the ideal by more than the
    # best distance so far cannot win, nor can any larger one, so the scan
    # stops there: its cost follows the image, not max_tiles.
    for rows in range(1, max_tiles + 1):
        if best_key is not None and rows - ideal_r > best_key[0]:
            break
        for cols in range(1, max_tiles // rows + 1):
            if best_key is not None and cols - ideal_c > best_key[0]:
                break
            key = (abs(rows - ideal_r) + abs(cols - ideal_c), rows * cols, rows)
            if best_key is None or key < best_key:
                best_key = key
                best = (rows, cols)
    rows, cols = best
    return CropPlan(
        rows=rows,
        cols=cols,
        tile=tile,
        resize_h=rows * tile,
        resize_w=cols * tile,
        n_tiles=rows * cols,
    )


def crop_tiles(img: np.ndarray, plan: CropPlan) -> TileSet:
    """Resize the image to the grid and split it into row-major tiles.

    The resized grid is blended band by band (``_bands``), every band from
    its slice of the full-grid source coordinates, so the tiles are exactly
    those of one whole-grid resize, without seams. A band may start or end
    inside a row of tiles; its rows go straight into the tiles of the
    raster, so the crop holds the raster, one band and that band's source
    rows. The global thumbnail (made for every input, 1x1 plans included)
    comes last. A uint8 ``img``, as ``load_ppm`` returns it, is read as
    ``to_float`` pixels; the raster is float32 either way.
    """
    img = _pixels(img)
    in_h, in_w = img.shape[:2]
    t, cols, channels = plan.tile, plan.cols, img.shape[2:]
    raster = np.empty((plan.n_tiles + 1, t, t, *channels), np.float32)
    # Pixel (y, x) of the resized grid is grid[y // t, y % t, x // t, x % t].
    grid = raster[:-1].reshape(plan.rows, cols, t, t, *channels).swapaxes(1, 2)
    ys = _source_coords(plan.resize_h, in_h)
    xs = _source_coords(plan.resize_w, in_w)
    for y, band in _bands(img, ys, xs):
        band = band.reshape(len(band), cols, t, *channels)
        while len(band):
            r, top = divmod(y, t)
            n = min(len(band), t - top)
            grid[r, top : top + n] = band[:n]
            y, band = y + n, band[n:]
    raster[-1] = resize_bilinear(img, t, t)
    return TileSet(raster)


# ---------------------------------------------------------------------------
# Patch extraction
# ---------------------------------------------------------------------------


def patchify(tiles: np.ndarray, p: int) -> np.ndarray:
    """Split square (..., T, T, 3) tiles into (..., (T/p)^2, 3p^2) patch rows.

    Row k of a tile is the row-major, channel-last flattening of its patch
    k, with patches themselves ordered row-major.
    """
    tiles = np.asarray(tiles)
    if tiles.ndim < 3 or tiles.shape[-3] != tiles.shape[-2] or tiles.shape[-1] != 3:
        raise ShapeError(f"patchify expects square (..., T, T, 3) tiles, got {tiles.shape}")
    *lead, side, _, _ = tiles.shape
    if side % p != 0:
        raise ShapeError(f"tile side {side} not divisible by patch size {p}")
    g = side // p
    return np.ascontiguousarray(
        tiles.reshape(*lead, g, p, g, p, 3).swapaxes(-4, -3).reshape(*lead, g * g, p * p * 3)
    )


def heatmap_to_u8(heatmap: np.ndarray) -> np.ndarray:
    """Linearly rescale [min, max] -> [0, 255]; a flat map becomes all zeros."""
    heatmap = np.asarray(heatmap, dtype=np.float64)
    lo = float(heatmap.min())
    hi = float(heatmap.max())
    if hi == lo:
        return np.zeros(heatmap.shape, dtype=np.uint8)
    scaled = (heatmap - lo) / (hi - lo) * 255.0
    return np.rint(scaled).astype(np.uint8)
