"""Image loading, shape-adaptive crop planning, tiling, and patch extraction.

Images move through the pipeline as numpy arrays: uint8 (H, W, 3) straight
from the loader, float32 in [0, 1] everywhere else. ``normalize_pixels``
applies the fixed per-channel affine (mean 0.5, std 0.5) expected by the
encoder just before patchification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ImageError, ShapeError

_WHITESPACE = b" \t\r\n\x0b\x0c"

# Largest image ``load_ppm`` accepts. ``cli.cmd_encode`` holds the uint8
# image and its float32 copy through the crop, 15 bytes per pixel: about
# 1 GiB at this cap.
MAX_PIXELS = 1 << 26


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
    """Row-major tiles plus the whole image resized to a single tile."""

    tiles: list[np.ndarray]
    global_thumb: np.ndarray


# ---------------------------------------------------------------------------
# PPM / PGM I/O
# ---------------------------------------------------------------------------


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
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
    if start == pos:
        raise ImageError("unexpected end of header")
    return data[start:pos], pos


def load_ppm(data: bytes) -> np.ndarray:
    """Parse a binary PPM (P6, maxval 255) into a uint8 (H, W, 3) array."""
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
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise ImageError("missing whitespace after maxval")
    pos += 1
    n = width * height * 3
    payload = data[pos : pos + n]
    if len(payload) < n:
        raise ImageError(f"truncated payload: expected {n} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()


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
    return (img - half) / half


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


def _blend(img: np.ndarray, ys, xs) -> np.ndarray:
    """Bilinear blend of float32 ``img`` at the (i0, i1, w) taps ``ys``, ``xs``.

    Separable: each source row the output needs is interpolated across once,
    at the output columns only, then pairs of those rows are blended down.
    The float32 expressions are those of the four-tap form, so the bytes are
    too.
    """
    y0, y1, fy = ys
    x0, x1, fx = xs
    fy = fy.reshape((-1,) + (1,) * (img.ndim - 1))
    fx = fx.reshape((-1,) + (1,) * (img.ndim - 2))
    # The source rows in use and each one's slot among them. A mask, not
    # np.unique: a sort would page numpy's sort kernels into the RSS.
    used = np.zeros(img.shape[0], dtype=bool)
    used[y0] = used[y1] = True
    slot = np.cumsum(used) - 1
    rows = np.flatnonzero(used)[:, None]
    across = img[rows, x0] * (1.0 - fx) + img[rows, x1] * fx
    return across[slot[y0]] * (1.0 - fy) + across[slot[y1]] * fy


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel-center source coordinates.

    src = (dst + 0.5) * (in / out) - 0.5, clamped to [0, in - 1]; the blend
    itself runs in float32.
    """
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output dimensions must be >= 1, got {out_h}x{out_w}")
    img = np.asarray(img, dtype=np.float32)
    in_h, in_w = img.shape[:2]
    return _blend(img, _source_coords(out_h, in_h), _source_coords(out_w, in_w))


def plan_crop(h: int, w: int, tile: int = 384, max_tiles: int = 16) -> CropPlan:
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

    Every band (row of tiles) is blended from its slice of the full-grid
    source coordinates, so the tiles are exactly those of one whole-grid
    resize, without seams, while only one band is held at a time. The
    global thumbnail is produced for every input, including 1x1 plans.
    """
    img = np.asarray(img, dtype=np.float32)
    in_h, in_w = img.shape[:2]
    t = plan.tile
    ys = _source_coords(plan.resize_h, in_h)
    xs = _source_coords(plan.resize_w, in_w)
    tiles = []
    for r in range(plan.rows):
        band = _blend(img, tuple(a[r * t : (r + 1) * t] for a in ys), xs)
        tiles.extend(np.ascontiguousarray(band[:, c * t : (c + 1) * t]) for c in range(plan.cols))
    return TileSet(tiles=tiles, global_thumb=resize_bilinear(img, t, t))


# ---------------------------------------------------------------------------
# Patch extraction
# ---------------------------------------------------------------------------


def patchify(tile: np.ndarray, p: int) -> np.ndarray:
    """Split a square (T, T, 3) tile into (T/p)^2 rows of flattened patches.

    Row k is the row-major, channel-last flattening of patch k, with patches
    themselves ordered row-major.
    """
    tile = np.asarray(tile)
    if tile.ndim != 3 or tile.shape[0] != tile.shape[1] or tile.shape[2] != 3:
        raise ShapeError(f"patchify expects a square (T, T, 3) tile, got {tile.shape}")
    side = tile.shape[0]
    if side % p != 0:
        raise ShapeError(f"tile side {side} not divisible by patch size {p}")
    g = side // p
    return np.ascontiguousarray(
        tile.reshape(g, p, g, p, 3).transpose(0, 2, 1, 3, 4).reshape(g * g, p * p * 3)
    )


def unpatchify(tokens: np.ndarray, side: int, p: int) -> np.ndarray:
    """Inverse of patchify; round-trips bitwise."""
    tokens = np.asarray(tokens)
    g = side // p
    if side % p != 0 or tokens.shape != (g * g, p * p * 3):
        raise ShapeError(f"cannot unpatchify {tokens.shape} into side {side}, patch {p}")
    return np.ascontiguousarray(
        tokens.reshape(g, g, p, p, 3).transpose(0, 2, 1, 3, 4).reshape(side, side, 3)
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
