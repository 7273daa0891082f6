"""Deterministic numeric kernels: softmax, layer norm, GeLU, and a portable
seeded PRNG.

All kernels operate on C-contiguous (row-major) numpy arrays and are
bit-deterministic for a fixed input dtype: the same inputs always produce
the same bytes. float32 is the normal working precision; float64 is used in
verification mode, where finite-difference gradient checks need the extra
headroom.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

# SplitMix64 constants (state increment and the two mixing multipliers).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK_64 = (1 << 64) - 1

# The working-set budget, sized to stay in L2 between passes: softmax_rows,
# layer_norm and gelu make each pass over a block of about this many bytes
# before the next, bulk draws run in chunks of this many bytes of uint64
# outputs, and ``encoder._groups`` batches as many states as keep each array
# a group adds within it. Every element still goes through the unblocked
# expression's operations in its order, so no byte of a result depends on it.
_BLOCK_BYTES = 1 << 18
_CHUNK = _BLOCK_BYTES // 8
# k * GOLDEN_GAMMA (mod 2**64) for k = 1.._CHUNK: one chunk's state offsets.
_CHUNK_STEPS = np.arange(1, _CHUNK + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
_CHUNK_STEPS.flags.writeable = False

GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715

# The epsilon of every layer norm of the encoder and the compressors.
LN_EPS = 1e-6


def _output(out, shape, dtype) -> np.ndarray:
    """A fresh result array, or ``out`` once it is checked to be a usable one."""
    if out is None:
        return np.empty(shape, dtype)
    if out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ShapeError(
            f"out must be a C-contiguous {dtype} array of shape {shape}, "
            f"got {out.dtype} {out.shape}"
        )
    return out


def _row_blocks(*arrays):
    """The arrays' rows, about ``_BLOCK_BYTES`` of the last array's at a time.

    One tuple of same-row views per block, or just the arrays themselves
    when one block holds them whole, so a small input pays for no views.
    """
    last = arrays[-1]
    if last.nbytes <= _BLOCK_BYTES:
        return (arrays,)
    step = max(1, _BLOCK_BYTES // (last.shape[-1] * last.itemsize))
    rows = [a.reshape(-1, a.shape[-1]) for a in arrays]
    return (tuple(a[i : i + step] for a in rows) for i in range(0, len(rows[-1]), step))


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax, computed with row-max subtraction for stability.

    Each row needs a finite maximum: a NaN, a +inf or a row of only -inf
    raises. A -inf next to finite entries gets probability 0. ``out`` may be
    ``x`` itself; on an error nothing has been written to it.
    """
    x = np.asarray(x)
    if x.dtype.kind in "biu":
        x = x.astype(np.float64)
    peak = x.max(axis=-1, keepdims=True)
    if not np.isfinite(peak).all():
        raise NumericError("softmax_rows requires a finite maximum in every row")
    out = _output(out, x.shape, x.dtype)
    for rows, top, e in _row_blocks(x, peak, out):
        np.subtract(rows, top, out=e)
        np.exp(e, out=e)
        e /= e.sum(axis=-1, keepdims=True)
    return out


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-row mean/variance normalization, with ``LN_EPS`` added to the
    variance, followed by an affine map.

    Variance uses the 1/D convention (not 1/(D-1)). Runs in the common dtype
    of ``x``, ``gamma`` and ``beta``. The rows are blocked only when ``gamma``
    and ``beta`` have no leading axes; ones that do broadcast over ``x``
    whole, at every size.
    """
    x = np.asarray(x)
    x = x.astype(np.result_type(x, gamma, beta), copy=False)
    out = np.empty(x.shape, x.dtype)
    n = x.shape[-1]
    square = None
    blocks = _row_blocks(x, out) if max(np.ndim(gamma), np.ndim(beta)) <= 1 else ((x, out),)
    for rows, c in blocks:
        # (x - mean) is built in the output block, then scaled in place.
        mu = rows.sum(axis=-1, keepdims=True)
        mu /= n
        np.subtract(rows, mu, out=c)
        if square is None:
            square = sq = np.empty_like(c)
        else:  # only the last block can be shorter
            sq = square[: len(c)]
        np.multiply(c, c, out=sq)
        var = sq.sum(axis=-1, keepdims=True)
        var /= n
        var += LN_EPS
        np.sqrt(var, out=var)
        np.divide(1.0, var, out=var)
        c *= var
        c *= gamma
        c += beta
    return out


def gelu(x, out: np.ndarray | None = None):
    """GeLU via the tanh approximation: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))).

    The tanh form with the fixed 0.044715 constant avoids any dependence on
    a platform erf implementation. Works elementwise on scalars and arrays;
    ``out`` may be ``x`` itself.
    """
    x = np.asarray(x)
    if x.dtype.kind in "biu":
        x = x.astype(np.float64)
    y = _output(out, x.shape, x.dtype)
    scratch = None
    for xb, yb in _row_blocks(x, y):
        if scratch is None:
            scratch = t = np.empty_like(yb)
        else:  # only the last block can be shorter
            t = scratch[: len(yb)]
        # In the expression's own operation order, so the bytes match it.
        np.multiply(GELU_A, xb, out=t)
        t *= xb
        t *= xb
        t += xb
        t *= GELU_C
        np.tanh(t, out=t)
        t += 1.0
        np.multiply(0.5, xb, out=yb)
        yb *= t
    return y if out is not None or y.ndim else y[()]


class SplitMix64:
    """Minimal portable PRNG; the single entropy source of the package.

    Draw k after state s mixes s + k * GOLDEN_GAMMA (mod 2**64), so
    ``_walk`` mixes a chunk of draws at once; both fills draw through it.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK_64

    def _walk(self, n: int):
        """Yield (start, z, t) per ``_CHUNK`` of the next n draws, then advance
        the state n steps: ``z`` holds draws start .. start + len(z), ``t`` is
        scratch of its size, both views of two arrays allocated once."""
        draws = np.empty(min(n, _CHUNK), dtype=np.uint64)
        scratch = np.empty_like(draws)
        for start in range(0, n, _CHUNK):
            z = draws[: n - start]
            t = scratch[: len(z)]
            # k * GOLDEN_GAMMA for step k, plus the chunk's starting state.
            state = np.uint64((self.state + start * GOLDEN_GAMMA) & _MASK_64)
            np.add(_CHUNK_STEPS[: len(z)], state, out=z)
            for shift, mix in ((30, _MIX_1), (27, _MIX_2)):
                np.right_shift(z, np.uint64(shift), out=t)
                z ^= t
                z *= np.uint64(mix)
            np.right_shift(z, np.uint64(31), out=t)
            z ^= t
            yield start, z, t
        self.state = (self.state + n * GOLDEN_GAMMA) & _MASK_64

    def fill_u64(self, n: int) -> np.ndarray:
        """Draw n outputs as a uint64 array, advancing the state n steps."""
        out = np.empty(n, dtype=np.uint64)
        for start, z, _ in self._walk(n):
            out[start : start + len(z)] = z
        return out

    def fill_uniform(self, out: np.ndarray, entries) -> None:
        """Fill the flat float array ``out`` with ``init_uniform``'s draws,
        advancing the state ``len(out)`` steps.

        ``entries`` holds (count, fan_in, fan_out) per entry, the counts
        summing to ``len(out)``; anything else, or an ``out`` that is not 1-D
        float, is refused before any draw. Consecutive entries with the same
        bound are scaled as one slice, whatever the chunk edges; each chunk
        is mapped in the walk's scratch, as float64, and cast into ``out``.
        """
        if out.ndim != 1 or out.dtype.kind != "f":
            raise ShapeError(f"out must be a 1-D float array, got {out.dtype} {out.shape}")
        ends, bounds, stop = [], [], 0
        for count, fan_in, fan_out in entries:
            if fan_in < 1 or fan_out < 1:
                raise ConfigError(f"fan_in and fan_out must be >= 1, got {fan_in}, {fan_out}")
            a = math.sqrt(6.0 / (fan_in + fan_out))
            stop += count
            if bounds and bounds[-1] == a:
                ends[-1] = stop
            else:
                ends.append(stop)
                bounds.append(a)
        n = len(out)
        if stop != n:
            raise ShapeError(f"entries hold {stop} draws, out holds {n}")
        i = 0
        for start, z, t in self._walk(n):
            z >>= np.uint64(11)
            u = t.view(np.float64)
            u[...] = z
            u *= 2.0**-53
            lo, hi = start, start + len(u)
            while lo < hi:
                while ends[i] <= lo:  # a zero-count entry takes no draw
                    i += 1
                x = u[lo - start : min(ends[i], hi) - start]
                x *= 2.0 * bounds[i]
                x -= bounds[i]
                lo += len(x)
            out[start:hi] = u


def init_uniform(
    shape: tuple[int, ...], fan_in: int, fan_out: int, rng: SplitMix64
) -> np.ndarray:
    """Uniform init in [-a, a) with a = sqrt(6 / (fan_in + fan_out)).

    Draw order is flat row-major; each u64 z maps to a float via
    (z >> 11) * 2**-53 before scaling. Returns float64 (callers cast to the
    working precision).
    """
    out = np.empty(math.prod(shape), dtype=np.float64)
    rng.fill_uniform(out, [(len(out), fan_in, fan_out)])
    return out.reshape(shape)
