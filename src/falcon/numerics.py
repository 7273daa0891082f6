"""Deterministic numeric kernels: dense linear algebra, activations, and a
portable seeded PRNG.

All kernels operate on C-contiguous (row-major) numpy arrays and are
bit-deterministic for a fixed input dtype: the same inputs always produce
the same bytes. float32 is the normal working precision; float64 is used in
verification mode, where finite-difference gradient checks need the extra
headroom.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError

# SplitMix64 constants (state increment and the two mixing multipliers).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK_64 = (1 << 64) - 1

# Bulk draws run in chunks of this many outputs, so each chunk's working
# arrays stay in L2 and no full-size temporary is built.
_CHUNK = 32768
# k * GOLDEN_GAMMA (mod 2**64) for k = 1.._CHUNK: one chunk's state offsets.
_CHUNK_STEPS = np.arange(1, _CHUNK + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
_CHUNK_STEPS.flags.writeable = False

GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed with row-max subtraction for stability."""
    x = np.asarray(x)
    if not np.isfinite(x).all():
        raise NumericError("softmax_rows requires finite entries")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Per-row mean/variance normalization followed by an affine map.

    Variance uses the 1/D convention (not 1/(D-1)).
    """
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    x = np.asarray(x)
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return (centered * inv) * gamma + beta


def gelu(x):
    """GeLU via the tanh approximation: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))).

    The tanh form with the fixed 0.044715 constant avoids any dependence on
    a platform erf implementation. Works elementwise on scalars and arrays.
    """
    x = np.asarray(x)
    # In place, in the expression's own operation order, so the bytes match it.
    t = np.asarray(GELU_A * x)
    t *= x
    t *= x
    t += x
    t *= GELU_C
    np.tanh(t, out=t)
    t += 1.0
    y = 0.5 * x
    y *= t
    return y


def splitmix64_next(state: int) -> tuple[int, int]:
    """One SplitMix64 step; returns (advanced state, 64-bit output)."""
    state = (state + GOLDEN_GAMMA) & _MASK_64
    z = state
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK_64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK_64
    return state, z ^ (z >> 31)


class SplitMix64:
    """Minimal portable PRNG; the single entropy source of the package.

    SplitMix64 states form an arithmetic sequence, so bulk draws can be
    vectorized while producing exactly the same stream as repeated
    single-step calls.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK_64

    def next_u64(self) -> int:
        self.state, z = splitmix64_next(self.state)
        return z

    def fill_u64(self, n: int) -> np.ndarray:
        """Draw n outputs as a uint64 array, advancing the state n steps."""
        out = np.empty(n, dtype=np.uint64)
        tmp = np.empty(min(n, _CHUNK), dtype=np.uint64)
        for start in range(0, n, _CHUNK):
            z = out[start : start + _CHUNK]
            t = tmp[: len(z)]
            # State after `start` steps, plus k * GOLDEN_GAMMA for step k of the chunk.
            base = (self.state + start * GOLDEN_GAMMA) & _MASK_64
            np.add(_CHUNK_STEPS[: len(z)], np.uint64(base), out=z)
            for shift, mix in ((30, _MIX_1), (27, _MIX_2)):
                np.right_shift(z, np.uint64(shift), out=t)
                z ^= t
                z *= np.uint64(mix)
            np.right_shift(z, np.uint64(31), out=t)
            z ^= t
        self.state = (self.state + n * GOLDEN_GAMMA) & _MASK_64
        return out


def init_uniform(
    shape: tuple[int, ...], fan_in: int, fan_out: int, rng: SplitMix64
) -> np.ndarray:
    """Uniform init in [-a, a) with a = sqrt(6 / (fan_in + fan_out)).

    Draw order is flat row-major; each u64 z maps to a float via
    (z >> 11) * 2**-53 before scaling. Returns float64 (callers cast to the
    working precision).
    """
    if fan_in < 1 or fan_out < 1:
        raise ConfigError(f"fan_in and fan_out must be >= 1, got {fan_in}, {fan_out}")
    n = int(np.prod(shape))
    a = math.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, _CHUNK):
        u = out[start : start + _CHUNK]
        z = rng.fill_u64(len(u))
        z >>= np.uint64(11)
        u[...] = z
        u *= 2.0**-53
        u *= 2.0 * a
        u -= a
    return out.reshape(shape)
