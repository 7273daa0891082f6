import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from falcon import numerics
from falcon.errors import ConfigError, NumericError, ShapeError

finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 6)),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestSoftmaxRows:
    def test_symmetry(self):
        out = numerics.softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-12)

    def test_large_inputs_stable(self):
        out = numerics.softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_closed_form(self):
        out = numerics.softmax_rows(np.array([[0.0, math.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            numerics.softmax_rows(np.array([[np.nan, 0.0]]))

    def test_integer_input_runs_in_float64(self):
        x = np.array([[0, 1, 2], [3, 3, -1]], np.int32)
        out = numerics.softmax_rows(x)
        assert out.dtype == np.float64
        assert out.tobytes() == numerics.softmax_rows(x.astype(np.float64)).tobytes()

    @pytest.mark.parametrize(
        "row",
        [[np.inf, 0.0], [0.0, np.nan], [-np.inf, -np.inf]],
        ids=["plus-inf", "nan-after-max", "all-minus-inf"],
    )
    def test_rows_without_finite_max_rejected(self, row):
        x = np.array([[1.0, 2.0], row])
        before = x.copy()
        with pytest.raises(NumericError):
            numerics.softmax_rows(x, out=x)
        assert np.array_equal(x, before, equal_nan=True)  # nothing written

    def test_minus_inf_beside_finite_logits_gives_zero(self):
        x = np.array([[0.0, -np.inf, math.log(3.0)], [-np.inf, 5.0, -np.inf]])
        out = numerics.softmax_rows(x)
        assert out[0, 1] == 0.0 and np.allclose(out[0], [0.25, 0.0, 0.75], atol=1e-12)
        assert out[1].tolist() == [0.0, 1.0, 0.0]

    @given(finite_matrices)
    def test_rows_sum_to_one(self, x):
        out = numerics.softmax_rows(x)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)

    @given(finite_matrices, st.floats(-30, 30, allow_nan=False))
    def test_shift_invariance(self, x, c):
        assert np.allclose(
            numerics.softmax_rows(x + c), numerics.softmax_rows(x), atol=1e-6
        )


class TestLayerNorm:
    def test_constant_row_collapses_to_beta(self):
        out = numerics.layer_norm(np.array([[5.0, 5.0, 5.0]]), np.ones(3), np.zeros(3))
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_unit_variance_fixed_point(self):
        out = numerics.layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2))
        expected = np.array([[1.0, -1.0]]) / np.sqrt(1.0 + numerics.LN_EPS)
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_zero_gamma_gives_beta(self):
        beta = np.array([2.0, -1.0, 0.5])
        out = numerics.layer_norm(np.random.default_rng(0).normal(size=(4, 3)), np.zeros(3), beta)
        assert np.allclose(out, np.broadcast_to(beta, (4, 3)))

    def test_normalizes_rows(self):
        x = np.random.default_rng(1).normal(size=(6, 16)) * 3.0 + 2.0
        out = numerics.layer_norm(x, np.ones(16), np.zeros(16))
        assert np.abs(out.mean(axis=1)).max() < 1e-6
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(2, 8)),
            elements=st.floats(-20, 20, allow_nan=False),
        ),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_shift_invariance(self, x, c):
        g = np.ones(x.shape[1])
        b = np.zeros(x.shape[1])
        assert np.allclose(
            numerics.layer_norm(x + c, g, b), numerics.layer_norm(x, g, b), atol=1e-5
        )


class TestGelu:
    def test_zero(self):
        assert numerics.gelu(0.0) == 0.0

    def test_asymptote(self):
        assert abs(numerics.gelu(10.0) / 10.0 - 1.0) < 1e-6

    def test_high_precision_value(self):
        # Frozen from a 60-digit evaluation of the stated tanh formula.
        assert numerics.gelu(1.0) == pytest.approx(0.8411919906082767, abs=1e-15)

    def test_elementwise_on_arrays(self):
        x = np.array([-2.0, 0.0, 1.0])
        out = numerics.gelu(x)
        assert out.shape == (3,)
        assert out[1] == 0.0

    def test_integer_input_runs_in_float64(self):
        x = np.array([[-2, 0], [1, 3]], np.int64)
        out = numerics.gelu(x)
        assert out.dtype == np.float64
        assert out.tobytes() == numerics.gelu(x.astype(np.float64)).tobytes()

    @pytest.mark.parametrize(
        "x",
        [
            np.linspace(-9, 9, 400, dtype=np.float32).reshape(20, 20),
            np.linspace(-9, 9, 400, dtype=np.float64).reshape(20, 20),
            np.linspace(-9, 9, 400, dtype=np.float64).reshape(20, 20)[1::3, ::2],
            np.linspace(-9, 9, 400, dtype=np.float32).reshape(20, 20).T,
            np.float32(0.7),
            np.asarray(-1.3),
            -2.5,
        ],
    )
    def test_bytes_match_literal_expression(self, x):
        c, a = numerics.GELU_C, numerics.GELU_A
        xa = np.asarray(x)
        expected = 0.5 * xa * (1 + np.tanh(c * (xa + a * xa * xa * xa)))
        got = numerics.gelu(x)
        assert type(got) is type(expected)
        assert np.asarray(got).dtype == np.asarray(expected).dtype
        assert np.shape(got) == np.shape(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_does_not_modify_input(self):
        x = np.linspace(-3, 3, 13, dtype=np.float32)
        before = x.copy()
        numerics.gelu(x)
        assert x.tobytes() == before.tobytes()


# The unblocked expressions the row-blocked kernels replaced, written out.
def softmax_expression(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_expression(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + numerics.LN_EPS)
    return (centered * inv) * gamma + beta


def gelu_expression(x):
    x = np.asarray(x)
    return 0.5 * x * (1 + np.tanh(numerics.GELU_C * (x + numerics.GELU_A * x * x * x)))


def same_bytes(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and got.tobytes() == expected.tobytes()
    )


@st.composite
def kernel_inputs(draw, max_abs=None):
    """(x, block_bytes): a float32 or float64 array of 1-3 dims, and a block size
    small enough that its rows span several blocks, usually with a partial last one."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(array_shapes(min_dims=1, max_dims=3, max_side=24))
    width = 32 if dtype == np.float32 else 64
    if max_abs is None:
        elements = st.floats(width=width, allow_nan=False, allow_infinity=False)
    else:
        elements = st.floats(-max_abs, max_abs, width=width)
    x = draw(arrays(dtype, shape, elements=elements))
    itemsize = np.dtype(dtype).itemsize
    row_bytes = shape[-1] * itemsize
    block_bytes = draw(st.sampled_from([itemsize, 3 * itemsize, row_bytes, 2 * row_bytes + 1, 1 << 18]))
    return x, block_bytes


class TestBlockedKernelsMatchExpressions:
    """Every row-blocked kernel gives the bytes of the expression it replaced."""

    @given(kernel_inputs(max_abs=80.0))
    def test_softmax_rows(self, case):
        x, block_bytes = case
        with mock.patch.object(numerics, "_BLOCK_BYTES", block_bytes):
            got = numerics.softmax_rows(x)
            in_place = x.copy()
            returned = numerics.softmax_rows(in_place, out=in_place)
        expected = softmax_expression(x)
        assert same_bytes(got, expected)
        assert returned is in_place and same_bytes(in_place, expected)

    @given(kernel_inputs(max_abs=1e4), st.data())
    def test_layer_norm(self, case, data):
        x, block_bytes = case
        affine = arrays(x.dtype, x.shape[-1:], elements=st.floats(-4, 4, width=8 * x.itemsize))
        gamma, beta = data.draw(affine), data.draw(affine)
        before = x.copy()
        with mock.patch.object(numerics, "_BLOCK_BYTES", block_bytes):
            got = numerics.layer_norm(x, gamma, beta)
        assert same_bytes(got, layer_norm_expression(x, gamma, beta))
        assert same_bytes(x, before)

    @given(kernel_inputs())
    def test_gelu(self, case):
        # The full finite range, subnormals and overflowing cubes included.
        x, block_bytes = case
        with np.errstate(all="ignore"), mock.patch.object(numerics, "_BLOCK_BYTES", block_bytes):
            got = numerics.gelu(x)
            in_place = x.copy()
            returned = numerics.gelu(in_place, out=in_place)
            expected = gelu_expression(x)
        assert same_bytes(got, expected)
        assert returned is in_place and same_bytes(in_place, expected)

    @given(st.floats(allow_nan=False, width=32) | st.floats(allow_nan=False))
    def test_gelu_scalars(self, v):
        with np.errstate(all="ignore"):
            for x in (v, np.float32(v), np.float64(v), np.asarray(v), np.asarray(np.float32(v))):
                got, expected = numerics.gelu(x), gelu_expression(x)
                assert type(got) is type(expected) and same_bytes(got, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_paper_shapes_at_module_block_size(self, dtype):
        # At the real block size these shapes span 7 to 40 blocks, the last partial.
        rng = np.random.default_rng(3)
        logits = (rng.standard_normal((640, 640)) * 4).astype(dtype)
        rows = rng.standard_normal((640, 1024)).astype(dtype)
        hidden = (rng.standard_normal((333, 4096)) * 3).astype(dtype)
        gamma, beta = rows[0] + 1, rows[1]
        assert logits.nbytes > 6 * numerics._BLOCK_BYTES
        assert same_bytes(numerics.softmax_rows(logits), softmax_expression(logits))
        assert same_bytes(numerics.layer_norm(rows, gamma, beta), layer_norm_expression(rows, gamma, beta))
        assert same_bytes(numerics.gelu(hidden), gelu_expression(hidden))

    def test_layer_norm_leading_axes_at_module_block_size(self):
        # A gamma and beta with leading axes broadcast over x whole, above the
        # block size as below it.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 100, 200))
        gamma, beta = rng.standard_normal((2, 4, 1, 200))
        assert x.nbytes > numerics._BLOCK_BYTES
        assert same_bytes(numerics.layer_norm(x, gamma, beta), layer_norm_expression(x, gamma, beta))

    def test_out_must_fit(self):
        x = np.ones((4, 3), np.float32)
        for out in (np.empty((4, 3)), np.empty((3, 4), np.float32), np.empty((3, 4), np.float32).T):
            with pytest.raises(ShapeError):
                numerics.softmax_rows(x, out=out)
            with pytest.raises(ShapeError):
                numerics.gelu(x, out=out)


def _splitmix64_reference(seed, n):
    # Independent transcription kept separate from the library code.
    mask = (1 << 64) - 1
    outs = []
    state = seed & mask
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        outs.append((z ^ (z >> 31)) & mask)
    return outs


class TestSplitMix64:
    def test_reference_vector_seed0(self):
        rng = numerics.SplitMix64(0)
        assert rng.fill_u64(1).tolist() == [0xE220A8397B1DCDAF]
        assert _splitmix64_reference(0, 1) == [0xE220A8397B1DCDAF]
        assert rng.state == numerics.GOLDEN_GAMMA

    def test_sequence_matches_reference(self):
        rng = numerics.SplitMix64(12345)
        assert rng.fill_u64(16).tolist() == _splitmix64_reference(12345, 16)

    def test_determinism(self):
        a = numerics.SplitMix64(7)
        b = numerics.SplitMix64(7)
        assert [a.fill_u64(1)[0] for _ in range(8)] == [b.fill_u64(1)[0] for _ in range(8)]

    def test_seed_sensitivity(self):
        assert numerics.SplitMix64(0).fill_u64(1)[0] != numerics.SplitMix64(1).fill_u64(1)[0]
        assert numerics.SplitMix64(1).fill_u64(1).tolist() == _splitmix64_reference(1, 1)

    def test_bulk_matches_single_steps(self):
        a = numerics.SplitMix64(99)
        b = numerics.SplitMix64(99)
        bulk = a.fill_u64(1000)
        singles = [int(b.fill_u64(1)[0]) for _ in range(1000)]
        assert bulk.tolist() == singles == _splitmix64_reference(99, 1000)
        assert a.state == b.state == (99 + 1000 * numerics.GOLDEN_GAMMA) % 2**64

    @pytest.mark.parametrize("seed", [0, 99, 12345, 2**64 - 1])
    def test_bulk_matches_single_steps_across_chunks(self, seed):
        chunk = numerics._CHUNK
        singles = _splitmix64_reference(seed, 2 * chunk + 3)
        for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            rng = numerics.SplitMix64(seed)
            bulk = rng.fill_u64(n)
            assert bulk.dtype == np.uint64 and bulk.shape == (n,)
            assert bulk.tolist() == singles[:n]
            assert rng.state == (seed + n * numerics.GOLDEN_GAMMA) % 2**64
        # A second bulk draw continues the stream where the first stopped.
        rng = numerics.SplitMix64(seed)
        rng.fill_u64(chunk + 1)
        assert rng.fill_u64(chunk + 2).tolist() == singles[chunk + 1 :]

    def test_zero_draws_leave_the_state(self):
        # An empty walk allocates empty results and advances nothing.
        rng = numerics.SplitMix64(5)
        assert rng.fill_u64(0).shape == (0,)
        out = np.empty(0, np.float32)
        rng.fill_uniform(out, [])
        t = numerics.init_uniform((0, 3), 1, 1, rng)
        assert t.shape == (0, 3) and t.dtype == np.float64
        assert rng.state == 5


class TestInitUniform:
    def test_range(self):
        rng = numerics.SplitMix64(3)
        t = numerics.init_uniform((64, 64), 64, 64, rng)
        a = math.sqrt(6.0 / 128.0)
        assert t.min() >= -a and t.max() <= a

    def test_byte_identical_across_runs(self):
        t1 = numerics.init_uniform((17, 9), 17, 9, numerics.SplitMix64(5))
        t2 = numerics.init_uniform((17, 9), 17, 9, numerics.SplitMix64(5))
        assert t1.tobytes() == t2.tobytes()

    def test_empirical_mean_bound(self):
        n = 1_000_000
        rng = numerics.SplitMix64(11)
        t = numerics.init_uniform((n,), 10, 10, rng)
        a = math.sqrt(6.0 / 20.0)
        sigma = a / math.sqrt(3.0)
        assert abs(t.mean()) < 3.0 * sigma / math.sqrt(n)

    def test_matches_one_shot_formula_across_chunks(self):
        chunk = numerics._CHUNK
        shape = (3, chunk // 2 + 1)  # 1.5 chunks plus 3 draws
        n = 3 * (chunk // 2 + 1)
        a = math.sqrt(6.0 / (5 + 7))
        z = numerics.SplitMix64(21).fill_u64(n)
        u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        expected = (u * (2.0 * a) - a).reshape(shape)
        rng = numerics.SplitMix64(21)
        got = numerics.init_uniform(shape, 5, 7, rng)
        assert got.dtype == np.float64 and got.shape == shape
        assert got.tobytes() == expected.tobytes()
        assert rng.state == numerics.SplitMix64(21 + n * numerics.GOLDEN_GAMMA).state

    def test_fan_validated(self):
        with pytest.raises(ConfigError):
            numerics.init_uniform((2, 2), 0, 4, numerics.SplitMix64(0))

    def test_fill_uniform_counts_must_fill_out(self):
        # Counts that sum to more or fewer draws than the array holds are
        # refused before any draw, so no entry of out is left unwritten. So
        # is an out that is not 1-D float: a 2-D one would take one row's
        # draws broadcast over every row, an int one truncated draws.
        rng = numerics.SplitMix64(0)
        for entries in ([(4, 1, 1)], [(3, 1, 1), (3, 2, 2)]):
            with pytest.raises(ShapeError):
                rng.fill_uniform(np.empty(5), entries)
        for out in (np.zeros((4, 4)), np.zeros(16, np.int32)):
            with pytest.raises(ShapeError, match="1-D float"):
                rng.fill_uniform(out, [(4, 1, 1)] if out.ndim == 2 else [(16, 1, 1)])
            assert not out.any()
        assert rng.state == 0
