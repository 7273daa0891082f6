import ast
import hashlib
import inspect
import json
import os
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from falcon import encoder as enc
from falcon import numerics, oracle
from falcon.errors import ConfigError, NumericError


class TestBruteForceAttention:
    def test_single_row_returns_value(self):
        q = np.array([[1.0, 2.0]])
        k = np.array([[0.3, -0.7]])
        v = np.array([[5.0, 6.0, 7.0]])
        assert np.allclose(oracle.brute_force_attention(q, k, v), v)

    def test_zero_queries_give_column_mean(self):
        rng = np.random.default_rng(0)
        k = rng.normal(size=(6, 3))
        v = rng.normal(size=(6, 4))
        out = oracle.brute_force_attention(np.zeros((6, 3)), k, v)
        assert np.allclose(out, np.broadcast_to(v.mean(axis=0), (6, 4)))

    def test_matches_optimized_kernel(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(5, 3))
        k = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 3))
        from falcon.numerics import softmax_rows

        fast = softmax_rows((q @ k.T) / np.sqrt(3.0)) @ v
        assert np.abs(oracle.brute_force_attention(q, k, v) - fast).max() < 1e-5

    @pytest.mark.parametrize("n_q", [2, 6], ids=["fewer-queries", "more-queries"])
    def test_query_and_key_counts_differ(self, n_q):
        # The encoder's last layer runs M query rows over N+M keys. Looping
        # keys over the query count dropped keys for 2 queries over 5 and
        # indexed past the keys for 6.
        rng = np.random.default_rng(2)
        q = rng.normal(size=(n_q, 3))
        k = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 4))
        expected = numerics.softmax_rows((q @ k.T) / np.sqrt(3.0)) @ v
        got = oracle.brute_force_attention(q, k, v)
        assert got.shape == (n_q, 4)
        assert np.abs(got - expected).max() < 1e-12


class TestEncodeReference:
    def test_matches_main_encode_f32(self, tiny_cfg, tiny_weights, tiny_tiles):
        main = enc.encode(tiny_tiles, tiny_weights, tiny_cfg)
        ref, _ = oracle.encode_reference(tiny_tiles, tiny_weights, tiny_cfg)
        assert np.abs(main.astype(np.float64) - ref).max() <= 1e-5

    def test_matches_main_encode_reatten_disabled(self, tiny_cfg, tiny_weights, tiny_tiles):
        cfg = enc.config_with_overrides(tiny_cfg, reatten_enabled=False)
        main = enc.encode(tiny_tiles, tiny_weights, cfg)
        ref, _ = oracle.encode_reference(tiny_tiles, tiny_weights, cfg)
        assert np.abs(main.astype(np.float64) - ref).max() <= 1e-5

    def test_zero_weights_give_identical_register_rows(self, tiny_cfg, tiny_tiles):
        w = {name: np.zeros(shape, np.float32) for name, shape, *_ in enc.tensor_specs(tiny_cfg)}
        ref, _ = oracle.encode_reference(tiny_tiles, w, tiny_cfg)
        assert np.abs(ref - ref[0]).max() < 1e-12

    def test_reference_bytes_are_pinned(self, tiny_cfg):
        # The tolerances above would let a changed summation order through;
        # this pins the reference forward's float64 bytes and its MAC counts
        # over f32 and f64 weights, the exchange on and off, the thumbnail on
        # and off, and one and two heads.
        digest = hashlib.sha256()
        for dtype in (np.float32, np.float64):
            for reatten in (True, False):
                for thumbnail in (True, False):
                    for heads in (1, 2):
                        cfg = enc.config_with_overrides(
                            tiny_cfg, heads=heads, reatten_enabled=reatten
                        )
                        w = enc.init_weights(cfg, seed=heads, dtype=dtype)
                        tiles = oracle.fixture_tiles(cfg, 2, seed=heads)
                        ref, counts = oracle.encode_reference(tiles, w, cfg, thumbnail)
                        digest.update(ref.tobytes())
                        digest.update(json.dumps(counts, sort_keys=True).encode())
        recorded = "967bf14859e668457b338505025fe5c615a9347b184f555e04b54e731cdd6839"
        assert digest.hexdigest() == recorded

    def test_size_cap_enforced(self, tiny_weights, tiny_cfg):
        big = oracle.fixture_tiles(tiny_cfg, 2, seed=0)
        cfg = enc.config_with_overrides(tiny_cfg, registers=256)
        w = enc.init_weights(cfg, 0)
        tiles = oracle.fixture_tiles(cfg, 2, seed=0)
        with pytest.raises(ConfigError):
            oracle.encode_reference(tiles, w, cfg)
        # The tiny preset itself stays under the cap.
        oracle.encode_reference(big, tiny_weights, tiny_cfg)

    def test_mac_cap_enforced_before_weights_are_read(self):
        # Paper geometry at 32-pixel tiles is 3 * 68 = 204 tokens, under the
        # token cap, but 83.4G multiply-adds: refused before any weight is
        # looked up, so an empty mapping serves.
        cfg = enc.config_with_overrides(enc.PRESETS["paper"], tile=32)
        tiles = oracle.fixture_tiles(cfg, 2, seed=0)
        with pytest.raises(ConfigError, match="capped at 16777216 multiply-adds, got 83436503040$"):
            oracle.encode_reference(tiles, {}, cfg)


def drawn_layer_norm_weights(cfg, seed):
    """Float64 ``init_weights(cfg, seed)``, but with every layer norm's gamma
    in [0.5, 1.5) and beta in [-0.5, 0.5), drawn from a SplitMix64 stream of
    their own; every other tensor is as ``init_weights`` draws it."""
    w = enc.init_weights(cfg, seed, dtype=np.float64)
    rng = numerics.SplitMix64(seed + 1000)
    for name, tensor in w.items():
        field = name.rsplit(".", 1)[-1]
        if field.startswith("ln"):
            drawn = numerics.init_uniform(tensor.shape, 12, 12, rng)  # bound sqrt(6/24)
            tensor[...] = drawn + 1.0 if field.endswith("gamma") else drawn
    return w


class TestLayerNormAffine:
    """The gates at layer-norm parameters other than init's gamma = 1 and
    beta = 0, which every other integrated check uses: one layer of width 4
    over one tile and the thumbnail."""

    @pytest.fixture(scope="class")
    def case(self):
        cfg = enc.config_with_overrides(enc.PRESETS["tiny"], layers=1, width=4, patch=4, tile=8)
        return cfg, drawn_layer_norm_weights(cfg, seed=5), oracle.fixture_tiles(cfg, 1, seed=5)

    def test_encode_matches_reference(self, case):
        cfg, w, tiles = case
        w32 = {name: t.astype(np.float32) for name, t in w.items()}
        ref32, _ = oracle.encode_reference(tiles, w32, cfg)
        assert np.abs(enc.encode(tiles, w32, cfg).astype(np.float64) - ref32).max() <= 1e-5
        ref64, _ = oracle.encode_reference(tiles, w, cfg)
        assert np.abs(enc.encode(tiles, w, cfg) - ref64).max() <= 1e-10

    def test_gradient_gate_passes(self, case):
        cfg, w, tiles = case
        rel_err = oracle.check_encoder_gradients(tiles, w, cfg)
        assert list(rel_err) == list(w)
        assert all(r <= oracle.GRAD_THRESHOLD for r in rel_err.values()), rel_err

    def test_loss_matches_encode(self, case):
        cfg, w, tiles = case
        loss, grads = enc.parameter_gradients(tiles, w, cfg)
        assert loss == pytest.approx(float(enc.encode(tiles, w, cfg).sum()), rel=1e-12)
        assert list(grads) == list(w)


@st.composite
def small_runs(draw, min_width, max_width, max_tile, max_layers, max_tiles, max_registers):
    """(cfg, tiles, thumbnail, float64 weights, block bytes) of one small run:
    the exchange on or off, layer norms at init or drawn, and the states in
    the budget's groups or, at a 1-byte budget, in groups of one."""
    heads = draw(st.integers(1, 3))
    width = heads * draw(st.integers(-(-min_width // heads), max_width // heads))
    patch = draw(st.integers(1, 4))
    cfg = enc.EncoderConfig(
        layers=draw(st.integers(1, max_layers)), width=width, heads=heads, patch=patch,
        tile=patch * draw(st.integers(1, max_tile // patch)),
        registers=draw(st.integers(1, max_registers)), reatten_enabled=draw(st.booleans()),
    )
    n_tiles, thumbnail = draw(st.integers(1, max_tiles)), draw(st.booleans())
    # Within the loop forward's token cap, and at most about 0.15 s of it.
    n_states = n_tiles + thumbnail
    assume(n_states * cfg.n_tokens <= oracle.REFERENCE_TOKEN_CAP)
    assume(oracle.count_flops(cfg, n_states, thumbnail=False).total <= 1 << 20)
    seed = draw(st.integers(0, 2**16))
    draw_ln = draw(st.booleans())
    w = drawn_layer_norm_weights(cfg, seed) if draw_ln else enc.init_weights(cfg, seed, np.float64)
    block_bytes = draw(st.sampled_from([numerics._BLOCK_BYTES, 1]))
    return cfg, oracle.fixture_tiles(cfg, n_tiles, seed), thumbnail, w, block_bytes


class TestDifferential:
    """``encode`` against the loop forward and the gradient gate over drawn
    small geometries, not only the presets' and the fixtures'."""

    @given(small_runs(1, max_width=12, max_tile=12, max_layers=3, max_tiles=4, max_registers=5))
    def test_encode_matches_reference(self, run):
        cfg, tiles, thumbnail, w, block_bytes = run
        ref, _ = oracle.encode_reference(tiles, w, cfg, thumbnail)
        with mock.patch.object(numerics, "_BLOCK_BYTES", block_bytes):
            f_hr = enc.encode(tiles, w, cfg, thumbnail=thumbnail)
        assert f_hr.shape == ref.shape
        assert (np.abs(f_hr - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref))).all()

    @settings(max_examples=3)
    # A layer norm over 1 or 2 features discards its input's scale.
    @given(small_runs(3, max_width=4, max_tile=4, max_layers=1, max_tiles=2, max_registers=3))
    def test_gradient_gate_passes(self, run):
        cfg, tiles, thumbnail, w, block_bytes = run
        with mock.patch.object(numerics, "_BLOCK_BYTES", block_bytes):
            rel_err = oracle.check_encoder_gradients(tiles, w, cfg, thumbnail)
        assert all(r <= oracle.GRAD_THRESHOLD for r in rel_err.values()), rel_err


class TestReferenceIndependence:
    FORWARD = (
        "_mm", "_transpose", "_add", "_ln_rows", "_softmax_row", "_gelu_scalar", "_attend_ref",
        "brute_force_attention", "_mha_ref", "_patchify_ref", "encode_reference",
    )
    # numpy only converts arrays in and out; dtypes and annotations name it too.
    NUMPY_ALLOWED = {"asarray", "array", "zeros", "float32", "float64", "ndarray"}

    @staticmethod
    def fast_path_names():
        """The names oracle binds from the encoder, numerics and autodiff."""
        names = set()
        for node in ast.parse(inspect.getsource(oracle)).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                fast = node.module in ("encoder", "numerics", "autodiff")
                for alias in node.names:
                    if fast or alias.name in ("encoder", "numerics", "autodiff"):
                        names.add(alias.asname or alias.name)
        return names

    @staticmethod
    def body_nodes(name):
        """Every node of the function ``name`` but its annotations."""
        fn = ast.parse(textwrap.dedent(inspect.getsource(getattr(oracle, name)))).body[0]
        fn.returns = None
        for arg in ast.walk(fn.args):
            if isinstance(arg, ast.arg):
                arg.annotation = None
        return list(ast.walk(fn))

    def test_reference_forward_shares_no_code(self):
        fast = self.fast_path_names()
        assert {"enc", "EncoderConfig", "SplitMix64"} <= fast
        for name in self.FORWARD:
            nodes = self.body_nodes(name)
            assert not any(isinstance(n, ast.MatMult) for n in nodes), name
            used = {n.id for n in nodes if isinstance(n, ast.Name)}
            assert not used & fast, (name, used & fast)
            np_attrs = [
                n.attr for n in nodes
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id == "np"
            ]
            assert set(np_attrs) <= self.NUMPY_ALLOWED, (name, np_attrs)
            bare_np = sum(isinstance(n, ast.Name) and n.id == "np" for n in nodes)
            assert bare_np == len(np_attrs), name

    def test_reference_forward_computes_on_lists(self, tiny_cfg, tiny_weights, tiny_tiles):
        # The AST check above does not see numpy reached through an array's
        # methods, as in ``np.asarray(a).T.tolist()``. So a run of the forward
        # is watched too: no primitive calls into numpy or returns anything
        # but Python floats and lists of them, and the two entry points call
        # numpy only to convert arrays in and out.
        converters = {"encode_reference", "brute_force_attention"}
        numpy_dir = os.path.dirname(np.__file__)
        strays, converted, returned = [], set(), set()

        def in_numpy(fn):
            module = getattr(fn, "__module__", None) or type(getattr(fn, "__self__", None)).__module__
            return module.split(".")[0] == "numpy"

        def plain(value):
            if type(value) is list:
                return all(plain(v) for v in value)
            return type(value) is float

        def profile(frame, event, arg):
            qualname = frame.f_code.co_qualname
            owner = qualname.split(".")[0]
            if event == "c_call" and owner in self.FORWARD and in_numpy(arg):
                if owner in converters and arg.__name__ in ("asarray", "array", "tolist"):
                    converted.add(arg.__name__)
                else:
                    strays.append((qualname, arg.__name__))
            elif event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
                caller = frame.f_back.f_code.co_qualname
                if caller.split(".")[0] in self.FORWARD:
                    strays.append((caller, frame.f_code.co_name))
            elif event == "return" and qualname in self.FORWARD and owner not in converters:
                returned.add(qualname)
                if not plain(arg):
                    strays.append((qualname, type(arg).__name__))

        sys.setprofile(profile)
        try:
            oracle.encode_reference(tiny_tiles, tiny_weights, tiny_cfg)
            oracle.brute_force_attention(*np.eye(3).reshape(3, 1, 3))
        finally:
            sys.setprofile(None)
        assert strays == []
        # The hook saw the conversions and every primitive.
        assert converted == {"asarray", "array", "tolist"}
        assert returned == set(self.FORWARD) - converters


class TestFiniteDiff:
    def test_quadratic_loss(self):
        theta = np.array([1.0, -2.0, 0.5])
        params = {"theta": theta}
        grads = oracle.finite_diff_grad(
            lambda: 0.5 * float(np.sum(params["theta"] ** 2)), params, h=1e-5
        )
        assert np.abs(grads["theta"] - theta).max() < 1e-8

    def test_linear_loss(self):
        c = np.array([3.0, -1.0, 2.0])
        params = {"theta": np.array([0.2, 0.4, 0.6])}
        grads = oracle.finite_diff_grad(
            lambda: float(c @ params["theta"]), params, h=1e-5
        )
        assert np.abs(grads["theta"] - c).max() < 1e-9

    def test_params_restored(self):
        theta = np.array([1.0, 2.0])
        before = theta.copy()
        oracle.finite_diff_grad(lambda: float(theta.sum()), {"theta": theta}, h=1e-4)
        assert np.array_equal(theta, before)

    def test_non_finite_loss_rejected(self):
        params = {"theta": np.array([1.0])}
        with pytest.raises(NumericError):
            oracle.finite_diff_grad(lambda: float("nan"), params, h=1e-5)

    @pytest.mark.parametrize(
        "params, h",
        [({"theta": np.array([1.0])}, 0.0), ({"theta": np.ones((3, 4))[:, ::2]}, 1e-5)],
        ids=["zero-step", "non-contiguous"],
    )
    def test_bad_step_or_parameter_rejected(self, params, h):
        with pytest.raises(ConfigError):
            oracle.finite_diff_grad(lambda: 0.0, params, h=h)


class TestCountFlops:
    def test_zero_tiles_rejected(self):
        with pytest.raises(ConfigError):
            oracle.count_flops(enc.PRESETS["tiny"], 0)

    def test_reatten_cheaper_than_self_attention_at_scale(self):
        report = oracle.count_flops(enc.PRESETS["paper"], 16)
        assert report.reatten < report.self_attention
        assert report.total == (
            report.self_attention + report.reatten + report.ffn + report.projector
        )

    def test_doubling_width_quadruples_d2_terms(self, tiny_cfg):
        wide = enc.config_with_overrides(tiny_cfg, width=16, heads=2)
        a = oracle.count_flops(tiny_cfg, 2)
        b = oracle.count_flops(wide, 2)
        n = tiny_cfg.n_tokens
        d = tiny_cfg.width
        # Separate the D^2 and D terms to check exact 4x scaling of the former.
        a_d2 = tiny_cfg.layers * 3 * (12 * n * d**2)
        b_d2 = wide.layers * 3 * (12 * n * (2 * d) ** 2)
        assert b_d2 == 4 * a_d2
        assert (b.self_attention + b.ffn) > (a.self_attention + a.ffn)

    def test_matches_instrumented_reference(self, tiny_cfg, tiny_weights, tiny_tiles):
        _, counts = oracle.encode_reference(tiny_tiles, tiny_weights, tiny_cfg)
        report = oracle.count_flops(tiny_cfg, len(tiny_tiles.tiles))
        assert counts["self_attention"] == report.self_attention
        assert counts["reatten"] == report.reatten
        assert counts["ffn"] == report.ffn

    def test_instrumented_reference_without_thumbnail(self, tiny_cfg, tiny_weights, tiny_tiles):
        _, counts = oracle.encode_reference(tiny_tiles, tiny_weights, tiny_cfg, thumbnail=False)
        report = oracle.count_flops(tiny_cfg, len(tiny_tiles.tiles), thumbnail=False)
        assert counts["self_attention"] == report.self_attention
        assert counts["reatten"] == report.reatten
        assert counts["ffn"] == report.ffn

    def test_token_accounting(self):
        report = oracle.count_flops(enc.PRESETS["paper"], 16, d_llm=128)
        assert report.tokens_pre == 576 * 17
        assert report.tokens_post == 64 * 17
        assert report.projector == 64 * 17 * (1024 * 128 + 128 * 128)

    @pytest.mark.parametrize("count", [oracle.count_flops, oracle.run_macs])
    @pytest.mark.parametrize("d_llm", [-5, 0])
    def test_nonpositive_d_llm_rejected(self, count, d_llm):
        with pytest.raises(ConfigError, match=f"^d_llm must be >= 1, got {d_llm}$"):
            count(enc.PRESETS["tiny"], 2, d_llm=d_llm)


# A geometry other than tiny's: 9 image tokens of 8 px patches, 3 registers,
# 3 heads of width 4.
REDUCED = enc.config_with_overrides(
    enc.PRESETS["tiny"], width=12, heads=3, patch=8, tile=24, registers=3
)


def executed_macs(monkeypatch, tiles, w, cfg, thumbnail):
    """The multiply-adds of one ``encode``, from the shapes of the arguments
    of each attention step, FFN and patch-embedding product it runs."""
    macs = {"embed": 0, "self_attention": 0, "reatten": 0, "ffn": 0}
    attention, ffn_block, patchify = enc._attention, enc.ffn_block, enc.patchify

    def attention_spy(x, weights, heads, collect=None, rows=slice(None), kv=None):
        out = attention(x, weights, heads, collect, rows, kv)
        # A group of states is (g, N+M, D); the exchange joins all register
        # rows into one (M*S, D) array.
        key = "self_attention" if x.ndim == 3 else "reatten"
        n_q, n_kv = x[..., rows, :].shape[-2], x.shape[-2]
        macs[key] += np.prod(x.shape[:-2], dtype=int) * oracle.attention_macs(n_q, n_kv, cfg.width)
        return out

    def ffn_spy(x, lw, cfg_):
        macs["ffn"] += np.prod(x.shape[:-2], dtype=int) * oracle.ffn_macs(x.shape[-2], cfg.width)
        return ffn_block(x, lw, cfg_)

    def patchify_spy(pixels, p):
        tokens = patchify(pixels, p)
        # Each token row (3 p^2 wide) is multiplied by the (3 p^2, D) embedding.
        macs["embed"] += tokens.size * w["patch_embed"].shape[1]
        return tokens

    monkeypatch.setattr(enc, "_attention", attention_spy)
    monkeypatch.setattr(enc, "ffn_block", ffn_spy)
    monkeypatch.setattr(enc, "patchify", patchify_spy)
    enc.encode(tiles, w, cfg, thumbnail=thumbnail)
    monkeypatch.undo()
    return macs


class TestRunMacs:
    def test_paper_pinned(self):
        # Paper geometry at 2 layers, 16 tiles plus the thumbnail, d_llm 2048:
        # the last layer computes 64 of each state's 640 rows.
        cfg = enc.config_with_overrides(enc.PRESETS["paper"], layers=2)
        run = oracle.run_macs(cfg, 16, d_llm=2048)
        full = oracle.count_flops(cfg, 16, d_llm=2048)
        assert run["self_attention"] + run["ffn"] == 186_814_300_160
        assert full.self_attention + full.ffn == 302_325_432_320
        assert run["embed"] == 7_700_742_144 == oracle.embed_macs(cfg, 17)
        assert run["total"] == 215_335_567_360 == sum(v for k, v in run.items() if k != "total")
        assert (run["reatten"], run["projector"]) == (full.reatten, full.projector)

    @pytest.mark.parametrize("layers", [1, 24, enc.MAX_SIZE])
    def test_differs_from_count_flops_in_the_last_layer(self, layers):
        # The two counts differ only in the last layer's query rows, whatever
        # the depth; closed form, so 2^32 - 1 layers count at once.
        cfg = enc.config_with_overrides(enc.PRESETS["paper"], layers=layers)
        n, m, d = cfg.n_tokens, cfg.registers, cfg.width
        run = oracle.run_macs(cfg, 4)
        full = oracle.count_flops(cfg, 4)
        assert full.total + run["embed"] - run["total"] == 5 * (
            oracle.block_macs(n, n, d) - oracle.block_macs(m, n, d)
        )

    @pytest.mark.parametrize("thumbnail", [True, False], ids=["thumbnail", "no-thumbnail"])
    @pytest.mark.parametrize("exchange", [True, False], ids=["exchange-on", "exchange-off"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("base", [enc.PRESETS["tiny"], REDUCED], ids=["tiny", "reduced"])
    def test_equals_executed_shapes(self, monkeypatch, base, layers, exchange, thumbnail):
        cfg = enc.config_with_overrides(base, layers=layers, reatten_enabled=exchange)
        tiles = oracle.fixture_tiles(cfg, 3, seed=2)
        w = enc.init_weights(cfg, seed=2)
        if base is REDUCED:
            # One state per group, so every block runs as several calls.
            monkeypatch.setattr(numerics, "_BLOCK_BYTES", 1)
        got = executed_macs(monkeypatch, tiles, w, cfg, thumbnail)
        run = oracle.run_macs(cfg, 3, thumbnail)
        assert got == {k: run[k] for k in got}
        assert run["projector"] == 0 and (run["reatten"] > 0) == exchange

    def test_tiny_values(self, monkeypatch, tiny_cfg):
        tiles = oracle.fixture_tiles(tiny_cfg, 3, seed=0)
        got = executed_macs(monkeypatch, tiles, enc.init_weights(tiny_cfg, 0), tiny_cfg, True)
        assert (got["self_attention"], got["reatten"], got["ffn"]) == (20_480, 16_384, 24_576)


class TestGradientCheck:
    def test_requires_float64(self, tiny_cfg, tiny_weights, tiny_tiles):
        with pytest.raises(ConfigError):
            oracle.check_encoder_gradients(tiny_tiles, tiny_weights, tiny_cfg)

    def test_exchange_off_reports_no_exchange_tensor(self, tiny_cfg, monkeypatch):
        # No forward reads a reatten.* tensor with the exchange off, so none
        # is finite-differenced or reported. The differences themselves are
        # stubbed out: only which tensors reach them is under test.
        cfg = enc.config_with_overrides(tiny_cfg, reatten_enabled=False)
        w = enc.init_weights(cfg, seed=4, dtype=np.float64)
        perturbed = []

        def finite_diff_grad(loss_fn, params, h):
            perturbed.extend(params)
            return {name: np.zeros_like(t) for name, t in params.items()}

        monkeypatch.setattr(oracle, "finite_diff_grad", finite_diff_grad)
        rel_err = oracle.check_encoder_gradients(oracle.fixture_tiles(cfg, 2, seed=4), w, cfg)
        read = [name for name in w if not name.startswith("reatten.")]
        assert perturbed == list(rel_err) == read


class TestSelftest:
    def test_tiny_suite_passes(self, tiny_cfg, tiny_weights_f64):
        result = oracle.run_selftest(tiny_cfg, tiny_weights_f64, seed=0, verify_mode=False)
        assert result["passed"]
        names = {c["name"] for c in result["checks"]}
        assert "gradient_check" not in names
        assert result["gradient_check_skipped"]

    def test_normalization_check_sees_exchange_matrices(
        self, tiny_cfg, tiny_weights_f64, monkeypatch
    ):
        # Only the exchange step's softmax has a row count other than N+M;
        # self-attention passes a (g, N+M, N+M) group.
        real = numerics.softmax_rows

        def halve_exchange(x, out=None):
            out = real(x, out)
            return out if out.shape[-2] == tiny_cfg.n_tokens else out * 0.5

        monkeypatch.setattr(numerics, "softmax_rows", halve_exchange)
        result = oracle.run_selftest(tiny_cfg, tiny_weights_f64, seed=0, verify_mode=False)
        checks = {c["name"]: c["passed"] for c in result["checks"]}
        assert checks["attention_normalization"] is False
        assert not result["passed"]

    def test_budget_refuses_reference_over_cap(self, tiny_cfg):
        # The reference forward runs on 2 fixture tiles plus the thumbnail:
        # 3 * (4 + 166) = 510 tokens pass, 3 * (4 + 167) = 513 do not.
        oracle.check_selftest_budget(enc.config_with_overrides(tiny_cfg, registers=166))
        over = enc.config_with_overrides(tiny_cfg, registers=167)
        for cfg, tokens in ((enc.PRESETS["paper"], 1920), (over, 513)):
            with pytest.raises(ConfigError, match=f"capped at 512 total tokens, got {tokens}$"):
                oracle.check_selftest_budget(cfg)

    def test_budget_refuses_width_2_in_verify_mode_last(self, tiny_cfg):
        # Verify mode's width-2 refusal is the last check: a config over
        # another cap is refused for that cap first.
        narrow = enc.config_with_overrides(tiny_cfg, width=2, heads=1)
        with pytest.raises(ConfigError, match="^verify mode refuses width 2"):
            oracle.check_selftest_budget(narrow)
        oracle.check_selftest_budget(narrow, verify_mode=False)
        oracle.check_selftest_budget(enc.config_with_overrides(tiny_cfg, width=3, heads=1))
        over = enc.config_with_overrides(narrow, registers=167)
        with pytest.raises(ConfigError, match="capped at 512 total tokens"):
            oracle.check_selftest_budget(over)

    def test_budget_refuses_reference_over_mac_cap(self, tiny_cfg, tiny_weights_f64):
        # The reference forward's multiply-adds, as the instrumented forward
        # counts them on the selftest fixture: width 128 at one head (12.4M)
        # passes, width 256 (46.7M) is refused before anything is drawn.
        tiles = oracle.fixture_tiles(tiny_cfg, 2, seed=0)
        _, counts = oracle.encode_reference(tiles, tiny_weights_f64, tiny_cfg)
        assert counts["embed"] == oracle.embed_macs(tiny_cfg, 3)
        assert sum(counts.values()) == (
            oracle.embed_macs(tiny_cfg, 3) + oracle.count_flops(tiny_cfg, 2).total
        )
        oracle.check_selftest_budget(enc.config_with_overrides(tiny_cfg, width=128, heads=1))
        wide = enc.config_with_overrides(tiny_cfg, width=256, heads=1)
        macs = oracle.embed_macs(wide, 3) + oracle.count_flops(wide, 2).total
        assert macs == 46_743_552 > oracle.REFERENCE_MAC_CAP
        with pytest.raises(ConfigError, match=f"capped at 16777216 multiply-adds, got {macs}$"):
            oracle.check_selftest_budget(wide)
