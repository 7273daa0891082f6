import numpy as np
import pytest

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

    def test_size_cap_enforced(self, tiny_weights, tiny_cfg):
        big = oracle.fixture_tiles(tiny_cfg, 2, seed=0)
        cfg = enc.config_with_overrides(tiny_cfg, registers=256)
        w = enc.init_weights(cfg, 0)
        tiles = oracle.fixture_tiles(cfg, 2, seed=0)
        with pytest.raises(ConfigError):
            oracle.encode_reference(tiles, w, cfg)
        # The tiny preset itself stays under the cap.
        oracle.encode_reference(big, tiny_weights, tiny_cfg)


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


class TestCountFlops:
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
        narrow = enc.config_with_overrides(tiny_cfg, ffn_mult=2)
        for cfg, w in ((tiny_cfg, tiny_weights), (narrow, enc.init_weights(narrow, 0))):
            _, counts = oracle.encode_reference(tiny_tiles, w, cfg)
            report = oracle.count_flops(cfg, len(tiny_tiles.tiles))
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


class TestGradientCheck:
    def test_requires_float64(self, tiny_cfg, tiny_weights, tiny_tiles):
        with pytest.raises(ConfigError):
            oracle.check_encoder_gradients(tiny_tiles, tiny_weights, tiny_cfg)

    def test_single_tile_runs_clean(self, tiny_cfg):
        # Cheap smoke version; the full two-tile check is an acceptance test.
        cfg = enc.config_with_overrides(tiny_cfg, layers=1)
        w = enc.init_weights(cfg, seed=4, dtype=np.float64)
        tiles = oracle.fixture_tiles(cfg, 1, seed=4)
        report = oracle.check_encoder_gradients(tiles, w, cfg, thumbnail=False)
        assert report.passed, report.worst()


class TestSelftest:
    def test_tiny_suite_passes(self, tiny_cfg):
        result = oracle.run_selftest(tiny_cfg, seed=0, verify_mode=False)
        assert result["passed"]
        names = {c["name"] for c in result["checks"]}
        assert "gradient_check" not in names
        assert result["gradient_check_skipped"]

    def test_normalization_check_sees_exchange_matrices(self, tiny_cfg, monkeypatch):
        # Only the exchange step's softmax has a row count other than N+M.
        real = numerics.softmax_rows

        def halve_exchange(x, out=None):
            out = real(x, out)
            return out if out.shape[0] == tiny_cfg.n_tokens else out * 0.5

        monkeypatch.setattr(numerics, "softmax_rows", halve_exchange)
        result = oracle.run_selftest(tiny_cfg, seed=0, verify_mode=False)
        checks = {c["name"]: c["passed"] for c in result["checks"]}
        assert checks["attention_normalization"] is False
        assert not result["passed"]
