import math
from pathlib import Path

import numpy as np
import pytest

from falcon import compressors as cmp
from falcon import encoder as enc
from falcon import falt
from falcon.errors import ShapeError
from falcon.numerics import SplitMix64, gelu, init_uniform, layer_norm, softmax_rows
from falcon.oracle import attention_macs, block_macs, ffn_macs, run_macs

from conftest import random_tiles


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def paper_cfg():
    return enc.PRESETS["paper"]


class TestMlpProject:
    def test_zero_weights_constant_bias(self):
        d, d_llm = 8, 5
        pw = cmp.ProjectorWeights(
            w1=np.zeros((d, d_llm)),
            b1=np.zeros(d_llm),
            w2=np.zeros((d_llm, d_llm)),
            b2=np.full(d_llm, 3.5),
        )
        out = cmp.mlp_project(np.random.default_rng(0).normal(size=(7, d)), pw)
        assert np.allclose(out, 3.5)

    def test_row_independence(self):
        d, d_llm = 6, 4
        pw = cmp.init_projector(d, d_llm, SplitMix64(1), np.float64)
        f = np.random.default_rng(1).normal(size=(9, d))
        perm = np.random.default_rng(2).permutation(9)
        assert np.allclose(cmp.mlp_project(f, pw)[perm], cmp.mlp_project(f[perm], pw))

    def test_matches_hand_evaluation(self):
        pw = cmp.ProjectorWeights(
            w1=np.array([[1.0, 0.0], [0.0, 2.0]]),
            b1=np.array([0.5, -0.5]),
            w2=np.array([[1.0, 1.0], [0.0, 1.0]]),
            b2=np.array([0.0, 0.25]),
        )
        f = np.array([[1.0, 1.0]])
        hidden = gelu(np.array([[1.5, 1.5]]))
        expected = hidden @ pw.w2 + pw.b2
        assert np.allclose(cmp.mlp_project(f, pw), expected, atol=1e-6)

    @pytest.mark.parametrize("d_llm", [128, 2048])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_matches_two_init_uniform_calls(self, d_llm, dtype):
        rng = SplitMix64(4)
        w1 = init_uniform((8, d_llm), 8, d_llm, rng).astype(dtype)
        w2 = init_uniform((d_llm, d_llm), d_llm, d_llm, rng).astype(dtype)
        got_rng = SplitMix64(4)
        pw = cmp.init_projector(8, d_llm, got_rng, dtype)
        assert pw.w1.tobytes() == w1.tobytes() and pw.w2.tobytes() == w2.tobytes()
        assert pw.w1.dtype == pw.w2.dtype == pw.b1.dtype == pw.b2.dtype == dtype
        assert not pw.b1.any() and not pw.b2.any()
        assert got_rng.state == rng.state

    def test_shape_mismatch(self):
        pw = cmp.init_projector(8, 4, SplitMix64(0))
        with pytest.raises(ShapeError):
            cmp.mlp_project(np.zeros((3, 5)), pw)


class TestAvgPool:
    def test_constant_features(self):
        feats = np.full((576, 16), 2.5)
        out = cmp.avg_pool_compress(feats)
        assert out.shape == (64, 16)
        assert np.allclose(out, 2.5)

    def test_single_nonzero_scaled_by_ninth(self):
        feats = np.zeros((576, 4))
        feats[0, 2] = 9.0
        out = cmp.avg_pool_compress(feats)
        assert out[0, 2] == pytest.approx(1.0)
        out[0, 2] = 0.0
        assert np.all(out == 0.0)

    def test_paper_token_parity(self):
        assert cmp.avg_pool_compress(np.zeros((576, 8))).shape == (64, 8)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            cmp.avg_pool_compress(np.zeros((577, 8)))

    @pytest.mark.parametrize("shape", [(576,), (16, 8)], ids=["1-D", "side-not-multiple-of-3"])
    def test_malformed_token_matrix_rejected(self, shape):
        with pytest.raises(ShapeError):
            cmp.avg_pool_compress(np.zeros(shape))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(36, 5))
        y = rng.normal(size=(36, 5))
        combo = cmp.avg_pool_compress(2.0 * x + 3.0 * y)
        parts = 2.0 * cmp.avg_pool_compress(x) + 3.0 * cmp.avg_pool_compress(y)
        assert np.abs(combo - parts).max() < 1e-5


class TestPixelShuffle:
    def test_identity_block_extracts_strided_subsample(self):
        d = 3
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(36, d))  # 6x6 grid -> 2x2 output
        proj = np.zeros((9 * d, d))
        proj[:d, :] = np.eye(d)  # keep neighborhood cell (0, 0) only
        out = cmp.pixel_shuffle_compress(feats, proj)
        grid = feats.reshape(6, 6, d)
        expected = grid[::3, ::3].reshape(4, d)
        assert np.allclose(out, expected)

    def test_constant_features_summing_projection(self):
        d = 2
        feats = np.full((36, d), 1.5)
        proj = np.vstack([np.eye(d)] * 9)  # sums the nine neighbors per channel
        out = cmp.pixel_shuffle_compress(feats, proj)
        assert np.allclose(out, 9 * 1.5)

    def test_output_shape(self):
        out = cmp.pixel_shuffle_compress(np.zeros((576, 4)), np.zeros((36, 4)))
        assert out.shape == (64, 4)

    def test_projection_shape_validated(self):
        with pytest.raises(ShapeError):
            cmp.pixel_shuffle_compress(np.zeros((576, 4)), np.zeros((35, 4)))

    def test_linearity(self):
        rng = np.random.default_rng(5)
        d = 4
        proj = rng.normal(size=(9 * d, d))
        x = rng.normal(size=(81, d))
        y = rng.normal(size=(81, d))
        combo = cmp.pixel_shuffle_compress(0.5 * x - 2.0 * y, proj)
        parts = 0.5 * cmp.pixel_shuffle_compress(x, proj) - 2.0 * cmp.pixel_shuffle_compress(y, proj)
        assert np.abs(combo - parts).max() < 1e-5


def _cross_attention_reference(queries, feats, blk, heads):
    """Per-head cross-attention written out on its own, independent of the
    encoder's attention kernel that the abstractor runs on."""
    q = queries @ blk["wq"]
    k = feats @ blk["wk"]
    v = feats @ blk["wv"]
    dk = q.shape[1] // heads
    scale = 1.0 / math.sqrt(dk)
    outs = []
    for h in range(heads):
        cols = slice(h * dk, (h + 1) * dk)
        attn = softmax_rows((q[:, cols] @ k[:, cols].T) * scale)
        outs.append(attn @ v[:, cols])
    return np.hstack(outs) @ blk["wo"]


def _abstractor_reference(feats, queries, blocks, heads):
    q = queries
    for blk in blocks:
        normed = layer_norm(q, blk["ln1_gamma"], blk["ln1_beta"])
        q = q + _cross_attention_reference(normed, feats, blk, heads)
        normed = layer_norm(q, blk["ln2_gamma"], blk["ln2_beta"])
        q = q + gelu(normed @ blk["w1"]) @ blk["w2"]
    return q


class TestAbstractor:
    def test_bitwise_equal_to_reference(self):
        for dtype in (np.float32, np.float64):
            for d, heads, n_q, n_feats, depth in ((8, 2, 4, 12, 2), (24, 3, 5, 30, 3)):
                blocks = cmp.init_abstractor(d, SplitMix64(d), depth=depth, dtype=dtype)
                rng = np.random.default_rng(d)
                feats = rng.normal(size=(n_feats, d)).astype(dtype)
                queries = rng.normal(size=(n_q, d)).astype(dtype)
                got = cmp.abstractor_compress(feats, queries, blocks, heads)
                assert got.dtype == dtype
                assert np.array_equal(got, _abstractor_reference(feats, queries, blocks, heads))

    def test_init_draw_stream_matches_recorded_bytes(self):
        # Recorded before the abstractor's blocks were built from the shared
        # block spec list: the draw order wq, wk, wv, wo, w1, w2 and every
        # byte must stay as they were.
        entries = {}
        for depth in (1, 3):
            blocks = cmp.init_abstractor(4, SplitMix64(11), depth=depth, dtype=np.float64)
            for b, blk in enumerate(blocks):
                for field, tensor in blk.items():
                    entries[f"depth{depth}.{b}.{field}"] = tensor
        assert falt.dumps(entries) == (GOLDEN_DIR / "abstractor_init_f64.falt").read_bytes()

    def test_uniform_attention_receives_mean_feature(self):
        d = 8
        blocks = cmp.init_abstractor(d, rng=SplitMix64(6), dtype=np.float64)
        for blk in blocks:
            blk["wq"][:] = 0.0
            blk["wv"][:] = np.eye(d)
            blk["wo"][:] = np.eye(d)
            blk["w1"][:] = 0.0
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(20, d))
        queries = rng.normal(size=(5, d))
        out = cmp.abstractor_compress(feats, queries, blocks, heads=2)
        expected = queries + 2.0 * feats.mean(axis=0)  # one mean per block
        assert np.abs(out - expected).max() < 1e-10

    def test_attention_rows_sum_to_one(self, monkeypatch):
        # abstractor_compress takes no collect; its attention calls are
        # watched through the shared attention step's own collect.
        d = 8
        blocks = cmp.init_abstractor(d, rng=SplitMix64(8))
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(12, d)).astype(np.float32)
        queries = rng.normal(size=(4, d)).astype(np.float32)
        collected = []
        attention = cmp._attention
        monkeypatch.setattr(cmp, "_attention", lambda *args, **kwargs: attention(
            *args, collect=lambda h, a: collected.append(a), **kwargs
        ))
        cmp.abstractor_compress(feats, queries, blocks, heads=2)
        assert len(collected) == 2 * 2  # blocks x heads
        for attn in collected:
            assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-6)

    def test_width_mismatch_rejected(self):
        blocks = cmp.init_abstractor(8, rng=SplitMix64(9))
        with pytest.raises(ShapeError):
            cmp.abstractor_compress(np.zeros((12, 6)), np.zeros((4, 8)), blocks, heads=2)

    def test_output_shape_independent_of_feature_count(self):
        d = 8
        blocks = cmp.init_abstractor(d, rng=SplitMix64(9))
        queries = np.random.default_rng(9).normal(size=(64, d)).astype(np.float32)
        for n in (16, 100, 576):
            feats = np.random.default_rng(n).normal(size=(n, d)).astype(np.float32)
            assert cmp.abstractor_compress(feats, queries, blocks, heads=2).shape == (64, d)

    def test_feature_row_permutation_invariance(self):
        d = 8
        blocks = cmp.init_abstractor(d, rng=SplitMix64(10))
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(30, d)).astype(np.float32)
        queries = rng.normal(size=(6, d)).astype(np.float32)
        base = cmp.abstractor_compress(feats, queries, blocks, heads=2)
        shuffled = cmp.abstractor_compress(feats[rng.permutation(30)], queries, blocks, heads=2)
        assert np.abs(base - shuffled).max() < 1e-5


class TestComparisonRows:
    def test_token_parity(self, paper_cfg):
        for kind in cmp.COMPRESSOR_KINDS:
            row = cmp.comparison_row(kind, paper_cfg)
            assert row["tokens_per_tile"] == 64

    def test_pool_is_parameter_free(self, paper_cfg):
        assert cmp.comparison_row("pool", paper_cfg)["params"] == 0
        abstractor = cmp.comparison_row("abstractor", paper_cfg)
        assert abstractor["params"] > 0

    def test_registers_row_reports_exchange_cost(self, paper_cfg):
        from falcon.oracle import count_flops

        row = cmp.comparison_row("registers", paper_cfg, thumbnail=True)
        assert paper_cfg.max_tiles == 16
        assert row["reatten_flops_total"] == count_flops(paper_cfg, 16, thumbnail=True).reatten

    def test_flops_match_executed_shapes(self, monkeypatch):
        # The abstractor row's flops_per_tile is the multiply-adds of the
        # attention steps and FFNs one abstractor_compress runs, from the
        # shapes of their arguments; the registers row's exchange total is
        # run_macs' with the exchange on.
        cfg = enc.config_with_overrides(enc.PRESETS["tiny"], tile=96, reatten_enabled=False)
        d, n = cfg.width, cfg.n_image_tokens
        macs = []
        attention, ffn_block = cmp._attention, cmp.ffn_block

        def attention_spy(q, weights, heads, collect=None, rows=slice(None), kv=None):
            macs.append(attention_macs(q.shape[0], kv.shape[0], q.shape[1]))
            return attention(q, weights, heads, collect, rows, kv)

        def ffn_spy(x, blk, cfg_):
            macs.append(ffn_macs(x.shape[0], x.shape[1]))
            return ffn_block(x, blk, cfg_)

        monkeypatch.setattr(cmp, "_attention", attention_spy)
        monkeypatch.setattr(cmp, "ffn_block", ffn_spy)
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(n, d)).astype(np.float32)
        queries = rng.normal(size=(cmp.BASELINE_TOKENS, d)).astype(np.float32)
        cmp.abstractor_compress(feats, queries, cmp.init_abstractor(d, SplitMix64(3)), cfg.heads)
        assert len(macs) == 2 * cmp.ABSTRACTOR_DEPTH
        assert sum(macs) == cmp.comparison_row("abstractor", cfg)["flops_per_tile"] == 164_864
        for thumbnail in (True, False):
            row = cmp.comparison_row("registers", cfg, thumbnail)
            on = enc.config_with_overrides(cfg, reatten_enabled=True)
            expected = run_macs(on, cfg.max_tiles, thumbnail)["reatten"]
            assert row["reatten_flops_total"] == expected > 0

    @pytest.mark.parametrize("layers", [1, 3])
    def test_registers_flops_match_executed_shapes(self, monkeypatch, layers):
        # The registers row's flops_per_tile is, per state, the multiply-adds
        # of the self-attention and FFN calls encode runs, from the shapes of
        # their arguments, less a plain ViT's L blocks on the N image rows.
        # At tile 64 (N = 16, M = 4) one layer's pruned last layer saves more
        # than the M rows cost, so that figure is below zero.
        cfg = enc.config_with_overrides(enc.PRESETS["tiny"], tile=64, layers=layers)
        n, d = cfg.n_image_tokens, cfg.width
        macs = []
        attention_block, ffn_block = enc.self_attention_block, enc.ffn_block

        def attention_spy(x, lw, cfg_, collect=None, rows=slice(None)):
            states, n_kv = x.shape[:2]
            macs.append(states * attention_macs(len(range(n_kv)[rows]), n_kv, x.shape[2]))
            return attention_block(x, lw, cfg_, collect, rows)

        def ffn_spy(x, lw, cfg_):
            macs.append(x.shape[0] * ffn_macs(x.shape[1], x.shape[2]))
            return ffn_block(x, lw, cfg_)

        monkeypatch.setattr(enc, "self_attention_block", attention_spy)
        monkeypatch.setattr(enc, "ffn_block", ffn_spy)
        enc.encode(random_tiles(cfg, 2, seed=0), enc.init_weights(cfg, seed=0), cfg)
        per_state, rest = divmod(sum(macs), 3)
        assert rest == 0 and len(macs) == 2 * layers
        figure = per_state - layers * block_macs(n, n, d)
        assert cmp.comparison_row("registers", cfg)["flops_per_tile"] == figure
        assert (figure < 0) == (layers == 1)

    def test_abstractor_params_count_initialized_tensors(self):
        cfg = enc.config_with_overrides(enc.PRESETS["tiny"], width=12, heads=3)
        row = cmp.comparison_row("abstractor", cfg)
        blocks = cmp.init_abstractor(12, SplitMix64(0))
        assert len(blocks) == cmp.ABSTRACTOR_DEPTH == 2
        tensors = [t for b in blocks for t in b.values()]
        assert row["params"] == cmp.BASELINE_TOKENS * 12 + sum(t.size for t in tensors)

    def test_unknown_kind_rejected(self, paper_cfg):
        with pytest.raises(ShapeError):
            cmp.comparison_row("fourier", paper_cfg)
