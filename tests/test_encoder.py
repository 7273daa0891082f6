import copy
import hashlib
import weakref

import numpy as np
import pytest

from falcon import autodiff as ad
from falcon import encoder as enc
from falcon import falt, oracle
from falcon.errors import BoundsError, ConfigError, StateError
from falcon.image_crop import TileSet, normalize_pixels, patchify, plan_crop
from falcon.numerics import layer_norm

from conftest import random_tiles


def zero_logit_weights(cfg, seed=0, dtype=np.float32):
    """Weights with all query/key projections zeroed: attention is uniform."""
    w = enc.init_weights(cfg, seed, dtype)
    for name, tensor in w.items():
        if name.endswith((".wq", ".wk", ".rq", ".rk")):
            tensor[:] = 0.0
    return w


class KeyLog(dict):
    """A weights mapping that records every key read through ``w[key]``."""

    def __init__(self, entries):
        super().__init__(entries)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


def self_attention_rows(tiles, w, cfg):
    """Copies of every self-attention softmax matrix of one encode."""
    full_rows = []

    def collect(layer, tile, head, attn):
        if tile is not None:
            full_rows.append(attn.copy())

    enc.encode(tiles, w, cfg, collect=collect)
    return full_rows


def register_rows(tiles, w, cfg, layer, head):
    """Per-state M x N register-to-image slices of one (layer, head)."""
    n = cfg.n_image_tokens
    rows = []

    def collect(l, tile, h, attn):
        if tile is not None and (l, h) == (layer, head):
            rows.append(attn[n:, :n].copy())

    enc.encode(tiles, w, cfg, collect=collect)
    return rows


class TestConfig:
    def test_presets(self):
        paper = enc.PRESETS["paper"]
        assert paper.n_image_tokens == 576
        assert paper.registers == 64
        assert paper.compression_ratio == 9.0
        tiny = enc.PRESETS["tiny"]
        assert tiny.n_image_tokens == 4
        assert tiny.head_dim == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            enc.EncoderConfig(layers=2, width=9, heads=2, patch=16, tile=32, registers=4)
        with pytest.raises(ConfigError):
            enc.EncoderConfig(layers=2, width=8, heads=2, patch=16, tile=33, registers=4)
        with pytest.raises(ConfigError):
            enc.EncoderConfig(layers=2, width=8, heads=2, patch=16, tile=32, registers=0)


class TestWeights:
    def test_seeded_init_deterministic(self, tiny_cfg):
        a = enc.init_weights(tiny_cfg, seed=3)
        b = enc.init_weights(tiny_cfg, seed=3)
        for name, t in a.items():
            assert t.tobytes() == b[name].tobytes()

    def test_canonical_order_stable(self, tiny_cfg):
        names = [name for name, *_ in enc.tensor_specs(tiny_cfg)]
        assert names[:3] == ["patch_embed", "pos_embed", "registers"]
        assert list(enc.init_weights(tiny_cfg, 0)) == names

    def test_weight_elements_and_cap(self):
        # The count per layer equals the spec list's. The run budget admits
        # the paper preset at 24 layers and a 4096-wide projector, and at 16
        # tiles plus the thumbnail every row; it refuses 2^32 - 1 layers and
        # a 2^15-wide projector.
        for cfg in (enc.PRESETS["tiny"], enc.config_with_overrides(enc.PRESETS["paper"], layers=3)):
            specs = enc.tensor_specs(cfg)
            assert enc.weight_elements(cfg) == sum(int(np.prod(s)) for _, s, *_ in specs)
        paper = enc.PRESETS["paper"]
        assert enc.weight_elements(paper) == 404_242_432 <= enc.MAX_WEIGHT_ELEMENTS
        enc.check_budget(paper, 1)
        with pytest.raises(ConfigError, match="encoder weights.*element cap"):
            enc.check_budget(enc.config_with_overrides(paper, layers=2**32 - 1), 1)
        enc.check_budget(paper, 1, d_llm=4096)
        with pytest.raises(ConfigError, match="projector weights"):
            enc.check_budget(paper, 1, d_llm=2**15)
        enc.check_budget(paper, 16, thumbnail=True, d_llm=4096)

    def test_archive_round_trip(self, tiny_cfg, tiny_weights, tmp_path):
        path = tmp_path / "w.falt"
        enc.save_weights(str(path), tiny_weights, tiny_cfg)
        again = enc.load_weights(str(path), tiny_cfg)
        for name, t in tiny_weights.items():
            assert t.tobytes() == again[name].tobytes()

    def test_load_validates_shapes(self, tiny_cfg, tiny_weights, tmp_path):
        path = tmp_path / "w.falt"
        enc.save_weights(str(path), tiny_weights, tiny_cfg)
        other = enc.config_with_overrides(tiny_cfg, registers=3)
        with pytest.raises(ConfigError):
            enc.load_weights(str(path), other)

    def test_missing_tensor_rejected(self, tiny_cfg, tiny_weights, tmp_path):
        entries = dict(tiny_weights)
        entries.pop("registers")
        path = tmp_path / "w.falt"
        falt.save(str(path), entries)
        with pytest.raises(ConfigError):
            enc.load_weights(str(path), tiny_cfg)

    @pytest.mark.parametrize(
        "dtype, digest",
        [
            (np.float32, "2273ac55f0a0a69174cb9d8f64a51e66af826c59fa8015c49a8a6a70fbe2c0fb"),
            (np.float64, "e7d0fcd59912127d4a66003805e16c68ae2e9db656093c51895a1eca14642d5d"),
        ],
    )
    def test_paper_init_archive_matches_recorded_digest(self, dtype, digest):
        # Recorded from the unchunked draw code; pins the whole paper-width
        # draw stream (every tensor crosses many draw chunks) and its archive.
        cfg = enc.config_with_overrides(enc.PRESETS["paper"], layers=1)
        entries = enc.init_weights(cfg, seed=3, dtype=dtype)
        assert hashlib.sha256(falt.dumps(entries)).hexdigest() == digest


class TestEmbedTiles:
    def test_tiny_shapes(self, tiny_cfg, tiny_weights, tiny_tiles):
        states = enc.embed_tiles(tiny_tiles, tiny_weights, tiny_cfg)
        assert len(states) == 3  # two tiles + thumbnail
        assert all(s.shape == (8, 8) for s in states)

    def test_identical_tiles_identical_states(self, tiny_cfg, tiny_weights, tiny_tiles):
        twin = TileSet([tiny_tiles.tiles[0], tiny_tiles.tiles[0]], tiny_tiles.global_thumb)
        states = enc.embed_tiles(twin, tiny_weights, tiny_cfg)
        assert np.array_equal(states[0], states[1])

    def test_register_rows_shared_at_layer_zero(self, tiny_cfg, tiny_weights, tiny_tiles):
        states = enc.embed_tiles(tiny_tiles, tiny_weights, tiny_cfg)
        n = tiny_cfg.n_image_tokens
        for s in states:
            assert np.array_equal(s[n:], tiny_weights["registers"])

    def test_image_rows_match_formula(self, tiny_cfg, tiny_weights, tiny_tiles):
        states = enc.embed_tiles(tiny_tiles, tiny_weights, tiny_cfg, thumbnail=False)
        tokens = patchify(normalize_pixels(tiny_tiles.tiles[0]), tiny_cfg.patch)
        expected = tokens @ tiny_weights["patch_embed"] + tiny_weights["pos_embed"]
        assert np.allclose(states[0][: tiny_cfg.n_image_tokens], expected, atol=1e-6)

    def test_too_many_tiles_rejected(self, tiny_cfg, tiny_weights):
        crowded = random_tiles(tiny_cfg, tiny_cfg.max_tiles + 1, seed=0)
        with pytest.raises(ConfigError):
            enc.embed_tiles(crowded, tiny_weights, tiny_cfg)

    def test_wrong_tile_shape_rejected(self, tiny_cfg, tiny_weights):
        bad = TileSet([np.zeros((16, 16, 3), np.float32)], np.zeros((32, 32, 3), np.float32))
        with pytest.raises(ConfigError):
            enc.embed_tiles(bad, tiny_weights, tiny_cfg)


class TestSelfAttention:
    def test_zero_logits_give_uniform_attention(self, tiny_cfg, tiny_tiles):
        w = zero_logit_weights(tiny_cfg)
        full_rows = self_attention_rows(tiny_tiles, w, tiny_cfg)
        n_keys = tiny_cfg.n_tokens
        for rows in full_rows:
            assert np.allclose(rows, 1.0 / n_keys, atol=1e-6)

    def test_attention_rows_sum_to_one(self, tiny_cfg, tiny_weights, tiny_tiles):
        full_rows = self_attention_rows(tiny_tiles, tiny_weights, tiny_cfg)
        for rows in full_rows:
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-6)

    def test_block_matches_brute_force(self, tiny_cfg):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(tiny_cfg.n_tokens, tiny_cfg.width))
        w64 = enc.init_weights(tiny_cfg, seed=1, dtype=np.float64)
        lw = enc.block_weights(enc.LayerWeights, w64, "layers.0")
        got = enc.self_attention_block(x, lw, tiny_cfg)
        normed = layer_norm(x, lw.ln1_gamma, lw.ln1_beta, tiny_cfg.ln_eps)
        q, k, v = normed @ lw.wq, normed @ lw.wk, normed @ lw.wv
        dk = tiny_cfg.head_dim
        heads = [
            oracle.brute_force_attention(
                q[:, h * dk : (h + 1) * dk],
                k[:, h * dk : (h + 1) * dk],
                v[:, h * dk : (h + 1) * dk],
            )
            for h in range(tiny_cfg.heads)
        ]
        expected = x + np.hstack(heads) @ lw.wo
        assert np.abs(got - expected).max() < 1e-10


class TestReatten:
    def test_disabled_is_bitwise_identity(self, tiny_cfg, tiny_weights, tiny_tiles):
        # Disabled, the returned rows are the input register rows, bit for bit.
        states = enc.embed_tiles(tiny_tiles, tiny_weights, tiny_cfg)
        before = [s.copy() for s in states]
        rw = enc.block_weights(enc.ReattenWeights, tiny_weights, "reatten.0")
        out = enc.reatten(states, rw, tiny_cfg, enabled=False)
        expected = np.concatenate([s[tiny_cfg.n_image_tokens :] for s in before], axis=0)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert all(np.array_equal(s, b) for s, b in zip(states, before))

    def test_uniform_attention_closed_form(self, tiny_cfg):
        # One tile, no thumbnail, zero q/k, identity v/o, pass-through affine:
        # every register row gains the column mean of the normalized registers.
        d = tiny_cfg.width
        rw = enc.ReattenWeights(
            ln_gamma=np.ones(d, np.float64),
            ln_beta=np.zeros(d, np.float64),
            rq=np.zeros((d, d)),
            rk=np.zeros((d, d)),
            rv=np.eye(d),
            ro=np.eye(d),
        )
        rng = np.random.default_rng(9)
        state = rng.normal(size=(tiny_cfg.n_tokens, d))
        before = state.copy()
        out = enc.reatten([state], rw, tiny_cfg, enabled=True)
        n = tiny_cfg.n_image_tokens
        regs = state[n:]
        expected = regs + layer_norm(
            regs, rw.ln_gamma, rw.ln_beta, tiny_cfg.ln_eps
        ).mean(axis=0)
        # Image-token rows are untouched: the input state is left as it was.
        assert np.array_equal(state, before)
        assert out.shape == (tiny_cfg.registers, d)
        assert np.abs(out - expected).max() < 1e-10

    def test_tile_permutation_equivariance(self, tiny_cfg, tiny_weights):
        # After one self-attention block every tile's register rows differ,
        # so a mismatched slice would show.
        tiles = random_tiles(tiny_cfg, 3, seed=4)
        lw = enc.block_weights(enc.LayerWeights, tiny_weights, "layers.0")
        states = [
            enc.self_attention_block(s, lw, tiny_cfg)
            for s in enc.embed_tiles(tiles, tiny_weights, tiny_cfg, thumbnail=False)
        ]
        rw = enc.block_weights(enc.ReattenWeights, tiny_weights, "reatten.0")
        m = tiny_cfg.registers
        assert not np.allclose(states[0][-m:], states[1][-m:])
        base = enc.reatten(states, rw, tiny_cfg)
        perm = [2, 0, 1]
        swapped = enc.reatten([states[i] for i in perm], rw, tiny_cfg)
        assert swapped.shape == base.shape == (3 * m, tiny_cfg.width)
        for new_pos, old_pos in enumerate(perm):
            got = swapped[new_pos * m : (new_pos + 1) * m]
            want = base[old_pos * m : (old_pos + 1) * m]
            assert np.abs(got - want).max() < 1e-5

    def test_mismatched_states_rejected(self, tiny_cfg, tiny_weights):
        a = np.zeros((8, 8), np.float32)
        b = np.zeros((7, 8), np.float32)
        with pytest.raises(StateError):
            enc.reatten(
                [a, b], enc.block_weights(enc.ReattenWeights, tiny_weights, "reatten.0"), tiny_cfg
            )


class TestFfn:
    def test_zero_w1_is_exact_identity(self, tiny_cfg, tiny_weights):
        lw = copy.deepcopy(enc.block_weights(enc.LayerWeights, tiny_weights, "layers.0"))
        lw.w1[:] = 0.0
        x = np.random.default_rng(2).normal(size=(8, 8)).astype(np.float32)
        out = enc.ffn_block(x, lw, tiny_cfg)
        assert np.array_equal(out, x)

    def test_row_permutation_commutes(self, tiny_cfg, tiny_weights):
        lw = enc.block_weights(enc.LayerWeights, tiny_weights, "layers.0")
        x = np.random.default_rng(3).normal(size=(8, 8)).astype(np.float32)
        perm = np.random.default_rng(4).permutation(8)
        assert np.array_equal(
            enc.ffn_block(x, lw, tiny_cfg)[perm], enc.ffn_block(x[perm], lw, tiny_cfg)
        )


class TestEncode:
    def test_token_budget(self, tiny_cfg, tiny_weights):
        for n_tiles in (1, 2, 5, 16):
            tiles = random_tiles(tiny_cfg, n_tiles, seed=n_tiles)
            f_hr = enc.encode(tiles, tiny_weights, tiny_cfg)
            assert f_hr.shape == (tiny_cfg.registers * (n_tiles + 1), tiny_cfg.width)
            solo = enc.encode(tiles, tiny_weights, tiny_cfg, thumbnail=False)
            assert solo.shape == (tiny_cfg.registers * n_tiles, tiny_cfg.width)

    def test_reatten_off_independence_bitwise(self, tiny_cfg, tiny_weights):
        cfg = enc.config_with_overrides(tiny_cfg, reatten_enabled=False)
        tiles = random_tiles(cfg, 3, seed=8)
        joint = enc.encode(tiles, tiny_weights, cfg, thumbnail=False)
        m = cfg.registers
        for i, tile in enumerate(tiles.tiles):
            solo = enc.encode(
                TileSet([tile], tiles.global_thumb), tiny_weights, cfg, thumbnail=False
            )
            assert solo.tobytes() == joint[i * m : (i + 1) * m].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reatten_on", [True, False])
    @pytest.mark.parametrize("thumbnail", [True, False])
    def test_one_generation_of_states(self, tiny_cfg, monkeypatch, dtype, reatten_on, thumbnail):
        # Entering state k of a layer's block loop, the inputs of that loop's
        # states 0..k-1 are already freed: each result replaced its input.
        cfg = enc.config_with_overrides(tiny_cfg, reatten_enabled=reatten_on)
        w = enc.init_weights(cfg, seed=0, dtype=dtype)
        inputs = {}  # (block, layer) -> weakrefs to that loop's inputs so far

        def watch(block, fn):
            def wrapper(x, lw, cfg, *rest):
                layer = next(i for i in range(cfg.layers) if lw.wq is w[f"layers.{i}.wq"])
                earlier = inputs.setdefault((block, layer), [])
                alive = [k for k, ref in enumerate(earlier) if ref() is not None]
                assert not alive, f"{block} layer {layer}: inputs of states {alive} still alive"
                earlier.append(weakref.ref(x))
                return fn(x, lw, cfg, *rest)

            return wrapper

        monkeypatch.setattr(enc, "self_attention_block", watch("attention", enc.self_attention_block))
        monkeypatch.setattr(enc, "ffn_block", watch("ffn", enc.ffn_block))
        f_hr = enc.encode(random_tiles(cfg, 3, seed=1), w, cfg, thumbnail=thumbnail)
        n_states = 3 + thumbnail
        assert f_hr.dtype == dtype and f_hr.shape == (cfg.registers * n_states, cfg.width)
        assert {key: len(refs) for key, refs in inputs.items()} == {
            (block, layer): n_states for block in ("attention", "ffn") for layer in range(cfg.layers)
        }

    def test_reads_weights_one_layer_at_a_time(self, tiny_cfg, tiny_weights, tiny_tiles):
        # What ROADMAP item 1 builds on: a mapping that reads its entries on
        # demand serves a forward that holds one layer's weights at a time.
        stem = {"patch_embed", "pos_embed", "registers"}
        assert tiny_cfg.layers == 2
        w = KeyLog(tiny_weights)
        enc.encode(tiny_tiles, w, enc.config_with_overrides(tiny_cfg, layers=1))
        layer0 = {name for name in tiny_weights if name.startswith(("layers.0.", "reatten.0."))}
        assert set(w.read) == stem | layer0
        w = KeyLog(tiny_weights)
        enc.encode(tiny_tiles, w, tiny_cfg)
        layers = [int(name.split(".")[1]) for name in w.read if name not in stem]
        assert set(layers) == {0, 1} and layers == sorted(layers)

    def test_permutation_equivariance(self, tiny_cfg, tiny_weights):
        tiles = random_tiles(tiny_cfg, 4, seed=12)
        base = enc.encode(tiles, tiny_weights, tiny_cfg)
        perm = [3, 1, 0, 2]
        swapped = enc.encode(
            TileSet([tiles.tiles[i] for i in perm], tiles.global_thumb),
            tiny_weights,
            tiny_cfg,
        )
        m = tiny_cfg.registers
        for new_pos, old_pos in enumerate(perm):
            assert (
                np.abs(
                    swapped[new_pos * m : (new_pos + 1) * m]
                    - base[old_pos * m : (old_pos + 1) * m]
                ).max()
                < 1e-5
            )
        # Thumbnail block (last) is unchanged up to the same tolerance.
        assert np.abs(swapped[-m:] - base[-m:]).max() < 1e-5

    def test_paper_forward_matches_recorded_digest(self):
        # The tiny goldens run every kernel as one row block; at paper
        # geometry softmax (640 x 640), layer norm (640 x 1024) and GeLU
        # (640 x 4096) each span many blocks with a partial last one.
        cfg = enc.config_with_overrides(enc.PRESETS["paper"], layers=1)
        f_hr = enc.encode(random_tiles(cfg, 1, seed=0), enc.init_weights(cfg, seed=3), cfg)
        assert f_hr.dtype == np.float32 and f_hr.shape == (2 * cfg.registers, cfg.width)
        digest = hashlib.sha256(f_hr.tobytes()).hexdigest()
        assert digest == "5cd3a8160bf3b2d3a52ae9b4061cf5626a6837681af1407c06bdeffe6b491ddd"

    def test_parameter_gradients_loss_matches_encode(
        self, tiny_cfg, tiny_weights_f64, tiny_tiles
    ):
        loss, grads = enc.parameter_gradients(tiny_tiles, tiny_weights_f64, tiny_cfg)
        f_hr = enc.encode(tiny_tiles, tiny_weights_f64, tiny_cfg)
        assert loss == pytest.approx(float(f_hr.sum()), rel=1e-12)
        assert set(grads) == {name for name, *_ in enc.tensor_specs(tiny_cfg)}


class TestConcat:
    def test_gradient_splits_at_seams(self):
        rng = np.random.default_rng(3)
        for axis in (0, 1):
            parts = [ad.Var(rng.normal(size=(2, 3))), rng.normal(size=(2, 3)),
                     ad.Var(rng.normal(size=(2, 3)))]
            joined = ad.concat(parts, axis)
            assert np.array_equal(
                joined.value, np.concatenate([ad.value_of(p) for p in parts], axis)
            )
            weight = rng.normal(size=joined.value.shape)
            ad.total(joined * weight).backward()
            first, _, last = np.split(weight, 3, axis=axis)
            assert np.array_equal(parts[0].grad, first)
            assert np.array_equal(parts[2].grad, last)


class TestReattenInit:
    def test_copy_is_bitwise(self, tiny_cfg):
        w = enc.init_reatten_from_vit(enc.init_weights(tiny_cfg, seed=2))
        for layer in range(tiny_cfg.layers):
            lw = enc.block_weights(enc.LayerWeights, w, f"layers.{layer}")
            rw = enc.block_weights(enc.ReattenWeights, w, f"reatten.{layer}")
            assert rw.rq.tobytes() == lw.wq.tobytes()
            assert rw.rk.tobytes() == lw.wk.tobytes()
            assert rw.rv.tobytes() == lw.wv.tobytes()
            assert rw.ro.tobytes() == lw.wo.tobytes()
            assert rw.ln_gamma.tobytes() == lw.ln1_gamma.tobytes()
            assert rw.ln_beta.tobytes() == lw.ln1_beta.tobytes()

    def test_mutation_independence(self, tiny_cfg):
        w = enc.init_reatten_from_vit(enc.init_weights(tiny_cfg, seed=2))
        before = w["layers.0.wq"].copy()
        w["reatten.0.rq"][:] = 123.0
        assert np.array_equal(w["layers.0.wq"], before)

    def test_post_init_encode_differs_from_reatten_off(self, tiny_cfg, tiny_tiles):
        w = enc.init_reatten_from_vit(enc.init_weights(tiny_cfg, seed=2))
        on = enc.encode(tiny_tiles, w, tiny_cfg)
        off = enc.encode(
            tiny_tiles, w, enc.config_with_overrides(tiny_cfg, reatten_enabled=False)
        )
        assert np.abs(on - off).max() > 1e-4


class TestAttentionHook:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reatten_on", [True, False])
    @pytest.mark.parametrize("thumbnail", [True, False])
    def test_calls_in_forward_order(self, tiny_cfg, dtype, reatten_on, thumbnail):
        cfg = enc.config_with_overrides(tiny_cfg, reatten_enabled=reatten_on)
        w = enc.init_weights(cfg, seed=0, dtype=dtype)
        tiles = random_tiles(cfg, 3, seed=21)
        calls = []

        def collect(layer, tile, head, attn):
            calls.append((layer, tile, head, attn.shape, attn.dtype))

        f_hr = enc.encode(tiles, w, cfg, thumbnail=thumbnail, collect=collect)
        t = len(tiles.tiles) + thumbnail
        rows, mt = cfg.n_tokens, cfg.registers * t
        expected = []
        for layer in range(cfg.layers):
            expected += [
                (layer, k, h, (rows, rows), np.dtype(dtype))
                for k in range(t)
                for h in range(cfg.heads)
            ]
            if reatten_on:
                expected += [(layer, None, h, (mt, mt), np.dtype(dtype)) for h in range(cfg.heads)]
        assert calls == expected
        self_calls = [c for c in calls if c[1] is not None]
        assert len(self_calls) == cfg.layers * cfg.heads * t
        assert len(calls) - len(self_calls) == (cfg.layers * cfg.heads if reatten_on else 0)
        assert f_hr.tobytes() == enc.encode(tiles, w, cfg, thumbnail=thumbnail).tobytes()


class TestRegisterAttentionExtraction:
    def test_heatmap_dims_for_wide_plan(self):
        plan = plan_crop(1500, 2000, 384, 16)
        tile_rows = [np.full((64, 576), 1.0 / 640, np.float32) for _ in range(plan.n_tiles)]
        heat = enc.extract_register_attention(tile_rows, 7, plan)
        assert heat.shape == (72, 120)

    def test_values_in_unit_interval(self, tiny_cfg, tiny_weights):
        tiles = random_tiles(tiny_cfg, 4, seed=13)
        plan = plan_crop(64, 64, tiny_cfg.tile, tiny_cfg.max_tiles)
        tile_rows = register_rows(tiles, tiny_weights, tiny_cfg, 1, 0)
        heat = enc.extract_register_attention(tile_rows, 0, plan)
        assert heat.min() >= 0.0 and heat.max() <= 1.0

    def test_zero_logit_heatmap_uniform(self, tiny_cfg):
        w = zero_logit_weights(tiny_cfg)
        tiles = random_tiles(tiny_cfg, 4, seed=14)
        plan = plan_crop(64, 64, tiny_cfg.tile, tiny_cfg.max_tiles)
        tile_rows = register_rows(tiles, w, tiny_cfg, 0, 1)
        heat = enc.extract_register_attention(tile_rows, 2, plan)
        assert np.allclose(heat, 1.0 / tiny_cfg.n_tokens, atol=1e-7)

    def test_bad_indices_rejected(self, tiny_cfg, tiny_weights):
        tiles = random_tiles(tiny_cfg, 1, seed=15)
        plan = plan_crop(32, 32, tiny_cfg.tile, tiny_cfg.max_tiles)
        with pytest.raises(BoundsError):
            enc.extract_register_attention(
                register_rows(tiles, tiny_weights, tiny_cfg, 0, 0), 99, plan
            )
        with pytest.raises(BoundsError):
            enc.extract_register_attention(
                register_rows(tiles, tiny_weights, tiny_cfg, 9, 0), 0, plan
            )
