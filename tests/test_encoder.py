import copy
import hashlib
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from falcon import autodiff as ad
from falcon import encoder as enc
from falcon import falt, numerics, oracle
from falcon.errors import ArchiveError, BoundsError, ConfigError
from falcon.image_crop import TileSet, normalize_pixels, patchify, plan_crop
from falcon.numerics import SplitMix64, init_uniform, layer_norm

from conftest import random_tiles


def zero_logit_weights(cfg, seed=0, dtype=np.float32):
    """Weights with all query/key projections zeroed: attention is uniform."""
    w = enc.init_weights(cfg, seed, dtype)
    for name, tensor in w.items():
        if name.endswith((".wq", ".wk", ".rq", ".rk")):
            tensor[:] = 0.0
    return w


def _per_entry(spec, rng, dtype):
    """One (shape, fan_in, fan_out, init) entry drawn alone: init_uniform
    cast to ``dtype``, or ones or zeros."""
    shape, fan_in, fan_out, kind = spec
    if kind == "uniform":
        return init_uniform(shape, fan_in, fan_out, rng).astype(dtype)
    return (np.ones if kind == "ones" else np.zeros)(shape, dtype=dtype)


class KeyLog(dict):
    """A weights mapping that records every key read through ``w[key]``."""

    def __init__(self, entries):
        super().__init__(entries)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


def force_group_size(monkeypatch, cfg, dtype, g):
    """Make ``embed_tiles`` and ``encode`` run on groups of ``g`` states."""
    per_state = max(enc.state_elements(cfg)) * np.dtype(dtype).itemsize
    monkeypatch.setattr(numerics, "_BLOCK_BYTES", g * per_state)


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
            rows.append(attn[-cfg.registers :, :n].copy())

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
        assert tiny.width // tiny.heads == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            enc.EncoderConfig(layers=2, width=9, heads=2, patch=16, tile=32, registers=4)
        with pytest.raises(ConfigError):
            enc.EncoderConfig(layers=2, width=8, heads=2, patch=16, tile=33, registers=4)
        with pytest.raises(ConfigError):
            enc.EncoderConfig(layers=2, width=8, heads=2, patch=16, tile=32, registers=0)


CHUNK = numerics._CHUNK


class TestWeights:
    def test_seeded_init_deterministic(self, tiny_cfg):
        a = enc.init_weights(tiny_cfg, seed=3)
        b = enc.init_weights(tiny_cfg, seed=3)
        for name, t in a.items():
            assert t.tobytes() == b[name].tobytes()

    @pytest.mark.parametrize("width", [8, 64])
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 7])
    def test_float64_init_casts_to_float32_init(self, tiny_cfg, width, seed):
        # The selftest draws float64 weights and casts them for its float32
        # checks; that is the float32 init, byte for byte.
        cfg = enc.config_with_overrides(tiny_cfg, width=width)
        w32 = enc.init_weights(cfg, seed, np.float32)
        w64 = enc.init_weights(cfg, seed, np.float64)
        assert list(w32) == list(w64)
        for name, t in w64.items():
            assert t.dtype == np.float64
            assert t.astype(np.float32).tobytes() == w32[name].tobytes(), name

    @pytest.mark.parametrize("width", [8, 64, 128])
    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_runs_match_per_tensor_init(self, tiny_cfg, width, seed, dtype):
        # The one fill gives each entry init_uniform's bytes cast to dtype,
        # drawn one entry at a time in tensor_specs order. At width 128, w1
        # and w2 each span more than one draw chunk.
        cfg = enc.config_with_overrides(tiny_cfg, width=width)
        rng = SplitMix64(seed)
        ref = {name: _per_entry(spec, rng, dtype) for name, *spec in enc.tensor_specs(cfg)}
        got = enc.init_weights(cfg, seed, dtype)
        assert list(got) == list(ref)
        for name, t in ref.items():
            assert got[name].dtype == dtype and got[name].shape == t.shape, name
            assert got[name].tobytes() == t.tobytes(), name

    @pytest.mark.parametrize(
        "sizes",
        [[CHUNK], [CHUNK + 1], [CHUNK - 1, 1, 1], [5, CHUNK, 7], [3, CHUNK + 1, 4, 6],
         [4, 0, CHUNK, 0], [2 * CHUNK + 3]],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_draws_straddle_chunk_edges(self, sizes, dtype):
        # Entries whose draws cross the stream's chunk edges, a zero-size
        # entry and non-drawing entries between draws keep each entry's
        # init_uniform bytes and the final generator state. Each pair of
        # entries shares a bound, which is scaled as one slice, and the next
        # pair's differs.
        specs = []
        for i, n in enumerate(sizes):
            specs += [(f"u{i}", (n,), 3, 5 + i // 2 % 2, "uniform"),
                      (f"c{i}", (2,), 1, 1, ("ones", "zeros")[i % 2])]
        rng = SplitMix64(11)
        ref = {name: _per_entry(spec, rng, dtype) for name, *spec in specs}
        got_rng = SplitMix64(11)
        got = enc.init_tensors(specs, got_rng, dtype)
        assert list(got) == list(ref)
        assert [(g.dtype, g.shape) for g in got.values()] == [(r.dtype, r.shape) for r in ref.values()]
        assert [g.tobytes() for g in got.values()] == [r.tobytes() for r in ref.values()]
        assert got_rng.state == rng.state

    def test_init_peak_near_output_size(self):
        # The draws go straight into the float32 output a chunk at a time,
        # with no float64 copy of the tensor.
        n = 1 << 20
        tracemalloc.start()
        try:
            enc.init_tensors([("w", (n,), 64, 64, "uniform")], SplitMix64(0), np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 4 * n

    def test_init_page_faults_near_one_allocation(self):
        # In a fresh process, drawing one 2^23-entry float32 tensor faults in
        # about as many pages as np.ones of that size: the chunk scratch is
        # allocated once, not mapped and unmapped per chunk.
        script = """
import resource
import numpy as np
from falcon import encoder as enc
from falcon.numerics import SplitMix64

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

n = 1 << 23
enc.init_tensors([("w", (8,), 4, 4, "uniform")], SplitMix64(1), np.float32)
before = faults()
w = enc.init_tensors([("w", (n,), 64, 64, "uniform")], SplitMix64(0), np.float32)
drawn = faults() - before
del w
before = faults()
ones = np.ones(n, np.float32)
print(drawn, faults() - before)
"""
        env = dict(os.environ)
        src = str(Path(enc.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, check=True, text=True
        )
        drawn, ones = map(int, proc.stdout.split())
        assert drawn <= ones + 1024, (drawn, ones)

    def test_canonical_order_stable(self, tiny_cfg):
        names = [name for name, *_ in enc.tensor_specs(tiny_cfg)]
        assert names[:3] == ["patch_embed", "pos_embed", "registers"]
        assert list(enc.init_weights(tiny_cfg, 0)) == names

    def test_block_weights_are_the_mapping_entries(self, tiny_cfg, tiny_weights):
        d = tiny_cfg.width
        for specs, kind in ((enc.layer_specs(d), "layers"), (enc.reatten_specs(d), "reatten")):
            block = enc.block_weights(specs, tiny_weights, f"{kind}.1")
            assert list(block) == [field for field, *_ in specs]
            assert all(block[field] is tiny_weights[f"{kind}.1.{field}"] for field in block)

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
        # At width 4096 with 4096 registers, a 1-tile run passes every other
        # row (its exchange matrix is exactly the cap), but one state's FFN
        # hidden array holds (576 + 4096) * 4 * 4096 elements.
        wide = enc.config_with_overrides(paper, width=4096, registers=4096, layers=1)
        with pytest.raises(ConfigError, match="one state's FFN hidden array: 76546048 elements"):
            enc.check_budget(wide, 1)

    @pytest.mark.parametrize("d_llm", [-5, 0])
    def test_budget_refuses_nonpositive_d_llm(self, d_llm):
        with pytest.raises(ConfigError, match=f"^d_llm must be >= 1, got {d_llm}$"):
            enc.check_budget(enc.PRESETS["tiny"], 2, d_llm=d_llm)

    @pytest.mark.parametrize("thumbnail", [True, False])
    def test_pixel_row_counts_three_channels(self, thumbnail):
        # One 1024-pixel patch per tile leaves the cropped pixels the only row
        # near its cap. The crop builds the thumbnail either way: 20 tiles
        # are 21 * 1024^2 * 3 = 66,060,288 elements, within 2^26; 21 tiles
        # are over it.
        cfg = enc.EncoderConfig(layers=1, width=1, heads=1, patch=1024, tile=1024, registers=1)
        enc.check_budget(cfg, 20, thumbnail)
        assert 21 * 1024**2 * 3 == 66_060_288 <= enc.MAX_STATE_ELEMENTS
        with pytest.raises(ConfigError, match="^cropped pixels: 69206016 elements"):
            enc.check_budget(cfg, 21, thumbnail)

    def test_archive_round_trip(self, tiny_cfg, tiny_weights, tmp_path):
        path = tmp_path / "w.falt"
        enc.save_weights(str(path), tiny_weights, tiny_cfg)
        again = enc.load_weights(str(path), tiny_cfg, np.float32)
        for name, t in tiny_weights.items():
            assert t.tobytes() == again[name].tobytes()

    def test_load_validates_shapes(self, tiny_cfg, tiny_weights, tmp_path):
        path = tmp_path / "w.falt"
        enc.save_weights(str(path), tiny_weights, tiny_cfg)
        other = enc.config_with_overrides(tiny_cfg, registers=3)
        with pytest.raises(ConfigError):
            enc.load_weights(str(path), other, np.float32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_reads_on_access(self, tiny_cfg, tiny_weights, tmp_path, monkeypatch, dtype):
        # Loading reads the index only; each lookup reads one entry, casts it
        # to ``dtype`` and iterates in tensor_specs order.
        path = tmp_path / "w.falt"
        enc.save_weights(str(path), tiny_weights, tiny_cfg)
        reads = []
        read_entry = falt.read_entry
        monkeypatch.setattr(falt, "read_entry", lambda p, e: reads.append(e) or read_entry(p, e))
        w = enc.load_weights(str(path), tiny_cfg, dtype)
        assert reads == [] and list(w) == [name for name, *_ in enc.tensor_specs(tiny_cfg)]
        got = w["layers.1.w2"]
        assert len(reads) == 1 and got.dtype == dtype
        assert np.array_equal(got, tiny_weights["layers.1.w2"])

    def test_truncated_after_load_refused(self, tiny_cfg, tiny_weights, tmp_path):
        # The file shrinks after the index was read: a later entry is refused
        # as truncated, neither a numpy error nor a short array.
        path = tmp_path / "w.falt"
        enc.save_weights(str(path), tiny_weights, tiny_cfg)
        w = enc.load_weights(str(path), tiny_cfg, np.float32)
        data = path.read_bytes()
        assert w["patch_embed"].tobytes() == tiny_weights["patch_embed"].tobytes()
        for size in (len(data) - 1, len(data) // 2):
            path.write_bytes(data[:size])
            with pytest.raises(ArchiveError, match="truncated archive") as info:
                w["reatten.1.ro"]
            assert info.value.exit_code == 3

    def test_missing_tensor_rejected(self, tiny_cfg, tiny_weights, tmp_path):
        entries = dict(tiny_weights)
        entries.pop("registers")
        path = tmp_path / "w.falt"
        falt.save(str(path), entries)
        with pytest.raises(ConfigError):
            enc.load_weights(str(path), tiny_cfg, np.float32)

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
        twin = TileSet(tiny_tiles.raster[[0, 0, -1]])
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

    @pytest.mark.parametrize("exchange", [True, False], ids=["exchange-on", "exchange-off"])
    def test_zero_states_refused_before_reading_weights(self, tiny_cfg, tiny_weights, exchange):
        # A thumbnail alone, with the thumbnail off, leaves no state to
        # encode: refused before a weight is read, with the exchange on or off.
        cfg = enc.config_with_overrides(tiny_cfg, reatten_enabled=exchange)
        alone = TileSet(oracle.fixture_tiles(cfg, 1, seed=0).raster[[-1]])
        w = KeyLog(tiny_weights)
        with pytest.raises(ConfigError, match="^no state to encode"):
            enc.encode(alone, w, cfg, thumbnail=False)
        assert w.read == []

    def test_wrong_tile_shape_rejected(self, tiny_cfg, tiny_weights):
        # A raster of the wrong side, and one with the wrong channel count.
        for shape in ((2, 16, 16, 3), (2, 32, 32, 1)):
            with pytest.raises(ConfigError):
                enc.embed_tiles(TileSet(np.zeros(shape, np.float32)), tiny_weights, tiny_cfg)


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

    @pytest.mark.parametrize(
        "rows",
        [slice(None), slice(enc.PRESETS["tiny"].n_image_tokens, None)],
        ids=["all-rows", "register-rows"],
    )
    def test_block_matches_brute_force(self, tiny_cfg, rows):
        # The register rows are the last layer's queries: M rows over N+M keys.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(tiny_cfg.n_tokens, tiny_cfg.width))
        w64 = enc.init_weights(tiny_cfg, seed=1, dtype=np.float64)
        lw = enc.block_weights(enc.layer_specs(tiny_cfg.width), w64, "layers.0")
        got = enc.self_attention_block(x, lw, tiny_cfg, None, rows)
        normed = layer_norm(x, lw["ln1_gamma"], lw["ln1_beta"])
        q, k, v = normed[rows] @ lw["wq"], normed @ lw["wk"], normed @ lw["wv"]
        dk = tiny_cfg.width // tiny_cfg.heads
        heads = [
            oracle.brute_force_attention(
                q[:, h * dk : (h + 1) * dk],
                k[:, h * dk : (h + 1) * dk],
                v[:, h * dk : (h + 1) * dk],
            )
            for h in range(tiny_cfg.heads)
        ]
        expected = x[rows] + np.hstack(heads) @ lw["wo"]
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() < 1e-10


class TestReatten:
    def test_disabled_is_skipped(self, tiny_cfg, tiny_weights, tiny_tiles, monkeypatch):
        # Disabled, encode makes no exchange call: each layer's self-attention
        # output goes straight to its FFN, bit for bit.
        cfg = enc.config_with_overrides(tiny_cfg, reatten_enabled=False)

        def fail(*args, **kwargs):
            raise AssertionError("reatten called with the exchange off")

        monkeypatch.setattr(enc, "reatten", fail)
        f_hr = enc.encode(tiny_tiles, tiny_weights, cfg)
        states = enc.embed_tiles(tiny_tiles, tiny_weights, cfg)
        for layer in range(cfg.layers):
            lw = enc.block_weights(enc.layer_specs(cfg.width), tiny_weights, f"layers.{layer}")
            states = enc.ffn_block(enc.self_attention_block(states, lw, cfg), lw, cfg)
        expected = states[:, cfg.n_image_tokens :].reshape(-1, cfg.width)
        assert f_hr.dtype == expected.dtype
        assert f_hr.tobytes() == expected.tobytes()

    def test_uniform_attention_closed_form(self, tiny_cfg):
        # One tile, no thumbnail, zero q/k, identity v/o, pass-through affine:
        # every register row gains the column mean of the normalized registers.
        d = tiny_cfg.width
        rw = {
            "ln_gamma": np.ones(d, np.float64),
            "ln_beta": np.zeros(d, np.float64),
            "rq": np.zeros((d, d)),
            "rk": np.zeros((d, d)),
            "rv": np.eye(d),
            "ro": np.eye(d),
        }
        rng = np.random.default_rng(9)
        state = rng.normal(size=(tiny_cfg.n_tokens, d))
        before = state.copy()
        out = enc.reatten(np.stack([state]), rw, tiny_cfg)
        n = tiny_cfg.n_image_tokens
        regs = state[n:]
        expected = regs + layer_norm(regs, rw["ln_gamma"], rw["ln_beta"]).mean(axis=0)
        # Image-token rows are untouched: the input state is left as it was.
        assert np.array_equal(state, before)
        assert out.shape == (tiny_cfg.registers, d)
        assert np.abs(out - expected).max() < 1e-10

    def test_tile_permutation_equivariance(self, tiny_cfg, tiny_weights):
        # After one self-attention block every tile's register rows differ,
        # so a mismatched slice would show.
        tiles = random_tiles(tiny_cfg, 3, seed=4)
        lw = enc.block_weights(enc.layer_specs(tiny_cfg.width), tiny_weights, "layers.0")
        states = np.stack([
            enc.self_attention_block(s, lw, tiny_cfg)
            for s in enc.embed_tiles(tiles, tiny_weights, tiny_cfg, thumbnail=False)
        ])
        rw = enc.block_weights(enc.reatten_specs(tiny_cfg.width), tiny_weights, "reatten.0")
        m = tiny_cfg.registers
        assert not np.allclose(states[0][-m:], states[1][-m:])
        base = enc.reatten(states, rw, tiny_cfg)
        perm = [2, 0, 1]
        swapped = enc.reatten(np.stack([states[i] for i in perm]), rw, tiny_cfg)
        assert swapped.shape == base.shape == (3 * m, tiny_cfg.width)
        for new_pos, old_pos in enumerate(perm):
            got = swapped[new_pos * m : (new_pos + 1) * m]
            want = base[old_pos * m : (old_pos + 1) * m]
            assert np.abs(got - want).max() < 1e-5

    def test_exchange_temporaries_bounded(self):
        # 17 states of 64 registers at width 512 and 8 heads: the exchange
        # holds the joined rows, Q, K, V and the head outputs (five arrays of
        # 1088 x 512), one head's softmax matrix at a time, and no normed rows
        # past K and V. It held seven row arrays and two matrices before.
        cfg = enc.EncoderConfig(layers=1, width=512, heads=8, patch=16, tile=16, registers=64)
        states = np.random.default_rng(3).standard_normal((17, cfg.n_tokens, 512), np.float32)
        rw = enc.block_weights(enc.reatten_specs(512), enc.init_weights(cfg, 0), "reatten.0")
        rows = 17 * cfg.registers
        tracemalloc.start()
        try:
            enc.reatten(states, rw, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (5 * rows * 512 + rows * rows) + 2**20, peak


class TestFfn:
    def test_zero_w1_is_exact_identity(self, tiny_cfg, tiny_weights):
        lw = enc.block_weights(enc.layer_specs(tiny_cfg.width), tiny_weights, "layers.0")
        lw = copy.deepcopy(lw)
        lw["w1"][:] = 0.0
        x = np.random.default_rng(2).normal(size=(8, 8)).astype(np.float32)
        out = enc.ffn_block(x, lw, tiny_cfg)
        assert np.array_equal(out, x)

    def test_row_permutation_commutes(self, tiny_cfg, tiny_weights):
        lw = enc.block_weights(enc.layer_specs(tiny_cfg.width), tiny_weights, "layers.0")
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
        for i in range(len(tiles.tiles)):
            solo = enc.encode(TileSet(tiles.raster[[i, -1]]), tiny_weights, cfg, thumbnail=False)
            assert solo.tobytes() == joint[i * m : (i + 1) * m].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reatten_on", [True, False])
    @pytest.mark.parametrize("thumbnail", [True, False])
    def test_one_generation_of_states(self, tiny_cfg, monkeypatch, dtype, reatten_on, thumbnail):
        # With groups of one state, entering state k of a layer's block loop,
        # the inputs of that loop's states 0..k-1 are already freed: each
        # result was written over its input. Every input is a view of the one
        # state array.
        monkeypatch.setattr(numerics, "_BLOCK_BYTES", 1)
        cfg = enc.config_with_overrides(tiny_cfg, reatten_enabled=reatten_on)
        w = enc.init_weights(cfg, seed=0, dtype=dtype)
        # Each layer tensor's layer, by identity: ``w`` keeps every tensor alive.
        layer_of = {id(t): int(n.split(".")[1]) for n, t in w.items() if n.startswith("layers.")}
        inputs = {}  # (block, layer) -> weakrefs to that loop's inputs so far
        bases = []  # the array each input is a view of

        def watch(block, fn):
            def wrapper(x, lw, cfg, *rest):
                layer = layer_of[id(next(iter(lw.values())))]
                earlier = inputs.setdefault((block, layer), [])
                alive = [k for k, ref in enumerate(earlier) if ref() is not None]
                assert not alive, f"{block} layer {layer}: inputs of states {alive} still alive"
                earlier.append(weakref.ref(x))
                bases.append(x.base)
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
        assert all(b is bases[0] and b.shape[0] == n_states for b in bases)

    def test_holds_each_block_result_until_the_next(
        self, tiny_cfg, tiny_weights, tiny_tiles, monkeypatch
    ):
        # With groups of one state, each block's result stays bound until
        # the next block call replaces it. Freed at once, a block's
        # temporaries would sit on top of the heap, go back to the OS and
        # fault in again at every group: ten times the page faults of a
        # 16-tile paper encode.
        monkeypatch.setattr(numerics, "_BLOCK_BYTES", 1)
        results, freed = [], []

        def watch(fn):
            def wrapper(*args):
                if results and results[-1]() is None:
                    freed.append(len(results))
                out = fn(*args)
                results.append(weakref.ref(out))
                return out

            return wrapper

        monkeypatch.setattr(enc, "self_attention_block", watch(enc.self_attention_block))
        monkeypatch.setattr(enc, "ffn_block", watch(enc.ffn_block))
        enc.encode(tiny_tiles, tiny_weights, tiny_cfg)
        assert len(results) == 2 * tiny_cfg.layers * len(tiny_tiles.raster) == 12
        assert not freed, f"results freed before block calls {freed}"

    def test_reads_weights_one_layer_at_a_time(self, tiny_cfg, tiny_weights, tiny_tiles):
        # A mapping that reads its entries on demand (``load_weights``)
        # serves a forward that holds one layer's weights at a time, and
        # reads each entry once.
        stem = {"patch_embed", "pos_embed", "registers"}
        assert tiny_cfg.layers == 2
        w = KeyLog(tiny_weights)
        enc.encode(tiny_tiles, w, enc.config_with_overrides(tiny_cfg, layers=1))
        layer0 = {name for name in tiny_weights if name.startswith(("layers.0.", "reatten.0."))}
        assert Counter(w.read) == Counter(stem | layer0)
        w = KeyLog(tiny_weights)
        enc.encode(tiny_tiles, w, tiny_cfg)
        assert Counter(w.read) == Counter(list(tiny_weights))
        layers = [int(name.split(".")[1]) for name in w.read if name not in stem]
        assert set(layers) == {0, 1} and layers == sorted(layers)

    def test_releases_each_layer_before_reading_the_next(self, tiny_cfg, tiny_weights, tiny_tiles):
        # Every lookup returns a fresh copy; when the first layers.1 entry is
        # read, no layer-0 copy may still be alive.
        copies = {}  # name -> weakref to the copy handed out

        class Fresh(dict):
            def __getitem__(self, name):
                if name.startswith("layers.1.") and not any(k.startswith("layers.1.") for k in copies):
                    alive = [k for k, ref in copies.items() if ".0." in k and ref() is not None]
                    assert not alive, f"layer-0 weights still alive: {alive}"
                tensor = super().__getitem__(name).copy()
                copies[name] = weakref.ref(tensor)
                return tensor

        f_hr = enc.encode(tiny_tiles, Fresh(tiny_weights), tiny_cfg)
        assert any(k.startswith("layers.1.") for k in copies)
        assert f_hr.tobytes() == enc.encode(tiny_tiles, tiny_weights, tiny_cfg).tobytes()

    def test_permutation_equivariance(self, tiny_cfg, tiny_weights):
        tiles = random_tiles(tiny_cfg, 4, seed=12)
        base = enc.encode(tiles, tiny_weights, tiny_cfg)
        perm = [3, 1, 0, 2]
        swapped = enc.encode(TileSet(tiles.raster[[*perm, -1]]), tiny_weights, tiny_cfg)
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

    @pytest.mark.parametrize(
        "layers, digest",
        [
            (1, "5cd3a8160bf3b2d3a52ae9b4061cf5626a6837681af1407c06bdeffe6b491ddd"),
            (2, "f1a11f6e4c35d9b39f47b89bf4335a4eb1ce4446a3f5cc8c70f102a4b810d6d1"),
        ],
        ids=["1-layer", "2-layers"],
    )
    def test_paper_forward_matches_recorded_digest(self, layers, digest):
        # The tiny goldens run every kernel as one row block; at paper
        # geometry softmax (640 x 640), layer norm (640 x 1024) and GeLU
        # (640 x 4096) each span many blocks with a partial last one. Both
        # digests were recorded when every layer computed all N+M rows: the
        # last layer, which now computes only the register rows, keeps them,
        # alone and after a full layer.
        cfg = enc.config_with_overrides(enc.PRESETS["paper"], layers=layers)
        f_hr = enc.encode(random_tiles(cfg, 1, seed=0), enc.init_weights(cfg, seed=3), cfg)
        assert f_hr.dtype == np.float32 and f_hr.shape == (2 * cfg.registers, cfg.width)
        assert hashlib.sha256(f_hr.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "overrides",
        [dict(registers=1), dict(width=128, heads=2, registers=9, tile=64)],
        ids=["registers-1", "width-128"],
    )
    def test_pruned_last_layer_meets_oracle_tolerances(self, tiny_cfg, overrides):
        # With one register the query GEMM of the last layer runs as a gemv,
        # and at width 128 OpenBLAS's small-matrix threshold falls between M
        # and N+M rows: both change the last bits of f_hr against a last layer
        # that computes every row. They stay within the selftest's oracle
        # tolerances, 1e-5 in float32 and 1e-10 in float64.
        cfg = enc.config_with_overrides(tiny_cfg, **overrides)
        w32 = enc.init_weights(cfg, seed=0)
        tiles = oracle.fixture_tiles(cfg, 1, seed=0)
        ref, _ = oracle.encode_reference(tiles, w32, cfg, thumbnail=False)
        f32 = enc.encode(tiles, w32, cfg, thumbnail=False)
        w64 = {name: t.astype(np.float64) for name, t in w32.items()}
        f64 = enc.encode(tiles, w64, cfg, thumbnail=False)
        assert np.abs(f32 - ref).max() <= 1e-5
        assert np.abs(f64 - ref).max() <= 1e-10

    @pytest.mark.parametrize("reatten_on", [True, False])
    def test_parameter_gradients_loss_matches_encode(
        self, tiny_cfg, tiny_weights_f64, tiny_tiles, reatten_on
    ):
        # Gradients come back for exactly the tensors the forward read: all
        # 35 with the exchange on, none of the reatten.* ones with it off.
        cfg = enc.config_with_overrides(tiny_cfg, reatten_enabled=reatten_on)
        loss, grads = enc.parameter_gradients(tiny_tiles, tiny_weights_f64, cfg)
        f_hr = enc.encode(tiny_tiles, tiny_weights_f64, cfg)
        assert loss == pytest.approx(float(f_hr.sum()), rel=1e-12)
        names = [name for name, *_ in enc.tensor_specs(cfg)]
        assert len(names) == 35
        assert list(grads) == [n for n in names if reatten_on or not n.startswith("reatten.")]


class TestGroups:
    def test_group_size_from_shapes(self, monkeypatch):
        # A tiny preset state's largest array is its 3 * 32^2 pixels: 12 KiB
        # in float32, so all 17 states fit one 256 KiB group, and 24 KiB in
        # float64, so groups of 10. The paper preset's FFN hidden array is
        # 10 MiB, one state per group.
        def grouped(cfg, dtype, s=17):
            states = np.broadcast_to(np.zeros((), dtype), (s, cfg.n_tokens, cfg.width))
            return [np.arange(s)[grp].tolist() for grp in enc._groups(states, cfg)]

        for name, dtype, g in (("tiny", np.float32, 17), ("tiny", np.float64, 10),
                               ("paper", np.float32, 1)):
            want = [list(range(lo, min(lo + g, 17))) for lo in range(0, 17, g)]
            assert grouped(enc.PRESETS[name], dtype) == want, name
        # At 8192 rows of width 1 one head's softmax stack, not the FFN
        # hidden array, sizes a group: 8192^2 float32 elements (256 MiB) per
        # state, so each state is a group of its own.
        tall = enc.EncoderConfig(layers=1, width=1, heads=1, patch=1, tile=1, registers=8191)
        assert grouped(tall, np.float32, s=2) == [[0], [1]]
        # Groups of 5: the last one holds the 2 states left over.
        force_group_size(monkeypatch, enc.PRESETS["tiny"], np.float32, 5)
        assert grouped(enc.PRESETS["tiny"], np.float32) == [
            [0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10, 11, 12, 13, 14], [15, 16]
        ]

    def test_pixels_size_a_group(self):
        # At 256-pixel tiles of one patch each, a state's 3 * 256^2 float32
        # pixels (768 KiB) are its largest array, though its FFN hidden array
        # and softmax matrix hold a few elements: every state is a group of
        # its own, and the patch embedding normalizes one tile at a time (in
        # one group of 17 its peak was the whole raster again, 12.75 MiB).
        cfg = enc.EncoderConfig(layers=1, width=1, heads=1, patch=256, tile=256, registers=1)
        states = np.broadcast_to(np.zeros((), np.float32), (17, cfg.n_tokens, cfg.width))
        assert enc._groups(states, cfg) == [slice(k, k + 1) for k in range(17)]
        tiles = random_tiles(cfg, 16, seed=0)
        w = enc.init_weights(cfg, seed=0)
        tracemalloc.start()
        try:
            enc.embed_tiles(tiles, w, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reatten_on", [True, False])
    @pytest.mark.parametrize("thumbnail", [True, False])
    def test_split_keeps_bytes(self, tiny_cfg, monkeypatch, dtype, reatten_on, thumbnail):
        # 16 tiles in groups of 1, 2, 5 (a partial last group) and all of
        # them: every output and every softmax matrix is byte-identical. The
        # patch embedding runs on the same groups, so this covers it too.
        cfg = enc.config_with_overrides(tiny_cfg, reatten_enabled=reatten_on)
        w = enc.init_weights(cfg, seed=6, dtype=dtype)
        tiles = random_tiles(cfg, 16, seed=31)
        n_states = 16 + thumbnail
        runs = {}
        for g in (1, 2, 5, n_states):
            force_group_size(monkeypatch, cfg, dtype, g)
            seen = {}

            def collect(layer, tile, head, attn):
                seen[(layer, tile, head)] = attn.tobytes()

            f_hr = enc.encode(tiles, w, cfg, thumbnail=thumbnail, collect=collect)
            runs[g] = (f_hr.tobytes(), seen)
        assert len(runs[1][1]) == cfg.layers * cfg.heads * (n_states + reatten_on)
        assert all(run == runs[n_states] for run in runs.values())

    def test_split_keeps_bytes_at_width_128(self, tiny_cfg, monkeypatch):
        # Here one GEMM over the rows of 5 states would cross BLAS's
        # small-matrix threshold that one state's stays under, and change
        # the bytes; the batched products keep them.
        cfg = enc.config_with_overrides(tiny_cfg, width=128, heads=1)
        w = enc.init_weights(cfg, seed=0)
        tiles = random_tiles(cfg, 4, seed=2)
        whole = enc.encode(tiles, w, cfg)
        force_group_size(monkeypatch, cfg, np.float32, 1)
        assert enc.encode(tiles, w, cfg).tobytes() == whole.tobytes()


def stack_weights(sets):
    """``sets`` as one weights mapping, stacked along a leading axis of
    len(sets) in front of the axes each step batches over: a stem or layer
    tensor (B, 1, r, c), a layer vector (B, 1, 1, D), an exchange tensor
    (B, r, c), an exchange vector (B, 1, D). A tensor every set shares is a
    broadcast view."""
    out = {}
    for name in sets[0]:
        tensors = [w[name] for w in sets]
        ndim = 3 if name.startswith("reatten.") else 4
        shape = (len(sets), *[1] * (ndim - 1 - tensors[0].ndim), *tensors[0].shape)
        if all(t is tensors[0] for t in tensors):
            out[name] = np.broadcast_to(tensors[0], shape)
        else:
            out[name] = np.stack(tensors).reshape(shape)
    return out


def encode_with_softmax(tiles, w, cfg, thumbnail):
    """One encode's output, and every softmax matrix it shows ``collect``."""
    seen = {}

    def collect(layer, tile, head, attn):
        seen[(layer, tile, head)] = attn.copy()

    return enc.encode(tiles, w, cfg, thumbnail=thumbnail, collect=collect), seen


class TestStackedWeights:
    # A stack of weight sets encodes in one call: each set's output and
    # softmax matrices are its single encode's, byte for byte.
    GEOMETRIES = {"tiny": {}, "gradient": dict(layers=1, width=4, patch=4, tile=8)}

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reatten_on", [True, False])
    @pytest.mark.parametrize("thumbnail", [True, False])
    @pytest.mark.parametrize("g", [1, 2])
    def test_each_set_keeps_its_bytes(
        self, tiny_cfg, monkeypatch, geometry, dtype, reatten_on, thumbnail, g
    ):
        cfg = enc.config_with_overrides(
            tiny_cfg, reatten_enabled=reatten_on, **self.GEOMETRIES[geometry]
        )
        sets = [enc.init_weights(cfg, seed, dtype) for seed in (1, 2, 3)]
        tiles = random_tiles(cfg, 3, seed=5)
        # Groups count the states of every set: g states of 3 sets each.
        force_group_size(monkeypatch, cfg, dtype, 3 * g)
        w = stack_weights(sets)
        states = enc.embed_tiles(tiles, w, cfg, thumbnail=thumbnail)
        n_states = 3 + thumbnail
        assert states.shape == (3, n_states, cfg.n_tokens, cfg.width)
        assert enc._groups(states, cfg)[0] == slice(0, g)
        f_hr, seen = encode_with_softmax(tiles, w, cfg, thumbnail)
        assert f_hr.dtype == dtype and f_hr.shape == (3, n_states * cfg.registers, cfg.width)
        for k, single in enumerate(sets):
            want, want_seen = encode_with_softmax(tiles, single, cfg, thumbnail)
            assert f_hr[k].tobytes() == want.tobytes(), k
            assert seen.keys() == want_seen.keys()
            assert all(seen[key][k].tobytes() == m.tobytes() for key, m in want_seen.items()), k

    def test_paper_width_sets_keep_their_bytes(self):
        # At paper geometry (one layer, one tile) the sets share the layer
        # and exchange tensors as broadcast views and differ in their stem.
        cfg = enc.config_with_overrides(enc.PRESETS["paper"], layers=1)
        base = enc.init_weights(cfg, seed=0)
        sets = [
            {**base, **enc.init_tensors(enc._stem_specs(cfg), SplitMix64(seed), np.float32)}
            for seed in (1, 2, 3)
        ]
        tiles = random_tiles(cfg, 1, seed=0)
        f_hr = enc.encode(tiles, stack_weights(sets), cfg)
        assert f_hr.shape == (3, 2 * cfg.registers, cfg.width)
        for k, single in enumerate(sets):
            assert f_hr[k].tobytes() == enc.encode(tiles, single, cfg).tobytes(), k


def assert_matches_central_differences(loss, params, tol=1e-8):
    """The analytic gradients of ``loss(*Vars)`` against central differences."""
    variables = [ad.Var(p) for p in params]
    out = loss(*variables)
    out.backward()
    numeric = oracle.finite_diff_grad(
        lambda: float(ad.value_of(loss(*params))), dict(enumerate(params))
    )
    for k, v in enumerate(variables):
        assert v.grad.shape == params[k].shape
        scale = max(np.abs(numeric[k]).max(), 1e-12)
        assert np.abs(v.grad - numeric[k]).max() / scale <= tol, k


class TestBatchedVarOps:
    # Each loss weights its op's output with fixed random numbers, so every
    # entry of the output reaches the gradient with its own weight.
    x = np.random.default_rng(17).normal(size=(3, 4, 5))

    def weighted(self, shape):
        return np.random.default_rng(shape).normal(size=shape)

    def test_reshape_and_swapaxes(self):
        w1, w2 = self.weighted((6, 10)), self.weighted((3, 5, 4))
        assert_matches_central_differences(lambda x: ad.total(x.reshape(6, 10) * w1), [self.x])
        assert_matches_central_differences(
            lambda x: ad.total(x.swapaxes(-1, -2) * w2), [self.x]
        )

    def test_batched_matmul(self):
        rng = np.random.default_rng(18)
        b = rng.normal(size=(3, 5, 2))
        w = self.weighted((3, 4, 2))
        assert_matches_central_differences(lambda x, y: ad.total((x @ y) * w), [self.x, b])
        # One matrix for every batch, as the projections take their weights.
        assert_matches_central_differences(lambda x, y: ad.total((x @ y) * w), [self.x, b[0]])
        a, w = rng.normal(size=(2, 4)), self.weighted((3, 2, 5))
        assert_matches_central_differences(lambda y, x: ad.total((y @ x) * w), [a, self.x])
        # A product with a swapped operand, as the attention logits take it.
        w = self.weighted((3, 4, 4))
        assert_matches_central_differences(
            lambda x, y: ad.total((x @ y.swapaxes(-1, -2)) * w), [self.x, self.x + 0.5]
        )

    def test_add_and_mul_broadcast(self):
        # An operand broadcast along leading axes gets its own shape's
        # gradient, summed over them, as the embedding's pos_embed does.
        w = self.weighted((3, 4, 5))
        for op in (lambda x, y: x + y, lambda x, y: x * y):
            assert_matches_central_differences(
                lambda x, y: ad.total(op(x, y) * w), [self.x, self.x[0] + 0.5]
            )

    def test_layer_norm_and_softmax_rows(self):
        gamma, beta = np.random.default_rng(19).normal(size=(2, 5))
        w = self.weighted((3, 4, 5))
        assert_matches_central_differences(
            lambda x, g, b: ad.total(ad.layer_norm(x, g, b) * w), [self.x, gamma, beta]
        )
        assert_matches_central_differences(
            lambda x: ad.total(ad.softmax_rows(x) * w), [self.x]
        )

    def test_put(self):
        value = np.random.default_rng(20).normal(size=(4, 5))
        w = self.weighted((3, 4, 5))
        assert_matches_central_differences(
            lambda x, v: ad.total(ad.put(x, 1, v) * w), [self.x, value]
        )
        # A value broadcast along the slot's leading axes, as the registers are.
        assert_matches_central_differences(
            lambda x, v: ad.total(ad.put(x, (slice(None), slice(2)), v) * w), [self.x, value[:2]]
        )
        # On the plain path the slot is written in place.
        x = self.x.copy()
        assert ad.put(x, 1, value) is x and np.array_equal(x[1], value)
        # Two chained puts into the trailing columns of a plain empty array,
        # as the attention kernel assembles its heads' outputs.
        heads = np.random.default_rng(21).normal(size=(2, 3, 4, 3))

        def assemble(first, second):
            out = ad.put(np.empty((3, 4, 6)), (..., slice(0, 3)), first)
            return ad.put(out, (..., slice(3, 6)), second)

        joined = assemble(ad.Var(heads[0]), heads[1])
        assert joined.value.tobytes() == np.concatenate(heads, axis=-1).tobytes()
        w = self.weighted((3, 4, 6))
        assert_matches_central_differences(
            lambda a, b: ad.total(assemble(a, b) * w), [heads[0], heads[1]]
        )

    @pytest.mark.parametrize(
        "n_tiles, thumbnail", [(2, True), (1, False)], ids=["two-groups", "one-state"]
    )
    def test_parameter_gradients_across_groups(self, tiny_cfg, monkeypatch, n_tiles, thumbnail):
        # Two tiles and the thumbnail in groups of two: a full group and a
        # partial one. One tile without the thumbnail: a single state, whose
        # exchange joins one state's registers. The gate is the suite's:
        # h = 1e-5, rel_err <= 1e-4.
        cfg = enc.config_with_overrides(tiny_cfg, layers=1, width=4, patch=4, tile=8)
        force_group_size(monkeypatch, cfg, np.float64, 2)
        w = enc.init_weights(cfg, seed=4, dtype=np.float64)
        tiles = oracle.fixture_tiles(cfg, n_tiles, seed=4)
        rel_err = oracle.check_encoder_gradients(tiles, w, cfg, thumbnail=thumbnail)
        assert list(rel_err) == list(w)
        assert all(r <= oracle.GRAD_THRESHOLD for r in rel_err.values()), rel_err


class TestReattenInit:
    def test_copy_is_bitwise(self, tiny_cfg):
        w = enc.init_reatten_from_vit(enc.init_weights(tiny_cfg, seed=2))
        for layer in range(tiny_cfg.layers):
            lw = enc.block_weights(enc.layer_specs(tiny_cfg.width), w, f"layers.{layer}")
            rw = enc.block_weights(enc.reatten_specs(tiny_cfg.width), w, f"reatten.{layer}")
            assert rw["rq"].tobytes() == lw["wq"].tobytes()
            assert rw["rk"].tobytes() == lw["wk"].tobytes()
            assert rw["rv"].tobytes() == lw["wv"].tobytes()
            assert rw["ro"].tobytes() == lw["wo"].tobytes()
            assert rw["ln_gamma"].tobytes() == lw["ln1_gamma"].tobytes()
            assert rw["ln_beta"].tobytes() == lw["ln1_beta"].tobytes()

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exchange_is_the_layers_attention_step(self, tiny_cfg, dtype):
        # With copied weights, the exchange is the layer's self-attention
        # block over the joined register rows, byte for byte.
        cfg, d = tiny_cfg, tiny_cfg.width
        w = enc.init_reatten_from_vit(dict(enc.init_weights(cfg, 3, dtype)))
        lw = enc.block_weights(enc.layer_specs(d), w, "layers.0")
        rw = enc.block_weights(enc.reatten_specs(d), w, "reatten.0")
        states = np.random.default_rng(3).normal(size=(3, cfg.n_tokens, d)).astype(dtype)
        regs = states[:, cfg.n_image_tokens :].reshape(-1, d)  # a contiguous copy
        got = enc.reatten(states, rw, cfg)
        assert got.dtype == dtype
        assert np.array_equal(got, enc.self_attention_block(regs, lw, cfg))


class TestAttentionHook:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reatten_on", [True, False])
    @pytest.mark.parametrize("thumbnail", [True, False])
    def test_calls_in_forward_order(self, tiny_cfg, monkeypatch, dtype, reatten_on, thumbnail):
        # A layer's groups run in state order; within a group the head is the
        # outer loop. The tiny preset runs all its states in one group. With
        # one state per group, as at paper geometry, each state sees its heads
        # in turn. Either way each (layer, head) sees the states in order.
        # The last layer computes only the M register query rows.
        cfg = enc.config_with_overrides(tiny_cfg, reatten_enabled=reatten_on)
        w = enc.init_weights(cfg, seed=0, dtype=dtype)
        tiles = random_tiles(cfg, 3, seed=21)
        t = len(tiles.tiles) + thumbnail
        n_tokens, mt = cfg.n_tokens, cfg.registers * t
        for g in (None, 1, 2):
            if g is not None:
                force_group_size(monkeypatch, cfg, dtype, g)
            calls = []

            def collect(layer, tile, head, attn):
                calls.append((layer, tile, head, attn.shape, attn.dtype))

            f_hr = enc.encode(tiles, w, cfg, thumbnail=thumbnail, collect=collect)
            size = g or t
            expected = []
            for layer in range(cfg.layers):
                rows = cfg.registers if layer == cfg.layers - 1 else n_tokens
                for lo in range(0, t, size):
                    expected += [
                        (layer, k, h, (rows, n_tokens), np.dtype(dtype))
                        for h in range(cfg.heads)
                        for k in range(lo, min(lo + size, t))
                    ]
                if reatten_on:
                    expected += [
                        (layer, None, h, (mt, mt), np.dtype(dtype)) for h in range(cfg.heads)
                    ]
            assert calls == expected, g
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

    def test_non_square_token_count_rejected(self):
        plan = plan_crop(32, 32, 32, 16)
        with pytest.raises(BoundsError):
            enc.extract_register_attention([np.zeros((4, 5), np.float32)], 0, plan)
