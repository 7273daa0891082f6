"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.
"""

import json
import time

import numpy as np

from falcon import compressors as cmp
from falcon import encoder as enc
from falcon import oracle
from falcon.cli import main
from falcon.image_crop import TileSet, plan_crop

from conftest import make_ppm, random_tiles

TINY = enc.PRESETS["tiny"]
PAPER = enc.PRESETS["paper"]


def report(num, ok, desc):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_01_token_compression_arithmetic(capsys, tmp_path):
    image = tmp_path / "sixteen.ppm"
    make_ppm(image, 1536, 1536, seed=0)  # 4x4 grid of 384px tiles
    start = time.perf_counter()
    code = main(["encode", str(image), "--preset", "paper", "--dry-run"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and PAPER.n_image_tokens == 576
        and PAPER.registers == 64
        and payload["n_tiles"] == 16
        and payload["compression_ratio"] == 9.0
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, ok, f"paper preset: 576 -> 64 tokens/tile, ratio 9.0 ({elapsed:.2f}s)")


def test_02_crop_planner_determinism(capsys):
    start = time.perf_counter()
    examples_ok = (
        (plan_crop(384, 384, 384, 16).rows, plan_crop(384, 384, 384, 16).cols) == (1, 1)
        and (plan_crop(768, 768, 384, 16).rows, plan_crop(768, 768, 384, 16).cols) == (2, 2)
        and (plan_crop(1500, 2000, 384, 16).rows, plan_crop(1500, 2000, 384, 16).cols) == (3, 5)
    )

    def exhaustive(h, w, tile, max_tiles):
        candidates = []
        for r in range(1, max_tiles + 1):
            for c in range(1, max_tiles + 1):
                if r * c <= max_tiles:
                    candidates.append((abs(r - h / tile) + abs(c - w / tile), r * c, r, c))
        candidates.sort()
        return candidates[0][2], candidates[0][3]

    rng = np.random.default_rng(2024)
    random_ok = True
    for _ in range(1000):
        h = int(rng.integers(1, 6000))
        w = int(rng.integers(1, 6000))
        plan = plan_crop(h, w, 384, 16)
        if (plan.rows, plan.cols) != exhaustive(h, w, 384, 16):
            random_ok = False
            break
    elapsed = time.perf_counter() - start
    ok = examples_ok and random_ok and elapsed < 5.0
    with capsys.disabled():
        report(2, ok, f"plan examples + 1000-pair enumeration oracle ({elapsed:.2f}s)")


def test_03_oracle_equivalence(capsys):
    start = time.perf_counter()
    tiles = oracle.fixture_tiles(TINY, 2, seed=0)
    w32 = enc.init_weights(TINY, 0, np.float32)
    f32 = enc.encode(tiles, w32, TINY)
    ref32, _ = oracle.encode_reference(tiles, w32, TINY)
    err32 = float(np.max(np.abs(f32.astype(np.float64) - ref32)))
    w64 = enc.init_weights(TINY, 0, np.float64)
    f64 = enc.encode(tiles, w64, TINY)
    ref64, _ = oracle.encode_reference(tiles, w64, TINY)
    err64 = float(np.max(np.abs(f64 - ref64)))
    elapsed = time.perf_counter() - start
    ok = err32 <= 1e-5 and err64 <= 1e-10 and elapsed < 10.0
    with capsys.disabled():
        report(3, ok, f"encode vs reference: f32 {err32:.2e} <= 1e-5, f64 {err64:.2e} <= 1e-10")


def test_04_gradient_check(capsys):
    start = time.perf_counter()
    tiles = oracle.fixture_tiles(TINY, 2, seed=0)
    w64 = enc.init_weights(TINY, 0, np.float64)
    rep = oracle.check_encoder_gradients(tiles, w64, TINY, h=1e-5, threshold=1e-4)
    elapsed = time.perf_counter() - start
    worst = rep.worst()
    ok = rep.passed and elapsed < 120.0
    with capsys.disabled():
        report(
            4,
            ok,
            f"{len(rep.entries)} tensors, worst rel err {worst.rel_err:.2e} "
            f"({worst.name}) in {elapsed:.1f}s",
        )


def test_05_permutation_equivariance(capsys):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        w = enc.init_weights(TINY, seed, np.float32)
        tiles = random_tiles(TINY, 3, seed=seed)
        perm = list(np.random.default_rng(seed).permutation(3))
        base = enc.encode(tiles, w, TINY)
        swapped = enc.encode(
            TileSet([tiles.tiles[i] for i in perm], tiles.global_thumb), w, TINY
        )
        m = TINY.registers
        for new_pos, old_pos in enumerate(perm):
            diff = np.abs(
                swapped[new_pos * m : (new_pos + 1) * m] - base[old_pos * m : (old_pos + 1) * m]
            )
            worst = max(worst, float(diff.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 30.0
    with capsys.disabled():
        report(5, ok, f"100 seeds, max block deviation {worst:.2e} ({elapsed:.1f}s)")


def test_06_reatten_off_independence(capsys):
    start = time.perf_counter()
    cfg = enc.config_with_overrides(TINY, reatten_enabled=False)
    w = enc.init_weights(cfg, 0, np.float32)
    tiles = random_tiles(cfg, 4, seed=6)
    joint = enc.encode(tiles, w, cfg, thumbnail=False)
    m = cfg.registers
    bitwise = True
    for i, tile in enumerate(tiles.tiles):
        solo = enc.encode(TileSet([tile], tiles.global_thumb), w, cfg, thumbnail=False)
        if solo.tobytes() != joint[i * m : (i + 1) * m].tobytes():
            bitwise = False
    elapsed = time.perf_counter() - start
    ok = bitwise and elapsed < 10.0
    with capsys.disabled():
        report(6, ok, "joint vs solo encodes bitwise identical with exchange off")


def test_07_reatten_init_contract(capsys):
    w = enc.init_reatten_from_vit(enc.init_weights(TINY, 7, np.float32))
    blocks = [
        (
            enc.block_weights(enc.LayerWeights, w, f"layers.{layer}"),
            enc.block_weights(enc.ReattenWeights, w, f"reatten.{layer}"),
        )
        for layer in range(TINY.layers)
    ]
    copies_ok = all(
        rw.rq.tobytes() == lw.wq.tobytes()
        and rw.rk.tobytes() == lw.wk.tobytes()
        and rw.rv.tobytes() == lw.wv.tobytes()
        and rw.ro.tobytes() == lw.wo.tobytes()
        and rw.ln_gamma.tobytes() == lw.ln1_gamma.tobytes()
        and rw.ln_beta.tobytes() == lw.ln1_beta.tobytes()
        for lw, rw in blocks
    )
    before = w["layers.0.wq"].copy()
    w["reatten.0.rq"][:] = -7.0
    independent = np.array_equal(w["layers.0.wq"], before)
    ok = copies_ok and independent
    with capsys.disabled():
        report(7, ok, "weight-copy init bitwise per layer; mutation independent")


def test_08_compressor_parity(capsys):
    start = time.perf_counter()
    d = 8
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(576, d)).astype(np.float32)
    pool_out = cmp.avg_pool_compress(feats)
    shuffle_proj = rng.normal(size=(9 * d, d)).astype(np.float32)
    shuffle_out = cmp.pixel_shuffle_compress(feats, shuffle_proj)
    aw = cmp.init_abstractor(d, heads=2, rng=oracle.SplitMix64(8))
    queries = rng.normal(size=(64, d)).astype(np.float32)
    abstractor_out = cmp.abstractor_compress(feats, queries, aw)
    parity = (
        pool_out.shape[0] == 64
        and shuffle_out.shape[0] == 64
        and abstractor_out.shape[0] == 64
        and PAPER.registers == 64
    )

    x = rng.normal(size=(576, d))
    y = rng.normal(size=(576, d))
    proj64 = shuffle_proj.astype(np.float64)
    lin_pool = np.abs(
        cmp.avg_pool_compress(2.0 * x + 3.0 * y)
        - (2.0 * cmp.avg_pool_compress(x) + 3.0 * cmp.avg_pool_compress(y))
    ).max()
    lin_shuffle = np.abs(
        cmp.pixel_shuffle_compress(2.0 * x + 3.0 * y, proj64)
        - (
            2.0 * cmp.pixel_shuffle_compress(x, proj64)
            + 3.0 * cmp.pixel_shuffle_compress(y, proj64)
        )
    ).max()

    tiles = oracle.fixture_tiles(TINY, 2, seed=8)
    w = enc.init_weights(TINY, 8, np.float32)
    _, counts = oracle.encode_reference(tiles, w, TINY)
    rep = oracle.count_flops(TINY, 2)
    flops_exact = (
        counts["self_attention"] == rep.self_attention
        and counts["reatten"] == rep.reatten
        and counts["ffn"] == rep.ffn
    )
    elapsed = time.perf_counter() - start
    ok = parity and lin_pool < 1e-5 and lin_shuffle < 1e-5 and flops_exact
    with capsys.disabled():
        report(
            8,
            ok,
            f"64-token parity; linearity {max(lin_pool, lin_shuffle):.2e}; "
            f"FLOP formulas exact ({elapsed:.1f}s)",
        )


def test_09_cross_thread_determinism(capsys, tmp_path):
    start = time.perf_counter()
    identical = True
    for i in range(10):
        image = tmp_path / f"fix{i}.ppm"
        make_ppm(image, 64 + 8 * i, 96 - 4 * i, seed=100 + i)
        a = tmp_path / f"a{i}.falt"
        b = tmp_path / f"b{i}.falt"
        main(["encode", str(image), "--preset", "tiny", "--seed", str(i),
              "--threads", "1", "--out", str(a)])
        main(["encode", str(image), "--preset", "tiny", "--seed", str(i),
              "--threads", "8", "--out", str(b)])
        capsys.readouterr()
        if a.read_bytes() != b.read_bytes():
            identical = False
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 60.0
    with capsys.disabled():
        report(9, ok, f"10 fixtures byte-identical across --threads 1 vs 8 ({elapsed:.1f}s)")


def test_10_attention_normalization(capsys):
    tiles = oracle.fixture_tiles(TINY, 4, seed=10)
    w = enc.init_weights(TINY, 10, np.float32)
    n = TINY.n_image_tokens
    full_rows, reatten_rows, register_rows = [], [], []

    def collect(layer, tile, head, attn):
        if tile is None:
            reatten_rows.append(attn.copy())
        else:
            full_rows.append(attn.copy())
            register_rows.append(attn[n:, :n].copy())

    enc.encode(tiles, w, TINY, collect=collect)
    n_entries = TINY.layers * TINY.heads * (len(tiles.tiles) + 1)
    self_rows_ok = len(full_rows) == n_entries and all(
        np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-6 for rows in full_rows
    )
    reatten_ok = len(reatten_rows) == TINY.layers * TINY.heads and all(
        np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-6 for rows in reatten_rows
    )
    heat_ok = all(rows.min() >= 0.0 and rows.max() <= 1.0 for rows in register_rows)
    ok = self_rows_ok and reatten_ok and heat_ok
    with capsys.disabled():
        report(10, ok, "softmax rows sum to 1 at every layer/head/tile; heatmaps in [0,1]")
