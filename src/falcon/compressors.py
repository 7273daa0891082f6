"""Vision-language projector plus the three baseline token compressors.

The projector maps register outputs toward an LLM embedding width. The
baselines (average pooling, pixel shuffle, a learnable-query abstractor)
operate on a plain ViT's per-tile image-token features and all emit exactly
``BASELINE_TOKENS`` rows per tile, so token budgets and FLOPs compare
like-for-like against the register route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .encoder import (
    _VIT_TO_REATTEN, EncoderConfig, _attention, element_count, ffn_block, init_tensors,
    layer_specs, reatten_specs,
)
from .errors import ShapeError
from .numerics import SplitMix64, gelu
from .oracle import block_macs, run_macs

COMPRESSOR_KINDS = ("registers", "pool", "pixel_shuffle", "abstractor")

# Rows per tile of every baseline, and the abstractor baseline's block count.
BASELINE_TOKENS = 64
ABSTRACTOR_DEPTH = 2


# ---------------------------------------------------------------------------
# MLP projector
# ---------------------------------------------------------------------------


@dataclass
class ProjectorWeights:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def init_projector(d: int, d_llm: int, rng: SplitMix64, dtype=np.float32) -> ProjectorWeights:
    """W1 then W2 drawn from ``rng`` in one fill, zero biases."""
    return ProjectorWeights(**init_tensors([
        ("w1", (d, d_llm), d, d_llm, "uniform"), ("b1", (d_llm,), d, d_llm, "zeros"),
        ("w2", (d_llm, d_llm), d_llm, d_llm, "uniform"), ("b2", (d_llm,), d_llm, d_llm, "zeros"),
    ], rng, dtype))


def mlp_project(f: np.ndarray, pw: ProjectorWeights) -> np.ndarray:
    """Row-wise two-layer GeLU MLP: gelu(f @ W1 + b1) @ W2 + b2."""
    f = np.asarray(f)
    if f.ndim != 2 or f.shape[1] != pw.w1.shape[0]:
        raise ShapeError(f"projector input {f.shape} does not match W1 {pw.w1.shape}")
    hidden = f @ pw.w1
    hidden += pw.b1
    out = gelu(hidden, out=hidden) @ pw.w2
    out += pw.b2
    return out


# ---------------------------------------------------------------------------
# Pooling and pixel-shuffle baselines
# ---------------------------------------------------------------------------


def _square_side(feats: np.ndarray) -> int:
    if feats.ndim != 2:
        raise ShapeError(f"expected a 2-D token matrix, got {feats.shape}")
    side = math.isqrt(feats.shape[0])
    if side * side != feats.shape[0]:
        raise ShapeError(f"token count {feats.shape[0]} is not a perfect square")
    if side % 3 != 0:
        raise ShapeError(f"grid side {side} not divisible by pooling factor 3")
    return side


def avg_pool_compress(feats: np.ndarray) -> np.ndarray:
    """3x3 average pooling with stride 3 over the token grid (576 -> 64)."""
    side = _square_side(feats)
    d = feats.shape[1]
    out = side // 3
    grid = feats.reshape(out, 3, out, 3, d)
    return grid.mean(axis=(1, 3)).reshape(out * out, d)


def pixel_shuffle_compress(feats: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Space-to-depth by 3 (fixed raster order of each 3x3 neighborhood),
    then a linear projection 9D -> D."""
    side = _square_side(feats)
    d = feats.shape[1]
    proj = np.asarray(proj)
    if proj.shape != (9 * d, d):
        raise ShapeError(f"projection shape {proj.shape}, expected {(9 * d, d)}")
    out = side // 3
    stacked = (
        feats.reshape(out, 3, out, 3, d).transpose(0, 2, 1, 3, 4).reshape(out * out, 9 * d)
    )
    return stacked @ proj


# ---------------------------------------------------------------------------
# Abstractor baseline (learnable queries + cross-attention)
# ---------------------------------------------------------------------------


def init_abstractor(
    d: int, rng: SplitMix64, depth: int = ABSTRACTOR_DEPTH, dtype=np.float32
) -> list[dict[str, np.ndarray]]:
    """``depth`` blocks, each ``layer_specs(d)``'s ``{field: tensor}``, drawn in turn."""
    return [init_tensors(layer_specs(d), rng, dtype) for _ in range(depth)]


def abstractor_compress(
    feats: np.ndarray, queries: np.ndarray, blocks: list, heads: int
) -> np.ndarray:
    """Learnable queries cross-attend to image features over ``blocks``
    (``init_abstractor``'s), with ``heads`` attention heads.

    Each block is an encoder layer run as cross-attention: the encoder's
    attention step (``encoder._attention``) with the raw features as keys
    and values, then ``encoder.ffn_block`` on the queries. Output row count
    always equals the query count.
    """
    feats = np.asarray(feats)
    q = np.asarray(queries)
    if feats.ndim != 2 or q.ndim != 2 or feats.shape[1] != q.shape[1]:
        raise ShapeError(f"feature/query widths disagree: {feats.shape} vs {q.shape}")
    for blk in blocks:
        q = ffn_block(_attention(q, [blk[f] for f in _VIT_TO_REATTEN], heads, kv=feats), blk, None)
    return q


# ---------------------------------------------------------------------------
# Structural comparison (token parity, parameters, FLOPs)
# ---------------------------------------------------------------------------


def comparison_row(kind: str, cfg: EncoderConfig, thumbnail: bool = True) -> dict:
    """Per-tile token/parameter/FLOP accounting for one compression route.

    FLOP figures are multiply-add counts. For the register route the figure
    is the per-tile transformer cost of what ``encode`` runs (``run_macs``
    of one state: L-1 layers on N+M rows, and a last layer that computes
    only the M register query rows over all N+M key rows) against a plain
    ViT's L layers on the N image rows. It can be below zero where the
    pruned last layer saves more than the M rows of the others cost. The
    cross-tile exchange cost is reported separately (it is shared across
    tiles, so it is quoted in total for a full load of ``cfg.max_tiles``
    tiles plus the thumbnail, with the exchange on even where ``cfg`` turns
    it off: the cost of the step, not of one run).
    """
    if kind not in COMPRESSOR_KINDS:
        raise ShapeError(f"unknown compressor kind {kind!r}")
    n = cfg.n_image_tokens
    m = cfg.registers if kind == "registers" else BASELINE_TOKENS
    d = cfg.width
    row = {"kind": kind, "tokens_per_tile": m}
    if kind == "pool":
        row["params"] = 0
        row["flops_per_tile"] = n * d
    elif kind == "pixel_shuffle":
        row["params"] = 9 * d * d
        row["flops_per_tile"] = m * 9 * d * d
    elif kind == "abstractor":
        block_params = element_count(layer_specs(d))
        row["params"] = m * d + ABSTRACTOR_DEPTH * block_params
        row["flops_per_tile"] = ABSTRACTOR_DEPTH * block_macs(m, n, d)
    else:  # registers
        row["params"] = cfg.registers * d + cfg.layers * element_count(reatten_specs(d))
        one = run_macs(replace(cfg, reatten_enabled=False), 1, thumbnail=False)
        vit = cfg.layers * block_macs(n, n, d)
        row["flops_per_tile"] = one["self_attention"] + one["ffn"] - vit
        with_exchange = replace(cfg, reatten_enabled=True)
        row["reatten_flops_total"] = run_macs(with_exchange, cfg.max_tiles, thumbnail)["reatten"]
    return row
