"""Deterministic register-based visual encoder.

High-resolution images are cropped into a shape-adaptive grid of tiles plus
a global thumbnail; a ViT carries M shared learnable registers alongside
each tile's image tokens, exchanges register state across tiles at every
layer, and emits only the register outputs. Includes baseline compressors,
a loop-based oracle with gradient checks, and a CLI.
"""

from .encoder import (
    AttentionTrace,
    EncoderConfig,
    EncoderWeights,
    PRESETS,
    encode,
    extract_register_attention,
    init_reatten_from_vit,
    init_weights,
    load_weights,
    parameter_gradients,
    save_weights,
)
from .image_crop import CropPlan, TileSet, crop_tiles, load_ppm, patchify, plan_crop
from .numerics import SplitMix64, gelu, init_uniform, layer_norm, softmax_rows
from .oracle import FlopReport, count_flops, encode_reference, finite_diff_grad

__version__ = "0.1.0"

__all__ = [
    "AttentionTrace",
    "CropPlan",
    "EncoderConfig",
    "EncoderWeights",
    "FlopReport",
    "PRESETS",
    "SplitMix64",
    "TileSet",
    "count_flops",
    "crop_tiles",
    "encode",
    "encode_reference",
    "extract_register_attention",
    "finite_diff_grad",
    "gelu",
    "init_reatten_from_vit",
    "init_uniform",
    "init_weights",
    "layer_norm",
    "load_ppm",
    "load_weights",
    "parameter_gradients",
    "patchify",
    "plan_crop",
    "save_weights",
    "softmax_rows",
]
