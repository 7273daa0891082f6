"""Register-based visual encoder.

A ViT whose per-tile input is the image tokens concatenated with M shared
learnable registers. Each layer runs joint self-attention over all N+M rows
of every tile (no masking), then a cross-tile exchange step: the register
rows of all tiles (thumbnail included) are concatenated, passed through a
residual multi-head self-attention of their own, and scattered back before
the FFN. Only the register rows are emitted, so a tile's N image tokens
compress to M output tokens.

Block topology is pre-norm (ln -> attention -> residual, ln -> FFN ->
residual) with a dedicated pre-norm on the exchange step. Registers carry
no positional embedding, and no positional information crosses tiles, which
makes the encoder equivariant under tile permutation.

The forward is written over the dispatch helpers in ``autodiff``, so the
same code serves the plain fast path and the reverse-mode gradient path.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import falt
from .errors import BoundsError, ConfigError, StateError
from .image_crop import CropPlan, TileSet, normalize_pixels, patchify
from .numerics import SplitMix64, init_uniform


# Largest value of any integer config field. A FALT archive stores each
# tensor dim as uint32, and the bound keeps every FLOP count a float and a
# JSON number can hold.
MAX_SIZE = 2**32 - 1

# ``check_budget``'s cap on each activation array of a run: the cropped
# pixels, the tile states and one head's softmax matrix. 2^26 elements,
# 256 MiB of float32. The paper preset at 16 tiles plus the thumbnail holds
# 7.5M pixels, 17 * 640 * 1024 = 11.1M state elements and a 1088^2 = 1.2M
# exchange matrix.
MAX_STATE_ELEMENTS = 1 << 26

# ``check_budget``'s cap on the encoder weights, and apart on the
# projector's two matrices: 2^29 elements, 2 GiB of float32. The paper
# preset at 24 layers holds 404,242,432.
MAX_WEIGHT_ELEMENTS = 1 << 29


@dataclass(frozen=True)
class EncoderConfig:
    """All architecture hyperparameters of the encoder."""

    layers: int
    width: int
    heads: int
    patch: int
    tile: int
    registers: int
    max_tiles: int = 16
    ffn_mult: int = 4
    ln_eps: float = 1e-6
    reatten_enabled: bool = True

    def __post_init__(self):
        for name in ("layers", "width", "heads", "patch", "tile", "registers", "max_tiles"):
            value = getattr(self, name)
            if not 1 <= value <= MAX_SIZE:
                raise ConfigError(f"{name} must be in [1, {MAX_SIZE}], got {value}")
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if self.tile % self.patch != 0:
            raise ConfigError(f"tile {self.tile} not divisible by patch {self.patch}")
        if self.ln_eps <= 0:
            raise ConfigError(f"ln_eps must be positive, got {self.ln_eps}")

    @property
    def head_dim(self) -> int:
        return self.width // self.heads

    @property
    def n_image_tokens(self) -> int:
        return (self.tile // self.patch) ** 2

    @property
    def n_tokens(self) -> int:
        return self.n_image_tokens + self.registers

    @property
    def compression_ratio(self) -> float:
        return self.n_image_tokens / self.registers


PRESETS = {
    # Production-scale dimensions; only registers/tile/patch/max_tiles are
    # architecture-defining, the rest mirrors a large 384px/16 ViT.
    "paper": EncoderConfig(
        layers=24, width=1024, heads=16, patch=16, tile=384, registers=64, max_tiles=16
    ),
    # Small enough for loop-based oracles and finite-difference checks.
    "tiny": EncoderConfig(
        layers=2, width=8, heads=2, patch=16, tile=32, registers=4, max_tiles=16
    ),
}


@dataclass
class LayerWeights:
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass
class ReattenWeights:
    ln_gamma: np.ndarray
    ln_beta: np.ndarray
    rq: np.ndarray
    rk: np.ndarray
    rv: np.ndarray
    ro: np.ndarray


# The weights: canonical name -> tensor, in ``tensor_specs`` order.
Weights = dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# Canonical tensor naming, initialization, serialization
# ---------------------------------------------------------------------------


def layer_specs(d: int, ffn_mult: int) -> list[tuple[str, tuple[int, ...], int, int, str]]:
    """(field, shape, fan_in, fan_out, init) of one transformer block of width d.

    The encoder layers and the abstractor baseline's blocks share this
    layout; its order is the archive order and the PRNG draw order.
    """
    f = ffn_mult * d
    return [
        ("ln1_gamma", (d,), d, d, "ones"),
        ("ln1_beta", (d,), d, d, "zeros"),
        ("wq", (d, d), d, d, "uniform"),
        ("wk", (d, d), d, d, "uniform"),
        ("wv", (d, d), d, d, "uniform"),
        ("wo", (d, d), d, d, "uniform"),
        ("ln2_gamma", (d,), d, d, "ones"),
        ("ln2_beta", (d,), d, d, "zeros"),
        ("w1", (d, f), d, f, "uniform"),
        ("w2", (f, d), f, d, "uniform"),
    ]


def reatten_specs(d: int) -> list[tuple[str, tuple[int, ...], int, int, str]]:
    """(field, shape, fan_in, fan_out, init) of one exchange block of width d."""
    return [
        ("ln_gamma", (d,), d, d, "ones"),
        ("ln_beta", (d,), d, d, "zeros"),
        ("rq", (d, d), d, d, "uniform"),
        ("rk", (d, d), d, d, "uniform"),
        ("rv", (d, d), d, d, "uniform"),
        ("ro", (d, d), d, d, "uniform"),
    ]


def _stem_specs(cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...], int, int, str]]:
    """(name, shape, fan_in, fan_out, init) of the tensors outside the layers."""
    d = cfg.width
    patch_dim = 3 * cfg.patch**2
    return [
        ("patch_embed", (patch_dim, d), patch_dim, d, "uniform"),
        ("pos_embed", (cfg.n_image_tokens, d), d, d, "uniform"),
        ("registers", (cfg.registers, d), d, d, "uniform"),
    ]


def tensor_specs(cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...], int, int, str]]:
    """Canonical (name, shape, fan_in, fan_out, init) list.

    This order defines both the archive entry order and the PRNG draw order
    during seeded initialization.
    """
    d = cfg.width
    specs = _stem_specs(cfg)
    for prefix, block in (("layers", layer_specs(d, cfg.ffn_mult)), ("reatten", reatten_specs(d))):
        for l in range(cfg.layers):
            specs += [(f"{prefix}.{l}.{fname}", *rest) for fname, *rest in block]
    return specs


def init_tensor(shape, fan_in: int, fan_out: int, kind: str, rng: SplitMix64, dtype) -> np.ndarray:
    """One tensor of a spec entry; only "uniform" draws from ``rng``."""
    if kind == "uniform":
        return init_uniform(shape, fan_in, fan_out, rng).astype(dtype)
    return (np.ones if kind == "ones" else np.zeros)(shape, dtype=dtype)


def init_weights(cfg: EncoderConfig, seed: int, dtype=np.float32) -> Weights:
    """Seeded deterministic initialization: the canonical name -> tensor
    mapping, drawn in ``tensor_specs`` order."""
    rng = SplitMix64(seed)
    return {name: init_tensor(*spec, rng, dtype) for name, *spec in tensor_specs(cfg)}


def _check_names_and_shapes(w: Weights, cfg: EncoderConfig) -> None:
    """Refuse a mapping whose names or shapes do not match ``cfg``."""
    specs = tensor_specs(cfg)
    expected = {name for name, *_ in specs}
    got = set(w)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise ConfigError(f"weight names do not match config: missing {missing}, extra {extra}")
    for name, shape, *_ in specs:
        actual = np.shape(w[name])
        if actual != shape:
            raise ConfigError(f"tensor {name!r} has shape {actual}, expected {shape}")


def save_weights(path: str, w: Weights, cfg: EncoderConfig) -> None:
    """Write ``w``'s tensors in ``tensor_specs`` order; names and shapes must match ``cfg``."""
    _check_names_and_shapes(w, cfg)
    falt.save(path, {name: w[name] for name, *_ in tensor_specs(cfg)})


def load_weights(path: str, cfg: EncoderConfig) -> Weights:
    """Read an archive; names and shapes must match ``cfg``, every entry be finite."""
    entries = falt.load(path)
    _check_names_and_shapes(entries, cfg)
    for name, tensor in entries.items():
        if not np.isfinite(tensor).all():
            raise ConfigError(f"tensor {name!r} has non-finite entries")
    return {name: entries[name] for name, *_ in tensor_specs(cfg)}


def block_weights(cls, w: Weights, prefix: str):
    """One block's weights, ``LayerWeights`` or ``ReattenWeights``, from the
    entries of ``w`` named ``{prefix}.{field}``; ``prefix`` is e.g. "layers.0"."""
    return cls(**{f.name: w[f"{prefix}.{f.name}"] for f in dataclasses.fields(cls)})


# Each layer field that seeds an exchange-block field.
_VIT_TO_REATTEN = {
    "ln1_gamma": "ln_gamma", "ln1_beta": "ln_beta", "wq": "rq", "wk": "rk", "wv": "rv", "wo": "ro"
}


def init_reatten_from_vit(w: Weights) -> Weights:
    """Copy each layer's self-attention parameters into its exchange module.

    Deep copies: later mutation of the exchange weights leaves the ViT
    parameters untouched and vice versa. ``w`` is updated and returned.
    """
    for name in list(w):
        kind, _, rest = name.partition(".")
        layer, _, field = rest.partition(".")
        if kind == "layers" and field in _VIT_TO_REATTEN:
            w[f"reatten.{layer}.{_VIT_TO_REATTEN[field]}"] = w[name].copy()
    return w


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def element_count(specs) -> int:
    """Total element count of a (name, shape, ...) spec list."""
    return sum(math.prod(shape) for _, shape, *_ in specs)


def weight_elements(cfg: EncoderConfig) -> int:
    """Element count of ``tensor_specs(cfg)``, without building the list."""
    block = layer_specs(cfg.width, cfg.ffn_mult) + reatten_specs(cfg.width)
    return element_count(_stem_specs(cfg)) + cfg.layers * element_count(block)


def check_budget(
    cfg: EncoderConfig, n_tiles: int, thumbnail: bool = True, d_llm: int | None = None
) -> None:
    """Refuse, before anything is allocated, a run of ``count_flops``'s
    arguments whose largest arrays exceed their caps. ``crop_tiles`` builds
    the thumbnail even when ``thumbnail`` is off."""
    n_states = n_tiles + (1 if thumbnail else 0)
    exchange_rows = cfg.registers * n_states if cfg.reatten_enabled else 0
    budget = [
        ("cropped pixels", (n_tiles + 1) * cfg.tile**2 * 3, MAX_STATE_ELEMENTS),
        ("tile states", n_states * cfg.n_tokens * cfg.width, MAX_STATE_ELEMENTS),
        ("one head's softmax matrix", max(cfg.n_tokens, exchange_rows) ** 2, MAX_STATE_ELEMENTS),
        ("encoder weights", weight_elements(cfg), MAX_WEIGHT_ELEMENTS),
    ]
    if d_llm is not None:
        budget.append(("projector weights", d_llm * (cfg.width + d_llm), MAX_WEIGHT_ELEMENTS))
    for what, elements, cap in budget:
        if elements > cap:
            raise ConfigError(f"{what}: {elements} elements, over the {cap}-element cap")


def embed_tiles(tiles: TileSet, w: Weights, cfg: EncoderConfig, thumbnail: bool = True):
    """Layer-0 token states: patch embeddings plus the shared registers.

    Per tile: image rows are patchify(normalized tile) @ patch_embed +
    pos_embed; register rows are the single shared register tensor. The
    thumbnail, when included, is appended last and treated exactly like a
    tile.
    """
    if len(tiles.tiles) > cfg.max_tiles:
        raise ConfigError(f"{len(tiles.tiles)} tiles exceed max_tiles={cfg.max_tiles}")
    dtype = np.asarray(ad.value_of(w["patch_embed"])).dtype
    states = []
    raster = list(tiles.tiles) + ([tiles.global_thumb] if thumbnail else [])
    for tile in raster:
        tile = np.asarray(tile)
        if tile.shape != (cfg.tile, cfg.tile, 3):
            raise ConfigError(f"tile shape {tile.shape} does not match config tile {cfg.tile}")
        tokens = patchify(normalize_pixels(tile.astype(dtype, copy=False)), cfg.patch)
        image_rows = tokens @ w["patch_embed"]
        image_rows += w["pos_embed"]
        states.append(ad.concat([image_rows, w["registers"]], axis=0))
    return states


def _multi_head_attention(x, kv, wq, wk, wv, wo, heads: int, collect=None):
    """Multi-head softmax attention of query rows ``x`` over key/value rows
    ``kv``, then the output projection. Self-attention passes the same
    pre-normed rows as both; ``collect(head, attn)`` sees each softmax matrix.

    On the plain path each head's logits are scaled and turned into its
    softmax matrix in place; on a ``Var`` the same lines build new nodes.
    """
    q = x @ wq
    k = kv @ wk
    v = kv @ wv
    width = ad.value_of(q).shape[1]
    dk = width // heads
    scale = 1.0 / math.sqrt(dk)
    outs = []
    for h in range(heads):
        cols = slice(h * dk, (h + 1) * dk)
        logits = q[:, cols] @ k[:, cols].T
        logits *= scale
        attn = ad.softmax_rows(logits, out=logits)
        if collect is not None:
            collect(h, ad.value_of(attn))
        outs.append(attn @ v[:, cols])
    return ad.concat(outs, axis=1) @ wo


def self_attention_block(x, lw: LayerWeights, cfg: EncoderConfig, collect=None):
    """Residual pre-norm self-attention over all N+M rows jointly, unmasked."""
    normed = ad.layer_norm(x, lw.ln1_gamma, lw.ln1_beta, cfg.ln_eps)
    out = _multi_head_attention(normed, normed, lw.wq, lw.wk, lw.wv, lw.wo, cfg.heads, collect)
    out += x
    return out


def reatten(states, rw: ReattenWeights, cfg: EncoderConfig, enabled: bool = True, collect=None):
    """Cross-tile register exchange; returns the new register rows only.

    Register rows of all tiles are concatenated in tile order and passed
    through residual pre-norm multi-head self-attention. The result is one
    (M*T, D) array, tile k's rows at [k*M, (k+1)*M); when disabled it is the
    concatenated input rows unchanged. ``states`` is not modified: putting
    the rows back next to each tile's image rows is the caller's job.
    """
    shapes = {tuple(ad.value_of(s).shape) for s in states}
    if len(shapes) != 1:
        raise StateError(f"tiles at mismatched layers: state shapes {sorted(shapes)}")
    regs = ad.concat([s[cfg.n_image_tokens :] for s in states], axis=0)
    if not enabled:
        return regs
    normed = ad.layer_norm(regs, rw.ln_gamma, rw.ln_beta, cfg.ln_eps)
    out = _multi_head_attention(normed, normed, rw.rq, rw.rk, rw.rv, rw.ro, cfg.heads, collect)
    out += regs
    return out


def ffn_block(x, lw: LayerWeights, cfg: EncoderConfig):
    """Residual pre-norm two-layer GeLU MLP, applied row-wise."""
    normed = ad.layer_norm(x, lw.ln2_gamma, lw.ln2_beta, cfg.ln_eps)
    hidden = normed @ lw.w1
    out = ad.gelu(hidden, out=hidden) @ lw.w2
    out += x
    return out


def _at(collect, layer: int, tile: int | None):
    """``collect`` with the (layer, tile) of one attention call bound; None stays None."""
    return None if collect is None else partial(collect, layer, tile)


def encode(
    tiles: TileSet, w: Weights, cfg: EncoderConfig, *, thumbnail: bool = True, collect=None
):
    """Run the full encoder; returns the register outputs.

    The output stacks each tile's M register rows in tile order, thumbnail
    last: M * (n_tiles + 1) rows in total when the thumbnail is included.
    Image-token outputs are discarded. Tiles run one after another; the
    exchange step joins them once per layer. ``w`` is the canonical name ->
    tensor mapping; each layer reads its own entries only, when it runs.

    ``collect(layer, tile, head, attn)``, when given, sees every softmax
    matrix in forward order: (N+M, N+M) for the self-attention of state
    ``tile`` (thumbnail last), (M*T, M*T) with ``tile=None`` for the
    exchange step. ``attn`` is the working array; copy what you keep.
    """
    states = embed_tiles(tiles, w, cfg, thumbnail=thumbnail)
    # The callee's frame owns its arguments (CPython >= 3.11): when the
    # caller passes the TileSet as a temporary, as ``cli.cmd_encode`` does,
    # its pixels are freed here, before layer 0.
    del tiles
    n, m = cfg.n_image_tokens, cfg.registers
    # Each block's result replaces its input in the same slot, so only one
    # generation of tile states is alive at a time.
    for layer in range(cfg.layers):
        lw = block_weights(LayerWeights, w, f"layers.{layer}")
        for k in range(len(states)):
            states[k] = self_attention_block(states[k], lw, cfg, _at(collect, layer, k))
        rw = block_weights(ReattenWeights, w, f"reatten.{layer}")
        regs = reatten(states, rw, cfg, cfg.reatten_enabled, _at(collect, layer, None))
        for k in range(len(states)):
            states[k] = ffn_block(
                ad.concat([states[k][:n], regs[k * m : (k + 1) * m]], axis=0), lw, cfg
            )
    return ad.concat([s[n:] for s in states], axis=0)


def parameter_gradients(tiles: TileSet, w: Weights, cfg: EncoderConfig, thumbnail: bool = True):
    """Analytic gradients of loss = sum(F_hr) w.r.t. every trainable tensor.

    Returns (loss value, canonical name -> gradient array). Runs ``encode``
    with the weights wrapped as autodiff variables.
    """
    params = {name: ad.Var(tensor) for name, tensor in w.items()}
    f_hr = encode(tiles, params, cfg, thumbnail=thumbnail)
    loss = ad.total(f_hr)
    loss.backward()
    grads = {
        name: (v.grad if v.grad is not None else np.zeros_like(v.value))
        for name, v in params.items()
    }
    return float(loss.value), grads


def extract_register_attention(
    tile_rows: list[np.ndarray], register: int, plan: CropPlan
) -> np.ndarray:
    """Stitch one register's image-token attention into the crop grid.

    ``tile_rows[k]`` is tile k's M x N slice of its softmax matrix (register
    queries, image-token keys). Each tile's N-entry row reshapes to
    (tile/p, tile/p) and is placed at its grid position; slices beyond
    ``plan.n_tiles`` (the thumbnail) are ignored.
    """
    if len(tile_rows) < plan.n_tiles:
        raise BoundsError(f"{len(tile_rows)} attention slices for {plan.n_tiles} tiles")
    n_registers, n = tile_rows[0].shape
    if not 0 <= register < n_registers:
        raise BoundsError(f"register {register} out of range [0, {n_registers})")
    side = math.isqrt(n)
    if side * side != n:
        raise BoundsError(f"non-square token count {n}")
    grid = np.zeros((plan.rows * side, plan.cols * side), dtype=tile_rows[0].dtype)
    for k in range(plan.n_tiles):
        r, c = divmod(k, plan.cols)
        rows = tile_rows[k][register].reshape(side, side)
        grid[r * side : (r + 1) * side, c * side : (c + 1) * side] = rows
    return grid


def config_with_overrides(base: EncoderConfig, **overrides) -> EncoderConfig:
    """Dataclass replace that drops None values (CLI convenience)."""
    kept = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(base, **kept) if kept else base
