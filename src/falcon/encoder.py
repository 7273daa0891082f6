"""Register-based visual encoder.

A ViT whose per-tile input is the image tokens concatenated with M shared
learnable registers. Each layer runs joint self-attention over all N+M rows
of every tile (no masking), then a cross-tile exchange step: the register
rows of all tiles (thumbnail included) are concatenated, passed through the
same attention step with the exchange's own weights, and scattered back
before the FFN. Only the register rows are emitted, so a tile's N image
tokens compress to M output tokens; the last layer computes no other rows.

Block topology is pre-norm (ln -> attention -> residual, ln -> FFN ->
residual). One function, ``_attention``, is that attention step for the
self-attention, the exchange and the abstractor baseline
(``compressors.abstractor_compress``, which runs it as cross-attention).
Registers carry no positional embedding, and no positional information
crosses tiles, which makes the encoder equivariant under tile permutation.

The pixels are one (*lead, n_tiles + 1, T, T, 3) raster and the tile states
one (*lead, S, N+M, D) array, thumbnail last in both, each indexed from the
end; ``lead`` is empty but for images or weight sets stacked along leading
axes, which broadcast (``encode``). The patch embedding and each block run
on groups of consecutive states, as many as keep each array a state adds to
a group (``state_elements``) within ``numerics._BLOCK_BYTES``: the tiny
preset runs all its float32 states in one group, the paper preset one state
per group.
Every matrix product of a group is one batched ``matmul``, which runs each
state's GEMM just as a lone state's, so the bytes do not depend on the group
size. (One 2-D GEMM over all of a group's rows would not keep them: past a
size threshold BLAS picks another kernel, which sums in another order.)

The forward is written over the dispatch helpers in ``autodiff``, so the
same code serves the plain fast path and the reverse-mode gradient path.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import falt, numerics
from .errors import BoundsError, ConfigError
from .image_crop import CropPlan, TileSet, normalize_pixels, patchify
from .numerics import SplitMix64


# Largest value of any integer config field. A FALT archive stores each
# tensor dim as uint32, and the bound keeps every FLOP count a float and a
# JSON number can hold.
MAX_SIZE = 2**32 - 1

# The integer config fields, each bounded by MAX_SIZE. A run option of the
# same name overrides the preset's (``cli.encoder_config``).
SIZE_FIELDS = ("layers", "width", "heads", "patch", "tile", "registers", "max_tiles")

# ``check_budget``'s cap on each activation array of a run: the cropped
# pixels, the tile states, one state's FFN hidden array, one head's softmax
# matrix and the projector's hidden array. 2^26 elements, 256 MiB of
# float32. At 16 tiles plus the thumbnail the paper preset holds 7.5M
# pixels, 11.1M state elements, a 640 * 4096 = 2.6M hidden array, a
# 1088^2 = 1.2M exchange matrix and, at d_llm 2048, a 1088 * 2048 = 2.2M
# projector hidden array.
MAX_STATE_ELEMENTS = 1 << 26

# ``check_budget``'s cap on the encoder weights, and apart on the
# projector's two matrices: 2^29 elements, 2 GiB of float32. The paper
# preset at 24 layers holds 404,242,432.
MAX_WEIGHT_ELEMENTS = 1 << 29

# Hidden width of every FFN (encoder layers and abstractor blocks), as a
# multiple of the model width.
FFN_MULT = 4


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
    reatten_enabled: bool = True

    def __post_init__(self):
        for name in SIZE_FIELDS:
            value = getattr(self, name)
            if not 1 <= value <= MAX_SIZE:
                raise ConfigError(f"{name} must be in [1, {MAX_SIZE}], got {value}")
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if self.tile % self.patch != 0:
            raise ConfigError(f"tile {self.tile} not divisible by patch {self.patch}")

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


# The weights: canonical name -> tensor, in ``tensor_specs`` order.
Weights = dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# Canonical tensor naming, initialization, serialization
# ---------------------------------------------------------------------------


def layer_specs(d: int) -> list[tuple[str, tuple[int, ...], int, int, str]]:
    """(field, shape, fan_in, fan_out, init) of one transformer block of width d.

    The encoder layers and the abstractor baseline's blocks share this
    layout; its order is the archive order and the PRNG draw order.
    """
    f = FFN_MULT * d
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


# Each layer field that seeds an exchange-block field: the exchange block is
# the layer's attention half under these names.
_VIT_TO_REATTEN = {
    "ln1_gamma": "ln_gamma", "ln1_beta": "ln_beta", "wq": "rq", "wk": "rk", "wv": "rv", "wo": "ro"
}


def attention_specs(d: int) -> list[tuple[str, tuple[int, ...], int, int, str]]:
    """The attention half of ``layer_specs(d)``: the fields in ``_VIT_TO_REATTEN``."""
    return [spec for spec in layer_specs(d) if spec[0] in _VIT_TO_REATTEN]


def ffn_specs(d: int) -> list[tuple[str, tuple[int, ...], int, int, str]]:
    """The FFN half of ``layer_specs(d)``: the fields not in ``_VIT_TO_REATTEN``."""
    return [spec for spec in layer_specs(d) if spec[0] not in _VIT_TO_REATTEN]


def reatten_specs(d: int) -> list[tuple[str, tuple[int, ...], int, int, str]]:
    """(field, shape, fan_in, fan_out, init) of one exchange block of width d:
    ``attention_specs(d)``, renamed through ``_VIT_TO_REATTEN``."""
    return [(_VIT_TO_REATTEN[name], *rest) for name, *rest in attention_specs(d)]


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
    for prefix, block in (("layers", layer_specs(d)), ("reatten", reatten_specs(d))):
        for l in range(cfg.layers):
            specs += [(f"{prefix}.{l}.{fname}", *rest) for fname, *rest in block]
    return specs


def init_tensors(specs, rng: SplitMix64, dtype) -> dict[str, np.ndarray]:
    """``{name: tensor}`` of (name, shape, fan_in, fan_out, init) ``specs``, in
    order. The "uniform" entries are views of one flat ``dtype`` array filled
    by one ``rng.fill_uniform``: each holds ``init_uniform``'s draws, cast."""
    drawn = [(math.prod(shape), fan_in, fan_out)
             for _, shape, fan_in, fan_out, kind in specs if kind == "uniform"]
    flat = np.empty(sum(n for n, _, _ in drawn), dtype)
    rng.fill_uniform(flat, drawn)
    out, start = {}, 0
    for name, shape, _, _, kind in specs:
        if kind == "uniform":
            n = math.prod(shape)
            out[name] = flat[start : start + n].reshape(shape)
            start += n
        else:
            out[name] = (np.ones if kind == "ones" else np.zeros)(shape, dtype=dtype)
    return out


def init_weights(cfg: EncoderConfig, seed: int, dtype=np.float32) -> Weights:
    """Seeded deterministic initialization: ``init_tensors`` of ``tensor_specs``."""
    return init_tensors(tensor_specs(cfg), SplitMix64(seed), dtype)


def _check_names_and_shapes(shapes: Mapping[str, tuple[int, ...]], cfg: EncoderConfig) -> None:
    """Refuse a name -> shape mapping whose names or shapes do not match ``cfg``."""
    specs = tensor_specs(cfg)
    expected = {name for name, *_ in specs}
    got = set(shapes)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise ConfigError(f"weight names do not match config: missing {missing}, extra {extra}")
    for name, shape, *_ in specs:
        actual = shapes[name]
        if actual != shape:
            raise ConfigError(f"tensor {name!r} has shape {actual}, expected {shape}")


def save_weights(path: str, w: Weights, cfg: EncoderConfig) -> None:
    """Write ``w``'s tensors in ``tensor_specs`` order; names and shapes must match ``cfg``."""
    _check_names_and_shapes({name: np.shape(t) for name, t in w.items()}, cfg)
    falt.save(path, {name: w[name] for name, *_ in tensor_specs(cfg)})


class _ArchiveWeights(Mapping):
    """``load_weights``' read-on-access mapping over one archive's index."""

    def __init__(self, path: str, index: dict[str, falt.Entry], dtype):
        self._path, self._index, self._dtype = path, index, dtype

    def __getitem__(self, name: str) -> np.ndarray:
        tensor = falt.read_entry(self._path, self._index[name])
        if not np.isfinite(tensor).all():
            raise ConfigError(f"tensor {name!r} has non-finite entries")
        return tensor.astype(self._dtype, copy=False)

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def load_weights(path: str, cfg: EncoderConfig, dtype) -> Mapping[str, np.ndarray]:
    """The weights in the archive at ``path``, read entry by entry on access.

    Names and shapes are checked against ``cfg`` from the archive's index,
    before any payload is read. Each lookup reads one entry, refuses it if
    it is not finite and casts it to ``dtype``, so a forward (``encode``)
    holds only the entries of the step it runs: a layer's attention half,
    its exchange block or its FFN half. ``dict(...)`` reads and checks them
    all.
    """
    index = falt.index(path)
    _check_names_and_shapes({name: entry.dims for name, entry in index.items()}, cfg)
    return _ArchiveWeights(path, {name: index[name] for name, *_ in tensor_specs(cfg)}, dtype)


def block_weights(specs, w: Weights, prefix: str) -> dict[str, np.ndarray]:
    """One block's ``{field: tensor}``, for each field of ``specs``
    (``layer_specs`` or ``reatten_specs``): ``w``'s own entry named
    ``{prefix}.{field}``, uncopied; ``prefix`` is e.g. "layers.0"."""
    return {field: w[f"{prefix}.{field}"] for field, *_ in specs}


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
    block = layer_specs(cfg.width) + reatten_specs(cfg.width)
    return element_count(_stem_specs(cfg)) + cfg.layers * element_count(block)


def state_elements(cfg: EncoderConfig) -> tuple[int, int, int]:
    """Elements of each array one state adds to a group of states: its pixels
    (and as many in its patch rows), its FFN hidden array and one head's
    softmax matrix."""
    return 3 * cfg.tile**2, cfg.n_tokens * FFN_MULT * cfg.width, cfg.n_tokens**2


def check_budget(
    cfg: EncoderConfig, n_tiles: int, thumbnail: bool = True, d_llm: int | None = None
) -> None:
    """Refuse, before anything is allocated, a run of ``count_flops``'s
    arguments whose largest arrays exceed their caps. ``crop_tiles`` builds
    the thumbnail even when ``thumbnail`` is off. With ``d_llm``, which
    must be at least 1, the projector's two matrices and its hidden array,
    one d_llm-wide row per register output, are bounded too."""
    if d_llm is not None and d_llm < 1:
        raise ConfigError(f"d_llm must be >= 1, got {d_llm}")
    n_states = n_tiles + (1 if thumbnail else 0)
    exchange_rows = cfg.registers * n_states if cfg.reatten_enabled else 0
    pixels, hidden, softmax = state_elements(cfg)
    budget = [
        ("cropped pixels", (n_tiles + 1) * pixels, MAX_STATE_ELEMENTS),
        ("tile states", n_states * cfg.n_tokens * cfg.width, MAX_STATE_ELEMENTS),
        ("one state's FFN hidden array", hidden, MAX_STATE_ELEMENTS),
        ("one head's softmax matrix", max(softmax, exchange_rows**2), MAX_STATE_ELEMENTS),
        ("encoder weights", weight_elements(cfg), MAX_WEIGHT_ELEMENTS),
    ]
    if d_llm is not None:
        budget += [
            ("projector weights", d_llm * (cfg.width + d_llm), MAX_WEIGHT_ELEMENTS),
            ("projector hidden array", cfg.registers * n_states * d_llm, MAX_STATE_ELEMENTS),
        ]
    for what, elements, cap in budget:
        if elements > cap:
            raise ConfigError(f"{what}: {elements} elements, over the {cap}-element cap")


def embed_tiles(tiles: TileSet, w: Weights, cfg: EncoderConfig, thumbnail: bool = True):
    """Layer-0 token states: one (*lead, S, N+M, D) array, one state per
    tile, ``lead`` the leading axes of a stacked ``patch_embed`` (its
    ``shape[:-3]``) broadcast with a stacked raster's (its ``shape[:-4]``).

    The tiles are ``tiles.raster``, the thumbnail last and treated exactly
    like a tile, or ``tiles.tiles`` with it off. Image rows are
    patchify(normalized tile) @ patch_embed + pos_embed, one normalize,
    patchify and batched product per group (``_groups``); register rows are
    the single shared register tensor. ``max_tiles`` bounds each image's tiles.
    """
    if tiles.raster.ndim < 4 or tiles.raster.shape[-3:] != (cfg.tile, cfg.tile, 3):
        raise ConfigError(f"raster {tiles.raster.shape} is not (..., S, {cfg.tile}, {cfg.tile}, 3)")
    if tiles.tiles.shape[-4] > cfg.max_tiles:
        raise ConfigError(f"{tiles.tiles.shape[-4]} tiles exceed max_tiles={cfg.max_tiles}")
    raster = tiles.raster if thumbnail else tiles.tiles
    if raster.shape[-4] == 0:
        raise ConfigError("no state to encode: no tile, and the thumbnail is off")
    patch_embed, pos_embed, registers = w["patch_embed"], w["pos_embed"], w["registers"]
    embed = np.asarray(ad.value_of(patch_embed))
    lead, dtype = np.broadcast_shapes(embed.shape[:-3], raster.shape[:-4]), embed.dtype
    n = cfg.n_image_tokens
    states = np.empty((*lead, raster.shape[-4], cfg.n_tokens, cfg.width), dtype)
    for grp in _groups(states, cfg):
        pixels = raster[..., grp, :, :, :].astype(dtype, copy=False)
        tokens = patchify(normalize_pixels(pixels), cfg.patch)
        image_rows = tokens @ patch_embed
        image_rows += pos_embed
        states = ad.put(states, (..., grp, slice(None, n), slice(None)), image_rows)
    return ad.put(states, (..., slice(n, None), slice(None)), registers)


def _attention(x, weights, heads: int, collect=None, rows=slice(None), kv=None):
    """The attention step: layer norm, multi-head softmax attention of the
    normed query rows ``rows`` over all normed rows of ``x``, or over the raw
    rows ``kv`` when given, the output projection and the residual on
    ``x[..., rows, :]``. ``x`` and ``kv`` are (rows, D), or (..., rows, D)
    for states that each attend within themselves; ``weights`` are six
    tensors in ``_VIT_TO_REATTEN``'s order (ln gamma, ln beta, wq, wk, wv,
    wo), each broadcast over the leading axes. ``collect(head, attn)`` sees
    each head's (..., query rows, key rows) softmax matrices.

    Each head's output fills its columns of one array. On the plain path
    the logits, their softmax and that array are written in place; on a
    ``Var`` the same lines build new nodes. Each transient is dropped after
    its last use: the normed rows once K and V exist, a head's softmax
    matrix at the end of its head, Q, K and V before the output projection.
    So the step holds one softmax matrix at a time.
    """
    ln_gamma, ln_beta, wq, wk, wv, wo = weights
    normed = ad.layer_norm(x, ln_gamma, ln_beta)
    if kv is None:
        kv = normed
    q = normed[..., rows, :] @ wq
    k = kv @ wk
    v = kv @ wv
    del normed, kv
    width = ad.value_of(q).shape[-1]
    dk = width // heads
    scale = 1.0 / math.sqrt(dk)
    out = np.empty_like(ad.value_of(q))
    for h in range(heads):
        cols = (..., slice(h * dk, (h + 1) * dk))
        logits = q[cols] @ k[cols].swapaxes(-1, -2)
        logits *= scale
        attn = ad.softmax_rows(logits, out=logits)
        if collect is not None:
            collect(h, ad.value_of(attn))
        out = ad.put(out, cols, attn @ v[cols])
        del logits, attn
    del q, k, v
    out = out @ wo
    out += x[..., rows, :]
    return out


def self_attention_block(x, lw: dict, cfg: EncoderConfig, collect=None, rows=slice(None)):
    """The layer's attention step (``_attention``) over all N+M rows of each
    state jointly, unmasked; ``x`` is one (N+M, D) state or a (..., g, N+M, D)
    group, ``lw`` a block dict (``block_weights``) holding at least the
    layer's attention half (``attention_specs``). Only the query rows ``rows``
    are computed and returned, each attending over all N+M rows."""
    return _attention(x, [lw[f] for f in _VIT_TO_REATTEN], cfg.heads, collect, rows)


def reatten(states, rw: dict, cfg: EncoderConfig, *, collect=None):
    """Cross-tile register exchange; returns the new register rows only.

    ``states`` is the (*lead, S, N+M, D) state array. The register rows of
    each leading index are joined in state order and passed through the
    attention step (``_attention``) with the exchange block's weights, which
    ``_VIT_TO_REATTEN`` maps onto a layer's. The result is one
    (*lead, M*S, D) array, state k's rows at [k*M, (k+1)*M). ``states`` is
    not modified: putting the rows back next to each state's image rows is
    the caller's job.
    """
    lead = ad.value_of(states).shape[:-3]
    regs = states[..., cfg.n_image_tokens :, :].reshape(*lead, -1, cfg.width)
    return _attention(regs, [rw[f] for f in _VIT_TO_REATTEN.values()], cfg.heads, collect)


def ffn_block(x, lw: dict, cfg: EncoderConfig):
    """Residual pre-norm two-layer GeLU MLP, applied row-wise to the
    (rows, D) rows of one state or the (..., g, rows, D) rows of a group.
    ``lw`` is a block dict holding at least the FFN half (``ffn_specs``).
    ``cfg`` is not read; the abstractor's blocks pass None."""
    hidden = ad.layer_norm(x, lw["ln2_gamma"], lw["ln2_beta"]) @ lw["w1"]
    out = ad.gelu(hidden, out=hidden) @ lw["w2"]
    out += x
    return out


def _groups(states, cfg: EncoderConfig) -> list[slice]:
    """The groups of the (*lead, S, N+M, D) state array, in state order:
    slices of g consecutive states along axis -3, 1 <= g <= S, the last one
    possibly partial. g keeps the largest array of ``state_elements``, at the
    states' itemsize, within ``numerics._BLOCK_BYTES`` for the whole group,
    its states at every leading index counted."""
    value = ad.value_of(states)
    *lead, s = value.shape[:-2]
    per_state = max(state_elements(cfg)) * value.itemsize * math.prod(lead)
    g = max(1, min(s, numerics._BLOCK_BYTES // per_state))
    return [slice(lo, lo + g) for lo in range(0, s, g)]


def _at(collect, layer: int, first: int | None = None):
    """``collect`` for one attention call of ``layer``: with ``first``, a
    group's softmax stacks, split per state along axis -3 from state
    ``first`` on; without it, the exchange step's matrix (``tile=None``).
    None stays None."""
    if collect is None:
        return None
    if first is None:
        return partial(collect, layer, None)

    def per_state(head, attn):
        for k in range(attn.shape[-3]):
            collect(layer, first + k, head, attn[..., k, :, :])

    return per_state


def encode(
    tiles: TileSet, w: Weights, cfg: EncoderConfig, *, thumbnail: bool = True, collect=None
):
    """Run the full encoder; returns the register outputs.

    The output stacks each tile's M register rows in tile order, thumbnail
    last: M * (n_tiles + 1) rows in total when the thumbnail is included.
    Image-token outputs are discarded. The S tile states are one
    (*lead, S, N+M, D) array. Each block runs on groups of consecutive states
    (``_groups``); the exchange step joins all S once per layer. ``w``
    is the canonical name -> tensor mapping. Each entry is looked up once,
    just before the step that reads it, and released when that step ends:
    a layer's attention half (``attention_specs``) around its
    self-attention, its exchange block around the exchange step (never with
    the exchange off), its FFN half (``ffn_specs``) around its FFN. So
    ``load_weights``' mapping holds one step's weights at a time: 16 MiB,
    16 MiB and 32 MiB per paper layer in float32.

    Nothing reads the last layer's image rows, so its self-attention and
    FFN compute only the register rows; their keys and values still span
    all N+M rows.

    ``collect(layer, tile, head, attn)``, when given, sees every softmax
    matrix in forward order: for the self-attention of state ``tile``
    (thumbnail last), (N+M, N+M), or (M, N+M), the register query rows, in
    the last layer; (M*S, M*S) with ``tile=None`` for the exchange step. A
    layer's groups run in state order; within a group the head is the outer
    loop and the state the inner one, so each (layer, head) sees the states
    in ascending order. ``attn`` is the working array; copy what you keep.

    Images and weight sets stacked along leading axes ``lead`` encode in one
    call, each image under each set to its single encode's bytes; the images
    are one (*lead, n_tiles + 1, T, T, 3) raster. The output is then
    (*lead, S*M, D) and each ``attn`` carries ``lead`` in front. A stacked
    weight puts ``lead`` before the axes its step batches over: a stem or
    layer tensor is (*lead, 1, r, c), a layer vector (*lead, 1, 1, D), an
    exchange tensor (*lead, r, c) and its vector (*lead, 1, D), as the
    exchange runs on the joined rows. Any may be an ``np.broadcast_to`` view.
    """
    states = embed_tiles(tiles, w, cfg, thumbnail=thumbnail)
    # The callee's frame owns its arguments (CPython >= 3.11): when the
    # caller passes the TileSet as a temporary, as ``cli.cmd_encode`` does,
    # its pixels are freed here, before layer 0.
    del tiles
    groups = _groups(states, cfg)
    shape = ad.value_of(states).shape
    register_rows = slice(cfg.n_image_tokens, None)
    registers = (..., register_rows, slice(None))
    # On the plain path each result is written over its input in the one
    # state array, so only one generation of tile states is alive at a time.
    # ``out`` holds the last group's result until the next one replaces it.
    # Freed at once, it would leave a block's temporaries on top of the heap,
    # where glibc's malloc returns them to the OS, and every group would
    # fault them in again: ten times the page faults of a 16-tile paper
    # encode, which ran 8% slower.
    d = cfg.width
    attention, exchange, ffn = attention_specs(d), reatten_specs(d), ffn_specs(d)
    for layer in range(cfg.layers):
        rows = register_rows if layer == cfg.layers - 1 else slice(None)
        lw = block_weights(attention, w, f"layers.{layer}")
        for grp in groups:
            at = _at(collect, layer, grp.start)
            out = self_attention_block(states[..., grp, :, :], lw, cfg, at, rows)
            states = ad.put(states, (..., grp, rows, slice(None)), out)
        del lw
        if cfg.reatten_enabled:
            rw = block_weights(exchange, w, f"reatten.{layer}")
            regs = reatten(states, rw, cfg, collect=_at(collect, layer))
            del rw
            states = ad.put(states, registers, regs.reshape(*shape[:-2], cfg.registers, cfg.width))
            del regs
        lw = block_weights(ffn, w, f"layers.{layer}")
        for grp in groups:
            key = (..., grp, rows, slice(None))
            out = ffn_block(states[key], lw, cfg)
            states = ad.put(states, key, out)
        del lw
    return states[registers].reshape(*shape[:-3], -1, cfg.width)


def parameter_gradients(tiles: TileSet, w: Weights, cfg: EncoderConfig, thumbnail: bool = True):
    """Analytic gradients of loss = sum(F_hr) w.r.t. the tensors the forward read.

    Returns (loss value, canonical name -> gradient array), in ``w``'s order.
    Runs ``encode`` with the weights wrapped as autodiff variables; a tensor
    the forward never read (``reatten.*`` with the exchange off) gets no entry.
    The weights are one set, not a stack: ``autodiff.layer_norm`` sums its
    gamma and beta gradients over all rows into a 1-D gamma and beta.
    """
    params = {name: ad.Var(tensor) for name, tensor in w.items()}
    loss = ad.total(encode(tiles, params, cfg, thumbnail=thumbnail))
    loss.backward()
    return float(loss.value), {n: v.grad for n, v in params.items() if v.grad is not None}


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
    stacked = np.stack([rows[register] for rows in tile_rows[: plan.n_tiles]])
    grid = stacked.reshape(plan.rows, plan.cols, side, side).swapaxes(1, 2)
    return grid.reshape(plan.rows * side, plan.cols * side)


def config_with_overrides(base: EncoderConfig, **overrides) -> EncoderConfig:
    """Dataclass replace that drops None values (CLI convenience)."""
    kept = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(base, **kept) if kept else base
