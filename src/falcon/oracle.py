"""Independent reference implementations and numerical checkers.

The reference forward (``encode_reference``, ``brute_force_attention`` and
the loop primitives under them) is deliberately naive and single-threaded:
pure-Python triple loops over lists, no numpy kernels, no code shared with
the encoder. Attention is written once, in ``_attend_ref``. The reference
forward doubles as an instrumented multiply-add counter, which is what the
closed-form FLOP formulas are validated against. The selftest and the
gradient gate call the encoder on purpose: it is what they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from .encoder import EncoderConfig, Weights
from .errors import ConfigError, NumericError
from .image_crop import TileSet
from .numerics import SplitMix64

REFERENCE_TOKEN_CAP = 512

# The cap on the multiply-adds of one reference forward, which
# ``_check_reference`` adds to the token cap. The pure-Python forward runs
# about 5-9 million a second on a 2-core Xeon, and the selftest runs it
# twice: tiny at one head and width 128 (12.4M) takes 3.5 s; width 256
# (46.7M) is refused.
REFERENCE_MAC_CAP = 1 << 24

# run_selftest's fixtures, each plus the thumbnail: the oracle checks run on
# 2 tiles, the permutation check on 3.
_ORACLE_TILES = 2
_PERMUTED_TILES = 3

# The gradient gate: central differences of this step, and every tensor's
# relative error (``check_encoder_gradients``) within this threshold.
GRAD_STEP = 1e-5
GRAD_THRESHOLD = 1e-4

_GELU_C = math.sqrt(2.0 / math.pi)
_EPS = 1e-6  # layer-norm epsilon


# ---------------------------------------------------------------------------
# Loop-based primitives (lists of lists, float64)
# ---------------------------------------------------------------------------


def _mm(a, b, counts=None, key=None):
    m, inner, n = len(a), len(b), len(b[0])
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        ai = a[i]
        row = out[i]
        for j in range(n):
            s = 0.0
            for t in range(inner):
                s += ai[t] * b[t][j]
            row[j] = s
    if counts is not None:
        counts[key] = counts.get(key, 0) + m * inner * n
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _ln_rows(x, gamma, beta):
    out = []
    d = len(x[0])
    for row in x:
        mu = sum(row) / d
        var = sum((v - mu) ** 2 for v in row) / d
        inv = 1.0 / math.sqrt(var + _EPS)
        out.append([(v - mu) * inv * g + b for v, g, b in zip(row, gamma, beta)])
    return out


def _softmax_row(row):
    m = max(row)
    e = [math.exp(v - m) for v in row]
    s = sum(e)
    return [v / s for v in e]


def _gelu_scalar(v):
    return 0.5 * v * (1.0 + math.tanh(_GELU_C * (v + 0.044715 * v**3)))


def _attend_ref(q, k, v, counts=None, key=None):
    """softmax(q k^T / sqrt(d)) v over lists of rows: any number of query rows
    over any number of key and value rows."""
    scale = 1.0 / math.sqrt(len(q[0]))
    logits = _mm(q, _transpose(k), counts, key)
    return _mm([_softmax_row([s * scale for s in row]) for row in logits], v, counts, key)


def brute_force_attention(q, k, v) -> np.ndarray:
    """Softmax(q k^T / sqrt(d)) v via triple loops, 64-bit accumulation, for
    any number of query rows over any number of key and value rows."""
    rows = (np.asarray(a, dtype=np.float64).tolist() for a in (q, k, v))
    return np.array(_attend_ref(*rows))


# ---------------------------------------------------------------------------
# Reference forward (instrumented)
# ---------------------------------------------------------------------------


def _mha_ref(x, wq, wk, wv, wo, heads, counts, key):
    q = _mm(x, wq, counts, key)
    k = _mm(x, wk, counts, key)
    v = _mm(x, wv, counts, key)
    width = len(wq[0])
    dk = width // heads
    concat = [[] for _ in x]
    for lo in range(0, width, dk):
        qh, kh, vh = ([row[lo : lo + dk] for row in t] for t in (q, k, v))
        for row, out in zip(concat, _attend_ref(qh, kh, vh, counts, key)):
            row.extend(out)
    return _mm(concat, wo, counts, key)


def _patchify_ref(tile, p):
    side = tile.shape[0]
    g = side // p
    rows = []
    for gy in range(g):
        for gx in range(g):
            row = []
            for py in range(p):
                for px in range(p):
                    for c in range(3):
                        row.append((float(tile[gy * p + py, gx * p + px, c]) - 0.5) / 0.5)
            rows.append(row)
    return rows


def _check_reference(cfg: EncoderConfig, n_states: int) -> None:
    """Refuse a reference forward over ``n_states`` states past either cap."""
    tokens = n_states * cfg.n_tokens
    macs = sum(_macs(cfg, n_states, False, None, cfg.n_tokens).values())
    for got, cap, what in ((tokens, REFERENCE_TOKEN_CAP, "total tokens"),
                           (macs, REFERENCE_MAC_CAP, "multiply-adds")):
        if got > cap:
            raise ConfigError(f"reference forward capped at {cap} {what}, got {got}")


def encode_reference(
    tiles: TileSet, w: Weights, cfg: EncoderConfig, thumbnail: bool = True
) -> tuple[np.ndarray, dict]:
    """Loop-based re-implementation of the full forward, float64 throughout.

    Returns (register outputs, multiply-add counts per component). Refuses
    stacked images and inputs over ``_check_reference``'s caps before it reads ``w``.
    """
    if tiles.raster.ndim != 4:
        raise ConfigError(f"reference forward encodes one image, got raster {tiles.raster.shape}")
    raster = tiles.raster if thumbnail else tiles.tiles
    _check_reference(cfg, len(raster))
    wd = {name: np.asarray(t, dtype=np.float64).tolist() for name, t in w.items()}
    counts = {"embed": 0, "self_attention": 0, "reatten": 0, "ffn": 0}
    n = cfg.n_image_tokens
    m = cfg.registers

    states = []
    for tile in raster:
        patches = _patchify_ref(tile, cfg.patch)
        image_rows = _add(_mm(patches, wd["patch_embed"], counts, "embed"), wd["pos_embed"])
        states.append(image_rows + [list(row) for row in wd["registers"]])

    def residual_attention(x, prefix, ln, proj, key):
        """``x`` plus multi-head attention over its pre-norm: the layer norm
        ``{prefix}.{ln}_*`` and the projections ``{prefix}.{proj}q`` to ``o``."""
        normed = _ln_rows(x, wd[f"{prefix}.{ln}_gamma"], wd[f"{prefix}.{ln}_beta"])
        w = [wd[f"{prefix}.{proj}{p}"] for p in "qkvo"]
        return _add(x, _mha_ref(normed, *w, cfg.heads, counts, key))

    for layer in range(cfg.layers):
        lp = f"layers.{layer}"
        states = [residual_attention(x, lp, "ln1", "w", "self_attention") for x in states]
        if cfg.reatten_enabled:
            regs = [row for x in states for row in x[n:]]
            regs = residual_attention(regs, f"reatten.{layer}", "ln", "r", "reatten")
            states = [x[:n] + regs[i * m : (i + 1) * m] for i, x in enumerate(states)]
        for i, x in enumerate(states):
            normed = _ln_rows(x, wd[f"{lp}.ln2_gamma"], wd[f"{lp}.ln2_beta"])
            hidden = _mm(normed, wd[f"{lp}.w1"], counts, "ffn")
            hidden = [[_gelu_scalar(v) for v in row] for row in hidden]
            states[i] = _add(x, _mm(hidden, wd[f"{lp}.w2"], counts, "ffn"))

    f_hr = [row for x in states for row in x[n:]]
    return np.array(f_hr, dtype=np.float64), counts


# ---------------------------------------------------------------------------
# FLOP accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlopReport:
    """Exact multiply-add counts per component plus token bookkeeping."""

    self_attention: int
    reatten: int
    ffn: int
    projector: int
    total: int
    tokens_pre: int
    tokens_post: int


def attention_macs(n_q: int, n_kv: int, d: int) -> int:
    """Multiply-adds of one multi-head attention of width d: Q and the output
    projection on n_q rows, K and V on n_kv rows, logits and mixing n_q x n_kv.
    """
    return 2 * n_q * d**2 + 2 * n_kv * d**2 + 2 * n_q * n_kv * d


def ffn_macs(n: int, d: int) -> int:
    """Multiply-adds of a two-layer MLP d -> FFN_MULT*d -> d on n rows."""
    return 2 * n * d * (enc.FFN_MULT * d)


def block_macs(n_q: int, n_kv: int, d: int) -> int:
    """Multiply-adds of one block of width d: the attention of n_q query rows
    over n_kv key rows, then the FFN on the n_q rows."""
    return attention_macs(n_q, n_kv, d) + ffn_macs(n_q, d)


def embed_macs(cfg: EncoderConfig, n_states: int) -> int:
    """Multiply-adds of the patch embedding of ``n_states`` tiles."""
    return n_states * cfg.n_image_tokens * 3 * cfg.patch**2 * cfg.width


def _macs(
    cfg: EncoderConfig, n_tiles: int, thumbnail: bool, d_llm: int | None, last_rows: int
) -> dict[str, int]:
    """Multiply-adds per component of a forward whose last layer computes
    ``last_rows`` query rows per state, over all N+M key rows; the layers
    before it compute all N+M. The exchange step runs on the M*T register
    rows of every layer, T counting the thumbnail; the projector, when
    ``d_llm`` is given, on the same rows."""
    if n_tiles < 1:
        raise ConfigError(f"n_tiles must be >= 1, got {n_tiles}")
    if d_llm is not None and d_llm < 1:
        raise ConfigError(f"d_llm must be >= 1, got {d_llm}")
    t = n_tiles + (1 if thumbnail else 0)
    n, d, full = cfg.n_tokens, cfg.width, cfg.layers - 1
    reg_tokens = cfg.registers * t
    return {
        "embed": embed_macs(cfg, t),
        "self_attention": t * (full * attention_macs(n, n, d) + attention_macs(last_rows, n, d)),
        "reatten": (
            cfg.layers * attention_macs(reg_tokens, reg_tokens, d) if cfg.reatten_enabled else 0
        ),
        "ffn": t * (full * ffn_macs(n, d) + ffn_macs(last_rows, d)),
        "projector": reg_tokens * (d * d_llm + d_llm * d_llm) if d_llm else 0,
    }


def count_flops(
    cfg: EncoderConfig, n_tiles: int, thumbnail: bool = True, d_llm: int | None = None
) -> FlopReport:
    """Closed-form multiply-add counts for a full encode (``_macs``), every
    row of every layer counted, as the loop oracle runs them; the patch
    embedding is not. ``run_macs`` counts what ``encode`` runs."""
    macs = _macs(cfg, n_tiles, thumbnail, d_llm, cfg.n_tokens)
    del macs["embed"]
    t = n_tiles + (1 if thumbnail else 0)
    return FlopReport(
        **macs,
        total=sum(macs.values()),
        tokens_pre=cfg.n_image_tokens * t,
        tokens_post=cfg.registers * t,
    )


def run_macs(
    cfg: EncoderConfig, n_tiles: int, thumbnail: bool = True, d_llm: int | None = None
) -> dict[str, int]:
    """The multiply-adds ``encode`` runs on ``count_flops``' arguments, per
    component and in total: the patch embedding, and a last layer that
    computes only the M register rows of each state."""
    macs = _macs(cfg, n_tiles, thumbnail, d_llm, cfg.registers)
    return {**macs, "total": sum(macs.values())}


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def finite_diff_grad(loss_fn, params: dict[str, np.ndarray], h: float = GRAD_STEP) -> dict:
    """Central differences (loss(x+h) - loss(x-h)) / 2h per coordinate.

    ``loss_fn`` takes no arguments and reads the (temporarily perturbed)
    arrays in ``params``; every array is restored before returning.
    """
    if h <= 0:
        raise ConfigError(f"step size must be positive, got {h}")
    grads = {}
    for name, tensor in params.items():
        if not tensor.flags.c_contiguous:
            raise ConfigError(f"parameter {name!r} must be C-contiguous to perturb in place")
        flat = tensor.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss_fn()
            flat[i] = orig - h
            minus = loss_fn()
            flat[i] = orig
            if not (math.isfinite(plus) and math.isfinite(minus)):
                raise NumericError(f"non-finite loss while perturbing {name}[{i}]")
            g[i] = (plus - minus) / (2.0 * h)
        grads[name] = g.reshape(tensor.shape)
    return grads


def check_encoder_gradients(
    tiles: TileSet, w: Weights, cfg: EncoderConfig, thumbnail: bool = True
) -> dict[str, float]:
    """Per tensor the forward read, the agreement of the analytic gradients
    of loss = sum(F_hr) with central finite differences of step
    ``GRAD_STEP``: the max-abs difference over the tensor divided by the
    larger of the two gradients' max-abs values, which keeps near-zero
    coordinates from blowing up the ratio. The gate passes when each is at
    most ``GRAD_THRESHOLD``. The tensors are those ``parameter_gradients``
    reports, so one the forward never read is neither differenced nor
    reported. Requires float64 weights."""
    for name, tensor in w.items():
        if tensor.dtype != np.float64:
            raise ConfigError(f"gradient check requires float64 weights, {name} is {tensor.dtype}")
    _, analytic = enc.parameter_gradients(tiles, w, cfg, thumbnail=thumbnail)

    def loss_fn():
        return float(enc.encode(tiles, w, cfg, thumbnail=thumbnail).sum())

    fd = finite_diff_grad(loss_fn, {name: w[name] for name in analytic}, GRAD_STEP)
    rel_err = {}
    for name in fd:
        a, f = analytic[name], fd[name]
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(f))), 1e-12)
        rel_err[name] = float(np.max(np.abs(a - f))) / scale
    return rel_err


# ---------------------------------------------------------------------------
# Self-test suite
# ---------------------------------------------------------------------------


def fixture_tiles(cfg: EncoderConfig, n_tiles: int, seed: int) -> TileSet:
    """Deterministic pseudo-random tiles in [0, 1], one extra as thumbnail:
    one draw of the seed's stream fills the raster."""
    shape = (n_tiles + 1, cfg.tile, cfg.tile, 3)
    u = (SplitMix64(seed).fill_u64(math.prod(shape)) >> np.uint64(11)).astype(np.float64)
    return TileSet((u * 2.0**-53).reshape(shape).astype(np.float32))


def _check(name: str, passed: bool, **detail) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def check_selftest_budget(cfg: EncoderConfig, verify_mode: bool = True) -> None:
    """Refuse, before anything is allocated, a config whose selftest
    fixtures exceed ``max_tiles`` or are over the run budget, or whose
    reference forward is over ``REFERENCE_TOKEN_CAP`` or ``REFERENCE_MAC_CAP``;
    then, in verify mode, width 2."""
    if cfg.max_tiles < _PERMUTED_TILES:
        raise ConfigError(
            f"selftest fixtures of {_PERMUTED_TILES} tiles exceed max_tiles={cfg.max_tiles}"
        )
    enc.check_budget(cfg, _PERMUTED_TILES)
    _check_reference(cfg, _ORACLE_TILES + 1)
    if verify_mode and cfg.width == 2:
        raise ConfigError(
            "verify mode refuses width 2: a layer norm over 2 features discards its input's "
            "scale, so central differences cannot resolve the gradients"
        )


def run_selftest(cfg: EncoderConfig, w: Weights, seed: int = 0, verify_mode: bool = True) -> dict:
    """Oracle equivalence, gradient check, and invariant suite on one config.

    Gradient checking runs only in verify mode (it needs float64); the
    returned summary says so when skipped. The float32 checks run on ``w``
    cast to float32, the float64 and gradient checks on ``w`` cast to
    float64; a tensor already in the dtype is used as it is. ``seed``
    draws the fixture tiles.
    """
    tiles = fixture_tiles(cfg, _ORACLE_TILES, seed)
    w32 = {name: t.astype(np.float32, copy=False) for name, t in w.items()}
    checks = []

    n = cfg.n_image_tokens
    normalized = []

    def check_attention(layer, tile, head, attn):
        ok = np.allclose(attn.sum(axis=1), 1.0, atol=1e-6)
        if tile is not None:
            rows = attn[-cfg.registers :, :n]
            ok = ok and rows.min() >= 0.0 and rows.max() <= 1.0
        normalized.append(bool(ok))

    f32 = enc.encode(tiles, w32, cfg, collect=check_attention)
    ref, _ = encode_reference(tiles, w32, cfg)
    err32 = float(np.max(np.abs(f32.astype(np.float64) - ref)))
    checks.append(_check("oracle_equivalence_f32", err32 <= 1e-5, max_abs_err=err32, tolerance=1e-5))

    w64 = {name: t.astype(np.float64, copy=False) for name, t in w.items()}
    f64 = enc.encode(tiles, w64, cfg)
    ref64, _ = encode_reference(tiles, w64, cfg)
    err64 = float(np.max(np.abs(f64 - ref64)))
    checks.append(_check("oracle_equivalence_f64", err64 <= 1e-10, max_abs_err=err64, tolerance=1e-10))

    if verify_mode:
        rel_err = check_encoder_gradients(tiles, w64, cfg)
        worst = max(rel_err, key=rel_err.get)
        checks.append(
            _check(
                "gradient_check",
                all(r <= GRAD_THRESHOLD for r in rel_err.values()),
                tensors=len(rel_err),
                worst_tensor=worst,
                worst_rel_err=rel_err[worst],
                threshold=GRAD_THRESHOLD,
            )
        )

    checks.append(_check("attention_normalization", all(normalized)))

    budget_ok = f32.shape == (cfg.registers * len(tiles.raster), cfg.width)
    checks.append(_check("token_budget", budget_ok, rows=int(f32.shape[0])))

    perm_err = 0.0
    for s in range(5):
        pt = fixture_tiles(cfg, _PERMUTED_TILES, seed + 100 + s)
        base = enc.encode(pt, w32, cfg)
        perm = [2, 0, 1]
        swapped = enc.encode(TileSet(pt.raster[[*perm, -1]]), w32, cfg)
        m = cfg.registers
        for new_pos, old_pos in enumerate(perm):
            diff = np.abs(
                swapped[new_pos * m : (new_pos + 1) * m] - base[old_pos * m : (old_pos + 1) * m]
            )
            perm_err = max(perm_err, float(diff.max()))
    checks.append(_check("permutation_equivariance", perm_err <= 1e-5, max_abs_err=perm_err))

    cfg_off = enc.config_with_overrides(cfg, reatten_enabled=False)
    joint = enc.encode(tiles, w32, cfg_off, thumbnail=False)
    m = cfg.registers
    solo_ok = True
    for i in range(len(tiles.tiles)):
        solo = enc.encode(TileSet(tiles.raster[[i, -1]]), w32, cfg_off, thumbnail=False)
        if not np.array_equal(solo, joint[i * m : (i + 1) * m]):
            solo_ok = False
    checks.append(_check("reatten_off_independence", solo_ok))

    again = enc.encode(tiles, w32, cfg)
    checks.append(_check("determinism", again.tobytes() == f32.tobytes()))

    return {
        "passed": all(c["passed"] for c in checks),
        "verify_mode": bool(verify_mode),
        "gradient_check_skipped": not verify_mode,
        "checks": checks,
    }
