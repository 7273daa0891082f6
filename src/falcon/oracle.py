"""Independent reference implementations and numerical checkers.

Everything here is deliberately naive and single-threaded: pure-Python
triple loops over lists, no numpy kernels, no code shared with the main
encoder. The reference forward doubles as an instrumented multiply-add
counter, which is what the closed-form FLOP formulas are validated against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import encoder as enc
from .encoder import EncoderConfig, Weights
from .errors import ConfigError, NumericError
from .image_crop import TileSet
from .numerics import SplitMix64

REFERENCE_TOKEN_CAP = 512

_GELU_C = math.sqrt(2.0 / math.pi)


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


def _ln_rows(x, gamma, beta, eps):
    out = []
    d = len(x[0])
    for row in x:
        mu = sum(row) / d
        var = sum((v - mu) ** 2 for v in row) / d
        inv = 1.0 / math.sqrt(var + eps)
        out.append([(v - mu) * inv * g + b for v, g, b in zip(row, gamma, beta)])
    return out


def _softmax_row(row):
    m = max(row)
    e = [math.exp(v - m) for v in row]
    s = sum(e)
    return [v / s for v in e]


def _gelu_scalar(v):
    return 0.5 * v * (1.0 + math.tanh(_GELU_C * (v + 0.044715 * v**3)))


def brute_force_attention(q, k, v) -> np.ndarray:
    """Softmax(q k^T / sqrt(d)) v via triple loops, 64-bit accumulation."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n, d = q.shape
    scale = 1.0 / math.sqrt(d)
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        logits = []
        for j in range(n):
            s = 0.0
            for t in range(d):
                s += q[i, t] * k[j, t]
            logits.append(s * scale)
        weights = _softmax_row(logits)
        for j in range(n):
            for t in range(v.shape[1]):
                out[i, t] += weights[j] * v[j, t]
    return out


# ---------------------------------------------------------------------------
# Reference forward (instrumented)
# ---------------------------------------------------------------------------


def _mha_ref(x, wq, wk, wv, wo, heads, counts, key):
    q = _mm(x, wq, counts, key)
    k = _mm(x, wk, counts, key)
    v = _mm(x, wv, counts, key)
    n = len(x)
    width = len(wq[0])
    dk = width // heads
    scale = 1.0 / math.sqrt(dk)
    concat = [[0.0] * width for _ in range(n)]
    for h in range(heads):
        lo = h * dk
        qh = [row[lo : lo + dk] for row in q]
        kh = [row[lo : lo + dk] for row in k]
        vh = [row[lo : lo + dk] for row in v]
        logits = _mm(qh, _transpose(kh), counts, key)
        attn = [_softmax_row([s * scale for s in row]) for row in logits]
        out_h = _mm(attn, vh, counts, key)
        for i in range(n):
            concat[i][lo : lo + dk] = out_h[i]
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


def encode_reference(
    tiles: TileSet, w: Weights, cfg: EncoderConfig, thumbnail: bool = True
) -> tuple[np.ndarray, dict]:
    """Loop-based re-implementation of the full forward, float64 throughout.

    Returns (register outputs, multiply-add counts per component). Refuses
    inputs larger than the documented cap so it stays auditable and fast.
    """
    raster = list(tiles.tiles) + ([tiles.global_thumb] if thumbnail else [])
    if len(raster) * cfg.n_tokens > REFERENCE_TOKEN_CAP:
        raise ConfigError(
            f"reference forward capped at {REFERENCE_TOKEN_CAP} total tokens, "
            f"got {len(raster) * cfg.n_tokens}"
        )
    wd = {name: np.asarray(t, dtype=np.float64).tolist() for name, t in w.items()}
    counts = {"embed": 0, "self_attention": 0, "reatten": 0, "ffn": 0}
    eps = cfg.ln_eps
    n = cfg.n_image_tokens
    m = cfg.registers

    states = []
    for tile in raster:
        patches = _patchify_ref(np.asarray(tile), cfg.patch)
        image_rows = _add(_mm(patches, wd["patch_embed"], counts, "embed"), wd["pos_embed"])
        states.append(image_rows + [list(row) for row in wd["registers"]])

    for layer in range(cfg.layers):
        ln1_g = wd[f"layers.{layer}.ln1_gamma"]
        ln1_b = wd[f"layers.{layer}.ln1_beta"]
        ln2_g = wd[f"layers.{layer}.ln2_gamma"]
        ln2_b = wd[f"layers.{layer}.ln2_beta"]
        states = [
            _add(
                x,
                _mha_ref(
                    _ln_rows(x, ln1_g, ln1_b, eps),
                    wd[f"layers.{layer}.wq"],
                    wd[f"layers.{layer}.wk"],
                    wd[f"layers.{layer}.wv"],
                    wd[f"layers.{layer}.wo"],
                    cfg.heads,
                    counts,
                    "self_attention",
                ),
            )
            for x in states
        ]
        if cfg.reatten_enabled:
            regs = [row for x in states for row in x[n:]]
            exchanged = _add(
                regs,
                _mha_ref(
                    _ln_rows(regs, wd[f"reatten.{layer}.ln_gamma"], wd[f"reatten.{layer}.ln_beta"], eps),
                    wd[f"reatten.{layer}.rq"],
                    wd[f"reatten.{layer}.rk"],
                    wd[f"reatten.{layer}.rv"],
                    wd[f"reatten.{layer}.ro"],
                    cfg.heads,
                    counts,
                    "reatten",
                ),
            )
            states = [
                x[:n] + exchanged[i * m : (i + 1) * m] for i, x in enumerate(states)
            ]
        new_states = []
        for x in states:
            normed = _ln_rows(x, ln2_g, ln2_b, eps)
            hidden = _mm(normed, wd[f"layers.{layer}.w1"], counts, "ffn")
            hidden = [[_gelu_scalar(v) for v in row] for row in hidden]
            new_states.append(_add(x, _mm(hidden, wd[f"layers.{layer}.w2"], counts, "ffn")))
        states = new_states

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

    def as_dict(self) -> dict:
        return asdict(self)


def attention_macs(n_q: int, n_kv: int, d: int) -> int:
    """Multiply-adds of one multi-head attention of width d: Q and the output
    projection on n_q rows, K and V on n_kv rows, logits and mixing n_q x n_kv.
    """
    return 2 * n_q * d**2 + 2 * n_kv * d**2 + 2 * n_q * n_kv * d


def ffn_macs(n: int, d: int, mult: int) -> int:
    """Multiply-adds of a two-layer MLP d -> mult*d -> d on n rows."""
    return 2 * n * d * (mult * d)


def count_flops(
    cfg: EncoderConfig, n_tiles: int, thumbnail: bool = True, d_llm: int | None = None
) -> FlopReport:
    """Closed-form multiply-add counts for a full encode.

    Per tile per layer: self-attention over N+M rows and the FFN with
    ``cfg.ffn_mult`` hidden width. The exchange step per layer runs on M*T
    rows, T counting the thumbnail. Projector counts are included when a
    target width is given.
    """
    if n_tiles < 1:
        raise ConfigError(f"n_tiles must be >= 1, got {n_tiles}")
    t = n_tiles + (1 if thumbnail else 0)
    tokens = cfg.n_tokens
    d = cfg.width
    self_attention = cfg.layers * t * attention_macs(tokens, tokens, d)
    ffn = cfg.layers * t * ffn_macs(tokens, d, cfg.ffn_mult)
    reg_tokens = cfg.registers * t
    reatten = (
        cfg.layers * attention_macs(reg_tokens, reg_tokens, d) if cfg.reatten_enabled else 0
    )
    projector = reg_tokens * (d * d_llm + d_llm * d_llm) if d_llm else 0
    total = self_attention + reatten + ffn + projector
    return FlopReport(
        self_attention=self_attention,
        reatten=reatten,
        ffn=ffn,
        projector=projector,
        total=total,
        tokens_pre=cfg.n_image_tokens * t,
        tokens_post=reg_tokens,
    )


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def finite_diff_grad(loss_fn, params: dict[str, np.ndarray], h: float = 1e-5) -> dict:
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


@dataclass
class GradEntry:
    name: str
    max_abs_err: float
    rel_err: float
    passed: bool


@dataclass
class GradReport:
    """Per-tensor agreement between analytic and finite-difference gradients.

    ``rel_err`` is the max-abs difference over a tensor divided by the
    larger of the two gradients' max-abs values, which keeps near-zero
    coordinates from blowing up the ratio.
    """

    entries: list[GradEntry]
    passed: bool
    loss: float
    threshold: float

    def worst(self) -> GradEntry:
        return max(self.entries, key=lambda e: e.rel_err)


def check_encoder_gradients(
    tiles: TileSet,
    w: Weights,
    cfg: EncoderConfig,
    thumbnail: bool = True,
    h: float = 1e-5,
    threshold: float = 1e-4,
) -> GradReport:
    """Compare analytic gradients of loss = sum(F_hr) against central
    finite differences for every trainable tensor. Requires float64 weights."""
    for name, tensor in w.items():
        if tensor.dtype != np.float64:
            raise ConfigError(f"gradient check requires float64 weights, {name} is {tensor.dtype}")
    loss, analytic = enc.parameter_gradients(tiles, w, cfg, thumbnail=thumbnail)

    def loss_fn():
        return float(enc.encode(tiles, w, cfg, thumbnail=thumbnail).sum())

    fd = finite_diff_grad(loss_fn, w, h)
    entries = []
    for name in w:
        a = analytic[name]
        f = fd[name]
        max_abs = float(np.max(np.abs(a - f)))
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(f))), 1e-12)
        rel = max_abs / scale
        entries.append(GradEntry(name, max_abs, rel, rel <= threshold))
    return GradReport(entries, all(e.passed for e in entries), loss, threshold)


# ---------------------------------------------------------------------------
# Self-test suite
# ---------------------------------------------------------------------------


def fixture_tiles(cfg: EncoderConfig, n_tiles: int, seed: int) -> TileSet:
    """Deterministic pseudo-random tiles in [0, 1], one extra as thumbnail."""
    rng = SplitMix64(seed)
    shape = (cfg.tile, cfg.tile, 3)
    count = int(np.prod(shape))

    def draw():
        u = (rng.fill_u64(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return u.reshape(shape).astype(np.float32)

    tiles = [draw() for _ in range(n_tiles)]
    return TileSet(tiles=tiles, global_thumb=draw())


def _check(name: str, passed: bool, **detail) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def run_selftest(
    cfg: EncoderConfig, seed: int = 0, verify_mode: bool = True, weights: Weights | None = None
) -> dict:
    """Oracle equivalence, gradient check, and invariant suite on one config.

    Gradient checking runs only in verify mode (it needs float64); the
    returned summary says so when skipped. Given ``weights``, every check
    runs on them (cast to float64 for the float64 checks); otherwise on
    ``init_weights(cfg, seed)``. The summary's ``weights`` says which.
    """
    tiles = fixture_tiles(cfg, 2, seed)
    w32 = weights if weights is not None else enc.init_weights(cfg, seed, np.float32)
    checks = []

    n = cfg.n_image_tokens
    normalized = []

    def check_attention(layer, tile, head, attn):
        ok = np.allclose(attn.sum(axis=1), 1.0, atol=1e-6)
        if tile is not None:
            rows = attn[n:, :n]
            ok = ok and rows.min() >= 0.0 and rows.max() <= 1.0
        normalized.append(bool(ok))

    f32 = enc.encode(tiles, w32, cfg, collect=check_attention)
    ref, _ = encode_reference(tiles, w32, cfg)
    err32 = float(np.max(np.abs(f32.astype(np.float64) - ref)))
    checks.append(_check("oracle_equivalence_f32", err32 <= 1e-5, max_abs_err=err32, tolerance=1e-5))

    if weights is None:
        w64 = enc.init_weights(cfg, seed, np.float64)
    else:
        w64 = {name: t.astype(np.float64, copy=False) for name, t in weights.items()}
    f64 = enc.encode(tiles, w64, cfg)
    ref64, _ = encode_reference(tiles, w64, cfg)
    err64 = float(np.max(np.abs(f64 - ref64)))
    checks.append(_check("oracle_equivalence_f64", err64 <= 1e-10, max_abs_err=err64, tolerance=1e-10))

    if verify_mode:
        report = check_encoder_gradients(tiles, w64, cfg)
        worst = report.worst()
        checks.append(
            _check(
                "gradient_check",
                report.passed,
                tensors=len(report.entries),
                worst_tensor=worst.name,
                worst_rel_err=worst.rel_err,
                threshold=report.threshold,
            )
        )

    checks.append(_check("attention_normalization", all(normalized)))

    budget_ok = f32.shape == (cfg.registers * (len(tiles.tiles) + 1), cfg.width)
    checks.append(_check("token_budget", budget_ok, rows=int(f32.shape[0])))

    perm_err = 0.0
    for s in range(5):
        pt = fixture_tiles(cfg, 3, seed + 100 + s)
        base = enc.encode(pt, w32, cfg)
        perm = [2, 0, 1]
        swapped = enc.encode(TileSet([pt.tiles[i] for i in perm], pt.global_thumb), w32, cfg)
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
    for i, tile in enumerate(tiles.tiles):
        solo = enc.encode(TileSet([tile], tiles.global_thumb), w32, cfg_off, thumbnail=False)
        if not np.array_equal(solo, joint[i * m : (i + 1) * m]):
            solo_ok = False
    checks.append(_check("reatten_off_independence", solo_ok))

    again = enc.encode(tiles, w32, cfg)
    checks.append(_check("determinism", again.tobytes() == f32.tobytes()))

    return {
        "passed": all(c["passed"] for c in checks),
        "verify_mode": bool(verify_mode),
        "gradient_check_skipped": not verify_mode,
        "weights": "seeded" if weights is None else "archive",
        "checks": checks,
    }
