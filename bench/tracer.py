"""Span tracer that wraps the public functions of the ``falcon`` package.

The tracer only observes. While installed it replaces module and class
attributes with thin timing wrappers; ``uninstall`` puts the original objects
back. Nothing under ``src/`` knows about it. A target that no longer exists
(say, after a refactor folds a block away) is listed in ``absent`` and
skipped.

Spans nest through a call stack (the benchmark runs ``--threads 1``), so a
span's self time is its duration minus the durations of its direct child
spans. Spans are folded into per-name aggregates as they close; no span list
is kept, which keeps memory flat over the ~10^6 spans of one selftest.

Multiply-adds are attributed to the encoder blocks and the projector from
``oracle.count_flops``, the repository's one home of the MAC formulas,
evaluated for the shapes each call received. Each ``encode`` and
``parameter_gradients`` span is checked as it closes: the MACs of the block
spans below it must sum exactly to ``count_flops(cfg, n_tiles,
thumbnail).total``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time

# (owner, attribute). An owner names a module, or "module:Class".
TARGETS = (
    ("falcon.image_crop", "load_ppm"),
    ("falcon.image_crop", "plan_crop"),
    ("falcon.image_crop", "crop_tiles"),
    ("falcon.image_crop", "resize_bilinear"),
    ("falcon.image_crop", "to_float"),
    ("falcon.numerics", "init_uniform"),
    ("falcon.numerics", "gelu"),
    ("falcon.numerics", "layer_norm"),
    ("falcon.numerics", "softmax_rows"),
    ("falcon.numerics:SplitMix64", "fill_u64"),
    ("falcon.encoder", "init_weights"),
    ("falcon.encoder", "load_weights"),
    ("falcon.encoder", "save_weights"),
    ("falcon.encoder", "embed_tiles"),
    ("falcon.encoder", "self_attention_block"),
    ("falcon.encoder", "reatten"),
    ("falcon.encoder", "ffn_block"),
    ("falcon.encoder", "encode"),
    ("falcon.encoder", "parameter_gradients"),
    ("falcon.falt", "load"),
    ("falcon.falt", "save"),
    ("falcon.compressors", "init_projector"),
    ("falcon.compressors", "mlp_project"),
    ("falcon.autodiff:Var", "backward"),
    ("falcon.oracle", "encode_reference"),
    ("falcon.oracle", "finite_diff_grad"),
    ("falcon.oracle", "count_flops"),
    ("falcon.oracle", "run_selftest"),
    ("falcon.cli", "main"),
)

BLOCKS = ("encoder.self_attention_block", "encoder.reatten", "encoder.ffn_block")
KERNELS = ("numerics.layer_norm", "numerics.softmax_rows", "numerics.gelu")
MAC_SPANS = BLOCKS + ("compressors.mlp_project",)
FORWARDS = ("encoder.encode", "encoder.parameter_gradients")


def span_name(owner: str, attr: str) -> str:
    """("falcon.numerics:SplitMix64", "fill_u64") -> "numerics.SplitMix64.fill_u64"."""
    return owner.split(".", 1)[1].replace(":", ".") + "." + attr


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = __import__(module_name, fromlist=["_"])
        except ImportError:
            return None
    return getattr(module, cls, None) if cls else module


def _shape(x) -> tuple:
    return tuple(getattr(x, "shape", ()))


def _states(shape: tuple) -> int:
    """Tile states in one block call: 1 for (rows, D), T for (T, rows, D)."""
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _n_states(states) -> int:
    return len(states) if isinstance(states, (list, tuple)) else _shape(states)[0]


# Argument extractors run inside the wrapper, before the call. Each returns a
# hashable key that ``Tracer._macs`` turns into a MAC count.
def _block_key(args, kwargs):
    return (_states(_shape(args[0])), args[2])


def _reatten_key(args, kwargs):
    enabled = args[3] if len(args) > 3 else kwargs.get("enabled", True)
    return (_n_states(args[0]), args[2], bool(enabled))


def _project_key(args, kwargs):
    return (_shape(args[0]), _shape(args[1].w1)[1])


def _forward_key(args, kwargs):
    thumbnail = kwargs.get("thumbnail", args[3] if len(args) > 3 else True)
    return (len(args[0].tiles), args[2], bool(thumbnail))


KEYS = {
    "encoder.self_attention_block": _block_key,
    "encoder.ffn_block": _block_key,
    "encoder.reatten": _reatten_key,
    "compressors.mlp_project": _project_key,
    "encoder.encode": _forward_key,
    "encoder.parameter_gradients": _forward_key,
}


@dataclasses.dataclass
class Agg:
    """Per-name totals. ``units`` counts the name's own work items: draws for
    init_uniform, input pixels for crop_tiles, forwards for finite_diff_grad."""

    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    macs: int = 0
    nbytes: int = 0
    units: int = 0


@dataclasses.dataclass
class Counters:
    """Run-level counts that are not tied to one span name."""

    gate_checked: int = 0
    kernel_calls_in_blocks: int = 0
    state_layers: int = 0


MAX_GATE_MESSAGES = 5


class Tracer:
    """Installs timing wrappers on ``TARGETS``; see the module docstring."""

    def __init__(self):
        self.absent: list[str] = []
        self.gate_skipped = False
        self.gate_failures: list[str] = []
        self.restore_failures: list[str] = []
        self._plan: list[tuple[object, str, object, object]] | None = None
        self._mac_cache: dict = {}
        self._count_flops = None
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Start new aggregates."""
        self.aggs: dict[str, Agg] = {}
        self.counters = Counters()
        self.last_root_macs = 0

    # -- MAC attribution ---------------------------------------------------

    def _macs(self, name: str, key) -> int:
        cached = self._mac_cache.get((name, key))
        if cached is not None:
            return cached
        from falcon import encoder

        cf = self._count_flops
        if name == "encoder.reatten":
            n, cfg, enabled = key
            cfg1 = dataclasses.replace(cfg, layers=1, reatten_enabled=enabled)
            macs = cf(cfg1, n, thumbnail=False).reatten
        elif name in ("encoder.self_attention_block", "encoder.ffn_block"):
            n, cfg = key
            report = cf(dataclasses.replace(cfg, layers=1), n, thumbnail=False)
            macs = report.self_attention if name == "encoder.self_attention_block" else report.ffn
        elif name == "compressors.mlp_project":
            (rows, width), d_llm = key
            # count_flops counts registers * states projector rows, so one
            # state of `rows` registers stands for this call's input.
            cfg = encoder.config_with_overrides(
                encoder.PRESETS["tiny"], layers=1, width=width, heads=1, registers=rows
            )
            macs = cf(cfg, 1, thumbnail=False, d_llm=d_llm).projector
        else:
            n_tiles, cfg, thumbnail = key
            macs = cf(cfg, n_tiles, thumbnail=thumbnail).total
        self._mac_cache[(name, key)] = macs
        return macs

    def _gate_failure(self, message: str) -> None:
        if len(self.gate_failures) < MAX_GATE_MESSAGES:
            self.gate_failures.append(message)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        key_fn = KEYS.get(name)
        clock = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            key = None
            if key_fn is not None:
                try:
                    key = key_fn(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    key = False  # signature changed: this call cannot be attributed
            frame = [name, 0.0, 0.0, 0, key]
            stack.append(frame)
            result = None
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                close(frame, t1, args, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _close(self, frame, t1, args, result) -> None:
        name, t0, child_s, macs_below, key = frame
        dur = t1 - t0
        stack = self._stack
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = Agg()
        agg.calls += 1
        agg.incl_s += dur
        agg.self_s += dur - child_s
        own = 0
        if key is False:
            self._gate_failure(f"{name}: arguments not recognised, MACs unattributed")
        elif name in MAC_SPANS:
            own = self._macs(name, key)
            agg.macs += own
            if name == "encoder.self_attention_block":
                self.counters.state_layers += key[0]
        elif name in FORWARDS:
            if any(f[0] == "oracle.finite_diff_grad" for f in stack):
                self.aggs.setdefault("oracle.finite_diff_grad", Agg()).units += 1
            if not self.gate_skipped:
                expected = self._macs(name, key)
                self.counters.gate_checked += 1
                if macs_below != expected:
                    self._gate_failure(
                        f"{name}: block spans {macs_below} MACs != count_flops {expected}"
                    )
        elif name in KERNELS:
            if stack and stack[-1][0] in BLOCKS:
                self.counters.kernel_calls_in_blocks += 1
        elif name == "falt.save":
            agg.nbytes += sum(a.nbytes for a in args[1].values())
        elif name == "falt.load" and result is not None:
            agg.nbytes += sum(a.nbytes for a in result.values())
        elif name == "numerics.init_uniform":
            agg.units += math.prod(args[0])
        elif name == "image_crop.crop_tiles":
            agg.units += math.prod(_shape(args[0])[:2])
        total = macs_below + own
        if stack:
            parent = stack[-1]
            parent[2] += dur
            parent[3] += total
        else:
            self.last_root_macs = total

    # -- install / uninstall -----------------------------------------------

    def _make_plan(self) -> list:
        import falcon.cli  # noqa: F401  (loads every module of the package)
        from falcon import oracle

        self._count_flops = oracle.count_flops
        self.absent = []
        plan = []
        for owner, attr in TARGETS:
            holder = _resolve(owner)
            original = vars(holder).get(attr) if holder is not None else None
            name = span_name(owner, attr)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            if ":" in owner:
                plan.append((holder, attr, original, wrapped))
                continue
            # A function imported by name into other modules is bound there
            # too; every binding is replaced so calls through any of them show.
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "falcon" or mod_name.startswith("falcon.")):
                    continue
                for bound_name, value in vars(module).items():
                    if value is original:
                        plan.append((module, bound_name, original, wrapped))
        self.gate_skipped = any(n in self.absent for n in MAC_SPANS + FORWARDS)
        return plan

    def install(self) -> None:
        """Wrap every target found; the missing ones are listed in ``absent``."""
        if self._plan is None:
            self._plan = self._make_plan()
        for holder, attr, _, wrapped in self._plan:
            setattr(holder, attr, wrapped)

    def uninstall(self) -> list[str]:
        """Put every original back; returns the attributes that did not restore."""
        for holder, attr, original, _ in reversed(self._plan or []):
            setattr(holder, attr, original)
        broken = [
            f"{getattr(h, '__name__', h)}.{a}"
            for h, a, o, _ in self._plan or []
            if vars(h).get(a) is not o
        ]
        self.restore_failures.extend(b for b in broken if b not in self.restore_failures)
        return broken
