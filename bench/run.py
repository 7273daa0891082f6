"""Encode benchmark for the falcon package.

Run from the repository root:

    python3 bench/run.py --workload paper-encode --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one process, ``--threads 1``; see README.md):

* ``paper-encode``: ``falcon encode`` at paper geometry with 2 layers over
  images of 1, 4, 6 and 16 tiles, weights loaded from a FALT archive.
* ``tiny-stream``: ``falcon encode --preset tiny`` over 64 PPMs from 24 px to
  1 Mpx; dispatch-bound.
* ``selftest-verify``: ``falcon selftest`` (tiny preset, float64 verify mode).
  Not listed in BENCHMARK.json: on a shared host its run-to-run spread
  exceeds any usable bound (see README.md); run it by hand.

Every op is an in-process ``falcon.cli.main([...])`` call. Ops run in whole
passes over the workload's op set until ``--seconds`` have elapsed and at
least two passes have run; end-to-end metrics use each op's fastest run.
Outputs are checked after the timed phase. The last line of stdout is one
JSON object: end-to-end metrics with ``--trace 0``; with ``--trace 1``,
per-layer metrics from traced runs of the same ops, each paired with an
untraced run of the same op.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from tracer import Agg, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCHEMAS = os.path.join(ROOT, "docs", "schemas")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("paper-encode", "tiny-stream", "selftest-verify")
SETUP_REPEATS = 5
MIN_PASSES = 2  # end-to-end metrics take each op's fastest of at least two runs
ORACLE_SAMPLE = 8
# The selftest's float32 oracle tolerance, scaled by the output magnitude:
# float32 rounding alone reaches ~2e-6 relative on these inputs.
ORACLE_TOL = 1e-5
PAPER_GRIDS = ((1, 1), (2, 2), (2, 3), (4, 4))  # 1, 4, 6 and 16 tiles
PAPER_LAYERS = 2
PAPER_D_LLM = 2048
TINY_D_LLM = 128  # the CLI's default --d-llm
TINY_POOL = 64
# Re-anchor single-run figures: 4 tiles + thumbnail, seconds per layer.
ROADMAP_PER_LAYER_S = {
    "encoder.self_attention_block": 0.45,
    "encoder.reatten": 0.04,
    "encoder.ffn_block": 0.47,
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import falcon from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "falcon", "cli.py")):
        raise SetupError(f"falcon sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import falcon.cli

    if not os.path.abspath(falcon.cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"falcon imported from {falcon.cli.__file__}, not {SRC}")
    return falcon


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Op:
    """One ``cli.main`` call and what its outputs must look like.

    ``--out`` is appended per run for encodes, so the same op can run twice.
    """

    argv: list[str]
    cfg: object = None
    image: str | None = None
    seed: int | None = None
    d_llm: int | None = None


def write_ppm(path: str, rng: np.random.Generator, h: int, w: int) -> None:
    pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes())


def tiny_shapes() -> list[tuple[int, int]]:
    """Fixed (h, w) set: areas log-spaced 24^2..1e6 px, aspect 1/4..4.

    The set does not depend on the seed, so every run does the same work;
    the seed picks pixels, order and model seeds.
    """
    aspects = (1.0, 4 / 3, 3 / 4, 2.0, 1 / 2, 3.0, 1 / 3, 4.0, 1 / 4)
    lo, hi = math.log(24 * 24), math.log(1_000_000)
    shapes = []
    for i in range(TINY_POOL):
        area = math.exp(lo + (hi - lo) * i / (TINY_POOL - 1))
        ar = aspects[i % len(aspects)]
        shapes.append((max(8, round(math.sqrt(area / ar))), max(8, round(math.sqrt(area * ar)))))
    return shapes


class Workload:
    """Inputs and op passes of one workload, all drawn from ``seed``."""

    def __init__(self, name: str, seed: int):
        from falcon import encoder

        self.name = name
        self.seed = seed
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.model_seeds = np.random.default_rng([seed, 99])
        self.weights = os.path.join(WORK, "W.falt")
        self.paper_cfg = encoder.config_with_overrides(encoder.PRESETS["paper"], layers=PAPER_LAYERS)
        self.tiny_cfg = encoder.PRESETS["tiny"]
        self.images = sorted(
            os.path.join(WORK, n) for n in os.listdir(WORK) if n.endswith(".ppm")
        )

    def generate(self) -> None:
        """Write the input images; excluded from every timing."""
        if self.name == "paper-encode":
            for rows, cols in PAPER_GRIDS:
                # Up to 10% off the grid keeps the crop plan and varies the resize.
                jitter = self.rng.uniform(-0.1, 0.1, size=2)
                h, w = (round(384 * (n + j)) for n, j in zip((rows, cols), jitter))
                self.images.append(os.path.join(WORK, f"paper_{rows}x{cols}.ppm"))
                write_ppm(self.images[-1], self.rng, h, w)
        elif self.name == "tiny-stream":
            for i, (h, w) in enumerate(tiny_shapes()):
                self.images.append(os.path.join(WORK, f"tiny_{i:02d}.ppm"))
                write_ppm(self.images[-1], self.rng, h, w)

    def _model_seed(self) -> int:
        return int(self.model_seeds.integers(0, 2**31))

    def encode_op(self, image: str) -> Op:
        if self.name == "paper-encode":
            argv = ["encode", image, "--preset", "paper", "--layers", str(PAPER_LAYERS),
                    "--weights", self.weights, "--project", "--d-llm", str(PAPER_D_LLM)]
            return Op(argv + ["--threads", "1"], self.paper_cfg, image, d_llm=PAPER_D_LLM)
        seed = self._model_seed()
        argv = ["encode", image, "--preset", "tiny", "--seed", str(seed), "--project"]
        return Op(argv + ["--threads", "1"], self.tiny_cfg, image, seed, TINY_D_LLM)

    def warmup(self) -> list[Op]:
        if self.name == "paper-encode":
            return [self.encode_op(self.images[0])]  # also the repeated-image reference
        if self.name == "tiny-stream":
            return [self.encode_op(img) for img in self.images]
        return []

    def next_pass(self) -> list[Op]:
        if self.name == "selftest-verify":
            seed = self._model_seed()
            argv = ["selftest", "--preset", "tiny", "--verify-mode", "on", "--seed", str(seed)]
            return [Op(argv + ["--threads", "1"], self.tiny_cfg, seed=seed)]
        return [self.encode_op(self.images[i]) for i in self.rng.permutation(len(self.images))]

    def setup_once(self, falcon) -> None:
        """The program work this workload needs before its timed phase."""
        if self.name == "paper-encode":
            from falcon import encoder

            w = encoder.init_weights(self.paper_cfg, self.seed)
            encoder.save_weights(self.weights, w, self.paper_cfg)
        elif self.name == "tiny-stream":
            run_op(falcon, self.encode_op(self.images[0]), os.path.join(WORK, "setup.falt"))
        else:
            run_op(falcon, Op(["selftest", "--preset", "tiny", "--verify-mode", "off"]), None)


# ---------------------------------------------------------------------------
# Running and checking ops
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Result:
    op: Op
    out: str | None
    rc: int | None
    stdout: str
    seconds: float
    error: str | None = None


def run_op(falcon, op: Op, out: str | None) -> Result:
    argv = op.argv + (["--out", out] if out else [])
    buf = io.StringIO()
    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = falcon.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an op that crashes is a failed op, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Result(op, out, rc, buf.getvalue(), seconds, error)


def _out(tag: str, p: int, i: int, op: Op) -> str | None:
    return os.path.join(WORK, f"{tag}_{p}_{i}.falt") if op.image else None


@dataclasses.dataclass
class Phase:
    passes: list[list[Result]]
    traced: list[list[Result]]

    def flat(self, traced: bool = False) -> list[Result]:
        return [r for p in (self.traced if traced else self.passes) for r in p]


def run_passes(falcon, workload: Workload, seconds: float, min_passes: int,
               tracer=None, after_traced=None) -> Phase:
    """Whole passes until ``seconds`` elapse and ``min_passes`` have run.

    With a tracer, each op runs twice in a row, untraced then traced, so the
    two runs see the same machine state and their ratio is the tracing cost.
    """
    phase = Phase([], [])
    t0 = time.perf_counter()
    while len(phase.passes) < min_passes or time.perf_counter() - t0 < seconds:
        p = len(phase.passes)
        row, traced_row = [], []
        for i, op in enumerate(workload.next_pass()):
            row.append(run_op(falcon, op, _out("timed", p, i, op)))
            if tracer is not None:
                tracer.install()
                try:
                    traced_row.append(run_op(falcon, op, _out("traced", p, i, op)))
                finally:
                    tracer.uninstall()
                after_traced(traced_row[-1])
        phase.passes.append(row)
        phase.traced.append(traced_row)
    return phase


class Checker:
    """Output checks; each returns an error string or None."""

    def __init__(self):
        try:
            import jsonschema
        except ImportError as exc:
            raise SetupError("jsonschema is needed to validate reports") from exc
        self.validators = {}
        for kind in ("encode", "selftest"):
            with open(os.path.join(SCHEMAS, f"{kind}.schema.json"), encoding="utf-8") as f:
                self.validators[kind] = jsonschema.Draft202012Validator(json.load(f))

    def check(self, r: Result) -> str | None:
        if r.error is not None:
            return r.error
        if r.rc != 0:
            return f"exit code {r.rc}"
        try:
            report = json.loads(r.stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        kind = r.op.argv[0]
        errors = sorted(e.message for e in self.validators[kind].iter_errors(report))
        if errors:
            return f"{kind} schema: {errors[0]}"
        if kind == "selftest":
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            if not report["passed"] or failed or not report["verify_mode"]:
                return f"selftest failed: {failed}"
            return None
        return self._check_encode(r, report)

    def _check_encode(self, r: Result, report: dict) -> str | None:
        from falcon import falt, image_crop

        cfg = r.op.cfg
        with open(r.op.image, "rb") as f:
            h, w = image_crop.load_ppm(f.read()).shape[:2]
        n_tiles = image_crop.plan_crop(h, w, cfg.tile, cfg.max_tiles).n_tiles
        rows = cfg.registers * (n_tiles + 1)
        if report["n_tiles"] != n_tiles or report["tokens_out"] != rows:
            return f"tokens_out {report['tokens_out']} != {cfg.registers} x ({n_tiles} + 1)"
        if report["out"] != r.out or report["dry_run"]:
            return f"report out {report['out']!r} != {r.out!r}"
        entries = falt.load(r.out)
        want = {"f_hr": (rows, cfg.width), "projected": (rows, r.op.d_llm)}
        got = {k: v.shape for k, v in entries.items()}
        if got != want:
            return f"archive entries {got} != {want}"
        if not all(np.isfinite(v).all() for v in entries.values()):
            return "archive holds non-finite values"
        return None

    def oracle(self, r: Result) -> str | None:
        """Compare f_hr with the loop oracle within the selftest tolerance."""
        from falcon import encoder, falt, image_crop, oracle

        cfg = r.op.cfg
        with open(r.op.image, "rb") as f:
            img = image_crop.to_float(image_crop.load_ppm(f.read()))
        plan = image_crop.plan_crop(img.shape[0], img.shape[1], cfg.tile, cfg.max_tiles)
        tiles = image_crop.crop_tiles(img, plan)
        ref, _ = oracle.encode_reference(tiles, encoder.init_weights(cfg, r.op.seed), cfg)
        err = float(np.max(np.abs(falt.load(r.out)["f_hr"].astype(np.float64) - ref)))
        tol = ORACLE_TOL * max(1.0, float(np.max(np.abs(ref))))
        return None if err <= tol else f"oracle max abs err {err:.3g} > {tol:.3g}"


def same_output(a: Result, b: Result) -> str | None:
    """Two runs of one op: archives must be byte-identical, reports equal."""
    if a.out is None:
        return None if a.stdout == b.stdout else "selftest reports differ"
    with open(a.out, "rb") as fa, open(b.out, "rb") as fb:
        if fa.read() != fb.read():
            return f"{os.path.basename(a.out)} and {os.path.basename(b.out)} differ"
    return None


def check_all(checker: Checker, results, failures: list) -> None:
    for r in results:
        err = checker.check(r)
        if err is not None:
            failures.append(f"{' '.join(r.op.argv[:2])}: {err}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def measure_setup(workload: Workload) -> float:
    """Median set-up time over fresh interpreters, so cold costs show.

    Each child times ``import falcon`` plus ``Workload.setup_once``.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
             "--seed", str(workload.seed), "--setup-once"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def best_times(phase: Phase) -> list[float]:
    """Each op's fastest run over the passes.

    The machine's speed drifts by tens of percent over seconds; the fastest
    of several runs of the same op is far steadier than any one run.
    """
    best: dict = {}
    for p in phase.passes:
        for i, r in enumerate(p):
            key = r.op.image or i
            best[key] = min(best.get(key, math.inf), r.seconds)
    return list(best.values())


def end_to_end(phase: Phase, setup_s: float) -> dict:
    best = np.array(best_times(phase))
    return {
        "ops_per_s": metric(len(best) / best.sum(), "1/s"),
        "latency_p50_s": metric(float(np.percentile(best, 50)), "s"),
        "latency_p90_s": metric(float(np.percentile(best, 90)), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_pass(setup_aggs: dict, op_aggs: dict, passes: int) -> dict:
    """Set-up totals plus op totals per pass, by span name."""
    merged = {}
    for name in set(setup_aggs) | set(op_aggs):
        s, o = setup_aggs.get(name, Agg()), op_aggs.get(name, Agg())
        merged[name] = Agg(**{f.name: getattr(s, f.name) + getattr(o, f.name) / passes
                              for f in dataclasses.fields(Agg)})
    return merged


def per_layer(aggs: dict, counters, overhead: float, macs_per_pass: int, absent: list,
              gradient_path: bool) -> dict:
    """Per-layer metrics per pass; ``.s`` is self time, rates use inclusive time."""
    def a(name):
        return aggs.get(name, Agg())

    def secs(name, key=None):
        return {(key or name) + ".s": metric(a(name).self_s, "s")}

    def rate(name, field, scale, suffix, unit):
        return {f"{name}.{suffix}": metric(_rate(getattr(a(name), field), a(name).incl_s) / scale, unit)}

    out = {}
    for name in ("encoder.self_attention_block", "encoder.ffn_block", "encoder.reatten",
                 "compressors.mlp_project"):
        out |= secs(name) | rate(name, "macs", 1e9, "gmacs_per_s", "GMAC/s")
    for name in ("numerics.gelu", "numerics.layer_norm", "numerics.softmax_rows"):
        out |= secs(name) | {name + ".calls": metric(a(name).calls, "count")}
    for name in ("falt.load", "falt.save"):
        out |= secs(name) | rate(name, "nbytes", 1e6, "mb_per_s", "MB/s")
    out |= secs("encoder.init_weights") | secs("numerics.SplitMix64.fill_u64")
    out |= rate("numerics.init_uniform", "units", 1e6, "mdraws_per_s", "Mdraw/s")
    out |= secs("image_crop.load_ppm") | secs("image_crop.crop_tiles")
    out |= secs("image_crop.resize_bilinear")
    out |= rate("image_crop.crop_tiles", "units", 1e6, "mpix_per_s", "Mpix/s")
    out |= secs("encoder.embed_tiles") | secs("encoder.encode")
    enc = a("encoder.encode")
    out["encoder.encode.overhead_share"] = metric(_rate(enc.self_s, enc.incl_s), "share")
    out["encoder.kernel_calls_per_state_layer"] = metric(
        _rate(counters.kernel_calls_in_blocks, counters.state_layers), "count"
    )
    out |= secs("cli.main", "cli.overhead")
    if gradient_path:  # only selftest-verify calls these; elsewhere they would read 0
        out |= secs("encoder.parameter_gradients") | secs("autodiff.Var.backward")
        out |= secs("oracle.encode_reference") | secs("oracle.finite_diff_grad")
        out |= rate("oracle.finite_diff_grad", "units", 1, "forwards_per_s", "1/s")
    out["trace.overhead_share"] = metric(overhead, "share")
    out["trace.macs_per_pass"] = metric(macs_per_pass, "count")
    out["trace.absent"] = metric(len(absent), "count")
    return out


# ---------------------------------------------------------------------------
# Machine block
# ---------------------------------------------------------------------------


def gemm_gmacs(n: int = 1024, repeats: int = 9) -> float:
    """Plain n x n float32 GEMM rate, median of ``repeats``."""
    rng = np.random.default_rng(0)
    a = rng.random((n, n), dtype=np.float32)
    b = rng.random((n, n), dtype=np.float32)
    a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return n**3 / statistics.median(times) / 1e9


def blas_info() -> dict:
    """BLAS name, version and thread count, read without threadpoolctl."""
    import ctypes
    import glob

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version")}
    info["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                   if k in os.environ}
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["threads"] = get_threads()
                info["config"] = get_config().decode()
                return info
    return info


def machine_block() -> dict:
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    return {
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "gemm_1024_f32_gmacs_per_s": gemm_gmacs(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run(args) -> dict:
    falcon = import_program()
    workload = Workload(args.workload, args.seed)
    workload.generate()
    checker = Checker()
    failures: list[str] = []
    report: dict = {"workload": args.workload, "seed": args.seed}

    tracer, setup_aggs = None, {}
    if args.trace:
        tracer = Tracer()
        if workload.name == "paper-encode":  # its set-up is traced once, in-process
            tracer.install()
            try:
                workload.setup_once(falcon)
            finally:
                tracer.uninstall()
            setup_aggs = tracer.aggs
            tracer.reset()
    else:
        setup_s = measure_setup(workload)

    warm = [run_op(falcon, op, _out("warm", 0, i, op)) for i, op in enumerate(workload.warmup())]
    op_macs: list[int] = []
    block_s: list[dict] = []

    def after_traced(r: Result) -> None:
        op_macs.append(tracer.last_root_macs)
        block_s.append({n: tracer.aggs[n].incl_s for n in ROADMAP_PER_LAYER_S if n in tracer.aggs})

    min_passes = 1 if args.trace else MIN_PASSES
    phase = run_passes(falcon, workload, args.seconds, min_passes, tracer, after_traced)
    timed = phase.flat()
    check_all(checker, warm + timed, failures)
    if workload.name == "paper-encode":
        repeat = next(r for r in timed if r.op.image == warm[0].op.image)
        err = same_output(warm[0], repeat)
        if err:
            failures.append(f"repeated image: {err}")
    if workload.name == "tiny-stream":
        rng = np.random.default_rng([args.seed, 7])
        for i in sorted(rng.choice(len(timed), ORACLE_SAMPLE, replace=False)):
            err = checker.oracle(timed[i])
            if err:
                failures.append(f"oracle sample {i}: {err}")
    attempted = len(warm) + len(timed)

    if args.trace:
        traced = phase.flat(traced=True)
        attempted += len(traced)
        metrics = traced_metrics(tracer, phase, setup_aggs, op_macs, checker, failures, report,
                                 gradient_path=workload.name == "selftest-verify")
        if workload.name == "paper-encode":
            report["cross_check_4_tiles"] = cross_check(traced, block_s)
    else:
        metrics = end_to_end(phase, setup_s)
        if workload.images:
            report["images_per_s"] = metric(metrics["ops_per_s"]["value"], "1/s")
        else:
            report["selftest_s"] = metric(metrics["latency_p50_s"]["value"], "s")

    failed = len(failures)
    report["failed_share"] = metric(failed / attempted, "share")
    report["failures"] = failures[:20]
    return {"report": report, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_metrics(tracer, phase: Phase, setup_aggs, op_macs, checker, failures, report,
                   gradient_path: bool) -> dict:
    """Gates and per-layer metrics of the traced runs."""
    timed, traced = phase.flat(), phase.flat(traced=True)
    check_all(checker, traced, failures)
    for a, b in zip(timed, traced):
        err = same_output(a, b)
        if err:
            failures.append(f"tracing changed an output: {err}")
    failures.extend(f"not restored: {name}" for name in tracer.restore_failures)
    failures.extend(f"MAC gate: {msg}" for msg in tracer.gate_failures)
    if not tracer.gate_skipped:
        for r, macs in zip(traced, op_macs):
            if r.op.image and r.rc == 0 and macs != json.loads(r.stdout)["flops"]["total"]:
                failures.append(f"MAC gate: op spans {macs} != count_flops total")
    pass_macs, i = [], 0
    for p in phase.traced:
        pass_macs.append(sum(op_macs[i : i + len(p)]))
        i += len(p)
    if len(set(pass_macs)) != 1:
        failures.append(f"MAC gate: per-pass MACs differ: {pass_macs}")

    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in timed) - 1.0
    report.update(
        machine=machine_block(),
        absent=tracer.absent,
        mac_gate={"forwards_checked": tracer.counters.gate_checked,
                  "skipped": tracer.gate_skipped, "macs_per_pass": pass_macs[0]},
    )
    aggs = per_pass(setup_aggs, tracer.aggs, len(phase.passes))
    return per_layer(aggs, tracer.counters, overhead, pass_macs[0], tracer.absent, gradient_path)


def cross_check(traced: list[Result], block_s: list[dict]) -> dict:
    """Per-layer block times of the traced 4-tile paper op beside the re-anchor figures."""
    prev: dict = {}
    for r, snap in zip(traced, block_s):
        delta = {n: v - prev.get(n, 0.0) for n, v in snap.items()}
        prev = snap
        if r.rc != 0 or json.loads(r.stdout)["n_tiles"] != 4:
            continue
        return {
            n: {"traced_s": delta.get(n, 0.0) / PAPER_LAYERS, "roadmap_s": ref,
                "ratio": delta.get(n, 0.0) / PAPER_LAYERS / ref}
            for n, ref in ROADMAP_PER_LAYER_S.items()
        }
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-once", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_once:  # child of measure_setup: one cold set-up
            t0 = time.perf_counter()
            falcon = import_program()
            Workload(args.workload, args.seed).setup_once(falcon)
            print(json.dumps({"setup_s": time.perf_counter() - t0}))
            return 0
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        try:
            result = run(args)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report = result.pop("report")
    print(f"bench: {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("  report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
