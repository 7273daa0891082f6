"""Command-line surface tying the pipeline together.

Subcommands: ``plan-crop``, ``encode``, ``attn-map``, ``compare``,
``selftest``. Reports are JSON on stdout (schemas under docs/schemas/),
tensors go to FALT archives, heatmaps to binary PGM. Every command is
deterministic given (inputs, seed, flags); repeated runs produce
byte-identical artifacts.

Exit codes: 0 success, 1 selftest failure; a package error exits with its
type's ``exit_code`` (``errors``): 2 input error, 3 config/weight error,
4 bad indices. An ``OSError`` exits 2, and a ``MemoryError`` 3, the code of
the run budget's refusals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass

import numpy as np

from . import compressors, encoder, falt, image_crop, oracle
from .errors import BoundsError, ConfigError, FalconError, ImageError
from .numerics import SplitMix64

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1

# Projector weights draw from their own stream so the encoder stream stays
# stable whether or not projection is requested.
_PROJECTOR_SEED_OFFSET = 1


@dataclass
class RunConfig:
    """Resolved run options: defaults < config file < CLI flags < FALCON_SEED."""

    preset: str = "paper"
    seed: int = 0
    layers: int | None = None
    width: int | None = None
    heads: int | None = None
    patch: int | None = None
    tile: int | None = None
    registers: int | None = None
    max_tiles: int | None = None
    thumbnail: bool = True
    reatten: bool = True
    verify_mode: bool = False
    # Accepted and validated so existing scripts and config files keep
    # working; tiles always run sequentially, so nothing reads it.
    threads: int = 1
    project: bool = False
    d_llm: int = 128
    out: str | None = None


# Field -> the exact types a config-file value may have (a bool is not an int).
_RC_TYPES = {
    name: typing.get_args(hint) or (hint,)
    for name, hint in typing.get_type_hints(RunConfig).items()
}
_BOOL_FIELDS = {name for name, types in _RC_TYPES.items() if types == (bool,)}


def resolve_run_config(args, command_defaults: dict | None = None) -> RunConfig:
    rc = RunConfig()
    for key, value in (command_defaults or {}).items():
        setattr(rc, key, value)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as f:
                file_cfg = json.load(f)
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, JSON or digit count
            raise ConfigError(f"cannot read config file {config_path!r}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            if key not in _RC_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            if type(value) not in _RC_TYPES[key]:
                allowed = " or ".join(
                    "null" if t is type(None) else t.__name__ for t in _RC_TYPES[key]
                )
                raise ConfigError(
                    f"config key {key!r} must be {allowed}, got {type(value).__name__}"
                )
            setattr(rc, key, value)
    for key in _RC_TYPES:
        value = getattr(args, key, None)
        if value is None:
            continue
        if key in _BOOL_FIELDS and isinstance(value, str):
            value = value == "on"
        setattr(rc, key, value)
    env_seed = os.environ.get("FALCON_SEED")
    if env_seed is not None:
        try:
            rc.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"FALCON_SEED must be an integer, got {env_seed!r}") from exc
    if rc.preset not in encoder.PRESETS:
        raise ConfigError(f"unknown preset {rc.preset!r}")
    if rc.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {rc.threads}")
    if not 1 <= rc.d_llm <= encoder.MAX_SIZE:
        raise ConfigError(f"d_llm must be in [1, {encoder.MAX_SIZE}], got {rc.d_llm}")
    return rc


def encoder_config(rc: RunConfig) -> encoder.EncoderConfig:
    return encoder.config_with_overrides(
        encoder.PRESETS[rc.preset],
        reatten_enabled=rc.reatten,
        **{name: getattr(rc, name) for name in encoder.SIZE_FIELDS},
    )


def _plan(cfg: encoder.EncoderConfig, path: str):
    """A list holding the image at ``path`` as its only item, and the image's
    crop plan. ``_forward`` pops the image into the crop, so no frame holds
    it once the crop returns."""
    try:
        with open(path, "rb") as f:
            img = image_crop.load_ppm(f)
    except OSError as exc:
        raise ImageError(f"cannot read image {path!r}: {exc}") from exc
    return [img], image_crop.plan_crop(img.shape[0], img.shape[1], cfg.tile, cfg.max_tiles)


def _weights(rc: RunConfig, args, cfg, dtype):
    """The ``--weights`` archive (cast to ``dtype`` on access), else the seeded weights."""
    if args.weights:
        return encoder.load_weights(args.weights, cfg, dtype)
    return encoder.init_weights(cfg, rc.seed, dtype)


def _forward(rc: RunConfig, args, cfg, image, plan, d_llm=None, layers=None, collect=None):
    """The run budget, the weights of the full ``cfg`` (an archive of every
    layer serves a run of the first ``layers``, which reads only theirs) and
    the forward, in the working dtype whatever the archive's.

    The crop reads the loader's uint8 image as it is, with no float copy of
    it. The image, popped from ``_plan``'s list ``image``, goes to the crop
    as a temporary, so it is freed when the crop returns; the tiles go to
    ``encode`` as one, so it frees them before layer 0. (A callee's frame
    owns its arguments in CPython >= 3.11.)
    """
    encoder.check_budget(cfg, plan.n_tiles, rc.thumbnail, d_llm)
    return encoder.encode(
        image_crop.crop_tiles(image.pop(), plan),
        _weights(rc, args, cfg, np.float64 if rc.verify_mode else np.float32),
        encoder.config_with_overrides(cfg, layers=layers),
        thumbnail=rc.thumbnail,
        collect=collect,
    )


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_plan_crop(rc: RunConfig, args) -> int:
    (img,), plan = _plan(encoder_config(rc), args.image)
    _emit(
        {
            "h": img.shape[0],
            "w": img.shape[1],
            "rows": plan.rows,
            "cols": plan.cols,
            "n_tiles": plan.n_tiles,
            "resize_h": plan.resize_h,
            "resize_w": plan.resize_w,
        }
    )
    return EXIT_OK


def cmd_encode(rc: RunConfig, args) -> int:
    cfg = encoder_config(rc)
    image, plan = _plan(cfg, args.image)
    d_llm = rc.d_llm if rc.project else None
    report = oracle.count_flops(cfg, plan.n_tiles, thumbnail=rc.thumbnail, d_llm=d_llm)
    summary = {
        "n_tiles": plan.n_tiles,
        "tokens_out": report.tokens_post,
        "compression_ratio": cfg.compression_ratio,
        "flops": asdict(report),
        "run_macs": oracle.run_macs(cfg, plan.n_tiles, thumbnail=rc.thumbnail, d_llm=d_llm),
        "dry_run": bool(args.dry_run),
        "out": None,
    }
    if not args.dry_run:
        f_hr = _forward(rc, args, cfg, image, plan, d_llm)
        entries = {"f_hr": f_hr}
        if rc.project:
            pw = compressors.init_projector(
                cfg.width, rc.d_llm, SplitMix64(rc.seed + _PROJECTOR_SEED_OFFSET), f_hr.dtype
            )
            entries["projected"] = compressors.mlp_project(f_hr, pw)
        out = rc.out or "f_hr.falt"
        falt.save(out, entries)
        summary["out"] = out
    _emit(summary)
    return EXIT_OK


def cmd_attn_map(rc: RunConfig, args) -> int:
    cfg = encoder_config(rc)
    for name, n in (("layer", cfg.layers), ("head", cfg.heads), ("register", cfg.registers)):
        if not 0 <= getattr(args, name) < n:
            raise BoundsError(f"{name} {getattr(args, name)} out of range [0, {n})")
    image, plan = _plan(cfg, args.image)
    n = cfg.n_image_tokens
    tile_rows = []

    def collect(layer, tile, head, attn):
        if tile is not None and (layer, head) == (args.layer, args.head):
            tile_rows.append(attn[-cfg.registers :, :n].copy())

    # Layers after --layer cannot change its attention, so they are not run.
    _forward(rc, args, cfg, image, plan, layers=args.layer + 1, collect=collect)
    heat = encoder.extract_register_attention(tile_rows, args.register, plan)
    out = rc.out or "heatmap.pgm"
    with open(out, "wb") as f:
        f.write(image_crop.write_pgm(image_crop.heatmap_to_u8(heat)))
    _emit(
        {
            "out": out,
            "height": int(heat.shape[0]),
            "width": int(heat.shape[1]),
            "layer": args.layer,
            "head": args.head,
            "register": args.register,
        }
    )
    return EXIT_OK


def cmd_compare(rc: RunConfig, args) -> int:
    cfg = encoder_config(rc)
    rows = [
        compressors.comparison_row(kind, cfg, thumbnail=rc.thumbnail)
        for kind in compressors.COMPRESSOR_KINDS
    ]
    _emit(
        {
            "config": {
                "width": cfg.width,
                "layers": cfg.layers,
                "image_tokens_per_tile": cfg.n_image_tokens,
                "n_tiles": cfg.max_tiles,
                "thumbnail": rc.thumbnail,
            },
            "compressors": rows,
        }
    )
    return EXIT_OK


def cmd_selftest(rc: RunConfig, args) -> int:
    cfg = encoder_config(rc)
    oracle.check_selftest_budget(cfg, rc.verify_mode)
    # dict(...) reads and checks every tensor of an archive before any check runs.
    w = dict(_weights(rc, args, cfg, np.float64))
    result = oracle.run_selftest(cfg, w, rc.seed, rc.verify_mode)
    checks = result.pop("checks")
    _emit({**result, "weights": "archive" if args.weights else "seeded", "checks": checks})
    return EXIT_OK if result["passed"] else EXIT_SELFTEST_FAILED


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file mirroring the run configuration")
    p.add_argument("--preset", choices=sorted(encoder.PRESETS))
    p.add_argument("--seed", type=int, help="PRNG seed (FALCON_SEED overrides)")
    for name in encoder.SIZE_FIELDS:
        p.add_argument("--" + name.replace("_", "-"), type=int, dest=name)
    p.add_argument("--thumbnail", choices=["on", "off"])
    p.add_argument("--reatten", choices=["on", "off"])
    p.add_argument("--verify-mode", choices=["on", "off"], dest="verify_mode")
    p.add_argument("--threads", type=int)
    p.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="falcon", description="Register-based visual encoder toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan-crop", help="report the shape-adaptive crop grid")
    p.add_argument("image", help="binary PPM (P6) image")
    _add_common(p)
    p.set_defaults(func=cmd_plan_crop, defaults={})

    p = sub.add_parser("encode", help="encode an image to register tokens")
    p.add_argument("image", help="binary PPM (P6) image")
    p.add_argument("--weights", help="FALT archive to load weights from")
    p.add_argument(
        "--project",
        action="store_const",
        const=True,
        default=None,
        help="also emit projected tokens",
    )
    p.add_argument("--d-llm", type=int, dest="d_llm", help="projector output width")
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="report token/FLOP accounting without running the forward",
    )
    _add_common(p)
    p.set_defaults(func=cmd_encode, defaults={})

    p = sub.add_parser("attn-map", help="export a register-to-image attention heatmap")
    p.add_argument("image", help="binary PPM (P6) image")
    p.add_argument("--weights", help="FALT archive to load weights from")
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--head", type=int, required=True)
    p.add_argument("--register", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_attn_map, defaults={})

    p = sub.add_parser("compare", help="token/parameter/FLOP table per compressor")
    _add_common(p)
    p.set_defaults(func=cmd_compare, defaults={})

    p = sub.add_parser("selftest", help="run the oracle, gradient, and invariant suite")
    p.add_argument("--weights", help="FALT archive to validate and test against")
    _add_common(p)
    p.set_defaults(func=cmd_selftest, defaults={"preset": "tiny", "verify_mode": True})

    return parser


# Built once: parsing does not change the parser, and building it costs
# milliseconds per call.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        rc = resolve_run_config(args, args.defaults)
        return args.func(rc, args)
    except (FalconError, OSError) as exc:  # an OSError is an input error, as ImageError is
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", ImageError.exit_code)
    except MemoryError as exc:  # a run the budget admits, too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
