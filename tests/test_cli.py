import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import falcon
from falcon import cli, encoder, falt, image_crop, oracle
from falcon.cli import main

from conftest import make_ppm

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


# Every call that allocates a large array of encode, attn-map or selftest.
_ALLOCATING = (
    (encoder, "init_weights"), (encoder, "load_weights"), (encoder, "encode"),
    (image_crop, "crop_tiles"), (cli.compressors, "init_projector"),
    (oracle, "fixture_tiles"), (oracle, "run_selftest"),
)


def validate_schema(payload, name):
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture()
def square_ppm(tmp_path):
    path = tmp_path / "square.ppm"
    make_ppm(path, 384, 384, seed=0)
    return str(path)


@pytest.fixture()
def small_ppm(tmp_path):
    path = tmp_path / "small.ppm"
    make_ppm(path, 96, 64, seed=1)
    return str(path)


class TestPlanCrop:
    def test_square_image(self, capsys, square_ppm):
        code, out = run(capsys, "plan-crop", square_ppm)
        payload = json.loads(out)
        validate_schema(payload, "plan_crop")
        assert code == 0
        assert payload["rows"] == 1 and payload["cols"] == 1

    def test_wide_image(self, capsys, tmp_path):
        path = tmp_path / "wide.ppm"
        make_ppm(path, 1500, 2000, seed=2)
        code, out = run(capsys, "plan-crop", str(path))
        payload = json.loads(out)
        assert code == 0
        assert (payload["rows"], payload["cols"]) == (3, 5)

    def test_max_tiles_cap(self, capsys, tmp_path):
        path = tmp_path / "wide.ppm"
        make_ppm(path, 1500, 2000, seed=2)
        code, out = run(capsys, "plan-crop", str(path), "--max-tiles", "4")
        payload = json.loads(out)
        assert code == 0
        assert payload["n_tiles"] <= 4

    def test_missing_image_exits_2(self, capsys, tmp_path):
        code, _ = run(capsys, "plan-crop", str(tmp_path / "nope.ppm"))
        assert code == 2

    def test_malformed_image_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        code, _ = run(capsys, "plan-crop", str(bad))
        assert code == 2


class TestEncode:
    def test_summary_and_archive(self, capsys, small_ppm, tmp_path):
        out_path = tmp_path / "f.falt"
        code, out = run(
            capsys, "encode", small_ppm, "--preset", "tiny", "--seed", "5",
            "--out", str(out_path),
        )
        payload = json.loads(out)
        validate_schema(payload, "encode")
        assert code == 0
        assert payload["n_tiles"] == 6  # 96x64 at tile 32 -> 3x2
        assert payload["tokens_out"] == 4 * 7
        entries = falt.load(str(out_path))
        assert entries["f_hr"].shape == (28, 8)

    def test_same_seed_byte_identical(self, capsys, small_ppm, tmp_path):
        a, b = tmp_path / "a.falt", tmp_path / "b.falt"
        run(capsys, "encode", small_ppm, "--preset", "tiny", "--seed", "9", "--out", str(a))
        run(capsys, "encode", small_ppm, "--preset", "tiny", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_archive(self, capsys, small_ppm, tmp_path):
        a, b = tmp_path / "a.falt", tmp_path / "b.falt"
        run(capsys, "encode", small_ppm, "--preset", "tiny", "--threads", "1", "--out", str(a))
        run(capsys, "encode", small_ppm, "--preset", "tiny", "--threads", "8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_thumbnail_off_single_tile(self, capsys, tmp_path):
        path = tmp_path / "one.ppm"
        make_ppm(path, 32, 32, seed=3)
        code, out = run(
            capsys, "encode", str(path), "--preset", "tiny", "--thumbnail", "off",
            "--out", str(tmp_path / "o.falt"),
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["tokens_out"] == 4  # M alone

    def test_project_adds_entry(self, capsys, small_ppm, tmp_path):
        out_path = tmp_path / "p.falt"
        code, out = run(
            capsys, "encode", small_ppm, "--preset", "tiny", "--project",
            "--d-llm", "6", "--out", str(out_path),
        )
        payload = json.loads(out)
        assert code == 0
        entries = falt.load(str(out_path))
        assert entries["projected"].shape == (28, 6)
        assert payload["flops"]["projector"] > 0

    @pytest.mark.parametrize(
        "archive, verify, dtype",
        [(None, "on", np.float64), (np.float32, "on", np.float64), (np.float64, "off", np.float32)],
        ids=["seeded-on", "f32-archive-on", "f64-archive-off"],
    )
    def test_verify_mode_writes_float64(
        self, capsys, small_ppm, tmp_path, archive, verify, dtype
    ):
        # --verify-mode alone sets the working dtype; an archive's own does not.
        weights = []
        if archive is not None:
            cfg = encoder.PRESETS["tiny"]
            wpath = tmp_path / "w.falt"
            encoder.save_weights(str(wpath), encoder.init_weights(cfg, 0, archive), cfg)
            weights = ["--weights", str(wpath)]
        out_path = tmp_path / "v.falt"
        code, _ = run(
            capsys, "encode", small_ppm, "--preset", "tiny", "--verify-mode", verify,
            "--out", str(out_path), *weights,
        )
        assert code == 0
        assert falt.load(str(out_path))["f_hr"].dtype == dtype

    def test_dry_run_reports_without_artifact(self, capsys, small_ppm, tmp_path):
        out_path = tmp_path / "never.falt"
        code, out = run(
            capsys, "encode", small_ppm, "--preset", "tiny", "--dry-run",
            "--out", str(out_path),
        )
        payload = json.loads(out)
        validate_schema(payload, "encode")
        assert code == 0
        assert payload["dry_run"] and payload["out"] is None
        assert not out_path.exists()

    def test_env_seed_overrides_flag(self, capsys, small_ppm, tmp_path, monkeypatch):
        a, b = tmp_path / "a.falt", tmp_path / "b.falt"
        run(capsys, "encode", small_ppm, "--preset", "tiny", "--seed", "1", "--out", str(a))
        monkeypatch.setenv("FALCON_SEED", "1")
        run(capsys, "encode", small_ppm, "--preset", "tiny", "--seed", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_config_file(self, capsys, small_ppm, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"preset": "tiny", "seed": 4, "thumbnail": False}))
        a = tmp_path / "a.falt"
        b = tmp_path / "b.falt"
        run(capsys, "encode", small_ppm, "--config", str(cfg_path), "--out", str(a))
        run(
            capsys, "encode", small_ppm, "--preset", "tiny", "--seed", "4",
            "--thumbnail", "off", "--out", str(b),
        )
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_exits_3(self, capsys, small_ppm, tmp_path, monkeypatch):
        # Unknown keys and values of the wrong JSON type; a bool is not an int.
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "run.json"
        bad_configs = (
            {"presett": "tiny"},
            {"layers": "2"},
            {"threads": "2"},
            {"layers": 2.0},
            {"seed": 1.5},
            {"d_llm": "64", "project": True},
            {"layers": True},
            {"out": True},
        )
        for bad in bad_configs:
            cfg_path.write_text(json.dumps(bad))
            for argv in (("encode", small_ppm, "--preset", "tiny"), ("compare",)):
                code = main([*argv, "--config", str(cfg_path)])
                captured = capsys.readouterr()
                assert code == 3, (bad, argv)
                assert captured.out == "", (bad, argv)
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "f_hr.falt").exists()

    def test_nonpositive_d_llm_exits_3(self, capsys, small_ppm, tmp_path):
        for d_llm in ("-5", "0"):
            for extra in (("--dry-run",), ("--out", str(tmp_path / "o.falt"))):
                code = main(
                    ["encode", small_ppm, "--preset", "tiny", "--project", "--d-llm", d_llm,
                     *extra]
                )
                captured = capsys.readouterr()
                assert code == 3, (d_llm, extra)
                assert captured.out == ""
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "o.falt").exists()

    def test_hostile_config_values_exit_3(self, capsys, small_ppm, tmp_path):
        # Sizes past the cap, a number past Python's digit limit and bytes
        # that are not UTF-8: exit 3 with one stderr line, never a traceback.
        cfg_path = tmp_path / "run.json"
        for data in (
            b'{"tile": 1%s, "patch": 1}' % (b"0" * 400),
            b'{"width": %d, "heads": 1}' % 2**32,
            b'{"max_tiles": %d}' % 2**32,
            b'{"d_llm": %d, "project": true}' % 2**32,
            b'{"seed": 1%s}' % (b"0" * 5000),
            b"\xff\xfe{",
        ):
            cfg_path.write_bytes(data)
            code = main(["encode", small_ppm, "--config", str(cfg_path), "--dry-run"])
            captured = capsys.readouterr()
            assert code == 3, data[:40]
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_pixel_cap_exits_2(self, capsys, tmp_path):
        # A header-only file naming more pixels than the cap.
        big = tmp_path / "big.ppm"
        big.write_bytes(b"P6\n8193 8192\n255\n")
        out = tmp_path / "o.falt"
        for command in ("plan-crop", "encode"):
            code = main([command, str(big), "--preset", "tiny", "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "pixel cap" in captured.err and captured.err.count("\n") == 1
        assert not out.exists()

    def test_pixel_cap_refused_before_payload_is_read(self, capsys, tmp_path, monkeypatch):
        # The header is read and checked on its own: the 1 MiB payload that
        # follows an over-cap header is never read.
        big = tmp_path / "big.ppm"
        header = b"P6\n8193 8192\n255\n"
        big.write_bytes(header + bytes(1 << 20))
        positions = []
        load_ppm = image_crop.load_ppm

        def load_and_watch(f):
            try:
                return load_ppm(f)
            finally:
                positions.append(f.tell())

        monkeypatch.setattr(image_crop, "load_ppm", load_and_watch)
        code = main(["plan-crop", str(big), "--preset", "tiny"])
        captured = capsys.readouterr()
        assert code == 2 and "pixel cap" in captured.err and captured.err.count("\n") == 1
        assert len(positions) == 1 and positions[0] <= image_crop._HEADER_READ

    def test_long_header_refused_after_one_read(self, capsys, tmp_path, monkeypatch):
        # 1 MiB of comment, then a valid header and payload: the header does
        # not end within the one header read, so the rest is never read.
        long = tmp_path / "long.ppm"
        long.write_bytes(b"P6\n#" + b"c" * (1 << 20) + b"\n2 1\n255\n" + bytes(6))
        positions = []
        load_ppm = image_crop.load_ppm

        def load_and_watch(f):
            try:
                return load_ppm(f)
            finally:
                positions.append(f.tell())

        monkeypatch.setattr(image_crop, "load_ppm", load_and_watch)
        code = main(["plan-crop", str(long), "--preset", "tiny"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "end of header" in captured.err and captured.err.count("\n") == 1
        assert positions == [image_crop._HEADER_READ]

    def test_truncated_payload_from_file_exits_2(self, capsys, tmp_path):
        short = tmp_path / "short.ppm"
        short.write_bytes(b"P6\n# c\n64 64\n255\n" + bytes(5000))
        code = main(["plan-crop", str(short), "--preset", "tiny"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "truncated payload: expected 12288 bytes, got 5000" in captured.err

    def test_state_cap_exits_3_before_crop(self, capsys, tmp_path, monkeypatch):
        # Each case is refused from the plan and the config alone, before the
        # weights, the crop or the forward:
        # - --tile 1 --patch 1 turns a 40x40 image into 1600 tiles: 1601
        #   states of 65 x 1024 elements pass encoder.MAX_STATE_ELEMENTS;
        # - --patch 8192 --tile 524288 asks crop_tiles for a 3 TiB band;
        # - 100000 registers make a 37 GiB self-attention softmax matrix, and
        #   a larger exchange one;
        # - 6000 registers over 4 tiles and the thumbnail make a (30000, 30000)
        #   exchange softmax matrix.
        img, square = tmp_path / "img.ppm", tmp_path / "square.ppm"
        make_ppm(img, 40, 40, seed=3)
        make_ppm(square, 64, 64, seed=4)

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated")

        for owner, name in _ALLOCATING:
            monkeypatch.setattr(owner, name, no_alloc)
        out = tmp_path / "o.falt"
        attn = ["--layer", "0", "--head", "0", "--register", "0"]
        many = [str(img), "--preset", "paper", "--tile", "1", "--patch", "1",
                "--max-tiles", str(encoder.MAX_SIZE)]
        band = [str(square), "--preset", "tiny", "--width", "1", "--heads", "1",
                "--patch", "8192", "--tile", "524288", "--layers", "1"]
        wide_attention = [str(square), "--preset", "tiny", "--registers", "100000"]
        wide_exchange = [str(square), "--preset", "tiny", "--registers", "6000", "--layers", "1"]
        for argv in (
            ["encode", *many],
            ["attn-map", *many, *attn],
            ["encode", *band],
            ["encode", *wide_attention],
            ["attn-map", *wide_attention, *attn],
            ["encode", *wide_exchange],
        ):
            code = main([*argv, "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == "", argv
            assert "element cap" in captured.err and captured.err.count("\n") == 1, argv
        assert not out.exists()
        # The dry run allocates no states, so it still reports the plan.
        code, report = run(capsys, "encode", *many, "--dry-run")
        assert code == 0 and json.loads(report)["n_tiles"] == 1600

    def test_weight_cap_exits_3_before_allocating(self, capsys, small_ppm, tmp_path, monkeypatch):
        # Over-cap encoder or projector weights, and selftest fixtures over
        # the pixel cap, are refused from the config alone; the dry run
        # allocates nothing and still reports.
        def no_alloc(*args, **kwargs):
            raise AssertionError("weights allocated")

        for owner, name in _ALLOCATING:
            monkeypatch.setattr(owner, name, no_alloc)
        out = tmp_path / "o.out"
        wide = ["--preset", "tiny", "--width", "100000", "--heads", "1"]
        projected = ["--preset", "tiny", "--project", "--d-llm"]
        fixtures = ["--preset", "tiny", "--width", "1", "--heads", "1", "--patch", "8192",
                    "--tile", "134217728", "--layers", "1", "--verify-mode", "off"]
        for argv in (
            ["encode", small_ppm, *wide],
            ["attn-map", small_ppm, *wide, "--layer", "0", "--head", "0", "--register", "0"],
            ["selftest", *wide],
            ["encode", small_ppm, "--preset", "tiny", "--layers", str(encoder.MAX_SIZE)],
            ["encode", small_ppm, *projected, str(encoder.MAX_SIZE)],
            ["encode", small_ppm, *projected, "200000"],
            ["selftest", *fixtures],
        ):
            code = main([*argv, "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == "", argv
            assert "element cap" in captured.err and captured.err.count("\n") == 1, argv
        assert not out.exists()
        code, report = run(capsys, "encode", small_ppm, *projected, str(encoder.MAX_SIZE),
                           "--dry-run")
        assert code == 0 and json.loads(report)["flops"]
        code, _ = run(capsys, "compare", *wide)
        assert code == 0

    def test_mismatched_weights_exit_3(self, capsys, small_ppm, tmp_path):
        other = encoder.config_with_overrides(encoder.PRESETS["tiny"], registers=3)
        w = encoder.init_weights(other, 0)
        wpath = tmp_path / "w.falt"
        encoder.save_weights(str(wpath), w, other)
        code, _ = run(
            capsys, "encode", small_ppm, "--preset", "tiny", "--weights", str(wpath),
            "--out", str(tmp_path / "o.falt"),
        )
        assert code == 3

    @pytest.mark.parametrize(
        "name, value", [("layers.1.w2", np.nan), ("layers.0.wq", np.inf)], ids=["nan", "inf"]
    )
    def test_non_finite_weights_exit_3(self, capsys, small_ppm, tmp_path, name, value):
        cfg = encoder.PRESETS["tiny"]
        entries = encoder.init_weights(cfg, 0)
        entries[name][0, 0] = value
        wpath = tmp_path / "bad.falt"
        falt.save(str(wpath), entries)
        out_path = tmp_path / "o.falt"
        for argv in (
            ["encode", small_ppm, "--preset", "tiny", "--out", str(out_path)],
            ["selftest", "--verify-mode", "off"],
        ):
            argv += ["--weights", str(wpath)]
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and repr(name) in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d[: len(d) // 2],
            lambda d: d[:-1],
            lambda d: d[:13],  # inside the first entry's name
            lambda d: d + b"\x00",
            lambda d: b"FALX" + d[4:],
            lambda d: d[:4] + b"\x02" + d[5:],  # version
            lambda d: d[:12] + b"\xff" + d[13:],  # first name byte, not UTF-8
            lambda d: d[:23] + b"\x00" + d[24:],  # ndim 0
            lambda d: d[:24] + struct.pack("<I", 2**31) + d[28:],  # dims beyond the file
            lambda d: d[:24] + struct.pack("<II", 2**31, 2**31) + d[32:],  # dims overflow int64
            lambda d: d[:32] + b"\x07" + d[33:],  # dtype code
        ],
        ids=[
            "half", "minus-one", "mid-name", "trailing", "magic", "version", "utf8",
            "ndim-0", "dims-beyond-file", "dims-overflow", "dtype-code",
        ],
    )
    def test_fuzzed_weights_exit_3(self, capsys, small_ppm, tmp_path, corrupt):
        cfg = encoder.PRESETS["tiny"]
        wpath = tmp_path / "w.falt"
        encoder.save_weights(str(wpath), encoder.init_weights(cfg, 0), cfg)
        data = wpath.read_bytes()
        # The first entry is patch_embed: its name at byte 12, ndim at 23, dims at 24-31.
        assert data[12:23] == b"patch_embed" and data[23] == 2
        wpath.write_bytes(corrupt(data))
        out_path = tmp_path / "o.falt"
        code = main(["encode", small_ppm, "--preset", "tiny", "--weights", str(wpath),
                     "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out_path.exists()

    def test_tiles_freed_before_layer_0(self, capsys, small_ppm, tmp_path, monkeypatch):
        # encode owns the TileSet that encode and attn-map pass as a
        # temporary, so the cropped pixels are gone when the first block runs.
        refs = []
        crop_tiles = image_crop.crop_tiles

        def crop_and_watch(img, plan):
            tiles = crop_tiles(img, plan)
            refs.extend(weakref.ref(t) for t in [*tiles.tiles, tiles.global_thumb])
            return tiles

        alive_at_first_block = []
        block = encoder.self_attention_block

        def first_block(x, lw, cfg, *rest):
            if not alive_at_first_block:
                alive_at_first_block.append(sum(ref() is not None for ref in refs))
            return block(x, lw, cfg, *rest)

        monkeypatch.setattr(image_crop, "crop_tiles", crop_and_watch)
        monkeypatch.setattr(encoder, "self_attention_block", first_block)
        for command, extra in (
            ("encode", []),
            ("attn-map", ["--layer", "1", "--head", "0", "--register", "0"]),
        ):
            refs.clear()
            alive_at_first_block.clear()
            out = tmp_path / command
            code, _ = run(capsys, command, small_ppm, "--preset", "tiny", "--out", str(out), *extra)
            assert code == 0 and out.exists(), command
            assert len(refs) == 7, command  # 6 tiles of the 96x64 image and the thumbnail
            assert alive_at_first_block == [0], command

    def test_loaded_weights_match_seeded(self, capsys, small_ppm, tmp_path):
        cfg = encoder.PRESETS["tiny"]
        wpath = tmp_path / "w.falt"
        encoder.save_weights(str(wpath), encoder.init_weights(cfg, 5), cfg)
        a, b = tmp_path / "a.falt", tmp_path / "b.falt"
        run(capsys, "encode", small_ppm, "--preset", "tiny", "--seed", "5", "--out", str(a))
        run(
            capsys, "encode", small_ppm, "--preset", "tiny", "--weights", str(wpath),
            "--out", str(b),
        )
        assert a.read_bytes() == b.read_bytes()


_CONFIG_KEYS = st.sampled_from(sorted(cli._RC_TYPES)) | st.text(max_size=6)
_CONFIG_VALUES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, -1, 2**32 - 1, 2**32, 2**64, 10**400])
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(sorted(encoder.PRESETS))
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
)


@pytest.fixture(scope="module")
def config_fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("config_fuzz")
    make_ppm(path / "img.ppm", 96, 64, seed=1)
    return path


@given(st.dictionaries(_CONFIG_KEYS, _CONFIG_VALUES, max_size=5))
def test_fuzzed_config_exits_0_or_3(config_fuzz_dir, config):
    # Any JSON object as --config under encode --dry-run: a valid report
    # (exit 0) or one stderr line (exit 3), never a traceback.
    cfg_path = config_fuzz_dir / "run.json"
    cfg_path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(
            ["encode", str(config_fuzz_dir / "img.ppm"), "--config", str(cfg_path), "--dry-run"]
        )
    if code == 0:
        validate_schema(json.loads(out.getvalue()), "encode")
        assert err.getvalue() == ""
    else:
        assert code == 3
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class _Reached(Exception):
    """Raised by a patched allocating call: the run got past its checks."""


def _log_int(bits):
    """Integers in [1, 2^(bits + 1)), each power of two as likely as the next."""
    return st.integers(0, bits).flatmap(lambda b: st.integers(1 << b, (2 << b) - 1))


@st.composite
def _size_knobs(draw):
    """Valid size flags: tile a multiple of patch, width of heads."""
    patch = draw(_log_int(6))
    heads = draw(_log_int(4))
    return {
        "patch": patch,
        "tile": patch * draw(_log_int(9)),
        "heads": heads,
        "width": heads * draw(_log_int(12)),
        "registers": draw(_log_int(16)),
        "max-tiles": draw(_log_int(6)),
        "layers": draw(_log_int(31)),
        "reatten": draw(st.sampled_from(["on", "off"])),
    }


def _budget_counts(knobs, n_tiles, d_llm):
    """(elements, cap) of every array the run budget bounds, counted here
    from the flags and the plan, apart from ``encoder.check_budget``."""
    p, tile, d, m = knobs["patch"], knobs["tile"], knobs["width"], knobs["registers"]
    n_tokens = (tile // p) ** 2 + m
    n_states = n_tiles + 1
    exchange = m * n_states if knobs["reatten"] == "on" else 0
    # Stem: patch_embed, pos_embed and registers. Per layer: four d x d
    # attention matrices, the 4d-wide FFN and two layer norms, then four
    # d x d exchange matrices and one layer norm.
    weights = 3 * p * p * d + n_tokens * d + knobs["layers"] * (8 * d * d + 2 * d * 4 * d + 6 * d)
    counts = [
        ((n_tiles + 1) * tile * tile * 3, encoder.MAX_STATE_ELEMENTS),
        (n_states * n_tokens * d, encoder.MAX_STATE_ELEMENTS),
        (max(n_tokens, exchange) ** 2, encoder.MAX_STATE_ELEMENTS),
        (weights, encoder.MAX_WEIGHT_ELEMENTS),
    ]
    if d_llm is not None:
        counts.append((d_llm * (d + d_llm), encoder.MAX_WEIGHT_ELEMENTS))
    return counts


def _main_stopped(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` with every allocating call
    patched to stop the run; the code is None when one was reached."""
    out, err = io.StringIO(), io.StringIO()

    def stop(*args, **kwargs):
        raise _Reached

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in _ALLOCATING:
            mp.setattr(owner, name, stop)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except _Reached:
                code = None
    return code, out.getvalue(), err.getvalue()


@given(_size_knobs(), st.none() | _log_int(16))
def test_budget_refuses_or_admits_within_caps(config_fuzz_dir, knobs, d_llm):
    # Each run either exits 3 with one stderr line before any allocating
    # call, or reaches one with every counted array within its cap.
    img = str(config_fuzz_dir / "img.ppm")
    flags = ["--preset", "tiny", "--out", str(config_fuzz_dir / "o.out")]
    for name, value in knobs.items():
        flags += [f"--{name}", str(value)]
    plan = image_crop.plan_crop(96, 64, knobs["tile"], knobs["max-tiles"])  # img.ppm is 96x64
    project = [] if d_llm is None else ["--project", "--d-llm", str(d_llm)]
    for argv, n_tiles, projector in (
        (["encode", img, *flags, *project], plan.n_tiles, d_llm),
        (["attn-map", img, *flags, "--layer", "0", "--head", "0", "--register", "0"],
         plan.n_tiles, None),
        (["selftest", *flags], 3, None),
    ):
        code, out, err = _main_stopped(argv)
        within = all(n <= cap for n, cap in _budget_counts(knobs, n_tiles, projector))
        if code is None:
            assert within, argv
        else:
            assert code == 3 and not within, argv
            assert out == "" and "element cap" in err and err.count("\n") == 1, argv
    # Neither the dry run nor compare allocates, so both report.
    for argv in (["encode", img, *flags, *project, "--dry-run"], ["compare", *flags]):
        assert _main_stopped(argv)[0] == 0, argv
    assert not (config_fuzz_dir / "o.out").exists()


class TestAttnMap:
    def test_writes_pgm_with_expected_dims(self, capsys, small_ppm, tmp_path):
        out_path = tmp_path / "h.pgm"
        code, out = run(
            capsys, "attn-map", small_ppm, "--preset", "tiny",
            "--layer", "1", "--head", "0", "--register", "2", "--out", str(out_path),
        )
        payload = json.loads(out)
        validate_schema(payload, "attn_map")
        assert code == 0
        # 96x64 -> 3x2 grid of 32px tiles, 2x2 patches per tile
        assert (payload["height"], payload["width"]) == (6, 4)
        data = out_path.read_bytes()
        assert data.startswith(b"P5\n4 6\n255\n")
        assert len(data) == len(b"P5\n4 6\n255\n") + 24

    def test_zero_logit_weights_give_all_zero_pgm(self, capsys, small_ppm, tmp_path):
        # Uniform attention is a flat heatmap; the rescale convention maps
        # min == max to all zeros.
        cfg = encoder.PRESETS["tiny"]
        w = encoder.init_weights(cfg, 0)
        for name, tensor in w.items():
            if name.endswith((".wq", ".wk", ".rq", ".rk")):
                tensor[:] = 0.0
        wpath = tmp_path / "zero.falt"
        encoder.save_weights(str(wpath), w, cfg)
        out_path = tmp_path / "flat.pgm"
        code, _ = run(
            capsys, "attn-map", small_ppm, "--preset", "tiny", "--weights", str(wpath),
            "--layer", "0", "--head", "0", "--register", "0", "--out", str(out_path),
        )
        assert code == 0
        payload = out_path.read_bytes()
        header = b"P5\n4 6\n255\n"
        assert payload.startswith(header)
        assert payload[len(header):] == b"\x00" * 24

    def test_output_matches_golden_bytes(self, capsys, small_ppm, tmp_path, monkeypatch):
        # sha256 of the PGM bytes and of the JSON report, recorded from the
        # release before encode's attention callback replaced its trace object.
        golden = json.loads((GOLDEN_DIR / "attn_map.json").read_text())
        assert len(golden) == 32
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FALCON_SEED", raising=False)
        for flags, expected in golden.items():
            code, out = run(
                capsys, "attn-map", small_ppm, "--preset", "tiny", "--out", "heat.pgm",
                *flags.split(),
            )
            assert code == 0
            got = {
                "pgm": hashlib.sha256((tmp_path / "heat.pgm").read_bytes()).hexdigest(),
                "json": hashlib.sha256(out.encode()).hexdigest(),
            }
            assert got == expected, flags

    def test_runs_only_layers_up_to_requested(self, capsys, tmp_path, monkeypatch):
        # 64x64 at tile 32: 4 tiles + thumbnail, so one FFN call per state per layer run.
        ppm = tmp_path / "sq.ppm"
        make_ppm(ppm, 64, 64, seed=2)
        calls = []
        ffn_block = encoder.ffn_block

        def counting(*args, **kwargs):
            calls.append(1)
            return ffn_block(*args, **kwargs)

        monkeypatch.setattr(encoder, "ffn_block", counting)
        code, _ = run(
            capsys, "attn-map", str(ppm), "--preset", "tiny", "--layers", "6",
            "--layer", "0", "--head", "0", "--register", "0", "--out", str(tmp_path / "h.pgm"),
        )
        assert code == 0
        assert len(calls) == 5

    def test_out_of_range_indices_exit_4(self, capsys, small_ppm, tmp_path):
        for flags in (("--layer", "9"), ("--head", "9"), ("--register", "9")):
            args = {"--layer": "0", "--head": "0", "--register": "0"}
            args[flags[0]] = flags[1]
            code, _ = run(
                capsys, "attn-map", small_ppm, "--preset", "tiny",
                "--layer", args["--layer"], "--head", args["--head"],
                "--register", args["--register"], "--out", str(tmp_path / "x.pgm"),
            )
            assert code == 4


class TestCompare:
    def test_schema_and_parity(self, capsys):
        code, out = run(capsys, "compare")
        payload = json.loads(out)
        validate_schema(payload, "compare")
        assert code == 0
        assert [row["tokens_per_tile"] for row in payload["compressors"]] == [64] * 4
        rows = {row["kind"]: row for row in payload["compressors"]}
        assert rows["pool"]["params"] == 0
        assert rows["abstractor"]["params"] > rows["pool"]["params"]
        assert "reatten_flops_total" in rows["registers"]

    def test_output_matches_golden_bytes(self, capsys):
        # Recorded from the release before the MAC formulas moved into
        # oracle.attention_macs/ffn_macs. With --reatten off the exchange
        # total stays nonzero: it quotes the cost of the step, not this run.
        golden = json.loads((GOLDEN_DIR / "compare.json").read_text())
        assert len(golden) == 8
        for flags, expected in golden.items():
            code, out = run(capsys, "compare", "--preset", *flags.split())
            assert code == 0
            assert out == json.dumps(expected, indent=2) + "\n", flags


class TestSelftest:
    def test_passes_without_gradient_check(self, capsys):
        code, out = run(capsys, "selftest", "--verify-mode", "off")
        payload = json.loads(out)
        validate_schema(payload, "selftest")
        assert code == 0
        assert payload["gradient_check_skipped"]

    def test_full_suite_fresh_checkout_under_60s(self, capsys):
        import time

        start = time.perf_counter()
        code, out = run(capsys, "selftest")
        elapsed = time.perf_counter() - start
        payload = json.loads(out)
        validate_schema(payload, "selftest")
        assert code == 0
        assert not payload["gradient_check_skipped"]
        assert any(c["name"] == "gradient_check" for c in payload["checks"])
        assert elapsed < 60.0

    def test_failure_exits_1(self, capsys, monkeypatch):
        from falcon import cli

        monkeypatch.setattr(
            cli.oracle,
            "run_selftest",
            lambda *a, **k: {
                "passed": False,
                "verify_mode": False,
                "gradient_check_skipped": True,
                "checks": [{"name": "stub", "passed": False, "detail": {}}],
            },
        )
        code, out = run(capsys, "selftest", "--verify-mode", "off")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_corrupt_weights_exit_3_before_checks(self, capsys, tmp_path):
        bad = tmp_path / "bad.falt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code, out = run(capsys, "selftest", "--weights", str(bad), "--verify-mode", "off")
        assert code == 3
        assert out == ""  # fails before emitting any check results

    def test_overflowing_dims_archive_exits_3(self, capsys, tmp_path):
        # 2^31 * 2^31 * 4 wraps to 0 in int64; the archive has no payload.
        bad = tmp_path / "overflow.falt"
        entry = b"x" + struct.pack("<B3IB", 3, 2**31, 2**31, 4, 0)
        bad.write_bytes(b"FALT" + struct.pack("<HIH", 1, 1, 1) + entry)
        code = main(["selftest", "--weights", str(bad), "--verify-mode", "off"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_f64_checks_run_on_the_archive(self, capsys, tmp_path):
        cfg = encoder.PRESETS["tiny"]
        wpath = tmp_path / "w5.falt"
        encoder.save_weights(str(wpath), encoder.init_weights(cfg, 5), cfg)
        reports = {}
        for weights in ([], ["--weights", str(wpath)]):
            code, out = run(capsys, "selftest", "--verify-mode", "off", "--seed", "0", *weights)
            assert code == 0
            payload = json.loads(out)
            validate_schema(payload, "selftest")
            reports[payload["weights"]] = {c["name"]: c["detail"] for c in payload["checks"]}
        assert set(reports) == {"seeded", "archive"}
        for name in ("oracle_equivalence_f32", "oracle_equivalence_f64"):
            assert reports["seeded"][name]["max_abs_err"] != reports["archive"][name]["max_abs_err"]

    def test_f64_archive_used_as_is(self, monkeypatch):
        # A float64 archive reaches the float64 checks unchanged: no cast, no seeded init.
        cfg = encoder.PRESETS["tiny"]
        w = encoder.init_weights(cfg, 5, np.float64)
        seen = []
        encode = oracle.enc.encode

        def spy(tiles, weights, *args, **kwargs):
            seen.append(weights["patch_embed"])
            return encode(tiles, weights, *args, **kwargs)

        monkeypatch.setattr(oracle.enc, "encode", spy)
        monkeypatch.setattr(oracle.enc, "init_weights", None)
        result = oracle.run_selftest(cfg, seed=0, verify_mode=False, weights=w)
        assert result["passed"] and result["weights"] == "archive"
        assert all(p is w["patch_embed"] for p in seen)


_COMMON_OPTIONS = [
    "--config", "--preset", "--seed", "--layers", "--width", "--heads", "--patch", "--tile",
    "--registers", "--max-tiles", "--thumbnail", "--reatten", "--verify-mode", "--threads",
    "--out",
]


class TestParser:
    def test_option_surface_is_pinned(self):
        # Every option string of every subcommand (positionals by name) and
        # every field of the two config dataclasses. A change that adds,
        # renames or drops a knob edits these lists and says so in CHANGES.md.
        sub = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
        surface = {
            name: [s for a in p._actions for s in (a.option_strings or [a.dest])]
            for name, p in sub.choices.items()
        }
        help_ = ["-h", "--help"]
        assert surface == {
            "plan-crop": [*help_, "image", *_COMMON_OPTIONS],
            "encode": [*help_, "image", "--weights", "--project", "--d-llm", "--dry-run",
                       *_COMMON_OPTIONS],
            "attn-map": [*help_, "image", "--weights", "--layer", "--head", "--register",
                         *_COMMON_OPTIONS],
            "compare": [*help_, *_COMMON_OPTIONS],
            "selftest": [*help_, "--weights", *_COMMON_OPTIONS],
        }
        assert [f.name for f in dataclasses.fields(cli.RunConfig)] == [
            "preset", "seed", "layers", "width", "heads", "patch", "tile", "registers",
            "max_tiles", "thumbnail", "reatten", "verify_mode", "threads", "project", "d_llm",
            "out",
        ]
        assert [f.name for f in dataclasses.fields(encoder.EncoderConfig)] == [
            "layers", "width", "heads", "patch", "tile", "registers", "max_tiles", "ffn_mult",
            "ln_eps", "reatten_enabled",
        ]

    def test_parser_is_built_once_and_reused(self, capsys, small_ppm, tmp_path, monkeypatch):
        def fail():
            raise AssertionError("build_parser called again")

        monkeypatch.setattr(cli, "build_parser", fail)
        monkeypatch.delenv("FALCON_SEED", raising=False)
        for bad in (["encode"], ["encode", small_ppm, "--preset", "huge"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
        capsys.readouterr()
        out = tmp_path / "t.falt"
        argv = ["encode", small_ppm, "--preset", "tiny", "--seed", "4", "--project"]
        argv += ["--out", str(out)]
        code, stdout = run(capsys, *argv)
        archive = out.read_bytes()
        out.unlink()
        env = {k: v for k, v in os.environ.items() if k != "FALCON_SEED"}
        src = str(Path(falcon.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        fresh = subprocess.run(
            [sys.executable, "-m", "falcon.cli", *argv], capture_output=True, env=env, check=False
        )
        assert (code, stdout) == (fresh.returncode, fresh.stdout.decode())
        assert archive == out.read_bytes()
