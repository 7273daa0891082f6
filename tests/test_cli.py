import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import falcon
from falcon import autodiff, cli, compressors, encoder, falt, image_crop, numerics, oracle
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


TINY = ["--preset", "tiny"]


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

    @pytest.mark.parametrize("project", [[], ["--project", "--d-llm", "6"]],
                             ids=["no-project", "project"])
    def test_dry_run_counts_what_the_run_counts(self, capsys, small_ppm, tmp_path, project):
        argv = ["encode", small_ppm, "--preset", "tiny", *project]
        _, dry = run(capsys, *argv, "--dry-run")
        _, real = run(capsys, *argv, "--out", str(tmp_path / "o.falt"))
        dry, real = json.loads(dry), json.loads(real)
        validate_schema(dry, "encode")
        validate_schema(real, "encode")
        assert (dry["flops"], dry["run_macs"]) == (real["flops"], real["run_macs"])
        d_llm = 6 if project else None
        cfg = encoder.PRESETS["tiny"]
        assert real["run_macs"] == oracle.run_macs(cfg, real["n_tiles"], d_llm=d_llm)
        assert (real["run_macs"]["projector"] > 0) == bool(project)

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

    @pytest.mark.parametrize(
        "config, seed, flags, message",
        [
            ([1], None, TINY, "config file must hold a JSON object"),
            (None, "abc", TINY, "FALCON_SEED must be an integer, got 'abc'"),
            # A --preset flag would override the file's, so none is passed.
            ({"preset": "huge"}, None, [], "unknown preset 'huge'"),
            (None, None, [*TINY, "--threads", "0"], "threads must be >= 1, got 0"),
            (None, None, [*TINY, "--weights", "missing.falt"], "cannot read archive"),
        ],
        ids=["config-not-object", "env-seed", "config-preset", "threads-0", "missing-weights"],
    )
    def test_run_option_refusals_exit_3(
        self, capsys, small_ppm, tmp_path, monkeypatch, config, seed, flags, message
    ):
        monkeypatch.chdir(tmp_path)
        if seed is None:
            monkeypatch.delenv("FALCON_SEED", raising=False)
        else:
            monkeypatch.setenv("FALCON_SEED", seed)
        argv = ["encode", small_ppm, "--out", "o.falt", *flags]
        if config is not None:
            Path("run.json").write_text(json.dumps(config))
            argv += ["--config", "run.json"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert not Path("o.falt").exists()

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
        #   exchange softmax matrix;
        # - at width 4096 with 4096 registers, one tile's FFN hidden array
        #   holds 4672 x 16384 elements, though its exchange matrix is
        #   exactly at the cap;
        # - 480 registers over 16 tiles and the thumbnail, projected to
        #   d_llm 20000, pass every other row, but the projector's hidden
        #   array holds 8160 x 20000 elements.
        img, square, big = tmp_path / "img.ppm", tmp_path / "square.ppm", tmp_path / "big.ppm"
        make_ppm(img, 40, 40, seed=3)
        make_ppm(square, 64, 64, seed=4)
        make_ppm(big, 128, 128, seed=5)

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
        wide_ffn = [str(square), "--preset", "paper", "--width", "4096", "--registers", "4096",
                    "--layers", "1"]
        wide_projector = [str(big), "--preset", "tiny", "--registers", "480", "--project",
                          "--d-llm", "20000"]
        for argv in (
            ["encode", *many],
            ["attn-map", *many, *attn],
            ["encode", *band],
            ["encode", *wide_attention],
            ["attn-map", *wide_attention, *attn],
            ["encode", *wide_exchange],
            ["encode", *wide_ffn],
            ["encode", *wide_projector],
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
        # Over-cap encoder or projector weights, selftest fixtures over the
        # pixel cap or over max_tiles and a selftest reference forward over
        # its token cap are refused from the config alone; the dry run
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
            ["selftest", "--preset", "paper"],
            ["selftest", "--preset", "tiny", "--max-tiles", "2"],
            ["selftest", "--preset", "tiny", "--max-tiles", "1"],
        ):
            code = main([*argv, "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == "", argv
            cap = ("exceed max_tiles" if "--max-tiles" in argv else
                   "reference forward capped" if argv[-1] == "paper" else "element cap")
            assert cap in captured.err and captured.err.count("\n") == 1, argv
        assert not out.exists()
        code, report = run(capsys, "encode", small_ppm, *projected, str(encoder.MAX_SIZE),
                           "--dry-run")
        assert code == 0 and json.loads(report)["flops"]
        code, _ = run(capsys, "compare", *wide)
        assert code == 0

    def test_out_of_memory_exits_3(self, capsys, small_ppm, tmp_path, monkeypatch):
        # A run the budget admits but the machine cannot hold: the seeded
        # draw's one allocation fails as numpy reports it, never for real.
        try:
            from numpy._core._exceptions import _ArrayMemoryError
        except ImportError:  # numpy < 2
            from numpy.core._exceptions import _ArrayMemoryError

        def exhausted(*args, **kwargs):
            raise _ArrayMemoryError((1 << 40,), np.dtype(np.float32))

        monkeypatch.setattr(encoder, "init_tensors", exhausted)
        out = tmp_path / "o.falt"
        code = main(["encode", small_ppm, "--preset", "tiny", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            "error: out of memory: Unable to allocate 4.00 TiB for an array with shape "
            "(1099511627776,) and data type float32\n"
        )
        assert not out.exists()

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

    def test_reatten_off_reads_no_exchange_weights(self, capsys, small_ppm, tmp_path, monkeypatch):
        # With the exchange off, encode never reads a reatten.* entry, so a NaN
        # in one does not stop the run.
        cfg = encoder.PRESETS["tiny"]
        entries = encoder.init_weights(cfg, 0)
        entries["reatten.0.rq"][0, 0] = np.nan
        wpath = tmp_path / "bad.falt"
        falt.save(str(wpath), entries)
        read = []
        getitem = encoder._ArchiveWeights.__getitem__
        monkeypatch.setattr(encoder._ArchiveWeights, "__getitem__",
                            lambda self, name: read.append(name) or getitem(self, name))
        out_path = tmp_path / "o.falt"
        code = main(["encode", small_ppm, "--preset", "tiny", "--reatten", "off",
                     "--weights", str(wpath), "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0 and out_path.exists()
        assert sorted(read) == sorted(name for name in entries if not name.startswith("reatten."))

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "2d5b0e4c7a249d19945b5d1c158337a8342e4cb1e1cd252dc86e579e1c907894"),
            (["--verify-mode", "on", "--project"],
             "a2d3859162599a7c0be8176cc6b582d30dc50612f1f3cbd8b32a23e8276ac046"),
        ],
        ids=["f32", "f64-project"],
    )
    def test_reatten_off_archive_matches_recorded_digest(
        self, capsys, small_ppm, tmp_path, monkeypatch, flags, digest
    ):
        # Recorded from the release that still ran the disabled exchange as a
        # pass-through; pins the exchange-off forward and its archive bytes.
        monkeypatch.delenv("FALCON_SEED", raising=False)
        out_path = tmp_path / "off.falt"
        code, _ = run(
            capsys, "encode", small_ppm, "--preset", "tiny", "--seed", "7", "--reatten", "off",
            "--out", str(out_path), *flags,
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

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
        # The ref is to the raster itself: views of it would die at once
        # even while encode kept the raster alive.
        refs = []
        crop_tiles = image_crop.crop_tiles

        def crop_and_watch(img, plan):
            tiles = crop_tiles(img, plan)
            refs.append(weakref.ref(tiles.raster))
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
            assert len(refs) == 1, command  # the raster of 6 tiles and the thumbnail
            assert alive_at_first_block == [0], command

    def test_image_freed_at_crop(self, capsys, small_ppm, tmp_path, monkeypatch):
        # The loader's uint8 image goes to crop_tiles as a temporary, so it is
        # gone by the first block, for encode and attn-map alike.
        refs = []
        load_ppm = image_crop.load_ppm

        def load_and_watch(f):
            img = load_ppm(f)
            refs.append(weakref.ref(img))
            return img

        alive_at_first_block = []
        block = encoder.self_attention_block

        def first_block(x, lw, cfg, *rest):
            if not alive_at_first_block:
                alive_at_first_block.append(sum(ref() is not None for ref in refs))
            return block(x, lw, cfg, *rest)

        monkeypatch.setattr(image_crop, "load_ppm", load_and_watch)
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
            assert len(refs) == 1, command
            assert alive_at_first_block == [0], command

    def test_weights_peak_memory_flat_in_depth(self, capsys, small_ppm, tmp_path):
        # encode --weights holds the weights of one layer at a time, so five
        # more layers add less than one layer's bytes to the traced peak.
        base = encoder.config_with_overrides(encoder.PRESETS["tiny"], width=128)
        block = encoder.layer_specs(128) + encoder.reatten_specs(128)
        layer_bytes = 4 * encoder.element_count(block)
        assert layer_bytes == 1_051_648
        peaks = {}
        for layers in (1, 6):
            cfg = encoder.config_with_overrides(base, layers=layers)
            wpath = tmp_path / f"w{layers}.falt"
            encoder.save_weights(str(wpath), encoder.init_weights(cfg, 0), cfg)
            argv = ["encode", small_ppm, "--preset", "tiny", "--width", "128",
                    "--layers", str(layers), "--weights", str(wpath), "--out", str(tmp_path / "o")]
            tracemalloc.start()
            try:
                code, _ = run(capsys, *argv)
                peaks[layers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
        assert abs(peaks[6] - peaks[1]) < layer_bytes, peaks

    @pytest.mark.parametrize("reatten", ["on", "off"])
    @pytest.mark.parametrize("command", ["encode", "attn-map"])
    def test_holds_one_steps_weights_at_a_time(
        self, capsys, small_ppm, tmp_path, monkeypatch, command, reatten
    ):
        # Every lookup returns a fresh copy. While a step of layer l runs,
        # the copies alive are exactly that step's own: layer l's attention
        # half in its self-attention, its exchange block in the exchange, its
        # FFN half in its FFN. So no other step's copy of that layer (or of
        # any other) is alive.
        copies = {}  # name -> weakref to the copy handed out

        class Fresh(dict):
            def __getitem__(self, name):
                tensor = super().__getitem__(name).copy()
                copies[name] = weakref.ref(tensor)
                return tensor

        d = encoder.PRESETS["tiny"].width
        steps = []  # (step, layer) of each call, in order

        def watch(step, prefix, specs, fn):
            fields = {field for field, *_ in specs}

            def wrapper(*args, **kwargs):
                alive = {name for name, ref in copies.items() if ref() is not None}
                layers = {name.split(".")[1] for name in alive}
                assert len(layers) == 1, f"{step}: copies of {sorted(alive)} alive"
                layer = layers.pop()
                assert alive == {f"{prefix}.{layer}.{field}" for field in fields}, step
                steps.append((step, int(layer)))
                return fn(*args, **kwargs)

            return wrapper

        weights = cli._weights
        monkeypatch.setattr(cli, "_weights", lambda *args: Fresh(weights(*args)))
        for step, prefix, specs in (
            ("self_attention_block", "layers", encoder.attention_specs(d)),
            ("reatten", "reatten", encoder.reatten_specs(d)),
            ("ffn_block", "layers", encoder.ffn_specs(d)),
        ):
            monkeypatch.setattr(encoder, step, watch(step, prefix, specs, getattr(encoder, step)))
        extra = ["--layer", "1", "--head", "0", "--register", "0"] if command == "attn-map" else []
        code, _ = run(capsys, command, small_ppm, "--preset", "tiny", "--reatten", reatten,
                      "--out", str(tmp_path / "o"), *extra)
        assert code == 0
        # All 7 tiny states run as one group, so each block is one call.
        per_layer = ["self_attention_block", *(["reatten"] if reatten == "on" else []), "ffn_block"]
        assert steps == [(step, layer) for layer in (0, 1) for step in per_layer]

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
        "thumbnail": draw(st.sampled_from(["on", "off"])),
    }


def _budget_counts(knobs, n_tiles, d_llm, thumbnail):
    """(elements, cap) of every array the run budget bounds, counted here
    from the flags and the plan, apart from ``encoder.check_budget``."""
    p, tile, d, m = knobs["patch"], knobs["tile"], knobs["width"], knobs["registers"]
    n_tokens = (tile // p) ** 2 + m
    n_states = n_tiles + thumbnail
    exchange = m * n_states if knobs["reatten"] == "on" else 0
    # Stem: patch_embed, pos_embed and registers. Per layer: four d x d
    # attention matrices, the 4d-wide FFN and two layer norms, then four
    # d x d exchange matrices and one layer norm.
    weights = 3 * p * p * d + n_tokens * d + knobs["layers"] * (8 * d * d + 2 * d * 4 * d + 6 * d)
    counts = [
        ((n_tiles + 1) * tile * tile * 3, encoder.MAX_STATE_ELEMENTS),
        (n_states * n_tokens * d, encoder.MAX_STATE_ELEMENTS),
        (n_tokens * 4 * d, encoder.MAX_STATE_ELEMENTS),
        (max(n_tokens, exchange) ** 2, encoder.MAX_STATE_ELEMENTS),
        (weights, encoder.MAX_WEIGHT_ELEMENTS),
    ]
    if d_llm is not None:
        counts.append((d_llm * (d + d_llm), encoder.MAX_WEIGHT_ELEMENTS))
        counts.append((m * n_states * d_llm, encoder.MAX_STATE_ELEMENTS))
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
# Only the projector hidden array is over its cap: 4096 x 7 x 4096 elements.
@example(knobs={"patch": 16, "tile": 32, "heads": 1, "width": 8, "registers": 4096,
                "max-tiles": 16, "layers": 1, "reatten": "off", "thumbnail": "on"}, d_llm=4096)
# Every cap is met; only the selftest's verify mode refuses width 2.
@example(knobs={"patch": 16, "tile": 32, "heads": 1, "width": 2, "registers": 4,
                "max-tiles": 16, "layers": 2, "reatten": "on", "thumbnail": "on"}, d_llm=None)
def test_budget_refuses_or_admits_within_caps(config_fuzz_dir, knobs, d_llm):
    # Each run either exits 3 with one stderr line before any allocating
    # call, or reaches one with every counted array within its cap.
    img = str(config_fuzz_dir / "img.ppm")
    flags = ["--preset", "tiny", "--out", str(config_fuzz_dir / "o.out")]
    for name, value in knobs.items():
        flags += [f"--{name}", str(value)]
    plan = image_crop.plan_crop(96, 64, knobs["tile"], knobs["max-tiles"])  # img.ppm is 96x64
    project = [] if d_llm is None else ["--project", "--d-llm", str(d_llm)]
    # The selftest's reference forward runs 2 fixture tiles plus the thumbnail.
    # Its multiply-adds: the patch embedding, 3 * tile^2 * 3 * width, then per
    # layer self-attention and the FFN on each state and the exchange step.
    tile, d, m = knobs["tile"], knobs["width"], knobs["registers"]
    n_tokens = (tile // knobs["patch"]) ** 2 + m
    x = 3 * m if knobs["reatten"] == "on" else 0
    per_layer = 3 * (4 * n_tokens * d * d + 2 * n_tokens**2 * d + 8 * n_tokens * d * d)
    per_layer += 4 * x * d * d + 2 * x * x * d
    reference_macs = 9 * tile * tile * d + knobs["layers"] * per_layer
    reference = [(3 * n_tokens, oracle.REFERENCE_TOKEN_CAP),
                 (reference_macs, oracle.REFERENCE_MAC_CAP)]
    # The selftest runs 3 fixture tiles whatever --max-tiles says, and
    # checks that row before any other. Its verify mode, on by default,
    # refuses width 2 after every cap.
    fixtures = [(3, knobs["max-tiles"])]
    width_2 = knobs["width"] == 2
    # The selftest's fixtures always carry the thumbnail.
    thumbnail = knobs["thumbnail"] == "on"
    for argv, n_tiles, projector, thumb, first, apart, refused_width in (
        (["encode", img, *flags, *project], plan.n_tiles, d_llm, thumbnail, [], [], False),
        (["attn-map", img, *flags, "--layer", "0", "--head", "0", "--register", "0"],
         plan.n_tiles, None, thumbnail, [], [], False),
        (["selftest", *flags], 3, None, True, fixtures, reference, width_2),
    ):
        code, out, err = _main_stopped(argv)
        admitted = all(n <= cap for n, cap in first)
        budget = all(n <= cap for n, cap in _budget_counts(knobs, n_tiles, projector, thumb))
        capped = admitted and budget and all(n <= cap for n, cap in apart)
        within = capped and not refused_width
        if code is None:
            assert within, argv
        else:
            assert code == 3 and not within, argv
            message = ("exceed max_tiles" if not admitted else
                       "element cap" if not budget else
                       "reference forward capped" if not capped else "refuses width 2")
            assert out == "" and message in err and err.count("\n") == 1, argv
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

    @pytest.mark.parametrize("layer", [0, 1])
    def test_rows_match_full_encode(self, capsys, small_ppm, tmp_path, monkeypatch, layer):
        # attn-map runs layers 0..layer, so its last layer computes only the
        # register query rows; they equal, byte for byte, the register rows
        # that a full encode collects at that layer, for every state and head.
        monkeypatch.delenv("FALCON_SEED", raising=False)
        cfg = encoder.PRESETS["tiny"]
        with open(small_ppm, "rb") as f:
            img = image_crop.load_ppm(f)
        plan = image_crop.plan_crop(img.shape[0], img.shape[1], cfg.tile, cfg.max_tiles)
        n = cfg.n_image_tokens
        full = {}

        def collect(l, tile, head, attn):
            if l == layer and tile is not None:
                full.setdefault(head, []).append(attn[-cfg.registers :, :n].tobytes())

        w = encoder.init_weights(cfg, 5)
        encoder.encode(image_crop.crop_tiles(img, plan), w, cfg, collect=collect)
        extract = encoder.extract_register_attention
        for head in range(cfg.heads):
            seen = []

            def capture(tile_rows, register, plan):
                seen.extend(rows.tobytes() for rows in tile_rows)
                return extract(tile_rows, register, plan)

            monkeypatch.setattr(encoder, "extract_register_attention", capture)
            code, _ = run(
                capsys, "attn-map", small_ppm, "--preset", "tiny", "--seed", "5",
                "--layer", str(layer), "--head", str(head), "--register", "0",
                "--out", str(tmp_path / "h.pgm"),
            )
            assert code == 0
            assert seen == full[head] and len(seen) == plan.n_tiles + 1

    def test_runs_only_layers_up_to_requested(self, capsys, tmp_path, monkeypatch):
        # 64x64 at tile 32: 4 tiles + thumbnail, so the FFN sees 5 states per layer run.
        ppm = tmp_path / "sq.ppm"
        make_ppm(ppm, 64, 64, seed=2)
        states = []
        ffn_block = encoder.ffn_block

        def counting(*args, **kwargs):
            states.append(len(args[0]))  # a (g, N+M, D) group of g states
            return ffn_block(*args, **kwargs)

        monkeypatch.setattr(encoder, "ffn_block", counting)
        code, _ = run(
            capsys, "attn-map", str(ppm), "--preset", "tiny", "--layers", "6",
            "--layer", "0", "--head", "0", "--register", "0", "--out", str(tmp_path / "h.pgm"),
        )
        assert code == 0
        assert sum(states) == 5

    def test_layer_k_reads_only_layers_up_to_k(self, capsys, small_ppm, tmp_path):
        # With a NaN in layers.1.w2, attn-map --layer 0 writes the clean
        # archive's heatmap: it never reads layer 1. encode reads it and
        # exits 3, writing nothing. Names and shapes of every layer are still
        # checked before the forward.
        cfg = encoder.PRESETS["tiny"]
        entries = encoder.init_weights(cfg, 0)
        clean, bad, short = (tmp_path / f"{n}.falt" for n in ("clean", "bad", "short"))
        falt.save(str(clean), entries)
        entries["layers.1.w2"][0, 0] = np.nan
        falt.save(str(bad), entries)
        falt.save(str(short), {k: v for k, v in entries.items() if k != "reatten.1.ro"})
        attn = ["--layer", "0", "--head", "1", "--register", "2"]
        heat = {}
        for wpath in (clean, bad, short):
            out = tmp_path / f"{wpath.stem}.pgm"
            code = main(["attn-map", small_ppm, "--preset", "tiny", "--weights", str(wpath),
                         *attn, "--out", str(out)])
            captured = capsys.readouterr()
            heat[wpath.stem] = out.read_bytes() if out.exists() else None
            if wpath is short:
                assert code == 3 and captured.out == "" and "reatten.1.ro" in captured.err
            else:
                assert code == 0 and json.loads(captured.out)["layer"] == 0
        assert heat["bad"] == heat["clean"] and heat["short"] is None
        out_path = tmp_path / "o.falt"
        code = main(["encode", small_ppm, "--preset", "tiny", "--weights", str(bad),
                     "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.count("\n") == 1 and "'layers.1.w2'" in captured.err
        assert not out_path.exists()

    def test_out_of_range_indices_exit_4(self, capsys, small_ppm, tmp_path):
        # Each index is checked against the tiny preset's 2 layers, 2 heads
        # and 4 registers before the image is read, so a missing image with
        # a bad index still exits 4, and no heatmap is written.
        out = tmp_path / "x.pgm"
        for name, n in (("layer", 2), ("head", 2), ("register", 4)):
            args = {"--layer": "0", "--head": "0", "--register": "0", f"--{name}": "9"}
            for image in (small_ppm, str(tmp_path / "missing.ppm")):
                argv = ["attn-map", image, "--preset", "tiny", "--out", str(out)]
                code = main([*argv, *(s for kv in args.items() for s in kv)])
                captured = capsys.readouterr()
                assert code == 4 and captured.out == ""
                assert captured.err == f"error: {name} 9 out of range [0, {n})\n"
                assert not out.exists()


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

    def test_negative_registers_figure_fits_schema(self, capsys):
        # At one paper layer the register route runs fewer multiply-adds
        # per tile than a plain ViT; only that row may go below zero.
        code, out = run(capsys, "compare", "--preset", "paper", "--layers", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["compressors"][0]["flops_per_tile"] == -5_830_082_560
        validate_schema(payload, "compare")
        payload["compressors"][1]["flops_per_tile"] = -1
        with pytest.raises(jsonschema.ValidationError):
            validate_schema(payload, "compare")

    def test_output_matches_golden_bytes(self, capsys):
        # Recorded from the release before the MAC formulas moved into
        # oracle.attention_macs/ffn_macs; the registers rows' flops_per_tile
        # since, with a last layer that computes only the register rows.
        # With --reatten off the exchange total stays nonzero: it quotes the
        # cost of the step, not this run.
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

    def test_reference_mac_cap_exits_3_before_allocating(self):
        # Width 256 at one head asks the pure-Python reference forward for
        # 46.7M multiply-adds, over its 2^24 cap; width 128 (12.4M) runs.
        base = ["selftest", "--preset", "tiny", "--heads", "1", "--verify-mode", "off"]
        code, out, err = _main_stopped([*base, "--width", "256"])
        assert code == 3 and out == "" and err.count("\n") == 1
        assert "reference forward capped at 16777216 multiply-adds" in err
        assert _main_stopped([*base, "--width", "128"])[0] is None

    @pytest.mark.parametrize("heads", [1, 2])
    def test_verify_mode_refuses_width_2_before_weights(self, heads):
        # A layer norm over 2 features outputs about +-gamma + beta whatever
        # its input, so central differences cannot resolve the gradients
        # behind it: verify mode is refused before any weight is read or
        # drawn. Without it, and at widths 1 and 3, the suite runs.
        base = ["selftest", "--preset", "tiny", "--heads", str(heads)]
        code, out, err = _main_stopped([*base, "--width", "2"])
        assert code == 3 and out == "" and err.count("\n") == 1
        assert "verify mode refuses width 2" in err
        assert _main_stopped([*base, "--width", "2", "--verify-mode", "off"])[0] is None
        for width in ("1", "3"):
            argv = ["selftest", "--preset", "tiny", "--heads", "1", "--width", width]
            assert _main_stopped(argv)[0] is None

    def test_full_suite_fresh_checkout_under_60s(self, verify_selftest):
        code, payload, elapsed = verify_selftest
        validate_schema(payload, "selftest")
        assert code == 0
        assert not payload["gradient_check_skipped"]
        assert any(c["name"] == "gradient_check" for c in payload["checks"])
        assert elapsed < 60.0

    def test_verify_stdout_is_pinned(self, verify_selftest):
        # The default selftest's stdout, byte for byte: ``_emit``'s JSON of
        # the payload, which the parsed payload reproduces.
        _, payload, _ = verify_selftest
        stdout = json.dumps(payload, indent=2) + "\n"
        digest = "4ca473a7a9276739d177806c2c589530dac6c949dc3c4c78cda5defbcf719370"
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    def test_solo_encode_mismatch_fails_the_suite(self, capsys, monkeypatch):
        # With the exchange off a tile's encode alone must equal its rows of
        # the joint one; a solo encode that differs fails that check, and the
        # CLI exits 1.
        encode = encoder.encode

        def solo_differs(tiles, w, cfg, **kwargs):
            out = encode(tiles, w, cfg, **kwargs)
            if not cfg.reatten_enabled and len(tiles.tiles) == 1:
                out[0, 0] += 1.0
            return out

        monkeypatch.setattr(encoder, "encode", solo_differs)
        code, out = run(capsys, "selftest", "--verify-mode", "off")
        payload = json.loads(out)
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert code == 1 and payload["passed"] is False
        assert failed == ["reatten_off_independence"]

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
        # The float64 checks see a float64 archive's own arrays, the float32
        # checks float32 casts of them; nothing is drawn from a seed.
        cfg = encoder.PRESETS["tiny"]
        w = encoder.init_weights(cfg, 5, np.float64)
        seen = []

        def spy(fn):
            def wrapped(tiles, weights, *args, **kwargs):
                seen.append(weights["patch_embed"])
                return fn(tiles, weights, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(oracle.enc, "encode", spy(oracle.enc.encode))
        monkeypatch.setattr(oracle, "encode_reference", spy(oracle.encode_reference))
        monkeypatch.setattr(oracle.enc, "init_weights", None)
        result = oracle.run_selftest(cfg, w, seed=0, verify_mode=False)
        assert result["passed"]
        f64 = [p for p in seen if p.dtype == np.float64]
        f32 = [p for p in seen if p.dtype == np.float32]
        # Only the float64 oracle check's encode and reference run in float64.
        assert (len(f64), len(f32)) == (2, 16)
        assert all(p is w["patch_embed"] for p in f64)
        cast = w["patch_embed"].astype(np.float32)
        assert all(p.tobytes() == cast.tobytes() for p in f32)

    def test_f64_archive_matches_seeded_run(self, capsys, tmp_path, monkeypatch):
        # selftest --seed 5 runs on init_weights(cfg, 5, float64), so an
        # archive of those weights reports the same checks, float32 ones too.
        monkeypatch.delenv("FALCON_SEED", raising=False)
        cfg = encoder.PRESETS["tiny"]
        wpath = tmp_path / "w5.falt"
        encoder.save_weights(str(wpath), encoder.init_weights(cfg, 5, np.float64), cfg)
        reports = []
        for weights in ([], ["--weights", str(wpath)]):
            code, out = run(capsys, "selftest", "--seed", "5", "--verify-mode", "off", *weights)
            assert code == 0
            reports.append(json.loads(out))
        assert [r["weights"] for r in reports] == ["seeded", "archive"]
        assert reports[0]["checks"] == reports[1]["checks"]


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
            "layers", "width", "heads", "patch", "tile", "registers", "max_tiles",
            "reatten_enabled",
        ]

    def test_library_settings_are_pinned(self):
        # The parameters of the library calls that once took settings only one
        # value reached, now constants. Re-adding a setting edits these lists
        # and says so in CHANGES.md, as a new flag edits the one above.
        def parameters(fn):
            out = []
            for p in inspect.signature(fn).parameters.values():
                if p.kind is p.KEYWORD_ONLY and "*" not in out:
                    out.append("*")
                out.append(p.name if p.default is p.empty else f"{p.name}={p.default!r}")
            return out

        assert parameters(encoder.reatten) == ["states", "rw", "cfg", "*", "collect=None"]
        # bench/tracer.py reads the block's x and cfg as args[0] and args[2].
        assert parameters(encoder.self_attention_block) == [
            "x", "lw", "cfg", "collect=None", "rows=slice(None, None, None)"
        ]
        # It also reads these positionally: the block's x and cfg, the
        # forwards' tiles, cfg and thumbnail, the projector's f and pw, and
        # count_flops' arguments, as it calls them.
        assert parameters(encoder.ffn_block) == ["x", "lw", "cfg"]
        assert parameters(encoder.encode) == [
            "tiles", "w", "cfg", "*", "thumbnail=True", "collect=None"
        ]
        assert parameters(encoder.parameter_gradients) == ["tiles", "w", "cfg", "thumbnail=True"]
        assert parameters(compressors.mlp_project) == ["f", "pw"]
        assert parameters(oracle.count_flops) == ["cfg", "n_tiles", "thumbnail=True", "d_llm=None"]
        assert parameters(numerics.layer_norm) == ["x", "gamma", "beta"]
        assert parameters(autodiff.layer_norm) == ["x", "gamma", "beta"]
        assert parameters(compressors.comparison_row) == ["kind", "cfg", "thumbnail=True"]
        assert parameters(compressors._square_side) == ["feats"]
        assert parameters(image_crop.plan_crop) == ["h", "w", "tile", "max_tiles"]
        assert not hasattr(autodiff.Var, "__radd__") and not hasattr(autodiff.Var, "__rmul__")

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
