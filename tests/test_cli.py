import contextlib
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

    def test_verify_mode_writes_float64(self, capsys, small_ppm, tmp_path):
        out_path = tmp_path / "v.falt"
        code, _ = run(
            capsys, "encode", small_ppm, "--preset", "tiny", "--verify-mode", "on",
            "--out", str(out_path),
        )
        assert code == 0
        assert falt.load(str(out_path))["f_hr"].dtype == np.float64

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
        entries = encoder.weights_to_dict(encoder.init_weights(cfg, 0), cfg)
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
        # encode owns the TileSet that cmd_encode passes as a temporary, so
        # the cropped pixels are gone when the first block runs.
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
        out = tmp_path / "f_hr.falt"
        code, _ = run(capsys, "encode", small_ppm, "--preset", "tiny", "--out", str(out))
        assert code == 0 and out.exists()
        assert len(refs) == 7  # 6 tiles of the 96x64 image and the thumbnail
        assert alive_at_first_block == [0]

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
        for lw in w.layers:
            lw.wq[:] = 0.0
            lw.wk[:] = 0.0
        for rw in w.reatten:
            rw.rq[:] = 0.0
            rw.rk[:] = 0.0
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
            seen.append(weights.patch_embed)
            return encode(tiles, weights, *args, **kwargs)

        monkeypatch.setattr(oracle.enc, "encode", spy)
        monkeypatch.setattr(oracle.enc, "init_weights", None)
        result = oracle.run_selftest(cfg, seed=0, verify_mode=False, weights=w)
        assert result["passed"] and result["weights"] == "archive"
        assert all(p is w.patch_embed for p in seen)


class TestParser:
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
