"""Tests of the benchmark's tracer: it observes without changing anything.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from falcon import cli, encoder, falt, image_crop, numerics, oracle  # noqa: E402

import tracer as tr  # noqa: E402


def _bindings():
    """Every (module, name) -> object binding of the package's callables."""
    return {
        (mod_name, name): value
        for mod_name, module in sys.modules.items()
        if module is not None and (mod_name == "falcon" or mod_name.startswith("falcon."))
        for name, value in vars(module).items()
        if callable(value)
    }


def _encode(tmp_path, name):
    img = tmp_path / "img.ppm"
    if not img.exists():
        pixels = np.random.default_rng(0).integers(0, 256, size=(70, 150, 3), dtype=np.uint8)
        img.write_bytes(image_crop.write_ppm(pixels))
    out = tmp_path / name
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["encode", str(img), "--preset", "tiny", "--seed", "5", "--project",
                       "--out", str(out)])
    assert rc == 0
    return out.read_bytes(), json.loads(buf.getvalue())


def test_traced_archive_is_byte_identical(tmp_path):
    plain, _ = _encode(tmp_path, "plain.falt")
    t = tr.Tracer()
    t.install()
    try:
        traced, report = _encode(tmp_path, "traced.falt")
    finally:
        t.uninstall()
    assert traced == plain
    assert t.aggs["encoder.self_attention_block"].calls > 0
    assert t.aggs["cli.main"].calls == 1


def test_uninstall_restores_every_binding():
    before = _bindings()
    before_var = vars(tr._resolve("falcon.autodiff:Var"))["backward"]
    t = tr.Tracer()
    t.install()
    assert encoder.self_attention_block is not before[("falcon.encoder", "self_attention_block")]
    # A name imported into another module is wrapped there as well.
    assert sys.modules["falcon.compressors"].gelu is numerics.gelu
    assert numerics.gelu.__wrapped__ is before[("falcon.numerics", "gelu")]
    assert t.uninstall() == []
    assert _bindings() == before
    assert vars(tr._resolve("falcon.autodiff:Var"))["backward"] is before_var
    assert t.restore_failures == []


def test_missing_target_is_reported_absent(monkeypatch, tmp_path):
    """A target folded away by a refactor is skipped, and the MAC gate with it."""
    monkeypatch.delattr(encoder, "self_attention_block")
    t = tr.Tracer()
    t.install()
    try:
        falt.save(str(tmp_path / "x.falt"), {"a": numerics.gelu(np.ones((2, 3)))})
        loaded = falt.load(str(tmp_path / "x.falt"))
    finally:
        t.uninstall()
    assert t.absent == ["encoder.self_attention_block"]
    assert t.gate_skipped
    assert loaded["a"].shape == (2, 3)
    assert t.aggs["falt.load"].nbytes == loaded["a"].nbytes


def test_mac_spans_sum_to_count_flops(tmp_path):
    t = tr.Tracer()
    t.install()
    try:
        _, report = _encode(tmp_path, "o.falt")
    finally:
        t.uninstall()
    assert t.gate_failures == []
    assert t.counters.gate_checked == 1
    assert t.last_root_macs == report["flops"]["total"]
    cfg = encoder.PRESETS["tiny"]
    expected = oracle.count_flops(cfg, report["n_tiles"], d_llm=128)
    assert t.aggs["encoder.reatten"].macs == expected.reatten
    assert t.aggs["compressors.mlp_project"].macs == expected.projector


def test_gate_flags_a_block_that_escapes_tracing(monkeypatch, tmp_path):
    """If block MACs stop adding up, the gate reports it instead of passing."""
    t = tr.Tracer()
    t.install()
    try:
        # Route one block around its wrapper: its MACs are no longer seen.
        monkeypatch.setattr(encoder, "ffn_block", encoder.ffn_block.__wrapped__)
        _encode(tmp_path, "o.falt")
    finally:
        monkeypatch.undo()
        t.uninstall()
    assert t.gate_failures and "count_flops" in t.gate_failures[0]


def test_self_time_excludes_children(tmp_path):
    t = tr.Tracer()
    t.install()
    try:
        _encode(tmp_path, "o.falt")
    finally:
        t.uninstall()
    enc = t.aggs["encoder.encode"]
    children = sum(t.aggs[n].incl_s for n in ("encoder.embed_tiles", *tr.BLOCKS))
    assert enc.self_s == pytest.approx(enc.incl_s - children, abs=1e-9)
