"""The benchmark's tracer (``bench/tracer.py``) finds every function it times."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_every_target(monkeypatch):
    # A traced function renamed or folded away would drop its per-layer
    # metrics from the benchmark record without notice; here it fails.
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == []
    finally:
        assert t.uninstall() == []
