"""The benchmark's tracer (`bench/spans.py`) wraps library functions by
module and name, so a function renamed or moved out of its module would only
show when a traced benchmark run fails. This checks every target here."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        (module, func)
        for module, func, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), func, None))
    ]
    assert missing == []
