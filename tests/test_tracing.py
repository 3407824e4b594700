"""The benchmark's tracer (perfbench/tracing.py) wraps dialectid functions by
module and name.  The tier-1 suite does not run perfbench's own tests, so
this checks here that every name it wraps still exists."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    originals = [getattr(layer.module, layer.attr) for layer in tracing.LAYERS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(layer.module, layer.attr) is not original
                   for layer, original in zip(tracing.LAYERS, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(layer.module, layer.attr) is original
               for layer, original in zip(tracing.LAYERS, originals))
