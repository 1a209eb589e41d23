"""The benchmark's layer tracer (benchmark/tracer.py) must keep working.

The tracer wraps supvar functions and ``IncrementalSpan`` methods by name, so
renaming or dropping one of them breaks the benchmark's traced runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("supvar_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    out = {}
    for key, mod in sys.modules.items():
        if key == "supvar" or key.startswith("supvar."):
            out.update({(key, name): id(value) for name, value in vars(mod).items()})
    span = sys.modules["supvar.linalg"].IncrementalSpan
    out.update({("IncrementalSpan", name): id(value) for name, value in vars(span).items()})
    return out


def test_tracer_install_remove_cycle(monkeypatch):
    tracer_module = _load_tracer()
    for name in [n for n in sys.modules if n == "supvar" or n.startswith("supvar.")]:
        monkeypatch.delitem(sys.modules, name)
    sv = importlib.import_module("supvar")
    before = _bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        assert sv.rank(sv.RationalMatrix([[1, 2], [2, 4]])) == 1
    finally:
        tracer.remove()
    assert tracer.counts["linalg.calls"] == 1
    assert "linalg.rank" in tracer.self_times()
    assert _bindings() == before
