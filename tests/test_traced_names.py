"""The benchmark's span tracer names rigclab functions by (module, function);
each name must resolve, or the traced benchmark run fails on a rename."""
import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    # run_path compiles the file in memory: nothing is written beside it
    traced = runpy.run_path(str(SPANS))["TRACED"]
    assert traced
    missing = [
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"rigclab.{module}"), name, None))
    ]
    assert missing == []
