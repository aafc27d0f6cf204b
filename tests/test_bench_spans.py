"""The benchmark's tracer patches projlim names: every one must still exist."""

import importlib
import importlib.util
from pathlib import Path

BENCH_TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_resolves():
    spans = load_spans()
    assert spans
    for module_name, attr, span_name in spans:
        home = importlib.import_module(f"projlim.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            target = getattr(home, cls_name).__dict__.get(method)
        else:
            target = getattr(home, attr, None)
        assert callable(target), f"{span_name}: projlim.{module_name}.{attr} is gone"
