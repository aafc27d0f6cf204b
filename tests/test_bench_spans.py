"""The benchmark's tracer patches projlim names: every one must still exist."""

import importlib
import importlib.util
from pathlib import Path

from projlim.laurent import LaurentScalar

BENCH_TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    spans = load_bench_trace().SPANS
    assert spans
    for module_name, attr, span_name in spans:
        home = importlib.import_module(f"projlim.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            target = getattr(home, cls_name).__dict__.get(method)
        else:
            target = getattr(home, attr, None)
        assert callable(target), f"{span_name}: projlim.{module_name}.{attr} is gone"


def test_every_counted_operation_is_defined_on_the_class():
    # The tracer reads LaurentScalar.__dict__[name]: an inherited or deleted
    # method would make a traced run raise KeyError.
    counted = load_bench_trace().COUNTED
    assert counted
    for name in counted:
        assert callable(LaurentScalar.__dict__.get(name)), f"LaurentScalar.{name} is not defined on the class"
