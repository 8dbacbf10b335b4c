"""The benchmark harness binds package functions by name: each span of
``bench/tracer.py`` must still name a function of the package, or a
deletion breaks ``bench/run.py --trace 1`` without any test failing."""

import importlib
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_every_tracer_span_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracer = importlib.import_module("tracer")
    try:
        spans = tracer.PACKAGE_SPANS
        assert spans
        for name, module, attribute in spans:
            assert callable(getattr(module, attribute, None)), name
    finally:
        sys.modules.pop("tracer", None)
