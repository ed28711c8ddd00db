"""Every package name the benchmark's tracer rebinds or reads still exists.

The tracer in ``perfbench/spans.py`` reports an instrument whose attribute
has gone as absent instead of failing, so a renamed function would silently
drop its per-layer metrics from every benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_instrumented_attribute_exists(spans):
    missing = [
        f"{module}.{attr}"
        for _, module, attr in spans.SPANS + spans.COUNTERS + spans.CACHES
        if not hasattr(importlib.import_module(f"thirringsim.{module}"), attr)
    ]
    assert missing == []


def test_caches_report_cache_info(spans):
    for _, module, attr in spans.CACHES:
        assert callable(getattr(importlib.import_module(f"thirringsim.{module}"), attr).cache_info)
    assert spans.plan_misses() is not None
