"""Every package name the benchmark's tracer and workloads read still exists.

The tracer in ``perfbench/spans.py`` reports an instrument whose attribute
has gone as absent instead of failing, so a renamed function would silently
drop its per-layer metrics from every benchmark run.  The workloads in
``perfbench/workloads.py`` read further names in their set-up and gates,
where a missing one fails every run of a workload.
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


def test_workload_names_exist():
    cli, model, qite, statevector = (
        importlib.import_module(f"thirringsim.{m}") for m in ("cli", "model", "qite", "statevector")
    )
    reference = cli.RunConfig()
    assert cli.build_parser().parse_args(["sweep", "--mode", qite.MODE_SHOTS]).mode == "shots"
    # the set-up's first step, as the workloads make it, in both weight modes they use
    pool = qite.make_pool(reference.pool, 4)
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, reference.am, 1.0)).hamiltonian
    for c_mode in (qite.C_EXPONENTIAL, qite.C_EXACT_NORM):
        state, _ = qite.step(statevector.basis_state(0, 4), ham, reference.dbeta, pool, c_mode=c_mode)
        # the n6 gate's test that a step's output stays real
        assert isinstance(state, statevector.QuantumState)
        assert state.max_imag() <= qite.REAL_STATE_TOL
