"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke runs use ``--tiny`` workloads (one coupling; N = 4 instead of 6),
so the whole file takes well under a minute.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spans import Tracer, cache_info
from workloads import (
    REFERENCE, N4ShotsExactNorm, N6Stochastic, PassResult, exact_table, fidelity_gate, oracle_at,
    shots_gate, workflow_gate,
)
from thirringsim import model, oracle, qite, statevector

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run_reports_every_end_to_end_metric(workload):
    record, summary = last_lines(
        run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--tiny"))
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    assert record["machine"]["cores"] >= 1
    assert set(record["machine"]["thread_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


def test_traced_self_times_fit_in_traced_wall_time():
    record, summary = last_lines(
        run_bench("--workload", "n4-workflow", "--seed", "5", "--seconds", "1", "--trace", "1",
                  "--tiny"))
    assert summary["correct"] is True
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert record["absent"] == []
    wall = summary["metrics"]["trace.wall_s"]["value"]
    assert 0 < record["self_time_sum_s"] <= wall
    assert summary["metrics"]["qite.steps"]["value"] > 0
    assert summary["metrics"]["cli.csv_write_bytes"]["value"] > 0


def test_fresh_process_starts_with_a_cold_plan_cache():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "n4-workflow", "--seed", "1",
         "--seconds", "1", "--workdir", str(ROOT / ".bench_build" / "cold-test"), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["plan_cache_cold"] is True
    assert result["plans_built_in_setup"] >= 1  # so setup_s includes the plan build
    assert result["setup_s"] > 0


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "n4-workflow", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def exact_rows(variant, grid, n_steps, stderr):
    rows = []
    for g2 in grid:
        for name, value in oracle_at(variant, g2, n_steps).items():
            rows.append({"g2": g2, "k": n_steps, "observable": name, "value": value,
                         "stderr": stderr})
    return rows


def test_workflow_gate_rejects_one_value_shifted_by_a_tenth():
    grid = [0.3, 1.2, 2.1]
    rows = exact_rows(model.EUCLIDEAN, grid, REFERENCE.n_steps, None)
    assert workflow_gate(rows, model.EUCLIDEAN, REFERENCE.n_steps).failed == 0
    shifted = [dict(r) for r in rows]
    next(r for r in shifted if r["g2"] == 1.2)["value"] += 0.1
    gate = workflow_gate(shifted, model.EUCLIDEAN, REFERENCE.n_steps)
    assert (gate.attempted, gate.failed) == (len(grid), 1)


def test_shots_gate_rejects_one_sampled_value_shifted_by_a_tenth(tmp_path):
    workload = N4ShotsExactNorm().tiny()
    result = workload.run_pass(workload.draw(np.random.default_rng(5)), tmp_path)
    rows = result.outputs["rows"]
    assert shots_gate(rows, workload.variant, workload.n_steps).failed == 0
    final = [r for r in rows if r["k"] == workload.n_steps]
    assert max(r["stderr"] for r in final) > 0.01  # real shot errors, not the exact limit
    for index in range(len(final)):
        shifted = [dict(r) for r in rows]
        [r for r in shifted if r["k"] == workload.n_steps][index]["value"] += 0.1
        gate = shots_gate(shifted, workload.variant, workload.n_steps)
        assert (gate.attempted, gate.failed) == (1, 1)


def test_fidelity_gate_rejects_a_wrong_step():
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, REFERENCE.am, 1.0)).hamiltonian
    state = statevector.random_real_state(4, np.random.default_rng(0))
    exact, _ = oracle.exact_imaginary_time_state(ham, state, REFERENCE.dbeta)
    after, _ = oracle.exact_imaginary_time_state(ham, exact, REFERENCE.dbeta)
    assert fidelity_gate([(state, exact), (exact, after)], ham, 2).failed == 0
    # a step that leaves its state unchanged, first and then second
    assert fidelity_gate([(state, state), (state, exact)], ham, 2).failed == 1
    assert fidelity_gate([(state, exact), (exact, exact)], ham, 2).failed == 1


def test_n6_gate_checks_the_table_against_exact_steps():
    workload = N6Stochastic().tiny()
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, REFERENCE.am, 1.0)).hamiltonian
    observables = model.default_observables(4)
    states = workload.draw(np.random.default_rng(0))["states"]
    exact = exact_table(states, ham, observables, workload.n_steps)
    rows = [SimpleNamespace(observable=name, k=k, value=value) for (name, k), value in exact.items()]
    steps = []
    for state in states:
        for _ in range(workload.n_steps):
            after, _ = oracle.exact_imaginary_time_state(ham, state, REFERENCE.dbeta)
            steps.append((state, after))
            state = after

    def check(steps, rows):
        outputs = {"steps": steps, "table": SimpleNamespace(rows=rows), "ham": ham,
                   "observables": observables, "states": states}
        return workload.check(PassResult(1.0, [1.0], len(steps), outputs))

    assert check(steps, rows).failed == 0
    shifted = [SimpleNamespace(**vars(r)) for r in rows]
    shifted[-1].value += 0.3
    assert check(steps, shifted).failed == 1
    # a path that stops calling qite.step leaves its steps unchecked: a failure
    assert check([], rows).failed == 1


def test_missing_instruments_are_absent_and_unused_ones_count_zero(monkeypatch):
    monkeypatch.delattr(qite, "_gram_plan")
    monkeypatch.delattr(qite, "solve")
    assert cache_info("qite", "_gram_plan") is None
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    absent = tracer.absent()
    for name in ("cache.gram_plan_hit_ratio", "qite.plan_s", "qite.solve_s", "qite.rank_ratio"):
        assert name in absent
    metrics = tracer.metrics(pool_size=120)
    assert not set(absent) & set(metrics)
    assert metrics["statevector.rotations"] == 0
    assert metrics["oracle.norm_calls"] == 0
