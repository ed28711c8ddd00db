"""thirringsim benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload n4-workflow --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, so nothing needs to be installed.  Each workload runs
in fresh processes (perfbench/worker.py) so the package's caches start
cold.  A run draws its inputs once from the seed and times passes over
them until the requested seconds are spent, each pass right after a
fresh set-up (see PASSES_PER_PROCESS); ``wall_s`` is the median pass.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer metrics of a traced pass.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it holds the full record, machine block included.

The benchmark neither sets nor pins BLAS threads; the machine block
records whether the caller did.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("n4-workflow", "n4-shots-exactnorm", "n6-stochastic")
# Timed passes per worker process (0: no limit).  An N = 4 pass runs
# couplings, oracle spectra and checks that its set-up leaves cold, so each
# pass gets a fresh process and every pass starts right after a set-up.
# The n6 set-up steps with the pass's own pool and Hamiltonian, which
# fills every plan a pass reads, and costs about half a minute, so its
# passes share one process.
PASSES_PER_PROCESS = {"n4-workflow": 1, "n4-shots-exactnorm": 1, "n6-stochastic": 0}
# setup_s is the median over at least this many fresh processes; set-up-only
# processes make up the count.
MIN_SETUPS = {"n4-workflow": 7, "n4-shots-exactnorm": 7, "n6-stochastic": 1}
TIME_LIMIT_S = 170.0  # every child process must end within this, all together


class BenchmarkError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrunken workload for smoke tests")
    return p.parse_args(argv)


def run_worker(args, workdir: Path, deadline: float, *, seconds: float = 0.0,
               max_passes: int = 0, trace: int = 0, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--max-passes", str(max_passes),
           "--trace", str(trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("time limit reached before a worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the {TIME_LIMIT_S:g} s limit") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"worker exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result")
    return json.loads(lines[-1])


def tail_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "count": n}


def combine(results: list[dict]) -> dict:
    """The worker results of one run as one: passes, gates, set-up samples."""
    measured = [r for r in results if "passes" in r]
    gates = [g for r in measured for g in r["gates"]]
    details = {}
    for gate in gates:
        for key, value in gate["details"].items():
            old = details.get(key)
            details[key] = value if old is None or isinstance(value, str) else max(old, value)
    return {
        "passes": [p for r in measured for p in r["passes"]],
        "setup_samples_s": [r["setup_s"] for r in results],
        "attempted": sum(g["attempted"] for g in gates),
        "failed": sum(g["failed"] for g in gates),
        "details": details,
        "notes": [n for g in gates for n in g["notes"]],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in measured),
        "plan_cache_cold": all(r["plan_cache_cold"] is not False for r in results),
        "plans_built_in_setup": [r["plans_built_in_setup"] for r in results],
        "machine": measured[0]["machine"],
    }


def end_to_end(run: dict) -> tuple[dict, dict]:
    passes = run["passes"]
    tables = [t for p in passes for t in p["table_s"]]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(run["setup_samples_s"]),
        "steps_per_s": sum(p["steps"] for p in passes) / sum(p["wall_s"] for p in passes),
        "table_p50_s": statistics.median(tables),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    extra = {
        "passes": len(passes),
        "plans_built_in_passes": [p["plans_built"] for p in passes],
        "tables": len(tables),
        "table_tail_s": tail_percentile(tables),
        "setup_samples_s": run["setup_samples_s"],
    }
    return metrics, extra


def per_layer(plain: dict, traced: dict) -> tuple[dict, dict]:
    """Layer metrics of the traced process; the overhead is against the plain one."""
    trace = traced["trace"]
    metrics = dict(trace["metrics"])
    metrics["trace.wall_s"] = trace["wall_s"]
    metrics["trace.overhead_s"] = traced["passes"][0]["wall_s"] - plain["passes"][0]["wall_s"]
    extra = {"absent": trace["absent"], "self_time_sum_s": trace["self_time_sum_s"]}
    return metrics, extra


def measure(args, workdir: Path, deadline: float) -> list[dict]:
    """Worker results: timed passes until args.seconds, then set-up samples."""
    results, timed = [], 0.0
    while timed < args.seconds:
        result = run_worker(args, workdir, deadline, seconds=args.seconds - timed,
                            max_passes=PASSES_PER_PROCESS[args.workload])
        if not result["passes"]:
            raise BenchmarkError("a worker timed no pass")
        results.append(result)
        timed += sum(p["wall_s"] for p in result["passes"])
    while len(results) < MIN_SETUPS[args.workload]:
        results.append(run_worker(args, workdir, deadline, setup_only=True))
    return results


def benchmark(args) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        if args.trace:
            # The same single pass in two fresh processes, the second traced.
            plain = run_worker(args, workdir, deadline, seconds=args.seconds, max_passes=1)
            traced = run_worker(args, workdir, deadline, seconds=args.seconds, max_passes=1,
                                trace=1)
            results = [plain, traced]
        else:
            results = measure(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    main = combine(results)

    values, extra = per_layer(plain, traced) if args.trace else end_to_end(main)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    absent = set(extra.get("absent", ()))
    metrics = {}
    for m in listed:
        if m["name"] in absent:
            continue
        if m["name"] not in values:
            raise BenchmarkError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    correct = main["failed"] == 0 and main["attempted"] > 0
    if args.trace and extra["self_time_sum_s"] > values["trace.wall_s"]:
        correct = False
        main["notes"].append("span self times exceed the traced wall time")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "plan_cache_cold": main["plan_cache_cold"],
        "plans_built_in_setup": main["plans_built_in_setup"],
        "gate": main["details"], "notes": main["notes"][:20],
        "failed_frac": main["failed"] / max(main["attempted"], 1),
        "machine": main["machine"], **extra,
    }
    summary = {"correct": correct, "attempted": main["attempted"], "failed": main["failed"],
               "metrics": metrics}
    return record, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind, so the running worker is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "thirringsim" / "__init__.py").is_file():
        print(f"error: no thirringsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, summary = benchmark(args)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in summary["metrics"].items():
        print(f"{args.workload}  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
