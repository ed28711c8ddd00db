"""One fresh benchmark process: set up a workload, time its passes, check them.

Started by run.py, once per set-up sample and once for the measured run,
so the package's caches start cold as in a user's process.  Prints one
JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload n4-workflow --seed 1 --seconds 10 \
        --trace 0 --workdir .bench_build/perfbench-1 [--setup-only] [--max-passes N] [--tiny]

Timed passes follow the set-up until --seconds are spent or --max-passes
are done; with --trace 1 the set-up and every pass are traced.
"""
import time

SETUP_CLOCK = time.perf_counter()  # set-up starts before numpy and the package load

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
sys.path.insert(0, str(SOURCE))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--max-passes", type=int, default=0, help="0: as many as --seconds allow")
    p.add_argument("--tiny", action="store_true", help="shrunken workload for smoke tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy as np
    import thirringsim

    if not Path(thirringsim.__file__).resolve().is_relative_to(SOURCE):
        print(f"error: thirringsim loaded from {thirringsim.__file__}, not {SOURCE}",
              file=sys.stderr)
        return 2
    from machine import machine_block
    from spans import Tracer, cache_info, plan_misses
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    inputs = workload.draw(np.random.default_rng(args.seed))

    tracer = Tracer() if args.trace else None
    gram_info = cache_info("qite", "_gram_plan")
    result = {
        "workload": workload.name,
        "plan_cache_cold": None if gram_info is None else gram_info.currsize == 0,
    }
    if tracer:
        tracer.install()
    pool = workload.setup(inputs)
    if tracer:
        tracer.uninstall()
    result["setup_s"] = time.perf_counter() - SETUP_CLOCK
    result["plans_built_in_setup"] = plan_misses()
    if args.setup_only:
        print(json.dumps(result))
        return 0

    args.workdir.mkdir(parents=True, exist_ok=True)
    passes, gates = [], []
    # Every pass runs on the same inputs.
    while sum(p["wall_s"] for p in passes) < args.seconds and (
            not args.max_passes or len(passes) < args.max_passes):
        plans_before = plan_misses()
        if tracer:
            tracer.install()
        outcome = workload.run_pass(inputs, args.workdir)
        if tracer:
            tracer.uninstall()
        passes.append({"wall_s": outcome.wall_s, "table_s": outcome.table_s,
                       "steps": outcome.steps,
                       "plans_built": None if plans_before is None
                       else plan_misses() - plans_before})
        gates.append(dataclasses.asdict(workload.check(outcome)))

    result["passes"] = passes
    result["gates"] = gates
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_block()
    if tracer:
        result["trace"] = {
            "metrics": tracer.metrics(pool.size),
            "absent": tracer.absent(),
            "wall_s": tracer.wall_s,
            "self_time_sum_s": tracer.self_time_sum(),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
