"""Per-layer spans and counters, recorded from outside the package.

While a ``Tracer`` is installed, each instrumented function is replaced by
a wrapper: the module attribute through which the package itself calls it
(``qite.apply_rotation``, ``thermal.run_trajectory``, ...) is rebound, so
no file of the package changes.  Spans nest: a span's self time is its
duration minus the time covered by the spans it caused.  Totals are kept
per span name rather than as one record per call, because an N = 4 sweep
makes tens of thousands of rotation calls.

An instrument whose attribute no longer exists is reported as absent; one
whose function is no longer called reports zero calls.
"""
from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np

# Bytes a rotation reads and writes per amplitude, computed rather than
# measured: the complex input (16), the permutation (8), the complex phase
# (16) and the complex output (16).
ROTATION_BYTES_PER_AMPLITUDE = 56

# The numerical rank needs an SVD of the solved matrix, which at N = 6 costs
# as much as the solve itself, so it is taken on the first few solves only,
# after the traced section ends.
RANK_SAMPLES = 2

# (span name, module, attribute).  Several attributes may share one name.
SPANS = (
    ("qite.step", "qite", "step"),
    ("qite.solve", "qite", "solve"),
    ("qite.assembly", "qite", "build_gram"),
    ("qite.assembly", "qite", "build_rhs"),
    ("statevector.rotation", "qite", "apply_rotation"),
    ("statevector.expectation", "qite", "expectation"),
    ("statevector.sample", "qite", "sample"),
    ("statevector.estimate", "qite", "estimate_diagonal"),
    ("statevector.estimate", "qite", "estimate_diagonal_variance"),
    ("oracle.norm", "oracle", "exact_imaginary_time_state"),
    ("oracle.spectral", "oracle", "spectral"),
    ("oracle.table", "oracle", "figure1_sweep"),
    ("thermal.trajectory", "thermal", "run_trajectory"),
    ("thermal.trajectory", "thermal", "run_trajectory_from_state"),
    ("thermal.average", "thermal", "qmetts_average"),
    ("thermal.average", "thermal", "average_over_states"),
    ("thermal.average", "thermal", "stochastic_trace_average"),
    ("cli.csv_write", "cli", "write_sweep_csv"),
    ("cli.csv_read", "cli", "read_sweep_csv"),
    ("cli.compare", "cli", "compare_files"),
    ("checks.validate", "cli", "run_all_checks"),
)

# Counted, not timed: an N = 6 plan build makes about two million of these.
COUNTERS = (
    ("pauli.products", "qite", "multiply"),
    ("pauli.products", "qite", "minus_i_commutator"),
)

# Hit ratios come from the cache_info() of these lru_cache objects.
CACHES = (
    ("cache.gram_plan_hit_ratio", "qite", "_gram_plan"),
    ("cache.rhs_plan_hit_ratio", "qite", "_rhs_plan"),
    ("cache.string_action_hit_ratio", "statevector", "_string_action"),
    ("cache.spectral_hit_ratio", "oracle", "_spectral_cached"),
)
PLAN_CACHES = ("_gram_plan", "_rhs_plan")

# The per-layer metrics each instrument feeds, for reporting absence.
METRICS_OF = {
    "qite.step": ("qite.step_self_s", "qite.steps", "qite.kept_ratio"),
    "qite.solve": ("qite.solve_s", "qite.solve_dim", "qite.rank_ratio"),
    "qite.assembly": ("qite.assembly_s", "qite.plan_s"),
    "statevector.rotation": (
        "statevector.rotation_s", "statevector.rotations", "statevector.rotation_bytes_computed",
    ),
    "statevector.expectation": ("statevector.expectation_s",),
    "statevector.sample": ("statevector.sample_s",),
    "statevector.estimate": ("statevector.estimate_s",),
    "oracle.norm": ("oracle.norm_s", "oracle.norm_calls"),
    "oracle.spectral": ("oracle.spectral_s",),
    "oracle.table": ("oracle.table_s",),
    "thermal.trajectory": ("thermal.trajectory_s",),
    "thermal.average": ("thermal.aggregate_self_s",),
    "cli.csv_write": ("cli.csv_write_s", "cli.csv_write_bytes"),
    "cli.csv_read": ("cli.csv_read_s",),
    "cli.compare": ("cli.compare_s",),
    "checks.validate": ("checks.validate_s",),
    "pauli.products": ("pauli.products",),
}


def package_module(name: str):
    return importlib.import_module(f"thirringsim.{name}")


def cache_info(module: str, attr: str):
    """``cache_info()`` of a package lru_cache, or None when it is gone."""
    info = getattr(getattr(package_module(module), attr, None), "cache_info", None)
    return info() if info is not None else None


def plan_misses() -> int | None:
    """Plans built so far in this process, or None without plan caches."""
    infos = [cache_info("qite", attr) for attr in PLAN_CACHES]
    if any(info is None for info in infos):
        return None
    return sum(info.misses for info in infos)


class Patches:
    """Module attributes rebound to wrappers, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def rebind(self, module: str, attr: str, make_wrapper) -> bool:
        mod = package_module(module)
        if not hasattr(mod, attr):
            return False
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


class Tracer:
    """Span totals, self times and counters of the instrumented layers.

    ``install`` and ``uninstall`` may alternate; totals accumulate over
    every installed interval and ``wall_s`` is the sum of those intervals.
    """

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.amount = defaultdict(float)
        self.present: set[str] = set()
        self.wall_s = 0.0
        self._open: list[float] = []  # time covered by children, per open span
        self._rank_inputs: list[tuple] = []
        self._patches = Patches()
        self._since = None
        self._hooks = {
            "qite.assembly": (plan_misses, self._after_assembly),
            "qite.solve": (None, self._after_solve),
            "qite.step": (None, self._after_step),
            "statevector.rotation": (None, self._after_rotation),
            "cli.csv_write": (None, self._after_csv_write),
        }

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        open_spans = self._open
        clock = time.perf_counter
        total, self_time, calls = self.total, self.self_time, self.calls
        before, after = self._hooks.get(name, (None, None))

        def wrapper(*args, **kwargs):
            token = before() if before is not None else None
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
            label = (after(token, args, kwargs, result) if after is not None else None) or name
            total[label] += duration
            self_time[label] += duration - child
            calls[label] += 1
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_assembly(self, misses_before, args, kwargs, result):
        if misses_before is not None and plan_misses() > misses_before:
            return "qite.plan"
        return None

    def _after_solve(self, _token, args, kwargs, result):
        matrix = np.asarray(args[0])
        self.amount["qite.solve_dim"] += matrix.shape[0]
        if len(self._rank_inputs) < RANK_SAMPLES:
            cutoff = args[2] if len(args) > 2 else kwargs.get("svd_cutoff")
            self._rank_inputs.append((matrix, cutoff))

    def _after_step(self, _token, args, kwargs, result):
        self.amount["qite.kept_terms"] += result[1].kept_terms

    def _after_rotation(self, _token, args, kwargs, result):
        self.amount["statevector.rotation_bytes"] += (
            ROTATION_BYTES_PER_AMPLITUDE * args[0].amplitudes.size
        )

    def _after_csv_write(self, _token, args, kwargs, result):
        self.amount["cli.csv_write_bytes"] += os.path.getsize(args[0])

    # -- lifetime -----------------------------------------------------------

    def install(self) -> None:
        for name, module, attr in SPANS:
            if self._patches.rebind(module, attr, lambda fn, n=name: self._span(n, fn)):
                self.present.add(name)
        for name, module, attr in COUNTERS:
            if self._patches.rebind(module, attr, lambda fn, n=name: self._counter(n, fn)):
                self.present.add(name)
        self._since = time.perf_counter()

    def uninstall(self) -> None:
        self.wall_s += time.perf_counter() - self._since
        self._patches.restore()

    # -- results ------------------------------------------------------------

    def rank_ratio(self) -> float:
        default_cutoff = package_module("qite").DEFAULT_SVD_CUTOFF
        ratios = []
        for matrix, cutoff in self._rank_inputs:
            cutoff = default_cutoff if cutoff is None else cutoff
            s = np.linalg.svd(matrix, compute_uv=False)
            rank = int(np.count_nonzero(s > cutoff * s[0])) if s[0] > 0 else 0
            ratios.append(rank / matrix.shape[1])
        return float(np.mean(ratios)) if ratios else 0.0

    def absent(self) -> list[str]:
        """Per-layer metrics whose instrument no longer exists in the package."""
        gone = [m for name, ms in METRICS_OF.items() if name not in self.present for m in ms]
        if plan_misses() is None:
            gone.append("qite.plan_s")
        gone += [metric for metric, module, attr in CACHES if cache_info(module, attr) is None]
        return sorted(set(gone))

    def metrics(self, pool_size: int) -> dict[str, float]:
        """Per-layer values; every time is a self time except thermal.trajectory_s."""
        s, c, a = self.self_time, self.calls, self.amount
        steps = c["qite.step"]
        values = {
            "qite.solve_s": s["qite.solve"],
            "qite.solve_dim": a["qite.solve_dim"] / c["qite.solve"] if c["qite.solve"] else 0.0,
            "qite.rank_ratio": self.rank_ratio(),
            "qite.plan_s": s["qite.plan"],
            "pauli.products": c["pauli.products"],
            "qite.assembly_s": s["qite.assembly"],
            "qite.kept_ratio": a["qite.kept_terms"] / (steps * pool_size) if steps else 0.0,
            "qite.step_self_s": s["qite.step"],
            "qite.steps": steps,
            "statevector.rotation_s": s["statevector.rotation"],
            "statevector.rotations": c["statevector.rotation"],
            "statevector.rotation_bytes_computed": a["statevector.rotation_bytes"],
            "statevector.expectation_s": s["statevector.expectation"],
            "statevector.sample_s": s["statevector.sample"],
            "statevector.estimate_s": s["statevector.estimate"],
            "oracle.norm_s": s["oracle.norm"],
            "oracle.norm_calls": c["oracle.norm"],
            "oracle.spectral_s": s["oracle.spectral"],
            "oracle.table_s": s["oracle.table"],
            "thermal.trajectory_s": self.total["thermal.trajectory"],
            "thermal.aggregate_self_s": s["thermal.average"],
            "cli.csv_write_s": s["cli.csv_write"],
            "cli.csv_write_bytes": a["cli.csv_write_bytes"],
            "cli.csv_read_s": s["cli.csv_read"],
            "cli.compare_s": s["cli.compare"],
            "checks.validate_s": s["checks.validate"],
        }
        for metric, module, attr in CACHES:
            info = cache_info(module, attr)
            if info is not None:
                lookups = info.hits + info.misses
                values[metric] = info.hits / lookups if lookups else 0.0
        for metric in self.absent():
            values.pop(metric, None)
        return values

    def self_time_sum(self) -> float:
        return float(sum(self.self_time.values()))
