"""Command-line driver: reproducible sweeps, oracle tables, comparison, validation.

Subcommands:
  sweep      imaginary-time-evolution thermal sweep over a coupling grid
  oracle     exact-diagonalization tables over a (temperature, coupling) grid
  compare    point-by-point deviation report between two sweep files
  validate   run the invariant suite and report pass/fail

Output is CSV with a fixed column order, UTF-8, LF line endings and
12-significant-digit decimal rendering; a run is fully determined by its
configuration and seed, so reruns are byte-identical.  The configuration
is echoed into `# key=value` comment lines at the top of each file.
Exit status: 0 success, 1 validation/tolerance/numerical failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass

from . import __version__, model, oracle, qite, thermal
from .checks import CheckResult, run_all_checks

# every sweep-file column in file order: the type its field reads back as,
# and whether an empty field reads back as None
_COLUMNS = {
    "variant": (str, False), "g2": (float, False), "k": (int, False),
    "beta": (float, False), "T": (float, False), "observable": (str, False),
    "value": (float, False), "weight_sum": (float, True), "stderr": (float, True),
    "mode": (str, False), "seed": (int, True),
}
CSV_COLUMNS = tuple(_COLUMNS)

DEFAULT_G2_GRIDS = {
    model.EUCLIDEAN: (0.0, 3.0, 0.1),
    model.MINKOWSKI: (0.0, 5.0, 0.2),
    model.GROSS_NEVEU: (0.0, 3.0, 0.1),
}

T_GRID_LINEAR = "linear"
T_GRID_QMETTS = "qmetts"

# the allowed values of every choice-valued key, for flags and config files alike
_CHOICES = {
    "variant": model.VARIANTS,
    "mode": (qite.MODE_EXACT, qite.MODE_SHOTS),
    "c_mode": qite.C_MODES,
    "pool": qite.POOL_KINDS,
    "t_grid": (T_GRID_LINEAR, T_GRID_QMETTS),
}


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a run; the defaults reproduce the reference setup."""

    variant: str = model.EUCLIDEAN
    n_sites: int = 4
    am: float = 0.5
    a_mu: float = 0.0
    g2_start: float | None = None
    g2_stop: float | None = None
    g2_step: float | None = None
    dbeta: float = 0.25
    n_steps: int = 20
    trotter_steps: int = qite.DEFAULT_TROTTER_STEPS
    threshold: float = qite.DEFAULT_THRESHOLD
    mode: str = qite.MODE_EXACT
    shots: int = 1024
    c_mode: str = qite.C_EXPONENTIAL
    pool: str = qite.ODD_Y
    seed: int = 0
    workers: int = 1
    t_grid: str = T_GRID_LINEAR
    t_start: float = 0.01
    t_stop: float = 1.0
    t_points: int = 100
    output: str = dataclasses.field(default="", metadata={"aliases": ("-o",)})
    sidecar: bool = dataclasses.field(
        default=False, metadata={"help": "also write a .meta.json sidecar with a timestamp"}
    )

    def resolved(self) -> "RunConfig":
        """Fill the variant-dependent coupling-grid defaults; reject a bad value before any work."""
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ValueError(f"{key} must be one of {', '.join(choices)}, "
                                 f"got {getattr(self, key)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.shots < 1:
            raise ValueError(f"shots must be at least 1, got {self.shots}")
        for key in ("dbeta", "t_start", "t_stop"):
            if not 0 < getattr(self, key) < math.inf:  # also false for nan
                raise ValueError(f"{key} must be positive and finite, got {getattr(self, key)}")
        start, stop, step = DEFAULT_G2_GRIDS[self.variant]
        cfg = dataclasses.replace(
            self,
            g2_start=start if self.g2_start is None else self.g2_start,
            g2_stop=stop if self.g2_stop is None else self.g2_stop,
            g2_step=step if self.g2_step is None else self.g2_step,
        )
        for key in ("g2_start", "g2_stop", "g2_step"):
            if not math.isfinite(getattr(cfg, key)):
                raise ValueError(f"{key} must be finite, got {getattr(cfg, key)}")
        if cfg.g2_step <= 0:
            raise ValueError(f"g2_step must be positive, got {cfg.g2_step}")
        if cfg.g2_stop < cfg.g2_start:
            raise ValueError(f"g2_stop {cfg.g2_stop} is below g2_start {cfg.g2_start}")
        return cfg


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _parse_bool(raw: str) -> bool:
    if raw not in ("True", "False", "true", "false"):
        raise ValueError(f"must be True or False, got {raw!r}")
    return raw in ("True", "true")


# flags and config files parse alike; plain callables keep argparse's "invalid int value"
_PARSERS = {"str": str, "int": int, "float": float, "float | None": float, "bool": _parse_bool}


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if raw == "None" and kind.endswith("| None"):
        return None
    return _PARSERS[kind](raw)


def load_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and # comments are ignored."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}")
            try:
                values[key] = _parse_value(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def config_from_sources(args: argparse.Namespace) -> RunConfig:
    """CLI flags override config-file keys, which override the defaults."""
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for name in _FIELD_TYPES:
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            values[name] = cli_value
    return RunConfig(**values).resolved()


def g2_grid(cfg: RunConfig) -> list[float]:
    n = int(round((cfg.g2_stop - cfg.g2_start) / cfg.g2_step)) + 1
    return [round(cfg.g2_start + i * cfg.g2_step, 12) for i in range(n)]


def temperature_grid(cfg: RunConfig) -> list[float]:
    if cfg.t_grid == T_GRID_QMETTS:
        return [1.0 / (2.0 * k * cfg.dbeta) for k in range(1, cfg.n_steps + 1)]
    if cfg.t_points < 1:
        raise ValueError("t_points must be at least 1")
    if cfg.t_points == 1:
        return [cfg.t_start]
    step = (cfg.t_stop - cfg.t_start) / (cfg.t_points - 1)
    return [round(cfg.t_start + i * step, 12) for i in range(cfg.t_points)]


# ---------------------------------------------------------------------------
# CSV in/out


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def metadata_lines(cfg: RunConfig) -> list[str]:
    lines = [f"# thirringsim_version={__version__}"]
    for f in dataclasses.fields(RunConfig):
        lines.append(f"# {f.name}={getattr(cfg, f.name)}")
    return lines


def parse_metadata(lines, path: str = "metadata", linenos=None) -> RunConfig:
    """Reconstruct the RunConfig echoed in a sweep file's comment block.

    A value that does not parse is reported as ``path:line: key: ...``;
    ``linenos`` are the file's numbers of ``lines``, by default 1, 2, ...
    """
    values = {}
    for lineno, line in zip(linenos or range(1, len(lines) + 1), lines):
        body = line.lstrip("#").strip()
        key, _, raw = body.partition("=")
        key = key.strip()
        if key in _FIELD_TYPES:
            try:
                values[key] = _parse_value(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return RunConfig(**values)


def write_sweep_csv(path: str, cfg: RunConfig, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in metadata_lines(cfg):
            fh.write(line + "\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")
    if cfg.sidecar:
        meta = {
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "config": {f.name: getattr(cfg, f.name) for f in dataclasses.fields(RunConfig)},
            "rows": len(rows),
        }
        with open(path + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")


def read_sweep_csv(path: str) -> tuple[RunConfig, list[dict]]:
    meta_lines, meta_linenos = [], []
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta_lines.append(line)
                meta_linenos.append(lineno)
                continue
            if header is None:
                header = line.split(",")
                if tuple(header) != CSV_COLUMNS:
                    raise ValueError(f"{path}: unexpected column header {header}")
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(f"{path}:{lineno}: {len(parts)} fields, but the header has "
                                 f"{len(header)}; is the file cut short?")
            row = {}
            for (column, (kind, optional)), raw in zip(_COLUMNS.items(), parts):
                try:
                    row[column] = None if optional and not raw else kind(raw)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {column}: {exc}") from None
            rows.append(row)
    return parse_metadata(meta_lines, path, meta_linenos), rows


# ---------------------------------------------------------------------------
# sweep


def _sweep_one_g2(task: tuple[RunConfig, float]) -> list[dict]:
    cfg, g2 = task
    params = model.ModelParams(cfg.variant, cfg.n_sites, cfg.am, g2, cfg.a_mu)
    ham = model.assemble(params).hamiltonian
    pool = qite.make_pool(cfg.pool, cfg.n_sites)
    observables = model.default_observables(cfg.n_sites)
    try:
        table = thermal.qmetts_average(
            ham, observables, cfg.dbeta, cfg.n_steps, pool,
            mode=cfg.mode, shots=cfg.shots, seed=cfg.seed,
            trotter_steps=cfg.trotter_steps, threshold=cfg.threshold,
            c_mode=cfg.c_mode,
        )
    except Exception as exc:
        raise RuntimeError(f"sweep failed at g2={g2:g}: {exc}") from exc
    # each column is a RunConfig field, a ThermalRow field, the coupling or T
    run = {**vars(cfg), "g2": g2}
    rows = []
    for r in table.rows:
        values = {**run, **vars(r), "T": r.temperature}
        rows.append({c: values[c] for c in CSV_COLUMNS})
    return rows


def sweep_rows(cfg: RunConfig) -> list[dict]:
    tasks = [(cfg, g2) for g2 in g2_grid(cfg)]
    if cfg.workers > 1:
        # imported here: the process-pool module costs every start-up about 17 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_sweep_one_g2, tasks))
    else:
        chunks = [_sweep_one_g2(t) for t in tasks]
    return [row for chunk in chunks for row in chunk]


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.output:
        print("error: sweep requires --output", file=sys.stderr)
        return 2
    rows = sweep_rows(cfg)
    write_sweep_csv(cfg.output, cfg, rows)
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    if not cfg.output:
        print("error: oracle requires --output", file=sys.stderr)
        return 2
    rows = oracle.figure1_sweep(
        cfg.variant, temperature_grid(cfg), g2_grid(cfg), cfg.am, cfg.n_sites, cfg.a_mu
    )
    for row in rows:
        row.update({"weight_sum": None, "stderr": None, "mode": "oracle", "seed": None})
    write_sweep_csv(cfg.output, cfg, rows)
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return 0


# ---------------------------------------------------------------------------
# compare


def _row_key(row: dict) -> tuple:
    return (row["variant"], round(row["g2"], 9), round(row["T"], 9), row["observable"])


def compare_files(test_path: str, reference_path: str,
                  tolerance: float = 0.05) -> list[CheckResult]:
    """The ``points`` and ``observables`` checks of a sweep file against a reference file.

    ``points`` fails on a non-finite value or a repeated point in either file,
    a reference point missing from the test file, or no checked point;
    ``observables`` fails when a checked point deviates by more than
    ``tolerance``. Points within ``oracle.STEP_MARGIN`` in g2 of a plateau
    step of the exact T = 0.01 fermion number (``oracle.plateau_steps``, at
    the reference file's couplings) are not checked. Each detail's first
    line sums its check up; the lines after it are the evidence.
    """
    _, test_rows = read_sweep_csv(test_path)
    ref_cfg, ref_rows = read_sweep_csv(reference_path)
    problems = _point_problems(test_path, test_rows, reference_path, ref_rows)
    reference = {_row_key(r): r for r in ref_rows}
    steps_by_variant = {
        v: oracle.plateau_steps(v, sorted({r["g2"] for r in ref_rows if r["variant"] == v}),
                                ref_cfg.am, ref_cfg.n_sites, ref_cfg.a_mu)
        for v in sorted({r["variant"] for r in ref_rows})
    }
    deviations = [(r, abs(r["value"] - reference[_row_key(r)]["value"])) for r in test_rows]
    checked = [(r, dev) for r, dev in deviations
               if oracle.away_from_steps(r["g2"], steps_by_variant[r["variant"]])]
    failures = [(_row_key(r), dev) for r, dev in checked if not dev <= tolerance]  # NaN fails
    # the epsilon absorbs the 12-significant-digit file rendering
    within_3sigma = [dev <= 3.0 * r["stderr"] + 1e-9 for r, dev in deviations
                     if r["stderr"] is not None]

    if not checked:
        problems.append("no points compared")
    points = [
        "; ".join(problems) or f"{len(ref_rows)} reference points, each once and finite in both",
        f"compared {len(checked)} points ({len(deviations) - len(checked)} excluded near "
        "plateau steps)",
        *(f"exclusion window: variant={variant} g2 in ({lo - oracle.STEP_MARGIN:g}, "
          f"{hi + oracle.STEP_MARGIN:g})"
          for variant, steps in sorted(steps_by_variant.items()) for lo, hi in steps),
    ]
    observables = [f"{len(failures)} of {len(checked)} checked points fail"]
    if checked:
        max_row, max_dev = max(checked, key=lambda p: math.inf if math.isnan(p[1]) else p[1])
        observables.append(f"max deviation {max_dev:.6g} at {_row_key(max_row)}")
        observables.append(f"mean deviation {sum(dev for _, dev in checked) / len(checked):.6g}")
    if within_3sigma:
        observables.append(f"stderr consistency: {sum(within_3sigma)}/{len(within_3sigma)} "
                           "points within 3 sigma")
    observables += [f"FAIL {key}: deviation {dev:.6g} > tolerance {tolerance:g}"
                    for key, dev in failures[:10]]
    return [CheckResult("points", not problems, "\n".join(points)),
            CheckResult("observables", not failures, "\n".join(observables))]


def _point_problems(test_path, test_rows, reference_path, ref_rows) -> list[str]:
    """Non-finite, repeated or untested points; raise if the reference lacks a test point."""
    ref_keys = set(map(_row_key, ref_rows))
    missing = [k for r in test_rows if (k := _row_key(r)) not in ref_keys]
    if missing:
        sample = ", ".join(str(k) for k in missing[:5])
        raise ValueError(
            f"grid mismatch: {len(missing)} of {len(test_rows)} points in {test_path} "
            f"have no counterpart in {reference_path} (first few: {sample}); "
            "regenerate the reference on the same grid (oracle --t-grid qmetts)"
        )
    problems = []
    for path, rows in ((test_path, test_rows), (reference_path, ref_rows)):
        bad = [r for r in rows
               if not all(math.isfinite(v) for v in r.values() if isinstance(v, float))]
        if bad:
            problems.append(f"{len(bad)} of {len(rows)} rows of {path} hold non-finite values "
                            f"(first at {_row_key(bad[0])})")
        repeated = [k for k, n in Counter(map(_row_key, rows)).items() if n > 1]
        if repeated:
            problems.append(f"{len(repeated)} points of {path} appear more than once "
                            f"(first {repeated[0]})")
    absent = ref_keys - set(map(_row_key, test_rows))
    if absent:
        problems.append(f"{len(absent)} of {len(ref_keys)} reference points are missing from "
                        f"{test_path}")
    return problems


def print_checks(results: list[CheckResult]) -> bool:
    """Print each check as ``name  PASS|FAIL  detail``; return whether every check passed."""
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    return all(r.passed for r in results)


def cmd_compare(args: argparse.Namespace) -> int:
    passed = print_checks(compare_files(args.qmetts_file, args.oracle_file, args.tolerance))
    print(f"result: {'PASS' if passed else 'FAIL'} (tolerance {args.tolerance:g})")
    return 0 if passed else 1


def cmd_validate(_args: argparse.Namespace) -> int:
    return 0 if print_checks(run_all_checks()) else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_flags(p: argparse.ArgumentParser, with_t_grid: bool = False) -> None:
    p.add_argument("--config", help="flat key=value configuration file")
    for f in dataclasses.fields(RunConfig):
        if f.name.startswith("t_") and not with_t_grid:
            continue
        if f.type == "bool":
            options = dict(action="store_const", const=True)
        else:
            options = dict(type=_PARSERS[f.type], choices=_CHOICES.get(f.name))
        p.add_argument(f"--{f.name.replace('_', '-')}", *f.metadata.get("aliases", ()),
                       dest=f.name, help=f.metadata.get("help"), **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thirringsim",
        description="Thermal simulation of the lattice massive Thirring model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="imaginary-time-evolution thermal sweep")
    _add_config_flags(p_sweep)

    p_oracle = sub.add_parser("oracle", help="exact-diagonalization reference tables")
    _add_config_flags(p_oracle, with_t_grid=True)

    p_cmp = sub.add_parser("compare", help="deviation report between two sweep files")
    p_cmp.add_argument("qmetts_file")
    p_cmp.add_argument("oracle_file")
    p_cmp.add_argument("--tolerance", type=float, default=0.05)

    sub.add_parser("validate", help="run the invariant suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(config_from_sources(args))
        if args.command == "oracle":
            return cmd_oracle(config_from_sources(args))
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_validate(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
