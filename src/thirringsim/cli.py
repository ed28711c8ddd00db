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
from .checks import run_all_checks

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


def parse_metadata(lines) -> RunConfig:
    """Reconstruct the RunConfig echoed in a sweep file's comment block."""
    values = {}
    for line in lines:
        body = line.lstrip("#").strip()
        key, _, raw = body.partition("=")
        key = key.strip()
        if key in _FIELD_TYPES:
            values[key] = _parse_value(key, raw)
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
    meta_lines = []
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta_lines.append(line)
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
    return parse_metadata(meta_lines), rows


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
        cfg.variant, temperature_grid(cfg), g2_grid(cfg), cfg.am, cfg.n_sites
    )
    for row in rows:
        row.update({"weight_sum": None, "stderr": None, "mode": "oracle", "seed": None})
    write_sweep_csv(cfg.output, cfg, rows)
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return 0


# ---------------------------------------------------------------------------
# compare


def _is_finite_row(row: dict) -> bool:
    return all(not isinstance(v, float) or math.isfinite(v) for v in row.values())


def _row_key(row: dict) -> tuple:
    return (row["variant"], round(row["g2"], 9), round(row["T"], 9), row["observable"])


def compare_files(test_path: str, reference_path: str, tolerance: float = 0.05) -> tuple[bool, str]:
    """Per-point deviation report of a sweep file against a reference file.

    Points within ``oracle.STEP_MARGIN`` in g2 of a plateau discontinuity
    detected in the reference fermion-number data (adjacent-point jumps
    larger than ``oracle.STEP_JUMP``) are excluded from the pass/fail
    decision but still listed.
    The comparison fails when no point is checked, when either file holds
    a non-finite value, when either file holds a point twice, or when a
    point of the reference file is missing from the test file.
    """
    _, test_rows = read_sweep_csv(test_path)
    ref_cfg, ref_rows = read_sweep_csv(reference_path)
    reference = {_row_key(r): r for r in ref_rows}

    missing = [k for r in test_rows if (k := _row_key(r)) not in reference]
    if missing:
        sample = ", ".join(str(k) for k in missing[:5])
        raise ValueError(
            f"grid mismatch: {len(missing)} of {len(test_rows)} points in {test_path} "
            f"have no counterpart in {reference_path} (first few: {sample}); "
            "regenerate the reference on the same grid (oracle --t-grid qmetts)"
        )

    # Plateau discontinuities are a low-temperature spectral feature, so they
    # are located on a fresh exact evaluation at T=0.01 over the file's
    # coupling grid rather than read off the (thermally smeared) file rows.
    steps_by_variant: dict[str, list] = {}
    for variant in sorted({r["variant"] for r in ref_rows}):
        grid = sorted({r["g2"] for r in ref_rows if r["variant"] == variant})
        low_t = oracle.figure1_sweep(
            variant, [oracle.LOW_TEMPERATURE], grid, ref_cfg.am, ref_cfg.n_sites
        )
        fermion = [r for r in low_t if r["observable"] == model.FERMION_NUMBER]
        steps_by_variant[variant] = oracle.find_plateau_steps(
            [r["g2"] for r in fermion], [r["value"] for r in fermion]
        )

    lines = []
    excluded = 0
    checked = 0
    n_within_3sigma = 0
    n_with_stderr = 0
    max_dev = 0.0
    max_dev_key = None
    dev_sum = 0.0
    failures = []
    problems = []
    for path, rows in ((test_path, test_rows), (reference_path, ref_rows)):
        bad = [r for r in rows if not _is_finite_row(r)]
        if bad:
            problems.append(
                f"FAIL {len(bad)} of {len(rows)} rows of {path} hold non-finite values "
                f"(first at {_row_key(bad[0])})"
            )
        repeated = [k for k, n in Counter(_row_key(r) for r in rows).items() if n > 1]
        if repeated:
            problems.append(
                f"FAIL {len(repeated)} points of {path} appear more than once "
                f"(first {repeated[0]})"
            )
    absent = reference.keys() - {_row_key(r) for r in test_rows}
    if absent:
        problems.append(
            f"FAIL {len(absent)} of {len(reference)} reference points are missing from {test_path}"
        )
    for row in test_rows:
        key = _row_key(row)
        ref_value = reference[key]["value"]
        dev = abs(row["value"] - ref_value)
        if row["stderr"] is not None:
            n_with_stderr += 1
            # the epsilon absorbs the 12-significant-digit file rendering
            if dev <= 3.0 * row["stderr"] + 1e-9:
                n_within_3sigma += 1
        if not oracle.away_from_steps(row["g2"], steps_by_variant[row["variant"]]):
            excluded += 1
            continue
        checked += 1
        dev_sum += dev
        if dev > max_dev:
            max_dev, max_dev_key = dev, key
        if dev > tolerance:
            failures.append((key, dev))

    lines.append(f"compared {checked} points ({excluded} excluded near plateau steps)")
    for variant, steps in sorted(steps_by_variant.items()):
        for lo, hi in steps:
            lines.append(
                f"exclusion window: variant={variant} "
                f"g2 in ({lo - oracle.STEP_MARGIN:g}, {hi + oracle.STEP_MARGIN:g})"
            )
    if checked:
        lines.append(f"max deviation {max_dev:.6g} at {max_dev_key}")
        lines.append(f"mean deviation {dev_sum / checked:.6g}")
    if n_with_stderr:
        lines.append(
            f"stderr consistency: {n_within_3sigma}/{n_with_stderr} points within 3 sigma"
        )
    if not checked:
        problems.append("FAIL no points compared")
    passed = not failures and not problems
    lines.extend(problems)
    if checked:
        lines.append(f"{len(failures)} of {checked} checked points fail")
    for key, dev in failures[:10]:
        lines.append(f"FAIL {key}: deviation {dev:.6g} > tolerance {tolerance:g}")
    lines.append(f"result: {'PASS' if passed else 'FAIL'} (tolerance {tolerance:g})")
    return passed, "\n".join(lines)


def cmd_compare(args: argparse.Namespace) -> int:
    passed, report = compare_files(args.qmetts_file, args.oracle_file, args.tolerance)
    print(report)
    return 0 if passed else 1


def cmd_validate(_args: argparse.Namespace) -> int:
    results = run_all_checks()
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


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
