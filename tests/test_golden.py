"""Golden outputs: sweep CSVs pinned across code versions.

Each case reruns one `sweep` command at N = 4 and compares it with the
file committed under ``tests/golden/``.  Comment lines (except the
``# output=`` path), the header and every non-numeric field must be
byte-equal; numeric fields must agree within ``REL_TOL`` relative.  On a
mismatch the test names the largest deviation and where it is.

Regenerate the files only on purpose, and say why in the change log:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import math
import os
from pathlib import Path

import pytest

from thirringsim import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-10

# One coupling per plateau of each variant (below, between and above the
# two steps of the fermion number on the default grids).
CASES = {
    "euclidean_exact.csv": [
        "--variant", "euclidean", "--g2-start", "0.0", "--g2-stop", "2.4", "--g2-step", "1.2",
    ],
    "minkowski_shots.csv": [
        "--variant", "minkowski", "--g2-start", "0.4", "--g2-stop", "4.4", "--g2-step", "2.0",
        "--mode", "shots", "--seed", "17",
    ],
    "euclidean_exact_norm.csv": [
        "--variant", "euclidean", "--g2-start", "0.3", "--g2-stop", "2.7", "--g2-step", "1.2",
        "--c-mode", "exact-norm",
    ],
}


def _number(field: str) -> float | None:
    try:
        value = float(field)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def golden_mismatches(got_text: str, want_text: str) -> tuple[list[str], float, str]:
    """(structural mismatches, largest relative deviation, where it is)."""
    got, want = got_text.splitlines(), want_text.splitlines()
    problems = []
    if len(got) != len(want):
        problems.append(f"{len(got)} lines, golden has {len(want)}")
    worst, where = 0.0, "nowhere"
    header = None
    for lineno, (g, w) in enumerate(zip(got, want), start=1):
        if w.startswith("#") or header is None:
            if w.startswith("# output=") and g.startswith("# output="):
                continue
            if g != w:
                problems.append(f"line {lineno}: {g!r} != golden {w!r}")
            if not w.startswith("#"):
                header = w.split(",")
            continue
        g_fields, w_fields = g.split(","), w.split(",")
        if len(g_fields) != len(w_fields):
            problems.append(f"line {lineno}: {len(g_fields)} fields, golden has {len(w_fields)}")
            continue
        for column, gf, wf in zip(header, g_fields, w_fields):
            gv, wv = _number(gf), _number(wf)
            if gv is None or wv is None:
                if gf != wf:
                    problems.append(f"line {lineno} {column}: {gf!r} != golden {wf!r}")
                continue
            scale = max(abs(gv), abs(wv))
            dev = abs(gv - wv) / scale if scale else 0.0
            if dev > worst:
                worst, where = dev, f"line {lineno} {column} ({gf} vs golden {wf}): {w}"
    return problems, worst, where


def regenerate(name: str, output: Path) -> str:
    assert cli.main(["sweep", *CASES[name], "--output", str(output)]) == 0
    return output.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_golden(name, tmp_path, capsys):
    got = regenerate(name, tmp_path / name)
    capsys.readouterr()
    problems, worst, where = golden_mismatches(got, (GOLDEN / name).read_text(encoding="utf-8"))
    assert not problems, "\n".join(problems[:10])
    assert worst <= REL_TOL, f"largest relative deviation {worst:.3g} at {where}"


def test_comparison_reports_largest_deviation():
    want = "# a=1\n# output=x\nvariant,g2,value\neuclidean,0.5,1.0\neuclidean,1,2.0\n"
    got = "# a=1\n# output=y\nvariant,g2,value\neuclidean,0.5,1.0\neuclidean,1,2.000002\n"
    problems, worst, where = golden_mismatches(got, want)
    assert problems == []
    assert worst == pytest.approx(1e-6, rel=1e-3)
    assert where.startswith("line 5 value")
    problems, _, _ = golden_mismatches(got.replace("# a=1", "# a=2"), want)
    assert problems == ["line 1: '# a=2' != golden '# a=1'"]
    problems, _, _ = golden_mismatches(got.replace("euclidean,1,", "minkowski,1,"), want)
    assert problems == ["line 5 variant: 'minkowski' != golden 'euclidean'"]


if __name__ == "__main__":
    os.chdir(GOLDEN.parent.parent)  # keeps the echoed output path relative
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        regenerate(case, GOLDEN.relative_to(Path.cwd()) / case)
