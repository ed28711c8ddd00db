"""Acceptance criteria, one test per criterion, at frozen tolerances.

Every quantitative target is anchored either to the exact-diagonalization
oracle built in this package or to an analytically forced limit.  Each
test prints a single summary line (visible with ``pytest -rA`` or ``-s``).
"""
import time

import numpy as np
import pytest

from thirringsim import cli, model, oracle, pauli, qite, thermal
from thirringsim import statevector as sv
from thirringsim.pauli import PauliString, to_matrix

from helpers import random_string

G2_GRIDS = {
    model.EUCLIDEAN: [round(0.1 * i, 12) for i in range(31)],
    model.MINKOWSKI: [round(0.2 * i, 12) for i in range(26)],
}


def low_temperature_curves(variant):
    """Exact T=0.01 observable curves over the variant's coupling grid."""
    grid = G2_GRIDS[variant]
    rows = oracle.figure1_sweep(variant, [0.01], grid)
    fermion = [r["value"] for r in rows if r["observable"] == model.FERMION_NUMBER]
    chiral = [r["value"] for r in rows if r["observable"] == model.CHIRAL_CONDENSATE]
    return grid, fermion, chiral


def test_a1_algebra_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    pairs = [
        (PauliString((a,)), PauliString((b,)))
        for a in range(4)
        for b in range(4)
    ]
    for n in (2, 3, 4, 5):
        for _ in range(250):
            pairs.append((random_string(n, rng), random_string(n, rng)))
    assert len(pairs) >= 1016
    for p1, p2 in pairs:
        n = p1.n_sites
        m1, m2 = to_matrix(p1), to_matrix(p2)
        product = m1 @ m2
        ph = pauli.multiply(p1, p2)
        assert np.array_equal(ph.phase * to_matrix(ph.string), product)
        got_sym = to_matrix(pauli.sym_transpose_product(p1, p2), n_sites=n)
        assert np.array_equal(got_sym, product + product.T)
        got_com = to_matrix(pauli.minus_i_commutator(p1, p2), n_sites=n)
        assert np.array_equal(got_com, -1j * (product - m2 @ m1))
        state = sv.random_real_state(n, rng)
        amps = state.amplitudes
        want_sym = np.vdot(amps, (product + product.T) @ amps)
        have_sym = sv.expectation(state, pauli.sym_transpose_product(p1, p2))
        assert abs(want_sym - have_sym) < 1e-12
        want_com = np.vdot(amps, (-1j) * (product - m2 @ m1) @ amps)
        have_com = sv.expectation(state, pauli.minus_i_commutator(p1, p2))
        assert abs(want_com - have_com) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 30
    print(f"A1 PASS: {len(pairs)} pairs exact vs dense matrices in {elapsed:.1f}s")


def test_a2_infinite_temperature_limits():
    pool = qite.OperatorPool.odd_y(4)
    observables = model.default_observables(4)
    worst = 0.0
    for g2 in (0.0, 1.0, 3.0):
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, g2)).hamiltonian
        chiral_ed = oracle.thermal_expectation(ham, observables[model.CHIRAL_CONDENSATE], 1e-6)
        fermion_ed = oracle.thermal_expectation(ham, observables[model.FERMION_NUMBER], 1e-6)
        assert chiral_ed == pytest.approx(0.0, abs=0.01)
        assert fermion_ed == pytest.approx(2.0, abs=0.01)
        table = thermal.qmetts_average(ham, observables, 1e-3, 1, pool)
        chiral_q = table.value(model.CHIRAL_CONDENSATE, 1)
        fermion_q = table.value(model.FERMION_NUMBER, 1)
        assert chiral_q == pytest.approx(0.0, abs=0.01)
        assert fermion_q == pytest.approx(2.0, abs=0.01)
        worst = max(worst, abs(chiral_q), abs(fermion_q - 2.0), abs(chiral_ed), abs(fermion_ed - 2.0))
    print(f"A2 PASS: infinite-temperature limits within {worst:.2e} of trace values")


def test_a3_low_temperature_reproduction():
    start = time.time()
    pool = qite.OperatorPool.odd_y(4)
    observables = model.default_observables(4)
    worst = 0.0
    worst_at = None
    compared = 0
    excluded = 0
    for variant in (model.EUCLIDEAN, model.MINKOWSKI):
        grid, fermion_curve, _ = low_temperature_curves(variant)
        steps = oracle.find_plateau_steps(grid, fermion_curve)
        for g2 in grid:
            ham = model.assemble(model.ModelParams(variant, 4, 0.5, g2)).hamiltonian
            table = thermal.qmetts_average(
                ham, observables, 0.25, 20, pool,
                trotter_steps=10, threshold=0.001, c_mode=qite.C_EXACT_NORM,
            )
            if not oracle.away_from_steps(g2, steps):
                excluded += 1
                continue
            compared += 1
            for name, op in observables.items():
                deviation = abs(table.value(name, 20) - oracle.thermal_expectation(ham, op, 10.0))
                if deviation > worst:
                    worst, worst_at = deviation, (variant, g2, name)
                assert deviation <= 0.05, f"{variant} g2={g2} {name}: {deviation:.4f}"
    elapsed = time.time() - start
    assert elapsed < 600
    print(
        f"A3 PASS: {compared} grid points ({excluded} near plateau steps excluded), "
        f"max |deviation| {worst:.4f} at {worst_at}, {elapsed:.0f}s"
    )


def test_a4_topological_quantization():
    worst = 0.0
    checked = 0
    for variant in (model.EUCLIDEAN, model.MINKOWSKI):
        grid, fermion_curve, _ = low_temperature_curves(variant)
        steps = oracle.find_plateau_steps(grid, fermion_curve)
        assert steps, f"{variant}: no plateau steps detected"
        for g2, value in zip(grid, fermion_curve):
            if not oracle.away_from_steps(g2, steps):
                continue
            checked += 1
            distance = abs(value - round(value))
            worst = max(worst, distance)
            assert distance < 1e-3, f"{variant} g2={g2}: {value}"
    print(f"A4 PASS: fermion number within {worst:.2e} of integers at {checked} points")


def plateau_segments(grid, chiral_curve, steps):
    boundaries = [grid[0]] + [hi for _, hi in steps] + [grid[-1] + 1]
    for lo, hi in zip(boundaries, boundaries[1:]):
        segment = [
            c for g2, c in zip(grid, chiral_curve)
            if lo <= g2 < hi and oracle.away_from_steps(g2, steps)
        ]
        if len(segment) >= 2:
            yield (lo, hi), max(segment) - min(segment)


def test_a5_chiral_plateaus():
    # Exact flatness is a property of sectors on which the ZZ ring acts
    # trivially: every Minkowski plateau (the rings cancel in aH_M) and the
    # Euclidean fermion-3/4 plateaus.  On the Euclidean fermion-2 plateau the
    # -g^2/8 ZZ term deforms the ground state inside the sector, so the exact
    # curve itself drifts; its measured spread is frozen as a regression bound.
    grid, fermion_curve, chiral_curve = low_temperature_curves(model.MINKOWSKI)
    steps = oracle.find_plateau_steps(grid, fermion_curve)
    flat = list(plateau_segments(grid, chiral_curve, steps))
    assert len(flat) >= 3
    worst = max(spread for _, spread in flat)
    for bounds, spread in flat:
        assert spread < 1e-3, f"minkowski plateau {bounds}: spread {spread:.2e}"

    grid_e, fermion_e, chiral_e = low_temperature_curves(model.EUCLIDEAN)
    steps_e = oracle.find_plateau_steps(grid_e, fermion_e)
    segments_e = list(plateau_segments(grid_e, chiral_e, steps_e))
    assert len(segments_e) == 3
    drift_first, *rest = [spread for _, spread in segments_e]
    for spread in rest:
        assert spread < 1e-3
    assert drift_first < 0.06  # frozen: intra-sector deformation, 5% of the gap
    print(
        f"A5 PASS: {len(flat)} Minkowski plateaus flat within {worst:.2e}; "
        f"Euclidean plateaus flat except the fermion-2 sector "
        f"(exact intra-sector drift {drift_first:.3f})"
    )


def test_a6_duality():
    worst_shift = 0.0
    for g2 in (0.4, 1.0, 2.2, 3.6, 5.0):
        ham_m = model.assemble(model.ModelParams(model.MINKOWSKI, 4, 0.5, g2)).hamiltonian
        ham_gn = model.assemble(
            model.ModelParams(model.GROSS_NEVEU, 4, 0.5, 0.0, a_mu=g2 / 2)
        ).hamiltonian
        difference = ham_m - ham_gn
        assert set(difference.terms) <= {0}, f"non-identity residual at g2={g2}"
        vals_m = oracle.spectral(ham_m).eigenvalues
        vals_gn = oracle.spectral(ham_gn).eigenvalues
        shift = float(np.mean(vals_m - vals_gn))
        mismatch = float(np.max(np.abs(vals_m - vals_gn - shift)))
        worst_shift = max(worst_shift, mismatch)
        assert mismatch < 1e-10
    print(f"A6 PASS: duality exact on terms, spectra shift-aligned within {worst_shift:.2e}")


def test_a7_single_step_convergence():
    rng = np.random.default_rng(107)
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
    pool = qite.OperatorPool.odd_y(4)
    dbetas = [0.2, 0.1, 0.05, 0.025]
    exponents = []
    for _ in range(5):
        state = sv.random_real_state(4, rng)
        infidelities = []
        for dbeta in dbetas:
            stepped, _ = qite.step(state, ham, dbeta, pool, trotter_steps=50, threshold=0.0)
            exact, _ = oracle.exact_imaginary_time_state(ham, state, dbeta)
            fid = abs(np.vdot(stepped.amplitudes, exact.amplitudes)) ** 2
            infidelities.append(max(1.0 - fid, 1e-16))
        slope = float(np.polyfit(np.log(dbetas), np.log(infidelities), 1)[0])
        exponents.append(slope)
        assert slope >= 1.9, f"fitted exponent {slope:.2f}"
    print(f"A7 PASS: infidelity exponents {[f'{e:.2f}' for e in exponents]} (all >= 1.9)")


def test_a8_shot_statistics(tmp_path):
    g2 = 1.0
    n_steps = 6
    shots = 1024
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, g2)).hamiltonian
    pool = qite.OperatorPool.odd_y(4)
    observables = model.default_observables(4)

    # the evolution does not depend on the sampling seed: evolve the 16
    # trajectories once, predict the spread from the single-shot variances
    # propagated through the weighted average, then measure them per seed
    trajectories = qite.Trajectories.concatenate(
        [qite.run_trajectory(i, ham, 0.25, n_steps, pool) for i in range(16)]
    )
    predicted = {}
    for name, op in observables.items():
        for k in range(1, n_steps + 1):
            w = trajectories.weights[:, k - 1]
            states = [sv.QuantumState(4, row) for row in trajectories.states[:, k - 1]]
            v = np.array([sv.exact_diagonal_variance(state, op) for state in states])
            predicted[(name, k)] = float(np.sqrt(np.dot(w**2, v / shots)) / np.sum(w))

    n_seeds = 50
    values = {key: [] for key in predicted}
    for seed in range(n_seeds):
        measured = qite.measure(
            trajectories, observables, mode=qite.MODE_SHOTS, shots=shots, seed=seed
        )
        table = thermal.aggregate(measured, 0.25)
        if seed == 0:
            assert table == thermal.qmetts_average(
                ham, observables, 0.25, n_steps, pool, mode=qite.MODE_SHOTS, shots=shots, seed=seed,
            )
        for (name, k) in values:
            values[(name, k)].append(table.value(name, k))

    ratios = []
    for key, series in values.items():
        sigma_pred = predicted[key]
        if sigma_pred < 1e-4:
            continue  # plateau-frozen points have no spread to compare
        ratio = float(np.std(series, ddof=1)) / sigma_pred
        ratios.append(ratio)
        assert 1 / 1.3 <= ratio <= 1.3, f"{key}: spread ratio {ratio:.3f}"
    assert len(ratios) >= 6

    # fixed seed reproduces byte-identical sweep files
    out = tmp_path / "shots.csv"
    cfg = cli.RunConfig(
        variant=model.EUCLIDEAN, g2_start=g2, g2_stop=g2, g2_step=0.1,
        n_steps=3, mode=qite.MODE_SHOTS, shots=shots, seed=12, output=str(out),
    ).resolved()
    cli.cmd_sweep(cfg)
    first = out.read_bytes()
    cli.cmd_sweep(cfg)
    assert out.read_bytes() == first
    print(
        f"A8 PASS: {len(ratios)} spread ratios within x1.3 of binomial prediction "
        f"(range {min(ratios):.2f}..{max(ratios):.2f}); fixed-seed reruns byte-identical"
    )
