"""Exact-diagonalization reference values and spectral utilities."""
import numpy as np
import pytest

from thirringsim import model, oracle, pauli
from thirringsim import statevector as sv
from thirringsim.pauli import PauliSum


@pytest.fixture(scope="module")
def euclid():
    return model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.5)).hamiltonian


class TestThermalExpectation:
    def test_infinite_temperature_is_normalized_trace(self, euclid):
        fn = model.observable_fermion_number(4)
        assert oracle.thermal_expectation(euclid, fn, 0.0) == pytest.approx(2.0)
        chiral = model.observable_chiral(4)
        assert oracle.thermal_expectation(euclid, chiral, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_temperature_limit_is_ground_state(self, euclid):
        fn = model.observable_fermion_number(4)
        sd = oracle.spectral(euclid)
        ground = sv.QuantumState(4, sd.eigenvectors[:, 0].astype(complex))
        want = sv.expectation(ground, fn).real
        assert oracle.thermal_expectation(euclid, fn, 1000.0) == pytest.approx(want, abs=1e-9)

    def test_low_temperature_fermion_number_is_near_integer(self, euclid):
        fn = model.observable_fermion_number(4)
        value = oracle.thermal_expectation(euclid, fn, 100.0)
        assert abs(value - round(value)) < 1e-3

    def test_identity_shift_invariance_is_exact(self, euclid):
        fn = model.observable_fermion_number(4)
        shifted = euclid + PauliSum(4, {0: 3.7})
        for beta in (0.0, 1.0, 100.0):
            assert oracle.thermal_expectation(shifted, fn, beta) == oracle.thermal_expectation(
                euclid, fn, beta
            )

    def test_negative_beta_rejected(self, euclid):
        with pytest.raises(ValueError):
            oracle.thermal_expectation(euclid, model.build_h2(4), -1.0)

    def test_huge_beta_does_not_overflow(self, euclid):
        value = oracle.thermal_expectation(euclid, model.build_h2(4), 1e6)
        assert np.isfinite(value)

    def test_grid_matches_pointwise_evaluation(self, euclid):
        obs = model.default_observables(4)
        betas = [0.5, 2.0, 10.0]
        grid = oracle.thermal_expectation_grid(euclid, obs, betas)
        for name, op in obs.items():
            for i, beta in enumerate(betas):
                assert grid[name][i] == pytest.approx(
                    oracle.thermal_expectation(euclid, op, beta), abs=1e-12
                )


class TestSpectral:
    def test_reconstruction_and_orthonormality(self, euclid):
        sd = oracle.spectral(euclid)
        h = oracle.dense_real(euclid)
        recon = sd.eigenvectors @ np.diag(sd.eigenvalues) @ sd.eigenvectors.T
        assert np.max(np.abs(h - recon)) < 1e-10
        assert np.max(np.abs(sd.eigenvectors.T @ sd.eigenvectors - np.eye(16))) < 1e-12
        assert np.all(np.diff(sd.eigenvalues) >= 0)

    def test_non_symmetric_operator_rejected(self):
        with pytest.raises(ValueError):
            oracle.dense_real(PauliSum(2, {pauli.pack((2, 0)): 1.0}))  # lone Y is imaginary

    def test_variants_agree_at_zero_coupling(self):
        e = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 0.0)).hamiltonian
        m = model.assemble(model.ModelParams(model.MINKOWSKI, 4, 0.5, 0.0)).hamiltonian
        fn = model.observable_fermion_number(4)
        for t in (0.05, 0.2, 1.0):
            assert oracle.thermal_expectation(e, fn, 1 / t) == oracle.thermal_expectation(
                m, fn, 1 / t
            )


class TestImaginaryTimeState:
    def test_zero_step_is_identity(self, euclid):
        rng = np.random.default_rng(0)
        state = sv.random_real_state(4, rng)
        evolved, c = oracle.exact_imaginary_time_state(euclid, state, 0.0)
        assert c == pytest.approx(1.0)
        assert np.max(np.abs(evolved.amplitudes - state.amplitudes)) < 1e-12

    def test_eigenstate_weight(self, euclid):
        sd = oracle.spectral(euclid)
        state = sv.QuantumState(4, sd.eigenvectors[:, 3].astype(complex))
        evolved, c = oracle.exact_imaginary_time_state(euclid, state, 0.25)
        assert c == pytest.approx(np.exp(-2 * 0.25 * sd.eigenvalues[3]))
        assert abs(np.vdot(evolved.amplitudes, state.amplitudes)) ** 2 > 1 - 1e-12

    def test_matches_taylor_series(self, euclid):
        rng = np.random.default_rng(1)
        state = sv.random_real_state(4, rng)
        dbeta = 0.25
        h = oracle.dense_real(euclid)
        series = np.zeros_like(state.amplitudes)
        term = state.amplitudes.copy()
        for order in range(60):
            series = series + term
            term = (-dbeta) * (h @ term) / (order + 1)
        c_want = float(np.vdot(series, series).real)
        evolved, c = oracle.exact_imaginary_time_state(euclid, state, dbeta)
        assert c == pytest.approx(c_want, rel=1e-10)
        assert np.max(np.abs(evolved.amplitudes - series / np.sqrt(c_want))) < 1e-10


class TestSweepAndSteps:
    def test_full_grid_sweep_bounds(self):
        # the whole default grid: T = 0.01..1.0 in 100 steps, g2 = 0..3
        t_grid = [round(0.01 * i, 12) for i in range(1, 101)]
        g2_grid = [round(0.1 * i, 12) for i in range(31)]
        rows = oracle.figure1_sweep(model.EUCLIDEAN, t_grid, g2_grid)
        assert len(rows) == len(t_grid) * len(g2_grid) * 2
        for row in rows:
            assert np.isfinite(row["value"])
            if row["observable"] == model.FERMION_NUMBER:
                assert -1e-9 <= row["value"] <= 4 + 1e-9

    def test_high_temperature_approach_to_trace(self):
        # at T = 1/a the strong-coupling points are still far from the trace
        # limit (beta*dE ~ 3), so "near 2" only holds in the true beta -> 0
        # regime; the approach itself is monotone in T at every coupling
        g2_grid = [0.0, 1.5, 3.0]
        rows = oracle.figure1_sweep(model.EUCLIDEAN, [0.1, 1.0, 1000.0], g2_grid)
        fn = {
            (row["g2"], row["T"]): row["value"]
            for row in rows
            if row["observable"] == model.FERMION_NUMBER
        }
        for g2 in g2_grid:
            assert fn[(g2, 1000.0)] == pytest.approx(2.0, abs=0.01)
            assert abs(fn[(g2, 1.0)] - 2.0) <= abs(fn[(g2, 0.1)] - 2.0) + 1e-12

    def test_plateau_step_detection(self):
        g2 = [0.0, 0.1, 0.2, 0.3, 0.4]
        values = [2.0, 2.0, 3.0, 3.0, 3.0]
        assert oracle.find_plateau_steps(g2, values) == [(0.1, 0.2)]
        assert oracle.find_plateau_steps(g2, [2.0] * 5) == []

    def test_away_from_steps_margins(self):
        steps = [(1.0, 1.2)]
        assert oracle.away_from_steps(0.8, steps)
        assert not oracle.away_from_steps(0.9, steps)
        assert not oracle.away_from_steps(1.1, steps)
        assert oracle.away_from_steps(1.4, steps)

    def test_plateau_steps_on_a_default_grid_are_its_step_intervals(self):
        # spacing <= 0.2 halves nothing: compare's windows stay the grid-level ones,
        # and the Minkowski (4.0, 4.2), 0.2000000000000002 wide, is not halved
        grids = {model.EUCLIDEAN: (31, 0.1, [(0.6, 0.7), (2.0, 2.1)]),
                 model.MINKOWSKI: (26, 0.2, [(0.8, 1.0), (1.0, 1.2), (4.0, 4.2)])}
        for variant, (n, spacing, want) in grids.items():
            grid = [round(spacing * i, 12) for i in range(n)]
            low = oracle.figure1_sweep(variant, [oracle.LOW_TEMPERATURE], grid)
            fermion = [r["value"] for r in low if r["observable"] == model.FERMION_NUMBER]
            assert oracle.find_plateau_steps(grid, fermion) == want
            assert oracle.plateau_steps(variant, grid) == want

    def test_plateau_steps_halve_a_coarse_interval_three_times(self, monkeypatch):
        # 0.9 -> 0.45 -> 0.225 -> 0.1125: one fermion-number evaluation per halving
        calls = []
        real = oracle.thermal_expectation
        monkeypatch.setattr(oracle, "thermal_expectation", lambda *a: calls.append(a) or real(*a))
        steps = oracle.plateau_steps(model.EUCLIDEAN, [0.3, 1.2, 2.1])
        assert steps == [(0.525, 0.6375), (1.9875, 2.1)]
        assert len(calls) == 3 + 2 * 3
        assert all(obs == model.observable_fermion_number(4) for _, obs, _ in calls)

    def test_plateau_steps_find_both_steps_in_one_interval(self):
        # n = 2 at g2 = 0 and n = 4 at g2 = 3; the upper crossing (g2 ~ 2.062)
        # lies by the midpoint 2.0625, so both halves there jump and it shows as
        # two adjacent intervals, as a crossing on a grid point does
        steps = oracle.plateau_steps(model.EUCLIDEAN, [0.0, 3.0])
        assert steps == [(0.5625, 0.75), (1.875, 2.0625), (2.0625, 2.25)]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            oracle.figure1_sweep(model.EUCLIDEAN, [], [1.0])
