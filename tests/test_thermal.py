"""Weighted thermal averaging over trajectory sets."""
import numpy as np
import pytest

from thirringsim import model, oracle, qite, thermal
from thirringsim import statevector as sv


@pytest.fixture(scope="module")
def pool4():
    return qite.OperatorPool.odd_y(4)


@pytest.fixture(scope="module")
def setup():
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
    return ham, model.default_observables(4)


class TestQmettsAverage:
    def test_infinite_temperature_limits(self, setup, pool4):
        ham, obs = setup
        table = thermal.qmetts_average(ham, obs, 1e-3, 1, pool4)
        assert table.value(model.CHIRAL_CONDENSATE, 1) == pytest.approx(0.0, abs=0.01)
        assert table.value(model.FERMION_NUMBER, 1) == pytest.approx(2.0, abs=0.01)

    def test_single_state_set_reduces_to_trajectory(self, setup, pool4):
        ham, obs = setup
        table = thermal.qmetts_average(ham, obs, 0.25, 4, pool4, basis_indices=[0])
        traj = qite.run_trajectory(0, ham, 0.25, 4, obs, pool4)
        for name in obs:
            for k in range(1, 5):
                assert table.value(name, k) == pytest.approx(traj.observables[name][k - 1])

    def test_row_shape_and_grid(self, setup, pool4):
        ham, obs = setup
        table = thermal.qmetts_average(ham, obs, 0.25, 6, pool4)
        assert len(table.rows) == 6 * len(obs)
        chiral = table.series(model.CHIRAL_CONDENSATE)
        betas = [row.beta for row in chiral]
        assert betas == sorted(betas)
        assert chiral[0].beta == pytest.approx(0.5)
        assert chiral[0].temperature == pytest.approx(2.0)
        assert all(row.n_states == 16 for row in table.rows)

    def test_weights_positive_in_exponential_mode(self, setup, pool4):
        ham, obs = setup
        table = thermal.qmetts_average(ham, obs, 0.25, 8, pool4)
        assert all(row.weight_sum > 0 for row in table.rows)

    def test_matches_oracle_at_low_temperature(self, setup, pool4):
        ham, obs = setup
        table = thermal.qmetts_average(ham, obs, 0.25, 20, pool4)
        for name, op in obs.items():
            exact = oracle.thermal_expectation(ham, op, 10.0)
            assert table.value(name, 20) == pytest.approx(exact, abs=0.05)

    def test_full_setup_strongest_coupling_completes(self, pool4):
        # harshest default-mode run: basis-state energies up to +5, where the
        # linear weight would go negative at the first step
        ham = model.assemble(model.ModelParams(model.MINKOWSKI, 4, 0.5, 5.0)).hamiltonian
        obs = model.default_observables(4)
        with pytest.raises(qite.NonPositiveWeightError):
            thermal.qmetts_average(ham, obs, 0.25, 20, pool4, c_mode=qite.C_LINEAR)
        table = thermal.qmetts_average(ham, obs, 0.25, 20, pool4)
        assert all(row.weight_sum > 0 and np.isfinite(row.value) for row in table.rows)

    def test_empty_basis_rejected(self, setup, pool4):
        ham, obs = setup
        with pytest.raises(ValueError):
            thermal.qmetts_average(ham, obs, 0.25, 2, pool4, basis_indices=[])

    @pytest.mark.parametrize("bad", [-1, 16])
    def test_out_of_range_basis_index_rejected(self, setup, pool4, bad):
        # a basis row picked by plain indexing would silently wrap -1 to 15
        ham, obs = setup
        with pytest.raises(ValueError, match=f"basis index {bad} out of range"):
            thermal.qmetts_average(ham, obs, 0.25, 2, pool4, basis_indices=[0, bad])


class TestAggregate:
    def test_remeasured_trajectories_equal_the_averaging_functions(self, setup, pool4):
        ham, obs = setup
        trajectories = [qite.run_trajectory(i, ham, 0.25, 3, obs, pool4) for i in range(16)]
        assert thermal.aggregate(trajectories, obs, 0.25) == thermal.qmetts_average(
            ham, obs, 0.25, 3, pool4
        )
        shots = dict(mode=qite.MODE_SHOTS, shots=64, seed=4)
        remeasured = [qite.measure(t, obs, **shots) for t in trajectories[:2]]
        # average_over_states labels its states 0, 1, ..., as basis states 0 and 1 are
        states = [sv.basis_state(i, 4) for i in (0, 1)]
        assert thermal.aggregate(
            remeasured, obs, 0.25, stderr_from_spread=True, propagate_shot_errors=True
        ) == thermal.average_over_states(states, ham, obs, 0.25, 3, pool4, **shots)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weight_sum_rejected(self, setup, pool4, bad):
        ham, obs = setup
        trajectories = [qite.run_trajectory(i, ham, 0.25, 2, obs, pool4) for i in (0, 5)]
        trajectories[1].cumulative_weights[1] = bad
        message = f"weight sum {bad} at k=2 for {model.CHIRAL_CONDENSATE!r} is not finite"
        with pytest.raises(RuntimeError, match=message):
            thermal.aggregate(trajectories, obs, 0.25)

    def test_empty_trajectory_list_rejected(self, setup):
        with pytest.raises(ValueError, match="at least one trajectory"):
            thermal.aggregate([], setup[1], 0.25)


class TestExplicitStates:
    def test_complete_orthonormal_set_is_basis_independent(self, setup, pool4):
        # the trace identity is exact only in the converged small-step limit;
        # the evolution itself carries an O(dbeta^2) basis dependence
        ham, obs = setup
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        states = [sv.QuantumState(4, q[:, i].astype(complex)) for i in range(16)]
        dbeta = 1e-5
        rotated = thermal.average_over_states(
            states, ham, obs, dbeta, 2, pool4, stderr_from_spread=False
        )
        basis = thermal.qmetts_average(ham, obs, dbeta, 2, pool4)
        for name in obs:
            for k in (1, 2):
                assert rotated.value(name, k) == pytest.approx(basis.value(name, k), abs=1e-9)

    def test_basis_dependence_shrinks_quadratically_with_step(self, setup, pool4):
        ham, obs = setup
        rng = np.random.default_rng(22)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        states = [sv.QuantumState(4, q[:, i].astype(complex)) for i in range(16)]
        deviations = []
        for dbeta in (1e-2, 1e-3):
            rotated = thermal.average_over_states(
                states, ham, obs, dbeta, 2, pool4, stderr_from_spread=False
            )
            basis = thermal.qmetts_average(ham, obs, dbeta, 2, pool4)
            deviations.append(
                max(abs(rotated.value(n, k) - basis.value(n, k)) for n in obs for k in (1, 2))
            )
        assert deviations[1] < deviations[0] / 50


class TestStochasticTrace:
    def test_eight_states_within_three_standard_errors(self, setup, pool4):
        # frozen seed; the reported error must cover the spread of the ratio
        # estimator (the deterministic run makes this stable forever)
        ham, obs = setup
        table = thermal.stochastic_trace_average(ham, obs, 8, 0.25, 20, pool4, seed=6)
        basis = thermal.qmetts_average(ham, obs, 0.25, 20, pool4)
        for row in table.rows:
            assert row.stderr is not None and row.stderr > 0
            want = basis.value(row.observable, row.k)
            assert abs(row.value - want) <= 3 * row.stderr

    def test_single_state_finite(self, setup, pool4):
        ham, obs = setup
        table = thermal.stochastic_trace_average(ham, obs, 1, 0.25, 3, pool4, seed=1)
        assert all(np.isfinite(row.value) for row in table.rows)
        assert all(row.stderr is None for row in table.rows)

    def test_seed_controls_states(self, setup, pool4):
        ham, obs = setup
        a = thermal.stochastic_trace_average(ham, obs, 2, 0.25, 2, pool4, seed=3)
        b = thermal.stochastic_trace_average(ham, obs, 2, 0.25, 2, pool4, seed=3)
        c = thermal.stochastic_trace_average(ham, obs, 2, 0.25, 2, pool4, seed=4)
        assert [r.value for r in a.rows] == [r.value for r in b.rows]
        assert [r.value for r in a.rows] != [r.value for r in c.rows]
