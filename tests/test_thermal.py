"""Weighted thermal averaging over trajectory sets."""
from dataclasses import replace

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
        table = thermal.average_over_states([sv.basis_state(0, 4)], ham, obs, 0.25, 4, pool4)
        traj = qite.measure(qite.run_trajectory(0, ham, 0.25, 4, pool4), obs)
        for name in obs:
            for k in range(1, 5):
                assert table.value(name, k) == pytest.approx(traj.observables[name][0, k - 1])

    def test_row_shape_and_grid(self, setup, pool4):
        ham, obs = setup
        table = thermal.qmetts_average(ham, obs, 0.25, 6, pool4)
        assert len(table.rows) == 6 * len(obs)
        chiral = [row for row in table.rows if row.observable == model.CHIRAL_CONDENSATE]
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
        # harshest default-mode run: basis-state energies up to +5
        ham = model.assemble(model.ModelParams(model.MINKOWSKI, 4, 0.5, 5.0)).hamiltonian
        obs = model.default_observables(4)
        table = thermal.qmetts_average(ham, obs, 0.25, 20, pool4)
        assert all(row.weight_sum > 0 and np.isfinite(row.value) for row in table.rows)


def basis_batch(ham, pool, labels, n_steps):
    return qite.Trajectories.concatenate(
        [qite.run_trajectory(i, ham, 0.25, n_steps, pool) for i in labels]
    )


class TestAggregate:
    def test_remeasured_trajectories_equal_the_averaging_functions(self, setup, pool4):
        ham, obs = setup
        trajectories = basis_batch(ham, pool4, range(16), 3)
        # the basis trace's one batch of step_rows gives each state's trajectory bit for bit
        amps, rows, records = np.eye(16), [], []
        for _ in range(3):
            amps, record = qite.step_rows(amps, ham, 0.25, pool4, qite.DEFAULT_TROTTER_STEPS,
                                          qite.DEFAULT_THRESHOLD, qite.C_EXPONENTIAL)
            rows.append(amps)
            records.append(record)
        batch = qite.Trajectories.from_steps(range(16), rows, records)
        for name in ("labels", "states", "weights", "energy", "kept_terms"):
            assert np.array_equal(getattr(batch, name), getattr(trajectories, name)), name
        assert batch.states.shape == (16, 3, 16) and batch.weights.shape == (16, 3)
        assert thermal.aggregate(qite.measure(trajectories, obs), 0.25) == thermal.qmetts_average(
            ham, obs, 0.25, 3, pool4
        )
        shots = dict(mode=qite.MODE_SHOTS, shots=64, seed=4)
        remeasured = qite.measure(basis_batch(ham, pool4, (0, 1), 3), obs, **shots)
        # average_over_states labels its states 0, 1, ..., as basis states 0 and 1 are
        states = [sv.basis_state(i, 4) for i in (0, 1)]
        assert thermal.aggregate(
            remeasured, 0.25, stderr_from_spread=True
        ) == thermal.average_over_states(states, ham, obs, 0.25, 3, pool4, **shots)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weight_sum_rejected(self, setup, pool4, bad):
        ham, obs = setup
        trajectories = qite.measure(basis_batch(ham, pool4, (0, 5), 2), obs)
        trajectories.weights[1, 1] = bad
        message = (f"weight sum {bad} at k=2 for {model.CHIRAL_CONDENSATE!r} is not finite "
                   r"and positive; per-state weights range \[")
        with pytest.raises(RuntimeError, match=message):
            thermal.aggregate(trajectories, 0.25)

    def test_empty_trajectory_list_rejected(self, setup, pool4):
        trajectories = qite.measure(basis_batch(setup[0], pool4, (0,), 2), setup[1])
        with pytest.raises(ValueError, match="at least one trajectory"):
            thermal.aggregate(replace(trajectories, weights=trajectories.weights[:0]), 0.25)
        with pytest.raises(ValueError, match="at least one initial state"):
            thermal.average_over_states([], *setup, 0.25, 2, pool4)


class TestBatchLayout:
    """One measurement and one reduction per batch, each bitwise the per-row, per-k reference."""

    @pytest.fixture(scope="class")
    def batch(self):
        # random weights, so a reduction over strided columns rounds differently in about half
        # the (observable, k) cells
        rng = np.random.default_rng(37)
        states = rng.standard_normal((16, 20, 16))
        states /= np.linalg.norm(states, axis=2, keepdims=True)
        weights = rng.uniform(0.5, 2.0, (16, 20))
        return qite.Trajectories(np.arange(3, 19), states, weights, np.zeros((16, 20)),
                                 np.zeros((16, 20), dtype=int))

    def test_batched_measure_is_each_row_measured_alone(self, setup, batch):
        obs = setup[1]
        exact = qite.measure(batch, obs)
        shots = qite.measure(batch, obs, mode=qite.MODE_SHOTS, shots=50, seed=2)
        for b, label in enumerate(batch.labels.tolist()):
            # trajectory b's K states, drawn alone from one generator seeded (seed, label)
            draws = sv.sample_rows(batch.states[b], 50, (2, label))
            for k, row in enumerate(batch.states[b], start=1):
                state = sv.QuantumState(4, row)
                counts = sv.ShotCounts(50, draws[k - 1], seed=2)
                for name, op in obs.items():
                    assert exact.observables[name][b, k - 1] == sv.expectation(state, op).real
                    assert shots.observables[name][b, k - 1] == sv.estimate_diagonal(counts, op)
                    assert shots.observable_variances[name][b, k - 1] == (
                        sv.estimate_diagonal_variance(counts, op)
                    )

    @pytest.mark.parametrize("mode, spread", [
        (qite.MODE_EXACT, False), (qite.MODE_EXACT, True), (qite.MODE_SHOTS, True),
    ])
    def test_aggregate_is_the_per_k_reduction(self, setup, batch, mode, spread):
        measured = qite.measure(batch, setup[1], mode=mode, shots=50, seed=2)
        table = thermal.aggregate(measured, 0.25, stderr_from_spread=spread)
        for row in table.rows:
            w = batch.weights[:, row.k - 1].copy()
            v = measured.observables[row.observable][:, row.k - 1].copy()
            value = float(np.dot(w, v) / np.sum(w))
            assert (row.weight_sum, row.value) == (float(np.sum(w)), value)
            if mode == qite.MODE_SHOTS:
                var = measured.observable_variances[row.observable][:, row.k - 1].copy()
                assert row.stderr == float(np.sqrt(np.dot(w**2, var)) / np.sum(w))
            elif spread:
                residuals = w * v - value * w
                assert row.stderr == float(np.sqrt(16 / 15 * np.sum(residuals**2)) / np.sum(w))
            else:
                assert row.stderr is None


@pytest.mark.parametrize("call", [
    lambda ham, obs, pool: thermal.qmetts_average(ham, obs, 0.25, 1, pool, qite.MODE_SHOTS, 64),
    lambda ham, obs, pool: thermal.average_over_states(
        [sv.basis_state(0, 4)], ham, obs, 0.25, 1, pool, qite.MODE_SHOTS, 64),
    lambda ham, obs, pool: thermal.stochastic_trace_average(
        ham, obs, 1, 0.25, 1, pool, qite.MODE_SHOTS, 3),
    lambda ham, obs, pool: qite.measure(qite.run_trajectory(0, ham, 0.25, 1, pool), obs,
                                        qite.MODE_SHOTS),
    lambda ham, obs, pool: qite.run_trajectory(0, ham, 0.25, 1, pool, 10),
])
def test_options_after_the_pool_are_keyword_only(setup, pool4, call):
    # stochastic_trace_average orders seed before shots, the others shots before seed
    with pytest.raises(TypeError, match="positional argument"):
        call(*setup, pool4)


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
