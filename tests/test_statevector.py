"""Statevector operations against dense-matrix and sampling-statistics oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thirringsim import model, pauli
from thirringsim import statevector as sv
from thirringsim.pauli import PauliString, PauliSum, to_matrix

# chi-square critical value for 15 degrees of freedom at p = 0.001
CHI2_15_P001 = 37.6973


def random_state(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return sv.QuantumState(n, v / np.linalg.norm(v))


def dict_sample(state, shots, seed):
    """Reference: the shots as bitstring-keyed counts, site N-1 first."""
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    outcomes = np.random.default_rng(seed).choice(len(probs), size=shots, p=probs)
    values, counts = np.unique(outcomes, return_counts=True)
    return {format(int(v), f"0{state.n_sites}b"): int(c) for v, c in zip(values, counts)}


def dict_estimates(counts, shots, op):
    """Reference: (mean, plug-in variance / shots) summed outcome by outcome."""
    idx = np.arange(2**op.n_sites)
    eig = np.zeros(2**op.n_sites)
    for j, c in op.terms.items():
        term = np.ones(2**op.n_sites)
        for site, letter in enumerate(pauli.unpack(j, op.n_sites)):
            assert letter in (0, pauli.Z)
            if letter == pauli.Z:
                term = term * (1 - 2 * ((idx >> site) & 1))
        eig += c.real * term
    m1 = m2 = 0.0
    for bits, c in counts.items():
        v = eig[int(bits, 2)]
        m1 += c * v
        m2 += c * v * v
    m1 /= shots
    m2 /= shots
    return m1, max(m2 - m1 * m1, 0.0) / shots


class TestBasisState:
    def test_all_up(self):
        state = sv.basis_state(0, 4)
        assert state.amplitudes[0] == 1 and state.norm() == 1

    def test_all_down(self):
        state = sv.basis_state(15, 4)
        assert state.amplitudes[15] == 1

    def test_bit_convention(self):
        # index 5 = binary 0101: sites 0 and 2 flipped
        state = sv.basis_state(5, 4)
        z0 = sv.expectation(state, PauliString.single(4, 0, pauli.Z))
        z1 = sv.expectation(state, PauliString.single(4, 1, pauli.Z))
        z2 = sv.expectation(state, PauliString.single(4, 2, pauli.Z))
        assert (z0.real, z1.real, z2.real) == (-1.0, 1.0, -1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sv.basis_state(16, 4)


class TestApply:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(0)
        state = random_state(3, rng)
        out = sv.apply_string(state, PauliString.identity(3))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_x0_flips_lowest_bit(self):
        out = sv.apply_string(sv.basis_state(0, 4), PauliString.single(4, 0, pauli.X))
        assert out.amplitudes[1] == 1

    def test_random_strings_vs_dense(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 4):
            for _ in range(25):
                p = pauli.random_string(n, rng)
                state = random_state(n, rng)
                got = sv.apply_string(state, p).amplitudes
                want = to_matrix(p) @ state.amplitudes
                assert np.max(np.abs(got - want)) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            sv.apply_string(sv.basis_state(0, 2), PauliString.identity(3))


class TestRotation:
    def test_zero_angle(self):
        rng = np.random.default_rng(3)
        state = random_state(3, rng)
        out = sv.apply_rotation(state, pauli.random_string(3, rng), 0.0)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) == 0

    def test_eigenstate_global_phase(self):
        out = sv.apply_rotation(sv.basis_state(0, 1), PauliString.from_label("Z"), np.pi / 2)
        assert abs(out.amplitudes[0] - (-1j)) < 1e-15

    def test_vs_dense_exponential(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            p = pauli.random_string(n, rng)
            theta = float(rng.uniform(-3, 3))
            state = random_state(n, rng)
            got = sv.apply_rotation(state, p, theta).amplitudes
            u = np.cos(theta) * np.eye(2**n) - 1j * np.sin(theta) * to_matrix(p)
            assert np.max(np.abs(got - u @ state.amplitudes)) < 1e-12

    def test_composite_rotation_fidelity(self):
        rng = np.random.default_rng(5)
        n = 3
        init = random_state(n, rng)
        state = init
        u = np.eye(2**n, dtype=complex)
        for _ in range(12):
            p = pauli.random_string(n, rng)
            theta = float(rng.uniform(-1, 1))
            state = sv.apply_rotation(state, p, theta)
            u = (np.cos(theta) * np.eye(2**n) - 1j * np.sin(theta) * to_matrix(p)) @ u
        fidelity = abs(np.vdot(state.amplitudes, u @ init.amplitudes)) ** 2
        assert fidelity > 1 - 1e-12

    def test_non_finite_angle(self):
        with pytest.raises(ValueError):
            sv.apply_rotation(sv.basis_state(0, 1), PauliString.from_label("X"), float("nan"))

    def test_norm_preserved_over_long_chains(self):
        rng = np.random.default_rng(6)
        phases = (1, -1, 1j, -1j)
        state = random_state(4, rng)
        for i in range(10_000):
            p = pauli.random_string(4, rng)
            if i % 3:
                state = sv.apply_rotation(state, p, float(rng.uniform(-1, 1)))
            else:
                state = sv.QuantumState(4, phases[i % 4] * sv.apply_string(state, p).amplitudes)
        assert abs(state.norm() - 1) < 1e-10

    def test_odd_y_rotation_keeps_real_states_real(self):
        rng = np.random.default_rng(7)
        state = sv.random_real_state(4, rng)
        for _ in range(200):
            p = pauli.random_string(4, rng)
            if p.y_count() % 2 == 0:
                continue
            state = sv.apply_rotation(state, p, float(rng.uniform(-1, 1)))
        assert state.max_imag() < 1e-10


class TestExpectation:
    def test_h2_on_all_up(self):
        assert sv.expectation(sv.basis_state(0, 4), model.build_h2(4)) == 0

    def test_h2_on_alternating(self):
        assert sv.expectation(sv.basis_state(5, 4), model.build_h2(4)).real == pytest.approx(2.0)

    def test_random_vs_dense_quadratic_form(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            state = random_state(n, rng)
            terms = {
                int(rng.integers(0, 4**n)): complex(rng.normal())
                for _ in range(5)
            }
            op = PauliSum(n, {j: c + np.conj(c) for j, c in terms.items()})
            got = sv.expectation(state, op)
            want = np.vdot(state.amplitudes, to_matrix(op, n_sites=n) @ state.amplitudes)
            assert abs(got - want) < 1e-12


class TestBatchedExpectation:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_dense(self, n, seed):
        rng = np.random.default_rng(seed)
        off_diagonal = [int(rng.integers(0, 4)) for _ in range(n)]
        off_diagonal[int(rng.integers(0, n))] = pauli.X
        terms = {pauli.pack(tuple(off_diagonal)): float(rng.normal())}
        for _ in range(5):
            terms[pauli.random_string(n, rng).packed_index] = float(rng.normal())
        op = PauliSum(n, terms)
        states = rng.standard_normal((int(rng.integers(1, 8)), 2**n))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        want = np.einsum("ki,ij,kj->k", states, to_matrix(op, n_sites=n), states)
        got = sv.expectation(states, op)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12
        assert abs(sv.expectation(sv.QuantumState(n, states[0]), op) - want[0]) < 1e-12

    def test_site_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="site counts"):
            sv.expectation(np.zeros((3, 8)), model.build_h2(4))


class TestSampling:
    def test_counts_and_estimates_match_bitstring_reference(self):
        rng = np.random.default_rng(21)
        ops = [*model.default_observables(4).values(), model.build_h2(4), model.build_h3(4)]
        for seed in range(5):
            state = sv.random_real_state(4, rng)
            shots = int(rng.integers(1, 2048))
            counts = sv.sample(state, shots, seed)
            reference = dict_sample(state, shots, seed)
            assert counts.counts.tolist() == [reference.get(f"{i:04b}", 0) for i in range(16)]
            for op in ops:
                mean, variance = dict_estimates(reference, shots, op)
                assert sv.estimate_diagonal(counts, op) == mean
                assert sv.estimate_diagonal_variance(counts, op) == variance

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        data=st.data(),
        shots=st.integers(1, 4096),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_draw_and_moments_match_one_row_at_a_time(self, n, data, shots, state_seed):
        k = data.draw(st.integers(1, 8))
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=k, max_size=k))
        basis = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        rng = np.random.default_rng(state_seed)
        states = rng.standard_normal((k, 2**n))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        for row, one_hot in zip(states, basis):
            if one_hot:  # zero probability on every other index
                row[:] = np.eye(2**n)[rng.integers(2**n)]
        counts = sv.sample_rows(states, shots, seeds)
        assert counts.shape == (k, 2**n)
        z_strings = [pauli.pack(tuple(pauli.Z if (m >> i) & 1 else 0 for i in range(n)))
                     for m in range(2**n)]
        chosen = rng.choice(z_strings, size=min(5, len(z_strings)), replace=False)
        op = PauliSum(n, {int(j): float(rng.standard_normal()) for j in chosen})
        means, variances = sv.diagonal_moments(counts, shots, op)
        for row, seed, got, mean, variance in zip(states, seeds, counts, means, variances):
            state = sv.QuantumState(n, row)
            one = sv.sample(state, shots, seed)
            reference = dict_sample(state, shots, seed)
            assert got.tolist() == one.counts.tolist()
            assert got.tolist() == [reference.get(format(i, f"0{n}b"), 0) for i in range(2**n)]
            assert mean == sv.estimate_diagonal(one, op)
            assert variance == sv.estimate_diagonal_variance(one, op)

    def test_batched_draw_rejects_what_choice_rejects(self):
        good = np.full((2, 4), 0.5)
        for bad_row in (np.array([np.nan, 1.0, 0.0, 0.0]), np.zeros(4), np.array([np.inf, 0, 0, 0])):
            with pytest.raises(ValueError, match="not finite"):
                sv.sample_rows(np.vstack([good, bad_row]), 16, [1, 2, 3])
        for shots in (0, -3):
            with pytest.raises(ValueError, match="shots must be positive"):
                sv.sample_rows(good, shots, [1, 2])
            with pytest.raises(ValueError, match="shots must be positive"):
                sv.sample(sv.basis_state(0, 2), shots, 1)

    def test_counts_must_add_up_to_shots(self):
        with pytest.raises(ValueError, match="add up"):
            sv.ShotCounts(10, np.array([3, 6]), seed=0)

    def test_basis_state_is_deterministic(self):
        counts = sv.sample(sv.basis_state(5, 4), shots=64, seed=1)
        assert counts.counts.tolist() == [64 if i == 0b0101 else 0 for i in range(16)]
        est = sv.estimate_diagonal(counts, model.build_h2(4))
        assert est == pytest.approx(2.0)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(9)
        state = sv.random_real_state(4, rng)
        a = sv.sample(state, shots=512, seed=7)
        b = sv.sample(state, shots=512, seed=7)
        c = sv.sample(state, shots=512, seed=8)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_uniform_superposition_z_mean(self):
        n = 4
        state = sv.QuantumState(n, np.full(2**n, 1 / 4, dtype=complex))
        counts = sv.sample(state, shots=40_000, seed=11)
        est = sv.estimate_diagonal(counts, PauliSum(n, {pauli.pack((3, 0, 0, 0)): 1.0}))
        assert abs(est) < 0.02

    def test_chi_square_goodness_of_fit(self):
        rng = np.random.default_rng(12)
        state = sv.random_real_state(4, rng)
        shots = 100_000
        counts = sv.sample(state, shots=shots, seed=13)
        probs = np.abs(state.amplitudes) ** 2
        chi2 = 0.0
        for i, p in enumerate(probs):
            observed = counts.counts[i]
            chi2 += (observed - shots * p) ** 2 / (shots * p)
        assert chi2 < CHI2_15_P001

    def test_non_diagonal_observable_rejected(self):
        counts = sv.sample(sv.basis_state(0, 2), shots=8, seed=0)
        with pytest.raises(ValueError):
            sv.estimate_diagonal(counts, PauliSum(2, {1: 1.0}))

    def test_binomial_bound_holds_for_most_seeds(self):
        # 4-sigma bound from the exact single-shot variance; ~99.99% expected
        rng = np.random.default_rng(14)
        state = sv.random_real_state(4, rng)
        h2 = model.build_h2(4)
        exact = sv.expectation(state, h2).real
        sigma = np.sqrt(sv.exact_diagonal_variance(state, h2) / 1024)
        hits = 0
        n_seeds = 300
        for seed in range(n_seeds):
            est = sv.estimate_diagonal(sv.sample(state, 1024, seed), h2)
            hits += abs(est - exact) <= 4 * sigma
        assert hits / n_seeds >= 0.99

    def test_variance_estimators_agree(self):
        rng = np.random.default_rng(15)
        state = sv.random_real_state(4, rng)
        h2 = model.build_h2(4)
        counts = sv.sample(state, shots=200_000, seed=3)
        plug_in = sv.estimate_diagonal_variance(counts, h2) * 200_000
        exact = sv.exact_diagonal_variance(state, h2)
        assert plug_in == pytest.approx(exact, rel=0.05)
