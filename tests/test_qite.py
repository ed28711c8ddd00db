"""Imaginary-time step machinery: Gram system, solver, step, trajectories."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thirringsim import model, oracle, pauli, qite, thermal
from thirringsim import statevector as sv
from thirringsim.pauli import PauliString, PauliSum, to_matrix

from helpers import random_string


def random_real_symmetric_sum(n, rng, n_terms=6):
    """Random Hermitian sum whose dense matrix is real (even-Y strings only)."""
    terms = {}
    while len(terms) < n_terms:
        p = random_string(n, rng)
        if p.y_count() % 2 == 0:
            terms[p.packed_index] = float(rng.normal())
    return PauliSum(n, terms)


@pytest.fixture(scope="module")
def pool4():
    return qite.OperatorPool.odd_y(4)


class TestPools:
    def test_odd_y_size(self, pool4):
        assert pool4.size == 120

    def test_odd_y_membership_and_order(self, pool4):
        assert all(s.y_count() % 2 == 1 for s in pool4.strings)
        packed = [s.packed_index for s in pool4.strings]
        assert packed == sorted(packed)

    def test_make_pool_returns_one_shared_object(self):
        assert qite.make_pool(qite.ODD_Y, 4) is qite.make_pool(qite.ODD_Y, 4)
        assert qite.make_pool(qite.ODD_Y, 4) == qite.OperatorPool.odd_y(4)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            qite.OperatorPool(1, qite.ODD_Y, (PauliString.identity(1),))

    def test_incomplete_or_foreign_odd_y_pool_rejected(self, pool4):
        # the step's closed-form coefficients hold only for the complete pool
        with pytest.raises(ValueError, match="needs all 120 odd-Y strings of 4 sites"):
            qite.OperatorPool(4, qite.ODD_Y, pool4.strings[:-1])
        even_y = PauliString.from_label("XXII")
        with pytest.raises(ValueError, match="120 strings, 119 distinct odd-Y"):
            qite.OperatorPool(4, qite.ODD_Y, pool4.strings[:-1] + (even_y,))
        with pytest.raises(ValueError, match="120 strings, 119 distinct odd-Y"):
            qite.OperatorPool(4, qite.ODD_Y, pool4.strings[:-1] + pool4.strings[:1])
        reordered = qite.OperatorPool(4, qite.ODD_Y, pool4.strings[::-1])
        assert reordered.size == 120


class TestGram:
    def test_diagonal_is_two(self, pool4):
        rng = np.random.default_rng(0)
        gram = qite.build_gram(sv.random_real_state(4, rng), pool4)
        assert np.max(np.abs(np.diag(gram) - 2.0)) < 1e-12

    def test_matches_dense_gram_of_string_vectors(self, pool4):
        rng = np.random.default_rng(1)
        state = sv.random_real_state(4, rng)
        gram = qite.build_gram(state, pool4)
        vectors = np.column_stack(
            [sv.apply_string(state, s).amplitudes for s in pool4.strings]
        )
        dense = 2.0 * (vectors.conj().T @ vectors).real
        assert np.max(np.abs(gram - dense)) < 1e-12

    def test_positive_semidefinite(self, pool4):
        rng = np.random.default_rng(2)
        for _ in range(5):
            gram = qite.build_gram(sv.random_real_state(4, rng), pool4)
            assert np.linalg.eigvalsh(gram)[0] >= -1e-10

    def test_odd_y_pool_rejects_complex_state(self, pool4):
        v = np.zeros(16, dtype=complex)
        v[0] = 1j
        with pytest.raises(ValueError):
            qite.build_gram(sv.QuantumState(4, v), pool4)

    def test_transpose_sum_route_agrees_on_real_states(self, pool4):
        # operator-transpose reduction equals the anticommutator entries,
        # but only for real-amplitude states
        rng = np.random.default_rng(4)
        state = sv.random_real_state(4, rng)
        gram = qite.build_gram(state, pool4)
        idx = rng.integers(0, pool4.size, size=30)
        for i, j in idx.reshape(15, 2):
            via_transpose = sv.expectation(
                state, pauli.sym_transpose_product(pool4.strings[i], pool4.strings[j])
            ).real
            assert via_transpose == pytest.approx(gram[i, j], abs=1e-12)


class TestRhs:
    def test_eigenstate_gives_zero(self, pool4):
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        ground = oracle.spectral(ham).eigenvectors[:, 0]
        state = sv.QuantumState(4, ground.astype(complex))
        b = qite.build_rhs(state, pool4, ham)
        assert np.max(np.abs(b)) < 1e-10

    def test_single_qubit_plus_state(self):
        # H = Z on |+> with pool {Y}: b_Y = 2 <X>
        plus = sv.QuantumState(1, np.array([1.0, 1.0]) / np.sqrt(2))
        pool = qite.OperatorPool.odd_y(1)
        ham = PauliSum(1, {3: 1.0})
        assert qite.build_rhs(plus, pool, ham)[0] == pytest.approx(2.0)

    def test_random_vs_dense_commutators(self, pool4):
        rng = np.random.default_rng(5)
        ham = random_real_symmetric_sum(4, rng)
        state = sv.random_real_state(4, rng)
        b = qite.build_rhs(state, pool4, ham)
        h = to_matrix(ham, n_sites=4)
        amps = state.amplitudes
        for row in rng.integers(0, pool4.size, size=25):
            s = to_matrix(pool4.strings[row])
            want = np.vdot(amps, (-1j) * (s @ h - h @ s) @ amps).real
            assert b[row] == pytest.approx(want, abs=1e-12)

    def test_even_y_components_vanish_on_real_states(self):
        # b_s = 2 Re <s phi| -i H phi> from dense matrices, for every even-Y s
        rng = np.random.default_rng(6)
        ham = random_real_symmetric_sum(3, rng)
        h = to_matrix(ham, n_sites=3)
        strings = [PauliString.from_index(j, 3) for j in range(1, 4**3)]
        even_y = [to_matrix(s) for s in strings if s.y_count() % 2 == 0]
        for _ in range(5):
            phi = sv.random_real_state(3, rng).amplitudes
            w = -1j * (h @ phi)
            for s in even_y:
                assert abs(2.0 * np.vdot(s @ phi, w).real) < 1e-10


class TestSolve:
    def test_zero_rhs(self):
        a, residual = qite.solve(2.0 * np.eye(5), np.zeros(5))
        assert np.all(a == 0) and residual == 0

    def test_diagonal_system(self):
        b = np.array([1.0, -2.0, 0.5])
        a, residual = qite.solve(2.0 * np.eye(3), b)
        assert np.allclose(a, b / 2) and residual < 1e-14

    def test_singular_system_minimum_norm(self):
        rng = np.random.default_rng(7)
        column = rng.normal(size=6)
        gram = np.outer(column, column)  # rank one
        b = gram @ rng.normal(size=6)
        a, residual = qite.solve(gram, b)
        want = np.linalg.pinv(gram) @ b
        assert np.allclose(a, want, atol=1e-10)
        assert residual < 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            qite.solve(np.array([[np.nan]]), np.array([1.0]))


class TestStep:
    def test_eigenstate_is_fixed_point(self, pool4):
        ham = model.build_h3(4)  # diagonal: basis states are eigenstates
        state = sv.basis_state(9, 4)
        energy = sv.expectation(state, ham).real
        new, record = qite.step(state, ham, 0.1, pool4)
        assert np.all(record.a == 0) and record.kept_terms == 0
        assert record.c_step == pytest.approx(np.exp(-2 * 0.1 * energy))
        assert np.max(np.abs(new.amplitudes - state.amplitudes)) < 1e-12

    def test_energy_is_the_expectation_of_h(self, pool4):
        rng = np.random.default_rng(12)
        ham = model.assemble(model.ModelParams(model.MINKOWSKI, 4, 0.5, 1.3)).hamiltonian
        state = sv.random_real_state(4, rng)
        _, record = qite.step(state, ham, 0.1, pool4)
        assert record.energy == pytest.approx(sv.expectation(state, ham).real, abs=1e-12)

    def test_single_qubit_fidelity(self):
        plus = sv.QuantumState(1, np.array([1.0, 1.0]) / np.sqrt(2))
        ham = PauliSum(1, {3: 1.0})
        pool = qite.OperatorPool.odd_y(1)
        new, _ = qite.step(plus, ham, 0.01, pool)
        exact, _ = oracle.exact_imaginary_time_state(ham, plus, 0.01)
        assert abs(np.vdot(new.amplitudes, exact.amplitudes)) ** 2 > 1 - 1e-6

    def test_zero_dbeta_is_identity(self, pool4):
        rng = np.random.default_rng(8)
        state = sv.random_real_state(4, rng)
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 0.7)).hamiltonian
        new, record = qite.step(state, ham, 0.0, pool4)
        assert record.c_step == 1.0
        assert np.max(np.abs(new.amplitudes - state.amplitudes)) < 1e-12

    def test_zero_threshold_reproduces_untruncated_rotations(self, pool4):
        rng = np.random.default_rng(9)
        state = sv.random_real_state(4, rng)
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 0.7)).hamiltonian
        new, record = qite.step(state, ham, 0.2, pool4, trotter_steps=3, threshold=0.0)
        manual = sequential_rotations(state, pool4, record.a, 0.2, 3)
        assert np.max(np.abs(new.amplitudes - manual.amplitudes)) < 1e-12
        assert record.kept_terms == int(np.count_nonzero(record.a))

    def test_truncation_zeroes_small_coefficients(self, pool4):
        rng = np.random.default_rng(10)
        state = sv.random_real_state(4, rng)
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 0.7)).hamiltonian
        _, full = qite.step(state, ham, 0.2, pool4, threshold=0.0)
        _, cut = qite.step(state, ham, 0.2, pool4, threshold=0.05)
        assert cut.kept_terms < full.kept_terms
        assert np.all(np.abs(cut.a[cut.a != 0]) > 0.05)

    def test_exact_norm_mode_matches_oracle_weight(self, pool4):
        rng = np.random.default_rng(11)
        state = sv.random_real_state(4, rng)
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        _, record = qite.step(state, ham, 0.25, pool4, c_mode=qite.C_EXACT_NORM)
        _, want = oracle.exact_imaginary_time_state(ham, state, 0.25)
        assert record.c_step == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("variant, g2", [
        (model.EUCLIDEAN, 0.3), (model.EUCLIDEAN, 2.4), (model.MINKOWSKI, 4.4),
    ])
    def test_exact_norm_weights_telescope_to_the_partition_function(self, variant, g2):
        # On exact trajectories the first k weights multiply to <i|e^{-2k dbeta H}|i>,
        # so their sum over the basis is Z(beta = 2k dbeta).
        ham = model.assemble(model.ModelParams(variant, 4, 0.5, g2)).hamiltonian
        eigenvalues = oracle.spectral(ham).eigenvalues
        states, weights = [sv.basis_state(i, 4) for i in range(16)], np.ones(16)
        for k in range(1, 21):
            phi = np.array([s.amplitudes.real for s in states])
            energy = sv.expectation(phi, ham).real
            weights *= qite._c_step_values(phi, ham, 0.25, energy, qite.C_EXACT_NORM)
            states = [oracle.exact_imaginary_time_state(ham, s, 0.25)[0] for s in states]
            z = np.sum(np.exp(-2 * k * 0.25 * eigenvalues))
            assert abs(weights.sum() / z - 1) < 1e-12

    def test_real_state_stays_real_over_twenty_steps(self, pool4):
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        state = sv.basis_state(6, 4)
        worst = 0.0
        for _ in range(20):
            state, _ = qite.step(state, ham, 0.25, pool4)
            worst = max(worst, state.max_imag())
        assert worst < 1e-8


def random_complex_state(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return sv.QuantumState(n, v / np.linalg.norm(v))


def dense_columns(state, pool):
    """A with column j = s_j|phi>, from dense string matrices."""
    return np.column_stack([to_matrix(s) @ state.amplitudes for s in pool.strings])


class TestFactoredSolve:
    """The step solves min ||A a - w|| with the same result as the Gram system."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_step_matches_gram_solve(self, seed):
        rng = np.random.default_rng(seed)
        pool = qite.make_pool(qite.ODD_Y, 4)
        state, ham = sv.random_real_state(4, rng), random_real_symmetric_sum(4, rng)
        _, record = qite.step(state, ham, 0.1, pool, threshold=0.0)
        want, _ = qite.solve(
            qite.build_gram(state, pool), qite.build_rhs(state, pool, ham),
            qite.DEFAULT_SVD_CUTOFF,
        )
        assert np.linalg.norm(record.a - want) <= 1e-10 * np.linalg.norm(want)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gram_is_twice_real_part_of_a_h_a(self, seed):
        rng = np.random.default_rng(seed)
        pool = qite.make_pool(qite.ODD_Y, 4)
        state = sv.random_real_state(4, rng)
        a = dense_columns(state, pool)
        assert np.max(np.abs(qite.build_gram(state, pool) - 2.0 * (a.conj().T @ a).real)) < 1e-12

    def test_residual_is_mclachlan_residual(self, pool4):
        rng = np.random.default_rng(13)
        state = sv.random_real_state(4, rng)
        ham = random_real_symmetric_sum(4, rng)
        _, record = qite.step(state, ham, 0.1, pool4, threshold=0.0)
        w = -1j * (to_matrix(ham, n_sites=4) @ state.amplitudes)
        want = np.linalg.norm(dense_columns(state, pool4) @ record.a - w)
        assert record.residual == pytest.approx(want, rel=1e-9)

    def test_step_rejects_non_hermitian_hamiltonian(self, pool4):
        ham = PauliSum(4, {3: 1.0, 12: 0.5j})
        with pytest.raises(ValueError, match="real coefficients"):
            qite.step(sv.basis_state(0, 4), ham, 0.1, pool4)

    def test_step_rejects_hamiltonian_with_an_odd_y_term(self):
        # Y0 + 0.5 Z0 Z1 is Hermitian but not a real matrix: a real step
        # would evolve it silently wrong
        ham = PauliSum.from_strings(
            [(PauliString.from_label("YI"), 1.0), (PauliString.from_label("ZZ"), 0.5)]
        )
        state = sv.random_real_state(2, np.random.default_rng(15))
        with pytest.raises(ValueError, match="term YI has an odd Y count"):
            qite.step(state, ham, 0.25, qite.make_pool(qite.ODD_Y, 2))

    def test_step_rejects_complex_state_with_odd_y_pool(self, pool4):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="real-amplitude"):
            qite.step(random_complex_state(4, rng), model.build_h3(4), 0.1, pool4)


def flip_mask(s):
    """The X/Y bits of a string, site n at bit n: the basis flip it applies."""
    return sum(1 << n for n, letter in enumerate(s.letters) if letter in (pauli.X, pauli.Y))


def sequential_rotations(state, pool, a, dbeta, trotter_steps):
    """The step's circuit, one apply_rotation call per kept term and slice.

    The kept strings act in (flip mask, packed index) order.
    """
    angles = a * (dbeta / trotter_steps)
    kept = sorted(np.flatnonzero(a), key=lambda j: (flip_mask(pool.strings[j]),
                                                    pool.strings[j].packed_index))
    for _ in range(trotter_steps):
        for j in kept:
            state = sv.apply_rotation(state, pool.strings[j], angles[j])
    return state.normalized()


class TestTrotterSlice:
    """The step applies its kept rotations as one slice matrix, trotter_steps times."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        trotter_steps=st.integers(1, 50),
        threshold=st.sampled_from([0.0, 1e-3]),
    )
    def test_slice_matches_sequential_rotations(self, seed, trotter_steps, threshold):
        rng = np.random.default_rng(seed)
        pool = qite.make_pool(qite.ODD_Y, 4)
        state, ham = sv.random_real_state(4, rng), random_real_symmetric_sum(4, rng)
        new, record = qite.step(state, ham, 0.2, pool, trotter_steps, threshold)
        want = sequential_rotations(state, pool, record.a, 0.2, trotter_steps)
        assert np.max(np.abs(new.amplitudes - want.amplitudes)) < 1e-12

    def test_six_sites_odd_y(self):
        rng = np.random.default_rng(61)
        pool = qite.make_pool(qite.ODD_Y, 6)
        state = sv.random_real_state(6, rng)
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 6, 0.5, 1.0)).hamiltonian
        new, record = qite.step(state, ham, 0.25, pool)
        assert record.kept_terms > 0
        want = sequential_rotations(state, pool, record.a, 0.25, qite.DEFAULT_TROTTER_STEPS)
        assert np.max(np.abs(new.amplitudes - want.amplitudes)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_strings_sharing_a_flip_mask_commute(self, n):
        # why one pair rotation per flip mask is the exact product of the group's rotations
        pool = qite.make_pool(qite.ODD_Y, n)
        xor, _, cells, _ = qite._walsh_plan(pool)
        flips = cells // 2**n
        for f in range(1, 2**n):
            strings = [pool.strings[j] for j in np.flatnonzero(flips == f)]
            assert len(strings) == 2 ** (n - 1)
            assert [flip_mask(s) for s in strings] == [f] * len(strings)
            assert np.array_equal(xor[f], np.arange(2**n) ^ f)
            for i, p1 in enumerate(strings):
                for p2 in strings[i + 1:]:
                    assert pauli.minus_i_commutator(p1, p2).terms == {}

    def test_odd_y_slice_is_real_orthogonal(self, pool4):
        rng = np.random.default_rng(62)
        angles = np.where(rng.random(pool4.size) < 0.3, rng.normal(size=pool4.size), 0.0)
        u = qite._trotter_slice(pool4, angles)
        assert u.dtype == np.float64
        assert np.max(np.abs(u.T @ u - np.eye(16))) < 1e-12

    def test_no_kept_terms_returns_normalized_input(self, pool4):
        rng = np.random.default_rng(63)
        state = sv.random_real_state(4, rng)
        scaled = sv.QuantumState(4, 3.0 * state.amplitudes)
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 0.7)).hamiltonian
        new, record = qite.step(scaled, ham, 0.25, pool4, threshold=1e9)
        assert record.kept_terms == 0
        assert np.max(np.abs(new.amplitudes - state.amplitudes)) < 1e-15
        assert np.array_equal(scaled.amplitudes, 3.0 * state.amplitudes)

    def test_non_finite_dbeta_rejected(self, pool4):
        with pytest.raises(ValueError, match="finite"):
            qite.step(sv.basis_state(0, 4), model.build_h3(4), np.inf, pool4)


class TestStepRows:
    """The batch kernel: rows stay independent, and no linear system is solved."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        rows=st.integers(1, 20),
        threshold=st.sampled_from([0.0, 1e-3, 0.05]),
        trotter_steps=st.integers(1, 20),
        c_mode=st.sampled_from(qite.C_MODES),
    )
    def test_each_row_is_bitwise_the_row_stepped_alone(
        self, seed, n, rows, threshold, trotter_steps, c_mode
    ):
        rng = np.random.default_rng(seed)
        ham = random_real_symmetric_sum(n, rng)
        # |<H>| <= sum |c|, so the step stays small whatever the random coefficients
        dbeta = 0.2 / sum(abs(c) for c in ham.terms.values())
        amps = rng.standard_normal((rows, 2**n))
        amps[rng.random(rows) < 0.3] = np.eye(2**n)[rng.integers(2**n)]
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        pool = qite.make_pool(qite.ODD_Y, n)
        new, record = qite.step_rows(amps, ham, dbeta, pool, trotter_steps, threshold, c_mode)
        assert record.a.shape == (rows, pool.size)
        for row in range(rows):
            alone, own = qite.step(
                sv.QuantumState(n, amps[row]), ham, dbeta, pool, trotter_steps, threshold, c_mode
            )
            assert np.array_equal(new[row], alone.amplitudes.real)
            assert np.array_equal(record.a[row], own.a)
            assert (record.c_step[row], record.energy[row], record.kept_terms[row],
                    record.residual[row]) == (own.c_step, own.energy, own.kept_terms, own.residual)

    def test_six_site_rows_are_bitwise_the_rows_stepped_alone(self):
        # 64 rows per pass at N = 6, so the 65 rows run as passes of 64 and 1
        rng = np.random.default_rng(65)
        pool = qite.make_pool(qite.ODD_Y, 6)
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 6, 0.5, 1.0)).hamiltonian
        amps = np.concatenate([rng.standard_normal((63, 64)), np.eye(64)[[3, 21]]])
        amps[:63] /= np.linalg.norm(amps[:63], axis=1, keepdims=True)
        new, record = qite.step_rows(amps, ham, 0.25, pool, qite.DEFAULT_TROTTER_STEPS,
                                     qite.DEFAULT_THRESHOLD, qite.C_EXPONENTIAL)
        assert np.all(record.kept_terms > 0)
        for row in range(65):
            alone, own = qite.step(sv.QuantumState(6, amps[row]), ham, 0.25, pool)
            assert np.array_equal(new[row], alone.amplitudes.real)
            assert np.array_equal(record.a[row], own.a)
            assert (record.c_step[row], record.energy[row], record.residual[row]) == (
                own.c_step, own.energy, own.residual
            )

    @pytest.mark.parametrize("g2", [0.5, 1.9, 3.0])
    def test_basis_rows_stay_in_their_fermion_number_sector(self, g2, pool4):
        # H conserves the count of one bits, and each flip-mask group of the slice is one exact
        # pair rotation, so the out-of-sector probability of every basis row stays at rounding
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, g2)).hamiltonian
        ones = np.array([bin(i).count("1") for i in range(16)])
        other_sector = ones[:, None] != ones[None, :]
        rows, worst = np.eye(16), 0.0
        for _ in range(20):
            rows, _ = qite.step_rows(rows, ham, 0.25, pool4, qite.DEFAULT_TROTTER_STEPS,
                                     qite.DEFAULT_THRESHOLD, qite.C_EXPONENTIAL)
            worst = max(worst, np.max(np.sum(rows**2, axis=1, where=other_sector)))
        assert worst < 1e-20

    @pytest.mark.parametrize("variant", [model.EUCLIDEAN, model.MINKOWSKI])
    @pytest.mark.parametrize("g2", [0.0, 1.0, 2.5])
    def test_one_state_sectors_never_move_and_weigh_exp_minus_beta_e(self, variant, g2, pool4):
        # |0000> and |1111> are the only states with fermion number 0 and N: eigenstates of H,
        # so no coefficient is kept, the state stays put and the weight is exactly e^{-beta E}
        ham = model.assemble(model.ModelParams(variant, 4, 0.5, g2)).hamiltonian
        start = np.eye(16)[[0, 15]]
        energy = np.diag(to_matrix(ham, n_sites=4)).real[[0, 15]]
        rows, weights = start, np.ones(2)
        for k in range(1, 21):
            rows, record = qite.step_rows(rows, ham, 0.25, pool4, qite.DEFAULT_TROTTER_STEPS,
                                          qite.DEFAULT_THRESHOLD, qite.C_EXPONENTIAL)
            weights = weights * record.c_step
            assert record.kept_terms.tolist() == [0, 0]
            assert np.array_equal(rows, start)
            np.testing.assert_allclose(weights, np.exp(-2 * k * 0.25 * energy), rtol=1e-13)

    def test_no_least_squares_solve(self, pool4, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq was called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        obs = model.default_observables(4)
        for c_mode in qite.C_MODES:
            qite.step(sv.random_real_state(4, np.random.default_rng(1)), ham, 0.25, pool4,
                      c_mode=c_mode)
            thermal.qmetts_average(ham, obs, 0.25, 3, pool4, c_mode=c_mode)

    def test_closed_form_matches_the_gram_solve_at_six_sites(self):
        pool = qite.make_pool(qite.ODD_Y, 6)
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 6, 0.5, 1.0)).hamiltonian
        state = sv.random_real_state(6, np.random.default_rng(64))
        _, record = qite.step(state, ham, 0.25, pool, threshold=0.0)
        want, _ = qite.solve(
            qite.build_gram(state, pool), qite.build_rhs(state, pool, ham),
            qite.DEFAULT_SVD_CUTOFF,
        )
        assert np.linalg.norm(record.a - want) <= 1e-10 * np.linalg.norm(want)


class TestWalshPlan:
    """The pool's (flip, phase) layout: one Hadamard product gives every coefficient and angle."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_plan_reproduces_the_gram_plan(self, n):
        pool = qite.make_pool(qite.ODD_Y, n)
        perms, gens = qite._gram_plan(pool)
        xor, hadamard, cells, signs = qite._walsh_plan(pool)
        flips, phases = np.divmod(cells, 2**n)
        assert np.array_equal(perms, xor[flips])
        assert np.array_equal(gens, signs[:, None] * hadamard[phases])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cells_are_exactly_those_of_odd_y_strings(self, n):
        # no cell with f = 0 or f.z even is ever read, so none can be kept
        _, _, cells, _ = qite._walsh_plan(qite.make_pool(qite.ODD_Y, n))
        flips, phases = np.divmod(np.arange(4**n), 2**n)
        odd = [f != 0 and bin(f & z).count("1") % 2 == 1 for f, z in zip(flips, phases)]
        assert np.array_equal(np.sort(cells), np.flatnonzero(odd))

    @pytest.mark.parametrize("n", [4, 6])
    def test_coefficients_match_the_gather(self, n):
        rng = np.random.default_rng(66 + n)
        pool = qite.make_pool(qite.ODD_Y, n)
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, n, 0.5, 1.0)).hamiltonian
        amps = np.concatenate([rng.standard_normal((3, 2**n)), np.eye(2**n)[[3]]])
        _, record = qite.step_rows(amps, ham, 0.25, pool, 1, 0.0, qite.C_EXPONENTIAL)
        perms, gens = qite._gram_plan(pool)
        for phi, w, a in zip(amps, -amps @ to_matrix(ham).real.T, record.a):
            want = np.sum(phi[perms] * gens * w, axis=1) * (2.0 / (2**n * (phi @ phi)))
            assert np.max(np.abs(a - want)) < 1e-12

    @pytest.mark.parametrize("c_mode", qite.C_MODES)
    @pytest.mark.parametrize("n", [4, 6])
    def test_a_step_that_keeps_no_term_builds_every_plan(self, n, c_mode):
        # a set-up step from basis state 0 leaves no plan for a later step to build
        pool = qite.make_pool(qite.ODD_Y, n)
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, n, 0.5, 1.0)).hamiltonian
        caches = [f for f in vars(qite).values() if hasattr(f, "cache_clear")]
        caches = [f for f in caches if f is not qite.make_pool] + [oracle._spectral_cached]
        assert qite._walsh_plan in caches and qite._rhs_plan in caches
        for f in caches:
            f.cache_clear()
        _, record = qite.step(sv.basis_state(0, n), ham, 0.25, pool, c_mode=c_mode)
        assert record.kept_terms == 0
        misses = [f.cache_info().misses for f in caches]
        state = sv.random_real_state(n, np.random.default_rng(67))
        _, record = qite.step(state, ham, 0.25, pool, c_mode=c_mode)
        assert record.kept_terms > 0
        assert [f.cache_info().misses for f in caches] == misses


class TestTrajectory:
    def test_short_step_keeps_initial_diagonal_values(self, pool4):
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        obs = model.default_observables(4)
        traj = qite.measure(qite.run_trajectory(5, ham, 1e-7, 1, pool4), obs)
        state = sv.basis_state(5, 4)
        for name, op in obs.items():
            assert traj.observables[name].shape == (1, 1)
            assert traj.observables[name][0, 0] == pytest.approx(
                sv.expectation(state, op).real, abs=1e-5
            )

    def test_cumulative_weights_are_running_products(self, pool4):
        # and the energy and kept terms are the step records'
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        traj = qite.run_trajectory(3, ham, 0.25, 5, pool4)
        assert traj.labels.tolist() == [3]
        assert traj.weights.shape == traj.energy.shape == traj.kept_terms.shape == (1, 5)
        state, prod = sv.basis_state(3, 4), 1.0
        for k in range(5):
            state, record = qite.step(state, ham, 0.25, pool4)
            prod *= record.c_step
            assert traj.weights[0, k] == prod
            assert (traj.energy[0, k], traj.kept_terms[0, k]) == (record.energy, record.kept_terms)

    def test_energy_descends_from_basis_state(self, pool4):
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 0.0)).hamiltonian
        obs = {"energy": ham}
        traj = qite.measure(qite.run_trajectory(0, ham, 0.25, 20, pool4), obs)
        energies = traj.observables["energy"][0]
        for prev, cur in zip(energies[3:], energies[4:]):
            assert cur <= prev + 1e-9

    def test_frozen_trajectory_regression(self, pool4):
        # three default-mode steps from |0011>, values frozen from a build whose
        # states matched sequential_rotations to 1e-12 at every step; the fermion
        # number is conserved exactly along the trajectory
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        obs = model.default_observables(4)
        traj = qite.measure(qite.run_trajectory(3, ham, 0.25, 3, pool4), obs)
        assert traj.energy[0] == pytest.approx(
            [0.0, -0.858372961019, -1.398027912539], abs=1e-9
        )
        assert traj.weights[0] == pytest.approx(
            [1.0, 1.536007443142, 3.090090680065], abs=1e-9
        )
        assert traj.kept_terms[0].tolist() == [16, 24, 56]
        assert traj.observables[model.CHIRAL_CONDENSATE][0] == pytest.approx(
            [0.000757060729, -0.185249232456, -0.446903423784], abs=1e-9
        )
        assert traj.observables[model.FERMION_NUMBER][0] == pytest.approx(
            [2.0, 2.0, 2.0], abs=1e-12
        )

    def test_shot_mode_is_seed_deterministic(self, pool4):
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        obs = model.default_observables(4)
        traj = qite.run_trajectory(1, ham, 0.25, 3, pool4)
        a, b, c = (qite.measure(traj, obs, mode=qite.MODE_SHOTS, shots=256, seed=seed)
                   for seed in (42, 42, 43))
        assert all(np.array_equal(a.observables[name], b.observables[name]) for name in obs)
        assert not all(np.array_equal(a.observables[name], c.observables[name]) for name in obs)

    def test_states_are_the_chained_steps(self, pool4):
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        traj = qite.run_trajectory(6, ham, 0.25, 4, pool4)
        assert traj.states.shape == (1, 4, 16) and traj.states.dtype == float
        state = sv.basis_state(6, 4)
        for row in traj.states[0]:
            state, _ = qite.step(state, ham, 0.25, pool4)
            assert np.array_equal(row, state.amplitudes.real)

    def test_measure_under_another_seed_matches_a_fresh_run(self, pool4):
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        obs = model.default_observables(4)
        exact = qite.measure(qite.run_trajectory(2, ham, 0.25, 3, pool4), obs)
        assert exact.observable_variances == {}
        for seed in (0, 9):
            kwargs = dict(mode=qite.MODE_SHOTS, shots=128, seed=seed)
            fresh = qite.measure(qite.run_trajectory(2, ham, 0.25, 3, pool4), obs, **kwargs)
            remeasured = qite.measure(exact, obs, **kwargs)
            assert remeasured.states is exact.states
            for name in obs:
                assert np.array_equal(remeasured.observables[name], fresh.observables[name])
                assert np.array_equal(remeasured.observable_variances[name],
                                      fresh.observable_variances[name])
        again = qite.measure(fresh, obs)
        assert again.observable_variances == {}
        for name in obs:
            assert np.array_equal(again.observables[name], exact.observables[name])

    def test_shots_draw_each_trajectory_from_one_generator(self, pool4):
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        obs = model.default_observables(4)
        traj = qite.measure(qite.run_trajectory(5, ham, 0.25, 3, pool4), obs,
                            mode=qite.MODE_SHOTS, shots=200, seed=8)
        # one generator seeded (seed, label) draws the K steps in order, one multinomial each
        rng = np.random.default_rng((8, 5))
        for k, row in enumerate(traj.states[0], start=1):
            probs = row**2 / np.sum(row**2)
            counts = sv.ShotCounts(200, rng.multinomial(200, probs), seed=8)
            for name, op in obs.items():
                assert traj.observables[name][0, k - 1] == sv.estimate_diagonal(counts, op)
                assert traj.observable_variances[name][0, k - 1] == sv.estimate_diagonal_variance(
                    counts, op
                )

    def test_shot_counts_depend_only_on_seed_and_label(self, pool4):
        ham = model.assemble(model.ModelParams(model.MINKOWSKI, 4, 0.5, 1.0)).hamiltonian
        obs = model.default_observables(4)
        kwargs = dict(mode=qite.MODE_SHOTS, shots=256, seed=3)
        chiral = model.CHIRAL_CONDENSATE

        def measured(trajectories):
            return qite.measure(trajectories, obs, **kwargs).observables[chiral]

        alone = measured(qite.run_trajectory(6, ham, 0.25, 8, pool4))[0]
        # inside a batch, at either end of it
        others = [qite.run_trajectory(i, ham, 0.25, 8, pool4) for i in (9, 3)]
        first = measured(qite.Trajectories.concatenate(
            [qite.run_trajectory(6, ham, 0.25, 8, pool4), *others]))
        last = measured(qite.Trajectories.concatenate(
            [*others, qite.run_trajectory(6, ham, 0.25, 8, pool4)]))
        assert np.array_equal(first[0], alone) and np.array_equal(last[-1], alone)
        assert np.array_equal(first[1:], last[:-1])
        # the first k steps, whatever n_steps is
        for n_steps in (1, 3, 5):
            short = measured(qite.run_trajectory(6, ham, 0.25, n_steps, pool4))[0]
            assert np.array_equal(short, alone[:n_steps])
        # and the label is part of the seed: the same states under another label draw anew
        relabelled = replace(qite.run_trajectory(6, ham, 0.25, 8, pool4), labels=np.array([7]))
        assert not np.array_equal(measured(relabelled)[0], alone)
        # an empty batch measures to (0, K) arrays, as in exact mode
        empty = qite.Trajectories(np.array([], dtype=int), np.zeros((0, 8, 16)),
                                  *(np.zeros((0, 8)) for _ in range(3)))
        assert measured(empty).shape == qite.measure(empty, obs).observables[chiral].shape == (0, 8)

    def test_non_diagonal_observable_rejected_in_shot_mode(self, pool4):
        ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
        obs = {"x0": PauliSum(4, {pauli.pack((pauli.X, 0, 0, 0)): 1.0})}
        traj = qite.run_trajectory(0, ham, 0.25, 2, pool4)
        with pytest.raises(ValueError, match="is not Z-diagonal; shot estimation only supports"):
            qite.measure(traj, obs, mode=qite.MODE_SHOTS)
        with pytest.raises(ValueError, match="unknown measurement mode"):
            qite.measure(traj, obs, mode="tomography")
