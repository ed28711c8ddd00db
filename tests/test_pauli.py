"""Pauli-string algebra against dense-matrix ground truth."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thirringsim import pauli
from thirringsim.pauli import (
    PauliString,
    PauliSum,
    PhasedString,
    minus_i_commutator,
    multiply,
    pack,
    sym_transpose_product,
    to_matrix,
    unpack,
)

from helpers import random_string


def S(label):
    return PauliString.from_label(label)


class TestPacking:
    def test_identity_packs_to_zero(self):
        assert pack((0, 0, 0, 0)) == 0

    def test_base4_positions(self):
        assert pack((1, 2, 0, 0)) == 1 + 2 * 4 == 9

    def test_all_z(self):
        assert pack((3, 3, 3, 3)) == 255

    def test_roundtrip_both_ways(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 4, 6):
            for j in rng.integers(0, 4**n, size=20):
                assert pack(unpack(int(j), n)) == j
        letters = tuple(int(x) for x in rng.integers(0, 4, size=5))
        assert unpack(pack(letters), 5) == letters

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            unpack(256, 4)
        with pytest.raises(ValueError):
            unpack(-1, 4)

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            pack((0, 4))
        with pytest.raises(ValueError):
            PauliString((5,))


class TestMultiply:
    def test_xy_is_i_z(self):
        out = multiply(S("X"), S("Y"))
        assert out.phase == 1j and out.string == S("Z")

    def test_yx_is_minus_i_z(self):
        out = multiply(S("Y"), S("X"))
        assert out.phase == -1j and out.string == S("Z")

    def test_involution(self):
        rng = np.random.default_rng(1)
        for n in (1, 3, 5):
            for _ in range(50):
                p = random_string(n, rng)
                out = multiply(p, p)
                assert out.phase == 1 and out.string.is_identity()

    def test_sitewise_composition(self):
        out = multiply(S("XZ"), S("YZ"))
        assert out.phase == 1j and out.string == S("ZI")

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            multiply(S("X"), S("XX"))

    def test_exhaustive_single_site_vs_dense(self):
        for a in range(4):
            for b in range(4):
                out = multiply(PauliString((a,)), PauliString((b,)))
                want = to_matrix(PauliString((a,))) @ to_matrix(PauliString((b,)))
                assert np.array_equal(out.phase * to_matrix(out.string), want)

    def test_random_multisite_vs_dense(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4, 5):
            for _ in range(40):
                p1, p2 = random_string(n, rng), random_string(n, rng)
                got = to_matrix(multiply(p1, p2))
                assert np.array_equal(got, to_matrix(p1) @ to_matrix(p2))

    def test_associativity_on_random_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a, b, c = (random_string(n, rng) for _ in range(3))
            ab = multiply(a, b)
            left = multiply(ab.string, c)
            left_phase = ab.phase * left.phase
            bc = multiply(b, c)
            right = multiply(a, bc.string)
            right_phase = bc.phase * right.phase
            assert left.string == right.string and left_phase == right_phase

    def test_phase_real_iff_strings_commute(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            p1, p2 = random_string(n, rng), random_string(n, rng)
            m1, m2 = to_matrix(p1), to_matrix(p2)
            commute = np.array_equal(m1 @ m2, m2 @ m1)
            phase = multiply(p1, p2).phase
            assert (phase.imag == 0) == commute
            assert (phase.real == 0) == (not commute)


class TestTransposeSum:
    def test_identity_pair(self):
        out = sym_transpose_product(S("IIII"), S("IIII"))
        assert out.terms == {0: 2}

    def test_yx_single_site(self):
        # sigma^y sigma^x + transpose = -2i sigma^z (2x2 matrix oracle)
        out = sym_transpose_product(S("Y"), S("X"))
        assert out.terms == {3: -2j}
        m = to_matrix(S("Y")) @ to_matrix(S("X"))
        assert np.array_equal(to_matrix(out, n_sites=1), m + m.T)

    def test_odd_y_product_cancels(self):
        # transpose term cancels the product when the product has odd Y count
        out = sym_transpose_product(S("YI"), S("IZ"))
        assert out.terms == {}
        m = to_matrix(S("YI")) @ to_matrix(S("IZ"))
        assert np.max(np.abs(m + m.T)) == 0

    def test_random_pairs_vs_dense(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            for _ in range(40):
                p1, p2 = random_string(n, rng), random_string(n, rng)
                m = to_matrix(p1) @ to_matrix(p2)
                got = to_matrix(sym_transpose_product(p1, p2), n_sites=n)
                assert np.max(np.abs(got - (m + m.T))) == 0


class TestMinusICommutator:
    def test_xy(self):
        out = minus_i_commutator(S("X"), S("Y"))
        assert out.terms == {3: 2}

    def test_commuting_strings_vanish(self):
        out = minus_i_commutator(S("XX"), S("YY"))
        assert out.terms == {}

    def test_random_pairs_vs_dense_and_hermitian(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4, 5):
            for _ in range(40):
                p1, p2 = random_string(n, rng), random_string(n, rng)
                m1, m2 = to_matrix(p1), to_matrix(p2)
                result = minus_i_commutator(p1, p2)
                got = to_matrix(result, n_sites=n)
                assert np.max(np.abs(got - (-1j) * (m1 @ m2 - m2 @ m1))) == 0
                assert result.is_hermitian(0.0)


class TestToMatrix:
    def test_identity(self):
        assert np.array_equal(to_matrix(S("II")), np.eye(4))

    def test_z_diagonal_convention(self):
        assert np.array_equal(to_matrix(S("Z")), np.diag([1.0, -1.0]))

    def test_site_to_bit_order(self):
        # X on site 0 swaps the least significant bit
        m = to_matrix(S("XI"))
        assert m[0, 1] == 1 and m[2, 3] == 1 and m[0, 2] == 0

    def test_phased_string(self):
        ph = PhasedString(-1j, S("Z"))
        assert np.array_equal(to_matrix(ph), -1j * np.diag([1.0, -1.0]))

    def test_site_cap(self):
        with pytest.raises(ValueError):
            to_matrix(PauliString.identity(11))
        with pytest.raises(ValueError):
            to_matrix(PauliString.identity(3), site_cap=2)

    @pytest.mark.parametrize("op", [PauliString.identity(3), PauliSum(3, {1: 1.0})])
    def test_site_count_mismatch_rejected(self, op):
        assert to_matrix(op, n_sites=3).shape == (8, 8)
        with pytest.raises(ValueError, match="n_sites 4 disagrees with the operator's 3 sites"):
            to_matrix(op, n_sites=4)


def strings_on(n):
    return st.tuples(*[st.integers(0, 3)] * n).map(PauliString)


string_pairs = st.integers(1, 5).flatmap(lambda n: st.tuples(strings_on(n), strings_on(n)))


class TestAgainstDenseProperties:
    @given(st.integers(1, 6).flatmap(strings_on))
    def test_to_matrix_is_bitwise_the_kron_chain(self, p):
        want = np.array([[1.0 + 0j]])
        for site in reversed(range(p.n_sites)):
            want = np.kron(want, pauli._SITE_MATRICES[p.letters[site]])
        got = to_matrix(p)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_batch_of_every_string_is_bitwise_each_to_matrix(self, n):
        letters = [unpack(j, n) for j in range(4**n)]
        batch = pauli.string_matrices(letters)
        assert batch.shape == (4**n, 2**n, 2**n)
        for got, p in zip(batch, letters):
            assert got.tobytes() == to_matrix(PauliString(p)).tobytes()

    @given(string_pairs)
    def test_products_equal_dense_products(self, pair):
        p1, p2 = pair
        m1, m2 = to_matrix(p1), to_matrix(p2)
        assert np.array_equal(to_matrix(multiply(p1, p2)), m1 @ m2)
        got = to_matrix(minus_i_commutator(p1, p2), n_sites=p1.n_sites)
        assert np.array_equal(got, -1j * (m1 @ m2 - m2 @ m1))
        got = to_matrix(sym_transpose_product(p1, p2), n_sites=p1.n_sites)
        assert np.array_equal(got, m1 @ m2 + (m1 @ m2).T)


class TestPauliSum:
    def test_prunes_zero_coefficients(self):
        s = PauliSum(2, {0: 1e-15, 3: 0.5})
        assert s.terms == {3: 0.5}

    def test_accumulates_duplicates(self):
        s = PauliSum.from_strings([(S("Z"), 0.5), (S("Z"), -0.5)])
        assert s.terms == {}

    def test_arithmetic(self):
        a = PauliSum(1, {1: 1.0})
        b = PauliSum(1, {1: 0.25, 3: -2.0})
        assert (a + b).terms == {1: 1.25, 3: -2.0}
        assert (a - b).terms == {1: 0.75, 3: 2.0}
        assert (2.0 * b).terms == {1: 0.5, 3: -4.0}
        assert (-a).terms == {1: -1.0}

    def test_hermitian_detection(self):
        assert PauliSum(1, {3: 1.0}).is_hermitian()
        assert not PauliSum(1, {3: 1j}).is_hermitian()

    def test_site_count_guard(self):
        with pytest.raises(ValueError):
            PauliSum(1, {7: 1.0})
        with pytest.raises(ValueError):
            PauliSum(1, {0: 1.0}) + PauliSum(2, {0: 1.0})


class TestSiteTables:
    def test_invariants(self):
        pauli.TABLES.check()

    def test_m_d_marks_y_products(self):
        assert np.array_equal(pauli.TABLES.m_d, (pauli.TABLES.m_a == 2).astype(int))

    def test_corrupted_table_fails_check(self):
        bad = pauli.SiteTables(
            m_a=pauli.TABLES.m_a.copy(),
            m_b=pauli.TABLES.m_b.copy(),
            m_c=pauli.TABLES.m_c.copy(),
            m_d=1 - pauli.TABLES.m_d,
        )
        with pytest.raises(AssertionError):
            bad.check()
