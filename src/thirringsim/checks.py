"""Self-contained invariant checks behind the ``validate`` subcommand.

Every check returns quickly, uses fixed seeds, and verifies one structural
fact against an independent dense-matrix or spectral computation.  All of
them re-read the live site tables, so a corrupted table is caught here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, oracle, pauli, qite
from .statevector import basis_state, random_real_state


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_pairs(rng, sizes=(2, 3, 4), per_size=70):
    for n in sizes:
        for _ in range(per_size):
            yield pauli.random_string(n, rng), pauli.random_string(n, rng)


def check_site_tables() -> CheckResult:
    try:
        pauli.TABLES.check()
    except AssertionError as exc:
        return CheckResult("site_tables", False, str(exc))
    return CheckResult("site_tables", True, "structural invariants hold")


def check_multiply_vs_dense() -> CheckResult:
    rng = np.random.default_rng(11)
    pairs = [
        (pauli.PauliString((a,)), pauli.PauliString((b,)))
        for a in range(4)
        for b in range(4)
    ]
    pairs += list(_random_pairs(rng))
    for p1, p2 in pairs:
        got = pauli.to_matrix(pauli.multiply(p1, p2))
        want = pauli.to_matrix(p1) @ pauli.to_matrix(p2)
        if not np.array_equal(got, want):
            return CheckResult("multiply_vs_dense", False, f"mismatch for {p1} * {p2}")
    return CheckResult("multiply_vs_dense", True, f"{len(pairs)} products exact")


def check_involution() -> CheckResult:
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            p = pauli.random_string(n, rng)
            ph = pauli.multiply(p, p)
            if ph.phase != 1 or not ph.string.is_identity():
                return CheckResult("involution", False, f"{p} squared is not the identity")
    return CheckResult("involution", True, "P*P = identity on 200 random strings")


def check_transpose_sum_vs_dense() -> CheckResult:
    rng = np.random.default_rng(13)
    count = 0
    for p1, p2 in _random_pairs(rng):
        m = pauli.to_matrix(p1) @ pauli.to_matrix(p2)
        want = m + m.T
        got = pauli.to_matrix(pauli.sym_transpose_product(p1, p2), n_sites=p1.n_sites)
        if np.max(np.abs(got - want)) > 1e-12:
            return CheckResult("transpose_sum_vs_dense", False, f"mismatch for ({p1}, {p2})")
        count += 1
    return CheckResult("transpose_sum_vs_dense", True, f"{count} pairs exact")


def check_commutator_vs_dense() -> CheckResult:
    rng = np.random.default_rng(14)
    count = 0
    for p1, p2 in _random_pairs(rng):
        m1, m2 = pauli.to_matrix(p1), pauli.to_matrix(p2)
        want = -1j * (m1 @ m2 - m2 @ m1)
        result = pauli.minus_i_commutator(p1, p2)
        got = pauli.to_matrix(result, n_sites=p1.n_sites)
        if np.max(np.abs(got - want)) > 1e-12:
            return CheckResult("commutator_vs_dense", False, f"mismatch for ({p1}, {p2})")
        if not result.is_hermitian(1e-14):
            return CheckResult("commutator_vs_dense", False, f"non-real output for ({p1}, {p2})")
        count += 1
    return CheckResult("commutator_vs_dense", True, f"{count} pairs exact and Hermitian")


def check_design_spectrum() -> CheckResult:
    """The odd-Y design matrix A on a real unit state has d - 1 singular values sqrt(d/2).

    The matrices -i s_j of the odd-Y strings are an orthogonal basis of the
    real antisymmetric d x d matrices, each with squared Frobenius norm d,
    and column j of A is -i s_j|phi>, so A A^T = (d/2)(I - |phi><phi|).  One wrong perm or sign entry
    in the cached pool plan, which the step's solve and its Trotter slice
    both read, breaks this.
    """
    rng = np.random.default_rng(15)
    n_sites = 4
    dim = 2**n_sites
    pool = qite.make_pool(qite.ODD_Y, n_sites)
    worst = 0.0
    ranks = set()
    for _ in range(5):
        s2 = np.linalg.svd(qite._design_matrix(random_real_state(n_sites, rng), pool),
                           compute_uv=False) ** 2
        nonzero = s2[s2 > 1e-9 * dim]
        ranks.add(nonzero.size)
        worst = max(worst, float(np.max(np.abs(nonzero - dim / 2))))
    ok = ranks == {dim - 1} and worst < 1e-10
    return CheckResult(
        "design_spectrum", ok,
        f"rank {sorted(ranks)} (want {dim - 1}), largest |s^2 - {dim // 2}| {worst:.3e}",
    )


def check_even_y_rhs_vanishes() -> CheckResult:
    """On a real state with a real-symmetric H, every even-Y string's commutator component is 0.

    Component b_s = 2 Re <s phi| -i H phi> is computed from dense matrices,
    independently of the pool class; its vanishing is why the odd-Y pool
    loses nothing.
    """
    rng = np.random.default_rng(16)
    ham = pauli.PauliSum.from_strings(
        [(pauli.PauliString((3, 0, 0)), 0.7), (pauli.PauliString((1, 1, 0)), 0.4),
         (pauli.PauliString((0, 3, 3)), -0.3)]
    )
    h = pauli.to_matrix(ham, n_sites=3)
    even_y = [
        pauli.to_matrix(s)
        for s in (pauli.PauliString.from_index(j, 3) for j in range(1, 4**3))
        if s.y_count() % 2 == 0
    ]
    worst = 0.0
    for _ in range(5):
        phi = random_real_state(3, rng).amplitudes
        w = -1j * (h @ phi)
        for s in even_y:
            worst = max(worst, abs(2.0 * np.vdot(s @ phi, w).real))
    ok = worst < 1e-10
    return CheckResult("even_y_rhs_vanishes", ok, f"largest even-Y component {worst:.3e}")


def check_real_state_preservation() -> CheckResult:
    params = model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)
    ham = model.assemble(params).hamiltonian
    pool = qite.make_pool(qite.ODD_Y, 4)
    state = basis_state(3, 4)
    worst = 0.0
    for _ in range(20):
        state, _ = qite.step(state, ham, 0.25, pool)
        worst = max(worst, state.max_imag())
    ok = worst < 1e-8
    return CheckResult("real_state_preservation", ok, f"max |imag| over 20 steps {worst:.3e}")


def check_duality() -> CheckResult:
    g2 = 1.3
    ham_m = model.assemble(model.ModelParams(model.MINKOWSKI, 4, 0.5, g2)).hamiltonian
    ham_gn = model.assemble(
        model.ModelParams(model.GROSS_NEVEU, 4, 0.5, 0.0, a_mu=g2 / 2)
    ).hamiltonian
    diff = ham_m - ham_gn
    non_identity = [j for j in diff.terms if j != 0]
    if non_identity:
        return CheckResult("duality", False, f"{len(non_identity)} non-identity residual terms")
    gap = oracle.spectral(ham_m).eigenvalues - oracle.spectral(ham_gn).eigenvalues
    worst = float(np.max(np.abs(gap - np.mean(gap))))
    ok = worst < 1e-10
    return CheckResult("duality", ok, f"spectral mismatch after shift {worst:.3e}")


def check_fidelity_scaling() -> CheckResult:
    rng = np.random.default_rng(17)
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
    pool = qite.make_pool(qite.ODD_Y, 4)
    dbetas = [0.2, 0.1, 0.05, 0.025]
    slopes = []
    for _ in range(3):
        state = random_real_state(4, rng)
        infidelities = []
        for dbeta in dbetas:
            stepped, _ = qite.step(state, ham, dbeta, pool, trotter_steps=50, threshold=0.0)
            exact, _ = oracle.exact_imaginary_time_state(ham, state, dbeta)
            fid = abs(np.vdot(stepped.amplitudes, exact.amplitudes)) ** 2
            infidelities.append(max(1.0 - fid, 1e-16))
        slope = np.polyfit(np.log(dbetas), np.log(infidelities), 1)[0]
        slopes.append(float(slope))
    worst = min(slopes)
    ok = worst >= 1.9
    return CheckResult("fidelity_scaling", ok, f"smallest fitted exponent {worst:.2f}")


ALL_CHECKS = (
    check_site_tables,
    check_multiply_vs_dense,
    check_involution,
    check_transpose_sum_vs_dense,
    check_commutator_vs_dense,
    check_design_spectrum,
    check_even_y_rhs_vanishes,
    check_real_state_preservation,
    check_duality,
    check_fidelity_scaling,
)


def run_all_checks() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
