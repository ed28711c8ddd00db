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


def _dense_check(name, pairs, reduction, dense, detail) -> CheckResult:
    """Exact comparison of ``reduction(p1, p2)`` with ``dense(m1, m2)`` of the strings' matrices."""
    for p1, p2 in pairs:
        got = pauli.to_matrix(reduction(p1, p2), n_sites=p1.n_sites)
        if not np.array_equal(got, dense(pauli.to_matrix(p1), pauli.to_matrix(p2))):
            return CheckResult(name, False, f"mismatch for ({p1}, {p2})")
    return CheckResult(name, True, f"{len(pairs)} {detail}")


def check_multiply_vs_dense() -> CheckResult:
    rng = np.random.default_rng(11)
    singles = [pauli.PauliString((a,)) for a in range(4)]
    pairs = [(a, b) for a in singles for b in singles] + list(_random_pairs(rng))
    return _dense_check("multiply_vs_dense", pairs, pauli.multiply,
                        lambda m1, m2: m1 @ m2, "products exact")


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
    pairs = list(_random_pairs(np.random.default_rng(13)))
    return _dense_check("transpose_sum_vs_dense", pairs, pauli.sym_transpose_product,
                        lambda m1, m2: (m := m1 @ m2) + m.T, "pairs exact")


def check_commutator_vs_dense() -> CheckResult:
    """Exact equality implies a real coefficient, since -i[P1, P2] is Hermitian."""
    pairs = list(_random_pairs(np.random.default_rng(14)))
    return _dense_check("commutator_vs_dense", pairs, pauli.minus_i_commutator,
                        lambda m1, m2: -1j * (m1 @ m2 - m2 @ m1), "pairs exact and Hermitian")


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


def check_h_action_vs_dense() -> CheckResult:
    """H|phi> from the cached plan of the Hamiltonian's terms equals the dense product.

    Every step's energy, weight and coefficients read this action, so one
    wrong perm or sign in the plan fails here.
    """
    rng = np.random.default_rng(16)
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
    rows = np.array([random_real_state(4, rng).amplitudes.real for _ in range(5)])
    got = qite._h_action(rows, qite.make_pool(qite.ODD_Y, 4), ham)
    worst = float(np.max(np.abs(got - rows @ pauli.to_matrix(ham).real.T)))
    ok = worst < 1e-12
    return CheckResult("h_action_vs_dense", ok, f"largest |H phi - dense| {worst:.3e}")


def check_number_sector_preserved() -> CheckResult:
    """A basis trajectory stays in its fermion-number sector up to the Trotter splitting error.

    H conserves the fermion number N/2 + sum_n Z(n)/2, which on basis index
    i is N minus the count of one bits of i.  The leak is the probability on
    indices with another bit count: 1.3e-13 over these 20 steps, so the
    bound leaves a factor 1e5 for rounding, and a step that mixes sectors fails.
    """
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
    pool = qite.make_pool(qite.ODD_Y, 4)
    state = basis_state(3, 4)  # two one bits: fermion number 2
    other_sector = np.array([bin(i).count("1") != 2 for i in range(16)])
    worst = 0.0
    for _ in range(20):
        state, _ = qite.step(state, ham, 0.25, pool)
        worst = max(worst, float(np.sum(np.abs(state.amplitudes[other_sector]) ** 2)))
    ok = worst < 1e-8
    return CheckResult("number_sector_preserved", ok,
                       f"max out-of-sector probability over 20 steps {worst:.3e}")


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
    check_h_action_vs_dense,
    check_number_sector_preserved,
    check_duality,
    check_fidelity_scaling,
)


def run_all_checks() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
