"""Self-contained invariant checks behind the ``validate`` subcommand.

Every check returns quickly, uses fixed seeds, and verifies one structural
fact against an independent dense-matrix or spectral computation.  All of
them re-read the live site tables, so a corrupted table is caught here.
The Pauli-algebra checks call the reduction under test once per pair; their
dense referee is built from Kronecker products only, in one batch per site
count, and shares no code with the statevector or the step.
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
    """``per_size`` random string pairs for each site count, all their letters in one draw."""
    return [(pauli.PauliString(tuple(a)), pauli.PauliString(tuple(b)))
            for n in sizes for a, b in rng.integers(0, 4, size=(per_size, 2, n)).tolist()]


def check_site_tables() -> CheckResult:
    try:
        pauli.TABLES.check()
    except AssertionError as exc:
        return CheckResult("site_tables", False, str(exc))
    return CheckResult("site_tables", True, "structural invariants hold")


def _dense_check(name, pairs, reduction, dense, detail) -> CheckResult:
    """Exact comparison of ``reduction(p1, p2)`` with ``dense(m1, m2)`` of the strings' matrices.

    Per site count n, the dense matrices of all 4^n strings come from one
    batch of Kronecker products, ``dense`` takes every pair's matrices as
    (pairs, 2^n, 2^n) stacks, and each result is the sum of its terms'
    matrices.  A failure names the first failing pair in list order.
    """
    failed = []
    for n in sorted({p1.n_sites for p1, _ in pairs}):
        slots = [k for k, (p1, _) in enumerate(pairs) if p1.n_sites == n]
        digits = 4 ** np.arange(n)
        every = pauli.string_matrices(np.arange(4**n)[:, None] // digits % 4)
        letters = np.array([pairs[k][0].letters + pairs[k][1].letters for k in slots])
        index = letters.reshape(len(slots), 2, n) @ digits
        want = dense(every[index[:, 0]], every[index[:, 1]])
        got = np.zeros_like(want)
        for slot, k in enumerate(slots):
            result = reduction(*pairs[k])
            if isinstance(result, pauli.PhasedString):
                result = pauli.PauliSum(n, {result.string.packed_index: result.phase})
            for j, c in result.terms.items():
                got[slot] += c * every[j]
        failed += [k for k, ok in zip(slots, np.all(got == want, axis=(1, 2))) if not ok]
    if failed:
        p1, p2 = pairs[min(failed)]
        return CheckResult(name, False, f"mismatch for ({p1}, {p2})")
    return CheckResult(name, True, f"{len(pairs)} {detail}")


def check_multiply_vs_dense() -> CheckResult:
    rng = np.random.default_rng(11)
    singles = [pauli.PauliString((a,)) for a in range(4)]
    pairs = [(a, b) for a in singles for b in singles] + _random_pairs(rng)
    return _dense_check("multiply_vs_dense", pairs, pauli.multiply,
                        lambda m1, m2: m1 @ m2, "products exact")


def check_involution() -> CheckResult:
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4, 5):
        for letters in rng.integers(0, 4, size=(40, n)).tolist():
            p = pauli.PauliString(tuple(letters))
            ph = pauli.multiply(p, p)
            if ph.phase != 1 or not ph.string.is_identity():
                return CheckResult("involution", False, f"{p} squared is not the identity")
    return CheckResult("involution", True, "P*P = identity on 200 random strings")


def check_transpose_sum_vs_dense() -> CheckResult:
    pairs = _random_pairs(np.random.default_rng(13))
    return _dense_check("transpose_sum_vs_dense", pairs, pauli.sym_transpose_product,
                        lambda m1, m2: (m := m1 @ m2) + m.swapaxes(1, 2), "pairs exact")


def check_commutator_vs_dense() -> CheckResult:
    """Exact equality implies a real coefficient, since -i[P1, P2] is Hermitian."""
    pairs = _random_pairs(np.random.default_rng(14))
    return _dense_check("commutator_vs_dense", pairs, pauli.minus_i_commutator,
                        lambda m1, m2: -1j * (m1 @ m2 - m2 @ m1), "pairs exact and Hermitian")


def check_design_spectrum() -> CheckResult:
    """The odd-Y design matrix A on a real unit state has d - 1 singular values sqrt(d/2).

    The matrices -i s_j of the odd-Y strings are an orthogonal basis of the
    real antisymmetric d x d matrices, each with squared Frobenius norm d,
    and column j of A is -i s_j|phi>, so A A^T = (d/2)(I - |phi><phi|).  One wrong perm or sign entry
    in ``_gram_plan``, the reference plan that ``_design_matrix``,
    ``build_gram`` and ``build_rhs`` read, breaks this.
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


def check_walsh_coefficients_vs_design() -> CheckResult:
    """A step's coefficients at threshold 0 equal 2 A^T w / (d |phi|^2), A from ``_design_matrix``.

    The step reads them off one Hadamard product over the (flip, phase)
    layout of ``_walsh_plan``, so one wrong cell or sign there fails.
    """
    rng = np.random.default_rng(18)
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
    pool, dense = qite.make_pool(qite.ODD_Y, 4), pauli.to_matrix(ham).real
    states = [random_real_state(4, rng) for _ in range(5)]
    rows = np.array([state.amplitudes.real for state in states])
    _, record = qite.step_rows(rows, ham, 0.1, pool, qite.DEFAULT_TROTTER_STEPS, 0.0,
                               qite.C_EXPONENTIAL)
    worst = 0.0
    for state, phi, a in zip(states, rows, record.a):
        want = qite._design_matrix(state, pool).T @ -(dense @ phi) * (2.0 / (16 * phi @ phi))
        worst = max(worst, float(np.max(np.abs(a - want))))
    return CheckResult("walsh_coefficients_vs_design", worst < 1e-12,
                       f"largest |a - 2 A^T w / (d |phi|^2)| {worst:.3e}")


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
    """A basis trajectory stays in its fermion-number sector to rounding.

    H conserves the fermion number N/2 + sum_n Z(n)/2, which on basis index
    i is N minus the count of one bits of i.  The leak is the probability on
    indices with another bit count.  Each flip-mask group of the Trotter
    slice is one exact pair rotation, so the leak stays at rounding (about
    1e-34 over these 20 steps); a step that mixes sectors fails the 1e-20 bound.
    """
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
    pool = qite.make_pool(qite.ODD_Y, 4)
    state = basis_state(3, 4)  # two one bits: fermion number 2
    other_sector = np.array([bin(i).count("1") != 2 for i in range(16)])
    worst = 0.0
    for _ in range(20):
        state, _ = qite.step(state, ham, 0.25, pool)
        worst = max(worst, float(np.sum(np.abs(state.amplitudes[other_sector]) ** 2)))
    ok = worst < 1e-20
    return CheckResult("number_sector_preserved", ok,
                       f"max out-of-sector probability over 20 steps {worst:.3e}")


def check_duality() -> CheckResult:
    """Minkowski at g2 and Gross-Neveu at a_mu = g2/2 differ by at most an identity term.

    A flipped Minkowski h4 sign or a doubled h4 ZZ coefficient leaves such terms.
    Spectra are not compared: without those terms they differ by a constant.
    """
    g2 = 1.3
    ham_m = model.assemble(model.ModelParams(model.MINKOWSKI, 4, 0.5, g2)).hamiltonian
    ham_gn = model.assemble(
        model.ModelParams(model.GROSS_NEVEU, 4, 0.5, 0.0, a_mu=g2 / 2)
    ).hamiltonian
    non_identity = [j for j in (ham_m - ham_gn).terms if j != 0]
    return CheckResult("duality", not non_identity,
                       f"{len(non_identity)} non-identity residual terms at g2 = {g2}")


def check_fidelity_scaling() -> CheckResult:
    rng = np.random.default_rng(17)
    ham = model.assemble(model.ModelParams(model.EUCLIDEAN, 4, 0.5, 1.0)).hamiltonian
    pool = qite.make_pool(qite.ODD_Y, 4)
    dbetas = [0.2, 0.1, 0.05, 0.025]
    states = [random_real_state(4, rng) for _ in range(3)]
    rows = np.array([state.amplitudes.real for state in states])
    infidelities = []  # one row per dbeta, one column per state
    for dbeta in dbetas:
        stepped = qite.step_rows(rows, ham, dbeta, pool, 50, 0.0, qite.C_EXPONENTIAL)[0]
        exact = [oracle.exact_imaginary_time_state(ham, state, dbeta)[0] for state in states]
        infidelities.append([max(1.0 - abs(np.vdot(new.astype(complex), e.amplitudes)) ** 2, 1e-16)
                             for new, e in zip(stepped, exact)])
    worst = float(min(np.polyfit(np.log(dbetas), np.log(infidelities), 1)[0]))
    ok = worst >= 1.9
    return CheckResult("fidelity_scaling", ok, f"smallest fitted exponent {worst:.2f}")


ALL_CHECKS = (
    check_site_tables,
    check_multiply_vs_dense,
    check_involution,
    check_transpose_sum_vs_dense,
    check_commutator_vs_dense,
    check_design_spectrum,
    check_walsh_coefficients_vs_design,
    check_h_action_vs_dense,
    check_number_sector_preserved,
    check_duality,
    check_fidelity_scaling,
)


def run_all_checks() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
