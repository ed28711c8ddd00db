"""Quantum imaginary-time evolution steps and trajectories.

Each step solves McLachlan's least-squares problem min ||A a - w|| (McArdle
et al., npj QI 5, 75 (2019); Motta et al., Nat. Phys. 16, 205 (2020)):
column j of A is the pool string s_j applied to the current state |phi>,
and w = -i H|phi>.  The real coefficients a solve one real system by
truncated-SVD least squares: [Re A; Im A] against [Re w; Im w], or Im A
against Im w for the odd-Y pool on a real state.  Its normal equations are
the Gram system G = 2 Re(A^H A), b = 2 Re(A^H w) of anticommutator and
commutator expectations, which ``build_gram`` and ``build_rhs`` derive.
Coefficients below a magnitude threshold are dropped and the generator is
applied as a first-order Trotter product of Pauli rotations: the kept
rotations are multiplied once into the 2^N x 2^N matrix of one Trotter
slice, which is then applied ``trotter_steps`` times.  Chaining steps from
a basis state yields a trajectory with per-step weights whose running
product is the state's contribution to the thermal trace.

The permutation and phase arrays of the pool strings and of the
Hamiltonian's terms are cached, so A and w are one fancy index each and a
rotation is one row permutation and scaling of the slice matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import oracle
from .pauli import PauliString, PauliSum, cache_key, unpack
# The benchmark counts Pauli products through these two names.
from .pauli import minus_i_commutator, multiply  # noqa: F401
# The benchmark times rotations through this name; the step's slice matrix
# does not call it, so its rotation count reads 0.
from .statevector import apply_rotation  # noqa: F401
from .statevector import (
    QuantumState,
    _string_action,
    basis_state,
    estimate_diagonal,
    estimate_diagonal_variance,
    expectation,
    sample,
)

ODD_Y = "odd-y"
FULL = "full-minus-identity"
POOL_KINDS = (ODD_Y, FULL)

C_LINEAR = "linear"
C_EXPONENTIAL = "exponential"
C_EXACT_NORM = "exact-norm"
C_MODES = (C_LINEAR, C_EXPONENTIAL, C_EXACT_NORM)

B_UNIT = "unit"
B_INVERSE_SQRT_C = "inverse-sqrt-c"
B_SCALINGS = (B_UNIT, B_INVERSE_SQRT_C)

DEFAULT_SVD_CUTOFF = 1e-8
DEFAULT_THRESHOLD = 1e-3
DEFAULT_TROTTER_STEPS = 10
REAL_STATE_TOL = 1e-6

MODE_EXACT = "exact"
MODE_SHOTS = "shots"


class NonPositiveWeightError(RuntimeError):
    """Raised when the linear weight 1 - 2*dbeta*<H> is not positive."""


@dataclass(frozen=True)
class OperatorPool:
    """Ordered set of generator strings; the identity never appears.

    The hash is computed once, because every plan-cache lookup hashes the pool.
    """

    n_sites: int
    kind: str
    strings: tuple[PauliString, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in POOL_KINDS:
            raise ValueError(f"unknown pool kind {self.kind!r}")
        if any(s.is_identity() for s in self.strings):
            raise ValueError("the identity string cannot be a generator")
        if len(set(self.strings)) != len(self.strings):
            raise ValueError("pool contains duplicate strings")
        object.__setattr__(self, "_hash", hash((self.n_sites, self.kind, self.strings)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.strings)

    @classmethod
    def odd_y(cls, n_sites: int) -> "OperatorPool":
        """Strings with an odd Y count, in ascending packed order.

        On real states with a real-symmetric Hamiltonian the b component of
        every even-Y string vanishes, so this restriction is lossless.
        """
        strings = []
        for j in range(1, 4**n_sites):
            letters = unpack(j, n_sites)
            if sum(1 for l in letters if l == 2) % 2 == 1:
                strings.append(PauliString(letters))
        return cls(n_sites, ODD_Y, tuple(strings))

    @classmethod
    def full_minus_identity(cls, n_sites: int) -> "OperatorPool":
        strings = tuple(PauliString(unpack(j, n_sites)) for j in range(1, 4**n_sites))
        return cls(n_sites, FULL, strings)


@lru_cache(maxsize=None)
def make_pool(kind: str, n_sites: int) -> OperatorPool:
    """The pool of a kind, one shared object per (kind, n_sites)."""
    if kind == ODD_Y:
        return OperatorPool.odd_y(n_sites)
    if kind == FULL:
        return OperatorPool.full_minus_identity(n_sites)
    raise ValueError(f"unknown pool kind {kind!r}")


@dataclass
class StepRecord:
    """Solved coefficients and bookkeeping of one imaginary-time step.

    ``residual`` is the McLachlan residual ||A a - w|| before thresholding
    (its imaginary part for the odd-Y pool, which is all of it for real H).
    """

    a: np.ndarray
    c_step: float
    energy: float
    kept_terms: int
    residual: float


@dataclass
class Trajectory:
    """K chained steps from one initial state.

    ``cumulative_weights[k-1]`` is the product of the first k step weights;
    ``observables[name][k-1]`` is the measured value after step k, at
    inverse temperature beta = 2*k*dbeta.
    """

    initial_index: int
    records: list[StepRecord]
    cumulative_weights: list[float]
    observables: dict[str, list[float]]
    observable_variances: dict[str, list[float]]


# ---------------------------------------------------------------------------
# the McLachlan least-squares problem min ||A a - w||


@lru_cache(maxsize=8)
def _gram_plan(pool: OperatorPool):
    """(pool, 2^N) perm and phase arrays: (s_j|phi>)[i] = phases[j, i] * phi[perms[j, i]]."""
    actions = [_string_action(s.letters) for s in pool.strings]
    return np.array([p for p, _ in actions]), np.array([ph for _, ph in actions])


@lru_cache(maxsize=16)
def _rhs_plan(pool: OperatorPool, ham_key: tuple):
    """Perm arrays of the Hamiltonian's terms and their phase arrays times the coefficients."""
    n_sites, items = ham_key
    if n_sites != pool.n_sites:
        raise ValueError("pool and Hamiltonian act on different site counts")
    actions = [_string_action(unpack(j, n_sites)) for j, _ in items]
    perms = np.array([p for p, _ in actions], dtype=np.intp).reshape(len(items), 2**n_sites)
    phases = np.array([c * ph for (_, ph), (_, c) in zip(actions, items)], dtype=complex)
    return perms, phases.reshape(perms.shape)


def _check_pool_state(state: QuantumState, pool: OperatorPool) -> None:
    if state.n_sites != pool.n_sites:
        raise ValueError("state and pool act on different site counts")
    if pool.kind == ODD_Y and state.max_imag() > REAL_STATE_TOL:
        raise ValueError(
            "the odd-Y pool requires a real-amplitude state "
            f"(max |imag| = {state.max_imag():.3e}); use the full pool instead"
        )


def _real_rows(pool: OperatorPool, z: np.ndarray) -> np.ndarray:
    """Im z for the odd-Y pool (A is imaginary on real states), else [Re z; Im z]."""
    return z.imag if pool.kind == ODD_Y else np.concatenate([z.real, z.imag])


def _design_matrix(state: QuantumState, pool: OperatorPool) -> np.ndarray:
    """Real form of A, whose column j is s_j|phi>."""
    _check_pool_state(state, pool)
    perms, phases = _gram_plan(pool)
    return _real_rows(pool, (phases * state.amplitudes[perms]).T)


def _target(state: QuantumState, pool: OperatorPool, ham: PauliSum) -> np.ndarray:
    """Real form of w = -i H|phi>, the imaginary-time derivative of the state."""
    if not ham.is_hermitian():
        raise ValueError("the Hamiltonian must have real coefficients")
    perms, phases = _rhs_plan(pool, cache_key(ham))
    return _real_rows(pool, -1j * np.sum(phases * state.amplitudes[perms], axis=0))


def build_gram(state: QuantumState, pool: OperatorPool) -> np.ndarray:
    """Symmetric matrix of anticommutator expectations over the pool.

    Entry (j1, j2) is <phi|s_j1 s_j2 + s_j2 s_j1|phi> = 2 Re(A^H A), twice
    the real Gram matrix of the vectors s_j|phi>, so it is positive
    semidefinite for any state.
    """
    m = _design_matrix(state, pool)
    return 2.0 * (m.T @ m)


def build_rhs(state: QuantumState, pool: OperatorPool, ham: PauliSum, c_step: float) -> np.ndarray:
    """Commutator expectations against the Hamiltonian, scaled by 1/sqrt(C).

    Component j is sum_j' h_j' <phi| -i(s_j s_j' - s_j' s_j) |phi> / sqrt(C)
    = 2 Re(A^H w)_j / sqrt(C), the generator ordering that drives the state
    toward exp(-dbeta H)|phi>.
    """
    if c_step <= 0:
        raise NonPositiveWeightError(f"c_step must be positive, got {c_step}")
    m = _design_matrix(state, pool)
    return 2.0 * (m.T @ _target(state, pool, ham)) / math.sqrt(c_step)


def solve(matrix: np.ndarray, rhs: np.ndarray, svd_cutoff: float = DEFAULT_SVD_CUTOFF):
    """Minimum-norm least-squares solution with singular-value truncation.

    Singular values below ``svd_cutoff`` times the largest one count as
    zero.  Returns (a, residual_norm).  The systems of a step are
    generically rank deficient, so plain solves are not an option.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(rhs))):
        raise ValueError("non-finite entries in the linear system")
    a, *_ = np.linalg.lstsq(matrix, rhs, rcond=svd_cutoff)
    residual = float(np.linalg.norm(matrix @ a - rhs))
    return a, residual


def _trotter_slice(pool: OperatorPool, angles: np.ndarray) -> np.ndarray:
    """Matrix of one first-order Trotter slice, prod_j exp(-i angles[j] s_j).

    The rotations with a nonzero angle act in ascending pool order, each as
    exp(-i t s) = cos t I + sin t (-i s) on the rows of the running product.
    -i s_j is the permutation perms[j] with phases -i phases[j], which for
    the odd-Y pool are the real numbers phases[j].imag, so the slice is real.
    """
    perms, phases = _gram_plan(pool)
    real = pool.kind == ODD_Y
    kept = np.flatnonzero(angles)
    u = np.eye(perms.shape[1], dtype=float if real else complex)
    for j, sin, cos in zip(kept, np.sin(angles[kept]), np.cos(angles[kept])):
        gen = phases[j].imag if real else -1j * phases[j]
        rotated = u[perms[j]]
        rotated *= (sin * gen)[:, None]
        u *= cos
        u += rotated
    return u


def _c_step_value(state: QuantumState, ham: PauliSum, dbeta: float, energy: float, c_mode: str) -> float:
    if c_mode == C_LINEAR:
        c = 1.0 - 2.0 * dbeta * energy
        if c <= 0:
            raise NonPositiveWeightError(
                f"linear weight 1 - 2*dbeta*<H> = {c:.6g} is not positive at "
                f"dbeta = {dbeta}; rerun with c_mode='exponential' or 'exact-norm'"
            )
        return c
    if c_mode == C_EXPONENTIAL:
        return math.exp(-2.0 * dbeta * energy)
    if c_mode == C_EXACT_NORM:
        return oracle.exact_imaginary_time_state(ham, state, dbeta)[1]
    raise ValueError(f"unknown c_mode {c_mode!r}; expected one of {C_MODES}")


def step(
    state: QuantumState,
    ham: PauliSum,
    dbeta: float,
    pool: OperatorPool,
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
    threshold: float = DEFAULT_THRESHOLD,
    c_mode: str = C_EXPONENTIAL,
    svd_cutoff: float = DEFAULT_SVD_CUTOFF,
    b_scaling: str = B_UNIT,
) -> tuple[QuantumState, StepRecord]:
    """One imaginary-time step of size dbeta.

    Solves for the generator coefficients, zeroes those at or below the
    magnitude threshold, multiplies the kept rotations in ascending packed
    order into one Trotter-slice matrix, applies that slice
    ``trotter_steps`` times, and returns the normalized state with the
    step record.

    ``b_scaling`` selects the normalization of the solved generator.  The
    default ``unit`` drops the 1/sqrt(C) factor from the linear system,
    which is what first-order matching against the normalized
    imaginary-time state demands; ``inverse-sqrt-c`` keeps the factor,
    which shrinks every rotation by sqrt(C) and visibly under-evolves
    trajectories whose energy is far from zero.
    """
    if not (math.isfinite(dbeta) and dbeta >= 0):
        raise ValueError("dbeta must be finite and non-negative")
    if trotter_steps < 1:
        raise ValueError("trotter_steps must be at least 1")
    if b_scaling not in B_SCALINGS:
        raise ValueError(f"unknown b_scaling {b_scaling!r}; expected one of {B_SCALINGS}")
    matrix = _design_matrix(state, pool)
    rhs = _target(state, pool, ham)
    energy = expectation(state, ham).real
    c_step = _c_step_value(state, ham, dbeta, energy, c_mode)
    if b_scaling == B_INVERSE_SQRT_C:
        rhs = rhs / math.sqrt(c_step)
    # G = 2 A^T A has the squared singular values of A, so its cutoff maps
    # to the square root on A
    a, residual = solve(matrix, rhs, math.sqrt(svd_cutoff))
    a = np.where(np.abs(a) > threshold, a, 0.0)
    kept = int(np.count_nonzero(a))
    amps = state.amplitudes
    if dbeta > 0 and kept > 0:
        u = _trotter_slice(pool, a * (dbeta / trotter_steps))
        amps = np.linalg.matrix_power(u, trotter_steps) @ amps
    new_state = QuantumState(state.n_sites, amps).normalized()
    return new_state, StepRecord(a, c_step, energy, kept, residual)


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def run_trajectory_from_state(
    state: QuantumState,
    label: int,
    ham: PauliSum,
    dbeta: float,
    n_steps: int,
    observables: dict[str, PauliSum],
    pool: OperatorPool,
    mode: str = MODE_EXACT,
    shots: int = 1024,
    seed: int = 0,
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
    threshold: float = DEFAULT_THRESHOLD,
    c_mode: str = C_EXPONENTIAL,
    b_scaling: str = B_UNIT,
) -> Trajectory:
    """Chain ``n_steps`` steps from an explicit initial state.

    After step k the cumulative weight and every observable are recorded;
    step k corresponds to inverse temperature beta = 2*k*dbeta.  In shots
    mode one batch of measurements per step serves all observables, with a
    sampling seed derived deterministically from (seed, label, k).
    """
    if mode not in (MODE_EXACT, MODE_SHOTS):
        raise ValueError(f"unknown measurement mode {mode!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    records: list[StepRecord] = []
    weights: list[float] = []
    obs_values: dict[str, list[float]] = {name: [] for name in observables}
    obs_vars: dict[str, list[float]] = {name: [] for name in observables}
    cumulative = 1.0
    for k in range(1, n_steps + 1):
        state, record = step(
            state, ham, dbeta, pool, trotter_steps, threshold, c_mode,
            b_scaling=b_scaling,
        )
        records.append(record)
        cumulative *= record.c_step
        weights.append(cumulative)
        if mode == MODE_SHOTS:
            counts = sample(state, shots, _derived_seed(seed, label, k))
            for name, obs in observables.items():
                obs_values[name].append(estimate_diagonal(counts, obs))
                obs_vars[name].append(estimate_diagonal_variance(counts, obs))
        else:
            for name, obs in observables.items():
                obs_values[name].append(expectation(state, obs).real)
                obs_vars[name].append(0.0)
    return Trajectory(label, records, weights, obs_values, obs_vars)


def run_trajectory(
    initial_index: int,
    ham: PauliSum,
    dbeta: float,
    n_steps: int,
    observables: dict[str, PauliSum],
    pool: OperatorPool,
    mode: str = MODE_EXACT,
    shots: int = 1024,
    seed: int = 0,
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
    threshold: float = DEFAULT_THRESHOLD,
    c_mode: str = C_EXPONENTIAL,
    b_scaling: str = B_UNIT,
) -> Trajectory:
    """Trajectory started from the computational basis state ``initial_index``."""
    state = basis_state(initial_index, ham.n_sites)
    return run_trajectory_from_state(
        state, initial_index, ham, dbeta, n_steps, observables, pool,
        mode, shots, seed, trotter_steps, threshold, c_mode, b_scaling,
    )
