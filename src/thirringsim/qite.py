"""Quantum imaginary-time evolution steps and trajectories.

Each step solves McLachlan's least-squares problem min ||A a - w|| (McArdle
et al., npj QI 5, 75 (2019); Motta et al., Nat. Phys. 16, 205 (2020)):
column j of A is the generator -i s_j of pool string s_j applied to the
current state |phi>, and w = -H|phi>.  The Hamiltonian is real symmetric and
every state is real, and for an odd-Y string -i s_j is a real signed
permutation, so A and w are real.  The odd-Y generators are an orthogonal
basis of the real antisymmetric d x d matrices (d = 2^N), so
A A^T = (d/2)(|phi|^2 I - |phi><phi|) and the least-squares solution is
a = 2 A^T w / (d |phi|^2): no linear system is solved.  ``build_gram``,
``build_rhs`` and ``solve`` keep the Gram system G = 2 A^T A, b = 2 A^T w
of anticommutator and commutator expectations as its reference.
Coefficients below a magnitude threshold are dropped and the generator is
applied as a first-order Trotter product of Pauli rotations: the kept
rotations are multiplied once into the 2^N x 2^N matrix of one Trotter
slice, which is then applied ``trotter_steps`` times.  ``step_rows`` steps
a batch of states, each row bitwise as ``step`` steps it alone.  Chaining
steps from a basis state yields a trajectory whose running product of step
weights is the state's contribution to the thermal trace; ``measure`` then
evaluates every observable on the trajectory's stored states.

The permutation and sign arrays of the pool's generators and of the
Hamiltonian's terms are cached, so A^T w and H|phi> are one fancy index
each and a rotation is one signed row permutation of the slice matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import oracle
from .pauli import PauliString, PauliSum, cache_key, unpack
# The benchmark counts Pauli products through these two names.
from .pauli import minus_i_commutator, multiply  # noqa: F401
# The benchmark times rotations, shots and estimates through these names;
# neither the step's slice matrix nor ``measure`` calls them, so they read 0.
from .statevector import apply_rotation, sample  # noqa: F401
from .statevector import estimate_diagonal, estimate_diagonal_variance  # noqa: F401
from .statevector import (
    QuantumState,
    _operator_plan,
    _string_actions,
    basis_state,
    diagonal_moments,
    expectation,
    sample_rows,
)

ODD_Y = "odd-y"
POOL_KINDS = (ODD_Y,)

C_EXPONENTIAL = "exponential"
C_EXACT_NORM = "exact-norm"
C_MODES = (C_EXPONENTIAL, C_EXACT_NORM)

DEFAULT_SVD_CUTOFF = 1e-8
DEFAULT_THRESHOLD = 1e-3
DEFAULT_TROTTER_STEPS = 10
REAL_STATE_TOL = 1e-6

MODE_EXACT = "exact"
MODE_SHOTS = "shots"


@dataclass(frozen=True)
class OperatorPool:
    """Ordered set of generator strings: every odd-Y string once, as the step's closed form needs.

    The hash is computed once, because every plan-cache lookup hashes the pool.
    """

    n_sites: int
    kind: str
    strings: tuple[PauliString, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in POOL_KINDS:
            raise ValueError(f"unknown pool kind {self.kind!r}")
        n, size = self.n_sites, len(self.strings)
        odd_y = len({s for s in self.strings if s.n_sites == n and s.y_count() % 2})
        if not odd_y == size == (4**n - 2**n) // 2:  # the identity is not odd-Y either
            raise ValueError(f"an odd-y pool needs all {(4**n - 2**n) // 2} odd-Y strings of {n} "
                             f"sites once and no other; got {size} strings, {odd_y} distinct odd-Y")
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


@lru_cache(maxsize=None)
def make_pool(kind: str, n_sites: int) -> OperatorPool:
    """The pool of a kind, one shared object per (kind, n_sites)."""
    if kind == ODD_Y:
        return OperatorPool.odd_y(n_sites)
    raise ValueError(f"unknown pool kind {kind!r}")


@dataclass
class StepRecord:
    """Solved coefficients and bookkeeping of one imaginary-time step.

    ``residual`` is the McLachlan residual ||A a - w|| before thresholding.
    For the complete pool it is |E| / ||phi||, with E = <phi|H|phi> the
    ``energy``: no antisymmetric generator produces the -E|phi> part of w.
    """

    a: np.ndarray
    c_step: float
    energy: float
    kept_terms: int
    residual: float


@dataclass
class Trajectory:
    """K chained steps from one initial state.

    ``states[k-1]`` is the state after step k, at inverse temperature
    beta = 2*k*dbeta, in a real (K, 2^N) array;
    ``cumulative_weights[k-1]`` is the product of the first k step weights;
    ``observables[name][k-1]`` is the value measured on ``states[k-1]``.
    """

    initial_index: int
    records: list[StepRecord]
    cumulative_weights: list[float]
    states: np.ndarray
    observables: dict[str, list[float]] = field(default_factory=dict)
    observable_variances: dict[str, list[float]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the McLachlan least-squares problem min ||A a - w||


@lru_cache(maxsize=8)
def _gram_plan(pool: OperatorPool):
    """(pool, 2^N) perm and generator arrays: (-i s_j|phi>)[i] = gens[j, i] * phi[perms[j, i]].

    The phases of an odd-Y string are imaginary, so each generator -i s_j
    is a real signed permutation.
    """
    perms, phases = _string_actions(np.array([s.letters for s in pool.strings]))
    return perms, np.ascontiguousarray(phases.imag)


@lru_cache(maxsize=16)
def _rhs_plan(pool: OperatorPool, ham_key: tuple):
    """Perms and real coefficient-weighted phases of the Hamiltonian's terms.

    The real step follows only a real-symmetric H: real coefficients on
    strings with an even Y count.  Any other term raises ValueError.
    """
    n_sites, items = ham_key
    if n_sites != pool.n_sites:
        raise ValueError("pool and Hamiltonian act on different site counts")
    for j, c in items:
        term = PauliString.from_index(j, n_sites)
        if abs(c.imag) > 1e-12:
            raise ValueError(f"the Hamiltonian must have real coefficients; term {term} has {c:g}")
        if term.y_count() % 2:
            raise ValueError(
                f"the Hamiltonian term {term} has an odd Y count, so H is not a real matrix "
                "and the real QITE step cannot follow it"
            )
    perms, phases = _operator_plan(ham_key)
    return perms, phases.real


def _check_pool_state(state: QuantumState, pool: OperatorPool) -> None:
    if state.n_sites != pool.n_sites:
        raise ValueError("state and pool act on different site counts")
    if state.max_imag() > REAL_STATE_TOL:
        raise ValueError(
            f"the QITE step requires a real-amplitude state (max |imag| = {state.max_imag():.3e})"
        )


def _design_matrix(state: QuantumState, pool: OperatorPool) -> np.ndarray:
    """A, whose column j is -i s_j|phi>."""
    _check_pool_state(state, pool)
    perms, gens = _gram_plan(pool)
    return (gens * state.amplitudes.real[perms]).T


def _h_action(amps: np.ndarray, pool: OperatorPool, ham: PauliSum) -> np.ndarray:
    """H|phi> of each real row of a (B, 2^N) array; -H|phi> is w, the imaginary-time derivative."""
    perms, phases = _rhs_plan(pool, cache_key(ham))
    return np.sum(phases * amps[:, perms], axis=1)


def build_gram(state: QuantumState, pool: OperatorPool) -> np.ndarray:
    """Symmetric matrix of anticommutator expectations over the pool.

    Entry (j1, j2) is <phi|s_j1 s_j2 + s_j2 s_j1|phi> = 2 A^T A, twice the
    Gram matrix of the vectors -i s_j|phi>, so it is positive semidefinite.
    """
    m = _design_matrix(state, pool)
    return 2.0 * (m.T @ m)


def build_rhs(state: QuantumState, pool: OperatorPool, ham: PauliSum) -> np.ndarray:
    """Commutator expectations against the Hamiltonian.

    Component j is sum_j' h_j' <phi| -i(s_j s_j' - s_j' s_j) |phi> = 2 (A^T w)_j,
    the generator ordering that drives the state toward exp(-dbeta H)|phi>.
    """
    m = _design_matrix(state, pool)
    return 2.0 * (m.T @ -_h_action(state.amplitudes.real[None], pool, ham)[0])


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
    """Matrices of one first-order Trotter slice, prod_j exp(-i angles[..., j] s_j).

    The rotations act in ascending pool order, each as
    exp(-i t s_j) = cos t I + sin t (-i s_j) on the rows of the running
    product; a zero angle is an exact identity, so only strings with a
    nonzero angle for some leading (batch) index are visited.  -i s_j is
    the real signed permutation (perms[j], gens[j]), so a slice is real orthogonal.
    """
    perms, gens = _gram_plan(pool)
    live = np.flatnonzero(np.any(angles.reshape(-1, angles.shape[-1]), axis=0))
    sin_gens = np.sin(angles[..., live, None]) * gens[live]
    cos = np.cos(angles[..., live, None, None])
    u = np.eye(perms.shape[1]) * np.ones(angles.shape[:-1] + (1, 1))
    for k, j in enumerate(live):
        rotated = np.take(u, perms[j], axis=-2)
        rotated *= sin_gens[..., k, :, None]
        u *= cos[..., k, :, :]
        u += rotated
    return u


def _c_step_values(phi: np.ndarray, ham: PauliSum, dbeta: float, energy: np.ndarray,
                   c_mode: str) -> list[float]:
    if c_mode == C_EXPONENTIAL:
        return [math.exp(-2.0 * dbeta * e) for e in energy.tolist()]
    if c_mode == C_EXACT_NORM:
        sd = oracle.spectral(ham)  # ||e^{-dbeta H} phi||^2 = sum_k e^{-2 dbeta l_k} <v_k|phi>^2
        overlaps = np.sum(phi[:, :, None] * sd.eigenvectors, axis=1)
        return np.sum(np.exp(-2.0 * dbeta * sd.eigenvalues) * overlaps**2, axis=1).tolist()
    raise ValueError(f"unknown c_mode {c_mode!r}; expected one of {C_MODES}")


def step_rows(amps: np.ndarray, ham: PauliSum, dbeta: float, pool: OperatorPool, trotter_steps: int,
              threshold: float, c_mode: str) -> tuple[np.ndarray, list[StepRecord]]:
    """``step`` of each real row of a (B, 2^N) array: the new rows and one StepRecord per row.

    Every reduction runs within one row, so a row's result does not depend
    on the other rows, bit for bit.
    """
    if not (math.isfinite(dbeta) and dbeta >= 0):
        raise ValueError("dbeta must be finite and non-negative")
    if trotter_steps < 1:
        raise ValueError("trotter_steps must be at least 1")
    amps = np.ascontiguousarray(amps, dtype=float)
    if not np.all(np.isfinite(amps)):
        raise ValueError("non-finite state amplitudes")
    perms, gens = _gram_plan(pool)
    # rows per pass: their (rows, pool, 2^N) products take about 2 MB (16 rows at N = 4, 2 at N = 6)
    new, records, chunk = np.empty_like(amps), [], max(1, 2**21 // perms.nbytes)
    for lo in range(0, len(amps), chunk):
        phi = amps[lo:lo + chunk]
        h_phi = _h_action(phi, pool, ham)
        energy, norm2 = np.sum(phi * h_phi, axis=1), np.sum(phi * phi, axis=1)
        c_step = _c_step_values(phi, ham, dbeta, energy, c_mode)
        # A^T w, summed along one row of a 2-D view so that rows stay bitwise independent
        at_w = phi[:, perms] * gens
        at_w *= -h_phi[:, None, :]
        at_w = np.sum(at_w.reshape(-1, perms.shape[1]), axis=1).reshape(len(phi), -1)
        a = at_w * (2.0 / (perms.shape[1] * norm2))[:, None]
        a = np.where(np.abs(a) > threshold, a, 0.0)
        kept = np.count_nonzero(a, axis=1)
        if dbeta > 0 and kept.any():
            u = _trotter_slice(pool, a * (dbeta / trotter_steps))
            phi = np.matmul(np.linalg.matrix_power(u, trotter_steps), phi[:, :, None])[:, :, 0]
        new[lo:lo + chunk] = phi / np.sqrt(np.sum(phi * phi, axis=1))[:, None]
        residual = np.abs(energy) / np.sqrt(norm2)
        records += map(StepRecord, a, c_step, energy.tolist(), kept.tolist(), residual.tolist())
    return new, records


def step(
    state: QuantumState,
    ham: PauliSum,
    dbeta: float,
    pool: OperatorPool,
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
    threshold: float = DEFAULT_THRESHOLD,
    c_mode: str = C_EXPONENTIAL,
) -> tuple[QuantumState, StepRecord]:
    """One imaginary-time step of size dbeta.

    Takes the closed-form coefficients, zeroes those at or below the
    magnitude threshold, multiplies the kept rotations in ascending packed
    order into one Trotter-slice matrix, applies that slice
    ``trotter_steps`` times, and returns the normalized state with the
    step record.  The state must be real and the Hamiltonian real
    symmetric; anything else raises ValueError.
    """
    _check_pool_state(state, pool)
    amps, records = step_rows(
        state.amplitudes.real[None], ham, dbeta, pool, trotter_steps, threshold, c_mode
    )
    return QuantumState(state.n_sites, amps[0]), records[0]


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def measure(
    trajectory: Trajectory, observables: dict[str, PauliSum], mode: str = MODE_EXACT,
    shots: int = 1024, seed: int = 0,
) -> Trajectory:
    """The trajectory with every observable measured on its stored states.

    Exact mode evaluates each observable on all K states at once.  Shots
    mode draws one batch of ``shots`` per step k, with a seed derived from
    (seed, label, k), that serves every observable; all K at once.
    """
    states, label = trajectory.states, trajectory.initial_index
    values, variances = {}, {}
    if mode == MODE_SHOTS:
        seeds = [_derived_seed(seed, label, k) for k in range(1, len(states) + 1)]
        counts = sample_rows(states, shots, seeds)
        for name, obs in observables.items():
            mean, variance = diagonal_moments(counts, shots, obs)
            values[name], variances[name] = mean.tolist(), variance.tolist()
    elif mode == MODE_EXACT:
        for name, obs in observables.items():
            values[name] = expectation(states, obs).real.tolist()
            variances[name] = [0.0] * len(states)
    else:
        raise ValueError(f"unknown measurement mode {mode!r}")
    return replace(trajectory, observables=values, observable_variances=variances)


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
) -> Trajectory:
    """Chain ``n_steps`` steps from an explicit initial state, then ``measure`` them.

    Step k corresponds to inverse temperature beta = 2*k*dbeta.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    records: list[StepRecord] = []
    states = []
    for _ in range(n_steps):
        state, record = step(state, ham, dbeta, pool, trotter_steps, threshold, c_mode)
        records.append(record)
        states.append(state.amplitudes.real)
    states = np.array(states)
    weights = np.cumprod([r.c_step for r in records]).tolist()
    return measure(Trajectory(label, records, weights, states), observables, mode, shots, seed)


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
) -> Trajectory:
    """Trajectory started from the computational basis state ``initial_index``."""
    state = basis_state(initial_index, ham.n_sites)
    return run_trajectory_from_state(
        state, initial_index, ham, dbeta, n_steps, observables, pool,
        mode, shots, seed, trotter_steps, threshold, c_mode,
    )

