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
Each odd-Y string is fixed by its flip mask, phase mask and sign, so one
d x d product with the Sylvester Hadamard matrix gives A^T w for every
string at once (see ``_walsh_plan``).  Coefficients below a magnitude
threshold are dropped and the generator is applied as a first-order
Trotter product of Pauli rotations: the kept rotations are multiplied once
into the 2^N x 2^N matrix of one Trotter slice, which is then applied
``trotter_steps`` times.  The slice groups the rotations by flip mask in
ascending mask order.  Odd-Y strings with the same mask commute, so each
group's product is exactly one rotation within the basis pairs (i, i^mask),
and every group's angles are again one product with the Hadamard matrix: a
slice has 2^N - 1 factors, not one per kept string.  ``step_rows`` steps
a batch of states, each row bitwise as ``step`` steps it alone.  Chained
steps from B start states form ``Trajectories``, (B, K) arrays whose
running product of step weights is each state's contribution to the
thermal trace; ``measure`` then evaluates every observable on all the
stored states at once.

The pool's (flip, phase) layout and the Hamiltonian's perms and signs are
cached, so H|phi> is one fancy index and a group's rotation is one row
permutation of the slice matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import oracle
from .pauli import X, Y, Z, PauliString, PauliSum, cache_key, unpack
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

    ``step`` returns scalars and the (pool,) coefficients of its state; ``step_rows``
    returns one record of arrays over its B rows, ``a`` (B, pool) and the others (B,).
    ``residual`` is the McLachlan residual ||A a - w|| before thresholding.
    For the complete pool it is |E| / ||phi||, with E = <phi|H|phi> the
    ``energy``: no antisymmetric generator produces the -E|phi> part of w.
    """

    a: np.ndarray
    c_step: float | np.ndarray
    energy: float | np.ndarray
    kept_terms: int | np.ndarray
    residual: float | np.ndarray


@dataclass
class Trajectories:
    """B trajectories of K chained steps each, as arrays.

    ``labels[b]`` names trajectory b (with the sampling seed, it seeds its shots);
    ``states[b, k-1]`` is its state after step k, at inverse temperature
    beta = 2*k*dbeta, in a real (B, K, 2^N) array; ``weights[b, k-1]`` is
    the product of its first k step weights; ``energy[b, k-1]`` and
    ``kept_terms[b, k-1]`` are step k's record of its input state.
    ``measure`` fills ``observables[name]``, the (B, K) values measured on
    the states, and in shots mode ``observable_variances[name]``, the
    (B, K) variances of those shot means; exact mode leaves it empty.
    """

    labels: np.ndarray
    states: np.ndarray
    weights: np.ndarray
    energy: np.ndarray
    kept_terms: np.ndarray
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    observable_variances: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def from_steps(cls, labels, rows: list[np.ndarray], records: list[StepRecord]):
        """The trajectories whose step k gave ``rows[k-1]`` (B, 2^N) and ``records[k-1]``."""
        return cls(
            np.asarray(labels), np.stack(rows, axis=1),
            np.cumprod(np.column_stack([r.c_step for r in records]), axis=1),
            np.column_stack([r.energy for r in records]),
            np.column_stack([r.kept_terms for r in records]),
        )

    @classmethod
    def concatenate(cls, parts: list["Trajectories"]):
        """The unmeasured trajectories of ``parts``, in order, as one batch."""
        names = ("labels", "states", "weights", "energy", "kept_terms")
        return cls(*(np.concatenate([getattr(p, name) for p in parts]) for name in names))


# ---------------------------------------------------------------------------
# the McLachlan least-squares problem min ||A a - w||


@lru_cache(maxsize=8)
def _gram_plan(pool: OperatorPool):
    """(pool, 2^N) perm and generator arrays: (-i s_j|phi>)[i] = gens[j, i] * phi[perms[j, i]].

    The phases of an odd-Y string are imaginary, so each generator -i s_j
    is a real signed permutation.  The step reads ``_walsh_plan`` instead;
    this plan is the reference behind ``_design_matrix``.
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


@lru_cache(maxsize=8)
def _walsh_plan(pool: OperatorPool):
    """The pool in its (flip, phase) layout: perms, Hadamard matrix, each string's cell and sign.

    Odd-Y s_j with flip mask x_j (X/Y bits), phase mask z_j (Z/Y bits) and
    n_Y Y letters acts as (-i s_j|phi>)[i] = sigma_j H[z_j, i] phi[i^x_j],
    sigma_j = (-1)^((n_Y + 1)/2) and H[z, i] = (-1)^popcount(z & i), which is
    ``_gram_plan`` entry for entry.  Returns the (d, d) perms xor[f] = i^f,
    H, each string's cell x_j d + z_j and sigma_j.
    """
    letters = np.array([s.letters for s in pool.strings])
    idx, bits = np.arange(2**pool.n_sites), 1 << np.arange(pool.n_sites)
    flips = ((letters == X) | (letters == Y)) @ bits
    phases = ((letters == Z) | (letters == Y)) @ bits
    signs = np.where(np.count_nonzero(letters == Y, axis=1) % 4 == 1, -1.0, 1.0)
    hadamard = np.ones((1, 1))
    for _ in range(pool.n_sites):
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    return idx[:, None] ^ idx, hadamard, flips * len(idx) + phases, signs


def _trotter_slice(pool: OperatorPool, angles: np.ndarray) -> np.ndarray:
    """Matrices of one first-order Trotter slice, prod_j exp(-i angles[..., j] s_j).

    The rotations are grouped by flip mask f and the groups act in
    ascending f on the rows of the running product.  Odd-Y strings that
    share f commute (f.z is odd for both, so their symplectic product is
    even), and each generator -i s_j maps basis index i to i^f with sign
    sigma_j H[z_j, i] = -sigma_j H[z_j, i^f].  The group's product is
    therefore exactly one pair rotation,
    u[i] <- cos theta(i) u[i] + sin theta(i) u[i^f], with theta = T H, T the
    signed angles sigma_j angles[..., j] at their cells (f, z_j) of a d x d
    array: every group at once.  A group whose angles are all zero is an
    exact identity, so only groups with a nonzero angle for some leading
    (batch) index are visited.  A slice is real orthogonal.
    """
    xor, hadamard, cells, signs = _walsh_plan(pool)
    dim = len(xor)
    t = np.zeros(angles.shape[:-1] + (dim * dim,))
    t[..., cells] = angles * signs
    t = t.reshape(angles.shape[:-1] + (dim, dim))
    live = np.flatnonzero(np.any(t.reshape(-1, dim, dim), axis=(0, 2)))
    # the full d x d product, whose shape does not depend on the live groups, keeps rows independent
    theta = (t @ hadamard)[..., live, :, None]
    cos, sin = np.cos(theta), np.sin(theta)
    u = np.eye(dim) * np.ones(angles.shape[:-1] + (1, 1))
    for k, f in enumerate(live):
        rotated = np.take(u, xor[f], axis=-2)
        rotated *= sin[..., k, :, :]
        u *= cos[..., k, :, :]
        u += rotated
    return u


def _c_step_values(phi: np.ndarray, ham: PauliSum, dbeta: float, energy: np.ndarray,
                   c_mode: str) -> np.ndarray:
    if c_mode == C_EXPONENTIAL:  # math.exp per value: np.exp need not round the same way
        return np.array([math.exp(-2.0 * dbeta * e) for e in energy.tolist()])
    if c_mode == C_EXACT_NORM:
        sd = oracle.spectral(ham)  # ||e^{-dbeta H} phi||^2 = sum_k e^{-2 dbeta l_k} <v_k|phi>^2
        overlaps = np.sum(phi[:, :, None] * sd.eigenvectors, axis=1)
        return np.sum(np.exp(-2.0 * dbeta * sd.eigenvalues) * overlaps**2, axis=1)
    raise ValueError(f"unknown c_mode {c_mode!r}; expected one of {C_MODES}")


def step_rows(amps: np.ndarray, ham: PauliSum, dbeta: float, pool: OperatorPool, trotter_steps: int,
              threshold: float, c_mode: str) -> tuple[np.ndarray, StepRecord]:
    """``step`` of each real row of a (B, 2^N) array: the new rows and their StepRecord of arrays.

    Every reduction and matrix product runs within one row, so a row's
    result does not depend on the other rows, bit for bit.
    """
    if not (math.isfinite(dbeta) and dbeta >= 0):
        raise ValueError("dbeta must be finite and non-negative")
    if trotter_steps < 1:
        raise ValueError("trotter_steps must be at least 1")
    amps = np.ascontiguousarray(amps, dtype=float)
    if not np.all(np.isfinite(amps)):
        raise ValueError("non-finite state amplitudes")
    xor, hadamard, cells, signs = _walsh_plan(pool)
    # rows per pass: each (rows, 2^N, 2^N) array of the coefficients and of the slice takes
    # about 2 MB (1024 rows at N = 4, 64 at N = 6)
    new, parts, chunk = np.empty_like(amps), [], max(1, 2**21 // hadamard.nbytes)
    for lo in range(0, len(amps), chunk):
        phi = amps[lo:lo + chunk]
        h_phi = _h_action(phi, pool, ham)
        energy, norm2 = np.sum(phi * h_phi, axis=1), np.sum(phi * phi, axis=1)
        c_step = _c_step_values(phi, ham, dbeta, energy, c_mode)
        # A^T w of every (flip, phase) cell is (V H)[f, z], V[f, i] = phi[i^f] w[i]
        v = phi[:, xor]
        v *= -h_phi[:, None, :]
        at_w = (v @ hadamard).reshape(len(phi), -1)[:, cells] * signs
        a = at_w * (2.0 / (len(xor) * norm2))[:, None]
        a = np.where(np.abs(a) > threshold, a, 0.0)
        kept = np.count_nonzero(a, axis=1)
        if dbeta > 0 and kept.any():
            u = _trotter_slice(pool, a * (dbeta / trotter_steps))
            phi = np.matmul(np.linalg.matrix_power(u, trotter_steps), phi[:, :, None])[:, :, 0]
        new[lo:lo + chunk] = phi / np.sqrt(np.sum(phi * phi, axis=1))[:, None]
        parts.append((a, c_step, energy, kept, np.abs(energy) / np.sqrt(norm2)))
    return new, StepRecord(*map(np.concatenate, zip(*parts)))


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

    Takes the closed-form coefficients from one Hadamard product (see
    ``_walsh_plan``), zeroes those at or below the magnitude threshold,
    multiplies the kept rotations into one Trotter-slice matrix, one exact
    pair rotation per flip mask in ascending mask order (see
    ``_trotter_slice``), applies that slice ``trotter_steps`` times, and
    returns the normalized state with the step record.  The state must be
    real and the Hamiltonian real symmetric; anything else raises ValueError.
    """
    _check_pool_state(state, pool)
    amps, batch = step_rows(
        state.amplitudes.real[None], ham, dbeta, pool, trotter_steps, threshold, c_mode
    )
    a, *scalars = (field[0] for field in vars(batch).values())
    return QuantumState(state.n_sites, amps[0]), StepRecord(a, *(x.item() for x in scalars))


def measure(
    trajectories: Trajectories, observables: dict[str, PauliSum], *, mode: str = MODE_EXACT,
    shots: int = 1024, seed: int = 0,
) -> Trajectories:
    """The trajectories with every observable measured on all their stored states at once.

    Exact mode evaluates each observable on the (B, K, 2^N) states in one
    call.  Shots mode draws ``shots`` per state: trajectory b's K states in
    one ``sample_rows`` call seeded (seed, labels[b]), so its counts do not
    depend on the rest of the batch.  Every observable reads those counts.
    """
    states, values, variances = trajectories.states, {}, {}
    if mode == MODE_SHOTS:
        counts = np.array([sample_rows(rows, shots, (seed, label)) for rows, label
                           in zip(states, trajectories.labels.tolist())]).reshape(states.shape)
        for name, obs in observables.items():
            values[name], variances[name] = diagonal_moments(counts, shots, obs)
    elif mode == MODE_EXACT:
        for name, obs in observables.items():
            values[name] = expectation(states, obs).real
    else:
        raise ValueError(f"unknown measurement mode {mode!r}")
    return replace(trajectories, observables=values, observable_variances=variances)


def run_trajectory_from_state(
    state: QuantumState,
    label: int,
    ham: PauliSum,
    dbeta: float,
    n_steps: int,
    pool: OperatorPool,
    *,
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
    threshold: float = DEFAULT_THRESHOLD,
    c_mode: str = C_EXPONENTIAL,
) -> Trajectories:
    """One trajectory of ``n_steps`` ``step`` calls from an explicit initial state, unmeasured.

    Step k corresponds to inverse temperature beta = 2*k*dbeta.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    rows, records = [], []
    for _ in range(n_steps):
        state, record = step(state, ham, dbeta, pool, trotter_steps, threshold, c_mode)
        rows.append(state.amplitudes.real[None])
        records.append(record)
    return Trajectories.from_steps([label], rows, records)


def run_trajectory(
    initial_index: int,
    ham: PauliSum,
    dbeta: float,
    n_steps: int,
    pool: OperatorPool,
    *,
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
    threshold: float = DEFAULT_THRESHOLD,
    c_mode: str = C_EXPONENTIAL,
) -> Trajectories:
    """``run_trajectory_from_state`` from the computational basis state ``initial_index``."""
    state = basis_state(initial_index, ham.n_sites)
    return run_trajectory_from_state(
        state, initial_index, ham, dbeta, n_steps, pool,
        trotter_steps=trotter_steps, threshold=threshold, c_mode=c_mode,
    )
