"""Dense N-qubit statevector simulation.

States are complex amplitude vectors over the 2^N computational basis,
with site n mapped to bit n of the basis index (site 0 least significant)
and |0> at a site being the Z = +1 eigenstate.  Pauli strings act as a
permutation of the basis combined with a per-index phase, so every
operation here is O(2^N).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import PauliString, PauliSum, X, Y, Z, cache_key, unpack


@dataclass
class QuantumState:
    """Amplitude vector over the computational basis of n_sites qubits."""

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.n_sites,):
            raise ValueError(
                f"amplitude vector has length {self.amplitudes.shape}, expected 2^{self.n_sites}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "QuantumState":
        return QuantumState(self.n_sites, self.amplitudes / self.norm())

    def max_imag(self) -> float:
        return float(np.max(np.abs(self.amplitudes.imag)))


@dataclass(frozen=True, eq=False)
class ShotCounts:
    """Computational-basis measurement record: ``counts[i]`` shots gave basis index i."""

    shots: int
    counts: np.ndarray
    seed: int

    def __post_init__(self):
        if np.sum(self.counts) != self.shots:
            raise ValueError("counts must add up to the number of shots")


def basis_state(i: int, n_sites: int) -> QuantumState:
    """The computational basis state with index i."""
    dim = 2**n_sites
    if not 0 <= i < dim:
        raise ValueError(f"basis index {i} out of range for {n_sites} sites")
    amps = np.zeros(dim, dtype=complex)
    amps[i] = 1.0
    return QuantumState(n_sites, amps)


def random_real_state(n_sites: int, rng: np.random.Generator) -> QuantumState:
    """Haar-uniform state on the real unit sphere (real Gaussian, normalized)."""
    v = rng.standard_normal(2**n_sites)
    return QuantumState(n_sites, (v / np.linalg.norm(v)).astype(complex))


def _string_actions(letters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_string_action`` of each row of an (S, N) letter array, as (S, 2^N) perms and phases."""
    n = letters.shape[1]
    idx = np.arange(2**n)
    flip = np.zeros(len(letters), dtype=idx.dtype)
    phases = np.ones((len(letters), 2**n), dtype=complex)
    for site in range(n):
        bit = (idx >> site) & 1
        column = letters[:, site]
        flip |= ((column == X) | (column == Y)).astype(idx.dtype) << site
        y, z = column == Y, column == Z
        phases[y] = phases[y] * np.where(bit == 1, 1j, -1j)
        phases[z] = phases[z] * np.where(bit == 1, -1.0, 1.0)
    return idx ^ flip[:, None], phases


@lru_cache(maxsize=None)
def _string_action(letters: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) such that (P|phi>)[i] = phase[i] * phi[perm[i]]."""
    perms, phases = _string_actions(np.array([letters]))
    return perms[0], phases[0]


def apply_string(state: QuantumState, ps: PauliString) -> QuantumState:
    """Apply a bare Pauli string to a state."""
    if ps.n_sites != state.n_sites:
        raise ValueError("state and string act on different site counts")
    perm, phase = _string_action(ps.letters)
    return QuantumState(state.n_sites, phase * state.amplitudes[perm])


def apply_rotation(state: QuantumState, p: PauliString, theta: float) -> QuantumState:
    """Apply exp(-i*theta*P) exactly: cos(theta)*state - i*sin(theta)*(P state)."""
    if p.n_sites != state.n_sites:
        raise ValueError("state and string act on different site counts")
    if not np.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    perm, phase = _string_action(p.letters)
    amps = state.amplitudes
    out = np.cos(theta) * amps + (-1j * np.sin(theta)) * (phase * amps[perm])
    return QuantumState(state.n_sites, out)


@lru_cache(maxsize=64)
def _operator_plan(key: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Perms and coefficient-weighted phases of an operator's terms, by ``pauli.cache_key``.

    (op|phi>)[i] = sum_t phases[t, i] * phi[perms[t, i]].
    """
    n_sites, items = key
    letters = np.array([unpack(j, n_sites) for j, _ in items], dtype=int)
    perms, phases = _string_actions(letters.reshape(len(items), n_sites))
    phases = np.array([c for _, c in items], dtype=complex)[:, None] * phases
    perms.flags.writeable = phases.flags.writeable = False
    return perms, phases


def expectation(
    state: QuantumState | np.ndarray, op: PauliSum | PauliString
) -> complex | np.ndarray:
    """<state|op|state> computed exactly; real up to rounding for Hermitian op.

    A (K, 2^N) array of amplitudes, one state per row, gives K expectations.
    """
    if isinstance(op, PauliString):
        op = PauliSum(op.n_sites, {op.packed_index: 1.0})
    amps = state.amplitudes if isinstance(state, QuantumState) else state
    if amps.shape[-1] != 2**op.n_sites:
        raise ValueError("state and operator act on different site counts")
    perms, phases = _operator_plan(cache_key(op))
    values = np.sum(amps.conj() * np.sum(phases * amps[..., perms], axis=-2), axis=-1)
    return complex(values) if values.ndim == 0 else values


def sample_rows(amps: np.ndarray, shots: int, seeds: list[int]) -> np.ndarray:
    """Shot counts (K, 2^N) of the rows of a (K, 2^N) amplitude array, row k seeded ``seeds[k]``.

    Each row's CDF is searched with its generator's uniforms, as
    ``Generator.choice(2^N, size=shots, p=|row|^2)`` does, so the counts are choice's bit for bit.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = np.abs(amps) ** 2
    with np.errstate(invalid="ignore"):
        probs /= np.sum(probs, axis=-1, keepdims=True)
    if not np.all(np.isfinite(probs)):
        raise ValueError("shot probabilities are not finite: an all-zero or non-finite state")
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[:, -1:]
    draws = (row.searchsorted(np.random.default_rng(seed).random(shots), side="right")
             for row, seed in zip(cdf, seeds, strict=True))
    return np.array([np.bincount(outcomes, minlength=cdf.shape[-1]) for outcomes in draws])


def sample(state: QuantumState, shots: int, seed: int) -> ShotCounts:
    """Draw computational-basis shots i.i.d. with probability |amplitude|^2."""
    return ShotCounts(shots, sample_rows(state.amplitudes[None], shots, [seed])[0], seed)


@lru_cache(maxsize=64)
def _diagonal_eigenvalues(key: tuple) -> np.ndarray:
    """Eigenvalue on every basis index of a Z/identity-only sum, by ``pauli.cache_key``."""
    n_sites, items = key
    for j, _ in items:
        letters = unpack(j, n_sites)
        if any(l not in (0, Z) for l in letters):
            raise ValueError(
                f"operator term {PauliString(letters)} is not Z-diagonal; "
                "shot estimation only supports Z/identity observables"
            )
    eig = _operator_plan(key)[1].real.sum(axis=0)
    eig.flags.writeable = False
    return eig


def diagonal_moments(counts: np.ndarray, shots: int, op: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Shot mean of op's diagonal eigenvalues and its variance (sample variance / shots) per row.

    Each row of the (..., 2^N) counts is summed along its own axis, so it is bitwise independent.
    """
    eig = _diagonal_eigenvalues(cache_key(op))
    m1 = np.sum(counts * eig, axis=-1) / shots
    m2 = np.sum(counts * eig**2, axis=-1) / shots
    return m1, np.maximum(m2 - m1 * m1, 0.0) / shots


def estimate_diagonal(counts: ShotCounts, op: PauliSum) -> float:
    """Counts-weighted average of the diagonal eigenvalues of op."""
    return float(diagonal_moments(counts.counts, counts.shots, op)[0])


def estimate_diagonal_variance(counts: ShotCounts, op: PauliSum) -> float:
    """Plug-in variance of the shot-mean estimator (sample variance / shots)."""
    return float(diagonal_moments(counts.counts, counts.shots, op)[1])


def exact_diagonal_variance(state: QuantumState, op: PauliSum) -> float:
    """Single-shot variance of a Z-diagonal observable under |amplitude|^2."""
    eig = _diagonal_eigenvalues(cache_key(op))
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    mean = float(probs @ eig)
    return float(probs @ eig**2 - mean**2)
