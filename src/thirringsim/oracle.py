"""Exact-diagonalization ground truth.

Dense real-symmetric spectra of the Pauli-sum Hamiltonians, exact thermal
expectation values tr(e^{-beta H} O)/tr(e^{-beta H}), exact imaginary-time
evolved states, and the low-temperature phase-structure sweep that every
stochastic result in this package is validated against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import model
from .pauli import PauliSum, cache_key, to_matrix
from .statevector import QuantumState

DIM_CAP = 2**12
HERMITICITY_TOL = 1e-10
LOW_TEMPERATURE = 0.01  # in units of 1/a; beta = 100
STEP_JUMP = 0.4  # a plateau step is an adjacent-point jump larger than this
STEP_MARGIN = 0.2  # couplings this close in g2 to a plateau step are not checked
EPS = 1e-9  # g2 grids are rounded decimals; do not let fp noise flip a width or boundary test


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigenvalues and orthonormal real eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def dense_real(op: PauliSum) -> np.ndarray:
    """Dense matrix of a Hermitian sum, checked to be real symmetric."""
    if 2**op.n_sites > DIM_CAP:
        raise ValueError(f"dimension 2^{op.n_sites} exceeds the oracle cap {DIM_CAP}")
    m = to_matrix(op, site_cap=op.n_sites)
    if np.max(np.abs(m.imag)) > HERMITICITY_TOL or np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise ValueError("operator is not real symmetric in the computational basis")
    return np.ascontiguousarray(m.real)


@lru_cache(maxsize=256)
def _spectral_cached(key: tuple) -> SpectralData:
    n_sites, items = key
    ham = PauliSum(n_sites, dict(items))
    h = dense_real(ham)
    vals, vecs = np.linalg.eigh(h)
    recon = vecs @ (vals[:, None] * vecs.T)
    if np.max(np.abs(h - recon)) > 1e-10:
        raise RuntimeError("eigendecomposition failed the reconstruction check")
    if np.max(np.abs(vecs.T @ vecs - np.eye(len(vals)))) > 1e-12:
        raise RuntimeError("eigenvectors failed the orthonormality check")
    return SpectralData(vals, vecs)


def spectral(ham: PauliSum) -> SpectralData:
    """Eigendecomposition of a Hermitian Pauli sum, cached per operator."""
    return _spectral_cached(cache_key(ham))


def thermal_expectation(ham: PauliSum, obs: PauliSum, beta: float) -> float:
    """tr(e^{-beta H} O) / tr(e^{-beta H}) via the eigenbasis.

    The identity component of the Hamiltonian is stripped before
    diagonalizing (it cancels in the ratio), and the exponent is shifted
    by the minimum eigenvalue, so large beta cannot overflow.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    c0 = ham.identity_coefficient()
    if c0 != 0:
        ham = ham - PauliSum(ham.n_sites, {0: c0})
    sd = spectral(ham)
    w = np.exp(-beta * (sd.eigenvalues - sd.eigenvalues[0]))
    o = dense_real(obs)
    o_diag = np.einsum("ij,ij->j", sd.eigenvectors, o @ sd.eigenvectors)
    return float(np.dot(w, o_diag) / np.sum(w))


def thermal_expectation_grid(
    ham: PauliSum, observables: dict[str, PauliSum], betas
) -> dict[str, np.ndarray]:
    """Thermal expectations of several observables over a beta grid.

    One diagonalization and one projection per observable serve every beta.
    """
    c0 = ham.identity_coefficient()
    if c0 != 0:
        ham = ham - PauliSum(ham.n_sites, {0: c0})
    sd = spectral(ham)
    betas = np.asarray(betas, dtype=float)
    if np.any(betas < 0):
        raise ValueError("beta must be non-negative")
    w = np.exp(-np.outer(betas, sd.eigenvalues - sd.eigenvalues[0]))
    z = w.sum(axis=1)
    out = {}
    for name, obs in observables.items():
        o = dense_real(obs)
        o_diag = np.einsum("ij,ij->j", sd.eigenvectors, o @ sd.eigenvectors)
        out[name] = (w @ o_diag) / z
    return out


def exact_imaginary_time_state(
    ham: PauliSum, state: QuantumState, dbeta: float
) -> tuple[QuantumState, float]:
    """Normalized e^{-dbeta H}|state> and its squared pre-normalization norm."""
    if dbeta < 0:
        raise ValueError("dbeta must be non-negative")
    if ham.n_sites != state.n_sites:
        raise ValueError("state and Hamiltonian act on different site counts")
    sd = spectral(ham)
    coeffs = sd.eigenvectors.T @ state.amplitudes
    evolved = sd.eigenvectors @ (np.exp(-dbeta * sd.eigenvalues) * coeffs)
    c = float(np.vdot(evolved, evolved).real)
    return QuantumState(state.n_sites, evolved / np.sqrt(c)), c


def figure1_sweep(
    variant: str,
    t_grid,
    g2_grid,
    am: float = 0.5,
    n_sites: int = 4,
    a_mu: float = 0.0,
) -> list[dict]:
    """Exact observable tables over a (temperature, coupling) grid.

    ``a_mu`` is the Gross-Neveu chemical potential; temperatures are in
    units of 1/a.  Each grid point yields one row per
    observable with keys variant, g2, k (1-based T index), beta, T,
    observable, value.
    """
    t_grid = list(t_grid)
    g2_grid = list(g2_grid)
    if not t_grid or not g2_grid:
        raise ValueError("temperature and coupling grids must be non-empty")
    observables = model.default_observables(n_sites)
    betas = [1.0 / t for t in t_grid]
    rows = []
    for g2 in g2_grid:
        ham = model.assemble(model.ModelParams(variant, n_sites, am, g2, a_mu)).hamiltonian
        values = thermal_expectation_grid(ham, observables, betas)
        for name in observables:
            for k, (t, beta) in enumerate(zip(t_grid, betas), start=1):
                rows.append(
                    {
                        "variant": variant,
                        "g2": g2,
                        "k": k,
                        "beta": beta,
                        "T": t,
                        "observable": name,
                        "value": float(values[name][k - 1]),
                    }
                )
    return rows


def find_plateau_steps(g2_values, values) -> list[tuple[float, float]]:
    """Locate plateau discontinuities in a value-vs-coupling curve.

    Returns the (g2_low, g2_high) grid intervals across which the value
    jumps by more than ``STEP_JUMP``.  A sector crossing that lands on
    a grid point splits an integer jump into two half-sized ones, so the
    threshold sits below 0.5.
    """
    g2_values = list(g2_values)
    values = list(values)
    if len(g2_values) != len(values):
        raise ValueError("grid and value lists differ in length")
    steps = []
    for a, b, va, vb in zip(g2_values, g2_values[1:], values, values[1:]):
        if abs(vb - va) > STEP_JUMP:
            steps.append((a, b))
    return steps


def away_from_steps(g2: float, steps) -> bool:
    """True when g2 is at least ``STEP_MARGIN`` away from every detected step interval."""
    return all(g2 <= lo - STEP_MARGIN + EPS or g2 >= hi + STEP_MARGIN - EPS for lo, hi in steps)


def plateau_steps(variant: str, g2_grid, am=0.5, n_sites=4, a_mu=0.0) -> list[tuple[float, float]]:
    """Plateau steps of the exact ``LOW_TEMPERATURE`` fermion number, whatever the grid spacing.

    Each step interval ``find_plateau_steps`` would give on the ascending ``g2_grid``
    is halved on the exact curve until it is no wider than ``STEP_MARGIN``, keeping
    every half that still jumps by more than ``STEP_JUMP``: one interval can hold two steps.
    """
    number = model.observable_fermion_number(n_sites)

    def fermion(g2):
        ham = model.assemble(model.ModelParams(variant, n_sites, am, g2, a_mu)).hamiltonian
        return thermal_expectation(ham, number, 1.0 / LOW_TEMPERATURE)

    def located(lo, hi, v_lo, v_hi):
        if abs(v_hi - v_lo) <= STEP_JUMP:
            return []
        if hi - lo <= STEP_MARGIN + EPS:
            return [(lo, hi)]
        mid = (lo + hi) / 2
        v_mid = fermion(mid)
        return located(lo, mid, v_lo, v_mid) + located(mid, hi, v_mid, v_hi)

    values = [fermion(g2) for g2 in g2_grid]
    return [s for ends in zip(g2_grid, g2_grid[1:], values, values[1:]) for s in located(*ends)]
