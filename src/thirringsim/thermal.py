"""Thermal averaging over imaginary-time trajectories.

One trajectory per initial state is evolved, then measured on its stored
states, and combined at every intermediate step k into the weighted
average sum_i C_i O_i / sum_i C_i, so a single imaginary-time pass yields
the whole temperature grid T = 1/(2 k dbeta).
The default initial set is the complete computational basis; a random
real-state set provides a stochastic trace estimate with standard errors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum
from .qite import (
    C_EXPONENTIAL,
    DEFAULT_THRESHOLD,
    DEFAULT_TROTTER_STEPS,
    MODE_EXACT,
    MODE_SHOTS,
    OperatorPool,
    Trajectory,
    measure,
    run_trajectory,  # noqa: F401  the benchmark times basis trajectories through this name
    run_trajectory_from_state,
    step_rows,
)
from .statevector import QuantumState, random_real_state


@dataclass
class ThermalRow:
    """One (observable, step) entry of a thermal table."""

    observable: str
    k: int
    beta: float
    temperature: float
    value: float
    weight_sum: float
    n_states: int
    stderr: float | None


@dataclass
class ThermalTable:
    """Weighted thermal averages for every observable at every step."""

    dbeta: float
    n_steps: int
    rows: list[ThermalRow]

    def value(self, observable: str, k: int) -> float:
        for row in self.rows:
            if row.observable == observable and row.k == k:
                return row.value
        raise KeyError(f"no row for ({observable!r}, k={k})")


def aggregate(
    trajectories: list[Trajectory],
    observables: dict[str, PauliSum],
    dbeta: float,
    stderr_from_spread: bool = False,
    propagate_shot_errors: bool = False,
) -> ThermalTable:
    """Weighted averages of measured trajectories at every step.

    ``qite.measure`` can measure evolved trajectories again, under any
    sampling seed, so a new average needs no second evolution.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    n = len(trajectories)
    n_steps = len(trajectories[0].cumulative_weights)
    rows = []
    for name in observables:
        for k in range(1, n_steps + 1):
            weights = np.array([t.cumulative_weights[k - 1] for t in trajectories])
            values = np.array([t.observables[name][k - 1] for t in trajectories])
            weight_sum = float(np.sum(weights))
            if not 0 < weight_sum < np.inf:  # also false for nan
                raise RuntimeError(
                    f"weight sum {weight_sum:.6g} at k={k} for {name!r} is not finite and positive; "
                    f"per-state weights range [{weights.min():.3g}, {weights.max():.3g}]"
                )
            value = float(np.dot(weights, values) / weight_sum)
            stderr = None
            if propagate_shot_errors:
                shot_vars = np.array([t.observable_variances[name][k - 1] for t in trajectories])
                stderr = float(np.sqrt(np.dot(weights**2, shot_vars)) / weight_sum)
            elif stderr_from_spread and n >= 2:
                residuals = weights * values - value * weights
                stderr = float(
                    np.sqrt(n / (n - 1) * np.sum(residuals**2)) / weight_sum
                )
            rows.append(
                ThermalRow(
                    observable=name,
                    k=k,
                    beta=2.0 * k * dbeta,
                    temperature=1.0 / (2.0 * k * dbeta),
                    value=value,
                    weight_sum=weight_sum,
                    n_states=n,
                    stderr=stderr,
                )
            )
    return ThermalTable(dbeta, n_steps, rows)


def qmetts_average(
    ham: PauliSum,
    observables: dict[str, PauliSum],
    dbeta: float,
    n_steps: int,
    pool: OperatorPool,
    mode: str = MODE_EXACT,
    shots: int = 1024,
    seed: int = 0,
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
    threshold: float = DEFAULT_THRESHOLD,
    c_mode: str = C_EXPONENTIAL,
) -> ThermalTable:
    """Deterministic trace over the complete computational basis.

    The complete basis turns the weighted average into the exact trace
    formula up to evolution error.  All basis states are evolved as one
    batch, and their trajectories are averaged in ascending index order, so
    the reduction is bit-stable.
    """
    dim = 2**ham.n_sites
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    amps, records = np.eye(dim), []  # row i is basis state i
    states = np.empty((dim, n_steps, dim))
    for k in range(n_steps):
        amps, step_records = step_rows(amps, ham, dbeta, pool, trotter_steps, threshold, c_mode)
        states[:, k] = amps
        records.append(step_records)
    trajectories = [
        measure(Trajectory(label, list(own), np.cumprod([r.c_step for r in own]).tolist(), kept),
                observables, mode, shots, seed)
        for label, own, kept in zip(range(dim), zip(*records), states)
    ]
    return aggregate(trajectories, observables, dbeta, propagate_shot_errors=(mode == MODE_SHOTS))


def average_over_states(
    states: list[QuantumState],
    ham: PauliSum,
    observables: dict[str, PauliSum],
    dbeta: float,
    n_steps: int,
    pool: OperatorPool,
    mode: str = MODE_EXACT,
    shots: int = 1024,
    seed: int = 0,
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
    threshold: float = DEFAULT_THRESHOLD,
    c_mode: str = C_EXPONENTIAL,
    stderr_from_spread: bool = True,
) -> ThermalTable:
    """Weighted thermal average over an explicit list of initial states."""
    trajectories = [
        run_trajectory_from_state(
            state, label, ham, dbeta, n_steps, observables, pool,
            mode, shots, seed, trotter_steps, threshold, c_mode,
        )
        for label, state in enumerate(states)
    ]
    return aggregate(
        trajectories, observables, dbeta,
        stderr_from_spread=stderr_from_spread, propagate_shot_errors=(mode == MODE_SHOTS),
    )


def stochastic_trace_average(
    ham: PauliSum,
    observables: dict[str, PauliSum],
    n_random_states: int,
    dbeta: float,
    n_steps: int,
    pool: OperatorPool,
    mode: str = MODE_EXACT,
    seed: int = 0,
    shots: int = 1024,
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
    threshold: float = DEFAULT_THRESHOLD,
    c_mode: str = C_EXPONENTIAL,
) -> ThermalTable:
    """Unbiased trace estimate from random real initial states.

    The states are drawn Haar-uniformly on the real unit sphere (the odd-Y
    pool contract requires real amplitudes) and the reported standard error
    per row comes from the spread of the ratio estimator across states.
    """
    if n_random_states < 1:
        raise ValueError("n_random_states must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_random_states]))
    states = [random_real_state(ham.n_sites, rng) for _ in range(n_random_states)]
    return average_over_states(
        states, ham, observables, dbeta, n_steps, pool,
        mode, shots, seed, trotter_steps, threshold, c_mode,
        stderr_from_spread=True,
    )
