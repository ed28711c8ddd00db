"""Thermal simulation of the lattice massive Thirring model.

The package couples a Pauli-string quantum-imaginary-time-evolution
simulator (statevector backend) with an exact-diagonalization oracle, so
every stochastic result can be validated point by point.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    CHIRAL_CONDENSATE,
    EUCLIDEAN,
    FERMION_NUMBER,
    GROSS_NEVEU,
    MINKOWSKI,
    HamiltonianSet,
    ModelParams,
    assemble,
    default_observables,
)
from .pauli import (  # noqa: F401
    PauliString,
    PauliSum,
    PhasedString,
    minus_i_commutator,
    multiply,
    sym_transpose_product,
    to_matrix,
)
from .qite import OperatorPool, StepRecord, Trajectories, run_trajectory, step  # noqa: F401
from .statevector import QuantumState, ShotCounts, basis_state, expectation  # noqa: F401
from .thermal import ThermalTable, qmetts_average, stochastic_trace_average  # noqa: F401
