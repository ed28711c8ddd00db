"""Helpers shared by the test modules."""
import numpy as np

from thirringsim.pauli import PauliString


def random_string(n_sites: int, rng: np.random.Generator) -> PauliString:
    """Uniformly random Pauli string from one ``rng.integers`` draw of its letters."""
    return PauliString(tuple(int(l) for l in rng.integers(0, 4, size=n_sites)))
