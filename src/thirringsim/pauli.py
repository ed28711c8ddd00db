"""Exact algebra of N-site Pauli strings.

A Pauli string is a tensor product of single-site letters, encoded as
integers 0..3 for I, X, Y, Z.  Strings are packed into a single index
j = sum_n l_n * 4**n with site 0 as the least significant base-4 digit.

Products are reduced through four 4x4 site tables (M_a .. M_d) instead of
dense matrices: M_a gives the product letter, M_b marks letter pairs that
pick up a factor of i, M_c encodes the sign of that factor, and M_d marks
sites whose product letter is Y (the letters that flip sign under matrix
transposition).  The product-plus-transpose sum and the commutator follow
from the product: the first by the M_d parity, the second by its phase.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

I, X, Y, Z = 0, 1, 2, 3
LETTER_NAMES = "IXYZ"
_LETTERS = frozenset(range(4))

# Single-site matrices, site-to-bit convention: |0> is the Z = +1 eigenstate.
_SITE_MATRICES = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

COEFF_PRUNE_TOL = 1e-14
MATRIX_SITE_CAP = 10


@dataclass(frozen=True)
class SiteTables:
    """The four 4x4 integer tables driving all single-site reductions."""

    m_a: np.ndarray
    m_b: np.ndarray
    m_c: np.ndarray
    m_d: np.ndarray

    def check(self) -> None:
        """Raise AssertionError if the tables violate their structural invariants."""
        for name in ("m_a", "m_b", "m_c", "m_d"):
            t = getattr(self, name)
            assert t.shape == (4, 4), f"{name} must be 4x4"
        assert np.array_equal(self.m_a, self.m_a.T), "m_a must be symmetric"
        assert np.array_equal(self.m_b, self.m_b.T), "m_b must be symmetric"
        assert np.array_equal(self.m_d, (self.m_a == 2).astype(int)), (
            "m_d must mark exactly the letter pairs whose product is Y"
        )


TABLES = SiteTables(
    m_a=np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]),
    m_b=np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]),
    m_c=np.array([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]),
    m_d=np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
)


def pack(letters) -> int:
    """Base-4 positional encoding of a letter sequence, site 0 least significant."""
    j = 0
    for n, letter in enumerate(letters):
        if not 0 <= letter <= 3:
            raise ValueError(f"letter index {letter} at site {n} is outside 0..3")
        j += letter * 4**n
    return j


def unpack(j: int, n_sites: int) -> tuple[int, ...]:
    """Inverse of :func:`pack`."""
    if not 0 <= j < 4**n_sites:
        raise ValueError(f"packed index {j} out of range for {n_sites} sites")
    letters = []
    for _ in range(n_sites):
        letters.append(j % 4)
        j //= 4
    return tuple(letters)


@dataclass(frozen=True)
class PauliString:
    """An N-site tensor product of Pauli letters."""

    letters: tuple[int, ...]

    def __post_init__(self):
        if len(self.letters) == 0:
            raise ValueError("a Pauli string needs at least one site")
        if not _LETTERS.issuperset(self.letters):
            raise ValueError(f"invalid letters {self.letters}")

    @property
    def n_sites(self) -> int:
        return len(self.letters)

    @property
    def packed_index(self) -> int:
        return pack(self.letters)

    @classmethod
    def from_index(cls, j: int, n_sites: int) -> "PauliString":
        return cls(unpack(j, n_sites))

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a label such as ``"XYIZ"``; the leftmost character is site 0."""
        try:
            return cls(tuple(LETTER_NAMES.index(c) for c in label.upper()))
        except ValueError:
            raise ValueError(f"invalid Pauli label {label!r}") from None

    @classmethod
    def identity(cls, n_sites: int) -> "PauliString":
        return cls((0,) * n_sites)

    @classmethod
    def single(cls, n_sites: int, site: int, letter: int) -> "PauliString":
        """One non-identity letter on the given site."""
        if not 0 <= site < n_sites:
            raise ValueError(f"site {site} out of range for {n_sites} sites")
        letters = [0] * n_sites
        letters[site] = letter
        return cls(tuple(letters))

    def y_count(self) -> int:
        return sum(1 for l in self.letters if l == Y)

    def is_identity(self) -> bool:
        return all(l == 0 for l in self.letters)

    def __str__(self) -> str:
        return "".join(LETTER_NAMES[l] for l in self.letters)


@dataclass(frozen=True)
class PhasedString:
    """A Pauli string together with a fourth-root-of-unity phase."""

    phase: complex
    string: PauliString

    def __post_init__(self):
        if self.phase not in (1, -1, 1j, -1j):
            raise ValueError(f"phase {self.phase} is not a fourth root of unity")


def multiply(p1: PauliString, p2: PauliString) -> PhasedString:
    """Forward product p1 * p2 as (phase, string).

    The sign uses the transposed-M_c convention, which is the one that
    reproduces sigma^x sigma^y = +i sigma^z on single sites.
    """
    if p1.n_sites != p2.n_sites:
        raise ValueError(f"site count mismatch: {p1.n_sites} vs {p2.n_sites}")
    m_a, m_b, m_c = TABLES.m_a, TABLES.m_b, TABLES.m_c
    mb_sum = 0
    mc_sum = 0
    letters = []
    for x, y in zip(p1.letters, p2.letters):
        letters.append(int(m_a[x, y]))
        mb_sum += int(m_b[x, y])
        mc_sum += int(m_c[y, x])
    phase = (-1) ** (mc_sum % 2) * (1j) ** (mb_sum % 4)
    return PhasedString(complex(phase), PauliString(tuple(letters)))


class PauliSum:
    """A complex-weighted sum of Pauli strings on a fixed number of sites.

    Terms are stored as a map from packed index to coefficient; coefficients
    below ``COEFF_PRUNE_TOL`` in magnitude are dropped so that equal operators
    have equal term maps.
    """

    __slots__ = ("n_sites", "terms")

    def __init__(self, n_sites: int, terms: dict[int, complex] | None = None):
        if n_sites < 1:
            raise ValueError("n_sites must be positive")
        self.n_sites = n_sites
        self.terms: dict[int, complex] = {}
        if terms:
            for j, c in terms.items():
                if not 0 <= j < 4**n_sites:
                    raise ValueError(f"packed index {j} out of range for {n_sites} sites")
                if abs(c) > COEFF_PRUNE_TOL:
                    self.terms[j] = complex(c)

    @classmethod
    def zero(cls, n_sites: int) -> "PauliSum":
        return cls(n_sites)

    @classmethod
    def from_strings(cls, pairs, n_sites: int | None = None) -> "PauliSum":
        """Build from (PauliString, coefficient) pairs, accumulating duplicates."""
        pairs = list(pairs)
        if n_sites is None:
            if not pairs:
                raise ValueError("cannot infer n_sites from an empty term list")
            n_sites = pairs[0][0].n_sites
        terms: dict[int, complex] = {}
        for ps, c in pairs:
            if ps.n_sites != n_sites:
                raise ValueError("all strings in a sum must share n_sites")
            j = ps.packed_index
            terms[j] = terms.get(j, 0.0) + c
        return cls(n_sites, terms)

    def items(self):
        """Yield (PauliString, coefficient) pairs in ascending packed order."""
        for j in sorted(self.terms):
            yield PauliString.from_index(j, self.n_sites), self.terms[j]

    def identity_coefficient(self) -> complex:
        return self.terms.get(0, 0.0)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c in self.terms.values())

    def _binary(self, other: "PauliSum", sign: int) -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if other.n_sites != self.n_sites:
            raise ValueError("site count mismatch in sum")
        terms = dict(self.terms)
        for j, c in other.terms.items():
            terms[j] = terms.get(j, 0.0) + sign * c
        return PauliSum(self.n_sites, terms)

    def __add__(self, other):
        return self._binary(other, +1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def __neg__(self):
        return PauliSum(self.n_sites, {j: -c for j, c in self.terms.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return PauliSum(self.n_sites, {j: scalar * c for j, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_sites == other.n_sites and self.terms == other.terms

    def __repr__(self):
        body = " + ".join(
            f"({c:g})*{PauliString.from_index(j, self.n_sites)}"
            for j, c in sorted(self.terms.items())
        )
        return f"PauliSum({body or '0'})"


def cache_key(op: PauliSum) -> tuple:
    """Hashable canonical form of a sum, for caches keyed on the operator."""
    return (op.n_sites, tuple(sorted((j, complex(c)) for j, c in op.terms.items())))


def sym_transpose_product(p1: PauliString, p2: PauliString) -> PauliSum:
    """The operator p1*p2 + (p1*p2)^T, transpose in the computational basis.

    Vanishes when the product string carries an odd number of Y letters
    (the M_d count); otherwise it is twice the forward product.
    """
    if p1.n_sites != p2.n_sites:
        raise ValueError(f"site count mismatch: {p1.n_sites} vs {p2.n_sites}")
    m_d = TABLES.m_d
    md_sum = sum(int(m_d[x, y]) for x, y in zip(p1.letters, p2.letters))
    if md_sum % 2 == 1:
        return PauliSum.zero(p1.n_sites)
    ph = multiply(p1, p2)
    return PauliSum(p1.n_sites, {ph.string.packed_index: 2 * ph.phase})


def minus_i_commutator(p1: PauliString, p2: PauliString) -> PauliSum:
    """The Hermitian operator -i*(p1*p2 - p2*p1).

    Zero when the product's phase is real, because the strings then
    commute; otherwise p2*p1 = -p1*p2, so it is -2i times the product, a
    single string with a real coefficient of magnitude 2.
    """
    ph = multiply(p1, p2)
    if ph.phase.imag == 0:
        return PauliSum.zero(p1.n_sites)
    return PauliSum(p1.n_sites, {ph.string.packed_index: -2j * ph.phase})


def string_matrices(letters) -> np.ndarray:
    """Dense matrices of a batch of strings: an (S, N) letter array gives (S, 2^N, 2^N).

    Site n maps to bit n of the basis index, so the Kronecker factors are
    ordered from site N-1 down to site 0.
    """
    factors = _SITE_MATRICES[np.asarray(letters)]  # (S, N, 2, 2)
    m = np.ones((len(factors), 1, 1), dtype=complex)
    for site in reversed(range(factors.shape[1])):
        # each site's row and column bit goes below those of the sites before it
        f = factors[:, site, None, :, None, :]
        m = (m[:, :, None, :, None] * f).reshape(len(m), 2 * m.shape[1], -1)
    return m


def to_matrix(op, n_sites: int | None = None, site_cap: int = MATRIX_SITE_CAP) -> np.ndarray:
    """Dense 2^N x 2^N matrix of a string, phased string, or sum (see ``string_matrices``).

    A phased string is a one-term sum.  A sum adds its terms' matrices one
    at a time in ascending packed order.
    """
    if isinstance(op, PhasedString):
        op = PauliSum(op.string.n_sites, {op.string.packed_index: op.phase})
    if not isinstance(op, (PauliString, PauliSum)):
        raise TypeError(f"cannot convert {type(op).__name__} to a matrix")
    if n_sites is not None and n_sites != op.n_sites:
        raise ValueError(f"n_sites {n_sites} disagrees with the operator's {op.n_sites} sites")
    if op.n_sites > site_cap:
        raise ValueError(f"refusing to build a dense matrix on {op.n_sites} sites (cap {site_cap})")
    if isinstance(op, PauliString):
        return string_matrices([op.letters])[0]
    m = np.zeros((2**op.n_sites, 2**op.n_sites), dtype=complex)
    for ps, c in op.items():
        m += c * string_matrices([ps.letters])[0]
    return m
