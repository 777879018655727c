"""Eigenvalues, energy and the characteristic polynomial by two routes.

The numeric route diagonalizes the dense Hermitian matrix; the exact route
expands the characteristic polynomial coefficient by coefficient over
elementary subgraphs of the mixed graph:

    (-1)**k a_k  =  sum over order-k elementary subgraphs X' of
                    (-1)**(r + l_neg + l_semi_neg) * 2**(l_neg + l_pos) * Q(X')

with a_0 = 1, r = order - components, the l counters classifying cycle
components by gain, and Q the product of reciprocal host degrees over the
covered vertices.  ``elementary_weight_numerator_rows`` yields every
order's sum as an integer over the common denominator prod d_i for a whole
block of graphs of one order, read from the block's edge table: one
path-counting programme, then one array step per vertex that sums the
covers of each vertex set by disjoint edges and cycles.
``char_poly_combinatorial`` and ``determinant_combinatorial`` take its
one-graph case, and k = n specializes to the exact rational determinant
(-1)**n a_n.  The two routes
are kept independent so each can check the other.

The eigenvalue tolerances live here: ``TOL_ZERO`` decides which eigenvalues
are zero, and ``TOL_EIG`` which equal a given value (``multiplicities``) or
each other; ``theorems`` reads both.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .enumeration import elementary_weight_numerators
from .graphs import MixedGraph, _Record, _set
from .matrices import is_hermitian, randic_matrix

#: Eigenvalues within this of zero count as zero (negative-eigenvalue count,
#: minimal modulus and singularity decisions all use it).
TOL_ZERO = 1e-9

#: Eigenvalue membership and spectra comparison: an eigenvalue within this
#: of a value counts as that value.  Looser than TOL_ZERO because it
#: compares independently computed floating-point spectra.
TOL_EIG = 1e-8

#: Largest n the elementary-subgraph expansion will attempt.
DEFAULT_COMBINATORIAL_CAP = 10


def energies(vals: np.ndarray) -> np.ndarray:
    """Per row of eigenvalues, the sum of their absolute values."""
    return np.abs(vals).sum(axis=-1)


def spectral_radii(vals: np.ndarray) -> np.ndarray:
    """Per row of eigenvalues, the largest |eigenvalue|."""
    return np.abs(vals).max(axis=-1)


def min_moduli(vals: np.ndarray) -> np.ndarray:
    """Per row of eigenvalues, the smallest |eigenvalue|."""
    return np.abs(vals).min(axis=-1)


def negative_counts(vals: np.ndarray) -> np.ndarray:
    """Per row of eigenvalues, how many lie below -TOL_ZERO."""
    return (vals < -TOL_ZERO).sum(axis=-1)


def determinants(vals: np.ndarray) -> np.ndarray:
    """Per row of eigenvalues, their product."""
    return vals.prod(axis=-1)


def multiplicities(vals: np.ndarray, value: float) -> np.ndarray:
    """Per row of eigenvalues, how many lie within TOL_EIG of value."""
    return (np.abs(vals - value) <= TOL_EIG).sum(axis=-1)


class Spectrum(_Record):
    """Sorted real eigenvalues of a Hermitian matrix plus derived scalars.

    Each scalar is the one-row case of the row reduction above it, which
    the theorem suite runs on a whole population's eigenvalue array.
    Spectra compare and hash by identity, as an array has no truth value.
    """

    __slots__ = _fields = ("eigenvalues",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, eigenvalues: np.ndarray) -> None:
        _set(self, "eigenvalues", np.sort(np.asarray(eigenvalues, dtype=float)))

    @classmethod
    def from_sorted(cls, vals: np.ndarray) -> Spectrum:
        """The spectrum of float eigenvalues already in ascending order,
        such as a row of eigenvalue_rows, kept as given, not sorted again."""
        spectrum = object.__new__(cls)
        _set(spectrum, "eigenvalues", vals)
        return spectrum

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def energy(self) -> float:
        """Sum of absolute values of the eigenvalues."""
        return float(energies(self.eigenvalues))

    @property
    def rho(self) -> float:
        """Spectral radius: the largest |eigenvalue|."""
        return float(spectral_radii(self.eigenvalues))

    @property
    def sigma(self) -> float:
        """The smallest |eigenvalue|."""
        return float(min_moduli(self.eigenvalues))

    @property
    def negative_count(self) -> int:
        """Number of eigenvalues below -TOL_ZERO."""
        return int(negative_counts(self.eigenvalues))

    @property
    def determinant(self) -> float:
        """Product of the eigenvalues."""
        return float(determinants(self.eigenvalues))

    def multiplicity(self, value: float) -> int:
        return int(multiplicities(self.eigenvalues, value))


def eigenvalue_rows(stack: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a (k, n, n) stack of Hermitian matrices, one
    row per matrix, from one solve.

    Rejects the stack if any matrix in it is not Hermitian, instead of
    silently symmetrizing.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or not is_hermitian(stack):
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigvalsh(stack)


def eigendecompose_stack(stack: np.ndarray) -> tuple[Spectrum, ...]:
    """Spectra of a (k, n, n) stack of Hermitian matrices, from one solve."""
    return tuple(Spectrum(vals) for vals in eigenvalue_rows(stack))


def eigendecompose(mat: np.ndarray) -> Spectrum:
    """Spectrum of a Hermitian matrix."""
    return eigendecompose_stack(np.asarray(mat, dtype=complex)[np.newaxis])[0]


def randic_spectrum(g: MixedGraph) -> Spectrum:
    """Spectrum of the Randic matrix of a mixed graph."""
    return eigendecompose(randic_matrix(g))


class CharPoly(_Record):
    """Monic characteristic polynomial x**n + a_1 x**(n-1) + ... + a_n.

    ``coefficients`` lists a_0 = 1 through a_n, ascending index; entries are
    Fractions on the exact route and floats on the numeric one.
    """

    __slots__ = _fields = ("coefficients",)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coefficients)

    def max_difference(self, other: "CharPoly") -> float:
        if self.degree != other.degree:
            raise ValueError("polynomials of different degree")
        return max(
            abs(a - b) for a, b in zip(self.as_floats(), other.as_floats())
        )


def expand_roots(roots: np.ndarray) -> np.ndarray:
    """Coefficients a_0 = 1, ..., a_n of prod (x - lambda) for each row of
    a (G, n) array of roots, as a (G, n + 1) array.

    Multiplies in one root at a time, with the arithmetic of
    ``np.convolve(a, [1, -lambda])``: a_k + a_(k-1) * (-lambda), and a zero
    sum read as +0.0.
    """
    roots = np.asarray(roots, dtype=float)
    coeffs = np.ones((len(roots), 1))
    for lam in (-roots).T:
        grown = np.empty((len(roots), coeffs.shape[1] + 1))
        grown[:, 0] = 1.0
        grown[:, 1:-1] = coeffs[:, 1:] + coeffs[:, :-1] * lam[:, np.newaxis]
        grown[:, -1] = coeffs[:, -1] * lam
        coeffs = grown + 0.0
    return coeffs


def char_poly_numeric(mat: np.ndarray) -> CharPoly:
    """Characteristic polynomial expanded from the eigenvalues of mat."""
    coeffs = expand_roots(eigendecompose(mat).eigenvalues[np.newaxis])[0]
    return CharPoly(tuple(coeffs.tolist()))


def char_poly_combinatorial(g: MixedGraph) -> CharPoly:
    """Exact rational characteristic polynomial of the Randic matrix.

    Sums the signed elementary-subgraph weights of every order in one pass.
    Needs every degree >= 1 and n <= DEFAULT_COMBINATORIAL_CAP; beyond the
    cap use char_poly_numeric.
    """
    if g.n > DEFAULT_COMBINATORIAL_CAP:
        raise ValueError(
            f"n = {g.n} above combinatorial cap {DEFAULT_COMBINATORIAL_CAP}; "
            "use the numeric route"
        )
    if min(g.degrees()) == 0:
        raise ValueError("isolated vertex: Randic matrix undefined")
    denominator = math.prod(g.degrees())
    return CharPoly(tuple(
        Fraction(-total if k % 2 else total, denominator)
        for k, total in enumerate(elementary_weight_numerators(g))
    ))


def determinant_combinatorial(g: MixedGraph) -> Fraction:
    """Exact determinant of the Randic matrix, (-1)**n a_n: the signed
    weights of the spanning elementary subgraphs."""
    if min(g.degrees()) == 0:
        raise ValueError("isolated vertex: Randic matrix undefined")
    return Fraction(elementary_weight_numerators(g)[-1], math.prod(g.degrees()))
