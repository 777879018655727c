"""Dense Hermitian matrices of a mixed graph.

Four matrices are built from a mixed graph X with underlying degrees d_i:

- ``hermitian_adjacency``: entry 1 for an un-oriented edge, omega for an arc
  i -> j and conj(omega) for j -> i (omega a primitive sixth root of unity)
- ``randic_matrix``: the degree-normalized form with entries h_ij/sqrt(d_i d_j)
- ``laplacian`` D - H and its normalized companion I - R
- ``incidence_matrix`` S with I - (D^-1/2 S)(D^-1/2 S)* equal to the Randic
  matrix, giving an independent route to it

All matrices are plain complex ndarrays, Hermitian exactly by construction
(the (j, i) entry is written as the conjugate of the (i, j) entry).  Vertex
v occupies row/column v - 1.
"""

from __future__ import annotations

import math

import numpy as np

from .gains import OMEGA
from .graphs import EdgeKind, MixedGraph


def _require_positive_degrees(g: MixedGraph) -> tuple[int, ...]:
    d = g.degrees()
    for v, dv in enumerate(d, start=1):
        if dv == 0:
            raise ValueError(
                f"vertex {v} is isolated; degree normalization needs every degree >= 1"
            )
    return d


def is_hermitian(mat: np.ndarray, tol: float = 1e-12) -> bool:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    scale = max(1.0, float(np.max(np.abs(mat))))
    return bool(np.max(np.abs(mat - mat.conj().T)) <= tol * scale)


def hermitian_adjacency(g: MixedGraph) -> np.ndarray:
    """The sixth-root Hermitian adjacency matrix of a mixed graph."""
    h = np.zeros((g.n, g.n), dtype=complex)
    for e in g.edges:
        i, j = e.u - 1, e.v - 1
        val = 1.0 + 0.0j if e.kind is EdgeKind.UNDIRECTED else OMEGA
        h[i, j] = val
        h[j, i] = val.conjugate()
    return h


def randic_matrix(g: MixedGraph) -> np.ndarray:
    """The degree-normalized Hermitian adjacency matrix D^-1/2 H D^-1/2.

    Raises if some vertex is isolated (the normalization is undefined).
    """
    d = _require_positive_degrees(g)
    r = np.zeros((g.n, g.n), dtype=complex)
    for e in g.edges:
        i, j = e.u - 1, e.v - 1
        scale = 1.0 / math.sqrt(d[i] * d[j])
        val = scale * (1.0 + 0.0j if e.kind is EdgeKind.UNDIRECTED else OMEGA)
        r[i, j] = val
        r[j, i] = val.conjugate()
    return r


def laplacian(g: MixedGraph) -> np.ndarray:
    """D - H with D the diagonal degree matrix of the underlying graph."""
    lap = -hermitian_adjacency(g)
    d = g.degrees()
    for i in range(g.n):
        lap[i, i] = d[i]
    return lap


def normalized_laplacian(g: MixedGraph) -> np.ndarray:
    """D^-1/2 (D - H) D^-1/2, which equals I minus the Randic matrix."""
    _require_positive_degrees(g)
    return np.eye(g.n, dtype=complex) - randic_matrix(g)


def incidence_matrix(g: MixedGraph) -> np.ndarray:
    """A vertex-by-edge incidence matrix S; columns follow g.edges order.

    Unit entries at the two endpoints of each edge, constrained so that the
    endpoint entries of an un-oriented edge are negatives of each other and
    those of an arc k -> l satisfy s_k = -omega * s_l.  Concrete gauge: an
    un-oriented edge (u < v) gets (1, -1); an arc u -> v gets (-omega, 1).
    Any per-column unit rescaling satisfies the same constraints.
    """
    s = np.zeros((g.n, g.m), dtype=complex)
    for col, e in enumerate(g.edges):
        if e.kind is EdgeKind.UNDIRECTED:
            s[e.u - 1, col] = 1.0
            s[e.v - 1, col] = -1.0
        else:
            s[e.v - 1, col] = 1.0
            s[e.u - 1, col] = -OMEGA
    return s


def randic_via_incidence(g: MixedGraph, incidence: np.ndarray | None = None) -> np.ndarray:
    """The Randic matrix recovered as I - (D^-1/2 S)(D^-1/2 S)*.

    Independent of the per-column gauge of S; used as the second route when
    verifying the incidence factorization.
    """
    d = _require_positive_degrees(g)
    if incidence is None:
        incidence = incidence_matrix(g)
    scaling = np.diag([1.0 / math.sqrt(dv) for dv in d])
    half = scaling @ incidence
    return np.eye(g.n, dtype=complex) - half @ half.conj().T


def quadratic_form(g: MixedGraph, y: np.ndarray) -> float:
    """y* H y evaluated as an edge sum.

    For each underlying edge (i < j) the term is
    ``|y_i + h_ij y_j|**2 - (|y_i|**2 + |y_j|**2)``; the total is real and
    equals the sesquilinear form against the Hermitian adjacency matrix.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape != (g.n,):
        raise ValueError(f"vector length {y.shape} does not match n = {g.n}")
    h = hermitian_adjacency(g)
    total = 0.0
    for i, j in g.underlying_pairs():
        yi, yj = y[i - 1], y[j - 1]
        total += abs(yi + h[i - 1, j - 1] * yj) ** 2 - (abs(yi) ** 2 + abs(yj) ** 2)
    return total


def format_complex(z: complex) -> str:
    """``a+bi`` with 17 significant digits on both parts."""
    return f"{z.real:.17g}{z.imag:+.17g}i"


def format_matrix(mat: np.ndarray) -> str:
    """Row-major dump, one row per line, tab-separated ``a+bi`` entries."""
    return "\n".join(
        "\t".join(format_complex(entry) for entry in row) for row in np.asarray(mat)
    )
