"""Dense Hermitian matrices of a mixed graph.

Four matrices are built from a mixed graph X with underlying degrees d_i:

- ``hermitian_adjacency``: entry 1 for an un-oriented edge, omega for an arc
  i -> j and conj(omega) for j -> i (omega a primitive sixth root of unity)
- ``randic_matrix``: the degree-normalized form with entries h_ij/sqrt(d_i d_j);
  ``randic_matrices`` stacks it with the matrices of edge-deleted copies
- ``laplacian`` D - H and its normalized companion I - R
- ``incidence_matrix`` S with I - (D^-1/2 S)(D^-1/2 S)* equal to the Randic
  matrix, giving an independent route to it

All matrices are plain complex ndarrays, Hermitian exactly by construction
(the (j, i) entry is written as the conjugate of the (i, j) entry).  Vertex
v occupies row/column v - 1.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .gains import OMEGA
from .graphs import EdgeKind, EdgeRecord, MixedGraph


def _require_positive_degrees(d: tuple[int, ...]) -> None:
    for v, dv in enumerate(d, start=1):
        if dv == 0:
            raise ValueError(
                f"vertex {v} is isolated; degree normalization needs every degree >= 1"
            )


def is_hermitian(mat: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether a square matrix, or every matrix of a (k, n, n) stack, equals
    its conjugate transpose to within tol times its own largest modulus
    (at least 1)."""
    mat = np.asarray(mat)
    if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]:
        return False
    axes = (-2, -1)
    asym = abs(mat - mat.conj().swapaxes(-2, -1)).max(axis=axes)
    return bool((asym <= tol * abs(mat).max(axis=axes, initial=1.0)).all())


def hermitian_adjacency(g: MixedGraph) -> np.ndarray:
    """The sixth-root Hermitian adjacency matrix of a mixed graph."""
    h = np.zeros((g.n, g.n), dtype=complex)
    for e in g.edges:
        i, j = e.u - 1, e.v - 1
        val = 1.0 + 0.0j if e.kind is EdgeKind.UNDIRECTED else OMEGA
        h[i, j] = val
        h[j, i] = val.conjugate()
    return h


def randic_matrices(g: MixedGraph,
                    deleted: Sequence[EdgeRecord] = ()) -> np.ndarray:
    """R(g) followed by R(g - e) for each edge e of ``deleted``, as one
    (1 + len(deleted), n, n) stack of degree-normalized matrices
    D^-1/2 H D^-1/2, with the degrees recomputed for each deletion.

    Raises if a deletion or g itself leaves a vertex isolated (the
    normalization is undefined); deletions are checked first.
    """
    d = g.degrees()
    slices = [d]
    cut = []
    for e in deleted:
        if e not in g.edges:
            raise ValueError(f"edge {e} not in graph")
        cut.append(g.edges.index(e))
        reduced = list(d)
        reduced[e.u - 1] -= 1
        reduced[e.v - 1] -= 1
        if 0 in reduced:
            raise ValueError(
                f"removing {e} isolates vertex {reduced.index(0) + 1}; the "
                "normalized matrix needs every degree >= 1"
            )
        slices.append(reduced)
    _require_positive_degrees(d)
    # float degrees: their products stay exact integers, as in math.sqrt(d_i * d_j)
    degrees = np.array(slices, dtype=float)
    # ends[0], ends[1]: the 0-based endpoints of every edge
    ends = np.array([[e.u - 1 for e in g.edges], [e.v - 1 for e in g.edges]],
                    dtype=np.intp).reshape(2, g.m)
    gain = np.array([1.0 + 0.0j if e.kind is EdgeKind.UNDIRECTED else OMEGA
                     for e in g.edges], dtype=complex)
    upper = 1.0 / np.sqrt(degrees[:, ends].prod(axis=1)) * gain
    lower = upper.conj()
    if cut:
        # zeroed after the conjugate is taken, so that both entries of a
        # deleted edge read +0.0 + 0.0j, as in the matrix of g - e
        upper[range(1, len(slices)), cut] = 0.0
        lower[range(1, len(slices)), cut] = 0.0
    u, v = ends
    r = np.zeros((len(slices), g.n, g.n), dtype=complex)
    r[:, u, v] = upper
    r[:, v, u] = lower
    return r


def randic_matrix(g: MixedGraph) -> np.ndarray:
    """The degree-normalized Hermitian adjacency matrix D^-1/2 H D^-1/2.

    Raises if some vertex is isolated (the normalization is undefined).
    """
    return randic_matrices(g)[0]


def laplacian(g: MixedGraph) -> np.ndarray:
    """D - H with D the diagonal degree matrix of the underlying graph."""
    lap = -hermitian_adjacency(g)
    d = g.degrees()
    for i in range(g.n):
        lap[i, i] = d[i]
    return lap


def normalized_laplacian(g: MixedGraph) -> np.ndarray:
    """D^-1/2 (D - H) D^-1/2, which equals I minus the Randic matrix."""
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
    d = g.degrees()
    _require_positive_degrees(d)
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
