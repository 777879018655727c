"""Dense Hermitian matrices of a mixed graph.

Four matrices are built from a mixed graph X with underlying degrees d_i:

- ``hermitian_adjacency``: entry 1 for an un-oriented edge, omega for an arc
  i -> j and conj(omega) for j -> i (omega a primitive sixth root of unity)
- ``randic_matrix``: the degree-normalized form with entries h_ij/sqrt(d_i d_j);
  ``randic_matrices`` stacks it with the matrices of edge-deleted copies
- ``laplacian`` D - H and its normalized companion I - R
- ``incidence_matrix`` S with I - (D^-1/2 S)(D^-1/2 S)* equal to the Randic
  matrix, giving an independent route to it

Each builder takes a population of graphs of one order and fills one
(G, n, n) stack with one fancy index (``randic_stack`` also adds the
edge-deleted matrices); the one-graph functions are the population of
one.  All matrices are plain complex ndarrays, Hermitian
exactly by construction (the (j, i) entry is written as the conjugate of the
(i, j) entry).  Vertex v occupies row/column v - 1.
"""

from __future__ import annotations

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


def _edge_arrays(graphs: Sequence[MixedGraph]) -> tuple[np.ndarray, ...]:
    """Every edge of a population of one order, concatenated in order: the
    index of its graph, its 0-based ends u and v, and whether it is an arc."""
    table = np.array([(i, e.u - 1, e.v - 1, e.kind is EdgeKind.ARC)
                      for i, g in enumerate(graphs) for e in g.edges],
                     dtype=np.intp).reshape(-1, 4)
    return table[:, 0], table[:, 1], table[:, 2], table[:, 3].astype(bool)


def _filled(count: int, n: int, where: np.ndarray, u: np.ndarray,
            v: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A (count, n, n) stack, zero but for upper[j] at [where[j], u[j], v[j]]
    and its conjugate at [where[j], v[j], u[j]]: Hermitian by construction."""
    stack = np.zeros((count, n, n), dtype=complex)
    stack[where, u, v] = upper
    stack[where, v, u] = upper.conj()
    return stack


def hermitian_adjacencies(graphs: Sequence[MixedGraph]) -> np.ndarray:
    """The sixth-root Hermitian adjacency matrices of a population of one
    order, as one (G, n, n) stack."""
    owner, u, v, arc = _edge_arrays(graphs)
    return _filled(len(graphs), graphs[0].n, owner, u, v,
                   np.where(arc, OMEGA, 1.0 + 0.0j))


def hermitian_adjacency(g: MixedGraph) -> np.ndarray:
    """The sixth-root Hermitian adjacency matrix of a mixed graph."""
    return hermitian_adjacencies([g])[0]


def randic_stack(graphs: Sequence[MixedGraph],
                 deleted: Sequence[Sequence[EdgeRecord]]) -> np.ndarray:
    """Degree-normalized matrices D^-1/2 H D^-1/2 of a population of one
    order, as one (sum k, n, n) stack filled by one fancy index per
    triangle.  For each graph in turn: R(g), then R(g - e) for each edge e
    of its ``deleted`` list (degrees recomputed).

    Raises if a deletion or a graph itself leaves a vertex isolated (the
    normalization is undefined); each graph's deletions are checked first.
    """
    return _randic_stack(graphs, deleted, _edge_arrays(graphs))


def _randic_stack(graphs: Sequence[MixedGraph],
                  deleted: Sequence[Sequence[EdgeRecord]],
                  edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """randic_stack, given the graphs' _edge_arrays."""
    owner, u, v, arc = edges
    start = np.searchsorted(owner, np.arange(len(graphs)))
    # per slice: its graph and its deleted edge (-1: none)
    degrees, slices = [], []
    for i, (g, cut) in enumerate(zip(graphs, deleted)):
        d = g.degrees()
        degrees.append(d)
        slices.append((i, -1))
        for e in cut:
            try:
                j = g.edges.index(e)
            except ValueError:
                raise ValueError(f"edge {e} not in graph") from None
            if 0 in d or d[e.u - 1] == 1 or d[e.v - 1] == 1:
                reduced = list(d)
                reduced[e.u - 1] -= 1
                reduced[e.v - 1] -= 1
                raise ValueError(
                    f"removing {e} isolates vertex {reduced.index(0) + 1}; "
                    "the normalized matrix needs every degree >= 1"
                )
            slices.append((i, start[i] + j))
        _require_positive_degrees(d)
    graph_of, cut_of = np.array(slices, dtype=np.intp).reshape(-1, 2).T

    # float degrees: their products stay exact integers
    slice_degrees = np.array(degrees, dtype=float)[graph_of]
    cuts = np.flatnonzero(cut_of >= 0)
    slice_degrees[cuts, u[cut_of[cuts]]] -= 1.0
    slice_degrees[cuts, v[cut_of[cuts]]] -= 1.0

    # every slice holds every edge of its graph but its deleted one
    counts = np.bincount(owner, minlength=len(graphs))[graph_of]
    where = np.repeat(np.arange(len(graph_of)), counts)
    edge = (np.arange(len(where)) + np.repeat(start[graph_of] - np.cumsum(counts)
                                              + counts, counts))
    keep = edge != cut_of[where]
    where, edge = where[keep], edge[keep]
    a, b = u[edge], v[edge]
    gain = np.where(arc[edge], OMEGA, 1.0 + 0.0j)
    upper = 1.0 / np.sqrt(slice_degrees[where, a] * slice_degrees[where, b]) * gain
    return _filled(len(graph_of), graphs[0].n, where, a, b, upper)


def randic_matrices(g: MixedGraph,
                    deleted: Sequence[EdgeRecord] = ()) -> np.ndarray:
    """R(g) followed by R(g - e) for each edge e of ``deleted``, as one
    (1 + len(deleted), n, n) stack: the one-graph case of randic_stack."""
    return randic_stack([g], [deleted])


def randic_matrix(g: MixedGraph) -> np.ndarray:
    """The degree-normalized Hermitian adjacency matrix D^-1/2 H D^-1/2.

    Raises if some vertex is isolated (the normalization is undefined).
    """
    return randic_matrices(g)[0]


def laplacians(graphs: Sequence[MixedGraph]) -> np.ndarray:
    """D - H for a population of one order, D the diagonal degree matrix of
    the underlying graph, as one (G, n, n) stack."""
    lap = -hermitian_adjacencies(graphs)
    diagonal = np.arange(graphs[0].n)
    lap[:, diagonal, diagonal] = [g.degrees() for g in graphs]
    return lap


def laplacian(g: MixedGraph) -> np.ndarray:
    """D - H with D the diagonal degree matrix of the underlying graph."""
    return laplacians([g])[0]


def normalized_laplacian(g: MixedGraph) -> np.ndarray:
    """D^-1/2 (D - H) D^-1/2, which equals I minus the Randic matrix."""
    return np.eye(g.n, dtype=complex) - randic_matrix(g)


def incidence_matrices(graphs: Sequence[MixedGraph]) -> np.ndarray:
    """Vertex-by-edge incidence matrices S of a population of one order, as
    one (G, n, max m) stack; columns follow each graph's edge order, and a
    graph with fewer edges has zero columns after its own.

    Unit entries at the two endpoints of each edge, constrained so that the
    endpoint entries of an un-oriented edge are negatives of each other and
    those of an arc k -> l satisfy s_k = -omega * s_l.  Concrete gauge: an
    un-oriented edge (u < v) gets (1, -1); an arc u -> v gets (-omega, 1).
    Any per-column unit rescaling satisfies the same constraints.
    """
    owner, u, v, arc = _edge_arrays(graphs)
    start = np.searchsorted(owner, np.arange(len(graphs)))
    column = np.arange(len(owner)) - start[owner]
    width = int(column.max()) + 1 if len(column) else 0
    s = np.zeros((len(graphs), graphs[0].n, width), dtype=complex)
    s[owner, u, column] = np.where(arc, -OMEGA, 1.0)
    s[owner, v, column] = np.where(arc, 1.0, -1.0)
    return s


def incidence_matrix(g: MixedGraph) -> np.ndarray:
    """The vertex-by-edge incidence matrix S of incidence_matrices; columns
    follow g.edges order."""
    return incidence_matrices([g])[0]


def randic_via_incidences(graphs: Sequence[MixedGraph]) -> np.ndarray:
    """The Randic matrices of a population of one order recovered as
    I - (D^-1/2 S)(D^-1/2 S)*, as one (G, n, n) stack.

    Independent of the per-column gauge of S; used as the second route when
    verifying the incidence factorization.
    """
    degrees = [g.degrees() for g in graphs]
    for d in degrees:
        _require_positive_degrees(d)
    n = graphs[0].n
    scaling = np.zeros((len(graphs), n, n))
    diagonal = np.arange(n)
    scaling[:, diagonal, diagonal] = 1.0 / np.sqrt(np.array(degrees, dtype=float))
    half = scaling @ incidence_matrices(graphs)
    return np.eye(n, dtype=complex) - half @ half.conj().swapaxes(-2, -1)


def randic_via_incidence(g: MixedGraph) -> np.ndarray:
    """The Randic matrix recovered as I - (D^-1/2 S)(D^-1/2 S)*: the
    one-graph case of randic_via_incidences."""
    return randic_via_incidences([g])[0]


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
