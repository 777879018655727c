"""Dense Hermitian matrices of a mixed graph.

Four matrices are built from a mixed graph X with underlying degrees d_i:

- ``hermitian_adjacency``: entry 1 for an un-oriented edge, omega for an arc
  i -> j and conj(omega) for j -> i (omega a primitive sixth root of unity)
- ``randic_matrix``: the degree-normalized form with entries h_ij/sqrt(d_i d_j);
  ``randic_matrices`` stacks it with the matrices of edge-deleted copies
- ``laplacian`` D - H, whose normalized form D^-1/2 (D - H) D^-1/2 is I - R
- ``incidence_matrix`` S with I - (D^-1/2 S)(D^-1/2 S)* equal to the Randic
  matrix, giving an independent route to it

Each builder takes a population of graphs of one order as one
``edge_table``: its (G, n) degrees and one row (graph, u, v, arc) per edge,
since every entry depends only on the kind of its pair and on d_i d_j.  It
fills one (G, n, n) stack with one fancy index (``randic_stack`` also adds
edge-deleted matrices) and validates nothing; the one-graph functions are
the population of one and check their input.  All matrices are plain
complex ndarrays, Hermitian exactly by construction (the (j, i) entry is
written as the conjugate of the (i, j) entry).  Vertex v occupies
row/column v - 1.
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


def is_hermitian(mat: np.ndarray) -> bool:
    """Whether a square matrix, or every matrix of a (k, n, n) stack, equals
    its conjugate transpose to within 1e-12 times its own largest modulus
    (at least 1); one exactly equal to it, as built here, passes at once."""
    mat = np.asarray(mat)
    if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]:
        return False
    adjoint = mat.conj().swapaxes(-2, -1)
    if np.array_equal(mat, adjoint):
        return True
    axes = (-2, -1)
    asym = abs(mat - adjoint).max(axis=axes)
    return bool((asym <= 1e-12 * abs(mat).max(axis=axes, initial=1.0)).all())


def edge_table(graphs: Sequence[MixedGraph]) -> tuple[np.ndarray, tuple]:
    """A population of one order as one table: its (G, n) int64 degrees,
    and every edge of every graph in order as four arrays: the index of its
    graph (ascending), its 0-based ends u and v, and whether it is an arc."""
    degrees = np.array([g.degrees() for g in graphs],
                       dtype=np.int64).reshape(len(graphs), graphs[0].n)
    rows = np.array([(i, e.u - 1, e.v - 1, e.kind is EdgeKind.ARC)
                     for i, g in enumerate(graphs) for e in g.edges],
                    dtype=np.intp).reshape(-1, 4)
    return degrees, (rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3].astype(bool))


def _state_table(states: np.ndarray,
                 degrees: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The edge_table of the graphs given as rows of (G, C(n, 2)) pair
    states (``combinations`` order: 0 absent, 1 u -- v, 2 u -> v,
    3 v -> u) and their (G, n) int64 degrees, edges in pair order."""
    a, b = np.triu_indices(degrees.shape[1], 1)
    owner, pair = np.nonzero(states)
    state = states[owner, pair]
    back = state == 3
    return degrees, (owner, np.where(back, b[pair], a[pair]),
                     np.where(back, a[pair], b[pair]), state > 1)


def _filled(count: int, n: int, where: np.ndarray, u: np.ndarray,
            v: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A (count, n, n) stack, zero but for upper[j] at [where[j], u[j], v[j]]
    and its conjugate at [where[j], v[j], u[j]]: Hermitian by construction."""
    stack = np.zeros((count, n, n), dtype=complex)
    stack[where, u, v] = upper
    stack[where, v, u] = upper.conj()
    return stack


def hermitian_adjacencies(degrees: np.ndarray,
                          edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """The sixth-root Hermitian adjacency matrices of an edge_table, as one
    (G, n, n) stack."""
    owner, u, v, arc = edges
    return _filled(*degrees.shape, owner, u, v, np.where(arc, OMEGA, 1.0 + 0.0j))


def hermitian_adjacency(g: MixedGraph) -> np.ndarray:
    """The sixth-root Hermitian adjacency matrix of a mixed graph."""
    return hermitian_adjacencies(*edge_table([g]))[0]


def randic_stack(degrees: np.ndarray, edges: tuple[np.ndarray, ...],
                 graph_of: np.ndarray, cut_of: np.ndarray) -> np.ndarray:
    """Degree-normalized matrices D^-1/2 H D^-1/2 of an edge_table, as one
    (S, n, n) stack filled by one fancy index per triangle: slice s is R of
    graph graph_of[s] less table row cut_of[s] (-1 for none), with the
    degrees that removal leaves, each of which must be at least 1."""
    owner, u, v, arc = edges
    start = np.searchsorted(owner, np.arange(len(degrees)))
    # float degrees: their products stay exact integers
    slice_degrees = degrees[graph_of].astype(float)
    cuts = np.flatnonzero(cut_of >= 0)
    slice_degrees[cuts, u[cut_of[cuts]]] -= 1.0
    slice_degrees[cuts, v[cut_of[cuts]]] -= 1.0

    # every slice holds every edge of its graph but its deleted one
    counts = np.bincount(owner, minlength=len(degrees))[graph_of]
    where = np.repeat(np.arange(len(graph_of)), counts)
    edge = (np.arange(len(where)) + np.repeat(start[graph_of] - np.cumsum(counts)
                                              + counts, counts))
    keep = edge != cut_of[where]
    where, edge = where[keep], edge[keep]
    a, b = u[edge], v[edge]
    gain = np.where(arc[edge], OMEGA, 1.0 + 0.0j)
    upper = 1.0 / np.sqrt(slice_degrees[where, a] * slice_degrees[where, b]) * gain
    return _filled(len(graph_of), degrees.shape[1], where, a, b, upper)


def randic_matrices(g: MixedGraph,
                    deleted: Sequence[EdgeRecord] = ()) -> np.ndarray:
    """R(g) followed by R(g - e) for each edge e of ``deleted`` (degrees
    recomputed), as one (1 + len(deleted), n, n) stack: the one-graph case
    of randic_stack.

    Raises if a deletion or the graph itself leaves a vertex isolated (the
    normalization is undefined); the deletions are checked first.
    """
    d = g.degrees()
    cut_of = [-1]
    for e in deleted:
        # matched on its fields as tuples: no EdgeRecord.__eq__ call per edge
        try:
            cut_of.append([(f.u, f.v, f.kind) for f in g.edges]
                          .index((e.u, e.v, e.kind)))
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
    _require_positive_degrees(d)
    return randic_stack(*edge_table([g]), np.zeros(len(cut_of), dtype=np.intp),
                        np.array(cut_of, dtype=np.intp))


def randic_matrix(g: MixedGraph) -> np.ndarray:
    """The degree-normalized Hermitian adjacency matrix D^-1/2 H D^-1/2.

    Raises if some vertex is isolated (the normalization is undefined).
    """
    return randic_matrices(g)[0]


def laplacians(degrees: np.ndarray, edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """D - H for an edge_table, D the diagonal degree matrix of the
    underlying graph, as one (G, n, n) stack."""
    lap = -hermitian_adjacencies(degrees, edges)
    diagonal = np.arange(degrees.shape[1])
    lap[:, diagonal, diagonal] = degrees
    return lap


def laplacian(g: MixedGraph) -> np.ndarray:
    """D - H with D the diagonal degree matrix of the underlying graph."""
    return laplacians(*edge_table([g]))[0]


def incidence_matrices(degrees: np.ndarray,
                       edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """Vertex-by-edge incidence matrices S of an edge_table, as one
    (G, n, max m) stack; columns follow each graph's edge order, and a
    graph with fewer edges has zero columns after its own.

    Unit entries at the two endpoints of each edge, constrained so that the
    endpoint entries of an un-oriented edge are negatives of each other and
    those of an arc k -> l satisfy s_k = -omega * s_l.  Concrete gauge: an
    un-oriented edge (u < v) gets (1, -1); an arc u -> v gets (-omega, 1).
    Any per-column unit rescaling satisfies the same constraints.
    """
    owner, u, v, arc = edges
    count, n = degrees.shape
    start = np.searchsorted(owner, np.arange(count))
    column = np.arange(len(owner)) - start[owner]
    width = int(column.max()) + 1 if len(column) else 0
    s = np.zeros((count, n, width), dtype=complex)
    s[owner, u, column] = np.where(arc, -OMEGA, 1.0)
    s[owner, v, column] = np.where(arc, 1.0, -1.0)
    return s


def incidence_matrix(g: MixedGraph) -> np.ndarray:
    """The vertex-by-edge incidence matrix S of incidence_matrices; columns
    follow g.edges order."""
    return incidence_matrices(*edge_table([g]))[0]


def randic_via_incidences(degrees: np.ndarray,
                          edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """The Randic matrices of an edge_table with every degree >= 1,
    recovered as I - (D^-1/2 S)(D^-1/2 S)*, as one (G, n, n) stack.

    Independent of the per-column gauge of S; used as the second route when
    verifying the incidence factorization.
    """
    count, n = degrees.shape
    scaling = np.zeros((count, n, n))
    diagonal = np.arange(n)
    scaling[:, diagonal, diagonal] = 1.0 / np.sqrt(degrees.astype(float))
    half = scaling @ incidence_matrices(degrees, edges)
    return np.eye(n, dtype=complex) - half @ half.conj().swapaxes(-2, -1)


def randic_via_incidence(g: MixedGraph) -> np.ndarray:
    """The Randic matrix recovered as I - (D^-1/2 S)(D^-1/2 S)*: the
    one-graph case of randic_via_incidences (raises on an isolated vertex)."""
    _require_positive_degrees(g.degrees())
    return randic_via_incidences(*edge_table([g]))[0]
