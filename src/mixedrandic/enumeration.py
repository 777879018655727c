"""Exhaustive enumeration: cycles, elementary-subgraph sums, small mixed graphs.

Elementary subgraphs (vertex-disjoint unions of single edges and cycles)
are what the combinatorial determinant and characteristic polynomial
formulas sum over.  Each carries the signed weight
(-1)**(r + l_neg + l_semi_neg) * 2**(l_neg + l_pos) * Q (see spectra), with
the exact rational Q = prod 1/d_i over covered vertices and degrees taken
in the *host* graph.

``elementary_weight_numerator_rows`` sums the signed weights of every order
for a block of graphs of one order, keeping each order's sum as an integer
numerator over the common denominator prod d_i, since
Q = prod_{uncovered} d_i / prod_all d_i.  It lists no cycle.  A dynamic
programme over vertex subsets counts, for every graph of the block at once,
the paths from min U over exactly the vertex set U to each end vertex, by
gain exponent mod 6; a step back to min U closes a cycle, whose class the
exponent gives.  The counts are int32, since a path count is at most
(n - 2)! <= 11! at the n <= 13 the numerators admit.  One subset recursion
then combines the edges and cycles for the whole block;
``elementary_weight_numerators`` is its one-graph case.  ``enumerate_cycles``
lists the cycles of one graph, for the demos and the tests.

Everything here is desk scale: the combinatorial routines take n <= 13
(the suite n <= 10) and graph enumeration is capped (default 6) because the
number of labeled mixed graphs grows as 4**C(n, 2).
"""

from __future__ import annotations

import functools
import random
from itertools import combinations, islice, product, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gains import _CLASS_BY_EXPONENT, CycleClass
from .graphs import EdgeKind, EdgeRecord, MixedGraph
from .matrices import _edge_arrays

DEFAULT_GRAPH_CAP = 6

#: Cycle classes whose gain flips the sign of a weight, and those that
#: double it (the l_neg + l_semi_neg and l_neg + l_pos of the weight).
_SIGN_FLIPPING = (CycleClass.NEGATIVE, CycleClass.SEMI_NEGATIVE)
_DOUBLED = (CycleClass.POSITIVE, CycleClass.NEGATIVE)

#: Per cycle gain exponent mod 6, the sign and doubling its class gives a
#: cycle's factor.
_CYCLE_FACTOR = np.array([
    (-1 if cls_ in _SIGN_FLIPPING else 1) * (2 if cls_ in _DOUBLED else 1)
    for cls_ in map(_CLASS_BY_EXPONENT.get, range(6))
], dtype=np.int64)


def enumerate_cycles(g: MixedGraph) -> list[tuple[int, ...]]:
    """All simple cycles of the underlying graph, one tuple per cycle.

    Canonical form: the smallest vertex first, then its smaller cycle
    neighbor.  Cycles are emitted sorted by (length, vertex tuple).
    """
    adj = g.adjacency_sets()
    cycles: list[tuple[int, ...]] = []

    def extend(start: int, path: list[int]) -> None:
        v = path[-1]
        for w in sorted(adj[v]):
            if w == start and len(path) >= 3:
                # close only in one direction: second vertex below last
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > start and w not in path:
                path.append(w)
                extend(start, path)
                path.pop()

    for start in g.vertices():
        extend(start, [start])
    # extend refers to itself: dropping it breaks the reference cycle that
    # would keep `cycles` alive until the collector's next full pass
    del extend
    return sorted(cycles, key=lambda c: (len(c), c))


@functools.cache
def _path_template(n: int) -> tuple[list[tuple[np.ndarray, ...]], int]:
    """The steps of the path programme on the complete graph K_n, and the
    most steps into one layer.

    A state of layer k is a vertex set U of size k and an end vertex v: the
    one vertex of U when k = 1, else any vertex of U but min U.  States are
    numbered by U, then v.  Per layer k = 2..n the template holds: the sets
    U of size k, ascending; per state (U, v), the ordered pair
    v * n + min U of the step that closes it; and per step into a state,
    ordered by that state, the state of layer k - 1 it leaves and its
    ordered pair v * n + w.  Each state of layer k has max(1, k - 2) steps
    into it.
    """
    masks = np.arange(1 << n)
    bits = ((masks[:, np.newaxis] >> np.arange(n)) & 1).astype(bool)
    sizes = bits.sum(axis=1)
    lowest = bits.argmax(axis=1)
    # ends[U]: the vertices a path over U may end at
    ends = bits.copy()
    ends[sizes >= 2, lowest[sizes >= 2]] = False
    # state[U, v]: the number of state (U, v) within its layer
    state = np.zeros((1 << n, n), dtype=np.intp)
    state[1 << np.arange(n), np.arange(n)] = np.arange(n)
    layers = []
    for k in range(2, n + 1):
        sets = masks[sizes == k]
        row, end = np.nonzero(ends[sets])
        into = sets[row]
        state[into, end] = np.arange(len(into))
        before = into & ~(1 << end)
        step, tail = np.nonzero(ends[before])
        layers.append((sets, end * n + lowest[into],
                       state[before[step], tail], tail * n + end[step]))
    return layers, max((len(layer[2]) for layer in layers), default=1)


#: _SOURCE_SLOT[x, e]: the exponent a path had before a step of gain
#: exponent x left it at exponent e.  x = 6 marks an absent pair, whose
#: step reads slot 6, which holds no paths.
_SOURCE_SLOT = np.array([[(e - x) % 6 if x < 6 else 6 for e in range(6)]
                         for x in range(7)], dtype=np.intp)

#: Most cells (graphs x steps x exponents) one layer of the path programme
#: gathers: a block's graphs are taken in chunks that stay under it.
_PATH_CELLS = 1 << 16


def _stepped(paths: np.ndarray, slots: np.ndarray, source: np.ndarray,
             pair: np.ndarray) -> np.ndarray:
    """Entry [j, t, e]: the paths of graph j in state source[t] that the
    step over ordered pair pair[t] leaves at exponent e (0 where graph j
    lacks the pair).  paths is (G, states, 7), slots[j] _SOURCE_SLOT of
    graph j's step exponents."""
    cells = slots[:, pair]
    cells += ((np.arange(len(paths))[:, np.newaxis] * paths.shape[1]
               + source) * 7)[:, :, np.newaxis]
    return paths.ravel()[cells]


def _component_weights(graphs: Sequence[MixedGraph],
                       edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """W[mask, j]: the summed factors of graph j's edges and cycles whose
    vertex set is ``mask`` (bit i for vertex i + 1), given the graphs'
    _edge_arrays.

    An edge contributes -1 and a cycle (-1)**(length - 1) times the
    _CYCLE_FACTOR of its gain exponent.  No cycle is listed:
    paths[j, (U, v), e] counts the paths of graph j from min U to v over
    exactly the vertex set U with gain exponent e mod 6 (Bellman, J. ACM 9
    (1962); Held & Karp, J. SIAM 10 (1962)).  Each layer is one gather over
    the steps of _path_template(n), shifted by each step's exponent in
    graph j, and one sum per state over its steps.  A step from v back to
    min U closes each cycle twice, with exponents e and -e of one class,
    so W[U, j] is half the sum over the closing steps of
    (-1)**(|U| - 1) * _CYCLE_FACTOR[e] * paths.  At |U| = 2 the closed
    path is an edge there and back, exponent 0, and weighs -2 / 2 = -1.

    A state counts at most (n - 2)! paths: int32 holds them at the
    n <= 13 that _numerator_rows admits.
    """
    n = graphs[0].n
    owner, u, v, arc = edges
    layers, widest = _path_template(n)
    # exponent[j, a * n + b]: the gain exponent of the step a -> b in graph j
    exponent = np.full((len(graphs), n * n), 6, dtype=np.intp)
    exponent[owner, u * n + v] = np.where(arc, 1, 0)
    exponent[owner, v * n + u] = np.where(arc, 5, 0)
    weights = np.zeros((1 << n, len(graphs)), dtype=np.int64)
    chunk = max(1, _PATH_CELLS // (6 * widest))
    for first in range(0, len(graphs), chunk):
        slots = _SOURCE_SLOT[exponent[first:first + chunk]]
        count = len(slots)
        # layer 1: one path of exponent 0 at each vertex
        paths = np.zeros((count, n, 7), dtype=np.int32)
        paths[:, :, 0] = 1
        for k, (sets, close, source, pair) in enumerate(layers, start=2):
            grown = _stepped(paths, slots, source, pair)
            paths = np.zeros((count, len(close), 7), dtype=np.int32)
            paths[:, :, :6] = grown.reshape(count, len(close), -1, 6).sum(
                axis=2, dtype=np.int32)
            closed = _stepped(paths, slots, np.arange(len(close)), close)
            cycles = closed.reshape(count, len(sets), k - 1, 6).sum(
                axis=2, dtype=np.int64) @ _CYCLE_FACTOR
            weights[sets, first:first + count] = (-1) ** (k - 1) * cycles.T // 2
    return weights


def elementary_weight_numerator_rows(graphs: Sequence[MixedGraph]) -> np.ndarray:
    """Row j, entry k: the signed weights of graph j's order-k elementary
    subgraphs summed over the common denominator prod d_i, for a block of
    graphs of one order, as a (G, n + 1) int64 array.

    Entry k, divided by prod d_i, equals the sum of the signed weights of
    the order-k elementary subgraphs of graph j.  Each component contributes
    its factor W, which one programme counting paths over vertex subsets
    (int32 counts, see _component_weights) gives for every graph at once,
    and each uncovered vertex its degree.  S[U],
    the sums over the elementary subgraphs of the subgraph induced on the
    vertex set U (host degrees throughout), decide U's lowest vertex i:
    left uncovered, S[U] = d_i * S[U - i]; covered by a component M, shift
    S[U - M] by |M| orders and scale it by W[M].  The table is filled by
    lowest vertex from n down to 1, every set U and every graph at once:
    about one array operation per component vertex set of the block.

    Every partial sum is a sub-sum of the expansion of the permanent of
    D + A, which is at most prod 2 d_i <= (2n - 2)**n: about 3.6e12 at
    n = 10, so int64 holds it.  Orders where that bound reaches 2**63
    (n >= 14) are refused; at n <= 13 a path count is at most 11!, which
    int32 holds.
    """
    return _numerator_rows(graphs, _edge_arrays(graphs))


def _numerator_rows(graphs: Sequence[MixedGraph],
                    edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """elementary_weight_numerator_rows, given the graphs' _edge_arrays."""
    n = graphs[0].n
    if (2 * n - 2) ** n >= 2 ** 63:
        raise ValueError(f"n = {n}: the numerators may overflow int64")
    degrees = np.array([g.degrees() for g in graphs], dtype=np.int64).T
    weights = _component_weights(graphs, edges)
    live = np.flatnonzero(weights.any(axis=1))
    lowest = live & -live
    sums = np.zeros((1 << n, n + 1, len(graphs)), dtype=np.int64)
    sums[0, 0] = 1
    for i in reversed(range(n)):
        above = np.arange(1 << (n - 1 - i), dtype=np.int64) << (i + 1)
        sums[above | (1 << i)] = degrees[i] * sums[above]
        for mask in live[lowest == 1 << i].tolist():
            rest = above[(above & mask) == 0]
            size = mask.bit_count()
            sums[rest | mask, size:] += weights[mask] * sums[rest, :n + 1 - size]
    # a copy: the view would hold the whole table
    return sums[-1].T.copy()


def elementary_weight_numerators(g: MixedGraph) -> tuple[int, ...]:
    """The numerators of every order for one graph: the one-graph case of
    elementary_weight_numerator_rows."""
    return tuple(elementary_weight_numerator_rows([g])[0].tolist())


def _passes(g: MixedGraph, connected_only: bool, min_degree: int) -> bool:
    if min_degree > 0 and min(g.degrees()) < min_degree:
        return False
    if connected_only and not g.is_connected():
        return False
    return True


def _passing_graphs(n: int, state_vectors: Iterable[tuple[int, ...]],
                    connected_only: bool, min_degree: int) -> Iterator[MixedGraph]:
    """The graphs of a stream of pair-state vectors that pass the filter.

    Entry i of a vector is the state of pair i = (u, v), u < v, in
    ``combinations`` order: 0 absent, 1 u -- v, 2 u -> v, 3 v -> u.
    Degrees and connectivity depend only on which pairs are present, so the
    filter is decided once per presence mask, on the underlying graph,
    before any graph is built; and the graphs share the 3 C(n, 2) edge
    records.
    """
    records = [(None, EdgeRecord(u, v, EdgeKind.UNDIRECTED),
                EdgeRecord(u, v, EdgeKind.ARC), EdgeRecord(v, u, EdgeKind.ARC))
               for u, v in combinations(range(1, n + 1), 2)]
    verdicts: dict[tuple[bool, ...], bool] = {}
    for states in state_vectors:
        present = tuple(map(bool, states))
        ok = verdicts.get(present)
        if ok is None:
            underlying = MixedGraph(n, tuple(
                rec[1] for rec, there in zip(records, present) if there))
            ok = verdicts[present] = _passes(underlying, connected_only,
                                             min_degree)
        if ok:
            yield MixedGraph(n, tuple(
                rec[state] for rec, state in zip(records, states) if state))


def enumerate_mixed_graphs(
    n: int,
    connected_only: bool = False,
    min_degree: int = 0,
) -> Iterator[MixedGraph]:
    """Stream every labeled mixed graph on n vertices matching the filter.

    Each of the C(n, 2) vertex pairs independently takes one of four states
    (absent, un-oriented, arc forward, arc backward); the stream walks the
    state vectors in lexicographic order, so it is deterministic.  No
    isomorphism reduction.  The full stream has 4**C(n, 2) members, hence
    the cap (exhausting n = 6 is already around 10**9 graphs).
    """
    if n > DEFAULT_GRAPH_CAP:
        raise ValueError(f"n = {n} above enumeration cap {DEFAULT_GRAPH_CAP}")
    pair_count = n * (n - 1) // 2
    # lexicographic, the last pair's state changing fastest
    yield from _passing_graphs(n, product(range(4), repeat=pair_count),
                               connected_only, min_degree)


def sample_mixed_graphs(
    n: int,
    count: int,
    seed: int,
    connected_only: bool = True,
    min_degree: int = 1,
) -> list[MixedGraph]:
    """Seeded uniform sample of labeled mixed graphs (with rejection).

    Draws edge-state vectors uniformly and keeps those passing the filter
    until count graphs are collected; deterministic for a fixed seed.
    Raises if min_degree exceeds n - 1, which no graph on n vertices meets.
    """
    if min_degree > n - 1:
        raise ValueError(
            f"min_degree {min_degree} above n - 1 = {n - 1}: no graph passes"
        )
    rng = random.Random(seed)
    pair_count = n * (n - 1) // 2
    draws = (tuple(rng.randrange(4) for _ in range(pair_count))
             for _ in repeat(None))
    return list(islice(
        _passing_graphs(n, draws, connected_only, min_degree), count))
