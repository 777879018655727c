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
Q = prod_{uncovered} d_i / prod_all d_i.  It enumerates the cycles once per
underlying graph, reads every member's cycle gains off one integer matrix
product, and fills one subset recursion for the whole block;
``elementary_weight_numerators`` is its one-graph case.

Everything here is desk scale: the combinatorial routines assume n <= ~10
and graph enumeration is capped (default 6) because the number of labeled
mixed graphs grows as 4**C(n, 2).
"""

from __future__ import annotations

import random
from itertools import combinations, groupby, islice, product, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gains import _CLASS_BY_EXPONENT, CycleClass
from .graphs import EdgeKind, EdgeRecord, MixedGraph, group_by_underlying

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


def _component_weights(graphs: Sequence[MixedGraph],
                       groups: list[list[int]]) -> np.ndarray:
    """W[mask, j]: the summed factors of graph j's edges and cycles whose
    vertex set is ``mask`` (bit i for vertex i + 1).

    An edge contributes -1.  A cycle of gain class c contributes
    (-1)**(length - 1 + [c sign-flipping]) * (2 if c doubled else 1).  The
    cycles are found once per underlying graph.  Each member's cycle gain
    exponents are then K @ P.T mod 6, where P[c, j] is +1 or -1 as cycle c
    traverses pair j upwards or downwards (0 off the cycle), and K[g, j] is
    the exponent of pair j traversed upwards in member g: 0 for an
    un-oriented edge, 1 for an arc upwards and -1 for an arc downwards.
    ``groups`` is group_by_underlying(graphs).
    """
    n = graphs[0].n
    weights = np.zeros((1 << n, len(graphs)), dtype=np.int64)
    for members in groups:
        first = graphs[members[0]]
        pairs = np.array(first.underlying_pairs(), dtype=np.int64).reshape(-1, 2) - 1
        weights[np.ix_((1 << pairs).sum(axis=1), members)] -= 1
        cycles = enumerate_cycles(first)
        if not cycles:
            continue
        # column[u, v]: the index of pair {u + 1, v + 1}
        column = np.zeros((n, n), dtype=np.int64)
        column[pairs[:, 0], pairs[:, 1]] = np.arange(len(pairs))
        column[pairs[:, 1], pairs[:, 0]] = np.arange(len(pairs))
        # int8 holds each exponent sum: at most n terms of -1, 0 or 1
        traversal = np.zeros((len(cycles), len(pairs)), dtype=np.int8)
        masks = np.empty(len(cycles), dtype=np.int64)
        parity = np.empty(len(cycles), dtype=np.int64)
        start = 0
        # cycles come sorted by length, so each length is one array
        for length, same in groupby(cycles, key=len):
            walk = np.array(list(same), dtype=np.int64) - 1
            rows = np.arange(start, start + len(walk))
            step = np.roll(walk, -1, axis=1)
            traversal[rows[:, np.newaxis], column[walk, step]] = np.sign(step - walk)
            masks[rows] = (1 << walk).sum(axis=1)
            parity[rows] = -1 if length % 2 == 0 else 1
            start += len(walk)
        exponents = np.array(
            [[0 if e.kind is EdgeKind.UNDIRECTED else 1 if e.u < e.v else -1
              for e in graphs[j].edges] for j in members],
            dtype=np.int8).reshape(len(members), -1)
        factors = _CYCLE_FACTOR[exponents @ traversal.T % 6] * parity
        np.add.at(weights, (masks[:, np.newaxis], np.array(members)), factors.T)
    return weights


def elementary_weight_numerator_rows(graphs: Sequence[MixedGraph]) -> np.ndarray:
    """Row j, entry k: the signed weights of graph j's order-k elementary
    subgraphs summed over the common denominator prod d_i, for a block of
    graphs of one order, as a (G, n + 1) int64 array.

    Entry k, divided by prod d_i, equals the sum of the signed weights of
    the order-k elementary subgraphs of graph j.  Each component contributes
    its factor (see _component_weights) and each uncovered vertex its
    degree.  S[U], the sums over the elementary subgraphs of the subgraph
    induced on the vertex set U (host degrees throughout), decide U's
    lowest vertex i: left uncovered, S[U] = d_i * S[U - i]; covered by a
    component M, shift S[U - M] by |M| orders and scale it by W[M].  The
    table is filled by lowest vertex from n down to 1, every set U and
    every graph at once: about one array operation per component vertex
    set of the block.

    Every partial sum is a sub-sum of the expansion of the permanent of
    D + A, which is at most prod 2 d_i <= (2n - 2)**n: about 3.6e12 at
    n = 10, so int64 holds it.  Orders where that bound reaches 2**63
    (n >= 14) are refused.
    """
    return _numerator_rows(graphs, group_by_underlying(graphs))


def _numerator_rows(graphs: Sequence[MixedGraph],
                    groups: list[list[int]]) -> np.ndarray:
    """elementary_weight_numerator_rows, given the block's grouping by
    underlying graph (group_by_underlying)."""
    n = graphs[0].n
    if (2 * n - 2) ** n >= 2 ** 63:
        raise ValueError(f"n = {n}: the numerators may overflow int64")
    degrees = np.array([g.degrees() for g in graphs], dtype=np.int64).T
    weights = _component_weights(graphs, groups)
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
    return sums[-1].T


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
