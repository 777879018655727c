"""Exhaustive enumeration: cycles, elementary subgraphs, small mixed graphs.

Elementary subgraphs (vertex-disjoint unions of single edges and cycles)
carry the bookkeeping that the combinatorial determinant and characteristic
polynomial formulas need: component counts, cycle classes and the exact
rational weight Q = prod 1/d_i over covered vertices, with degrees taken in
the *host* graph.

``elementary_weight_numerators`` sums the signed weights of every order in
one recursion: it finds and classifies each cycle once and keeps each
order's sum as an integer numerator over the common denominator prod d_i,
since Q = prod_{uncovered} d_i / prod_all d_i.  ``enumerate_elementary_subgraphs``
lists the subgraphs of one order one by one and is the reference the sums
are tested against.

Everything here is desk scale: the combinatorial routines assume n <= ~10
and graph enumeration is capped (default 6) because the number of labeled
mixed graphs grows as 4**C(n, 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .gains import CycleClass, GainView, classify_cycle, gain_view
from .graphs import EdgeKind, EdgeRecord, MixedGraph

DEFAULT_GRAPH_CAP = 6

#: Cycle classes whose gain flips the sign of a weight, and those that
#: double it (see ElementarySubgraph.signed_weight).
_SIGN_FLIPPING = (CycleClass.NEGATIVE, CycleClass.SEMI_NEGATIVE)
_DOUBLED = (CycleClass.POSITIVE, CycleClass.NEGATIVE)

#: Per-pair states when enumerating mixed graphs, in stream order.
_PAIR_STATES = ("absent", "undirected", "forward", "backward")


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


@dataclass(frozen=True)
class ElementarySubgraph:
    """A vertex-disjoint union of single edges and cycles of a host graph.

    Stored with the derived counters used by the determinant expansion:

    - order: number of covered vertices
    - c: number of components; r = order - c
    - s: number of cycle components, split into positive / negative /
      semi-positive / semi-negative counts by cycle gain
    - q: prod of 1/d_i over covered vertices, host-graph degrees, exact
    """

    edges: tuple[EdgeRecord, ...]
    cycles: tuple[tuple[int, ...], ...]
    order: int
    c: int
    r: int
    s: int
    l_pos: int
    l_neg: int
    l_semi_pos: int
    l_semi_neg: int
    q: Fraction

    @classmethod
    def assemble(
        cls,
        view: GainView,
        degrees: tuple[int, ...],
        edges: tuple[EdgeRecord, ...],
        cycles: tuple[tuple[int, ...], ...],
    ) -> "ElementarySubgraph":
        counts = {cls_: 0 for cls_ in CycleClass}
        for cycle in cycles:
            counts[classify_cycle(view, cycle)] += 1
        covered = [v for e in edges for v in (e.u, e.v)]
        covered += [v for cycle in cycles for v in cycle]
        q = Fraction(1)
        for v in covered:
            q /= degrees[v - 1]
        order = len(covered)
        c = len(edges) + len(cycles)
        return cls(
            edges=edges,
            cycles=cycles,
            order=order,
            c=c,
            r=order - c,
            s=len(cycles),
            l_pos=counts[CycleClass.POSITIVE],
            l_neg=counts[CycleClass.NEGATIVE],
            l_semi_pos=counts[CycleClass.SEMI_POSITIVE],
            l_semi_neg=counts[CycleClass.SEMI_NEGATIVE],
            q=q,
        )

    def signed_weight(self) -> Fraction:
        """(-1)**(r + l_neg + l_semi_neg) * 2**(l_neg + l_pos) * q."""
        sign = -1 if (self.r + self.l_neg + self.l_semi_neg) % 2 else 1
        return sign * Fraction(2) ** (self.l_neg + self.l_pos) * self.q


def enumerate_elementary_subgraphs(g: MixedGraph, k: int) -> list[ElementarySubgraph]:
    """Every elementary subgraph of g covering exactly k vertices.

    k = 0 yields the empty subgraph, k = g.n the spanning ones.  Recursion on
    the lowest not-yet-decided vertex: it is either left out or covered by an
    edge or a cycle whose minimum vertex it is.
    """
    if not 0 <= k <= g.n:
        raise ValueError(f"order {k} out of range 0..{g.n}")
    view = gain_view(g)
    degrees = g.degrees()
    adj = g.adjacency_sets()
    all_cycles = enumerate_cycles(g)
    cycles_by_min = {v: [c for c in all_cycles if c[0] == v] for v in g.vertices()}

    results: list[ElementarySubgraph] = []

    def recurse(
        available: set[int],
        covered: int,
        edges: list[EdgeRecord],
        cycles: list[tuple[int, ...]],
    ) -> None:
        if covered == k:
            results.append(
                ElementarySubgraph.assemble(view, degrees, tuple(edges), tuple(cycles))
            )
            return
        if not available or covered + len(available) < k:
            return
        v = min(available)
        rest = available - {v}
        # leave v uncovered
        recurse(rest, covered, edges, cycles)
        # cover v by an edge
        if covered + 2 <= k:
            for w in sorted(adj[v]):
                if w in rest:
                    edge = g.edge_between(v, w)
                    assert edge is not None
                    edges.append(edge)
                    recurse(rest - {w}, covered + 2, edges, cycles)
                    edges.pop()
        # cover v by a cycle having v as its minimum vertex
        for cycle in cycles_by_min[v]:
            if covered + len(cycle) <= k and all(u == v or u in rest for u in cycle):
                cycles.append(cycle)
                recurse(rest - set(cycle), covered + len(cycle), edges, cycles)
                cycles.pop()

    recurse(set(g.vertices()), 0, [], [])
    return results


def elementary_weight_numerators(g: MixedGraph) -> tuple[int, ...]:
    """Per order k = 0..n, the signed weights of the order-k elementary
    subgraphs summed over the common denominator prod d_i.

    Entry k, divided by prod d_i, equals the sum of ``signed_weight()`` over
    ``enumerate_elementary_subgraphs(g, k)``.  Each component contributes a
    factor of its own: -1 for an edge (r grows by 1), and
    (-1)**(length - 1 + [negative or semi-negative]) * 2**[positive or
    negative] for a cycle; each uncovered vertex contributes its degree.
    The recursion decides the lowest undecided vertex (uncovered, or the
    minimum of an edge or cycle), so the sums over a set of undecided
    vertices depend on that set alone and are tabled by it.
    """
    view = gain_view(g)
    degrees = g.degrees()
    # components[i]: (vertex mask, size, factor) of each edge or cycle whose
    # minimum vertex is i + 1
    components: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    for u, v in g.underlying_pairs():
        components[u - 1].append(((1 << (u - 1)) | (1 << (v - 1)), 2, -1))
    for cycle in enumerate_cycles(g):
        cls_ = classify_cycle(view, cycle)
        flip = (len(cycle) - 1 + (cls_ in _SIGN_FLIPPING)) % 2
        factor = (-1 if flip else 1) * (2 if cls_ in _DOUBLED else 1)
        mask = sum(1 << (v - 1) for v in cycle)
        components[cycle[0] - 1].append((mask, len(cycle), factor))

    table: dict[int, list[int]] = {0: [1]}

    def sums(undecided: int) -> list[int]:
        # entry k: weight numerators of the order-k elementary subgraphs of
        # the subgraph induced on `undecided`, host degrees throughout
        if undecided in table:
            return table[undecided]
        low = undecided & -undecided
        i = low.bit_length() - 1
        out = [degrees[i] * x for x in sums(undecided ^ low)] + [0]
        for mask, size, factor in components[i]:
            if mask & undecided == mask:
                for k, x in enumerate(sums(undecided ^ mask)):
                    out[k + size] += factor * x
        table[undecided] = out
        return out

    out = tuple(sums((1 << g.n) - 1))
    # sums refers to itself: dropping it breaks the reference cycle that
    # would keep the table alive until the collector's next full pass
    del sums
    return out


def spanning_elementary_subgraphs(g: MixedGraph) -> list[ElementarySubgraph]:
    return enumerate_elementary_subgraphs(g, g.n)


def _graph_from_states(n: int, states: tuple[str, ...]) -> MixedGraph:
    records = []
    for (u, v), state in zip(combinations(range(1, n + 1), 2), states):
        if state == "undirected":
            records.append(EdgeRecord(u, v, EdgeKind.UNDIRECTED))
        elif state == "forward":
            records.append(EdgeRecord(u, v, EdgeKind.ARC))
        elif state == "backward":
            records.append(EdgeRecord(v, u, EdgeKind.ARC))
    return MixedGraph(n, tuple(records))


def _passes(g: MixedGraph, connected_only: bool, min_degree: int) -> bool:
    if min_degree > 0 and min(g.degrees()) < min_degree:
        return False
    if connected_only and not g.is_connected():
        return False
    return True


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
    pairs = list(combinations(range(1, n + 1), 2))
    state_vector = [0] * len(pairs)
    while True:
        states = tuple(_PAIR_STATES[i] for i in state_vector)
        g = _graph_from_states(n, states)
        if _passes(g, connected_only, min_degree):
            yield g
        # increment the base-4 counter, most significant pair first
        pos = len(state_vector) - 1
        while pos >= 0 and state_vector[pos] == 3:
            state_vector[pos] = 0
            pos -= 1
        if pos < 0:
            return
        state_vector[pos] += 1


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
    pairs = list(combinations(range(1, n + 1), 2))
    out: list[MixedGraph] = []
    while len(out) < count:
        states = tuple(_PAIR_STATES[rng.randrange(4)] for _ in pairs)
        g = _graph_from_states(n, states)
        if _passes(g, connected_only, min_degree):
            out.append(g)
    return out
