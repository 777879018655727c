import gc
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby, islice

import numpy as np
import pytest

from mixedrandic import (
    MixedGraph,
    cycle_graph,
    directed_cycle,
    enumerate_cycles,
    enumerate_mixed_graphs,
    path_graph,
    run_theorem_suite,
    sample_mixed_graphs,
)
from mixedrandic import enumeration
from mixedrandic.enumeration import (
    _CYCLE_FACTOR,
    _DOUBLED,
    _PATH_CELLS,
    _SIGN_FLIPPING,
    _component_weights,
    _path_template,
    elementary_weight_numerator_rows,
    elementary_weight_numerators,
)
from mixedrandic.gains import CycleClass, GainView, classify_cycle, gain_view
from mixedrandic.graphs import EdgeKind, EdgeRecord
from mixedrandic.matrices import edge_table

from test_graphs import group_by_underlying


# The reference for the elementary-subgraph sums: every elementary subgraph
# of one order listed one by one, with its counters and exact weight.
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


def spanning_elementary_subgraphs(g: MixedGraph) -> list[ElementarySubgraph]:
    return enumerate_elementary_subgraphs(g, g.n)


def complete_graph(n):
    return MixedGraph.build(n, undirected_pairs=[(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])


def test_cycles_of_triangle_and_tree():
    assert enumerate_cycles(cycle_graph(3)) == [(1, 2, 3)]
    assert enumerate_cycles(path_graph(4)) == []


def test_cycles_of_k4():
    cycles = enumerate_cycles(complete_graph(4))
    assert len(cycles) == 7
    assert sum(1 for c in cycles if len(c) == 3) == 4
    assert sum(1 for c in cycles if len(c) == 4) == 3
    # canonical form: smallest vertex first, then the smaller neighbor
    for c in cycles:
        assert c[0] == min(c)
        assert c[1] < c[-1]


def test_elementary_subgraphs_of_triangle():
    spanning = enumerate_elementary_subgraphs(cycle_graph(3), 3)
    assert len(spanning) == 1  # three vertices cannot be covered by disjoint edges
    assert spanning[0].s == 1
    order2 = enumerate_elementary_subgraphs(cycle_graph(3), 2)
    assert len(order2) == 3
    for sub in order2:
        assert sub.c == 1 and sub.r == 1 and sub.s == 0
        assert sub.q == Fraction(1, 4)  # host degrees are 2 and 2


def test_no_spanning_elementary_subgraph_of_p3():
    assert enumerate_elementary_subgraphs(path_graph(3), 3) == []


def assert_one_pass_matches(g, by_order, numerators=None):
    """Each order's one-pass sum (elementary_weight_numerators(g) unless
    given) equals the summed reference weights of by_order[k], the order-k
    elementary subgraphs."""
    if numerators is None:
        numerators = elementary_weight_numerators(g)
    assert len(numerators) == len(by_order) == g.n + 1
    denominator = math.prod(g.degrees())
    for k, (numerator, subs) in enumerate(zip(numerators, by_order)):
        reference = sum((sub.signed_weight() for sub in subs), Fraction(0))
        assert Fraction(numerator, denominator) == reference, (g, k)


def reference_subgraphs(g):
    return [enumerate_elementary_subgraphs(g, k) for k in range(g.n + 1)]


def test_counter_invariants_exhaustive(exhaustive_population):
    for g in exhaustive_population:
        by_order = reference_subgraphs(g)
        assert_one_pass_matches(g, by_order)
        for subs in by_order:
            for sub in subs:
                assert sub.l_pos + sub.l_neg + sub.l_semi_pos + sub.l_semi_neg == sub.s
                assert sub.r == sub.order - sub.c
                degrees = g.degrees()
                covered = [v for comp in sub.cycles for v in comp]
                covered += [v for e in sub.edges for v in (e.u, e.v)]
                q = Fraction(1)
                for v in covered:
                    q /= degrees[v - 1]
                assert q == sub.q


@pytest.mark.parametrize("n", [5, 6])
def test_one_pass_weights_on_sample(n):
    for g in sample_mixed_graphs(n, 25, seed=31):
        assert_one_pass_matches(g, reference_subgraphs(g))


def recursive_numerators(g):
    """The numerators by a per-graph recursion on the set of undecided
    vertices, memoized by that set: the reference for the block rows."""
    view = gain_view(g)
    degrees = g.degrees()
    # components[i]: (vertex mask, size, factor) of each edge or cycle whose
    # minimum vertex is i + 1
    components = [[] for _ in range(g.n)]
    for u, v in g.underlying_pairs():
        components[u - 1].append(((1 << (u - 1)) | (1 << (v - 1)), 2, -1))
    for cycle in enumerate_cycles(g):
        cls_ = classify_cycle(view, cycle)
        flip = (len(cycle) - 1 + (cls_ in _SIGN_FLIPPING)) % 2
        factor = (-1 if flip else 1) * (2 if cls_ in _DOUBLED else 1)
        mask = sum(1 << (v - 1) for v in cycle)
        components[cycle[0] - 1].append((mask, len(cycle), factor))

    table = {0: [1]}

    def sums(undecided):
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

    return tuple(sums((1 << g.n) - 1))


def cycle_component_weights(graphs):
    """W[mask, j] of _component_weights from the listed cycles: the
    reference for the path programme.

    The cycles are found once per underlying graph.  Each member's cycle
    gain exponents are then K @ P.T mod 6, where P[c, j] is +1 or -1 as
    cycle c traverses pair j upwards or downwards (0 off the cycle), and
    K[g, j] is the exponent of pair j traversed upwards in member g: 0 for
    an un-oriented edge, 1 for an arc upwards and -1 for an arc downwards.
    """
    n = graphs[0].n
    weights = np.zeros((1 << n, len(graphs)), dtype=np.int64)
    for members in group_by_underlying(graphs):
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


def assert_rows_match(block, by_subgraphs=True):
    """The block's component weights equal the listed cycles' and its rows
    the per-graph recursion and, unless told otherwise, the summed weights
    of the enumerated elementary subgraphs."""
    weights = _component_weights(*edge_table(block))
    assert weights.dtype == np.int64
    assert np.array_equal(weights, cycle_component_weights(block))
    rows = elementary_weight_numerator_rows(*edge_table(block))
    assert rows.dtype == np.int64 and rows.shape == (len(block), block[0].n + 1)
    for g, row in zip(block, rows.tolist()):
        assert tuple(row) == recursive_numerators(g), g
        if by_subgraphs:
            assert_one_pass_matches(g, reference_subgraphs(g), row)


def orient(n, pairs, rng):
    """A mixed graph on the given pairs, each un-oriented or an arc either
    way at random."""
    edges = [EdgeRecord(*((u, v) if rng.random() < 0.5 else (v, u)),
                        rng.choice((EdgeKind.UNDIRECTED, EdgeKind.ARC)))
             for u, v in pairs]
    return MixedGraph(n, tuple(edges))


def test_block_rows_on_mixed_blocks():
    rng = random.Random(7)
    k4 = [(i, j) for i, j in combinations(range(1, 5), 2)]
    star = [(1, 2), (1, 3), (1, 4)]
    block = [path_graph(4), cycle_graph(4), directed_cycle(4),
             complete_graph(4), orient(4, star, rng)]
    block += [orient(4, k4, rng) for _ in range(4)]
    block += [orient(4, [(1, 2), (2, 3), (1, 3), (3, 4)], rng) for _ in range(3)]
    groups = group_by_underlying(block)
    # several underlying graphs, some repeated with other orientations
    assert 1 < len(groups) < len(block) and min(map(len, groups)) == 1
    assert_rows_match(block)
    assert_rows_match([path_graph(4), orient(4, star, rng)])  # trees only
    assert_rows_match(list(enumerate_mixed_graphs(2, connected_only=True)))


def test_block_rows_on_the_exhaustive_population(exhaustive_population):
    for n in (2, 3, 4):
        block = [g for g in exhaustive_population if g.n == n]
        assert_rows_match(block, by_subgraphs=False)


@pytest.mark.parametrize("n,count", [(5, 40), (6, 30), (7, 12), (8, 6)])
def test_block_rows_on_seeded_samples(n, count):
    assert_rows_match(sample_mixed_graphs(n, count, seed=n))


def test_block_rows_across_path_programme_chunks():
    block = sample_mixed_graphs(6, 300, seed=6)
    assert len(block) > 2 * (_PATH_CELLS // (6 * _path_template(6)[1]))
    assert_rows_match(block, by_subgraphs=False)


def slot_major_states(n, k):
    """The states (U, v) of layer k of the path programme, numbered as
    _path_template numbers them: layer 1 by v; from k = 2 on, for each
    end slot s, the vertex sets of size k ascending, each with the s-th of
    its vertices above min U."""
    if k == 1:
        return [(1 << v, v) for v in range(n)]
    sets = [sum(1 << v for v in c) for c in combinations(range(n), k)]
    return [(mask, path_ends(mask)[s]) for s in range(k - 1)
            for mask in sorted(sets)]


def path_ends(mask):
    """The vertices a path from min U over the set U may end at."""
    members = [v for v in range(mask.bit_length()) if mask >> v & 1]
    return members if len(members) == 1 else members[1:]


@pytest.mark.parametrize("n", range(2, 8))
def test_path_template_is_slot_major(n):
    layers, widest = _path_template(n)
    assert len(layers) == n - 1
    assert widest == max(len(layer[3]) for layer in layers)
    for k, (sets, close, own, source, pair) in enumerate(layers, start=2):
        states = slot_major_states(n, k)
        before = slot_major_states(n, k - 1)
        assert sets.tolist() == sorted({mask for mask, _ in states})
        assert close.tolist() == [v * n + (mask & -mask).bit_length() - 1
                                  for mask, v in states]
        assert own.tolist() == [7 * x for x in range(len(states))]
        slabs = max(1, k - 2)
        assert len(source) == len(pair) == slabs * len(states)
        assert not (source % 7).any()
        tails = [[] for _ in states]
        for t, (cell, step) in enumerate(zip(source.tolist(), pair.tolist())):
            # slab t // len(states) enters every state in order
            mask, v = states[t % len(states)]
            tail, head = divmod(step, n)
            assert head == v
            assert before[cell // 7] == (mask & ~(1 << v), tail)
            tails[t % len(states)].append(tail)
        # one step from each end of U - v, in slab order
        assert tails == [path_ends(mask & ~(1 << v)) for mask, v in states]


def test_path_programme_chunks_take_one_path(monkeypatch):
    # one graph per chunk, then three: the same W, the listed cycles' W,
    # and each graph's column as its own one-graph block gives it
    block = sample_mixed_graphs(6, 7, seed=61) + [complete_graph(6)]
    table = edge_table(block)
    widest = _path_template(6)[1]
    runs = []
    for per_chunk in (1, 3):
        monkeypatch.setattr(enumeration, "_PATH_CELLS", per_chunk * 6 * widest)
        runs.append(_component_weights(*table))
        alone = [_component_weights(*edge_table([g]))[:, 0] for g in block]
        assert np.array_equal(np.stack(alone, axis=1), runs[-1])
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], cycle_component_weights(block))


def dense_order_10_graph():
    """A connected mixed graph with 10 vertices and 28 edges, its pairs and
    the generator that oriented them."""
    rng = random.Random(28)
    while True:
        pairs = sorted(rng.sample(list(combinations(range(1, 11), 2)), 28))
        g = orient(10, pairs, rng)
        if g.is_connected():
            return g, pairs, rng


def test_block_rows_on_a_dense_order_10_graph():
    g, pairs, rng = dense_order_10_graph()
    assert_rows_match([g])
    # the same underlying graph again, reoriented, in one block with it
    assert_rows_match([g, orient(10, pairs, rng)], by_subgraphs=False)


def test_block_rows_on_an_order_10_block_of_mixed_density():
    # a tree, the 28-edge graph and a complete mixed K10 in one block: each
    # graph lacks some of the vertex sets where another has a component
    rng = random.Random(10)
    tree = orient(10, [(rng.randrange(1, v), v) for v in range(2, 11)], rng)
    k10 = orient(10, list(combinations(range(1, 11), 2)), rng)
    block = [tree, dense_order_10_graph()[0], k10]
    weights = _component_weights(*edge_table(block))
    live = weights.any(axis=1)
    assert all((live & (weights[:, j] == 0)).any() for j in range(len(block)))
    assert_rows_match(block, by_subgraphs=False)
    # the suite negates the odd columns in place: the rows are a fresh
    # writable array, and a second call shares nothing with them
    table = edge_table(block)
    rows = elementary_weight_numerator_rows(*table)
    again = elementary_weight_numerator_rows(*table)
    assert rows.flags.writeable and rows.flags.owndata
    assert not np.shares_memory(rows, again)
    rows[:, 1::2] *= -1
    assert np.array_equal(elementary_weight_numerator_rows(*table), again)


def test_block_rows_at_the_largest_order_int64_admits():
    # a path with six chords: sparse enough for the per-graph references
    rng = random.Random(13)
    chords = [pair for pair in combinations(range(1, 14), 2)
              if pair[1] - pair[0] > 1]
    pairs = [(i, i + 1) for i in range(1, 13)] + rng.sample(chords, 6)
    assert_rows_match([orient(13, pairs, rng)], by_subgraphs=False)


def test_block_rows_refuse_numerators_beyond_int64():
    with pytest.raises(ValueError, match="int64"):
        elementary_weight_numerator_rows(*edge_table([complete_graph(16)]))


def test_single_edge_weight():
    sub, = spanning_elementary_subgraphs(path_graph(2))
    assert sub.signed_weight() == Fraction(-1)


@pytest.mark.parametrize(
    "g,weight",
    [
        (cycle_graph(3), Fraction(1, 4)),        # all-ones cycle counts double, even sign
        (directed_cycle(3), Fraction(-1, 4)),    # gain -1 flips the sign
        (MixedGraph.build(3, undirected_pairs=[(2, 3), (1, 3)], arcs=[(1, 2)]), Fraction(1, 8)),
    ],
)
def test_spanning_cycle_weights(g, weight):
    sub, = spanning_elementary_subgraphs(g)
    assert sub.signed_weight() == weight


def test_enumerate_counts():
    assert len(list(enumerate_mixed_graphs(1))) == 1
    assert len(list(enumerate_mixed_graphs(2, connected_only=True))) == 3
    assert len(list(enumerate_mixed_graphs(3))) == 64  # 4 ** 3 pair states
    assert len(list(enumerate_mixed_graphs(3, connected_only=True, min_degree=1))) == 54


def test_enumerate_n4_counts():
    connected = sum(1 for _ in enumerate_mixed_graphs(4, connected_only=True, min_degree=1))
    # underlying graphs by edge count: 16 trees * 27, 15 unicyclic * 81,
    # 6 five-edge * 243, 1 complete * 729
    assert connected == 16 * 27 + 15 * 81 + 6 * 243 + 729 == 3834
    min_degree_only = sum(1 for _ in enumerate_mixed_graphs(4, min_degree=1))
    # the disconnected survivors are the 3 perfect matchings in 3 * 3 orientations
    assert min_degree_only - connected == 27


def test_enumerate_cap():
    with pytest.raises(ValueError):
        list(enumerate_mixed_graphs(7))


def test_enumeration_order_is_deterministic():
    first = list(enumerate_mixed_graphs(3))
    second = list(enumerate_mixed_graphs(3))
    assert first == second


def test_spanning_matches_full_order():
    g = complete_graph(4)
    assert spanning_elementary_subgraphs(g) == enumerate_elementary_subgraphs(g, 4)


def test_sampling_determinism():
    a = sample_mixed_graphs(5, 40, seed=11)
    b = sample_mixed_graphs(5, 40, seed=11)
    c = sample_mixed_graphs(5, 40, seed=12)
    assert a == b
    assert a != c
    assert len(a) == 40
    for g in a:
        assert g.n == 5
        assert g.is_connected()
        assert min(g.degrees()) >= 1


def _graph_from_states(n, states):
    """Reference: one graph from a pair-state vector, every record new."""
    records = []
    for (u, v), state in zip(combinations(range(1, n + 1), 2), states):
        if state == 1:
            records.append(EdgeRecord(u, v, EdgeKind.UNDIRECTED))
        elif state == 2:
            records.append(EdgeRecord(u, v, EdgeKind.ARC))
        elif state == 3:
            records.append(EdgeRecord(v, u, EdgeKind.ARC))
    return MixedGraph(n, tuple(records))


def _reference_filter(g, connected_only, min_degree):
    return ((min_degree == 0 or min(g.degrees()) >= min_degree)
            and (not connected_only or g.is_connected()))


def _reference_enumeration(n, connected_only, min_degree):
    """The base-4 state counter, most significant pair first, filtering
    each graph as it is built."""
    state = [0] * (n * (n - 1) // 2)
    while True:
        g = _graph_from_states(n, state)
        if _reference_filter(g, connected_only, min_degree):
            yield g
        pos = len(state) - 1
        while pos >= 0 and state[pos] == 3:
            state[pos] = 0
            pos -= 1
        if pos < 0:
            return
        state[pos] += 1


def _reference_sample(n, count, seed, connected_only, min_degree):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = _graph_from_states(
            n, [rng.randrange(4) for _ in range(n * (n - 1) // 2)])
        if _reference_filter(g, connected_only, min_degree):
            out.append(g)
    return out


def _same_graphs(got, expected):
    # MixedGraph equality ignores edge order, which the reports keep
    return [(g.n, g.edges) for g in got] == [(g.n, g.edges) for g in expected]


@pytest.mark.parametrize("connected_only", [False, True])
def test_enumeration_matches_state_counter(connected_only):
    for n in range(1, 5):
        for min_degree in range(n):
            got = list(enumerate_mixed_graphs(n, connected_only, min_degree))
            assert _same_graphs(got, _reference_enumeration(
                n, connected_only, min_degree))


@pytest.mark.parametrize("connected_only", [False, True])
def test_sampling_matches_rejection_reference(connected_only):
    for n, seed, min_degree in [(2, 3, 1), (5, 1729, 1), (5, 8, 0),
                                (6, 1730, 2), (7, 4, 1)]:
        got = sample_mixed_graphs(n, 60, seed, connected_only, min_degree)
        assert _same_graphs(got, _reference_sample(
            n, 60, seed, connected_only, min_degree))
    assert sample_mixed_graphs(5, 0, 1) == []


def test_enumerated_graphs_share_edge_records():
    graphs = list(enumerate_mixed_graphs(4, connected_only=True, min_degree=1))
    # three records (u -- v, u -> v, v -> u) per vertex pair
    assert len({id(e) for g in graphs for e in g.edges}) == 3 * 6
    # and, within a batch, one degree tuple per distinct degree sequence
    assert (len({id(g.degrees()) for g in graphs})
            == len({g.degrees() for g in graphs}))
    sampled = sample_mixed_graphs(6, 50, seed=2)
    assert len({id(e) for g in sampled for e in g.edges}) <= 3 * 15


def test_generators_on_one_vertex():
    # no pairs: one empty vector per code or draw, and no word is read
    for connected_only in (False, True):
        got = list(enumerate_mixed_graphs(1, connected_only, 0))
        assert _same_graphs(got, _reference_enumeration(1, connected_only, 0))
        assert [(g.n, g.edges, g.degrees()) for g in got] == [(1, (), (0,))]
        sampled = sample_mixed_graphs(1, 3, 5, connected_only, 0)
        assert _same_graphs(sampled, _reference_sample(1, 3, 5, connected_only, 0))
        assert [g.degrees() for g in sampled] == [(0,)] * 3


@pytest.mark.parametrize("batch", [5, 37, 1 << 10])
def test_sampling_across_batches(batch, monkeypatch):
    # a batch of 5 words holds less than one n = 5 vector, so vectors are
    # cut across batches; records stay shared across them
    monkeypatch.setattr(enumeration, "_BATCH", batch)
    for n, seed, count in [(5, 1729, 40), (6, 3, 25)]:
        got = sample_mixed_graphs(n, count, seed)
        assert _same_graphs(got, _reference_sample(n, count, seed, True, 1))
        assert len({id(e) for g in got for e in g.edges}) <= 3 * n * (n - 1) // 2


def test_sampling_reads_bounded_batches(monkeypatch):
    # the sample needs several batches, and no read grows with its size
    asked = []

    class Recording(random.Random):
        def getrandbits(self, k):
            asked.append(k)
            return super().getrandbits(k)

    expected = _reference_sample(6, 2000, 1729, True, 1)
    monkeypatch.setattr(enumeration.random, "Random", Recording)
    assert _same_graphs(sample_mixed_graphs(6, 2000, 1729), expected)
    assert len(asked) > 1 and max(asked) == 32 * enumeration._BATCH


@pytest.mark.parametrize("batch", [1000, None])
def test_enumeration_prefix_across_chunks(batch, monkeypatch):
    # the n = 5 stream in order across chunk boundaries, filtered and not
    if batch is not None:
        monkeypatch.setattr(enumeration, "_BATCH", batch)
    chunk = enumeration._BATCH
    for connected_only, min_degree in [(False, 0), (True, 1)]:
        expected = list(islice(_reference_enumeration(
            5, connected_only, min_degree), 2 * chunk + 50))
        got = list(islice(enumerate_mixed_graphs(5, connected_only, min_degree),
                          len(expected)))
        assert _same_graphs(got, expected)
        assert len({id(e) for g in got for e in g.edges}) <= 3 * 10


def test_generated_graphs_equal_checked_graphs():
    # the generator checks one graph per presence mask and builds its other
    # graphs without the constructor's checks, from the mask's degrees
    generated = [g for n in range(1, 5) for g in enumerate_mixed_graphs(n)]
    generated += sample_mixed_graphs(5, 500, seed=1729)
    generated += sample_mixed_graphs(6, 500, seed=1729)
    for g in generated:
        checked = MixedGraph(g.n, g.edges)
        assert checked.edges == g.edges
        assert checked.degrees() == g.degrees()
    # a bad pair still raises through the checking constructor
    first = g.edges[0]
    with pytest.raises(ValueError, match="duplicate pair"):
        MixedGraph(g.n, g.edges + (EdgeRecord(first.v, first.u, EdgeKind.ARC),))
    with pytest.raises(ValueError, match="out of range"):
        MixedGraph(g.n - 1, g.edges)


def test_sampling_rejects_an_unreachable_min_degree():
    with pytest.raises(ValueError, match="min_degree"):
        sample_mixed_graphs(5, 1, seed=1, min_degree=5)
    with pytest.raises(ValueError, match="negative"):
        sample_mixed_graphs(5, -1, seed=1)
    # n - 1 is reachable: only complete underlying graphs pass
    for g in sample_mixed_graphs(4, 5, seed=1, min_degree=3):
        assert g.degrees() == (3, 3, 3, 3)


def test_cycles_charpoly_and_suite_leave_no_reference_cycles():
    # garbage in a reference cycle waits for the collector, and a graph's
    # cycle list and charpoly table are large: all of it must go at once
    g = sample_mixed_graphs(6, 1, seed=3)[0]
    gc.collect()
    enumerate_cycles(g)
    elementary_weight_numerators(g)
    run_theorem_suite(g)
    assert gc.collect() == 0


@pytest.mark.parametrize("cells", [5, 60, 900])
def test_block_rows_across_cover_step_slices(cells, monkeypatch):
    # each lowest vertex's (component, set) pairs in slices of at most
    # `cells` gathered cells: the rows equal those of one slice per step
    rng = random.Random(10)
    tree = orient(10, [(rng.randrange(1, v), v) for v in range(2, 11)], rng)
    blocks = [[tree, dense_order_10_graph()[0]],
              sample_mixed_graphs(7, 9, seed=7), [complete_graph(8)]]
    monkeypatch.setattr(enumeration, "_PATH_CELLS", 1 << 40)
    whole = [elementary_weight_numerator_rows(*edge_table(b)) for b in blocks]
    monkeypatch.setattr(enumeration, "_PATH_CELLS", cells)
    for block, rows in zip(blocks, whole):
        assert np.array_equal(
            elementary_weight_numerator_rows(*edge_table(block)), rows)
