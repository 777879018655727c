import math

import numpy as np
import pytest

from mixedrandic import (
    EdgeKind,
    MixedGraph,
    cycle_graph,
    directed_cycle,
    hermitian_adjacency,
    incidence_matrix,
    interlacing_check,
    laplacian,
    parse_graph,
    path_graph,
    population,
    randic_matrix,
    randic_via_incidence,
)
from mixedrandic.gains import OMEGA, W, W_BAR
from mixedrandic.graphs import EdgeRecord
from mixedrandic.matrices import (
    edge_table,
    hermitian_adjacencies,
    incidence_matrices,
    is_hermitian,
    laplacians,
    randic_matrices,
    randic_stack,
    randic_via_incidences,
)

from test_graphs import group_by_underlying

w = W.value
wbar = W_BAR.value


def test_hermitian_adjacency_entries():
    np.testing.assert_allclose(
        hermitian_adjacency(MixedGraph.build(2, undirected_pairs=[(1, 2)])),
        np.array([[0, 1], [1, 0]], dtype=complex),
    )
    np.testing.assert_allclose(
        hermitian_adjacency(MixedGraph.build(2, arcs=[(1, 2)])),
        np.array([[0, w], [wbar, 0]]),
    )
    np.testing.assert_allclose(
        hermitian_adjacency(directed_cycle(3)),
        np.array([[0, w, wbar], [wbar, 0, w], [w, wbar, 0]]),
    )


def test_randic_entries():
    np.testing.assert_allclose(
        randic_matrix(path_graph(2)), np.array([[0, 1], [1, 0]], dtype=complex)
    )
    r3 = randic_matrix(cycle_graph(3))
    np.testing.assert_allclose(r3, (np.ones((3, 3)) - np.eye(3)) / 2)
    np.testing.assert_allclose(
        randic_matrix(directed_cycle(3)), hermitian_adjacency(directed_cycle(3)) / 2
    )


def loop_randic_matrix(g):
    """Reference builder: one Python complex per edge, conjugate written
    into the transposed slot."""
    d = g.degrees()
    r = np.zeros((g.n, g.n), dtype=complex)
    for e in g.edges:
        i, j = e.u - 1, e.v - 1
        val = (1.0 / math.sqrt(d[i] * d[j])) * (
            1.0 + 0.0j if e.kind is EdgeKind.UNDIRECTED else OMEGA)
        r[i, j] = val
        r[j, i] = val.conjugate()
    return r


def same_bits(a, b):
    # np.array_equal, and also equal signs of zero
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_randic_matrices_rows_are_the_edge_deleted_matrices(graphs_with_deletions):
    for g, deleted in graphs_with_deletions:
        stack = randic_matrices(g, deleted)
        assert stack.shape == (1 + len(deleted), g.n, g.n)
        assert same_bits(stack[0], loop_randic_matrix(g))
        assert same_bits(randic_matrix(g), loop_randic_matrix(g))
        for row, e in zip(stack[1:], deleted):
            smaller = MixedGraph(g.n, tuple(x for x in g.edges if x != e))
            assert np.array_equal(row, randic_matrix(smaller))
            assert same_bits(row, loop_randic_matrix(smaller))


def removable_edges(g):
    d = g.degrees()
    return [e for e in g.edges if d[e.u - 1] > 1 and d[e.v - 1] > 1]


def orders(graphs):
    by_order = {}
    for g, deleted in graphs:
        by_order.setdefault(g.n, []).append((g, deleted))
    return by_order.values()


@pytest.fixture(scope="module")
def populations(graphs_with_deletions):
    """Stacks that span graphs: every order of graphs_with_deletions, and
    every n = 4 graph with its removable edges."""
    return list(orders(graphs_with_deletions)) + [
        [(g, removable_edges(g)) for g in population(4)]]


def test_edge_table_rows_are_the_edges_in_order(populations):
    for order in populations:
        graphs = [g for g, _ in order]
        degrees, (owner, u, v, arc) = edge_table(graphs)
        assert degrees.dtype == np.int64
        assert degrees.tolist() == [list(g.degrees()) for g in graphs]
        assert list(zip(owner.tolist(), u.tolist(), v.tolist(), arc.tolist())) == [
            (i, e.u - 1, e.v - 1, e.kind is EdgeKind.ARC)
            for i, g in enumerate(graphs) for e in g.edges]


def stack_slices(graphs, deleted):
    """graph_of and cut_of of randic_stack for each graph, then each graph
    less each of its deleted edges in turn, as rows of edge_table(graphs)."""
    slices, start = [], 0
    for i, (g, cut) in enumerate(zip(graphs, deleted)):
        slices.append((i, -1))
        slices += [(i, start + g.edges.index(e)) for e in cut]
        start += g.m
    return np.array(slices, dtype=np.intp).reshape(-1, 2).T


def test_population_stack_is_the_per_graph_stacks(populations):
    for order in populations:
        graphs, deleted = zip(*order)
        # the graphs, each followed by its deletions, then one underlying
        # graph per group of graphs sharing it
        groups = group_by_underlying(graphs)
        underlying = [graphs[members[0]].underlying_graph() for members in groups]
        graph_of, cut_of = stack_slices([*graphs, *underlying],
                                        [*deleted, *([()] * len(underlying))])
        stack = randic_stack(*edge_table([*graphs, *underlying]), graph_of, cut_of)
        parts = ([randic_matrices(g, cut) for g, cut in order]
                 + [randic_matrices(h) for h in underlying])
        assert same_bits(stack, np.concatenate(parts))
        # a group's matrix is each member's own underlying matrix
        tail = stack[len(stack) - len(underlying):]
        for plain, members in zip(tail, groups):
            for i in members:
                assert same_bits(plain, randic_matrix(graphs[i].underlying_graph()))
        # one solve of the population, row for row the per-graph solves
        rows = np.linalg.eigvalsh(stack)
        singles = np.concatenate([np.linalg.eigvalsh(part) for part in parts])
        assert rows.tobytes() == singles.tobytes()


def test_population_stack_takes_slices_in_any_order(populations):
    order = populations[-1]
    graphs, deleted = zip(*order)
    table = edge_table(graphs)
    graph_of, cut_of = stack_slices(graphs, deleted)
    stack = randic_stack(*table, graph_of, cut_of)
    shuffled = np.random.default_rng(3).permutation(len(graph_of))
    assert same_bits(randic_stack(*table, graph_of[shuffled], cut_of[shuffled]),
                     stack[shuffled])


def loop_hermitian_adjacency(g):
    """Reference: one Python complex per edge."""
    h = np.zeros((g.n, g.n), dtype=complex)
    for e in g.edges:
        val = 1.0 + 0.0j if e.kind is EdgeKind.UNDIRECTED else OMEGA
        h[e.u - 1, e.v - 1] = val
        h[e.v - 1, e.u - 1] = val.conjugate()
    return h


def loop_randic_via_incidence(g):
    """Reference: the incidence matrix column by column, one graph at a
    time through the same products."""
    s = np.zeros((g.n, g.m), dtype=complex)
    for col, e in enumerate(g.edges):
        if e.kind is EdgeKind.UNDIRECTED:
            s[e.u - 1, col], s[e.v - 1, col] = 1.0, -1.0
        else:
            s[e.v - 1, col], s[e.u - 1, col] = 1.0, -OMEGA
    half = np.diag([1.0 / math.sqrt(d) for d in g.degrees()]) @ s
    return s, np.eye(g.n, dtype=complex) - half @ half.conj().T


def test_population_builders_match_per_graph_loops(populations):
    for order in populations:
        graphs = [g for g, _ in order]
        table = edge_table(graphs)
        adjacency = hermitian_adjacencies(*table)
        lap = laplacians(*table)
        incidence = incidence_matrices(*table)
        via = randic_via_incidences(*table)
        width = max(g.m for g in graphs)
        assert incidence.shape == (len(graphs), graphs[0].n, width)
        for i, g in enumerate(graphs):
            h = loop_hermitian_adjacency(g)
            assert same_bits(adjacency[i], h)
            expected = -h
            expected[range(g.n), range(g.n)] = g.degrees()
            assert same_bits(lap[i], expected)
            s, reference = loop_randic_via_incidence(g)
            assert same_bits(incidence[i, :, :g.m], s)
            assert not incidence[i, :, g.m:].any()
            assert same_bits(via[i], reference)


def test_randic_matrices_guards():
    with pytest.raises(ValueError, match="not in graph"):
        randic_matrices(path_graph(3), (cycle_graph(3).edges[-1],))
    with pytest.raises(ValueError, match="isolates vertex 1"):
        randic_matrices(path_graph(3), path_graph(3).edges[:1])
    iso = parse_graph("mixedgraph v1\nvertices 3\n1 -- 2")
    with pytest.raises(ValueError, match="vertex 3 is isolated"):
        randic_matrices(iso)


def test_deleting_the_graphs_own_edge_compares_no_edges(monkeypatch):
    # the deleted edge, the graph's own object from edge_between, is found
    # without an __eq__ call per earlier edge
    calls = []
    eq = EdgeRecord.__eq__

    def counted(self, other):
        calls.append(other)
        return eq(self, other)

    g = cycle_graph(10)
    monkeypatch.setattr(EdgeRecord, "__eq__", counted)
    assert interlacing_check(g, g.edges[-1].pair).edge is g.edges[-1]
    assert calls == []


def test_is_hermitian_on_stacks():
    stack = randic_matrices(cycle_graph(4), cycle_graph(4).edges)
    assert is_hermitian(stack)
    stack[2, 0, 1] += 1e-6
    assert not is_hermitian(stack)
    assert not is_hermitian(np.zeros(3))


def test_is_hermitian_keeps_its_tolerance_past_the_exact_test():
    # not exactly Hermitian, so the 1e-12 relative tolerance decides
    stack = randic_matrices(cycle_graph(4), cycle_graph(4).edges)
    stack[1, 0, 1] += 5e-13
    assert not np.array_equal(stack, stack.conj().swapaxes(-2, -1))
    assert is_hermitian(stack)
    stack[1, 0, 1] += 1e-12
    assert not is_hermitian(stack)
    scaled = 1e6 * randic_matrix(cycle_graph(3))
    scaled[0, 1] += 1e-7
    assert is_hermitian(scaled)
    assert not is_hermitian(np.full((2, 2), np.nan))
    assert is_hermitian(np.zeros((0, 3, 3)))


def test_randic_matches_sandwich_product():
    for g in population(4)[:200]:
        d = np.diag(1 / np.sqrt(np.array(g.degrees(), dtype=float)))
        expected = d @ hermitian_adjacency(g) @ d
        assert np.max(np.abs(randic_matrix(g) - expected)) <= 1e-14


def test_everything_is_hermitian():
    for g in population(3):
        assert is_hermitian(hermitian_adjacency(g))
        assert is_hermitian(randic_matrix(g))
        assert is_hermitian(laplacian(g))


def test_isolated_vertex_is_rejected_by_normalized_forms():
    g = parse_graph("mixedgraph v1\nvertices 3\n1 -- 2")
    with pytest.raises(ValueError):
        randic_matrix(g)
    with pytest.raises(ValueError, match="vertex 3 is isolated"):
        randic_via_incidence(g)
    # the unnormalized laplacian is still fine
    assert laplacian(g).shape == (3, 3)


def test_laplacian_entries():
    np.testing.assert_allclose(
        laplacian(path_graph(2)), np.array([[1, -1], [-1, 1]], dtype=complex)
    )
    np.testing.assert_allclose(
        laplacian(MixedGraph.build(2, arcs=[(1, 2)])), np.array([[1, -w], [-wbar, 1]])
    )


def test_incidence_column_structure():
    g = MixedGraph.build(3, undirected_pairs=[(2, 3)], arcs=[(1, 2)])
    mat = incidence_matrix(g)
    assert mat.shape == (3, 2)
    for col, e in zip(mat.T, g.edges):
        support = {k + 1 for k in range(3) if abs(col[k]) > 0}
        assert support == {e.u, e.v}
        assert abs(abs(col[e.u - 1]) - 1) < 1e-14
        assert abs(abs(col[e.v - 1]) - 1) < 1e-14
        if e.kind.name == "UNDIRECTED":
            assert abs(col[e.u - 1] + col[e.v - 1]) < 1e-14
        else:
            assert abs(col[e.u - 1] + w * col[e.v - 1]) < 1e-14


def test_incidence_factorization_small():
    for g in population(3):
        assert np.max(np.abs(randic_via_incidence(g) - randic_matrix(g))) <= 1e-12

