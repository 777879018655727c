from fractions import Fraction

import pytest

from mixedrandic import (
    MixedGraph,
    ParseError,
    arc,
    cycle_graph,
    directed_cycle,
    enumerate_mixed_graphs,
    general_randic_index,
    parse_graph,
    path_graph,
    serialize_graph,
    undirected,
)
from mixedrandic.gains import graph_balance


def group_by_underlying(graphs):
    """Indices of the graphs grouped by underlying graph: the same order and
    the same pairs in the same edge order.  Groups come in order of their
    first member; facts of the underlying graph (degrees, connectivity,
    cycles, bipartiteness) are the same across a group."""
    groups = {}
    for i, g in enumerate(graphs):
        groups.setdefault((g.n, tuple(g.underlying_pairs())), []).append(i)
    return list(groups.values())


def test_parse_smallest_graph():
    g = parse_graph("mixedgraph v1\nvertices 2\n1 -- 2")
    assert g.n == 2
    assert g.edges == (undirected(1, 2),)


def test_parse_directed_triangle():
    g = parse_graph("mixedgraph v1\nvertices 3\n1 -> 2\n2 -> 3\n3 -> 1")
    assert set(g.edges) == {arc(1, 2), arc(2, 3), arc(3, 1)}
    assert g.degrees() == (2, 2, 2)


def test_parse_accepts_comments_blank_lines_crlf():
    text = "mixedgraph v1\r\nvertices 3\r\n\r\n# full-line comment\r\n1 -- 2  # trailing\r\n2 -> 3\r\n"
    g = parse_graph(text)
    assert g.m == 2
    assert g.edge_between(2, 3) == arc(2, 3)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("mixedgraph v1\nvertices 2\n1 -- 2\n2 -> 1", "duplicate pair"),
        ("mixedgraph v1\nvertices 2\n1 -- 1", "self-loop"),
        ("mixedgraph v1\nvertices 2\n1 -- 3", "out of range"),
    ],
)
def test_parse_rejects_bad_edges(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_parse_rejects_garbage():
    for text in ("", "mixedgraph v2\nvertices 2", "mixedgraph v1\nvertices 2\n1 ~ 2",
                 "mixedgraph v1\nvertices zero", "mixedgraph v1\nvertices ²",
                 # edge labels that int() would accept
                 "mixedgraph v1\nvertices 2\n١ -- 2",
                 "mixedgraph v1\nvertices 10\n1_0 -- 2",
                 "mixedgraph v1\nvertices 2\n+1 -- 2",
                 "mixedgraph v1\nvertices 2\n1 -> ２"):
        with pytest.raises(ParseError):
            parse_graph(text)


def test_round_trip_all_n3():
    # every labeled mixed graph on 3 vertices, empty included
    graphs = list(enumerate_mixed_graphs(3))
    assert len(graphs) == 64  # each of the 3 pairs absent or in one of 3 states
    for g in graphs:
        assert parse_graph(serialize_graph(g)) == g


def test_serializer_emits_lf_and_trailing_newline():
    text = serialize_graph(cycle_graph(3))
    assert text.startswith("mixedgraph v1\nvertices 3\n")
    assert text.endswith("\n")
    assert "\r" not in text


def test_degree_sum_is_twice_edge_count():
    for g in enumerate_mixed_graphs(3):
        assert sum(g.degrees()) == 2 * g.m


@pytest.mark.parametrize(
    "g,expected",
    [
        (path_graph(3), (1, 2, 1)),
        (directed_cycle(3), (2, 2, 2)),
        (MixedGraph.build(2, arcs=[(1, 2)]), (1, 1)),
    ],
)
def test_degrees(g, expected):
    assert g.degrees() == expected


def test_bipartite():
    for g, bipartite in ((cycle_graph(4), True), (directed_cycle(3), False),
                         (path_graph(3), True)):
        assert bool(graph_balance(g).bipartite[0]) is bipartite


def test_connectivity():
    assert path_graph(3).is_connected()
    assert not MixedGraph.build(4, undirected_pairs=[(1, 2)]).is_connected()
    assert MixedGraph.build(1).is_connected()


def test_group_by_underlying():
    graphs = [cycle_graph(3), directed_cycle(3), path_graph(3),
              MixedGraph.build(3, arcs=[(2, 1), (3, 2)]), cycle_graph(3),
              MixedGraph.build(4, undirected_pairs=[(1, 2), (2, 3)])]
    # the same pairs on one more vertex are another underlying graph
    assert group_by_underlying(graphs) == [[0, 1, 4], [2, 3], [5]]
    assert group_by_underlying([]) == []


def test_degrees_are_counted_once_and_kept_out_of_repr():
    g = MixedGraph.build(3, undirected_pairs=[(1, 2)], arcs=[(3, 2)])
    assert g.degrees() is g.degrees()
    assert g.degrees() == (1, 2, 1)
    assert "_degrees" not in repr(g)


def test_general_randic_index_exact():
    assert general_randic_index(path_graph(3), -1) == Fraction(1)
    assert general_randic_index(cycle_graph(3), -1) == Fraction(3, 4)
    assert general_randic_index(path_graph(2), -1) == Fraction(1)
    # orientation is ignored, only underlying degrees matter
    assert general_randic_index(directed_cycle(3), -1) == Fraction(3, 4)
    assert general_randic_index(path_graph(3), 1) == Fraction(4)


def test_general_randic_index_rejects_empty():
    with pytest.raises(ValueError):
        general_randic_index(MixedGraph.build(2), -1)


def test_general_randic_index_takes_only_integer_exponents():
    with pytest.raises(TypeError):
        general_randic_index(path_graph(3), 0.5)


def test_edge_queries():
    g = directed_cycle(3)
    assert g.edge_between(1, 2) == arc(1, 2)
    assert g.edge_between(2, 1) == arc(1, 2)
    assert g.edge_between(1, 4) is None
    smaller = MixedGraph(3, tuple(e for e in g.edges if e != arc(1, 2)))
    assert smaller.m == 2
    assert smaller.edge_between(1, 2) is None


def test_builders():
    assert path_graph(4).edges == (undirected(1, 2), undirected(2, 3), undirected(3, 4))
    assert set(cycle_graph(4).underlying_pairs()) == {(1, 2), (2, 3), (3, 4), (1, 4)}
    assert directed_cycle(4).edges == (arc(1, 2), arc(2, 3), arc(3, 4), arc(4, 1))
