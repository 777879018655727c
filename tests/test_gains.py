import cmath
import math
import random
from itertools import combinations

import numpy as np
import pytest

from mixedrandic import (
    CycleClass,
    MixedGraph,
    apply_switching,
    are_switching_equivalent,
    classify_cycle,
    cycle_gain,
    cycle_graph,
    directed_cycle,
    enumerate_cycles,
    gain_view,
    is_positive,
    path_graph,
    population,
    sample_mixed_graphs,
    switching_certificate_to_constant,
)
from mixedrandic.enumeration import enumerate_mixed_graphs
from mixedrandic.gains import (
    MINUS_ONE,
    ONE,
    W,
    W_BAR,
    GainView,
    SixthRoot,
    balances,
    graph_balance,
)

ROOTS = [SixthRoot(k) for k in range(6)]


def is_positive_by_paths(g: MixedGraph) -> bool:
    """Brute-force positivity oracle: between any two vertices, every simple
    path carries the same gain.

    Gains (the unit-modulus entries of the adjacency matrix) are compared;
    the degree factors of walk values are path-dependent and would differ
    even in a positive graph.  Exponential in the graph size; desk scale.
    """
    view = gain_view(g)
    adj = g.adjacency_sets()

    def path_gains(s: int, t: int) -> set[int]:
        found: set[int] = set()

        def extend(v: int, seen: set[int], acc: SixthRoot) -> None:
            if v == t:
                found.add(acc.k)
                return
            for w in sorted(adj[v]):
                if w not in seen:
                    extend(w, seen | {w}, acc * view.gains[(v, w)])

        extend(s, {s}, ONE)
        return found

    for s, t in combinations(g.vertices(), 2):
        if len(path_gains(s, t)) > 1:
            return False
    return True


def single_arc_triangle():
    return MixedGraph.build(3, undirected_pairs=[(2, 3), (1, 3)], arcs=[(1, 2)])


def test_gain_values_per_edge_kind():
    v = gain_view(MixedGraph.build(2, undirected_pairs=[(1, 2)]))
    assert v.gain(1, 2) == ONE == v.gain(2, 1)
    v = gain_view(MixedGraph.build(2, arcs=[(1, 2)]))
    assert v.gain(1, 2) == W
    assert v.gain(2, 1) == W_BAR
    v = gain_view(directed_cycle(3))
    assert v.gain(1, 2) == v.gain(2, 3) == v.gain(3, 1) == W


def test_sixth_root_arithmetic():
    assert W * W_BAR == ONE
    assert W * W * W == MINUS_ONE
    assert W.conjugate() == W_BAR == W.inverse()
    assert MINUS_ONE * MINUS_ONE == ONE
    assert abs(W.value - (0.5 + 0.8660254037844386j)) < 1e-15
    for root in ROOTS:
        assert abs(root.value * root.conjugate().value - 1) < 1e-15
    assert [str(root) for root in ROOTS] == ["1", "w", "-w̄", "-1", "-w", "w̄"]


def test_root_values_are_the_complex_exponentials_bit_for_bit():
    for k, root in enumerate(ROOTS):
        want = cmath.exp(1j * math.pi * k / 3.0)
        assert ((root.value.real.hex(), root.value.imag.hex())
                == (want.real.hex(), want.imag.hex()))
    assert SixthRoot.conjugate is SixthRoot.inverse


def test_cycle_gain():
    assert cycle_gain(gain_view(directed_cycle(3)), (1, 2, 3)) == MINUS_ONE
    assert cycle_gain(gain_view(cycle_graph(3)), (1, 2, 3)) == ONE
    v = gain_view(single_arc_triangle())
    assert cycle_gain(v, (1, 2, 3)) == W
    # the reversed traversal conjugates
    assert cycle_gain(v, (1, 3, 2)) == W_BAR


def product_cycle_gain(view, cycle):
    """Reference: the SixthRoot product along the closed walk."""
    closed = list(cycle) + [cycle[0]]
    out = ONE
    for a, b in zip(closed, closed[1:]):
        out = out * view.gain(a, b)
    return out


@pytest.mark.parametrize("n,seed", [(5, 21), (6, 22)])
def test_cycle_gain_matches_product_reference(n, seed):
    cycles = 0
    for g in sample_mixed_graphs(n, 80, seed=seed):
        v = gain_view(g)
        for cyc in enumerate_cycles(g):
            for walk in (cyc, cyc[::-1], cyc[1:] + cyc[:1]):
                assert cycle_gain(v, walk) == product_cycle_gain(v, walk)
            cycles += 1
    assert cycles > 1000


def test_cycle_gain_rejects_non_cycles():
    v = gain_view(path_graph(3))
    with pytest.raises(ValueError):
        cycle_gain(v, (1, 2, 3))  # 1 and 3 are not adjacent
    with pytest.raises(ValueError):
        cycle_gain(v, (1, 2))
    with pytest.raises(ValueError, match="no edge between 1 and 3"):
        v.gain(1, 3)


def test_classify_cycle():
    assert classify_cycle(gain_view(cycle_graph(3)), (1, 2, 3)) == CycleClass.POSITIVE
    assert classify_cycle(gain_view(directed_cycle(3)), (1, 2, 3)) == CycleClass.NEGATIVE
    assert classify_cycle(gain_view(single_arc_triangle()), (1, 2, 3)) == CycleClass.SEMI_POSITIVE
    # four arcs in a row: gain w**4
    assert classify_cycle(gain_view(directed_cycle(4)), (1, 2, 3, 4)) == CycleClass.SEMI_NEGATIVE


def test_positive_graphs():
    assert is_positive(path_graph(4))
    assert is_positive(MixedGraph.build(4, arcs=[(1, 2), (3, 2), (3, 4)]))  # oriented tree
    assert not is_positive(directed_cycle(3))
    assert is_positive(cycle_graph(4))


def test_positive_agrees_with_path_oracle(exhaustive_population):
    for g in exhaustive_population:
        assert is_positive(g) == is_positive_by_paths(g)
    for g in population(5)[:150]:
        assert is_positive(g) == is_positive_by_paths(g)


def test_apply_switching_identity():
    v = gain_view(directed_cycle(3))
    same = apply_switching(v, {k: ONE for k in (1, 2, 3)})
    for u, w in ((1, 2), (2, 3), (3, 1)):
        assert same.gain(u, w) == v.gain(u, w)


def test_apply_switching_formula():
    v = gain_view(MixedGraph.build(2, arcs=[(1, 2)]))
    switched = apply_switching(v, {1: ONE, 2: W_BAR})
    assert switched.gain(1, 2) == ONE


def test_switching_preserves_cycle_gains():
    rng = random.Random(7)
    for g in population(4)[:120]:
        cycles = enumerate_cycles(g)
        if not cycles:
            continue
        v = gain_view(g)
        zeta = {k: rng.choice(ROOTS) for k in g.vertices()}
        switched = apply_switching(v, zeta)
        for cyc in cycles:
            assert cycle_gain(switched, cyc) == cycle_gain(v, cyc)


def test_certificate_to_all_ones():
    cert = switching_certificate_to_constant(gain_view(cycle_graph(3)), ONE)
    assert cert is not None
    assert all(value == ONE for value in cert.values())
    assert switching_certificate_to_constant(gain_view(single_arc_triangle()), ONE) is None


def test_certificate_to_minus_one():
    v = gain_view(directed_cycle(3))
    cert = switching_certificate_to_constant(v, MINUS_ONE)
    assert cert is not None
    switched = apply_switching(v, cert)
    for e in directed_cycle(3).edges:
        assert switched.gain(e.u, e.v) == MINUS_ONE
    assert switching_certificate_to_constant(gain_view(single_arc_triangle()), MINUS_ONE) is None


def certificate_by_switching(view, target):
    """Reference: propagate a switching function over a traversal from
    vertex 1, switch the whole view and compare every gain to the target."""
    adj = view.base.adjacency_sets()
    zeta = {1: ONE}
    queue = [1]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in zeta:
                zeta[w] = target * zeta[v] * view.gains[(v, w)].inverse()
                queue.append(w)
    switched = apply_switching(view, zeta)
    if any(gain != target for gain in switched.gains.values()):
        return None
    return zeta


def test_balance_matches_switching_reference(exhaustive_population):
    graphs = exhaustive_population + population(5)[:200] + population(6)[:100]
    counts = {True: 0, False: 0}
    for g in graphs:
        view = gain_view(g)
        balance = graph_balance(g)
        positive = bool(balance.positive[0])
        antibalanced = bool(balance.antibalanced[0])
        assert is_positive(g) == positive
        for target, verdict in ((ONE, positive), (MINUS_ONE, antibalanced)):
            reference = certificate_by_switching(view, target)
            assert (reference is not None) == verdict
            certificate = switching_certificate_to_constant(view, target)
            assert certificate == reference
            # the keys come in ascending vertex order
            if certificate is not None:
                assert list(certificate) == list(g.vertices())
        counts[antibalanced] += 1
    assert counts[True] > 100 and counts[False] > 100


def test_balance_is_decided_per_component():
    # an all-arc triangle (gain -1) beside an un-oriented one (gain 1)
    g = MixedGraph.build(6, undirected_pairs=[(4, 5), (5, 6), (4, 6)],
                         arcs=[(1, 2), (2, 3), (3, 1)])
    for graph, verdicts in ((g, (False, False)),
                            (directed_cycle(3), (False, True)),
                            (cycle_graph(4), (True, True))):
        balance = graph_balance(graph)
        assert (balance.positive[0], balance.antibalanced[0]) == verdicts


def test_certificate_target_is_one_or_minus_one():
    view = gain_view(cycle_graph(3))
    for target in (1, -1, W, SixthRoot(2)):
        with pytest.raises(ValueError, match="1 or -1"):
            switching_certificate_to_constant(view, target)


def test_certificate_requires_connected():
    g = MixedGraph.build(4, undirected_pairs=[(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        switching_certificate_to_constant(gain_view(g), ONE)


def test_switching_equivalence():
    v = gain_view(directed_cycle(3))
    assert are_switching_equivalent(v, v)
    cert = switching_certificate_to_constant(v, MINUS_ONE)
    assert are_switching_equivalent(v, apply_switching(v, cert))
    assert not are_switching_equivalent(gain_view(cycle_graph(3)), v)


def test_switching_equivalence_needs_same_underlying_graph():
    with pytest.raises(ValueError):
        are_switching_equivalent(gain_view(cycle_graph(3)), gain_view(path_graph(3)))
    with pytest.raises(ValueError, match=r"undefined on vertices \[2, 3\]"):
        apply_switching(gain_view(cycle_graph(3)), {1: ONE})


def balance_by_dicts(view):
    """Reference for balances: one dict traversal of each component from
    its smallest vertex, giving every vertex (z, p) as balances labels it,
    and the four verdicts checked on every oriented edge."""
    adj = view.base.adjacency_sets()
    potentials = {}
    seeds = 0
    for start in view.base.vertices():
        if start in potentials:
            continue
        seeds += 1
        potentials[start] = (0, 0)
        stack = [start]
        while stack:
            v = stack.pop()
            z, p = potentials[v]
            for w in adj[v]:
                if w not in potentials:
                    potentials[w] = ((z - view.gains[(v, w)].k) % 6, 1 - p)
                    stack.append(w)
    bipartite = positive = antibalanced = True
    for (v, w), gain in view.gains.items():
        (zv, pv), (zw, pw) = potentials[v], potentials[w]
        rest = (gain.k - zv + zw) % 6
        bipartite = bipartite and pv != pw
        positive = positive and rest == 0
        antibalanced = antibalanced and rest == (3 if pv == pw else 0)
    return potentials, (seeds == 1, bipartite, positive, antibalanced)


def block_balance(views):
    """balances on views of one order, as one block of edge rows."""
    rows = [(i, a - 1, b - 1, gain.k) for i, view in enumerate(views)
            for (a, b), gain in view.gains.items() if a < b]
    owner, u, v, k = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return balances(len(views), views[0].base.n, owner, u, v, k)


def random_views(graphs, seed):
    """Views of the graphs with a random sixth root on every edge."""
    rng = random.Random(seed)
    views = []
    for g in graphs:
        gains = {}
        for a, b in g.underlying_pairs():
            gains[(a, b)] = SixthRoot(rng.randrange(6))
            gains[(b, a)] = gains[(a, b)].inverse()
        views.append(GainView(g, gains))
    return views


def quotient_views(graphs):
    """The quotients v1 * v2**-1 of are_switching_equivalent, for
    consecutive graphs on one underlying graph: exponents 0, +-1, +-2."""
    views = []
    for g1, g2 in zip(graphs, graphs[1:]):
        if g1.underlying_pairs() == g2.underlying_pairs():
            v1, v2 = gain_view(g1), gain_view(g2)
            views.append(GainView(g1, {key: v1.gains[key] * v2.gains[key].inverse()
                                       for key in v1.gains}))
    return views


def two_triangles():
    return MixedGraph.build(6, undirected_pairs=[(4, 5), (5, 6), (4, 6)],
                            arcs=[(1, 2), (2, 3), (3, 1)])


BALANCE_CASES = {
    "population-4": lambda: [gain_view(g) for g in population(4)],
    "sample-5": lambda: [gain_view(g) for g in population(5)],
    "sample-6": lambda: [gain_view(g) for g in population(6)],
    "two-triangles": lambda: [
        gain_view(two_triangles()),
        gain_view(MixedGraph.build(6, undirected_pairs=[(1, 2), (2, 3), (1, 3)],
                                   arcs=[(4, 5), (6, 5), (4, 6)]))],
    # isolated vertices and disconnected graphs among connected ones
    "all-3": lambda: [gain_view(g) for g in enumerate_mixed_graphs(3)],
    "all-4": lambda: [gain_view(g) for g in enumerate_mixed_graphs(4)],
    "n-1": lambda: [gain_view(MixedGraph(1, ()))] * 3,
    "random-4": lambda: random_views(population(4)[::7], seed=5),
    "random-6": lambda: random_views(population(6)[:200], seed=6),
    "quotients-4": lambda: quotient_views(population(4)),
    "quotients-5": lambda: quotient_views(
        sorted(population(5), key=lambda g: g.underlying_pairs())),
}


@pytest.mark.parametrize("case", BALANCE_CASES)
def test_block_balance_matches_dict_traversal(case):
    views = BALANCE_CASES[case]()
    block = block_balance(views)
    verdicts = np.stack(block[1:], axis=1).tolist()
    parity, z = np.divmod(block.labels, 6)
    seen = set()
    for view, got, zs, ps in zip(views, verdicts, z.tolist(), parity.tolist()):
        potentials, expected = balance_by_dicts(view)
        assert tuple(got) == expected
        connected, _, positive, antibalanced = expected
        seen.add(tuple(expected))
        # balanced graphs have one potential up to the roots' gauge, so the
        # labels give the reference's certificates
        for target, shift, verdict in ((ONE, 0, positive),
                                       (MINUS_ONE, 3, antibalanced)):
            if not verdict:
                continue
            labelled = {x: SixthRoot(zs[x - 1] + shift * ps[x - 1])
                        for x in view.base.vertices()}
            assert labelled == {x: SixthRoot(zx + shift * px)
                                for x, (zx, px) in potentials.items()}
            if connected:
                assert labelled == switching_certificate_to_constant(view, target)
    if case.startswith(("population", "sample", "quotients")):
        # both verdicts of both kinds occur
        assert {v[2] for v in seen} == {v[3] for v in seen} == {True, False}


def test_one_graph_balance_is_the_block_case():
    for g in (two_triangles(), MixedGraph(1, ()), directed_cycle(3),
              MixedGraph.build(4, undirected_pairs=[(1, 2)])):
        balance = graph_balance(g)
        _, expected = balance_by_dicts(gain_view(g))
        assert tuple(x[0] for x in balance[1:]) == expected
        assert is_positive(g) == expected[2]
    assert balance_by_dicts(gain_view(two_triangles()))[1] == (
        False, False, False, False)
    assert balance_by_dicts(gain_view(MixedGraph(1, ())))[1] == (
        True, True, True, True)
