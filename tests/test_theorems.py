import math
from fractions import Fraction

import numpy as np
import pytest

from mixedrandic import (
    EdgeKind,
    MixedGraph,
    arc,
    check_eigenvalue_one,
    check_minus_one,
    check_spectral_symmetry,
    check_spectrum_equals_underlying,
    cycle_graph,
    directed_cycle,
    energy_bounds_report,
    entry_sum_bounds,
    general_randic_index,
    interlacing_check,
    parse_graph,
    path_graph,
    population,
    randic_spectrum,
    run_theorem_suite,
    sample_mixed_graphs,
    smallest_eigenvalue_bound,
)
from mixedrandic import theorems
from mixedrandic.enumeration import elementary_weight_numerator_rows
from mixedrandic.matrices import edge_table, randic_stack
from mixedrandic.spectra import eigenvalue_rows
from mixedrandic.theorems import entry_sums, randic_inverse, run_theorem_suites

from test_cli import (DISCONNECTED, EXPONENTIAL_COUNTEREXAMPLE,
                      seeded_connected_graph)

# Non-bipartite mixed graph whose two triangles carry gains 1 and -1, so the
# odd-order coefficients vanish and the spectrum is symmetric about zero.
SYMMETRIC_NON_BIPARTITE = (
    "mixedgraph v1\nvertices 4\n1 -> 2\n1 -> 3\n2 -- 3\n2 -> 4\n4 -> 1\n"
)


def star(n):
    return MixedGraph.build(n, undirected_pairs=[(1, k) for k in range(2, n + 1)])


def test_interlacing_on_triangle():
    result = interlacing_check(cycle_graph(3), (1, 2))
    np.testing.assert_allclose(result.original.eigenvalues, [-0.5, -0.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(result.reduced.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)
    assert result.holds
    assert result.worst_violation == 0.0


def test_interlacing_on_c4():
    for pair in ((1, 2), (2, 3), (3, 4), (1, 4)):
        assert interlacing_check(cycle_graph(4), pair).holds


def loop_interlacing(original, reduced):
    """Reference: the per-position loop, one Python max per position."""
    lam, theta = original.eigenvalues, reduced.eigenvalues
    n = len(lam)
    verdicts = []
    worst = 0.0
    for k in range(n):
        low = -1.0 if k == 0 else lam[k - 1]
        high = 1.0 if k == n - 1 else lam[k + 1]
        violation = float(max(low - theta[k], theta[k] - high, 0.0))
        worst = max(worst, violation)
        verdicts.append(violation <= 1e-9)
    return tuple(verdicts), worst


def test_interlacing_matches_per_position_loop(graphs_with_deletions):
    checked = 0
    for g, deleted in graphs_with_deletions:
        records = {r.name: r for r in run_theorem_suite(g).records}
        original = randic_spectrum(g)
        for e in deleted:
            smaller = MixedGraph(g.n, tuple(x for x in g.edges if x != e))
            verdicts, worst = loop_interlacing(original, randic_spectrum(smaller))
            result = interlacing_check(g, e.pair)
            assert result.verdicts == verdicts
            assert all(type(v) is bool for v in result.verdicts)
            assert result.worst_violation == worst
            assert str(result.worst_violation) == str(worst)  # also sign of 0
            record = records[f"interlacing:{str(e).replace(' ', '')}"]
            assert record.lhs == worst and str(record.lhs) == str(worst)
            checked += 1
    assert checked > 500


def test_interlacing_guards():
    with pytest.raises(ValueError):
        interlacing_check(cycle_graph(3), (1, 4))
    with pytest.raises(ValueError):
        interlacing_check(path_graph(3), (1, 2))  # would isolate vertex 1


def test_eigenvalue_one_checks():
    good = check_eigenvalue_one(cycle_graph(3))
    assert good.has_one and good.graph_positive and good.multiplicity == 1
    bad = check_eigenvalue_one(directed_cycle(3))
    assert not bad.has_one and not bad.graph_positive


def test_spectral_symmetry_checks():
    sym = check_spectral_symmetry(path_graph(3))
    assert sym.symmetric and sym.bipartite
    asym = check_spectral_symmetry(cycle_graph(3))
    assert not asym.symmetric and not asym.bipartite
    odd = check_spectral_symmetry(parse_graph(SYMMETRIC_NON_BIPARTITE))
    assert odd.symmetric and not odd.bipartite
    assert odd.max_asymmetry < 1e-12


def test_minus_one_checks():
    dc3 = check_minus_one(directed_cycle(3))
    assert dc3.has_minus_one and dc3.antibalanced and not dc3.positive_bipartite
    p2 = check_minus_one(path_graph(2))
    assert p2.has_minus_one and p2.antibalanced and p2.positive_bipartite
    c3 = check_minus_one(cycle_graph(3))
    assert not c3.has_minus_one and not c3.antibalanced


def test_underlying_spectrum_checks():
    plain = check_spectrum_equals_underlying(cycle_graph(4))
    assert plain.spectra_equal and plain.switch_equiv_allones
    tree = check_spectrum_equals_underlying(MixedGraph.build(3, arcs=[(1, 2)], undirected_pairs=[(2, 3)]))
    assert tree.spectra_equal and tree.switch_equiv_allones
    twisted = check_spectrum_equals_underlying(directed_cycle(3))
    assert not twisted.spectra_equal and not twisted.switch_equiv_allones


def fraction_randic_index(g, k):
    """Reference: the sum of (d_u d_v)**k over the edges as a sum of
    Fractions, one per edge."""
    d = g.degrees()
    return sum(
        (Fraction(d[u - 1] * d[v - 1]) ** k for u, v in g.underlying_pairs()),
        Fraction(0),
    )


def test_randic_inverse_is_the_exact_sum_rounded_once(exhaustive_population,
                                                      sampled_population):
    dense = sample_mixed_graphs(10, 1, seed=10)[0]
    assert dense.m >= 30
    for g in [*exhaustive_population, *sampled_population, dense]:
        assert randic_inverse(g).hex() == float(fraction_randic_index(g, -1)).hex()
        for k in (-2, -1, 1, 2):
            exact = general_randic_index(g, k)
            assert type(exact) is Fraction
            assert exact == fraction_randic_index(g, k), (g, k)


def test_block_inverse_degree_sums_are_randic_inverse(exhaustive_population,
                                                     sampled_population):
    # one common denominator per block, one division per graph; in the
    # order-20 block the denominator times m passes 2**53, so the shares
    # and the division are Python ints
    pins = [seeded_connected_graph(n, m, seed) for n, m, seed in
            ((10, 14, 1), (10, 20, 2), (10, 27, 3), (11, 22, 4))]
    pins.append(parse_graph(EXPONENTIAL_COUNTEREXAMPLE))
    wide = sample_mixed_graphs(20, 30, seed=5)
    degrees, (owner, u, v, _) = edge_table(wide)
    products = (degrees[owner, u] * degrees[owner, v]).tolist()
    assert math.lcm(*products) * max(g.m for g in wide) >= 2 ** 53
    graphs = [*exhaustive_population, *sampled_population, *pins, *wide]
    for n in sorted({g.n for g in graphs}):
        block = [g for g in graphs if g.n == n]
        got = theorems._inverse_degree_sums(*edge_table(block))
        assert [x.hex() for x in got.tolist()] == [
            float(general_randic_index(g, -1)).hex() for g in block]


def test_entry_sum_values():
    for g, total in ((cycle_graph(3), 3.0), (path_graph(2), 2.0),
                     (directed_cycle(3), 1.5)):
        assert abs(entry_sums(*edge_table([g]))[0] - total) < 1e-12


def loop_entry_sum(g):
    """Reference: the per-edge sum of the matrix entries, in edge order."""
    d = g.degrees()
    total = 0.0
    for e in g.edges:
        scale = 1.0 / math.sqrt(d[e.u - 1] * d[e.v - 1])
        total += 2.0 * scale if e.kind is EdgeKind.UNDIRECTED else scale
    return total


def test_entry_sums_are_the_per_edge_sums(sampled_population):
    for n, graphs in ((4, population(4)), (5, sampled_population),
                      (6, sampled_population)):
        graphs = [g for g in graphs if g.n == n]
        expected = [loop_entry_sum(g).hex() for g in graphs]
        assert [x.hex() for x in entry_sums(*edge_table(graphs)).tolist()] == expected
        assert [float(entry_sums(*edge_table([g]))[0]).hex()
                for g in graphs] == expected


def test_entry_sum_bounds_tight_on_triangle():
    bounds = entry_sum_bounds(cycle_graph(3))
    by_name = {record.name: record for record in bounds.records}
    # the entry sum S = 3 gives the estimates -S/(n(n-1)) and S/n, and the
    # spread bound S/(n-1)
    lower, order = by_name["entry_sum_lower"], by_name["entry_sum_order"]
    assert abs(lower.rhs + 0.5) < 1e-12 and order.lhs == lower.rhs
    assert abs(order.rhs - 1.0) < 1e-12
    assert by_name["entry_sum_upper"].lhs == order.rhs
    assert abs(by_name["entry_sum_spread"].lhs - 1.5) < 1e-12
    assert all(record.satisfied for record in bounds.records)
    # the two eigenvalue estimates and the spread bound collapse to equalities
    assert abs(by_name["entry_sum_lower"].slack) < 1e-9
    assert abs(by_name["entry_sum_upper"].slack) < 1e-9
    assert abs(by_name["entry_sum_spread"].slack) < 1e-9


def test_smallest_eigenvalue_bound_tight_on_triangle():
    record = smallest_eigenvalue_bound(cycle_graph(3))
    assert record.name == "min_eigenvalue_square"
    assert record.satisfied
    assert abs(record.slack) < 1e-12


def test_energy_report_on_triangle():
    report = energy_bounds_report(cycle_graph(3))
    assert report.n == 3 and report.m == 3
    assert abs(report.randic_inverse - 0.75) < 1e-12
    assert abs(report.energy - 2.0) < 1e-12
    assert all(r.satisfied for r in report.records if not r.skipped)
    for name in ("energy_lower_geometric", "energy_lower_min_modulus", "energy_lower_polya_szego"):
        record = report.record(name)
        assert not record.skipped
        assert abs(record.slack) < 1e-9
    with pytest.raises(KeyError):
        report.record("nope")


def test_one_graph_bounds_need_two_vertices():
    with pytest.raises(ValueError, match="at least two vertices"):
        entry_sum_bounds(MixedGraph(1, ()))
    with pytest.raises(ValueError, match="at least two vertices"):
        smallest_eigenvalue_bound(MixedGraph(1, ()))


def test_energy_report_tight_on_single_edge():
    report = energy_bounds_report(path_graph(2))
    assert all(r.satisfied for r in report.records if not r.skipped)
    for name in ("energy_lower_determinant", "energy_upper_moment",
                 "energy_lower_polya_szego", "energy_lower_ozeki"):
        assert abs(report.record(name).slack) < 1e-9


def test_energy_report_skip_rules():
    singular = energy_bounds_report(path_graph(3))
    geometric = singular.record("energy_lower_geometric")
    assert geometric.skipped and "singular" in geometric.reason
    degenerate = singular.record("energy_lower_polya_szego")
    assert degenerate.satisfied and not degenerate.skipped
    assert "zero" in degenerate.reason
    vacuous = energy_bounds_report(star(9)).record("energy_lower_ozeki")
    assert vacuous.skipped and "radicand" in vacuous.reason


def test_suite_layout_on_triangle():
    suite = run_theorem_suite(cycle_graph(3))
    names = [record.name for record in suite.records]
    assert names[:7] == [
        "unit_interval",
        "trace_zero",
        "second_moment",
        "incidence_factorization",
        "laplacian_complement",
        "charpoly_agreement",
        "determinant_identity",
    ]
    assert sum(1 for name in names if name.startswith("interlacing:")) == 3
    assert len(names) == 30
    assert suite.failures == ()
    # no record passes with a note
    assert not [r for r in suite.records
                if r.satisfied and not r.skipped and r.reason]


def test_suite_reports_divergence_once():
    suite = run_theorem_suite(directed_cycle(3))
    assert suite.failures == ()
    notes = [record for record in suite.records if record.name == "minus_one_vs_positive_bipartite"]
    assert len(notes) == 1
    assert notes[0].satisfied
    assert "divergence" in notes[0].reason


def test_suite_flags_symmetric_non_bipartite_graph():
    suite = run_theorem_suite(parse_graph(SYMMETRIC_NON_BIPARTITE))
    failed = [record.name for record in suite.failures]
    assert failed == ["bipartite_iff_symmetric"]


def fields(suite):
    # repr keeps the sign of zero that == ignores
    return [repr(record) for record in suite.records]


def test_suites_match_one_graph_suites(graphs_with_deletions, monkeypatch):
    # mixed orders, out of order, across the charpoly cap and a repeat
    graphs = [g for g, _ in graphs_with_deletions][::-1]
    graphs[40:40] = [path_graph(11), cycle_graph(11), graphs[3]]
    whole = run_theorem_suites(graphs)
    monkeypatch.setattr(theorems, "_block_size", lambda n: 7)
    blocked = run_theorem_suites(iter(graphs))
    assert len(whole) == len(blocked) == len(graphs)
    for g, a, b in zip(graphs, whole, blocked):
        single = run_theorem_suite(g)
        assert fields(a) == fields(b) == fields(single)
        assert a.spectrum.eigenvalues.tobytes() == single.spectrum.eigenvalues.tobytes()
        assert a.spectrum.eigenvalues.tobytes() == randic_spectrum(g).eigenvalues.tobytes()


def test_suites_reject_disconnected_and_isolated_graphs():
    with pytest.raises(ValueError, match="not connected"):
        run_theorem_suites([cycle_graph(3), MixedGraph.build(4, [(1, 2), (3, 4)])])
    with pytest.raises(ValueError, match="isolated vertex"):
        run_theorem_suites([cycle_graph(3), MixedGraph(1, ())])
    assert run_theorem_suites([]) == []
    for check in (check_eigenvalue_one, check_spectral_symmetry,
                  check_minus_one, check_spectrum_equals_underlying):
        with pytest.raises(ValueError, match="not connected"):
            check(parse_graph(DISCONNECTED))


def twin_key(edges):
    """A matrix's pair states up to reversing every arc, which conjugates
    it: the frozenset of its edge set and of that set with every arc
    reversed."""
    edges = frozenset(edges)
    return frozenset((edges, frozenset(
        arc(e.v, e.u) if e.kind is EdgeKind.ARC else e for e in edges)))


def new_slices(block, solved):
    """The graphs, underlying graphs (graph) and deletions (graph, table
    row) that the suite solves for a block, in stack order, with
    ``solved`` the twin keys of the matrices solved before it at its
    order; adds the block's to ``solved``.  A matrix is solved under a new
    key only: a graph's own, then the underlying graphs', then the
    deletions'."""
    mine, fresh, cuts, row = [], [], [], 0
    for i, g in enumerate(block):
        key = twin_key(g.edges)
        if key not in solved:
            solved.add(key)
            mine.append(i)
    for i, g in enumerate(block):
        key = twin_key(g.underlying_graph().edges)
        if key not in solved:
            solved.add(key)
            fresh.append(i)
    for i, g in enumerate(block):
        d = g.degrees()
        for e in g.edges:
            key = twin_key(frozenset(g.edges) - {e})
            if d[e.u - 1] > 1 and d[e.v - 1] > 1 and key not in solved:
                solved.add(key)
                cuts.append((i, row))
            row += 1
    return mine, fresh, cuts


def suite_blocks(graphs):
    """The blocks the suite takes graphs in: one order at a time, in input
    order, _block_size(n) graphs of order n to a block."""
    for n in dict.fromkeys(g.n for g in graphs):
        order = [g for g in graphs if g.n == n]
        size = theorems._block_size(n)
        for start in range(0, len(order), size):
            yield order[start:start + size]


def expected_solves(graphs):
    """How many matrices the suite solves for graphs of one order each:
    each graph, underlying graph and deletion whose twin key was not
    solved before at that order."""
    solved, count = {}, 0
    for block in suite_blocks(graphs):
        count += sum(map(len, new_slices(
            block, solved.setdefault(block[0].n, set()))))
    return count


def test_suite_memo_merges_each_blocks_new_keys():
    # blocks of 7 merge their new keys into the sorted memo; one block of
    # all the graphs sorts them at once: the same keys and the same rows
    graphs = population(4)[:300]
    merged, whole = {}, {}
    for start in range(0, len(graphs), 7):
        theorems._order_block(*edge_table(graphs[start:start + 7]), merged)
    theorems._order_block(*edge_table(graphs), whole)
    for keys, rows, whole_keys, whole_rows in zip(
            merged[4][::2], merged[4][1::2], whole[4][::2], whole[4][1::2]):
        # the solved keys with their eigenvalue rows, then the graph keys
        # with their numerator rows
        assert np.all(keys[1:] > keys[:-1])
        assert np.array_equal(keys, whole_keys)
        assert rows.tobytes() == whole_rows.tobytes()


def counted_solves(monkeypatch):
    """A list that gathers the size of every stack the suite solves."""
    solve, solved = theorems.eigenvalue_rows, []

    def counted(stack):
        solved.append(len(stack))
        return solve(stack)

    monkeypatch.setattr(theorems, "eigenvalue_rows", counted)
    return solved


def counted_numerators(monkeypatch):
    """A list that gathers the number of graphs of every table the suite
    counts the exact numerator rows of."""
    count, counted = theorems.elementary_weight_numerator_rows, []

    def counting(degrees, edges):
        counted.append(len(degrees))
        return count(degrees, edges)

    monkeypatch.setattr(theorems, "elementary_weight_numerator_rows", counting)
    return counted


def test_suite_solves_each_underlying_graph_once(exhaustive_population,
                                                 monkeypatch):
    solved = counted_solves(monkeypatch)
    counted = counted_numerators(monkeypatch)
    run_theorem_suites(exhaustive_population)
    # the 43 graphs without an arc, one of each of the 1,924 pairs of
    # arc-reversed twins and 15 deletions that disconnect a graph: every
    # other deletion and every underlying graph shares the key of a graph
    # solved before it
    assert sum(solved) == expected_solves(exhaustive_population) == 1_982
    # the 43 graphs without an arc and one of each pair of twins
    assert sum(counted) == len({twin_key(g.edges)
                                for g in exhaustive_population}) == 1_967


def two_word_graphs():
    """Two n = 9 and two n = 11 graphs whose keys span two int64 words:
    pairs {8, 9} of n = 9 and {10, 11} of n = 11 sit in the second word,
    and the two n = 11 graphs less arc (6, 7) are twins."""
    base = [(1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8), (1, 9), (1, 5)]
    nine = [MixedGraph.build(9, base + [(8, 9)], [(5, 6)]),
            MixedGraph.build(9, base, [(5, 6), (8, 9)])]
    base = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 8), (8, 9), (9, 10),
            (1, 11), (1, 6)]
    eleven = [MixedGraph.build(11, base, [(6, 7), last])
              for last in ((10, 11), (11, 10))]
    return [nine[0], eleven[0], nine[1], eleven[1]]


def test_twins_have_bit_equal_rows(exhaustive_population):
    # reversing every arc conjugates R(g) and each R(g - e): the suite
    # shares a row between twins at every order only while the solver
    # gives R and its conjugate the same bits, and the numerator rows of
    # twins are equal.  Every n <= 4 graph, the seeded n = 5, 6 samples,
    # the n = 10, 11 graphs of the check pins and the two-word graphs, each
    # with every deletion the suite makes
    tables = [[g for g in exhaustive_population if g.n == n] for n in (2, 3, 4)]
    tables += [population(n, seed=1729) for n in (5, 6)]
    tables += [[seeded_connected_graph(n, m, seed)] for n, m, seed in (
        (10, 14, 1), (10, 20, 2), (10, 27, 3), (11, 22, 4))]
    tables += [[parse_graph(EXPONENTIAL_COUNTEREXAMPLE)]]
    tables += [[g] for g in two_word_graphs()]
    for graphs in tables:
        degrees, edges = edge_table(graphs)
        owner, u, v, is_arc = edges
        twins = (owner, np.where(is_arc, v, u), np.where(is_arc, u, v), is_arc)
        cuts = np.flatnonzero((degrees[owner, u] > 1) & (degrees[owner, v] > 1))
        slices = (np.concatenate((np.arange(len(degrees)), owner[cuts])),
                  np.concatenate((np.full(len(degrees), -1), cuts)))
        stack = randic_stack(degrees, edges, *slices)
        assert np.array_equal(randic_stack(degrees, twins, *slices), stack.conj())
        assert (eigenvalue_rows(stack).tobytes()
                == eigenvalue_rows(stack.conj()).tobytes())
        assert np.array_equal(elementary_weight_numerator_rows(degrees, twins),
                              elementary_weight_numerator_rows(degrees, edges))


def test_suite_keys_span_more_than_one_word(monkeypatch):
    graphs = two_word_graphs()
    solved = counted_solves(monkeypatch)
    suites = run_theorem_suites(graphs)
    # the two n = 11 graphs less arc (6, 7) are twins
    assert sum(solved) == expected_solves(graphs) == 47
    for g, suite in zip(graphs, suites):
        single = run_theorem_suite(g)
        assert [repr(r) for r in suite.records] == [repr(r) for r in single.records]
    for a, b in (suites[0::2], suites[1::2]):
        assert a.spectrum.eigenvalues.tobytes() != b.spectrum.eigenvalues.tobytes()


def test_suite_builds_one_table_per_block_and_no_graph(monkeypatch):
    graphs = population(4)[:1200] + sample_mixed_graphs(5, 440, seed=5)
    build, stack = theorems.edge_table, theorems.randic_stack
    solve = theorems.eigenvalue_rows
    blocks, stacks, built, solves, constructed = [], [], [], [], []

    def counted_table(block):
        blocks.append(list(block))
        return build(block)

    def recorded_stack(*table_and_slices):
        stacks.append(table_and_slices)
        built.append(stack(*table_and_slices))
        return built[-1]

    def recorded_solve(matrices):
        solves.append(matrices)
        return solve(matrices)

    def counted_graph(self, *args, **kwargs):
        constructed.append(self)

    monkeypatch.setattr(theorems, "edge_table", counted_table)
    monkeypatch.setattr(theorems, "randic_stack", recorded_stack)
    monkeypatch.setattr(theorems, "eigenvalue_rows", recorded_solve)
    monkeypatch.setattr(MixedGraph, "__init__", counted_graph)
    run_theorem_suites(graphs)
    monkeypatch.undo()
    assert constructed == []
    # blocks of SUITE_BLOCK // n**4 graphs: 1,024 at n = 4, 419 at n = 5
    assert list(map(len, blocks)) == [1024, 176, 419, 21]
    assert blocks == list(suite_blocks(graphs))
    assert len(stacks) == len(built) == len(blocks) == len(solves) // 2
    solved = {}
    for block, (degrees, edges, graph_of, cut_of), matrices, (mats, rest) in zip(
            blocks, stacks, built, zip(solves[::2], solves[1::2])):
        # each graph; each underlying graph; each graph less each edge
        # whose removal isolates no vertex, as a row of the table; the last
        # two only when their twin keys are new at the order
        mine, fresh, cuts = new_slices(block, solved.setdefault(block[0].n, set()))
        # solved: the graphs under a new key, then the rest of the stack,
        # which is not copied
        assert np.array_equal(mats, matrices[mine])
        assert rest.base is matrices and len(rest) == len(fresh) + len(cuts)
        underlying = [block[i].underlying_graph() for i in fresh]
        expected_degrees, expected_edges = edge_table([*block, *underlying])
        assert np.array_equal(degrees, expected_degrees)
        assert all(np.array_equal(a, b) for a, b in zip(edges, expected_edges))
        slices = [(i, -1) for i in range(len(block) + len(underlying))] + cuts
        assert list(zip(graph_of.tolist(), cut_of.tolist())) == slices


def test_suite_structural_records_are_the_check_results(exhaustive_population):
    suites = run_theorem_suites(exhaustive_population)
    structural = {
        "one_implies_positive_simple", "positive_implies_one",
        "bipartite_iff_symmetric", "minus_one_iff_antibalanced",
        "minus_one_vs_positive_bipartite", "underlying_spectrum_iff_all_ones",
        "bipartite_positive_unit_eigenvalues",
    }
    for g, suite in zip(exhaustive_population, suites):
        s = suite.spectrum
        expected = theorems._Block(None, theorems._structural_columns(
            check_eigenvalue_one(g, s), check_spectral_symmetry(g, s),
            check_minus_one(g, s), check_spectrum_equals_underlying(g, s))
        ).records(0)
        got = tuple(r for r in suite.records if r.name in structural)
        assert [repr(r) for r in got] == [repr(r) for r in expected]


def test_block_suites_make_their_records_on_each_read(graphs_with_deletions):
    graphs = [g for g, _ in graphs_with_deletions]
    for g, suite in zip(graphs, run_theorem_suites(graphs)):
        first, second = suite.records, suite.records
        assert first == second and first is not second
        assert all(a is not b for a, b in zip(first, second))
        assert fields(suite) == fields(run_theorem_suite(g))
        assert suite.spectrum is not suite.spectrum
        assert not suite.spectrum.eigenvalues.flags.writeable
