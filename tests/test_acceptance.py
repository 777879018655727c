"""Acceptance suite: one test per shipped guarantee.

Populations come from conftest: exhaustive enumeration of connected
min-degree-1 mixed graphs through n = 4, plus 500 seeded samples each at
n = 5 and n = 6.
"""

import random
import time
from fractions import Fraction

import numpy as np

from mixedrandic import (
    MixedGraph,
    char_poly_combinatorial,
    char_poly_numeric,
    check_eigenvalue_one,
    check_minus_one,
    check_spectral_symmetry,
    check_spectrum_equals_underlying,
    cycle_graph,
    determinant_combinatorial,
    directed_cycle,
    energy_bounds_report,
    entry_sum_bounds,
    general_randic_index,
    incidence_matrix,
    interlacing_check,
    path_graph,
    randic_matrix,
    randic_spectrum,
    randic_via_incidence,
    run_theorem_suite,
    smallest_eigenvalue_bound,
)
from mixedrandic.campaign import edge_list_label
from mixedrandic.cli import main as cli_main


def one_arc_triangle():
    return MixedGraph.build(3, undirected_pairs=[(2, 3), (1, 3)], arcs=[(1, 2)])


def test_small_graph_spectra_match_closed_forms():
    """Five hand-solvable graphs, eigenvalues reproduced to 1e-10."""
    started = time.monotonic()
    cases = [
        (path_graph(2), [-1.0, 1.0]),
        (cycle_graph(3), [-0.5, -0.5, 1.0]),
        (directed_cycle(3), [-1.0, 0.5, 0.5]),
        (path_graph(3), [-1.0, 0.0, 1.0]),
        (cycle_graph(4), [-1.0, 0.0, 0.0, 1.0]),
    ]
    for g, expected in cases:
        got = randic_spectrum(g).eigenvalues
        assert np.max(np.abs(got - np.array(expected))) <= 1e-10, edge_list_label(g)
    assert time.monotonic() - started < 1.0


def test_characteristic_polynomial_routes_agree_across_population(full_population):
    """Exact subgraph-expansion coefficients vs the numeric route, 1e-8."""
    started = time.monotonic()
    worst = 0.0
    for g in full_population:
        exact = char_poly_combinatorial(g)
        numeric = char_poly_numeric(randic_matrix(g))
        worst = max(worst, exact.max_difference(numeric))
    assert worst <= 1e-8
    assert time.monotonic() - started < 300.0


def test_determinant_identity_and_exact_family_values(full_population):
    """Combinatorial determinant equals the eigenvalue product, 1e-9; the
    four pinned family values are exact on the rational side."""
    for g in full_population:
        exact = float(determinant_combinatorial(g))
        product = float(np.prod(randic_spectrum(g).eigenvalues))
        assert abs(exact - product) <= 1e-9, edge_list_label(g)
    assert determinant_combinatorial(path_graph(2)) == Fraction(-1)
    assert determinant_combinatorial(cycle_graph(3)) == Fraction(1, 4)
    assert determinant_combinatorial(directed_cycle(3)) == Fraction(-1, 4)
    assert determinant_combinatorial(one_arc_triangle()) == Fraction(1, 8)


def test_eigenvalue_range_and_trace_identities(full_population):
    """Spectrum within [-1, 1], zero trace, and second moment equal to twice
    the inverse-degree-product edge sum, all to 1e-9."""
    for g in full_population:
        values = randic_spectrum(g).eigenvalues
        assert values[0] >= -1 - 1e-9 and values[-1] <= 1 + 1e-9, edge_list_label(g)
        assert abs(values.sum()) <= 1e-9, edge_list_label(g)
        moment = float(2 * general_randic_index(g, -1))
        assert abs((values**2).sum() - moment) <= 1e-9, edge_list_label(g)


def test_edge_deletion_interlacing_has_no_violations(population_through_5):
    """Deleting any edge whose endpoints keep positive degree brackets the
    reduced spectrum between neighboring original eigenvalues (with -1 and 1
    as sentinels), tolerance 1e-9."""
    checked = 0
    for g in population_through_5:
        degrees = g.degrees()
        for e in g.edges:
            if degrees[e.u - 1] < 2 or degrees[e.v - 1] < 2:
                continue
            result = interlacing_check(g, (e.u, e.v))
            assert result.holds, (edge_list_label(g), str(e), result.worst_violation)
            checked += 1
    assert checked > 1000


def test_incidence_factorization_under_canonical_and_random_gauge(population_through_5):
    """R equals I minus the normalized incidence Gram matrix entrywise to
    1e-12, and stays equal after scaling each incidence column by a random
    unit complex number."""
    rng = random.Random(20260823)
    for g in population_through_5:
        r = randic_matrix(g)
        assert np.max(np.abs(randic_via_incidence(g) - r)) <= 1e-12, edge_list_label(g)
        phases = np.exp(2j * np.pi * np.array([rng.random() for _ in range(g.m)]))
        scale = np.diag(1 / np.sqrt(np.array(g.degrees(), dtype=float)))
        gram = scale @ (incidence_matrix(g) * phases)
        regauged = np.eye(g.n) - gram @ gram.conj().T
        assert np.max(np.abs(regauged - r)) <= 1e-12, edge_list_label(g)


def test_structural_biconditionals_across_population(full_population):
    """Structure-to-spectrum claims over the whole population: spectrum equals
    the underlying graph's exactly when the gains switch to all ones;
    eigenvalue 1 appears only on positive graphs and then simply; spectral
    symmetry about zero exactly on bipartite graphs; eigenvalue -1 exactly on
    antibalanced graphs.  Every graph whose -1 status disagrees with the
    positive-bipartite reading must carry exactly one divergence note."""
    claims = {
        "spectrum equals underlying iff switchable to all ones": [],
        "eigenvalue 1 implies positive with multiplicity 1": [],
        "bipartite iff spectrum symmetric about zero": [],
        "eigenvalue -1 iff antibalanced": [],
    }
    divergences = 0
    for g in full_population:
        s = randic_spectrum(g)
        label = f"n={g.n} {edge_list_label(g)}"
        underlying = check_spectrum_equals_underlying(g, s)
        if underlying.spectra_equal != underlying.switch_equiv_allones:
            claims["spectrum equals underlying iff switchable to all ones"].append(label)
        one = check_eigenvalue_one(g, s)
        if one.has_one and not (one.graph_positive and one.multiplicity == 1):
            claims["eigenvalue 1 implies positive with multiplicity 1"].append(label)
        symmetry = check_spectral_symmetry(g, s)
        if symmetry.symmetric != symmetry.bipartite:
            claims["bipartite iff spectrum symmetric about zero"].append(label)
        minus_one = check_minus_one(g, s)
        if minus_one.has_minus_one != minus_one.antibalanced:
            claims["eigenvalue -1 iff antibalanced"].append(label)
        notes = [
            record
            for record in run_theorem_suite(g).records
            if record.name == "minus_one_vs_positive_bipartite"
        ]
        assert len(notes) == 1, label
        diverged = minus_one.has_minus_one != minus_one.positive_bipartite
        assert bool(notes[0].reason) == diverged, label
        divergences += diverged
    assert divergences > 0  # the all-arc triangle family is in the population
    broken = {claim: labels for claim, labels in claims.items() if labels}
    report = "; ".join(
        f"{claim}: {len(labels)} violations (e.g. {', '.join(labels[:3])})"
        for claim, labels in broken.items()
    )
    assert not broken, report


def test_bound_suite_holds_with_documented_skips_and_tight_cases(full_population):
    """Every eigenvalue, spread, and energy bound is satisfied or carries a
    documented skip reason, with slack no worse than -1e-9; the single-edge
    and triangle tightness cases collapse to equalities."""
    for g in full_population:
        s = randic_spectrum(g)
        records = list(entry_sum_bounds(g, s).records)
        records.append(smallest_eigenvalue_bound(g, s))
        records.extend(energy_bounds_report(g, s).records)
        for record in records:
            assert record.satisfied or record.skipped, (edge_list_label(g), record)
            if record.skipped:
                assert record.reason, (edge_list_label(g), record.name)
            else:
                floor = -1e-9 * max(1.0, abs(record.rhs))
                assert record.slack >= floor, (edge_list_label(g), record)

    triangle_energy = energy_bounds_report(cycle_graph(3))
    for name in ("energy_lower_geometric", "energy_lower_min_modulus",
                 "energy_lower_polya_szego"):
        assert abs(triangle_energy.record(name).slack) <= 1e-9, name
    triangle_sums = {r.name: r for r in entry_sum_bounds(cycle_graph(3)).records}
    assert abs(triangle_sums["entry_sum_lower"].slack) <= 1e-9
    assert abs(triangle_sums["entry_sum_upper"].slack) <= 1e-9

    edge_energy = energy_bounds_report(path_graph(2))
    for name in ("energy_lower_determinant", "energy_upper_moment",
                 "energy_lower_polya_szego", "energy_lower_ozeki"):
        assert abs(edge_energy.record(name).slack) <= 1e-9, name


def test_enumeration_reports_are_byte_deterministic(tmp_path):
    """The campaign command writes byte-identical reports across repeat runs,
    for both output formats."""
    config = tmp_path / "campaign.cfg"
    config.write_text("n_min 2\nn_max 3\n")
    outputs = {}
    for fmt in ("json", "csv"):
        blobs = []
        for name in (f"a.{fmt}", f"b.{fmt}", f"c.{fmt}"):
            target = tmp_path / name
            code = cli_main([
                "enumerate", "--config", str(config), "--format", fmt,
                "--output", str(target),
            ])
            assert code == 0
            blobs.append(target.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], fmt
        outputs[fmt] = blobs[0]
    assert outputs["json"] != outputs["csv"]
