import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from mixedrandic import (
    MixedGraph,
    char_poly_combinatorial,
    char_poly_numeric,
    cycle_graph,
    determinant_combinatorial,
    directed_cycle,
    eigendecompose,
    path_graph,
    randic_matrix,
    randic_spectrum,
    sample_mixed_graphs,
)
from mixedrandic.matrices import randic_matrices
from mixedrandic.spectra import (
    Spectrum,
    determinants,
    eigendecompose_stack,
    eigenvalue_rows,
    energies,
    expand_roots,
    min_moduli,
    multiplicities,
    negative_counts,
    spectral_radii,
)


def single_arc_triangle():
    return MixedGraph.build(3, undirected_pairs=[(2, 3), (1, 3)], arcs=[(1, 2)])


def test_spectrum_of_triangle():
    s = randic_spectrum(cycle_graph(3))
    np.testing.assert_allclose(s.eigenvalues, [-0.5, -0.5, 1.0], atol=1e-12)
    assert s.n == 3
    assert abs(s.energy - 2) < 1e-12
    assert abs(s.rho - 1) < 1e-12
    assert abs(s.sigma - 0.5) < 1e-12
    assert s.negative_count == 2
    assert abs(s.determinant - 0.25) < 1e-12
    assert not s.is_singular
    assert s.multiplicity(-0.5) == 2
    assert s.contains(1.0)
    assert not s.contains(0.3)


def test_spectrum_of_path3():
    s = randic_spectrum(path_graph(3))
    np.testing.assert_allclose(s.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)
    assert s.is_singular
    assert s.sigma < 1e-12
    assert s.negative_count == 1


def test_eigendecompose_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigendecompose_stack_matches_single_solves(graphs_with_deletions):
    for g, deleted in graphs_with_deletions:
        stack = randic_matrices(g, deleted)
        spectra = eigendecompose_stack(stack)
        assert len(spectra) == len(stack)
        for mat, s in zip(stack, spectra):
            single = eigendecompose(mat).eigenvalues
            assert np.array_equal(s.eigenvalues, single)
            # bit for bit, against a solve of the one matrix alone
            reference = np.sort(np.linalg.eigvalsh(mat.copy()))
            assert s.eigenvalues.tobytes() == reference.tobytes()


def test_eigendecompose_stack_rejects_one_non_hermitian_slice():
    stack = randic_matrices(cycle_graph(4), cycle_graph(4).edges)
    assert len(eigendecompose_stack(stack)) == 5
    stack[3, 1, 2] = 0.5j
    with pytest.raises(ValueError, match="not Hermitian"):
        eigendecompose_stack(stack)
    with pytest.raises(ValueError, match="not Hermitian"):
        eigendecompose_stack(stack[0])  # one matrix, not a stack


def convolve_roots(roots):
    """Reference: the product of (x - lambda) one np.convolve at a time."""
    coeffs = np.array([1.0])
    for lam in roots:
        coeffs = np.convolve(coeffs, np.array([1.0, -lam]))
    return coeffs


def test_expand_roots_matches_convolution():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        roots = np.sort(rng.uniform(-1, 1, (400, n)), axis=1)
        roots[::5, 0] = 0.0          # signed zeros in the products
        roots[::7, -1] = -0.0
        roots[::3] = np.round(roots[::3] * 4) / 4   # exact cancellations
        expanded = expand_roots(roots)
        assert expanded.shape == (400, n + 1)
        for row, coeffs in zip(roots, expanded):
            assert coeffs.tobytes() == convolve_roots(row).tobytes()


def test_row_reductions_match_single_spectra(graphs_with_deletions):
    by_order = {}
    for g, deleted in graphs_with_deletions:
        by_order.setdefault(g.n, []).append(randic_matrices(g, deleted))
    reductions = {"energy": energies, "rho": spectral_radii, "sigma": min_moduli,
                  "determinant": determinants}
    for stacks in by_order.values():
        rows = eigenvalue_rows(np.concatenate(stacks))
        for i, vals in enumerate(rows):
            one = Spectrum(vals)
            for name, rows_of in reductions.items():
                value = getattr(one, name)
                assert type(value) is float
                assert rows_of(rows)[i].tobytes() == np.float64(value).tobytes()
            assert type(one.negative_count) is int
            assert negative_counts(rows)[i] == one.negative_count
            assert type(one.is_singular) is bool
            for value in (1.0, -1.0):
                assert type(one.multiplicity(value)) is int
                assert multiplicities(rows, value)[i] == one.multiplicity(value)


def test_char_poly_numeric_triangle():
    p = char_poly_numeric(randic_matrix(cycle_graph(3)))
    assert not p.exact
    np.testing.assert_allclose(p.as_floats(), [1.0, 0.0, -0.75, -0.25], atol=1e-12)


@pytest.mark.parametrize(
    "g,coefficients",
    [
        (path_graph(2), (1, 0, -1)),
        (cycle_graph(3), (1, 0, Fraction(-3, 4), Fraction(-1, 4))),
        (directed_cycle(3), (1, 0, Fraction(-3, 4), Fraction(1, 4))),
        (single_arc_triangle(), (1, 0, Fraction(-3, 4), Fraction(-1, 8))),
    ],
)
def test_char_poly_combinatorial_exact(g, coefficients):
    p = char_poly_combinatorial(g)
    assert p.exact
    assert p.coefficients == tuple(Fraction(c) for c in coefficients)


def test_char_poly_routes_agree():
    for g in (path_graph(4), cycle_graph(5), directed_cycle(4), single_arc_triangle()):
        exact = char_poly_combinatorial(g)
        numeric = char_poly_numeric(randic_matrix(g))
        assert exact.max_difference(numeric) < 1e-12


def test_char_poly_vanishes_on_spectrum():
    g = directed_cycle(4)
    p = char_poly_combinatorial(g)
    for value in randic_spectrum(g).eigenvalues:
        assert abs(np.polyval(p.as_floats(), value)) < 1e-10


@pytest.mark.parametrize(
    "g,expected",
    [
        (path_graph(2), Fraction(-1)),
        (cycle_graph(3), Fraction(1, 4)),
        (directed_cycle(3), Fraction(-1, 4)),
        (single_arc_triangle(), Fraction(1, 8)),
    ],
)
def test_determinant_combinatorial(g, expected):
    assert determinant_combinatorial(g) == expected


def test_determinant_matches_eigenvalue_product(exhaustive_population):
    graphs = [cycle_graph(5), directed_cycle(5), path_graph(4)]
    graphs += [g for g in exhaustive_population if g.n <= 3]
    graphs += sample_mixed_graphs(5, 25, seed=31) + sample_mixed_graphs(6, 25, seed=31)
    for g in graphs:
        det = determinant_combinatorial(g)
        assert det == (-1) ** g.n * char_poly_combinatorial(g).coefficients[-1]
        product = float(np.prod(randic_spectrum(g).eigenvalues))
        assert abs(float(det) - product) < 1e-12


def test_dense_order_10_routes_agree():
    # a complete mixed K10: the exact route counts paths over its 1.1e6
    # cycles instead of listing them
    rng = random.Random(10)
    pairs = list(combinations(range(1, 11), 2))
    arcs = [(u, v) if rng.random() < 0.5 else (v, u)
            for u, v in pairs if rng.random() < 0.6]
    ends = {frozenset(arc) for arc in arcs}
    g = MixedGraph.build(10, arcs=arcs, undirected_pairs=[
        pair for pair in pairs if frozenset(pair) not in ends])
    assert g.m == 45 and 0 < len(arcs) < 45
    r = randic_matrix(g)
    exact = char_poly_combinatorial(g)
    assert exact.max_difference(char_poly_numeric(r)) < 1e-8
    det = np.linalg.det(r)
    assert float(determinant_combinatorial(g)) == pytest.approx(det.real, rel=1e-9)
    assert abs(det.imag) < 1e-12


def test_combinatorial_route_guards():
    with pytest.raises(ValueError):
        char_poly_combinatorial(path_graph(11))  # above the default order cap
    with pytest.raises(ValueError):
        char_poly_combinatorial(parse_graph_with_isolated())


def parse_graph_with_isolated():
    return MixedGraph.build(3, undirected_pairs=[(1, 2)])
