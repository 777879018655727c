"""Checkers for the structural results and the inequality suite.

Every checker is a pure function of the graph.  Optional keywords
(``spectrum``, ``r_inv``) hand in per-graph facts the caller already holds;
they must be the graph's own.  Numeric inequalities follow one convention: a
claim lhs <= rhs is reported with slack = rhs - lhs and counts as satisfied
when slack >= -tol * max(1, |rhs|), with tol = 1e-9 unless a check documents
otherwise.  Membership tests (is 1 an eigenvalue, do two spectra agree) use
the looser 1e-8 because they compare independently computed floating-point
spectra.

The bounds are evaluated on a population of one order at a time, as
arrays over its graphs; the one-graph functions (``entry_sum_bounds``,
``energy_bounds_report``, ...) are the population of one, and the suite
builds the ``check_*`` results from the same per-graph facts, so every
formula and every tolerance comparison exists once.  ``run_theorem_suites``
runs the whole suite that way and ``run_theorem_suite`` is its one-graph
case.

The checks named ``*_iff_*`` assert equivalences between a spectral fact and
a combinatorial certificate; ``minus_one_vs_positive_bipartite`` is the one
informational record, kept because the two criteria genuinely part ways on
some graphs (an all-arcs triangle has eigenvalue -1 without being bipartite).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .enumeration import elementary_weight_numerator_rows
from .gains import gain_balance, is_positive
from .graphs import (
    EdgeRecord,
    MixedGraph,
    edge_label,
    general_randic_index,
    group_by_underlying,
)
from .matrices import (
    edge_table,
    laplacians,
    randic_matrices,
    randic_stack,
    randic_via_incidences,
)
from .spectra import (
    DEFAULT_COMBINATORIAL_CAP,
    TOL_ZERO,
    Spectrum,
    determinants,
    eigendecompose_stack,
    eigenvalue_rows,
    energies,
    expand_roots,
    min_moduli,
    multiplicities,
    negative_counts,
    randic_spectrum,
    spectral_radii,
)

#: One-sided tolerance for inequality slack, scaled by max(1, |rhs|).
TOL_INEQ = 1e-9

#: Tolerance for eigenvalue membership and spectra comparison.
TOL_EIG = 1e-8

#: Most graphs in one stacked build and solve: an order with more is taken
#: in blocks of this many.  A whole order's stack and the arrays derived
#: from it raise a campaign's peak memory with the population's size.
SUITE_BLOCK = 256


@dataclass(frozen=True, slots=True)
class CheckRecord:
    """Outcome of a single named check.

    lhs, rhs and slack are None for purely structural checks; reason carries
    skip explanations and informational notes.
    """

    name: str
    satisfied: bool
    skipped: bool = False
    lhs: float | None = None
    rhs: float | None = None
    slack: float | None = None
    reason: str = ""


def _inequalities(names: str | Iterable[str], lhs, rhs,
                  tol: float = TOL_INEQ) -> list[CheckRecord]:
    """One record per graph of a population: the claim lhs <= rhs, named by
    ``names`` (one name for all, or one each).  lhs and rhs are arrays or
    lists of plain floats with one entry per graph, or one float for all;
    the records hold plain floats and bools, since numpy scalars are not
    report scalars, and share the float objects of a list or a float."""
    slack = np.atleast_1d(np.subtract(rhs, lhs, dtype=float))
    ok = slack >= -tol * np.maximum(1.0, np.abs(np.asarray(rhs, dtype=float)))
    if isinstance(names, str):
        names = repeat(names)
    count = len(slack)
    return [CheckRecord(name, o, lhs=a, rhs=b, slack=c) for name, a, b, c, o
            in zip(names, _floats(lhs, count), _floats(rhs, count),
                   slack.tolist(), ok.tolist())]


def _floats(values, count: int) -> list:
    """values as a list of count plain floats: a list as it is, an array
    converted, one float repeated."""
    if isinstance(values, list):
        return values
    if np.ndim(values):
        return values.tolist()
    return [float(values)] * count


def _flag(name: str, ok: bool, reason: str = "") -> CheckRecord:
    return CheckRecord(name, ok, reason=reason) if reason else _bare_flag(name, ok)


# Records are immutable, so the ones that carry nothing particular to a graph
# are made once and shared: a campaign holds every record of every graph.
@functools.cache
def _bare_flag(name: str, ok: bool) -> CheckRecord:
    return CheckRecord(name, ok)


@functools.cache
def _skip(name: str, reason: str) -> CheckRecord:
    return CheckRecord(name, True, skipped=True, reason=reason)


def _require_connected(g: MixedGraph) -> None:
    if not g.is_connected():
        raise ValueError("graph is not connected")


def _largest_entries(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a (G, n, n) stack, the largest entry modulus."""
    return np.abs(stack).max(axis=(-2, -1))


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the largest |a - b|."""
    return np.abs(a - b).max(axis=-1)


def _asymmetry(vals: np.ndarray) -> np.ndarray:
    """Per row of sorted eigenvalues, how far the spectrum is from being
    symmetric about 0: the largest |lambda_k + lambda_(n-1-k)|."""
    return np.abs(vals + vals[..., ::-1]).max(axis=-1)


def randic_inverse(g: MixedGraph) -> float:
    """The inverse-degree-product edge sum r_inv = sum 1/(d_u d_v) over the
    edges, correctly rounded from the exact general_randic_index(g, -1)."""
    return float(general_randic_index(g, -1))


@dataclass(frozen=True)
class InterlacingResult:
    """Spectra of a graph and of the graph minus one edge, with the
    per-position verdicts of the deleted spectrum being bracketed by the
    original one (positions 1..n against neighbours k-1 and k+1, where
    position 0 counts as -1 and position n+1 as 1)."""

    edge: EdgeRecord
    original: Spectrum
    reduced: Spectrum
    verdicts: tuple[bool, ...]
    worst_violation: float

    @property
    def holds(self) -> bool:
        return all(self.verdicts)


def _interlacing_violations(lam: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Entry [s, k]: how far eigenvalue k of the edge-deleted spectrum
    theta[s] lies outside [lam[s, k - 1], lam[s, k + 1]] (with -1 below
    position 0 and 1 above position n - 1), or 0 inside it; lam[s] is the
    spectrum of the graph that edge was deleted from."""
    ones = np.ones((len(lam), 1))
    bracket = np.concatenate((-ones, lam, ones), axis=1)
    return np.maximum(np.maximum(bracket[:, :-2] - theta, theta - bracket[:, 2:]), 0.0)


def _worst(violations: np.ndarray) -> list[float]:
    """Per row, the largest violation as a plain float (0.0, not -0.0, when
    nothing is violated)."""
    return [max(0.0, w) for w in violations.max(axis=-1).tolist()]


def interlacing_check(g: MixedGraph, pair: tuple[int, int],
                      tol: float = TOL_INEQ) -> InterlacingResult:
    """Bracketing of the edge-deleted spectrum by the original spectrum."""
    edge = g.edge_between(*pair)
    if edge is None:
        raise ValueError(f"no edge between {pair[0]} and {pair[1]}")
    original, reduced = eigendecompose_stack(randic_matrices(g, (edge,)))
    violations = _interlacing_violations(original.eigenvalues[np.newaxis],
                                         reduced.eigenvalues[np.newaxis])
    verdicts = tuple(x <= tol for x in violations[0].tolist())
    return InterlacingResult(edge, original, reduced, verdicts,
                             _worst(violations)[0])


@dataclass(frozen=True)
class EigenvalueOneCheck:
    has_one: bool
    multiplicity: int
    graph_positive: bool


def check_eigenvalue_one(g: MixedGraph,
                         spectrum: Spectrum | None = None) -> EigenvalueOneCheck:
    """Is 1 an eigenvalue, with what multiplicity, and is every cycle gain 1.

    For connected graphs the three answers are tied together: eigenvalue 1
    occurs exactly on positive graphs and is then simple.
    """
    _require_connected(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    return _eigenvalue_one(s.multiplicity(1.0, TOL_EIG), is_positive(g))


def _eigenvalue_one(multiplicity: int, positive: bool) -> EigenvalueOneCheck:
    return EigenvalueOneCheck(multiplicity > 0, multiplicity, positive)


@dataclass(frozen=True)
class SymmetryCheck:
    symmetric: bool
    bipartite: bool
    max_asymmetry: float


def check_spectral_symmetry(g: MixedGraph,
                            spectrum: Spectrum | None = None) -> SymmetryCheck:
    """Is the spectrum symmetric about 0, and is the underlying graph bipartite."""
    _require_connected(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    return _symmetry(float(_asymmetry(s.eigenvalues)), g.is_bipartite())


def _symmetry(max_asymmetry: float, bipartite: bool) -> SymmetryCheck:
    return SymmetryCheck(max_asymmetry <= TOL_EIG, bipartite, max_asymmetry)


@dataclass(frozen=True)
class MinusOneCheck:
    has_minus_one: bool
    positive_bipartite: bool
    antibalanced: bool


def check_minus_one(g: MixedGraph,
                    spectrum: Spectrum | None = None) -> MinusOneCheck:
    """Is -1 an eigenvalue, against two candidate structural certificates.

    Antibalance (switchable to the constant gain -1) is the criterion this
    package asserts; positive-and-bipartite is reported alongside because it
    agrees on fully un-oriented graphs but not on all mixed ones.
    """
    _require_connected(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    return _minus_one(s.multiplicity(-1.0, TOL_EIG), *gain_balance(g),
                      g.is_bipartite())


def _minus_one(multiplicity: int, positive: bool, antibalanced: bool,
               bipartite: bool) -> MinusOneCheck:
    return MinusOneCheck(multiplicity > 0, positive and bipartite, antibalanced)


@dataclass(frozen=True)
class UnderlyingSpectrumCheck:
    spectra_equal: bool
    switch_equiv_allones: bool
    max_difference: float


def check_spectrum_equals_underlying(
    g: MixedGraph, spectrum: Spectrum | None = None,
) -> UnderlyingSpectrumCheck:
    """Does the spectrum coincide with the all-un-oriented version's
    spectrum, and is the graph switching-equivalent to that version (every
    cycle gain 1)."""
    _require_connected(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    plain = randic_spectrum(g.underlying_graph())
    return _underlying(float(_distance(s.eigenvalues, plain.eigenvalues)),
                       is_positive(g))


def _underlying(max_difference: float, positive: bool) -> UnderlyingSpectrumCheck:
    return UnderlyingSpectrumCheck(max_difference <= TOL_EIG, positive,
                                   max_difference)


def entry_sums(degrees: np.ndarray, edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """Per graph of an edge_table, the sum of all entries of its Randic
    matrix (a real number), added up in edge order.

    An un-oriented edge contributes 2/sqrt(d_u d_v); an arc contributes
    1/sqrt(d_u d_v), the two conjugate entries adding to twice the real part.
    """
    owner, u, v, arc = edges
    scale = 1.0 / np.sqrt(degrees[owner, u] * degrees[owner, v])
    return np.bincount(owner, np.where(arc, scale, 2.0 * scale),
                       minlength=len(degrees))


def entry_sum(g: MixedGraph) -> float:
    """Sum of all entries of the Randic matrix: the one-graph case of
    entry_sums."""
    return float(entry_sums(*edge_table([g]))[0])


@dataclass(frozen=True)
class EntrySumBounds:
    """Pinching of the extreme eigenvalues by the matrix entry sum S:
    lambda_min <= -S/(n(n-1)) <= S/n <= lambda_max, plus the induced spread
    bound lambda_max - lambda_min >= S/(n-1)."""

    entry_total: float
    lower_estimate: float
    upper_estimate: float
    lambda_min: float
    lambda_max: float
    records: tuple[CheckRecord, ...]


def _entry_sum_bounds(n: int, total: np.ndarray,
                      vals: np.ndarray) -> list[EntrySumBounds]:
    """entry_sum_bounds for a population of order n: entry sums (G,) and
    sorted eigenvalues (G, n)."""
    lam_min = vals[:, 0]
    lam_max = vals[:, -1]
    lower = -total / (n * (n - 1))
    upper = total / n
    # lists, so that records and bounds share the float objects
    totals, low, up, least, most = (
        x.tolist() for x in (total, lower, upper, lam_min, lam_max))
    records = zip(
        _inequalities("entry_sum_lower", least, low),
        _inequalities("entry_sum_order", low, up),
        _inequalities("entry_sum_upper", up, most),
        _inequalities("entry_sum_spread", total / (n - 1), lam_max - lam_min),
    )
    return [EntrySumBounds(*values, recs) for *values, recs
            in zip(totals, low, up, least, most, records)]


def entry_sum_bounds(g: MixedGraph,
                     spectrum: Spectrum | None = None) -> EntrySumBounds:
    if g.n < 2:
        raise ValueError("entry-sum bounds need at least two vertices")
    s = randic_spectrum(g) if spectrum is None else spectrum
    return _entry_sum_bounds(g.n, entry_sums(*edge_table([g])),
                             s.eigenvalues[np.newaxis])[0]


def _smallest_eigenvalue_bounds(n: int, r_inv: np.ndarray,
                                vals: np.ndarray) -> list[CheckRecord]:
    """smallest_eigenvalue_bound for a population of order n: r_inv (G,)
    and sorted eigenvalues (G, n)."""
    bound = 2.0 * r_inv / (n * (n - 1))
    # Python's float power: numpy's rounds differently
    squares = [x ** 2 for x in vals[:, 0].tolist()]
    return _inequalities("min_eigenvalue_square", bound, squares)


def smallest_eigenvalue_bound(g: MixedGraph,
                              spectrum: Spectrum | None = None,
                              r_inv: float | None = None) -> CheckRecord:
    """lambda_min**2 is at least twice the inverse-degree-product edge sum
    r_inv divided by n(n-1)."""
    if g.n < 2:
        raise ValueError("bound needs at least two vertices")
    s = randic_spectrum(g) if spectrum is None else spectrum
    if r_inv is None:
        r_inv = randic_inverse(g)
    return _smallest_eigenvalue_bounds(g.n, np.array([r_inv]),
                                       s.eigenvalues[np.newaxis])[0]


@dataclass(frozen=True)
class BoundsReport:
    """The energy inequalities for one graph, plus the scalars they consume."""

    n: int
    m: int
    randic_inverse: float
    determinant: float
    rho: float
    sigma: float
    negative_count: int
    energy: float
    records: tuple[CheckRecord, ...]

    def record(self, name: str) -> CheckRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.records if not r.skipped)


def _energy_bounds(graphs: Sequence[MixedGraph], r_inv: np.ndarray,
                   vals: np.ndarray) -> list[BoundsReport]:
    """energy_bounds_report for a population of one order, with r_inv (G,)
    and sorted eigenvalues (G, n).

    |det|**(2/n), ratio**(1/(n-k)), the exponential and squares stay Python
    float arithmetic: numpy's power and exp round differently.
    """
    n = graphs[0].n
    eps, rho, sigma = energies(vals), spectral_radii(vals), min_moduli(vals)
    det, k = determinants(vals), negative_counts(vals)
    singular = sigma <= TOL_ZERO
    eps_list = eps.tolist()

    det_root = np.array([abs(x) ** (2.0 / n) for x in det.tolist()])

    # the geometric mean of the positive eigenvalues, over graphs with
    # eigenvalues of both signs and a nonsingular matrix
    mixed = (k > 0) & (k < n) & ~singular
    negatives = np.where(np.arange(n) < k[:, np.newaxis], vals, 1.0)
    with np.errstate(all="ignore"):
        ratio = det / negatives.prod(axis=-1)
    roots = np.array([r ** (1.0 / (n - kk)) if ok else 0.0 for r, kk, ok
                      in zip(ratio.tolist(), k.tolist(), mixed.tolist())])
    geometric = _inequalities("energy_lower_geometric",
                              2.0 * (n - k) * roots, eps_list)
    for i in np.flatnonzero(~mixed).tolist():
        kk = int(k[i])
        geometric[i] = _skip(
            "energy_lower_geometric",
            f"needs eigenvalues of both signs (negative count {kk} of {n})"
            if kk == 0 or kk == n else "singular matrix: geometric mean is zero",
        )

    with np.errstate(all="ignore"):
        polya_lhs = np.sqrt(8.0 * n * rho * sigma * r_inv) / (rho + sigma)
    polya = _inequalities("energy_lower_polya_szego", polya_lhs, eps_list)
    for i in np.flatnonzero(singular).tolist():
        polya[i] = CheckRecord(
            "energy_lower_polya_szego", True, lhs=0.0, rhs=eps_list[i],
            slack=eps_list[i],
            reason="minimal modulus is zero; bound degenerates to 0",
        )

    spread = np.array([x ** 2 for x in (rho - sigma).tolist()])
    radicand = 8.0 * n * r_inv - n * n * spread
    ozeki = _inequalities("energy_lower_ozeki",
                          np.sqrt(np.maximum(radicand, 0.0)) / 2.0, eps_list)
    for i in np.flatnonzero(radicand < 0.0).tolist():
        ozeki[i] = CheckRecord(
            "energy_lower_ozeki", True, skipped=True, lhs=0.0,
            rhs=eps_list[i], slack=eps_list[i],
            reason=f"negative radicand {radicand[i]:.6g}; bound vacuous",
        )

    records = zip(
        _inequalities("energy_lower_determinant",
                      np.sqrt(2.0 * r_inv + n * (n - 1) * det_root), eps_list),
        _inequalities("energy_upper_moment", eps_list, np.sqrt(2.0 * n * r_inv)),
        geometric,
        _inequalities("energy_upper_exponential", eps_list,
                      [math.exp(x) for x in np.sqrt(2.0 * r_inv).tolist()]),
        _inequalities(
            "energy_upper_radius", eps_list,
            0.5 * (rho * (n - 2) + np.sqrt(rho * rho * (n - 2) ** 2
                                           + 16.0 * r_inv)),
        ),
        _inequalities(
            "energy_lower_min_modulus",
            0.5 * (sigma * (n - 2) + np.sqrt(sigma * sigma * (n - 2) ** 2
                                             + 16.0 * r_inv)),
            eps_list,
        ),
        polya,
        ozeki,
    )
    return [BoundsReport(n, g.m, *scalars, recs) for g, *scalars, recs in zip(
        graphs, r_inv.tolist(), det.tolist(), rho.tolist(), sigma.tolist(),
        k.tolist(), eps_list, records)]


def energy_bounds_report(g: MixedGraph,
                         spectrum: Spectrum | None = None) -> BoundsReport:
    """Evaluate the energy bounds.

    Naming scheme: energy_lower_* are claims bound <= energy, energy_upper_*
    are claims energy <= bound.  Skip and degeneration rules:

    * energy_lower_geometric needs at least one negative eigenvalue, at
      least one non-negative one, and a nonsingular matrix; otherwise the
      stated quantity is undefined and the record is skipped.
    * energy_lower_polya_szego degenerates to 0 <= energy when the minimal
      modulus is zero; recorded as trivially satisfied.
    * energy_lower_ozeki is vacuous when its radicand is negative; recorded
      as skipped with the radicand in the reason.
    """
    _require_connected(g)
    if g.n < 2:
        raise ValueError("energy bounds need at least two vertices")
    s = randic_spectrum(g) if spectrum is None else spectrum
    return _energy_bounds([g], np.array([randic_inverse(g)]),
                          s.eigenvalues[np.newaxis])[0]


@dataclass(frozen=True)
class TheoremSuite:
    """All per-graph verdicts, in a fixed order for stable reports."""

    graph: MixedGraph
    spectrum: Spectrum
    records: tuple[CheckRecord, ...]

    def as_dict(self) -> dict[str, CheckRecord]:
        return {r.name: r for r in self.records}

    @property
    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records
                     if not r.skipped and not r.satisfied)

    @property
    def skips(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if r.skipped)

    @property
    def notes(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records
                     if r.satisfied and not r.skipped and r.reason)


def _structural_records(one: EigenvalueOneCheck, sym: SymmetryCheck,
                        minus: MinusOneCheck,
                        under: UnderlyingSpectrumCheck) -> tuple[CheckRecord, ...]:
    """The biconditional records of one graph, from its check results."""
    one_ok = (not one.has_one) or (one.graph_positive and one.multiplicity == 1)
    return (
        _flag("one_implies_positive_simple", one_ok,
              reason="" if one_ok else
              f"has_one={one.has_one} positive={one.graph_positive} "
              f"multiplicity={one.multiplicity}"),
        _flag("positive_implies_one", (not one.graph_positive) or one.has_one),
        _flag("bipartite_iff_symmetric", sym.bipartite == sym.symmetric,
              reason="" if sym.bipartite == sym.symmetric else
              f"bipartite={sym.bipartite} symmetric={sym.symmetric} "
              f"max_asymmetry={sym.max_asymmetry:.3e}"),
        _flag("minus_one_iff_antibalanced",
              minus.has_minus_one == minus.antibalanced,
              reason="" if minus.has_minus_one == minus.antibalanced else
              f"has_minus_one={minus.has_minus_one} "
              f"antibalanced={minus.antibalanced}"),
        _flag("minus_one_vs_positive_bipartite", True,
              reason="" if minus.has_minus_one == minus.positive_bipartite else
              f"divergence: has_minus_one={minus.has_minus_one} "
              f"positive_bipartite={minus.positive_bipartite}"),
        _flag("underlying_spectrum_iff_all_ones",
              under.spectra_equal == under.switch_equiv_allones,
              reason="" if under.spectra_equal == under.switch_equiv_allones else
              f"spectra_equal={under.spectra_equal} "
              f"switch_equiv_allones={under.switch_equiv_allones}"),
        _flag("bipartite_positive_unit_eigenvalues",
              one.has_one and minus.has_minus_one)
        if one.graph_positive and sym.bipartite else
        _skip("bipartite_positive_unit_eigenvalues",
              "not a positive bipartite graph"),
    )


def _order_suites(graphs: Sequence[MixedGraph],
                  include_interlacing: bool) -> list[TheoremSuite]:
    """The suite on graphs of one order, each connected with every degree
    >= 1 (else ValueError), from one edge_table: one stacked build and
    solve, the residuals and bounds as array reductions over the graphs,
    the exact charpoly numerators, and the facts of each underlying graph
    (its spectrum among them) once per group of graphs sharing it."""
    n = graphs[0].n
    degrees, edges = edge_table(graphs)
    owner, u, v, arc = edges
    bipartite = np.empty(len(graphs), dtype=bool)
    r_inv = np.empty(len(graphs))
    group_of = np.empty(len(graphs), dtype=np.intp)
    first_member = np.zeros(len(graphs), dtype=bool)
    groups = group_by_underlying(graphs)
    for k, members in enumerate(groups):
        g = graphs[members[0]]
        _require_connected(g)
        if 0 in g.degrees():
            raise ValueError("isolated vertex: the normalized matrix is undefined")
        bipartite[members] = g.is_bipartite()
        r_inv[members] = randic_inverse(g)
        group_of[members] = k
        first_member[members[0]] = True
    # R(g), R(g - e) for every edge whose removal isolates no vertex, and R
    # of group k's underlying graph: its first member's rows un-oriented,
    # smaller end first, as graph len(graphs) + k (groups come in order of
    # their first members, so the table stays ordered by graph)
    removable = ((degrees[owner, u] > 1) & (degrees[owner, v] > 1)
                 & include_interlacing)
    cuts = np.flatnonzero(removable)
    plain = first_member[owner]
    stacked = (np.concatenate((degrees, degrees[first_member])), (
        np.concatenate((owner, len(graphs) + group_of[owner[plain]])),
        np.concatenate((u, np.minimum(u, v)[plain])),
        np.concatenate((v, np.maximum(u, v)[plain])),
        np.concatenate((arc, np.zeros(plain.sum(), dtype=bool)))))
    graph_of = np.concatenate((np.arange(len(graphs)), owner[cuts],
                               len(graphs) + np.arange(len(groups))))
    cut_of = np.concatenate((np.full(len(graphs), -1), cuts,
                             np.full(len(groups), -1)))
    numerators = None
    if n <= DEFAULT_COMBINATORIAL_CAP:
        numerators = elementary_weight_numerator_rows(degrees, edges)
    stack = randic_stack(*stacked, graph_of, cut_of)
    # the solve is a block's peak of memory, which the table need not raise
    del stacked, graph_of, cut_of
    rows = eigenvalue_rows(stack)
    vals, deletions, plain_vals = np.split(
        rows, [len(graphs), len(graphs) + len(cuts)])
    mats = stack[:len(graphs)]

    head = [
        _inequalities("unit_interval", spectral_radii(vals), 1.0),
        _inequalities("trace_zero", np.abs(vals.sum(axis=-1)), 0.0),
        _inequalities("second_moment",
                      np.abs((vals ** 2).sum(axis=-1) - 2.0 * r_inv), 0.0),
        _inequalities("incidence_factorization",
                      _largest_entries(mats - randic_via_incidences(degrees, edges)),
                      0.0, tol=1e-12),
    ]
    scale = 1.0 / np.sqrt(degrees)
    triple = (scale[:, :, np.newaxis] * laplacians(degrees, edges)
              * scale[:, np.newaxis, :])
    head.append(_inequalities("laplacian_complement",
                              _largest_entries(np.eye(n) - triple - mats),
                              0.0, tol=1e-14))
    if numerators is not None:
        # a_k = (-1)**k * numerator_k / prod d_i.  Every numerator and the
        # denominator are below 2**53 at n <= 10 (see
        # elementary_weight_numerator_rows), so each is exact in float64 and
        # the one division is rounded as float(Fraction(numerator, prod d_i))
        numerators[:, 1::2] *= -1
        exact = numerators / np.prod(degrees, axis=1, keepdims=True)
        head.append(_inequalities("charpoly_agreement",
                                  _distance(exact, expand_roots(vals)),
                                  0.0, tol=TOL_EIG))
        head.append(_inequalities(
            "determinant_identity",
            np.abs((-1) ** n * exact[:, -1] - determinants(vals)), 0.0))
    else:
        reason = f"n = {n} above cap {DEFAULT_COMBINATORIAL_CAP}"
        head.append([_skip("charpoly_agreement", reason)] * len(graphs))
        head.append([_skip("determinant_identity", reason)] * len(graphs))

    interlacing = [()] * len(graphs)
    if include_interlacing:
        names = [f"interlacing:{edge_label(e)}" for g in graphs for e in g.edges]
        kept = removable.tolist()
        worst = iter(_inequalities(
            [name for name, ok in zip(names, kept) if ok],
            _worst(_interlacing_violations(vals[owner[cuts]], deletions)), 0.0))
        records = [next(worst) if ok else _skip(name, "removal isolates a vertex")
                   for name, ok in zip(names, kept)]
        bounds = np.searchsorted(owner, np.arange(len(graphs) + 1)).tolist()
        interlacing = [tuple(records[a:b]) for a, b in zip(bounds, bounds[1:])]

    structural = []
    for (positive, anti), two_colorable, mult_one, mult_minus_one, asym, diff in zip(
            map(gain_balance, graphs), bipartite.tolist(),
            multiplicities(vals, 1.0, TOL_EIG).tolist(),
            multiplicities(vals, -1.0, TOL_EIG).tolist(),
            _asymmetry(vals).tolist(),
            _distance(vals, plain_vals[group_of]).tolist()):
        structural.append(_structural_records(
            _eigenvalue_one(mult_one, positive), _symmetry(asym, two_colorable),
            _minus_one(mult_minus_one, positive, anti, two_colorable),
            _underlying(diff, positive)))
    entry = _entry_sum_bounds(n, entry_sums(degrees, edges), vals)
    smallest = _smallest_eigenvalue_bounds(n, r_inv, vals)
    energy = _energy_bounds(graphs, r_inv, vals)
    return [
        TheoremSuite(g, Spectrum(row), first_records + interlaced + facts
                     + entries.records + (least,) + bounds.records)
        for g, row, first_records, interlaced, facts, entries, least, bounds
        in zip(graphs, vals, zip(*head), interlacing, structural, entry,
               smallest, energy)
    ]


def run_theorem_suites(graphs: Iterable[MixedGraph],
                       include_interlacing: bool = True) -> list[TheoremSuite]:
    """Evaluate every checker on each graph, each connected with all
    degrees >= 1; the suites come back in input order.

    The graphs are taken one order at a time, in blocks of at most
    SUITE_BLOCK graphs, and each block is read once into one edge_table.
    From it come one stack of R(g), R(g - e) for every edge whose removal
    isolates no vertex and R of each underlying graph, solved by one
    eigvalsh call; the exact characteristic polynomials, from one
    path-counting programme and one cover-sum pass; and the entry sums.
    The residuals and bounds are row reductions over the block's
    eigenvalue array.  Each block is grouped by underlying graph once;
    connectivity, bipartiteness, r_inv and the underlying spectrum are
    computed once per underlying graph of a block, and positivity,
    antibalance and the records per graph.
    Raises ValueError on a disconnected graph or an isolated vertex.
    """
    graphs = list(graphs)
    orders: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        orders.setdefault(g.n, []).append(i)
    suites: list[TheoremSuite] = [None] * len(graphs)  # type: ignore[list-item]
    for members in orders.values():
        for start in range(0, len(members), SUITE_BLOCK):
            block = members[start:start + SUITE_BLOCK]
            block_suites = _order_suites([graphs[i] for i in block],
                                         include_interlacing)
            for i, suite in zip(block, block_suites):
                suites[i] = suite
    return suites


def run_theorem_suite(g: MixedGraph,
                      include_interlacing: bool = True) -> TheoremSuite:
    """Evaluate every checker on one connected graph with all degrees >= 1:
    the one-graph case of run_theorem_suites."""
    return run_theorem_suites([g], include_interlacing)[0]
