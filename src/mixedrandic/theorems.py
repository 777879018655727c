"""Checkers for the structural results and the inequality suite.

Every checker is a pure function of the graph.  Optional keywords
(``spectrum``, ``positive``, ``r_inv``, ``plain``) hand in per-graph facts
the caller already holds; they must be the graph's own, and
run_theorem_suite computes each of them once per graph.  Numeric
inequalities follow one convention: a claim lhs <= rhs is reported with
slack = rhs - lhs and counts as satisfied when slack >= -tol * max(1, |rhs|),
with tol = 1e-9 unless a check documents otherwise.  Membership tests (is 1
an eigenvalue, do two spectra agree) use the looser 1e-8 because they
compare independently computed floating-point spectra.

The checks named ``*_iff_*`` assert equivalences between a spectral fact and
a combinatorial certificate; ``minus_one_vs_positive_bipartite`` is the one
informational record, kept because the two criteria genuinely part ways on
some graphs (an all-arcs triangle has eigenvalue -1 without being bipartite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gains import MINUS_ONE, gain_view, is_positive, switching_certificate_to_constant
from .graphs import EdgeKind, EdgeRecord, MixedGraph, general_randic_index
from .matrices import laplacian, randic_matrices, randic_via_incidence
from .spectra import (
    DEFAULT_COMBINATORIAL_CAP,
    TOL_ZERO,
    Spectrum,
    char_poly_combinatorial,
    char_poly_numeric,
    eigendecompose_stack,
    randic_spectrum,
)

#: One-sided tolerance for inequality slack, scaled by max(1, |rhs|).
TOL_INEQ = 1e-9

#: Tolerance for eigenvalue membership and spectra comparison.
TOL_EIG = 1e-8


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


def _inequality(name: str, lhs: float, rhs: float, tol: float = TOL_INEQ,
                reason: str = "") -> CheckRecord:
    # plain float and bool: numpy scalars are not report scalars
    lhs, rhs = float(lhs), float(rhs)
    slack = rhs - lhs
    ok = slack >= -tol * max(1.0, abs(rhs))
    return CheckRecord(name, ok, lhs=lhs, rhs=rhs, slack=slack, reason=reason)


def _flag(name: str, ok: bool, reason: str = "") -> CheckRecord:
    return CheckRecord(name, ok, reason=reason)


def _skip(name: str, reason: str) -> CheckRecord:
    return CheckRecord(name, True, skipped=True, reason=reason)


def _require_connected(g: MixedGraph) -> None:
    if not g.is_connected():
        raise ValueError("graph is not connected")


def check_unit_interval(s: Spectrum, tol: float = TOL_INEQ) -> bool:
    """All eigenvalues within [-1 - tol, 1 + tol]."""
    vals = s.eigenvalues
    return bool(len(vals) == 0 or np.max(np.abs(vals)) <= 1.0 + tol)


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


def _interlacing_violations(original: Spectrum,
                            reduced: Sequence[Spectrum]) -> np.ndarray:
    """Entry [s, k]: how far eigenvalue k of the s-th edge-deleted spectrum
    lies outside [original k - 1, original k + 1] (with -1 below position 0
    and 1 above position n - 1), or 0 inside it."""
    lam = original.eigenvalues
    theta = np.array([r.eigenvalues for r in reduced]).reshape(-1, len(lam))
    bracket = np.concatenate(([-1.0], lam, [1.0]))
    return np.maximum(np.maximum(bracket[:-2] - theta, theta - bracket[2:]), 0.0)


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
    violations = _interlacing_violations(original, (reduced,))
    verdicts = tuple(x <= tol for x in violations[0].tolist())
    return InterlacingResult(edge, original, reduced, verdicts,
                             _worst(violations)[0])


@dataclass(frozen=True)
class EigenvalueOneCheck:
    has_one: bool
    multiplicity: int
    graph_positive: bool


def check_eigenvalue_one(g: MixedGraph, spectrum: Spectrum | None = None,
                         positive: bool | None = None) -> EigenvalueOneCheck:
    """Is 1 an eigenvalue, with what multiplicity, and is every cycle gain 1.

    For connected graphs the three answers are tied together: eigenvalue 1
    occurs exactly on positive graphs and is then simple.
    """
    _require_connected(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    mult = s.multiplicity(1.0, TOL_EIG)
    if positive is None:
        positive = is_positive(g)
    return EigenvalueOneCheck(mult > 0, mult, positive)


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
    vals = s.eigenvalues
    asym = float(np.max(np.abs(vals + vals[::-1]))) if len(vals) else 0.0
    return SymmetryCheck(asym <= TOL_EIG, g.is_bipartite(), asym)


@dataclass(frozen=True)
class MinusOneCheck:
    has_minus_one: bool
    positive_bipartite: bool
    antibalanced: bool


def check_minus_one(g: MixedGraph, spectrum: Spectrum | None = None,
                    positive: bool | None = None) -> MinusOneCheck:
    """Is -1 an eigenvalue, against two candidate structural certificates.

    Antibalance (switchable to the constant gain -1) is the criterion this
    package asserts; positive-and-bipartite is reported alongside because it
    agrees on fully un-oriented graphs but not on all mixed ones.
    """
    _require_connected(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    anti = switching_certificate_to_constant(gain_view(g), MINUS_ONE) is not None
    if positive is None:
        positive = is_positive(g)
    pos_bip = positive and g.is_bipartite()
    return MinusOneCheck(s.contains(-1.0, TOL_EIG), pos_bip, anti)


@dataclass(frozen=True)
class UnderlyingSpectrumCheck:
    spectra_equal: bool
    switch_equiv_allones: bool
    max_difference: float


def check_spectrum_equals_underlying(
    g: MixedGraph, spectrum: Spectrum | None = None,
    positive: bool | None = None, plain: Spectrum | None = None,
) -> UnderlyingSpectrumCheck:
    """Does the spectrum coincide with the all-un-oriented version's spectrum
    (``plain`` when given), and is the graph switching-equivalent to that
    version (every cycle gain 1)."""
    _require_connected(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    if plain is None:
        plain = randic_spectrum(g.underlying_graph())
    diff = float(np.max(np.abs(s.eigenvalues - plain.eigenvalues)))
    if positive is None:
        positive = is_positive(g)
    return UnderlyingSpectrumCheck(diff <= TOL_EIG, positive, diff)


def entry_sum(g: MixedGraph) -> float:
    """Sum of all entries of the Randic matrix (a real number).

    An un-oriented edge contributes 2/sqrt(d_u d_v); an arc contributes
    1/sqrt(d_u d_v), the two conjugate entries adding to twice the real part.
    """
    degrees = g.degrees()
    total = 0.0
    for e in g.edges:
        scale = 1.0 / math.sqrt(degrees[e.u - 1] * degrees[e.v - 1])
        total += 2.0 * scale if e.kind is EdgeKind.UNDIRECTED else scale
    return total


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

    @property
    def ordered(self) -> bool:
        return all(r.satisfied for r in self.records)


def entry_sum_bounds(g: MixedGraph,
                     spectrum: Spectrum | None = None) -> EntrySumBounds:
    if g.n < 2:
        raise ValueError("entry-sum bounds need at least two vertices")
    s = randic_spectrum(g) if spectrum is None else spectrum
    total = entry_sum(g)
    n = g.n
    lower = -total / (n * (n - 1))
    upper = total / n
    lam_min = float(s.eigenvalues[0])
    lam_max = float(s.eigenvalues[-1])
    records = (
        _inequality("entry_sum_lower", lam_min, lower),
        _inequality("entry_sum_order", lower, upper),
        _inequality("entry_sum_upper", upper, lam_max),
        _inequality("entry_sum_spread", total / (n - 1), lam_max - lam_min),
    )
    return EntrySumBounds(total, lower, upper, lam_min, lam_max, records)


def smallest_eigenvalue_bound(g: MixedGraph,
                              spectrum: Spectrum | None = None,
                              r_inv: float | None = None) -> CheckRecord:
    """lambda_min**2 is at least twice the inverse-degree-product edge sum
    r_inv divided by n(n-1)."""
    if g.n < 2:
        raise ValueError("bound needs at least two vertices")
    s = randic_spectrum(g) if spectrum is None else spectrum
    if r_inv is None:
        r_inv = float(general_randic_index(g, -1))
    bound = 2.0 * r_inv / (g.n * (g.n - 1))
    lam_min_sq = float(s.eigenvalues[0]) ** 2
    return _inequality("min_eigenvalue_square", bound, lam_min_sq)


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


def energy_bounds_report(g: MixedGraph, spectrum: Spectrum | None = None,
                         r_inv: float | None = None) -> BoundsReport:
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
    n = g.n
    if r_inv is None:
        r_inv = float(general_randic_index(g, -1))
    eps = s.energy
    rho = s.rho
    sigma = s.sigma
    k = s.negative_count
    det = s.determinant

    records = [
        _inequality(
            "energy_lower_determinant",
            math.sqrt(2.0 * r_inv + n * (n - 1) * abs(det) ** (2.0 / n)),
            eps,
        ),
        _inequality("energy_upper_moment", eps, math.sqrt(2.0 * n * r_inv)),
    ]

    if k == 0 or k == n:
        records.append(_skip(
            "energy_lower_geometric",
            f"needs eigenvalues of both signs (negative count {k} of {n})",
        ))
    elif s.is_singular:
        records.append(_skip(
            "energy_lower_geometric", "singular matrix: geometric mean is zero"
        ))
    else:
        negatives = s.eigenvalues[:k]
        ratio = det / float(np.prod(negatives))
        records.append(_inequality(
            "energy_lower_geometric",
            2.0 * (n - k) * ratio ** (1.0 / (n - k)),
            eps,
        ))

    records.append(_inequality(
        "energy_upper_exponential", eps, math.exp(math.sqrt(2.0 * r_inv))
    ))
    records.append(_inequality(
        "energy_upper_radius",
        eps,
        0.5 * (rho * (n - 2) + math.sqrt(rho * rho * (n - 2) ** 2
                                         + 16.0 * r_inv)),
    ))
    records.append(_inequality(
        "energy_lower_min_modulus",
        0.5 * (sigma * (n - 2) + math.sqrt(sigma * sigma * (n - 2) ** 2
                                           + 16.0 * r_inv)),
        eps,
    ))

    if sigma <= TOL_ZERO:
        records.append(CheckRecord(
            "energy_lower_polya_szego", True, lhs=0.0, rhs=eps, slack=eps,
            reason="minimal modulus is zero; bound degenerates to 0",
        ))
    else:
        records.append(_inequality(
            "energy_lower_polya_szego",
            math.sqrt(8.0 * n * rho * sigma * r_inv) / (rho + sigma),
            eps,
        ))

    radicand = 8.0 * n * r_inv - n * n * (rho - sigma) ** 2
    if radicand < 0.0:
        records.append(CheckRecord(
            "energy_lower_ozeki", True, skipped=True, lhs=0.0, rhs=eps,
            slack=eps, reason=f"negative radicand {radicand:.6g}; bound vacuous",
        ))
    else:
        records.append(_inequality(
            "energy_lower_ozeki", math.sqrt(radicand) / 2.0, eps
        ))

    return BoundsReport(n, g.m, r_inv, det, rho, sigma, k, eps,
                        tuple(records))


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


def _edge_label(e: EdgeRecord) -> str:
    return str(e).replace(" ", "")


def run_theorem_suite(g: MixedGraph,
                      include_interlacing: bool = True) -> TheoremSuite:
    """Evaluate every checker on one connected graph with all degrees >= 1.

    The per-graph facts (matrix, spectrum, positivity, r_inv and the exact
    characteristic polynomial) are computed here once and handed to the
    checkers.  The spectra of the graph, of its underlying graph and of
    every edge deletion that interlacing checks come from one stacked solve.
    """
    _require_connected(g)
    degrees = g.degrees()
    if min(degrees) == 0:
        raise ValueError("isolated vertex: the normalized matrix is undefined")

    # one solve for R(g), R(g - e) for every edge whose removal isolates no
    # vertex, and R of the underlying graph
    removable = [e for e in g.edges if include_interlacing
                 and degrees[e.u - 1] > 1 and degrees[e.v - 1] > 1]
    stack = np.concatenate((randic_matrices(g, removable),
                            randic_matrices(g.underlying_graph())))
    s, *reduced, plain = eigendecompose_stack(stack)
    mat = stack[0]
    vals = s.eigenvalues
    positive = is_positive(g)
    r_inv = float(general_randic_index(g, -1))
    records: list[CheckRecord] = []

    records.append(_inequality(
        "unit_interval", float(np.max(np.abs(vals))), 1.0
    ))
    records.append(_inequality("trace_zero", abs(float(np.sum(vals))), 0.0))
    records.append(_inequality(
        "second_moment", abs(float(np.sum(vals ** 2)) - 2.0 * r_inv), 0.0
    ))
    records.append(_inequality(
        "incidence_factorization",
        float(np.max(np.abs(mat - randic_via_incidence(g)))),
        0.0,
        tol=1e-12,
    ))

    scale = 1.0 / np.sqrt(np.array(degrees, dtype=float))
    triple = scale[:, np.newaxis] * laplacian(g) * scale[np.newaxis, :]
    records.append(_inequality(
        "laplacian_complement",
        float(np.max(np.abs(np.eye(g.n) - triple - mat))),
        0.0,
        tol=1e-14,
    ))

    if g.n <= DEFAULT_COMBINATORIAL_CAP:
        exact = char_poly_combinatorial(g)
        records.append(_inequality(
            "charpoly_agreement",
            exact.max_difference(char_poly_numeric(mat, s)),
            0.0,
            tol=TOL_EIG,
        ))
        det_exact = (-1) ** g.n * exact.coefficients[-1]
        records.append(_inequality(
            "determinant_identity", abs(float(det_exact) - s.determinant), 0.0
        ))
    else:
        reason = f"n = {g.n} above cap {DEFAULT_COMBINATORIAL_CAP}"
        records.append(_skip("charpoly_agreement", reason))
        records.append(_skip("determinant_identity", reason))

    if include_interlacing:
        worst = iter(_worst(_interlacing_violations(s, reduced)))
        for e in g.edges:
            name = f"interlacing:{_edge_label(e)}"
            if degrees[e.u - 1] == 1 or degrees[e.v - 1] == 1:
                records.append(_skip(name, "removal isolates a vertex"))
                continue
            records.append(_inequality(name, next(worst), 0.0))

    one = check_eigenvalue_one(g, s, positive)
    one_ok = (not one.has_one) or (one.graph_positive and one.multiplicity == 1)
    records.append(_flag(
        "one_implies_positive_simple",
        one_ok,
        reason="" if one_ok else
               f"has_one={one.has_one} positive={one.graph_positive} "
               f"multiplicity={one.multiplicity}",
    ))
    records.append(_flag(
        "positive_implies_one",
        (not one.graph_positive) or one.has_one,
    ))

    sym = check_spectral_symmetry(g, s)
    records.append(_flag(
        "bipartite_iff_symmetric",
        sym.bipartite == sym.symmetric,
        reason="" if sym.bipartite == sym.symmetric else
               f"bipartite={sym.bipartite} symmetric={sym.symmetric} "
               f"max_asymmetry={sym.max_asymmetry:.3e}",
    ))

    minus = check_minus_one(g, s, positive)
    records.append(_flag(
        "minus_one_iff_antibalanced",
        minus.has_minus_one == minus.antibalanced,
        reason="" if minus.has_minus_one == minus.antibalanced else
               f"has_minus_one={minus.has_minus_one} "
               f"antibalanced={minus.antibalanced}",
    ))
    records.append(_flag(
        "minus_one_vs_positive_bipartite",
        True,
        reason="" if minus.has_minus_one == minus.positive_bipartite else
               f"divergence: has_minus_one={minus.has_minus_one} "
               f"positive_bipartite={minus.positive_bipartite}",
    ))

    under = check_spectrum_equals_underlying(g, s, positive, plain=plain)
    records.append(_flag(
        "underlying_spectrum_iff_all_ones",
        under.spectra_equal == under.switch_equiv_allones,
        reason="" if under.spectra_equal == under.switch_equiv_allones else
               f"spectra_equal={under.spectra_equal} "
               f"switch_equiv_allones={under.switch_equiv_allones}",
    ))

    if one.graph_positive and sym.bipartite:
        records.append(_flag(
            "bipartite_positive_unit_eigenvalues",
            one.has_one and minus.has_minus_one,
        ))
    else:
        records.append(_skip(
            "bipartite_positive_unit_eigenvalues",
            "not a positive bipartite graph",
        ))

    records.extend(entry_sum_bounds(g, s).records)
    records.append(smallest_eigenvalue_bound(g, s, r_inv))
    records.extend(energy_bounds_report(g, s, r_inv).records)

    return TheoremSuite(g, s, tuple(records))
