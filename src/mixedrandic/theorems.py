"""Checkers for the structural results and the inequality suite.

Every checker is a pure function of the graph.  Optional keywords
(``spectrum``, ``r_inv``) hand in per-graph facts the caller already holds;
they must be the graph's own.  Numeric inequalities follow one convention: a
claim lhs <= rhs is reported with slack = rhs - lhs and counts as satisfied
when slack >= -tol * max(1, |rhs|), with tol = TOL_INEQ = 1e-9 unless a
check documents otherwise.  Membership tests (is 1 an eigenvalue, do two
spectra agree) use the looser ``TOL_EIG`` = 1e-8, which lives in
``spectra`` beside ``TOL_ZERO``, because they compare independently
computed floating-point spectra.

The bounds are evaluated on a population of one order at a time, as
arrays over its graphs; the one-graph functions (``entry_sum_bounds``,
``energy_bounds_report``, ...) are the population of one, and the suite
builds the ``check_*`` results from the same per-graph facts, so every
formula and every tolerance comparison exists once.  ``run_theorem_suites``
runs the whole suite that way and ``run_theorem_suite`` is its one-graph
case.  The structural verdicts of a block (connected, bipartite, positive,
antibalanced) come from one traversal of its edge rows, ``gains.balances``;
the ``check_*`` functions take them from its one-graph case,
``graph_balance``.  A matrix is keyed by its vertex pairs' states, the
same for a matrix and its conjugate (every arc reversed), and one call
solves each key once per order and counts each graph key's exact
numerators once.  A block is one edge table,
from graphs (``edge_table``) or from a campaign's pair-state rows
(``matrices._state_table``), and both take one path, ``_order_block``.

A block's results are columns, one per check: its name or names, float64
lhs, rhs and slack arrays and an ok array, with the rows that need fields
of their own (the skips, the flags with a reason, the degenerate bounds)
beside them as tuples.  No ``CheckRecord`` is made until one is read.  A
suite is one row of its block and makes its records and spectrum anew on
each read; the campaign counts and renders straight from the columns.  The
one-graph functions return the records of their population of one.

The checks named ``*_iff_*`` assert equivalences between a spectral fact and
a combinatorial certificate; ``minus_one_vs_positive_bipartite`` is the one
informational record, kept because the two criteria genuinely part ways on
some graphs (an all-arcs triangle has eigenvalue -1 without being bipartite).
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .enumeration import elementary_weight_numerator_rows
from .gains import Balance, balances, graph_balance
from .graphs import (
    MixedGraph,
    _Record,
    general_randic_index,
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
    TOL_EIG,
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

#: The work of one stacked build and solve: an order-n block holds at most
#: SUITE_BLOCK // n**4 graphs, each with up to n**2 / 2 deletion slices of
#: n**2 entries, so a campaign's peak memory does not grow with its size.
SUITE_BLOCK = 1 << 18


def _block_size(n: int) -> int:
    """The most graphs of order n in one block (1,024 at n = 4)."""
    return max(1, SUITE_BLOCK // n ** 4)


class CheckRecord(_Record):
    """Outcome of a single named check.

    lhs, rhs and slack are None for purely structural checks; reason carries
    skip explanations and informational notes.
    """

    __slots__ = _fields = ("name", "satisfied", "skipped", "lhs", "rhs",
                           "slack", "reason")
    _defaults = dict(skipped=False, lhs=None, rhs=None, slack=None, reason="")


class _Column(NamedTuple):
    """One check on the rows of a block: row g is graph g's, or with
    ``bounds`` graph g has rows bounds[g]:bounds[g + 1].

    ``name`` is one name for every row or a list with one per row; the
    names of a column with numbers share the part before any ':', as the
    interlacing column's ``interlacing:<edge>`` names do.  lhs,
    rhs and slack are float64 arrays over the rows, rhs may be one float
    for every row, and all three are None for a check without numbers;
    ok is a bool array.  A row in ``own`` has its own fields, (satisfied,
    skipped, lhs, rhs, slack, reason), in place of the arrays' entries:
    the skips, the flags with a reason and the degenerate bounds.  Skip
    fields are one shared tuple per reason.
    """

    name: str | list[str]
    lhs: np.ndarray | None
    rhs: np.ndarray | float | None
    slack: np.ndarray | None
    ok: np.ndarray
    own: dict[int, tuple]
    bounds: list[int] | None = None

    def span(self, first: int, stop: int) -> tuple[int, int]:
        """The rows of graphs first:stop."""
        if self.bounds is None:
            return first, stop
        return self.bounds[first], self.bounds[stop]

    def records(self, lo: int, hi: int) -> list[CheckRecord]:
        """Rows lo:hi as records of plain floats and bools."""
        names = self.name
        names = repeat(names) if isinstance(names, str) else names[lo:hi]
        if self.lhs is None:
            lhs = rhs = slack = repeat(None)
        else:
            lhs = self.lhs[lo:hi].tolist()
            rhs = self.rhs
            rhs = repeat(rhs) if isinstance(rhs, float) else rhs[lo:hi].tolist()
            slack = self.slack[lo:hi].tolist()
        own = self.own
        # a row not in own is not skipped and has no reason: by position,
        # CheckRecord's defaults of those fields
        defaults = CheckRecord._defaults
        skipped, reason = defaults["skipped"], defaults["reason"]
        return [CheckRecord(name, *own[row]) if row in own else
                CheckRecord(name, ok, skipped, a, b, c, reason)
                for row, name, a, b, c, ok in zip(
                    range(lo, hi), names, lhs, rhs, slack,
                    self.ok[lo:hi].tolist())]


def _inequality(name: str | list[str], lhs, rhs, tol: float = TOL_INEQ,
                bounds: list[int] | None = None) -> _Column:
    """The claim lhs <= rhs on each row, named by ``name``.  lhs and rhs
    are arrays or lists of floats with one entry per row; rhs may be one
    float for every row."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = float(rhs) if isinstance(rhs, float) else np.asarray(rhs, dtype=float)
    slack = rhs - lhs
    ok = slack >= -tol * np.maximum(1.0, np.abs(rhs))
    return _Column(name, lhs, rhs, slack, ok, {}, bounds)


def _flags(name: str, ok: np.ndarray, reasons: dict[int, str]) -> _Column:
    """A check without numbers: ok per row, and a reason for some rows."""
    return _Column(name, None, None, None, ok, {
        i: (bool(ok[i]), False, None, None, None, reason)
        for i, reason in reasons.items()})


@functools.cache
def _skip(reason: str) -> tuple:
    """The fields of a skipped row, one tuple per reason."""
    return (True, True, None, None, None, reason)


def _skipped(name: str, rows: int, reason: str) -> _Column:
    return _Column(name, None, None, None, np.ones(rows, dtype=bool),
                   dict.fromkeys(range(rows), _skip(reason)))


def _connected_balance(g: MixedGraph) -> Balance:
    """graph_balance(g), or ValueError if g is not connected."""
    balance = graph_balance(g)
    if not balance.connected[0]:
        raise ValueError("graph is not connected")
    return balance


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


class InterlacingResult(_Record):
    """Spectra of a graph and of the graph minus one edge, with the
    per-position verdicts of the deleted spectrum being bracketed by the
    original one (positions 1..n against neighbours k-1 and k+1, where
    position 0 counts as -1 and position n+1 as 1).  Results compare and
    hash by identity, as their spectra do."""

    __slots__ = _fields = ("edge", "original", "reduced", "verdicts",
                           "worst_violation")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

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


def _worst(violations: np.ndarray) -> np.ndarray:
    """Per row, the largest violation (0.0, not -0.0 or nan, when nothing
    is violated)."""
    worst = violations.max(axis=-1)
    return np.where(worst > 0.0, worst, 0.0)


def interlacing_check(g: MixedGraph, pair: tuple[int, int]) -> InterlacingResult:
    """Bracketing of the edge-deleted spectrum by the original spectrum: a
    position holds when it lies at most TOL_INEQ outside its bracket."""
    edge = g.edge_between(*pair)
    if edge is None:
        raise ValueError(f"no edge between {pair[0]} and {pair[1]}")
    original, reduced = eigendecompose_stack(randic_matrices(g, (edge,)))
    violations = _interlacing_violations(original.eigenvalues[np.newaxis],
                                         reduced.eigenvalues[np.newaxis])
    verdicts = tuple(x <= TOL_INEQ for x in violations[0].tolist())
    return InterlacingResult(edge, original, reduced, verdicts,
                             float(_worst(violations)[0]))


class EigenvalueOneCheck(_Record):
    __slots__ = _fields = ("has_one", "multiplicity", "graph_positive")


def check_eigenvalue_one(g: MixedGraph,
                         spectrum: Spectrum | None = None) -> EigenvalueOneCheck:
    """Is 1 an eigenvalue, with what multiplicity, and is every cycle gain 1.

    For connected graphs the three answers are tied together: eigenvalue 1
    occurs exactly on positive graphs and is then simple.
    """
    balance = _connected_balance(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    return _eigenvalue_one(s.multiplicity(1.0),
                           bool(balance.positive[0]))


def _eigenvalue_one(multiplicity: int, positive: bool) -> EigenvalueOneCheck:
    return EigenvalueOneCheck(multiplicity > 0, multiplicity, positive)


class SymmetryCheck(_Record):
    __slots__ = _fields = ("symmetric", "bipartite", "max_asymmetry")


def check_spectral_symmetry(g: MixedGraph,
                            spectrum: Spectrum | None = None) -> SymmetryCheck:
    """Is the spectrum symmetric about 0, and is the underlying graph bipartite."""
    balance = _connected_balance(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    return _symmetry(float(_asymmetry(s.eigenvalues)),
                     bool(balance.bipartite[0]))


def _symmetry(max_asymmetry: float, bipartite: bool) -> SymmetryCheck:
    return SymmetryCheck(max_asymmetry <= TOL_EIG, bipartite, max_asymmetry)


class MinusOneCheck(_Record):
    __slots__ = _fields = ("has_minus_one", "positive_bipartite", "antibalanced")


def check_minus_one(g: MixedGraph,
                    spectrum: Spectrum | None = None) -> MinusOneCheck:
    """Is -1 an eigenvalue, against two candidate structural certificates.

    Antibalance (switchable to the constant gain -1) is the criterion this
    package asserts; positive-and-bipartite is reported alongside because it
    agrees on fully un-oriented graphs but not on all mixed ones.
    """
    balance = _connected_balance(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    return _minus_one(s.multiplicity(-1.0),
                      bool(balance.positive[0]), bool(balance.antibalanced[0]),
                      bool(balance.bipartite[0]))


def _minus_one(multiplicity: int, positive: bool, antibalanced: bool,
               bipartite: bool) -> MinusOneCheck:
    return MinusOneCheck(multiplicity > 0, positive & bipartite, antibalanced)


class UnderlyingSpectrumCheck(_Record):
    __slots__ = _fields = ("spectra_equal", "switch_equiv_allones",
                           "max_difference")


def check_spectrum_equals_underlying(
    g: MixedGraph, spectrum: Spectrum | None = None,
) -> UnderlyingSpectrumCheck:
    """Does the spectrum coincide with the all-un-oriented version's
    spectrum, and is the graph switching-equivalent to that version (every
    cycle gain 1)."""
    balance = _connected_balance(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    plain = randic_spectrum(g.underlying_graph())
    return _underlying(float(_distance(s.eigenvalues, plain.eigenvalues)),
                       bool(balance.positive[0]))


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


class EntrySumBounds(_Record):
    """Pinching of the extreme eigenvalues by the matrix entry sum S:
    lambda_min <= -S/(n(n-1)) <= S/n <= lambda_max, plus the induced spread
    bound lambda_max - lambda_min >= S/(n-1).  Each record carries its two
    sides as lhs and rhs."""

    __slots__ = _fields = ("records",)


def _entry_sum_columns(n: int, total: np.ndarray,
                       vals: np.ndarray) -> list[_Column]:
    """The entry-sum checks of a population of order n: entry sums (G,)
    and sorted eigenvalues (G, n)."""
    lam_min = vals[:, 0]
    lam_max = vals[:, -1]
    lower = -total / (n * (n - 1))
    upper = total / n
    return [
        _inequality("entry_sum_lower", lam_min, lower),
        _inequality("entry_sum_order", lower, upper),
        _inequality("entry_sum_upper", upper, lam_max),
        _inequality("entry_sum_spread", total / (n - 1), lam_max - lam_min),
    ]


def entry_sum_bounds(g: MixedGraph,
                     spectrum: Spectrum | None = None) -> EntrySumBounds:
    if g.n < 2:
        raise ValueError("entry-sum bounds need at least two vertices")
    s = randic_spectrum(g) if spectrum is None else spectrum
    columns = _entry_sum_columns(g.n, entry_sums(*edge_table([g])),
                                 s.eigenvalues[np.newaxis])
    return EntrySumBounds(_Block(None, columns).records(0))


def _smallest_eigenvalue_column(n: int, r_inv: np.ndarray,
                                vals: np.ndarray) -> _Column:
    """smallest_eigenvalue_bound for a population of order n: r_inv (G,)
    and sorted eigenvalues (G, n)."""
    bound = 2.0 * r_inv / (n * (n - 1))
    # Python's float power: numpy's rounds differently
    squares = [x ** 2 for x in vals[:, 0].tolist()]
    return _inequality("min_eigenvalue_square", bound, squares)


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
    return _smallest_eigenvalue_column(g.n, np.array([r_inv]),
                                       s.eigenvalues[np.newaxis]).records(0, 1)[0]


class BoundsReport(_Record):
    """The energy inequalities for one graph, plus the scalars they consume."""

    __slots__ = _fields = ("n", "m", "randic_inverse", "determinant", "rho",
                           "sigma", "negative_count", "energy", "records")

    def record(self, name: str) -> CheckRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)


def _energy_columns(n: int, r_inv: np.ndarray,
                    vals: np.ndarray) -> list[_Column]:
    """The energy checks of a population of order n, with r_inv (G,) and
    sorted eigenvalues (G, n).

    |det|**(2/n), ratio**(1/(n-k)), the exponential and squares stay Python
    float arithmetic: numpy's power and exp round differently.
    """
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
    geometric = _inequality("energy_lower_geometric", 2.0 * (n - k) * roots, eps)
    for i in np.flatnonzero(~mixed).tolist():
        kk = int(k[i])
        geometric.own[i] = _skip(
            f"needs eigenvalues of both signs (negative count {kk} of {n})"
            if kk == 0 or kk == n else "singular matrix: geometric mean is zero")

    with np.errstate(all="ignore"):
        polya_lhs = np.sqrt(8.0 * n * rho * sigma * r_inv) / (rho + sigma)
    polya = _inequality("energy_lower_polya_szego", polya_lhs, eps)
    for i in np.flatnonzero(singular).tolist():
        polya.own[i] = (True, False, 0.0, eps_list[i], eps_list[i],
                        "minimal modulus is zero; bound degenerates to 0")

    spread = np.array([x ** 2 for x in (rho - sigma).tolist()])
    radicand = 8.0 * n * r_inv - n * n * spread
    ozeki = _inequality("energy_lower_ozeki",
                        np.sqrt(np.maximum(radicand, 0.0)) / 2.0, eps)
    for i in np.flatnonzero(radicand < 0.0).tolist():
        ozeki.own[i] = (True, True, 0.0, eps_list[i], eps_list[i],
                        f"negative radicand {radicand[i]:.6g}; bound vacuous")

    return [
        _inequality("energy_lower_determinant",
                    np.sqrt(2.0 * r_inv + n * (n - 1) * det_root), eps),
        _inequality("energy_upper_moment", eps, np.sqrt(2.0 * n * r_inv)),
        geometric,
        _inequality("energy_upper_exponential", eps,
                    [math.exp(x) for x in np.sqrt(2.0 * r_inv).tolist()]),
        _inequality(
            "energy_upper_radius", eps,
            0.5 * (rho * (n - 2) + np.sqrt(rho * rho * (n - 2) ** 2
                                           + 16.0 * r_inv)),
        ),
        _inequality(
            "energy_lower_min_modulus",
            0.5 * (sigma * (n - 2) + np.sqrt(sigma * sigma * (n - 2) ** 2
                                             + 16.0 * r_inv)),
            eps,
        ),
        polya,
        ozeki,
    ]


def require_energy_domain(g: MixedGraph) -> None:
    """Raise ValueError unless the energy bounds apply to g: a connected
    graph on at least two vertices."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if g.n < 2:
        raise ValueError("energy bounds need at least two vertices")


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
    require_energy_domain(g)
    s = randic_spectrum(g) if spectrum is None else spectrum
    vals = s.eigenvalues[np.newaxis]
    r_inv = randic_inverse(g)
    columns = _energy_columns(g.n, np.array([r_inv]), vals)
    return BoundsReport(
        g.n, g.m, r_inv, float(determinants(vals)[0]),
        float(spectral_radii(vals)[0]), float(min_moduli(vals)[0]),
        int(negative_counts(vals)[0]), float(energies(vals)[0]),
        _Block(None, columns).records(0))


class _Block(NamedTuple):
    """The suite on a block of graphs of one order: their sorted
    eigenvalue rows, and every check as a column, in report order."""

    eigenvalues: np.ndarray | None
    columns: list[_Column]

    def records(self, g: int) -> tuple[CheckRecord, ...]:
        """Graph g's records, made anew."""
        return tuple(rec for column in self.columns
                     for rec in column.records(*column.span(g, g + 1)))


class TheoremSuite:
    """All per-graph verdicts, in a fixed order for stable reports: row
    ``row`` of a suite block, whose spectrum and records are made anew on
    each read and not kept.  The campaign reads the block's columns
    directly."""

    __slots__ = ("block", "row")

    def __init__(self, block: _Block, row: int) -> None:
        self.block, self.row = block, row

    @property
    def spectrum(self) -> Spectrum:
        return Spectrum.from_sorted(self.block.eigenvalues[self.row])

    @property
    def records(self) -> tuple[CheckRecord, ...]:
        return self.block.records(self.row)

    @property
    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records
                     if not r.skipped and not r.satisfied)


def _structural_columns(one: EigenvalueOneCheck, sym: SymmetryCheck,
                        minus: MinusOneCheck,
                        under: UnderlyingSpectrumCheck) -> list[_Column]:
    """The biconditional checks of a population, from its check results:
    their fields are arrays over its graphs, or one graph's values."""
    has_one, multiplicity, positive = map(
        np.atleast_1d, (one.has_one, one.multiplicity, one.graph_positive))
    symmetric, bipartite, asymmetry = map(
        np.atleast_1d, (sym.symmetric, sym.bipartite, sym.max_asymmetry))
    has_minus_one, positive_bipartite, antibalanced = map(
        np.atleast_1d,
        (minus.has_minus_one, minus.positive_bipartite, minus.antibalanced))
    spectra_equal, all_ones = map(
        np.atleast_1d, (under.spectra_equal, under.switch_equiv_allones))

    def rows(mask: np.ndarray) -> list[int]:
        return mask.nonzero()[0].tolist()

    one_ok = ~has_one | (positive & (multiplicity == 1))
    return [
        _flags("one_implies_positive_simple", one_ok, {
            i: f"has_one={has_one[i]} positive={positive[i]} "
               f"multiplicity={multiplicity[i]}" for i in rows(~one_ok)}),
        _flags("positive_implies_one", ~positive | has_one, {}),
        _flags("bipartite_iff_symmetric", bipartite == symmetric, {
            i: f"bipartite={bipartite[i]} symmetric={symmetric[i]} "
               f"max_asymmetry={float(asymmetry[i]):.3e}"
            for i in rows(bipartite != symmetric)}),
        _flags("minus_one_iff_antibalanced", has_minus_one == antibalanced, {
            i: f"has_minus_one={has_minus_one[i]} "
               f"antibalanced={antibalanced[i]}"
            for i in rows(has_minus_one != antibalanced)}),
        _flags("minus_one_vs_positive_bipartite",
               np.ones(len(has_one), dtype=bool), {
            i: f"divergence: has_minus_one={has_minus_one[i]} "
               f"positive_bipartite={positive_bipartite[i]}"
            for i in rows(has_minus_one != positive_bipartite)}),
        _flags("underlying_spectrum_iff_all_ones", spectra_equal == all_ones, {
            i: f"spectra_equal={spectra_equal[i]} "
               f"switch_equiv_allones={all_ones[i]}"
            for i in rows(spectra_equal != all_ones)}),
        _Column("bipartite_positive_unit_eigenvalues", None, None, None,
                has_one & has_minus_one,
                dict.fromkeys(rows(~(positive & bipartite)),
                              _skip("not a positive bipartite graph"))),
    ]


@functools.cache
def _pair_codes(n: int) -> tuple[np.ndarray, np.ndarray, np.dtype]:
    """Per vertex pair of order n, the int64 word of a pair-state key that
    holds its state and its unit 4**k there ((n, n) tables: 31 pairs to a
    word), and the dtype of a key as one scalar (raw bytes above one word)."""
    a, b = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.int64)
    pair[a, b] = pair[b, a] = np.arange(len(a))
    key = "i8" if len(a) <= 31 else f"V{8 * -(-len(a) // 31)}"
    return pair // 31, 4 ** (pair % 31), np.dtype(key)


@functools.cache
def _interlacing_names(n: int) -> np.ndarray:
    """The interlacing record names of order n, as an object array indexed
    by an edge-table row's (u * n + v) * 2 + arc."""
    return np.array([f"interlacing:{u}{kind}{v}" for u in range(1, n + 1)
                     for v in range(1, n + 1) for kind in ("--", "->")],
                    dtype=object)


def _inverse_degree_sums(degrees: np.ndarray,
                         edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """r_inv of each graph of an edge_table (each with an edge), bit for bit
    randic_inverse: its integer sum of shares L / (d_u d_v), L the lcm of
    the products, at most m L, over L.  Exact float64 below 2**53, so the
    one division is correctly rounded; from there on Python ints."""
    owner, u, v, _ = edges
    products, product_of = np.unique(degrees[owner, u] * degrees[owner, v],
                                     return_inverse=True)
    common = math.lcm(*products.tolist())
    exact = common * int(np.bincount(owner).max()) < 2 ** 53
    shares = np.array([common // p for p in products.tolist()],
                      dtype=np.int64 if exact else object)[product_of]
    return (np.add.reduceat(shares, np.searchsorted(
        owner, np.arange(len(degrees)))) / common).astype(float)


def _find(known: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per key of the sorted distinct ``keys``, its place in the sorted
    memo keys ``known`` and whether it is there."""
    at = np.searchsorted(known, keys)
    hit = at < len(known)
    hit[hit] = known[at[hit]] == keys[hit]
    return at, hit


def _table_graphs(degrees: np.ndarray, edges: tuple[np.ndarray, ...],
                  graphs: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The edge_table of the sorted graph indices ``graphs`` of a table."""
    owner = edges[0]
    member = np.zeros(len(degrees), dtype=bool)
    member[graphs] = True
    rows = member[owner]
    return degrees[graphs], (np.searchsorted(graphs, owner[rows]),
                             *(column[rows] for column in edges[1:]))


def _order_block(degrees: np.ndarray, edges: tuple[np.ndarray, ...],
                 solved: dict[int, tuple[np.ndarray, ...]]) -> _Block:
    """The suite on graphs of one order given as one edge_table, each
    connected with every degree >= 1 (else ValueError): one balance
    traversal, one stacked build, the solves and exact charpoly numerators
    of the keys not met before, the residuals and bounds as array
    reductions over the graphs, and r_inv of every graph over one common
    denominator.

    A matrix is keyed by its pair states (0 absent, 1 un-oriented, 2 or 3
    an arc from the smaller or the larger end), which fix its entries
    1/sqrt(d_a d_b) times a gain.  Reversing every arc swaps states 2 and
    3 and conjugates the matrix, which keeps its eigenvalues and its
    charpoly, so a matrix and its twin share the smaller of their two keys
    (compared at their first differing word).  ``solved[n]`` holds the
    sorted keys solved before at order n and their rows, and the sorted
    keys of the graphs met before and their numerator rows; the block
    sorts only its own keys and merges the new ones in by np.searchsorted.
    The stack holds R(g) of every graph, for the residuals, and R of each
    new underlying graph and of each new g - e; only the matrices under a
    new key are solved, and only the graphs under a new key counted."""
    count, n = degrees.shape
    owner, u, v, arc = edges
    balance = balances(count, n, owner, u, v, arc)
    if not balance.connected.all():
        raise ValueError("graph is not connected")
    if not degrees.all():
        raise ValueError("isolated vertex: the normalized matrix is undefined")
    removable = (degrees[owner, u] > 1) & (degrees[owner, v] > 1)
    cuts = np.flatnonzero(removable)
    # the keys of R(g), of R of g's underlying graph and of R(g - e) for
    # each edge whose removal isolates no vertex, and of their twins: row
    # codes summed by graph
    word, unit, dtype = _pair_codes(n)
    word, unit = word[u, v], unit[u, v]
    code = unit * (1 + arc + (arc & (u > v)))
    # reversing an arc swaps states 2 and 3: what that adds to its code
    turn = np.where(u < v, unit, -unit) * arc
    starts = np.searchsorted(owner, np.arange(count + 1))
    keys = np.zeros((2, 2 * count + len(cuts), dtype.itemsize // 8),
                    dtype=np.int64)
    for w in range(keys.shape[2]):
        here = word == w
        keys[0, :count, w] = np.add.reduceat(code * here, starts[:-1])
        keys[0, count:2 * count, w] = np.add.reduceat(unit * here, starts[:-1])
        keys[1, :count, w] = np.add.reduceat(turn * here, starts[:-1])
    keys[:, 2 * count:] = keys[:, owner[cuts]]
    keys[:, 2 * count + np.arange(len(cuts)), word[cuts]] -= (code[cuts],
                                                              turn[cuts])
    # the twin's key is keys + turns: take it where it is the smaller, at
    # the first word where the two differ
    keys, turns = keys
    turns *= turns[np.arange(len(turns)),
                   (turns != 0).argmax(axis=1)][:, np.newaxis] < 0
    keys += turns
    empty = np.empty(0, dtype)
    known, known_rows, counted, counted_rows = solved.get(n) or (
        empty, np.empty((0, n)), empty, np.empty((0, n + 1), dtype=np.int64))
    distinct, first, inverse = np.unique(keys.view(dtype)[:, 0],
                                         return_index=True, return_inverse=True)
    at, hit = _find(known, distinct)
    miss = ~hit
    numerators = None
    if n <= DEFAULT_COMBINATORIAL_CAP:
        # each graph key's numerator row: the memo's, else its first
        # graph's, counted on a table of the new keys' first graphs; the
        # graphs come first among the keys, so a graph key is one whose
        # first matrix is a graph
        own = np.flatnonzero(first < count)
        at_own, had = _find(counted, distinct[own])
        key_numerators = np.empty((len(distinct), n + 1), dtype=np.int64)
        key_numerators[own[had]] = counted_rows[at_own[had]]
        new_own = own[~had]
        if len(new_own):
            firsts = np.sort(first[new_own])
            key_numerators[inverse[firsts]] = elementary_weight_numerator_rows(
                *_table_graphs(degrees, edges, firsts))
        counted = np.insert(counted, at_own[~had], distinct[new_own])
        counted_rows = np.insert(counted_rows, at_own[~had],
                                 key_numerators[new_own], axis=0)
        numerators = key_numerators[inverse[:count]]
    # each new key's first matrix: a graph, an underlying graph or a cut
    new = np.sort(first[miss])
    mine, rest = new[new < count], new[new >= count] - count
    fresh, new_cuts = rest[rest < count], cuts[rest[rest >= count] - count]
    # the k-th new underlying graph is its graph's rows un-oriented,
    # smaller end first, as graph count + k
    plain = np.zeros(count, dtype=bool)
    plain[fresh] = True
    plain = plain[owner]
    stacked = (np.concatenate((degrees, degrees[fresh])), (
        np.concatenate((owner, count + np.searchsorted(fresh, owner[plain]))),
        np.concatenate((u, np.minimum(u, v)[plain])),
        np.concatenate((v, np.maximum(u, v)[plain])),
        np.concatenate((arc, np.zeros(plain.sum(), dtype=bool)))))
    graph_of = np.concatenate((np.arange(count + len(fresh)), owner[new_cuts]))
    cut_of = np.concatenate((np.full(count + len(fresh), -1), new_cuts))
    stack = randic_stack(*stacked, graph_of, cut_of)
    # the solve is a block's peak of memory, which the table need not raise
    del stacked, graph_of, cut_of
    mats = stack[:count]
    # each key's row: the memo's, else its first matrix's solve (row k is
    # new[k]'s)
    key_rows = np.empty((len(distinct), n))
    key_rows[hit] = known_rows[at[hit]]
    key_rows[miss] = np.concatenate((
        eigenvalue_rows(mats[mine]), eigenvalue_rows(stack[count:]))
    )[np.searchsorted(new, first[miss])]
    vals = key_rows[inverse[:count]]
    solved[n] = (np.insert(known, at[miss], distinct[miss]),
                 np.insert(known_rows, at[miss], key_rows[miss], axis=0),
                 counted, counted_rows)
    group, deletions = inverse[count:2 * count], key_rows[inverse[2 * count:]]
    r_inv = _inverse_degree_sums(degrees, edges)

    columns = [
        _inequality("unit_interval", spectral_radii(vals), 1.0),
        _inequality("trace_zero", np.abs(vals.sum(axis=-1)), 0.0),
        _inequality("second_moment",
                    np.abs((vals ** 2).sum(axis=-1) - 2.0 * r_inv), 0.0),
        _inequality("incidence_factorization",
                    _largest_entries(mats - randic_via_incidences(degrees, edges)),
                    0.0, tol=1e-12),
    ]
    scale = 1.0 / np.sqrt(degrees)
    triple = (scale[:, :, np.newaxis] * laplacians(degrees, edges)
              * scale[:, np.newaxis, :])
    columns.append(_inequality("laplacian_complement",
                               _largest_entries(np.eye(n) - triple - mats),
                               0.0, tol=1e-14))
    if numerators is not None:
        # a_k = (-1)**k * numerator_k / prod d_i.  Every numerator and the
        # denominator are below 2**53 at n <= 10 (see
        # elementary_weight_numerator_rows), so each is exact in float64 and
        # the one division is rounded as float(Fraction(numerator, prod d_i))
        numerators[:, 1::2] *= -1
        exact = numerators / np.prod(degrees, axis=1, keepdims=True)
        columns.append(_inequality("charpoly_agreement",
                                   _distance(exact, expand_roots(vals)),
                                   0.0, tol=TOL_EIG))
        columns.append(_inequality(
            "determinant_identity",
            np.abs((-1) ** n * exact[:, -1] - determinants(vals)), 0.0))
    else:
        reason = f"n = {n} above cap {DEFAULT_COMBINATORIAL_CAP}"
        columns.append(_skipped("charpoly_agreement", count, reason))
        columns.append(_skipped("determinant_identity", count, reason))

    # one row per edge, graph by graph; the rows of edges whose removal
    # isolates a vertex are skips
    worst = np.zeros(len(owner))
    worst[cuts] = _worst(_interlacing_violations(vals[owner[cuts]], deletions))
    interlacing = _inequality(
        _interlacing_names(n)[(u * n + v) * 2 + arc].tolist(), worst, 0.0,
        bounds=starts.tolist())
    interlacing.own.update(dict.fromkeys(
        np.flatnonzero(~removable).tolist(),
        _skip("removal isolates a vertex")))
    columns.append(interlacing)

    positive = balance.positive
    columns += _structural_columns(
        _eigenvalue_one(multiplicities(vals, 1.0), positive),
        _symmetry(_asymmetry(vals), balance.bipartite),
        _minus_one(multiplicities(vals, -1.0), positive,
                   balance.antibalanced, balance.bipartite),
        _underlying(_distance(vals, key_rows[group]), positive))
    columns += _entry_sum_columns(n, entry_sums(degrees, edges), vals)
    columns.append(_smallest_eigenvalue_column(n, r_inv, vals))
    columns += _energy_columns(n, r_inv, vals)
    vals.flags.writeable = False
    return _Block(vals, columns)


def _suite_blocks(n: int, count: int, table: Callable[[int, int], tuple]
                  ) -> Iterator[tuple[slice, _Block]]:
    """The suite on count graphs of order n, a block of _block_size(n) at
    a time, as (the slice of the block's graphs, block): table(start,
    stop) is the edge_table of graphs start:stop, and one memo of solved
    keys and counted graph keys serves every block."""
    size, solved = _block_size(n), {}
    for start in range(0, count, size):
        rows = slice(start, min(start + size, count))
        yield rows, _order_block(*table(rows.start, rows.stop), solved)


def run_theorem_suites(graphs: Iterable[MixedGraph]) -> list[TheoremSuite]:
    """Evaluate every checker on each graph, each connected with all
    degrees >= 1; the suites come back in input order.

    The graphs are taken one order at a time, in blocks sized by their
    work: at most SUITE_BLOCK // n**4 graphs of order n (1,024 at n = 4,
    419 at n = 5), and each block is read once into one edge_table, its
    rows in each graph's edge order.
    From it comes one stack of R(g) for each graph, R(g - e) for every
    edge whose removal isolates no vertex and R of each underlying graph,
    the last two only under new keys.  A matrix is keyed by its pair
    states, and a matrix and its arc-reversed twin, its conjugate, share
    one key; a key is solved once per order in this call, so an
    exhaustive order solves one graph of each pair of twins.  The exact
    characteristic polynomials come from one path-counting programme and
    one cover-sum pass over the graphs whose key was not counted before at
    that order in this call, and r_inv over one common denominator per
    block.  The residuals and bounds are row reductions
    over the block's eigenvalue array, kept as one column per check: no
    record is built until one is read.  Connectivity, bipartiteness,
    positivity and antibalance come from one traversal of the block's edge
    rows (gains.balances).
    Raises ValueError on a disconnected graph or an isolated vertex.
    """
    graphs = list(graphs)
    orders: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        orders.setdefault(g.n, []).append(i)
    suites: list[TheoremSuite] = [None] * len(graphs)  # type: ignore[list-item]
    for n, members in orders.items():
        for rows, block in _suite_blocks(
                n, len(members), lambda start, stop: edge_table(
                    [graphs[i] for i in members[start:stop]])):
            for row, i in enumerate(members[rows]):
                suites[i] = TheoremSuite(block, row)
    return suites


def run_theorem_suite(g: MixedGraph) -> TheoremSuite:
    """Evaluate every checker on one connected graph with all degrees >= 1:
    the one-graph case of run_theorem_suites."""
    return run_theorem_suites([g])[0]
