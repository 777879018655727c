"""Unit-complex gains on mixed graphs and switching equivalence.

A mixed graph induces a gain on every oriented edge of its underlying graph:
1 on an un-oriented edge, ``omega = (1 + i*sqrt(3))/2`` along an arc and its
conjugate against it.  Since omega is a primitive sixth root of unity, every
gain and every cycle gain of such a view is a sixth root of unity.  Gains are
held only as such roots, symbolically (an exponent mod 6), so that cycle
classification and switching certificates never touch floating point.

Switching by a vertex function zeta maps the gain g(i, j) to
``zeta(i)**-1 * g(i, j) * zeta(j)``; it preserves every cycle gain and the
spectrum of the associated matrices.

Positivity (every cycle gain 1) and antibalance (every cycle gain
(-1)**length) are switching facts, decided by tree potentials.
``balances`` decides them, with connectivity and bipartiteness, for a
whole block of graphs from one array traversal of its edge rows;
``graph_balance`` and ``is_positive`` are its one-graph case, and the
switching certificates are read off the potentials it labels.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import Mapping, NamedTuple

import numpy as np

from .graphs import EdgeKind, MixedGraph, _Record, _set

OMEGA = complex(0.5, math.sqrt(3.0) / 2.0)


class SixthRoot(_Record):
    """omega**k with the exponent kept mod 6; exact under *, / and conjugation."""

    __slots__ = _fields = ("k",)

    def __init__(self, k: int) -> None:
        _set(self, "k", k % 6)

    def __mul__(self, other: "SixthRoot") -> "SixthRoot":
        return SixthRoot(self.k + other.k)

    def inverse(self) -> "SixthRoot":
        return SixthRoot(-self.k)

    def conjugate(self) -> "SixthRoot":
        return SixthRoot(-self.k)

    @property
    def value(self) -> complex:
        return cmath.exp(1j * math.pi * self.k / 3.0)

    def __str__(self) -> str:
        names = {0: "1", 1: "w", 2: "-w̄", 3: "-1", 4: "-w", 5: "w̄"}
        return names[self.k]


ONE = SixthRoot(0)
W = SixthRoot(1)          # omega itself
W_BAR = SixthRoot(5)
MINUS_ONE = SixthRoot(3)


class CycleClass(Enum):
    """Cycle classification by gain: 1, -1, {w, w-bar}, {-w, -w-bar}."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    SEMI_POSITIVE = "semi-positive"
    SEMI_NEGATIVE = "semi-negative"


_CLASS_BY_EXPONENT = {
    0: CycleClass.POSITIVE,
    1: CycleClass.SEMI_POSITIVE,
    2: CycleClass.SEMI_NEGATIVE,
    3: CycleClass.NEGATIVE,
    4: CycleClass.SEMI_NEGATIVE,
    5: CycleClass.SEMI_POSITIVE,
}


class GainView(_Record):
    """Gains on every oriented edge of a graph's underlying graph.

    ``gains`` maps each ordered adjacent pair (i, j) to the gain of the
    traversal i -> j; the reverse direction always holds the inverse.
    Views compare and hash by identity, as ``gains`` has no hash.
    """

    __slots__ = _fields = ("base", "gains")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, base: MixedGraph,
                 gains: Mapping[tuple[int, int], SixthRoot]) -> None:
        _set(self, "base", base)
        _set(self, "gains", gains)

    def gain(self, i: int, j: int) -> SixthRoot:
        try:
            return self.gains[(i, j)]
        except KeyError:
            raise ValueError(f"no edge between {i} and {j}") from None


def gain_view(g: MixedGraph) -> GainView:
    """The sixth-root gain view of a mixed graph.

    Un-oriented edges carry gain 1; an arc u -> v carries omega along the
    arc and its conjugate against it.
    """
    gains: dict[tuple[int, int], SixthRoot] = {}
    for e in g.edges:
        if e.kind is EdgeKind.UNDIRECTED:
            gains[(e.u, e.v)] = ONE
            gains[(e.v, e.u)] = ONE
        else:
            gains[(e.u, e.v)] = W
            gains[(e.v, e.u)] = W_BAR
    return GainView(g, gains)


def _check_cycle(view: GainView, cycle: tuple[int, ...]) -> None:
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        raise ValueError(f"{cycle} is not a simple cycle")
    closed = list(cycle) + [cycle[0]]
    for a, b in zip(closed, closed[1:]):
        if (a, b) not in view.gains:
            raise ValueError(f"{cycle} is not a cycle: {a} and {b} not adjacent")


def cycle_gain(view: GainView, cycle: tuple[int, ...]) -> SixthRoot:
    """Product of gains along the cycle in the order given: the sum of
    their exponents, mod 6.

    Reversing the traversal direction conjugates the result.
    """
    _check_cycle(view, cycle)
    gains = view.gains
    return SixthRoot(sum(gains[(a, b)].k
                         for a, b in zip(cycle, cycle[1:] + cycle[:1])))


def classify_cycle(view: GainView, cycle: tuple[int, ...]) -> CycleClass:
    """Classify a cycle by its gain; independent of traversal direction."""
    return _CLASS_BY_EXPONENT[cycle_gain(view, cycle).k]


class Balance(NamedTuple):
    """Per graph of an edge table (arrays over the graphs): each vertex's
    label 6 * parity + potential, as ``balances`` assigns it, and the four
    verdicts the labels decide."""

    labels: np.ndarray
    connected: np.ndarray
    bipartite: np.ndarray
    positive: np.ndarray
    antibalanced: np.ndarray


def balances(count: int, n: int, owner: np.ndarray, u: np.ndarray,
             v: np.ndarray, k: np.ndarray) -> Balance:
    """The switching potentials of ``count`` graphs on n vertices, and the
    verdicts they decide, from one array traversal of all of them.

    Row j is an edge of graph owner[j] between the 0-based vertices u[j]
    and v[j], of gain omega**k[j] along u -> v (k any integer).  The
    lowest unlabelled vertex of each graph seeds its component with
    z = p = 0, and each tree edge x -> w of gain omega**k gives w the
    potential z(x) - k mod 6 and the other parity; a step labels every
    vertex that an edge from a labelled one reaches.  The label is one
    code, 6 * p + z, so that a vertex reached by several tree edges in one
    step takes all of it from one of them.  Switching by omega**z takes
    every tree edge to gain 1, and by omega**(z + 3p) to gain -1.  Per
    graph: connected iff one seed; bipartite iff every edge joins
    parities that differ; positive iff k - z(u) + z(v) is 0 mod 6 on every
    edge, and antibalanced iff that residue is 3 exactly where the
    parities agree.
    """
    k = np.asarray(k, dtype=np.int64) % 6
    # every edge in both directions: graph, from, to, potential step
    graph_of = np.concatenate((owner, owner))
    tail, head = np.concatenate((u, v)), np.concatenate((v, u))
    step = np.concatenate((-k, k))
    labels = np.full((count, n), -1, dtype=np.int64)
    seeds = np.zeros(count, dtype=np.int64)
    while True:
        open_graphs = np.flatnonzero((labels < 0).any(axis=1))
        if not len(open_graphs):
            break
        labels[open_graphs, (labels[open_graphs] < 0).argmax(axis=1)] = 0
        seeds[open_graphs] += 1
        while True:
            code = labels[graph_of, tail]
            reach = (code >= 0) & (labels[graph_of, head] < 0)
            if not reach.any():
                break
            code = code[reach]
            labels[graph_of[reach], head[reach]] = (
                6 * (1 - code // 6) + (code + step[reach]) % 6)
    parity, z = np.divmod(labels, 6)
    same = parity[owner, u] == parity[owner, v]
    rest = (k - z[owner, u] + z[owner, v]) % 6

    def every(bad: np.ndarray) -> np.ndarray:
        return np.bincount(owner[bad], minlength=count) == 0

    return Balance(labels, seeds == 1, every(same), every(rest != 0),
                   every(rest != 3 * same))


def graph_balance(g: MixedGraph) -> Balance:
    """balances of one mixed graph: an arc u -> v has gain omega along it."""
    rows = np.array([(e.u - 1, e.v - 1, e.kind is EdgeKind.ARC)
                     for e in g.edges], dtype=np.int64).reshape(-1, 3)
    return balances(1, g.n, np.zeros(len(rows), dtype=np.int64), *rows.T)


def is_positive(g: MixedGraph) -> bool:
    """True iff every cycle of the mixed graph has gain 1."""
    return bool(graph_balance(g).positive[0])


def apply_switching(view: GainView, zeta: Mapping[int, SixthRoot]) -> GainView:
    """Switch a gain view: g(i, j) becomes zeta(i)**-1 * g(i, j) * zeta(j).

    Cycle gains are preserved.
    """
    missing = [v for v in view.base.vertices() if v not in zeta]
    if missing:
        raise ValueError(f"switching function undefined on vertices {missing}")
    new_gains = {
        (i, j): zeta[i].inverse() * g * zeta[j]
        for (i, j), g in view.gains.items()
    }
    return GainView(view.base, new_gains)


def switching_certificate_to_constant(
    view: GainView, target: SixthRoot
) -> dict[int, SixthRoot] | None:
    """A switching function taking every gain to the constant target, if any.

    target must be ONE or MINUS_ONE.  The certificate is read off the
    labels of ``balances`` on the view's edge rows: zeta(v) is
    omega**(z + 3p) for -1 and omega**z for 1, so zeta(1) = 1.  On a connected
    graph that switching function is the only one with zeta(1) = 1.
    Existence for target 1 means every cycle gain is 1, and for target -1
    that every cycle gain is (-1)**length.  The keys come in ascending
    vertex order.  Requires a connected underlying graph.
    """
    if not isinstance(target, SixthRoot) or target.k not in (0, 3):
        raise ValueError("target gain must be 1 or -1")
    rows = np.array([(i - 1, j - 1, gain.k)
                     for (i, j), gain in view.gains.items() if i < j],
                    dtype=np.int64).reshape(-1, 3)
    balance = balances(1, view.base.n, np.zeros(len(rows), dtype=np.int64),
                       *rows.T)
    if not balance.connected[0]:
        raise ValueError("switching certificates require a connected graph")
    if not (balance.antibalanced if target.k else balance.positive)[0]:
        return None
    shift = 3 if target.k else 0
    return {v: SixthRoot(label % 6 + shift * (label // 6))
            for v, label in enumerate(balance.labels[0].tolist(), start=1)}


def are_switching_equivalent(v1: GainView, v2: GainView) -> bool:
    """Whether some switching function maps v1 to v2.

    Both views must live on the same connected underlying graph.  Decided on
    the quotient gain v1 * v2**-1, which is switchable to all-ones exactly
    when the two views agree on every cycle gain.
    """
    g1, g2 = v1.base, v2.base
    if g1.n != g2.n or set(g1.underlying_pairs()) != set(g2.underlying_pairs()):
        raise ValueError("views live on different underlying graphs")
    quotient = GainView(
        g1,
        {key: v1.gains[key] * v2.gains[key].inverse() for key in v1.gains},
    )
    return switching_certificate_to_constant(quotient, ONE) is not None
