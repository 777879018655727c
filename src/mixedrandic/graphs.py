"""Mixed graphs: edges that are either un-oriented or one-directional arcs.

A mixed graph on vertices 1..n holds at most one relation per vertex pair:
an un-oriented edge ``u -- v`` or an arc ``u -> v``.  The *underlying graph*
forgets all orientations; degrees, connectivity and bipartiteness are always
taken there.

Graphs are read and written in the ``mixedgraph v1`` text format::

    mixedgraph v1
    vertices 4
    1 -- 2      # un-oriented edge
    2 -> 3      # arc from 2 to 3
    3 -- 4

``#`` starts a comment, blank lines are ignored, LF and CRLF are both
accepted (LF is emitted).
"""

from __future__ import annotations

import math
import operator
from collections import deque
from enum import Enum
from fractions import Fraction
from typing import Iterable


class ParseError(ValueError):
    """Raised on malformed mixedgraph v1 input; the message names the line."""


class EdgeKind(Enum):
    UNDIRECTED = "--"
    ARC = "->"


#: Sets a field of a _Record past its __setattr__, in the constructors.
_set = object.__setattr__


class _Record:
    """Base of the package's immutable records.

    A record names its fields in ``_fields``, in constructor order and
    usually as its ``__slots__`` too, and its ``__init__`` sets them with
    ``_set``.  Equality, hashing and the ``Name(field=value, ...)`` repr
    read those fields; assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the fields' values in one C call, which equality and hashing
        # compare: `tuple.index` over a graph's edges makes an __eq__ call
        # per edge; a record of one field yields the value itself
        cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class EdgeRecord(_Record):
    """One edge of a mixed graph.

    For ``UNDIRECTED`` the endpoints are stored with ``u < v``; for ``ARC``
    the edge is oriented ``u -> v``.
    """

    __slots__ = _fields = ("u", "v", "kind")

    def __init__(self, u: int, v: int, kind: EdgeKind) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if kind is EdgeKind.UNDIRECTED and u > v:
            u, v = v, u
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "kind", kind)

    @property
    def pair(self) -> tuple[int, int]:
        """The unordered endpoint pair, smaller label first."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)

    def __str__(self) -> str:
        return f"{self.u} {self.kind.value} {self.v}"


def undirected(u: int, v: int) -> EdgeRecord:
    return EdgeRecord(u, v, EdgeKind.UNDIRECTED)


def arc(u: int, v: int) -> EdgeRecord:
    """An oriented edge from u to v."""
    return EdgeRecord(u, v, EdgeKind.ARC)


def edge_label(e: EdgeRecord) -> str:
    """The compact label of an edge, e.g. '1--2' or '2->3': its text
    without spaces, as record names and reports write it."""
    return f"{e.u}{e.kind.value}{e.v}"


class MixedGraph(_Record):
    """Immutable mixed graph on vertices 1..n.

    ``edges`` keeps construction order (matrix builders index edge columns by
    it); equality and hashing ignore the order.  The degrees are counted
    once, on construction.  A graph keeps its fields in a ``__dict__``,
    which enumeration fills directly for graphs it knows to be valid.
    """

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: tuple[EdgeRecord, ...]) -> None:
        if n < 1:
            raise ValueError("vertex count must be at least 1")
        edges = tuple(edges)
        seen: set[tuple[int, int]] = set()
        d = [0] * n
        for e in edges:
            if not (1 <= e.u <= n and 1 <= e.v <= n):
                raise ValueError(f"edge {e} out of range 1..{n}")
            pair = e.pair
            if pair in seen:
                raise ValueError(f"duplicate pair {{{pair[0]}, {pair[1]}}}")
            seen.add(pair)
            d[e.u - 1] += 1
            d[e.v - 1] += 1
        _set(self, "n", n)
        _set(self, "edges", edges)
        _set(self, "_degrees", tuple(d))

    @classmethod
    def build(
        cls,
        n: int,
        undirected_pairs: Iterable[tuple[int, int]] = (),
        arcs: Iterable[tuple[int, int]] = (),
    ) -> "MixedGraph":
        """Convenience constructor from endpoint pairs."""
        records = [undirected(u, v) for u, v in undirected_pairs]
        records += [arc(u, v) for u, v in arcs]
        return cls(n, tuple(records))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return self.n == other.n and frozenset(self.edges) == frozenset(other.edges)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.edges)))

    @property
    def m(self) -> int:
        """Number of edges (of either kind)."""
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def underlying_pairs(self) -> list[tuple[int, int]]:
        """Edges of the underlying graph as sorted (u, v) pairs, u < v."""
        return [e.pair for e in self.edges]

    def adjacency_sets(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for e in self.edges:
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
        return adj

    def edge_between(self, u: int, v: int) -> EdgeRecord | None:
        pair = (u, v) if u < v else (v, u)
        for e in self.edges:
            if e.pair == pair:
                return e
        return None

    def degrees(self) -> tuple[int, ...]:
        """Underlying-graph degree of each vertex; index i holds vertex i+1."""
        return self._degrees

    def underlying_graph(self) -> "MixedGraph":
        """The same graph with every arc replaced by an un-oriented edge."""
        return MixedGraph(
            self.n, tuple(undirected(e.u, e.v) for e in self.edges)
        )

    def is_connected(self) -> bool:
        """Connectivity of the underlying graph (a single vertex counts)."""
        adj = self.adjacency_sets()
        seen = {1}
        queue = deque([1])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n


def general_randic_index(g: MixedGraph, k: int) -> Fraction:
    """Sum of (d_u * d_v)**k over the edges of the underlying graph, exact
    for integer k: summed as an integer over a common denominator, the lcm
    of the (d_u * d_v)**-k when k < 0.  Degrees are taken in the underlying
    graph, so orientations are irrelevant."""
    if g.m == 0:
        raise ValueError("Randic index undefined for a graph with no edges")
    d = g.degrees()
    k = operator.index(k)
    powers = [(d[u - 1] * d[v - 1]) ** abs(k) for u, v in g.underlying_pairs()]
    if k >= 0:
        return Fraction(sum(powers))
    common = math.lcm(*powers)
    return Fraction(sum(common // p for p in powers), common)


def is_label(token: str) -> bool:
    """Whether a token is a vertex label or count of the mixedgraph v1
    format: ASCII decimal digits only, so no sign, '_' or other digit
    that int() would take."""
    return token.isascii() and token.isdigit()


def parse_graph(text: str) -> MixedGraph:
    """Parse the mixedgraph v1 text format.

    Raises ParseError (with a line number) on a malformed line, duplicate
    pair, self-loop or out-of-range vertex.
    """
    lines = text.replace("\r\n", "\n").split("\n")

    def stripped(i: int) -> str:
        line = lines[i]
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        return line.strip()

    content = [(i + 1, stripped(i)) for i in range(len(lines))]
    content = [(no, line) for no, line in content if line]
    if not content or content[0][1].split() != ["mixedgraph", "v1"]:
        raise ParseError("line 1: expected header 'mixedgraph v1'")
    if len(content) < 2:
        raise ParseError("missing 'vertices <n>' line")
    no, line = content[1]
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "vertices" or not is_label(tokens[1]):
        raise ParseError(f"line {no}: expected 'vertices <n>'")
    n = int(tokens[1])
    if n < 1:
        raise ParseError(f"line {no}: vertex count must be at least 1")

    records: list[EdgeRecord] = []
    seen: set[tuple[int, int]] = set()
    for no, line in content[2:]:
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] not in ("--", "->"):
            raise ParseError(f"line {no}: expected '<u> -- <v>' or '<u> -> <v>'")
        a, b = tokens[0], tokens[2]
        if not (is_label(a) and is_label(b)):
            raise ParseError(f"line {no}: vertex labels must be ASCII digits")
        u, v = int(a), int(b)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"line {no}: vertex out of range 1..{n}")
        if u == v:
            raise ParseError(f"line {no}: self-loop at vertex {u}")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise ParseError(f"line {no}: duplicate pair {{{pair[0]}, {pair[1]}}}")
        seen.add(pair)
        kind = EdgeKind.UNDIRECTED if tokens[1] == "--" else EdgeKind.ARC
        records.append(EdgeRecord(u, v, kind))
    return MixedGraph(n, tuple(records))


def serialize_graph(g: MixedGraph) -> str:
    """Emit mixedgraph v1 text (LF line endings); inverse of parse_graph."""
    lines = ["mixedgraph v1", f"vertices {g.n}"]
    lines += [str(e) for e in g.edges]
    return "\n".join(lines) + "\n"


def path_graph(n: int) -> MixedGraph:
    """The un-oriented path 1 -- 2 -- ... -- n."""
    return MixedGraph.build(n, undirected_pairs=[(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> MixedGraph:
    """The un-oriented cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    pairs = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return MixedGraph.build(n, undirected_pairs=pairs)


def directed_cycle(n: int) -> MixedGraph:
    """The cycle 1 -> 2 -> ... -> n -> 1 with every edge an arc."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    arcs = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return MixedGraph.build(n, arcs=arcs)
