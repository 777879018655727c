"""Exhaustive enumeration: cycles, elementary-subgraph sums, small mixed graphs.

Elementary subgraphs (vertex-disjoint unions of single edges and cycles)
are what the combinatorial determinant and characteristic polynomial
formulas sum over.  Each carries the signed weight
(-1)**(r + l_neg + l_semi_neg) * 2**(l_neg + l_pos) * Q (see spectra), with
the exact rational Q = prod 1/d_i over covered vertices and degrees taken
in the *host* graph.

``elementary_weight_numerator_rows`` sums the signed weights of every order
for a block of graphs of one order, given as one ``edge_table`` (its
degrees and one row per edge), keeping each order's sum as an integer
numerator over the common denominator prod d_i, since
Q = prod_{uncovered} d_i / prod_all d_i.  It lists no cycle.  A dynamic
programme over vertex subsets counts, for every graph of the block at once,
the paths from min U over exactly the vertex set U to each end vertex, by
gain exponent mod 6; a step back to min U closes a cycle, whose class the
exponent gives.  Each layer is np.take gathers and sums over contiguous
slabs (see _path_template).  The counts are int32: a path count is at most
(n - 2)! <= 11! at the n <= 13 the numerators admit.  The cover sums C[X],
over the covers of each vertex set X by disjoint edges and cycles, then
take one array step per vertex for the whole block, and each order's
numerator sums C[X] times the degrees of the vertices outside X;
``elementary_weight_numerators`` is its one-graph case.  ``enumerate_cycles``
lists the cycles of one graph, for the demos and the tests.

The generators filter (K, C(n, 2)) arrays of pair states a bounded batch
at a time: the base-4 digits of consecutive codes, or the Mersenne Twister
words that ``randrange(4)`` would read, and keep the rows that pass with
their degrees.  A campaign takes those arrays as they are; the graphs
built from them share one set of 3 C(n, 2) edge records per order.

Everything here is desk scale: the combinatorial routines take n <= 13
(the suite n <= 10) and graph enumeration is capped (default 6) because the
number of labeled mixed graphs grows as 4**C(n, 2).
"""

from __future__ import annotations

import functools
import random
from itertools import combinations
from typing import Iterator

import numpy as np

from .gains import _CLASS_BY_EXPONENT, CycleClass
from .graphs import EdgeKind, EdgeRecord, MixedGraph
from .matrices import edge_table

DEFAULT_GRAPH_CAP = 6

#: Cycle classes whose gain flips the sign of a weight, and those that
#: double it (the l_neg + l_semi_neg and l_neg + l_pos of the weight).
_SIGN_FLIPPING = (CycleClass.NEGATIVE, CycleClass.SEMI_NEGATIVE)
_DOUBLED = (CycleClass.POSITIVE, CycleClass.NEGATIVE)

#: Per cycle gain exponent mod 6, the sign and doubling its class gives a
#: cycle's factor.
_CYCLE_FACTOR = np.array([
    (-1 if cls_ in _SIGN_FLIPPING else 1) * (2 if cls_ in _DOUBLED else 1)
    for cls_ in map(_CLASS_BY_EXPONENT.get, range(6))
], dtype=np.int64)


def enumerate_cycles(g: MixedGraph) -> list[tuple[int, ...]]:
    """All simple cycles of the underlying graph, one tuple per cycle.

    Canonical form: the smallest vertex first, then its smaller cycle
    neighbor.  Cycles are emitted sorted by (length, vertex tuple).
    """
    adj = g.adjacency_sets()
    cycles: list[tuple[int, ...]] = []

    def extend(start: int, path: list[int]) -> None:
        v = path[-1]
        for w in sorted(adj[v]):
            if w == start and len(path) >= 3:
                # close only in one direction: second vertex below last
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > start and w not in path:
                path.append(w)
                extend(start, path)
                path.pop()

    for start in g.vertices():
        extend(start, [start])
    # extend refers to itself: dropping it breaks the reference cycle that
    # would keep `cycles` alive until the collector's next full pass
    del extend
    return sorted(cycles, key=lambda c: (len(c), c))


@functools.cache
def _path_template(n: int) -> tuple[list[tuple[np.ndarray, ...]], int]:
    """The steps of the path programme on the complete graph K_n, and the
    most steps into one layer.

    A state of layer k is a vertex set U of size k and an end vertex v: the
    one vertex of U when k = 1 (state v), else any vertex of U but min U,
    numbered slot-major: s * len(sets) + the index of U, v U's s-th end.  A
    state has m = max(1, k - 2) steps in, one from each end w of U - v; the
    i-th into state x is step i * states + x.  Per layer k = 2..n: the sets
    U, ascending; per state, the pair v * n + min U closing it and 7 x; per
    step, 7 times the state of layer k - 1 it leaves and its pair w * n + v.
    """
    masks = np.arange(1 << n)
    bits = ((masks[:, np.newaxis] >> np.arange(n)) & 1).astype(bool)
    sizes = bits.sum(axis=1)
    lowest = bits.argmax(axis=1)
    # ends[U]: the vertices a path over U may end at
    ends = bits.copy()
    ends[sizes >= 2, lowest[sizes >= 2]] = False
    # state[U, v]: the number of state (U, v) within its layer
    state = np.zeros((1 << n, n), dtype=np.intp)
    state[1 << np.arange(n), np.arange(n)] = np.arange(n)
    layers = []
    for k in range(2, n + 1):
        sets, m = masks[sizes == k], max(1, k - 2)
        into = np.tile(sets, k - 1)
        end = np.nonzero(ends[sets])[1].reshape(-1, k - 1).T.ravel()
        state[into, end] = np.arange(len(into))
        before = into & ~(1 << end)
        tail = np.nonzero(ends[before])[1].reshape(-1, m).T.ravel()
        layers.append((sets, end * n + lowest[into], np.arange(len(into)) * 7,
                       state[np.tile(before, m), tail] * 7,
                       tail * n + np.tile(end, m)))
    return layers, max((len(layer[3]) for layer in layers), default=1)


#: _SOURCE_SLOT[x, e]: the exponent a path had before a step of gain
#: exponent x left it at exponent e.  x = 6 marks an absent pair, whose
#: step reads slot 6, which holds no paths.
_SOURCE_SLOT = np.array([[(e - x) % 6 if x < 6 else 6 for e in range(6)]
                         for x in range(7)], dtype=np.intp)

#: Most cells (graphs x steps x exponents) one layer of the path programme
#: gathers: a block's graphs are taken in chunks that stay under it.
_PATH_CELLS = 1 << 16


def _stepped(paths: np.ndarray, slots: np.ndarray, source: np.ndarray,
             pair: np.ndarray) -> np.ndarray:
    """Entry [j, t, e]: the paths of graph j in state source[t] // 7 that
    the step over ordered pair pair[t] leaves at exponent e (0 where graph j
    lacks the pair).  paths is (G, states, 7), slots[j] _SOURCE_SLOT of
    graph j's step exponents: np.take of each step's slots, then of cells."""
    cells = np.take(slots, pair, axis=1)
    cells += source[:, np.newaxis]
    cells += (np.arange(len(paths)) * paths[0].size)[:, np.newaxis, np.newaxis]
    return np.take(paths, cells)


def _component_weights(degrees: np.ndarray,
                       edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """W[mask, j]: the summed factors of graph j's edges and cycles whose
    vertex set is ``mask`` (bit i for vertex i + 1), for a block given as
    an edge_table.

    An edge contributes -1 and a cycle (-1)**(length - 1) times the
    _CYCLE_FACTOR of its gain exponent.  No cycle is listed:
    paths[j, (U, v), e] counts the paths of graph j from min U to v over
    exactly the vertex set U with gain exponent e mod 6 (Bellman, J. ACM 9
    (1962); Held & Karp, J. SIAM 10 (1962)).  Each layer gathers the steps
    of _path_template(n), shifted by their exponents in graph j, and sums
    its m slabs.  A step from v back to min U closes each cycle twice, with
    exponents e and -e of one class, so W[U, j] is half the sum over U's
    k - 1 end slots of (-1)**(|U| - 1) * _CYCLE_FACTOR[e] * paths.  At
    |U| = 2 the closed path is an edge there and back, exponent 0, and
    weighs -2 / 2 = -1.
    """
    n = degrees.shape[1]
    owner, u, v, arc = edges
    layers, widest = _path_template(n)
    # exponent[j, a * n + b]: the gain exponent of the step a -> b in graph j
    exponent = np.full((len(degrees), n * n), 6, dtype=np.intp)
    exponent[owner, u * n + v] = np.where(arc, 1, 0)
    exponent[owner, v * n + u] = np.where(arc, 5, 0)
    weights = np.zeros((1 << n, len(degrees)), dtype=np.int64)
    chunk = max(1, _PATH_CELLS // (6 * widest))
    for first in range(0, len(degrees), chunk):
        slots = _SOURCE_SLOT[exponent[first:first + chunk]]
        count = len(slots)
        # layer 1: one path of exponent 0 at each vertex
        paths = np.zeros((count, n, 7), dtype=np.int32)
        paths[:, :, 0] = 1
        for k, (sets, close, own, source, pair) in enumerate(layers, start=2):
            grown = _stepped(paths, slots, source, pair)
            paths = np.zeros((count, len(close), 7), dtype=np.int32)
            grown.reshape(count, -1, len(close), 6).sum(
                axis=1, dtype=np.int32, out=paths[:, :, :6])
            closed = _stepped(paths, slots, own, close)
            cycles = closed.reshape(count, k - 1, len(sets), 6).sum(
                axis=1, dtype=np.int64) @ _CYCLE_FACTOR
            weights[sets, first:first + count] = (-1) ** (k - 1) * cycles.T // 2
    return weights


def elementary_weight_numerator_rows(degrees: np.ndarray,
                                     edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """Row j, entry k: the signed weights of graph j's order-k elementary
    subgraphs summed over the common denominator prod d_i, for a block of
    graphs of one order given as an edge_table, as a (G, n + 1) int64
    array.

    Entry k, divided by prod d_i, equals the sum of the signed weights of
    the order-k elementary subgraphs of graph j.  Each component contributes
    its factor W, which one programme counting paths over vertex subsets
    (int32 counts, see _component_weights) gives for every graph at once,
    and each uncovered vertex its degree (host degrees throughout).

    First the cover sums: C[X, j] sums, over the ways to cover exactly the
    vertex set X by vertex-disjoint edges and cycles of graph j, the
    product of their factors W, with C[empty set] = 1.  The component M
    that covers min X leaves a cover of X - M, all of whose vertices lie
    above min X, so C[X] is the sum of W[M] * C[X - M] over the components
    M inside X with min M = min X.  The table is filled by lowest vertex,
    from vertex n down to vertex 1.  For each vertex v one array step adds
    W[M] * C[R] into C[M | R] for every component M with min M = v and
    every set R above v disjoint from it; each such C[R] is final already.
    Then entry k is the sum over the sets X of k vertices of
    C[X] * prod_{z not in X} d_z: n masked multiplies by the degrees, and
    one sum by set size.

    Every sum W[M] * C[R], every partial C[X] * prod d_z and every partial
    sum by set size is bounded by a sub-sum of the expansion of the
    permanent of D + A, which is at most prod 2 d_i <= (2n - 2)**n: about
    3.6e12 at n = 10, so int64 holds it.  Orders where that bound reaches
    2**63 (n >= 14) are refused; at n <= 13 a path count is at most 11!,
    which int32 holds.
    """
    count, n = degrees.shape
    if (2 * n - 2) ** n >= 2 ** 63:
        raise ValueError(f"n = {n}: the numerators may overflow int64")
    weights = _component_weights(degrees, edges)
    # int16 holds a vertex set at the n <= 13 admitted above
    live = np.flatnonzero(weights.any(axis=1)).astype(np.int16)
    lowest = live & -live
    covers = np.zeros_like(weights)
    covers[0] = 1
    # (component, set) pairs per slice, so that a slice's gathers stay
    # under _PATH_CELLS cells
    pairs = max(1, _PATH_CELLS // count)
    for i in reversed(range(n)):
        # every component M with min M = i beside every coverable set R
        # above i disjoint from it; each covers[R] is final, since min R > i
        above = np.arange(1 << (n - 1 - i), dtype=np.int16) << (i + 1)
        above = above[covers[above].any(axis=1)]
        mine = live[lowest == 1 << i]
        # the (M, R) grid in tiles of at most `pairs` cells
        width = min(len(above), pairs)
        height = max(1, pairs // max(width, 1))
        for top in range(0, len(mine), height):
            for left in range(0, len(above), width):
                tile_m = mine[top:top + height]
                tile_r = above[left:left + width]
                disjoint = np.flatnonzero((tile_m[:, np.newaxis] & tile_r) == 0)
                m, r = np.divmod(disjoint, len(tile_r))
                np.add.at(covers, tile_m[m] | tile_r[r],
                          weights[tile_m[m]] * covers[tile_r[r]])
    for z in range(n):
        # axis 1 is bit z of the vertex set: scale the sets without vertex z
        covers.reshape(-1, 2, 1 << z, count)[:, 0] *= degrees[:, z]
    bits = (np.arange(1 << n)[:, np.newaxis] >> np.arange(n)) & 1
    # entry [j, k]: graph j's sum over the sets of k vertices
    return covers.T @ (bits.sum(axis=1)[:, np.newaxis] == np.arange(n + 1))


def elementary_weight_numerators(g: MixedGraph) -> tuple[int, ...]:
    """The numerators of every order for one graph: the one-graph case of
    elementary_weight_numerator_rows."""
    return tuple(elementary_weight_numerator_rows(*edge_table([g]))[0].tolist())


#: Most pair-state vectors (or, to the sampler, words) a generator holds.
_BATCH = 1 << 13


@functools.cache
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per pair i of order n, its shared records ([i, s] in state s > 0), and
    a float64 row adding 1 to its ends' degrees and each end's bit to the
    other's neighbour mask (columns n..2n - 1)."""
    records = np.array([(None, EdgeRecord(u, v, EdgeKind.UNDIRECTED),
                         EdgeRecord(u, v, EdgeKind.ARC),
                         EdgeRecord(v, u, EdgeKind.ARC))
                        for u, v in combinations(range(1, n + 1), 2)],
                       dtype=object).reshape(-1, 4)
    a, b = np.triu_indices(n, 1)
    at_a, at_b = np.eye(n)[a], np.eye(n)[b]
    return records, np.hstack((at_a + at_b, at_a * 2.0 ** b[:, np.newaxis]
                               + at_b * 2.0 ** a[:, np.newaxis]))


def _kept_states(n: int, states: np.ndarray, connected_only: bool,
                 min_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a (K, C(n, 2)) int8 batch of pair states (in
    ``combinations`` order: 0 absent, 1 u -- v, 2 u -> v, 3 v -> u) that
    pass the filter, in order, and their (K', n) int64 degrees.  Degrees
    and reach from vertex 1 (a bit mask grown n - 1 times) are array
    operations."""
    if not 1 <= n <= 52:  # a float64 neighbour mask holds n bits
        raise ValueError(f"vertex count {n} outside 1..52")
    # every entry a small integer, so the float product is exact
    tally = ((states > 0) @ _pair_table(n)[1]).astype(np.int64)
    degrees, neighbours = tally[:, :n], tally[:, n:]
    keep = (degrees >= min_degree).all(axis=1)
    if connected_only:
        reached = np.ones(len(states), dtype=np.int64)
        for v in list(range(n)) * (n - 1):
            reached |= neighbours[:, v] * (reached >> v & 1)
        keep &= reached == (1 << n) - 1
    return states[keep], degrees[keep]


def _row_entries(table: np.ndarray, states: np.ndarray) -> Iterator[list]:
    """Per row of pair states, table[pair, state] of each present pair, in
    pair order."""
    row, pair = np.nonzero(states)
    entries = table[pair, states[row, pair]].tolist()
    ends = np.cumsum(np.count_nonzero(states, axis=1)).tolist()
    return (entries[first:end] for first, end in zip([0] + ends, ends))


def _graphs(states: np.ndarray, degrees: np.ndarray) -> Iterator[MixedGraph]:
    """The graph of each row of pair states and degrees, in order, each
    built when read, with _pair_table's records and without the
    constructor's checks."""
    n = degrees.shape[1]
    # graphs of equal degrees share one tuple, as they would one record
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for edges, d in zip(_row_entries(_pair_table(n)[0], states),
                        zip(*degrees.T.tolist())):
        g = object.__new__(MixedGraph)
        g.__dict__.update(n=n, edges=tuple(edges),
                          _degrees=shared.setdefault(d, d))
        yield g


def _enumerated_states(n: int, connected_only: bool, min_degree: int
                       ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """enumerate_mixed_graphs as (states, degrees) arrays, a batch at a
    time."""
    if n > DEFAULT_GRAPH_CAP:
        raise ValueError(f"n = {n} above enumeration cap {DEFAULT_GRAPH_CAP}")
    pair_count = n * (n - 1) // 2
    # the base-4 digits of each code, the first pair's most significant
    shifts = 2 * np.arange(pair_count - 1, -1, -1)
    for first in range(0, 4 ** pair_count, _BATCH):
        codes = np.arange(first, min(first + _BATCH, 4 ** pair_count))
        yield _kept_states(
            n, (codes[:, np.newaxis] >> shifts & 3).astype(np.int8),
            connected_only, min_degree)


def enumerate_mixed_graphs(
    n: int,
    connected_only: bool = False,
    min_degree: int = 0,
) -> Iterator[MixedGraph]:
    """Stream every labeled mixed graph on n vertices matching the filter.

    Each of the C(n, 2) vertex pairs independently takes one of four states
    (absent, un-oriented, arc forward, arc backward); the stream walks the
    state vectors in lexicographic order, so it is deterministic.  No
    isomorphism reduction.  The full stream has 4**C(n, 2) members, hence
    the cap (exhausting n = 6 is already around 10**9 graphs).
    """
    for states, degrees in _enumerated_states(n, connected_only, min_degree):
        yield from _graphs(states, degrees)


def _sampled_states(n: int, count: int, seed: int, connected_only: bool,
                    min_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """sample_mixed_graphs as (states, degrees) arrays."""
    if count < 0:
        raise ValueError(f"count {count} is negative")
    if min_degree > n - 1:
        raise ValueError(
            f"min_degree {min_degree} above n - 1 = {n - 1}: no graph passes"
        )
    rng = random.Random(seed)
    pair_count = n * (n - 1) // 2
    kept = [(np.empty((0, pair_count), dtype=np.int8),
             np.empty((0, n), dtype=np.int64))]
    total = 0
    drawn = np.empty(0, dtype=np.int8)
    while total < count:
        if pair_count:
            # randrange(4) is getrandbits(3), the top 3 bits of a word, drawn
            # again while >= 4; getrandbits(32 k) puts the first word lowest
            words = np.frombuffer(rng.getrandbits(32 * _BATCH).to_bytes(
                4 * _BATCH, "little"), dtype="<u4") >> 29
            drawn = np.concatenate((drawn, words[words < 4].astype(np.int8)))
            whole = len(drawn) - len(drawn) % pair_count
            states, drawn = drawn[:whole].reshape(-1, pair_count), drawn[whole:]
        else:
            states = np.empty((count, 0), dtype=np.int8)
        kept.append(_kept_states(n, states, connected_only, min_degree))
        total += len(kept[-1][0])
    states, degrees = map(np.concatenate, zip(*kept))
    return states[:count], degrees[:count]


def sample_mixed_graphs(
    n: int,
    count: int,
    seed: int,
    connected_only: bool = True,
    min_degree: int = 1,
) -> list[MixedGraph]:
    """Seeded uniform sample of labeled mixed graphs (with rejection).

    Draws edge-state vectors uniformly and keeps those passing the filter
    until count graphs are collected; deterministic for a fixed seed.
    Raises if count is negative, or if min_degree exceeds n - 1, which no
    graph on n vertices meets.
    """
    return list(_graphs(*_sampled_states(n, count, seed, connected_only,
                                         min_degree)))
