"""Enumeration campaigns: the full checker suite over many small graphs.

Population convention, used by the campaigns and the test suite alike:
connected mixed graphs with every degree >= 1, enumerated exhaustively for
n <= 4 (3, 54 and 3834 graphs) and sampled with a seeded generator for
n in {5, 6}, where the 4-states-per-pair space is out of reach.

Reports are byte-deterministic for a fixed configuration: all floats are
rendered with 17 significant digits (``format_float``'s ``.17g``), and
records keep enumeration order.

A campaign builds no graph and no per-graph object: the suite reads each
order's (states, degrees) arrays from the generator, and the campaign
keeps each suite block with the report index of its first graph and its
rows of those arrays.  The renders label edges from a per-order (pair,
state) text table made once per render.  ``results``, one GraphResult per
graph, is made on its first read, and a result builds its ``graph`` when
read.

A campaign keeps the suite's block columns, not records.  The check
count and the summary read them a block at a time, and both renders a
run (at most _RUN graphs of a block) at a time, formatted a column at a
time: a row of a column's arrays is one f-string, fields in
RECORD_FIELDS order.  Each name's text and, while runs repeat floats,
each float's (by bit pattern, so -0.0 is not 0.0) is made once per
render (``_Floats``).  A row with fields of its own goes through
``json_scalar``'s check, so a numpy float renders as a float and a numpy
bool raises TypeError in both formats; one without numbers is formatted
once per render and name.  Each column's rows of their own are sorted
once per block and cut to a run by np.searchsorted.
``json_checks`` writes each record as such a row.  A render writes one
graph's text at a time to a StringIO: not one list of every line (about
7 MB more at the n <= 4 peak), nor texts of many graphs, whose place
around the final join decided whether a process running campaign after
campaign stayed at its resident peak (95.1-95.6 MB in 16 processes one
graph at a time; 99.4-114 MB with 512-graph chunks).
The summary is read off the columns on first use and kept; the failing
records are made when asked for.
"""

from __future__ import annotations

import functools
import json
from io import StringIO
from itertools import repeat
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .enumeration import (
    _enumerated_states,
    _graphs,
    _pair_table,
    _row_entries,
    _sampled_states,
)
from .graphs import MixedGraph, ParseError, _Record, _set, edge_label
from .matrices import _state_table
from .theorems import (
    CheckRecord,
    TheoremSuite,
    _Block,
    _Column,
    _suite_blocks,
)

#: Largest n enumerated exhaustively; larger sizes are sampled.
EXHAUSTIVE_LIMIT = 4

DEFAULT_SAMPLE = 500
DEFAULT_SEED = 1729


def _order_states(n: int, min_degree: int, sample_limit: int | None,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """population(n, ...) as its (states, degrees) arrays."""
    if n <= EXHAUSTIVE_LIMIT:
        states, degrees = map(np.concatenate, zip(*_enumerated_states(
            n, connected_only=True, min_degree=min_degree)))
        return states[:sample_limit], degrees[:sample_limit]
    count = DEFAULT_SAMPLE if sample_limit is None else sample_limit
    return _sampled_states(n, count, seed, connected_only=True,
                           min_degree=min_degree)


def population(n: int, min_degree: int = 1, sample_limit: int | None = None,
               seed: int = DEFAULT_SEED) -> list[MixedGraph]:
    """The connected graphs of one order, sampled above EXHAUSTIVE_LIMIT."""
    return list(_graphs(*_order_states(n, min_degree, sample_limit, seed)))


class CampaignConfig(_Record):
    __slots__ = _fields = ("n_min", "n_max", "min_degree", "sample_limit",
                           "seed", "format", "output")

    def __init__(self, n_min: int = 2, n_max: int = 4, min_degree: int = 1,
                 sample_limit: int | None = None, seed: int = DEFAULT_SEED,
                 format: str = "json", output: str | None = None) -> None:
        if n_min < 2 or n_max < n_min:
            raise ValueError(f"bad vertex range {n_min}..{n_max}")
        if format not in ("json", "csv"):
            raise ValueError(f"unknown report format {format!r}")
        if not 0 <= min_degree <= n_min - 1:
            raise ValueError(f"min_degree must be in 0..n_min - 1 = {n_min - 1}")
        if sample_limit is not None and sample_limit < 0:
            raise ValueError("sample_limit must be >= 0")
        _set(self, "n_min", n_min)
        _set(self, "n_max", n_max)
        _set(self, "min_degree", min_degree)
        _set(self, "sample_limit", sample_limit)
        _set(self, "seed", seed)
        _set(self, "format", format)
        _set(self, "output", output)


_CONFIG_KEYS = {
    "n_min": int,
    "n_max": int,
    "min_degree": int,
    "sample_limit": int,
    "seed": int,
    "format": str,
    "output": str,
}


def parse_campaign_config(text: str) -> CampaignConfig:
    """Key-value config, one `key value` pair per line, # comments allowed."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'key value', got {raw!r}")
        key, value = parts
        if key not in _CONFIG_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if _CONFIG_KEYS[key] is int:
            try:
                values[key] = int(value)
            except ValueError:
                raise ParseError(f"line {lineno}: {key} must be an integer")
        else:
            values[key] = value
    try:
        return CampaignConfig(**values)
    except ValueError as exc:
        raise ParseError(str(exc))


def edge_list_label(g: MixedGraph) -> str:
    """One-line rendering of the edge set, e.g. '1--2 1->3'."""
    return " ".join(map(edge_label, g.edges))


class GraphResult:
    """One graph of a campaign: its report index and its suite, row
    ``suite.row`` of a campaign block, whose pair-state and degree rows
    build ``graph`` when read (no array is kept per graph)."""

    __slots__ = ("index", "suite", "_part")

    def __init__(self, index: int, suite: TheoremSuite, part: _Part) -> None:
        self.index, self.suite, self._part = index, suite, part

    @property
    def graph(self) -> MixedGraph:
        row = slice(self.suite.row, self.suite.row + 1)
        return next(_graphs(self._part.states[row], self._part.degrees[row]))


class _Part(NamedTuple):
    """One suite block of a campaign: the report index of its first graph,
    its graphs' rows of their order's pair states and degrees (views, not
    copies), and the block."""

    first: int
    states: np.ndarray
    degrees: np.ndarray
    block: _Block


#: Most graphs in one run of a render, so a block of 1,024 renders in four.
_RUN = 256


def _own_in(rows: np.ndarray, lo: int, hi: int) -> list[int]:
    """The rows in lo:hi of a column's sorted own rows."""
    return rows[slice(*np.searchsorted(rows, (lo, hi)).tolist())].tolist()


#: The record whose reason marks a divergence.
_DIVERGENCE = "minus_one_vs_positive_bipartite"


class _Tally(NamedTuple):
    failures: list[tuple[int, _Column, int]]
    skips: int
    divergences: int
    max_abs_slack: dict[str, float]


def _tally(parts: tuple[_Part, ...]) -> _Tally:
    """Failures (graph index, column, row, in record order), skips,
    divergences and the largest |slack| per check name (the part before
    any ':'), read off the columns a block at a time.  A row of its own
    counts by its own fields; a nan slack counts as 0.  Each graph has one
    divergence row, in a column of that one name."""
    failures: list[tuple[int, _Column, int]] = []
    skips = divergences = 0
    slack: dict[str, float] = {}
    prefixes: dict[str, str] = {}

    def note(name: str, value: float) -> None:
        key = prefixes.get(name)
        if key is None:
            key = prefixes[name] = name.split(":", 1)[0]
        slack[key] = max(slack.get(key, 0.0), value)

    for first, states, _, block in parts:
        found = []
        for c, column in enumerate(block.columns):
            names, own = column.name, column.own
            if column.bounds is None:
                graph_of = range(len(states))
            else:
                graph_of = np.repeat(np.arange(len(states)),
                                     np.diff(column.bounds)).tolist()
            found += [(graph_of[i], c, i) for i in
                      (~column.ok).nonzero()[0].tolist() if i not in own]
            for i, (satisfied, skipped, _, _, value, _) in own.items():
                if skipped:
                    skips += 1
                    continue
                if not satisfied:
                    found.append((graph_of[i], c, i))
                if value is not None:
                    note(names if isinstance(names, str) else names[i],
                         abs(value))
            if column.slack is not None:
                plain = np.ones(len(column.ok), dtype=bool)
                plain[list(own)] = False
                values = np.abs(column.slack[plain])
                if len(values):
                    # the names of a column with numbers share their prefix
                    note(names if isinstance(names, str)
                         else names[int(plain.argmax())],
                         float(np.fmax.reduce(values)))
            if names == _DIVERGENCE:
                divergences += sum(bool(fields[5]) for fields in own.values())
        found.sort()
        failures += [(first + g, block.columns[c], row)
                     for g, c, row in found]
    return _Tally(failures, skips, divergences, slack)


class CampaignResult(_Record):
    """A campaign's config, its suite blocks and their number of checks.
    It compares and hashes by identity, as its blocks hold arrays, keeps a
    ``__dict__`` for the cached tally and results, and its repr shows the
    config and the counts, not the blocks."""

    _fields = ("config", "blocks", "checks")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, config: CampaignConfig,
                 blocks: tuple[_Part, ...]) -> None:
        _set(self, "config", config)
        _set(self, "blocks", blocks)
        _set(self, "checks", sum(len(column.ok) for part in blocks
                                 for column in part.block.columns))

    def __repr__(self) -> str:
        return (f"CampaignResult(config={self.config!r}, graphs={self.graphs!r}, "
                f"checks={self.checks!r})")

    @property
    def graphs(self) -> int:
        return sum(len(part.states) for part in self.blocks)

    @functools.cached_property
    def results(self) -> tuple[GraphResult, ...]:
        """One result per graph, in report order, made on first read."""
        return tuple(GraphResult(part.first + row,
                                 TheoremSuite(part.block, row), part)
                     for part in self.blocks
                     for row in range(len(part.states)))

    @functools.cached_property
    def _tally(self) -> _Tally:
        """The summary, read off the columns on first use (not in
        run_campaign, whose time should be the checks alone)."""
        return _tally(self.blocks)

    @property
    def failures(self) -> list[tuple[int, CheckRecord]]:
        """(graph index, record) per failing record; the records are made
        on each call."""
        return [(i, column.records(row, row + 1)[0])
                for i, column, row in self._tally.failures]

    @property
    def skip_count(self) -> int:
        return self._tally.skips

    @property
    def divergence_count(self) -> int:
        """Graphs whose minus_one_vs_positive_bipartite record has a reason."""
        return self._tally.divergences

    def max_abs_slack(self) -> dict[str, float]:
        """Per check name, the largest |slack| seen (skips excluded)."""
        return dict(self._tally.max_abs_slack)


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """The suite on each order's population, straight from its pair-state
    arrays, kept as its blocks: no graph or per-graph result is built."""
    parts: list[_Part] = []
    for n in range(config.n_min, config.n_max + 1):
        first = sum(len(part.states) for part in parts)
        states, degrees = _order_states(
            n, config.min_degree, config.sample_limit, config.seed)
        parts += [_Part(first + rows.start, states[rows], degrees[rows], block)
                  for rows, block in _suite_blocks(
                      n, len(states), lambda start, stop: _state_table(
                          states[start:stop], degrees[start:stop]))]
    return CampaignResult(config, tuple(parts))


def format_float(x: float) -> str:
    """17 significant digits; the one float rendering used in reports."""
    return f"{float(x):.17g}"


def _format_floats(xs: list[float]) -> list[str]:
    """format_float of each Python float of ``xs``, without a call each."""
    return [f"{x:.17g}" for x in xs]


def json_scalar(v) -> str:
    """A report scalar (None, bool, int, float or str) as JSON text; any
    other value, a numpy bool or integer included, raises TypeError."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"not a report scalar: {v!r}")


def json_object(items: list[tuple[str, str]]) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in items) + "}"


#: The fields of a record after its name, in report order: the CSV columns
#: after ``check`` and the keys of each JSON check object.
RECORD_FIELDS = ("lhs", "rhs", "slack", "satisfied", "skipped", "reason")

_BOOLS = ("false", "true")


class _Style(NamedTuple):
    """How one report format writes a record: each name's text, any
    report scalar's text (TypeError for anything else), the text after
    the name and after each of RECORD_FIELDS, and per verdict the text
    from satisfied on of a row that is neither skipped nor has a reason,
    with and without the three missing numbers before it."""

    name: Callable[[str], str]
    scalar: Callable[[object], str]
    after: tuple[str, ...]
    tails: tuple[str, str]
    blanks: tuple[str, str]


def _style(name: Callable[[str], str], scalar: Callable[[object], str],
           after: tuple[str, ...], null: str) -> _Style:
    nulls = f"{null}{after[1]}{null}{after[2]}{null}"
    tails = tuple(f"{after[3]}{ok}{after[4]}false{after[5]}{scalar('')}"
                  f"{after[6]}" for ok in _BOOLS)
    return _Style(name, scalar, after, tails, tuple(nulls + t for t in tails))


class _Heads(dict):
    """Each distinct name's text and the separator after it, made once
    per render."""

    def __init__(self, style: _Style) -> None:
        super().__init__()
        self.style = style

    def __missing__(self, name: str) -> str:
        text = self[name] = self.style.name(name) + self.style.after[0]
        return text


def _own_text(head: str, fields: tuple, style: _Style) -> str:
    """A row with fields of its own, (satisfied, skipped, lhs, rhs, slack,
    reason), each through the format's scalar check."""
    satisfied, skipped, lhs, rhs, slack, reason = fields
    return head + "".join(
        style.scalar(value) + sep for value, sep in
        zip((lhs, rhs, slack, satisfied, skipped, reason), style.after[1:]))


def _column_texts(column: _Column, lo: int, hi: int, own_rows: np.ndarray,
                  numbers: list | None, style: _Style, heads: _Heads,
                  shared: dict) -> list[str]:
    """The texts of rows lo:hi of a column, with ``own_rows`` its sorted
    rows of ``own`` and ``numbers`` its lhs, rhs and slack texts.  A row of
    the arrays is one f-string, or without numbers its name's text for its
    ok; one without numbers of its own is made once per render and name."""
    names = column.name
    row_heads = (repeat(heads[names]) if isinstance(names, str)
                 else [heads[name] for name in names[lo:hi]])
    ok = column.ok[lo:hi].tolist()
    tails = style.tails
    if numbers is None:
        texts = [head + style.blanks[o] for head, o in zip(row_heads, ok)]
    else:
        lhs, rhs, slack = numbers
        if isinstance(column.rhs, float):
            mid = f"{style.after[1]}{rhs[0]}{style.after[2]}"
            texts = [f"{head}{a}{mid}{c}{tails[o]}"
                     for head, a, c, o in zip(row_heads, lhs, slack, ok)]
        else:
            to_rhs, to_slack = style.after[1:3]
            texts = [f"{head}{a}{to_rhs}{b}{to_slack}{c}{tails[o]}"
                     for head, a, b, c, o in zip(row_heads, lhs, rhs,
                                                 slack, ok)]
    for row in _own_in(own_rows, lo, hi):
        fields = column.own[row]
        head = heads[names if isinstance(names, str) else names[row]]
        if fields[2] is not None:
            texts[row - lo] = _own_text(head, fields, style)
            continue
        key = (head, id(fields))
        text = shared.get(key)
        if text is None:
            text = shared[key] = _own_text(head, fields, style)
        texts[row - lo] = text
    return texts


class _Floats:
    """A render's format_float texts by float64 bit pattern, in sorted
    int64 keys and an object array.  A run formats the floats not found and
    merges them in, or, if under a third were found, keeps only its own."""

    keys, texts = np.empty(0, np.int64), np.empty(0, object)

    def __call__(self, bits: np.ndarray) -> list[str]:
        distinct, inverse = np.unique(bits, return_inverse=True)
        at = np.searchsorted(self.keys, distinct)
        hit = at < len(self.keys)
        hit[hit] = self.keys[at[hit]] == distinct[hit]
        miss = ~hit
        texts = np.empty(len(distinct), object)
        texts[hit] = self.texts[at[hit]]
        merge = 3 * np.count_nonzero(hit) >= len(distinct)
        if not merge:  # free the old texts before making new ones
            self.keys, self.texts = distinct, texts
        texts[miss] = _format_floats(distinct[miss].view(np.float64).tolist())
        if merge:
            self.keys = np.insert(self.keys, at[miss], distinct[miss])
            self.texts = np.insert(self.texts, at[miss], texts[miss])
        return texts[inverse].tolist()


def _block_numbers(block: _Block, spans: list[tuple[int, int]],
                   floats: _Floats) -> list[list[list[str]] | None]:
    """Per column, the texts of the lhs, rhs and slack of its rows in
    ``spans`` (one rhs text when it is one float for every row), or None
    for a column without numbers; ``floats`` is the render's one table."""
    arrays = []
    for column, (lo, hi) in zip(block.columns, spans):
        if column.lhs is not None:
            rhs = column.rhs
            arrays += [column.lhs[lo:hi],
                       np.array([rhs]) if isinstance(rhs, float) else rhs[lo:hi],
                       column.slack[lo:hi]]
    if not arrays:
        return [None] * len(spans)
    texts = floats(np.concatenate(arrays).view(np.int64))
    ends = np.cumsum([len(a) for a in arrays]).tolist()
    parts = iter([texts[a:b] for a, b in zip([0] + ends, ends)])
    return [None if column.lhs is None else [next(parts) for _ in range(3)]
            for column in block.columns]


def _block_rows(block: _Block, first: int, stop: int, own_rows: list,
                style: _Style, heads: _Heads, shared: dict, floats: _Floats
                ) -> Iterator[list[str]]:
    """Per graph first:stop of a block, its record texts in report order,
    formatted a column at a time."""
    spans = [column.span(first, stop) for column in block.columns]
    segments: list = []
    per_graph: list[list[str]] = []
    for column, (lo, hi), rows, numbers in zip(
            block.columns, spans, own_rows,
            _block_numbers(block, spans, floats)):
        texts = _column_texts(column, lo, hi, rows, numbers, style, heads,
                              shared)
        if column.bounds is None:
            per_graph.append(texts)
            continue
        if per_graph:
            segments.append(zip(*per_graph))
            per_graph = []
        ends = [end - lo for end in column.bounds[first:stop + 1]]
        segments.append([texts[a:b] for a, b in zip(ends, ends[1:])])
    if per_graph:
        segments.append(zip(*per_graph))
    for parts in zip(*segments):
        yield [text for part in parts for text in part]


class _Labels(dict):
    """Per order n, the edge_label of each vertex pair in each state, as an
    object array read at [pair, state], made once per render."""

    def __missing__(self, n: int) -> np.ndarray:
        table = self[n] = np.array(
            [[e and edge_label(e) for e in records]
             for records in _pair_table(n)[0].tolist()], dtype=object)
        return table


def _result_rows(parts: tuple[_Part, ...], style: _Style
                 ) -> Iterator[tuple[int, int, str, list[str]]]:
    """Each graph's index, order, edge_list_label and record texts, a run
    of at most _RUN graphs of a block at a time."""
    heads, shared, tables, floats = _Heads(style), {}, _Labels(), _Floats()
    for first, states, degrees, block in parts:
        n = degrees.shape[1]
        own_rows = [np.sort(np.fromiter(c.own, np.intp, len(c.own)))
                    for c in block.columns]
        for lo in range(0, len(states), _RUN):
            hi = min(lo + _RUN, len(states))
            for index, label, rows in zip(
                    range(first + lo, first + hi),
                    map(" ".join, _row_entries(tables[n], states[lo:hi])),
                    _block_rows(block, lo, hi, own_rows, style, heads,
                                shared, floats)):
                yield index, n, label, rows


def json_checks(records) -> str:
    """The JSON object mapping each record's name to its fields, each
    record written as a row with fields of its own."""
    heads = _Heads(_JSON)
    return "{" + ", ".join(
        _own_text(heads[r.name], (r.satisfied, r.skipped, r.lhs, r.rhs,
                                  r.slack, r.reason), _JSON)
        for r in records) + "}"


def _config_items(config: CampaignConfig) -> list[tuple[str, str]]:
    # output path deliberately left out: reports must be byte-identical
    # regardless of where they land; connected_only states the population
    # convention, which no config changes
    return [
        ("n_min", json_scalar(config.n_min)),
        ("n_max", json_scalar(config.n_max)),
        ("connected_only", "true"),
        ("min_degree", json_scalar(config.min_degree)),
        ("sample_limit", json_scalar(config.sample_limit)),
        ("seed", json_scalar(config.seed)),
        ("format", json_scalar(config.format)),
    ]


def _json_graphs(result: CampaignResult) -> Iterator[str]:
    """The entries of the report's "graphs" list, one line per graph."""
    last = result.graphs - 1
    for index, n, label, rows in _result_rows(result.blocks, _JSON):
        end = ",\n" if index < last else "\n"
        yield (f'{{"index": {index}, "n": {n}, '
               f'"edges": {json_scalar(label)}, '
               f'"checks": {{{", ".join(rows)}}}}}{end}')


def render_json(result: CampaignResult) -> str:
    out = StringIO()
    out.write("{\n")
    out.write(f'"config": {json_object(_config_items(result.config))},\n')
    out.write('"graphs": [\n')
    out.writelines(_json_graphs(result))
    out.write("],\n")
    slack_items = [(k, format_float(v))
                   for k, v in sorted(result.max_abs_slack().items())]
    summary = json_object([
        ("graphs", json_scalar(result.graphs)),
        ("checks", json_scalar(result.checks)),
        ("failures", json_scalar(len(result._tally.failures))),
        ("skips", json_scalar(result.skip_count)),
        ("divergences", json_scalar(result.divergence_count)),
        ("max_abs_slack", json_object(slack_items)),
    ])
    out.write(f'"summary": {summary}\n')
    out.write("}\n")
    return out.getvalue()


_CSV_HEADER = ",".join(("index", "n", "edges", "check") + RECORD_FIELDS) + "\n"


def _csv_cell(v) -> str:
    """A report scalar as a CSV cell: None empty, a str quoted when it holds
    a comma, quote, newline or carriage return, anything else as
    json_scalar renders it (and rejects it)."""
    if v is None:
        return ""
    if isinstance(v, str):
        if "," in v or '"' in v or "\n" in v or "\r" in v:
            return '"' + v.replace('"', '""') + '"'
        return str(v)
    return json_scalar(v)


_CSV = _style(_csv_cell, _csv_cell, (",",) * 6 + ("\n",), "")
_JSON = _style(json.dumps, json_scalar, tuple(
    f'{", " if i else ": {"}{json.dumps(k)}: '
    for i, k in enumerate(RECORD_FIELDS)) + ("}",), "null")


def _csv_rows(parts: tuple[_Part, ...]) -> Iterator[str]:
    """The report's rows after the header, one string per graph."""
    for index, n, label, rows in _result_rows(parts, _CSV):
        prefix = f"{index},{n},{_csv_cell(label)},"
        yield prefix + prefix.join(rows)


def render_csv(result: CampaignResult) -> str:
    out = StringIO()
    out.write(_CSV_HEADER)
    out.writelines(_csv_rows(result.blocks))
    return out.getvalue()


def summary_text(result: CampaignResult) -> str:
    lines = [
        f"graphs {result.graphs}",
        f"checks {result.checks}",
        f"failures {len(result._tally.failures)}",
        f"skips {result.skip_count}",
        f"divergences {result.divergence_count}",
    ]
    for name, value in sorted(result.max_abs_slack().items()):
        lines.append(f"max_abs_slack {name} {format_float(value)}")
    return "\n".join(lines) + "\n"


def with_overrides(config: CampaignConfig, **overrides) -> CampaignConfig:
    supplied = {k: v for k, v in overrides.items() if v is not None}
    if not supplied:
        return config
    fields = {name: getattr(config, name) for name in config._fields}
    return CampaignConfig(**fields | supplied)
