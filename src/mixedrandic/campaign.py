"""Enumeration campaigns: the full checker suite over many small graphs.

Population convention, used by the campaigns and the test suite alike:
connected mixed graphs with every degree >= 1, enumerated exhaustively for
n <= 4 (3, 54 and 3834 graphs) and sampled with a seeded generator for
n in {5, 6}, where the 4-states-per-pair space is out of reach.

Reports are byte-deterministic for a fixed configuration: all floats are
rendered with 17 significant digits (``format_float``'s ``.17g``), and
records keep enumeration order.

Each record is formatted in one step: one f-string per record in each
format, its fields in RECORD_FIELDS order, with each distinct name's text
made once per render and the records that the suite shares between graphs
(reason-less flags and skips) formatted once and found again by identity.
The one-step path takes only exact float, bool, str and None values; any
other value goes through ``json_scalar``'s check, so a numpy float renders
as a float and a numpy bool raises TypeError in both formats.  A render
writes its records to a StringIO one graph's text at a time, which the
StringIO keeps until getvalue joins them.  It does not collect every line
in one list to join: on the n <= 4 report that would hold 123,015 string
headers at once (about 7 MB more at the render's peak), and the JSON render
is already a campaign's memory peak.  Nor does it write texts of many
graphs: those are strings of megabytes around the final join, and where
the join's copy of the report lands among them decides whether a process
that runs campaign after campaign stays at its resident peak or grows by
a report.  Replaying the n <= 4 passes of the benchmark, 8 per process on
2 cores, the resident peak was 95.1-95.6 MB in each of 16 processes one
graph at a time; with 512-graph chunks it was 99.4-100.3 MB in 17 of 20
and 112-114 MB in 3.
The failure, skip, divergence and slack summary is one walk over the
records, made on first use and kept.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from io import StringIO
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

from .enumeration import enumerate_mixed_graphs, sample_mixed_graphs
from .graphs import MixedGraph, ParseError, edge_label
from .theorems import CheckRecord, TheoremSuite, run_theorem_suites

#: Largest n enumerated exhaustively; larger sizes are sampled.
EXHAUSTIVE_LIMIT = 4

DEFAULT_SAMPLE = 500
DEFAULT_SEED = 1729


def population(n: int, min_degree: int = 1, sample_limit: int | None = None,
               seed: int = DEFAULT_SEED) -> list[MixedGraph]:
    """The connected graphs of one order, sampled above EXHAUSTIVE_LIMIT."""
    if n <= EXHAUSTIVE_LIMIT:
        graphs = list(enumerate_mixed_graphs(
            n, connected_only=True, min_degree=min_degree))
        if sample_limit is not None:
            graphs = graphs[:sample_limit]
        return graphs
    count = DEFAULT_SAMPLE if sample_limit is None else sample_limit
    return sample_mixed_graphs(n, count, seed, connected_only=True,
                               min_degree=min_degree)


@dataclass(frozen=True)
class CampaignConfig:
    n_min: int = 2
    n_max: int = 4
    min_degree: int = 1
    sample_limit: int | None = None
    seed: int = DEFAULT_SEED
    format: str = "json"
    output: str | None = None

    def __post_init__(self) -> None:
        if self.n_min < 2 or self.n_max < self.n_min:
            raise ValueError(f"bad vertex range {self.n_min}..{self.n_max}")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown report format {self.format!r}")
        if not 0 <= self.min_degree <= self.n_min - 1:
            raise ValueError(f"min_degree must be in 0..n_min - 1 = {self.n_min - 1}")
        if self.sample_limit is not None and self.sample_limit < 0:
            raise ValueError("sample_limit must be >= 0")


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


@dataclass(frozen=True)
class GraphResult:
    index: int
    graph: MixedGraph
    suite: TheoremSuite


class _Tally(NamedTuple):
    failures: tuple[tuple[int, CheckRecord], ...]
    skips: int
    divergences: int
    max_abs_slack: dict[str, float]


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    results: tuple[GraphResult, ...]
    checks: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        total = sum(len(r.suite.records) for r in self.results)
        object.__setattr__(self, "checks", total)

    @functools.cached_property
    def _tally(self) -> _Tally:
        """Failures, skips, divergences and the largest |slack| per check
        name, from one walk over the records on first use (not in
        run_campaign, whose time should be the checks alone)."""
        failures = []
        skips = divergences = 0
        slack: dict[str, float] = {}
        prefixes: dict[str, str] = {}
        for r in self.results:
            diverged = False
            for rec in r.suite.records:
                if rec.name == "minus_one_vs_positive_bipartite":
                    diverged = bool(rec.reason)
                if rec.skipped:
                    skips += 1
                    continue
                if not rec.satisfied:
                    failures.append((r.index, rec))
                if rec.slack is not None:
                    name = prefixes.get(rec.name)
                    if name is None:
                        name = prefixes[rec.name] = rec.name.split(":", 1)[0]
                    slack[name] = max(slack.get(name, 0.0), abs(rec.slack))
            divergences += diverged
        return _Tally(tuple(failures), skips, divergences, slack)

    @property
    def failures(self) -> list[tuple[int, CheckRecord]]:
        return list(self._tally.failures)

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
    graphs: list[MixedGraph] = []
    for n in range(config.n_min, config.n_max + 1):
        graphs.extend(population(
            n, min_degree=config.min_degree, sample_limit=config.sample_limit,
            seed=config.seed))
    results = tuple(GraphResult(i, g, suite) for i, (g, suite)
                    in enumerate(zip(graphs, run_theorem_suites(graphs))))
    return CampaignResult(config, results)


def format_float(x: float) -> str:
    """17 significant digits; the one float rendering used in reports."""
    return format(float(x), ".17g")


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

_record_values = attrgetter("name", *RECORD_FIELDS)

#: Each field's JSON key and separator, '"lhs": ' and so on.
_LHS, _RHS, _SLACK, _SATISFIED, _SKIPPED, _REASON = (
    f"{json.dumps(k)}: " for k in RECORD_FIELDS)

_BOOLS = ("false", "true")
_EMPTY = json.dumps("")


def _json_record(rec: CheckRecord, names: dict[str, str]) -> str:
    """One record as `"name": {...}`.  Exact floats, bools and strs are
    formatted in one step; any other value goes through json_scalar.
    ``names`` caches each name's JSON text within one render."""
    name, lhs, rhs, slack, satisfied, skipped, reason = _record_values(rec)
    key = names.get(name)
    if key is None:
        key = names[name] = json.dumps(name)
    if type(satisfied) is bool and type(skipped) is bool and type(reason) is str:
        text = json.dumps(reason) if reason else _EMPTY
        flags = (f"{_SATISFIED}{_BOOLS[satisfied]}, "
                 f"{_SKIPPED}{_BOOLS[skipped]}, {_REASON}{text}}}")
        if type(lhs) is float and type(rhs) is float and type(slack) is float:
            return (f"{key}: {{{_LHS}{lhs:.17g}, {_RHS}{rhs:.17g}, "
                    f"{_SLACK}{slack:.17g}, {flags}")
        if lhs is None and rhs is None and slack is None:
            return f"{key}: {{{_LHS}null, {_RHS}null, {_SLACK}null, {flags}"
    return f"{key}: " + json_object(list(zip(RECORD_FIELDS, map(
        json_scalar, (lhs, rhs, slack, satisfied, skipped, reason)))))


def _cached(format_record: Callable[[CheckRecord, dict], str]
            ) -> Callable[[CheckRecord], str]:
    """format_record with the caches of one render: each distinct name's
    text, and the text of each record without numbers, found again by
    identity, since the suite shares such records between graphs."""
    names: dict[str, str] = {}
    shared: dict[int, str] = {}

    def formatted(rec: CheckRecord) -> str:
        if rec.lhs is None:
            text = shared.get(id(rec))
            if text is None:
                text = shared[id(rec)] = format_record(rec, names)
            return text
        return format_record(rec, names)

    return formatted


def _json_checks(records, formatted: Callable[[CheckRecord], str]) -> str:
    return "{" + ", ".join([formatted(rec) for rec in records]) + "}"


def json_checks(records) -> str:
    """The JSON object mapping each record's name to its fields."""
    return _json_checks(records, _cached(_json_record))


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


def _json_graphs(results: tuple[GraphResult, ...]) -> Iterator[str]:
    """The entries of the report's "graphs" list, one line per graph."""
    formatted = _cached(_json_record)
    last = len(results) - 1
    for i, r in enumerate(results):
        end = ",\n" if i < last else "\n"
        yield (f'{{"index": {json_scalar(r.index)}, '
               f'"n": {json_scalar(r.graph.n)}, '
               f'"edges": {json_scalar(edge_list_label(r.graph))}, '
               f'"checks": {_json_checks(r.suite.records, formatted)}}}{end}')


def render_json(result: CampaignResult) -> str:
    out = StringIO()
    out.write("{\n")
    out.write(f'"config": {json_object(_config_items(result.config))},\n')
    out.write('"graphs": [\n')
    out.writelines(_json_graphs(result.results))
    out.write("],\n")
    slack_items = [(k, format_float(v))
                   for k, v in sorted(result.max_abs_slack().items())]
    summary = json_object([
        ("graphs", json_scalar(len(result.results))),
        ("checks", json_scalar(result.checks)),
        ("failures", json_scalar(len(result.failures))),
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
        if any(c in v for c in ',"\n\r'):
            return '"' + v.replace('"', '""') + '"'
        return str(v)
    return json_scalar(v)


def _csv_record(rec: CheckRecord, names: dict[str, str]) -> str:
    """One record's CSV cells from ``check`` on, and the newline.  Exact
    floats, bools and strs are formatted in one step; any other value goes
    through _csv_cell.  ``names`` caches each name's cell within one render."""
    name, lhs, rhs, slack, satisfied, skipped, reason = _record_values(rec)
    cell = names.get(name)
    if cell is None:
        cell = names[name] = _csv_cell(name)
    if type(satisfied) is bool and type(skipped) is bool and type(reason) is str:
        flags = (f"{_BOOLS[satisfied]},{_BOOLS[skipped]},"
                 f"{_csv_cell(reason) if reason else ''}\n")
        if type(lhs) is float and type(rhs) is float and type(slack) is float:
            return f"{cell},{lhs:.17g},{rhs:.17g},{slack:.17g},{flags}"
        if lhs is None and rhs is None and slack is None:
            return f"{cell},,,,{flags}"
    return ",".join([cell, *map(_csv_cell, (lhs, rhs, slack, satisfied,
                                             skipped, reason))]) + "\n"


def _csv_rows(results: tuple[GraphResult, ...]) -> Iterator[str]:
    """The report's rows after the header, one string per graph."""
    formatted = _cached(_csv_record)

    def graph_rows(r: GraphResult) -> str:
        rows = [formatted(rec) for rec in r.suite.records]
        if not rows:
            return ""
        prefix = (f"{_csv_cell(r.index)},{_csv_cell(r.graph.n)},"
                  f"{_csv_cell(edge_list_label(r.graph))},")
        return prefix + prefix.join(rows)

    return map(graph_rows, results)


def render_csv(result: CampaignResult) -> str:
    out = StringIO()
    out.write(_CSV_HEADER)
    out.writelines(_csv_rows(result.results))
    return out.getvalue()


def render_report(result: CampaignResult) -> str:
    if result.config.format == "csv":
        return render_csv(result)
    return render_json(result)


def summary_text(result: CampaignResult) -> str:
    lines = [
        f"graphs {len(result.results)}",
        f"checks {result.checks}",
        f"failures {len(result.failures)}",
        f"skips {result.skip_count}",
        f"divergences {result.divergence_count}",
    ]
    for name, value in sorted(result.max_abs_slack().items()):
        lines.append(f"max_abs_slack {name} {format_float(value)}")
    return "\n".join(lines) + "\n"


def with_overrides(config: CampaignConfig, **overrides) -> CampaignConfig:
    supplied = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **supplied) if supplied else config
