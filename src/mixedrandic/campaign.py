"""Enumeration campaigns: the full checker suite over many small graphs.

Population convention, used by the campaigns and the test suite alike:
connected mixed graphs with every degree >= 1, enumerated exhaustively for
n <= 4 (3, 54 and 3834 graphs) and sampled with a seeded generator for
n in {5, 6}, where the 4-states-per-pair space is out of reach.

Reports are byte-deterministic for a fixed configuration: all floats are
rendered with 17 significant digits by one formatter shared between the JSON
and CSV encoders, and records keep enumeration order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from io import StringIO

from .enumeration import enumerate_mixed_graphs, sample_mixed_graphs
from .graphs import MixedGraph, ParseError
from .theorems import CheckRecord, TheoremSuite, run_theorem_suites

#: Largest n enumerated exhaustively; larger sizes are sampled.
EXHAUSTIVE_LIMIT = 4

DEFAULT_SAMPLE = 500
DEFAULT_SEED = 1729


def population(n: int, connected_only: bool = True, min_degree: int = 1,
               sample_limit: int | None = None,
               seed: int = DEFAULT_SEED) -> list[MixedGraph]:
    """The graphs of one order, exhaustive or sampled depending on n."""
    if n <= EXHAUSTIVE_LIMIT:
        graphs = list(enumerate_mixed_graphs(
            n, connected_only=connected_only, min_degree=min_degree))
        if sample_limit is not None:
            graphs = graphs[:sample_limit]
        return graphs
    count = DEFAULT_SAMPLE if sample_limit is None else sample_limit
    return sample_mixed_graphs(n, count, seed, connected_only=connected_only,
                               min_degree=min_degree)


@dataclass(frozen=True)
class CampaignConfig:
    n_min: int = 2
    n_max: int = 4
    connected_only: bool = True
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
    "connected_only": bool,
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
        kind = _CONFIG_KEYS[key]
        if kind is bool:
            if value not in ("true", "false"):
                raise ParseError(f"line {lineno}: {key} must be true or false")
            values[key] = value == "true"
        elif kind is int:
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
    return " ".join(str(e).replace(" ", "") for e in g.edges)


@dataclass(frozen=True)
class GraphResult:
    index: int
    graph: MixedGraph
    suite: TheoremSuite


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    results: tuple[GraphResult, ...]
    checks: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        total = sum(len(r.suite.records) for r in self.results)
        object.__setattr__(self, "checks", total)

    @property
    def failures(self) -> list[tuple[int, CheckRecord]]:
        out = []
        for r in self.results:
            out.extend((r.index, rec) for rec in r.suite.failures)
        return out

    @property
    def skip_count(self) -> int:
        return sum(len(r.suite.skips) for r in self.results)

    @property
    def divergence_count(self) -> int:
        count = 0
        for r in self.results:
            rec = r.suite.as_dict().get("minus_one_vs_positive_bipartite")
            if rec is not None and rec.reason:
                count += 1
        return count

    def max_abs_slack(self) -> dict[str, float]:
        """Per check name, the largest |slack| seen (skips excluded)."""
        out: dict[str, float] = {}
        for r in self.results:
            for rec in r.suite.records:
                if rec.skipped or rec.slack is None:
                    continue
                name = rec.name.split(":", 1)[0]
                out[name] = max(out.get(name, 0.0), abs(rec.slack))
        return out


def run_campaign(config: CampaignConfig) -> CampaignResult:
    graphs: list[MixedGraph] = []
    for n in range(config.n_min, config.n_max + 1):
        graphs.extend(population(
            n, connected_only=config.connected_only,
            min_degree=config.min_degree, sample_limit=config.sample_limit,
            seed=config.seed))
    results = tuple(GraphResult(i, g, suite) for i, (g, suite)
                    in enumerate(zip(graphs, run_theorem_suites(graphs))))
    return CampaignResult(config, results)


def format_float(x: float) -> str:
    """17 significant digits; the one float rendering used in reports."""
    return format(float(x), ".17g")


def json_scalar(v) -> str:
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


def _record_fields(rec: CheckRecord) -> list[tuple[str, object]]:
    return [
        ("lhs", rec.lhs),
        ("rhs", rec.rhs),
        ("slack", rec.slack),
        ("satisfied", rec.satisfied),
        ("skipped", rec.skipped),
        ("reason", rec.reason),
    ]


def json_object(items: list[tuple[str, str]]) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in items) + "}"


def json_checks(records) -> str:
    """The JSON object mapping each record's name to its fields."""
    return json_object([
        (rec.name, json_object([(k, json_scalar(v))
                                for k, v in _record_fields(rec)]))
        for rec in records
    ])


def _config_items(config: CampaignConfig) -> list[tuple[str, str]]:
    # output path deliberately left out: reports must be byte-identical
    # regardless of where they land
    return [
        ("n_min", json_scalar(config.n_min)),
        ("n_max", json_scalar(config.n_max)),
        ("connected_only", json_scalar(config.connected_only)),
        ("min_degree", json_scalar(config.min_degree)),
        ("sample_limit", json_scalar(config.sample_limit)),
        ("seed", json_scalar(config.seed)),
        ("format", json_scalar(config.format)),
    ]


def render_json(result: CampaignResult) -> str:
    out = StringIO()
    out.write("{\n")
    out.write(f'"config": {json_object(_config_items(result.config))},\n')
    out.write('"graphs": [\n')
    for i, r in enumerate(result.results):
        line = json_object([
            ("index", json_scalar(r.index)),
            ("n", json_scalar(r.graph.n)),
            ("edges", json_scalar(edge_list_label(r.graph))),
            ("checks", json_checks(r.suite.records)),
        ])
        out.write(line)
        out.write(",\n" if i + 1 < len(result.results) else "\n")
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


_CSV_HEADER = "index,n,edges,check,lhs,rhs,slack,satisfied,skipped,reason"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    text = str(v)
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_csv(result: CampaignResult) -> str:
    out = StringIO()
    out.write(_CSV_HEADER + "\n")
    for r in result.results:
        prefix = [_csv_cell(r.index), _csv_cell(r.graph.n),
                  _csv_cell(edge_list_label(r.graph))]
        for rec in r.suite.records:
            cells = prefix + [_csv_cell(rec.name)]
            cells += [_csv_cell(v) for _, v in _record_fields(rec)]
            out.write(",".join(cells))
            out.write("\n")
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
