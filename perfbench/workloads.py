"""The three benchmark workloads: their inputs, the calls they make into
mixedrandic, and the correctness checks on every output.

Every call reaches the package through a module attribute looked up at call
time (``mr.campaign.run_campaign``), so the traced run's wrappers see it.
Graph inputs are generated here from the seed and handed to the program as
``mixedgraph v1`` files; the program sees nothing else of the seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import combinations
from pathlib import Path

from speed import Interval, SpeedProbe

#: The 27 per-graph checks besides one ``interlacing:<edge>`` per edge.
SUITE_NAMES = frozenset("""
unit_interval trace_zero second_moment incidence_factorization
laplacian_complement charpoly_agreement determinant_identity
one_implies_positive_simple positive_implies_one bipartite_iff_symmetric
minus_one_iff_antibalanced minus_one_vs_positive_bipartite
underlying_spectrum_iff_all_ones bipartite_positive_unit_eigenvalues
entry_sum_lower entry_sum_order entry_sum_upper entry_sum_spread
min_eigenvalue_square energy_lower_determinant energy_upper_moment
energy_lower_geometric energy_upper_exponential energy_upper_radius
energy_lower_min_modulus energy_lower_polya_szego energy_lower_ozeki
""".split())

#: The one documented failing check: bipartite <=> symmetric spectrum breaks
#: for sixth-root gains on non-bipartite graphs.
FINDING = "bipartite_iff_symmetric"

CSV_HEADER = ["index", "n", "edges", "check", "lhs", "rhs", "slack",
              "satisfied", "skipped", "reason"]

COMMANDS = ("check", "spectrum", "energy", "bounds", "charpoly", "interlace")

#: Every pass makes at least this many light requests, so the reported p95
#: always has at least ten samples beyond it.  The percentile is fixed, not
#: the highest with ten beyond it, so that light_tail_ms means the same
#: whatever number of passes a run has room for.
MIN_LIGHT_REQUESTS = 200
TAIL_PERCENT = 95

#: A campaign pass makes its light requests in this many groups: before the
#: campaign, between the renders and at the end.  Latency on a shared machine
#: drifts within seconds, and one group per pass sampled too little of it.
LIGHT_WINDOWS = 3
#: Light requests per campaign group.  A campaign pass takes 10 to 14 s on
#: the reference host, so a run has only two or three of them to sample the
#: light latencies in.
GROUP_LIGHT_REQUESTS = 400

TOL = 1e-9


class Tally:
    """Ops attempted and failed, and what went wrong with the failures.

    An op that raised is failed; an op whose exit code or output fails a
    check is failed and also makes the run incorrect, as does a fault of the
    benchmark's own tracer.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def raised(self, what: str, exc: BaseException) -> None:
        self._fail(f"{what}: raised {type(exc).__name__}: {exc}")

    def bad(self, what: str, why: str) -> None:
        self.wrong += 1
        self._fail(f"{what}: {why}")

    def incorrect(self, what: str, why: str) -> None:
        self.wrong += 1
        self.problems.append(f"{what}: {why}")

    def judge(self, what: str, problem: str | None) -> None:
        if problem:
            self.bad(what, problem)
        else:
            self.ok()

    def _fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


# ---------------------------------------------------------------- graphs

@dataclass(frozen=True)
class Graph:
    """A mixed graph as the benchmark writes it: (u, v, kind) triples with
    kind '--' (stored u < v) or '->' (arc u to v)."""

    n: int
    edges: tuple[tuple[int, int, str], ...]
    path: Path | None = None

    def text(self) -> str:
        lines = ["mixedgraph v1", f"vertices {self.n}"]
        lines += [f"{u} {kind} {v}" for u, v, kind in self.edges]
        return "\n".join(lines) + "\n"

    def degrees(self) -> list[int]:
        deg = [0] * (self.n + 1)
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def inverse_degree_sum(self) -> float:
        """sum over edges of 1/(d_u d_v): the Randic inverse index, equal
        to half the sum of squared eigenvalues and to -a_2."""
        deg = self.degrees()
        return sum(1.0 / (deg[u] * deg[v]) for u, v, _ in self.edges)

    def removable_edges(self) -> list[tuple[int, int, str]]:
        """Edges whose deletion leaves every degree >= 1."""
        deg = self.degrees()
        return [e for e in self.edges if deg[e[0]] > 1 and deg[e[1]] > 1]

    def labels(self) -> set[str]:
        return {f"{u}{kind}{v}" for u, v, kind in self.edges}


def is_bipartite(n: int, pairs) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    colour: dict[int, int] = {}
    for root in adj:
        if root in colour:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in colour:
                    colour[y] = 1 - colour[x]
                    stack.append(y)
                elif colour[y] == colour[x]:
                    return False
    return True


def _connected(n: int, pairs) -> bool:
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {1}, [1]
    while stack:
        for y in adj[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    return len(seen) == n


def connected_pairs(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A uniformly drawn connected simple graph with n vertices, m edges."""
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        chosen = sorted(rng.sample(pairs, m))
        if _connected(n, chosen):
            return chosen


def mixed(rng: random.Random, n: int, pairs) -> Graph:
    """Relabel the vertices and give each pair an un-oriented edge or an arc
    in either direction, all drawn from rng."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = []
    for u, v in pairs:
        a, b = perm[u - 1], perm[v - 1]
        kind = rng.randrange(3)
        if kind == 0:
            edges.append((min(a, b), max(a, b), "--"))
        else:
            edges.append((a, b, "->") if kind == 1 else (b, a, "->"))
    return Graph(n, tuple(edges))


def light_count(g: Graph) -> int:
    return len(requests_for(g, heavy=False))


#: The underlying simple graphs of the campaigns' light requests come from a
#: fixed stream, and only labels and orientations follow the seed, as for the
#: n = 10 set below.  The edge counts set how many `interlace` requests each
#: graph gets, so with a free draw the mix of request kinds, and with it
#: light_tail_ms, would change from seed to seed.
SPOT_SHAPE_SEED = 20230311


def spot_graphs(seed: int, orders: tuple[int, ...]) -> list[list[Graph]]:
    """Seeded connected graphs of the campaign's orders, in LIGHT_WINDOWS
    groups that each carry GROUP_LIGHT_REQUESTS light requests."""
    shapes = random.Random(SPOT_SHAPE_SEED)
    rng = random.Random(f"spot-{seed}")
    windows = []
    for _ in range(LIGHT_WINDOWS):
        graphs: list[Graph] = []
        while sum(map(light_count, graphs)) < GROUP_LIGHT_REQUESTS:
            n = orders[len(graphs) % len(orders)]
            m = shapes.randint(n - 1, n * (n - 1) // 2)
            graphs.append(mixed(rng, n, connected_pairs(shapes, n, m)))
        windows.append(graphs)
    return windows


#: Edge counts of the n = 10 set.  The combinatorial characteristic
#: polynomial behind `check` costs time exponential in the cycle count, so
#: the underlying simple graphs come from a fixed stream and only labels and
#: orientations follow the seed: every seed then asks for the same work.
N10_EDGES = (18, 20, 21, 22, 23, 24, 26, 28)
N10_SHAPE_SEED = 20230310


def n10_graphs(seed: int) -> list[Graph]:
    shapes = random.Random(N10_SHAPE_SEED)
    rng = random.Random(f"n10-{seed}")
    return [mixed(rng, 10, connected_pairs(shapes, 10, m)) for m in N10_EDGES]


def write_graphs(graphs: list[Graph], directory: Path,
                 prefix: str) -> list[Graph]:
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i, g in enumerate(graphs):
        path = directory / f"{prefix}{i:02d}.txt"
        path.write_text(g.text(), encoding="utf-8")
        out.append(replace(g, path=path))
    return out


# ------------------------------------------------------------- requests

@dataclass
class Pass:
    """Measurements of one pass of a workload."""

    report: Interval | None = None
    checks: list[Interval] = field(default_factory=list)
    light: list[Interval] = field(default_factory=list)
    # what the traced run needs to attribute spans
    requests: list[tuple[str, int | None]] = field(default_factory=list)
    graphs_checked: int = 0
    report_bytes: int = 0
    csv_noncanonical_bools: int = 0
    digests: dict[str, str] = field(default_factory=dict)


def _floats(text: str, key: str) -> list[float]:
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return [float(x) for x in line.split(":", 1)[1].split()]
    raise ValueError(f"no {key!r} line")


def _check_spectrum(g: Graph, out: str) -> str | None:
    vals = _floats(out, "eigenvalues")
    if len(vals) != g.n or vals != sorted(vals):
        return "eigenvalues not n ascending values"
    if max(abs(x) for x in vals) > 1 + TOL:
        return "eigenvalue outside [-1, 1]"
    if abs(sum(vals)) > TOL:
        return "trace not zero"
    if abs(sum(x * x for x in vals) - 2 * g.inverse_degree_sum()) > TOL:
        return "second moment differs from 2 * sum 1/(d_u d_v)"
    if abs(_floats(out, "energy")[0] - sum(abs(x) for x in vals)) > TOL:
        return "energy differs from sum |eigenvalue|"
    return None


def _check_energy(g: Graph, out: str) -> str | None:
    if abs(_floats(out, "randic_inverse")[0] - g.inverse_degree_sum()) > TOL:
        return "randic_inverse differs from sum 1/(d_u d_v)"
    if not _floats(out, "energy")[0] > 0:
        return "energy not positive"
    return None


def _check_bounds(g: Graph, out: str) -> str | None:
    if _floats(out, "n") != [g.n] or _floats(out, "edges") != [len(g.edges)]:
        return "wrong n or edge count"
    if any(line.startswith("FAIL ") for line in out.splitlines()):
        return "a bound failed"
    return None


def _check_charpoly(g: Graph, out: str) -> str | None:
    lines = out.splitlines()
    if lines[0] != "method numeric" or len(lines) != g.n + 2:
        return "not n + 1 numeric coefficients"
    a = [float(line.split()[1]) for line in lines[1:]]
    if a[0] != 1 or abs(a[1]) > TOL or abs(a[2] + g.inverse_degree_sum()) > TOL:
        return "a_0 != 1, a_1 != 0 or a_2 != -sum 1/(d_u d_v)"
    return None


def _check_interlace(g: Graph, out: str) -> str | None:
    verdicts = out.split("verdicts:", 1)[1].splitlines()[0].split()
    if verdicts != ["pass"] * g.n or "holds: true" not in out.splitlines():
        return "edge-deletion interlacing does not hold"
    return None


def _check_check(g: Graph, out: str, rc: int) -> str | None:
    lines = out.splitlines()
    records = [line.split()[:2] for line in lines[:-1]]
    names = {name for _, name in records}
    expected = SUITE_NAMES | {f"interlacing:{label}" for label in g.labels()}
    if names != expected or len(records) != len(expected):
        return "record names differ from the expected suite"
    failed = [name for verdict, name in records if verdict == "FAIL"]
    if failed and (failed != [FINDING]
                   or is_bipartite(g.n, [(u, v) for u, v, _ in g.edges])):
        return f"unexpected failures {failed}"
    if rc != (1 if failed else 0) or not lines[-1].startswith(
            f"failures: {len(failed)} "):
        return "exit code or failure count disagrees with the records"
    return None


_CHECKS = {
    "spectrum": _check_spectrum,
    "energy": _check_energy,
    "bounds": _check_bounds,
    "charpoly": _check_charpoly,
    "interlace": _check_interlace,
}


def _request_problem(g: Graph, command: str, out: str, rc: int) -> str | None:
    try:
        if command == "check":
            return _check_check(g, out, rc)
        return f"exit code {rc}" if rc != 0 else _CHECKS[command](g, out)
    except (ValueError, IndexError):
        return "malformed output"


def requests_for(g: Graph, heavy: bool) -> list[list[str]]:
    """The CLI argument lists asked about one graph, default text format."""
    path = str(g.path)
    argv = [["check", path]] if heavy else []
    argv += [["spectrum", path], ["energy", path], ["bounds", path],
             ["charpoly", path, "--method", "numeric"]]
    argv += [["interlace", path, "--edge", f"{u},{v}"]
             for u, v, _ in g.removable_edges()]
    return argv


def run_requests(mr, probe: SpeedProbe, graphs: list[Graph], heavy: bool,
                 tally: Tally, result: Pass) -> None:
    """One closed-loop pass: each request is one in-process `cli.main`."""
    for g in graphs:
        for argv in requests_for(g, heavy):
            what = " ".join([argv[0], g.path.name] + argv[2:])
            out = io.StringIO()
            probe.between_ops()
            mark = probe.mark()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = mr.cli.main(argv)
            except SystemExit as exc:  # argparse exits on a usage error
                rc = exc.code
            except Exception as exc:
                result.requests.append((argv[0], None))
                tally.raised(what, exc)
                continue
            span = probe.since(mark)
            command = argv[0]
            result.requests.append((command, rc))
            if command == "check":
                result.checks.append(span)
                result.graphs_checked += 1
            else:
                result.light.append(span)
            tally.judge(what, _request_problem(g, command, out.getvalue(), rc))


# ------------------------------------------------------------- campaigns

def _lines(text: str):
    """The lines of text, one at a time: a StringIO copy of a large report
    would count towards the peak memory being measured."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end + 1]
        start = end + 1


def _csv_problems(text: str, result, stats: Pass) -> str | None:
    """Header, one row per check, failing rows equal to the in-memory ones;
    counts the boolean cells printed as True/False along the way."""
    rows = csv.reader(_lines(text))
    if next(rows, None) != CSV_HEADER:
        return "bad CSV header"
    count = 0
    failing = set()
    for row in rows:
        count += 1
        flags = row[7:9]
        stats.csv_noncanonical_bools += sum(c in ("True", "False") for c in flags)
        if flags[0].lower() == "false" and flags[1].lower() == "false":
            failing.add((int(row[0]), row[3]))
    if count != result.checks:
        return f"CSV has {count} rows for {result.checks} checks"
    if failing != {(i, rec.name) for i, rec in result.failures}:
        return "CSV failing rows differ from the in-memory failures"
    return None


#: Parses a JSON report in a child process: the parsed document is larger
#: than the program's own peak, and would count towards peak_rss_mb here.
_JSON_CHECK = """\
import json, sys
with open(sys.argv[1], encoding="utf-8") as report:
    doc = json.load(report)
s = doc["summary"]
print(json.dumps([len(doc["graphs"]), s["graphs"], s["checks"], s["failures"]]))
"""


def _json_problems(path: Path, result) -> str | None:
    done = subprocess.run([sys.executable, "-c", _JSON_CHECK, str(path)],
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        return "JSON report does not parse"
    graphs = len(result.results)
    if json.loads(done.stdout) != [graphs, graphs, result.checks,
                                   len(result.failures)]:
        return "JSON summary disagrees with the campaign result"
    return None


@dataclass(frozen=True)
class CampaignSpec:
    n_min: int
    n_max: int
    graphs_per_order: dict[int, int]
    checks: int | None = None
    failures: int | None = None


def _result_problems(result, expect: CampaignSpec) -> str | None:
    if result.checks != sum(len(r.suite.records) for r in result.results):
        return "check count disagrees with the records"
    orders = [r.graph.n for r in result.results]
    for n, count in expect.graphs_per_order.items():
        if orders.count(n) != count:
            return f"{orders.count(n)} graphs of order {n}, expected {count}"
    if expect.checks is not None and result.checks != expect.checks:
        return f"{result.checks} checks, expected {expect.checks}"
    failures = result.failures
    for i, rec in failures:
        g = result.results[i].graph
        if rec.name != FINDING or is_bipartite(g.n, g.underlying_pairs()):
            return f"unexpected failure {rec.name} on graph {i}"
    if expect.failures is not None and len(failures) != expect.failures:
        return f"{len(failures)} failures, expected {expect.failures}"
    return None


def _note_report(stats: Pass, fmt: str, text: str,
                 copy_to: Path | None = None) -> None:
    """Size and sha256 of a report, optionally saved to a file, in chunks so
    that no whole encoded copy adds to the peak memory."""
    digest = hashlib.sha256()
    out = copy_to.open("wb") if copy_to else None
    try:
        for i in range(0, len(text), 1 << 20):
            chunk = text[i:i + (1 << 20)].encode()
            stats.report_bytes += len(chunk)
            digest.update(chunk)
            if out:
                out.write(chunk)
    finally:
        if out:
            out.close()
    stats.digests[f"{fmt}_sha256"] = digest.hexdigest()


def run_campaign_ops(mr, probe: SpeedProbe, spec: CampaignSpec, seed: int,
                     workdir: Path, tally: Tally, stats: Pass,
                     interlude) -> None:
    """run_campaign with the default config (jobs = 1), then both renders,
    with interlude() called between them."""
    config = mr.campaign.CampaignConfig(
        n_min=spec.n_min, n_max=spec.n_max, seed=seed, format="csv")
    mark = probe.mark()
    try:
        result = mr.campaign.run_campaign(config)
    except Exception as exc:
        tally.raised("run_campaign", exc)
        return
    stats.checks.append(probe.since(mark))
    try:
        text = mr.campaign.render_csv(result)
    except Exception as exc:
        text = None
        tally.raised("render csv", exc)
    else:
        stats.report = probe.since(mark)
    # checks run outside the timed span above
    stats.graphs_checked = len(result.results)
    tally.judge("run_campaign", _result_problems(result, spec))
    if text is not None:
        _note_report(stats, "csv", text)
        tally.judge("render csv", _csv_problems(text, result, stats))
        text = None  # not held while the JSON renders

    interlude()
    try:
        text = mr.campaign.render_json(result)
    except Exception as exc:
        tally.raised("render json", exc)
        stats.digests["json_sha256"] = "not rendered"
    else:
        path = workdir / "report.json"
        _note_report(stats, "json", text, copy_to=path)
        text = None
        tally.judge("render json", _json_problems(path, result))
        path.unlink()


# ------------------------------------------------------------- workloads

class Workload:
    """A campaign interleaved with light CLI requests, or (without a
    campaign) `check` and light requests about one graph set."""

    def __init__(self, spec: CampaignSpec | None, windows: list[list[Graph]],
                 seed: int, workdir: Path) -> None:
        self.spec = spec
        self.windows = windows
        self.seed = seed
        self.workdir = workdir

    def run_pass(self, mr, probe: SpeedProbe, tally: Tally) -> Pass:
        stats = Pass()
        if self.spec is None:
            mark = probe.mark()
            run_requests(mr, probe, self.windows[0], True, tally, stats)
            stats.report = probe.since(mark)
            return stats
        first, middle, last = (
            partial(run_requests, mr, probe, graphs, False, tally, stats)
            for graphs in self.windows)
        first()
        run_campaign_ops(mr, probe, self.spec, self.seed, self.workdir, tally,
                         stats, interlude=middle)
        last()
        return stats


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The named workload, its graph files written under workdir."""
    if name == "exhaustive-n4":
        spec = CampaignSpec(2, 4, {2: 3, 3: 54, 4: 3834}, checks=123015,
                            failures=540)
        windows = spot_graphs(seed, (4,))
    elif name == "sampled-n56":
        spec = CampaignSpec(5, 6, {5: 500, 6: 500})
        windows = spot_graphs(seed, (5, 6))
    elif name == "single-graph-n10":
        spec = None
        windows = [n10_graphs(seed)]
        if sum(map(light_count, windows[0])) < MIN_LIGHT_REQUESTS:
            raise RuntimeError("n = 10 set has too few light requests")
    else:
        raise ValueError(f"unknown workload {name!r}")
    windows = [write_graphs(graphs, workdir, f"w{k}-")
               for k, graphs in enumerate(windows)]
    return Workload(spec, windows, seed=seed, workdir=workdir)


WORKLOADS = ("exhaustive-n4", "sampled-n56", "single-graph-n10")


_PROBE_GRAPH = "mixedgraph v1\nvertices 4\n1 -- 2\n2 -> 3\n3 -> 1\n3 -- 4\n"


def tracer_probe(mr) -> None:
    """A small fixed input through every layer, for the tracer self-test."""
    config = mr.campaign.CampaignConfig(n_max=3, format="csv")
    mr.campaign.render_csv(mr.campaign.run_campaign(config))
    mr.graphs.parse_graph(_PROBE_GRAPH)
