import csv
import hashlib
import io
import json
import random
from itertools import combinations

import numpy as np
import pytest

from mixedrandic import ParseError, directed_cycle, path_graph, population
from mixedrandic.campaign import (
    CampaignConfig,
    CampaignResult,
    GraphResult,
    edge_list_label,
    format_float,
    json_checks,
    json_scalar,
    parse_campaign_config,
    render_csv,
    render_json,
    run_campaign,
    summary_text,
    with_overrides,
)
from mixedrandic import campaign, theorems
from mixedrandic.campaign import DEFAULT_SEED
from mixedrandic.graphs import EdgeKind
from mixedrandic.matrices import _state_table, edge_table
from mixedrandic.theorems import CheckRecord, TheoremSuite, _inequality


def records_block(records):
    """A suite block of one graph with the given records: one column of one
    row per record, the row with its own fields, as a campaign of kept
    records."""
    return theorems._Block(None, [theorems._Column(
        r.name, None, None, None, np.ones(1, dtype=bool),
        {0: (r.satisfied, r.skipped, r.lhs, r.rhs, r.slack, r.reason)})
        for r in records])


def pair_states(g):
    """g's row of pair states (pairs in ``combinations`` order: 0 absent,
    1 u -- v, 2 u -> v, 3 v -> u) and its degrees."""
    pairs = {p: i for i, p in enumerate(combinations(range(1, g.n + 1), 2))}
    row = np.zeros(len(pairs), dtype=np.int8)
    for e in g.edges:
        row[pairs[min(e.u, e.v), max(e.u, e.v)]] = (
            1 if e.kind is EdgeKind.UNDIRECTED else 2 if e.u < e.v else 3)
    return row, np.array(g.degrees())


def hand_result(config, blocks):
    """A campaign result of the given (graphs of one order, suite block)
    pairs, each graph written as its pair-state row."""
    parts, first = [], 0
    for graphs, block in blocks:
        states, degrees = map(np.array, zip(*map(pair_states, graphs)))
        parts.append(campaign._Part(first, states, degrees, block))
        first += len(graphs)
    return CampaignResult(config, tuple(parts))


def test_population_sizes():
    assert len(population(2)) == 3
    assert len(population(3)) == 54
    # 16 trees * 27 + 15 unicyclic * 81 + 6 five-edge * 243 + 729
    assert len(population(4)) == 3834
    assert len(population(5)) == 500
    assert len(population(6)) == 500


def test_population_is_deterministic():
    assert population(5) == population(5)
    assert population(5, seed=4) != population(5, seed=5)
    for g in population(5)[:50]:
        assert g.is_connected()
        assert min(g.degrees()) >= 1


def test_population_truncation():
    assert len(population(3, sample_limit=10)) == 10
    # the state array is cut before any graph is built: the same graphs,
    # edges in the same order
    cut, whole = population(4, sample_limit=10), population(4)[:10]
    assert cut == whole
    assert [(g.n, g.edges, g.degrees()) for g in cut] == [
        (g.n, g.edges, g.degrees()) for g in whole]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_state_table_is_the_edge_table_of_the_population(n):
    # every n <= 4 graph and the seed-1729 n = 5, 6 samples
    states, degrees = campaign._order_states(n, 1, None, DEFAULT_SEED)
    graphs = population(n)
    got, expected = _state_table(states, degrees), edge_table(graphs)
    assert got[0].dtype == expected[0].dtype
    assert np.array_equal(got[0], expected[0])
    for a, b in zip(got[1], expected[1]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_campaign_results_build_the_population_graphs():
    result = run_campaign(CampaignConfig(n_min=2, n_max=6))
    graphs = [g for n in range(2, 7) for g in population(n)]
    assert len(result.results) == len(graphs) == 4891
    for r, g in zip(result.results, graphs):
        built = r.graph
        assert built == g
        assert (built.n, built.edges, built.degrees()) == (
            g.n, g.edges, g.degrees())


def test_campaign_path_stays_on_arrays(monkeypatch):
    def refuse(*_):
        raise AssertionError("the campaign path built a graph, walked one "
                             "or made a per-graph object")

    monkeypatch.setattr(theorems, "edge_table", refuse)
    monkeypatch.setattr(campaign, "_graphs", refuse)
    monkeypatch.setattr(GraphResult, "graph", property(refuse))
    # nor a result or suite per graph
    monkeypatch.setattr(GraphResult, "__init__", refuse)
    monkeypatch.setattr(TheoremSuite, "__init__", refuse)
    result = run_campaign(CampaignConfig(n_min=2, n_max=3))
    digests = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
               for fmt, render in (("csv", render_csv), ("json", render_json))}
    assert summary_text(result).startswith("graphs 57\nchecks 1677\n")
    # the pins of test_report_digests_are_pinned
    assert digests == {
        "csv": "f5688f5d19637e63e504b975c1674ed34ab83c2d010792bea04d48ca50a2c3f0",
        "json": "f494142b5881cb845ef88f5e2a0a74e30c1a4f52ba2712d1f7c72db070a0de61",
    }


def test_parse_campaign_config():
    cfg = parse_campaign_config(
        "# campaign\nn_min 2\nn_max 3\nmin_degree 1\nsample_limit 20\nseed 99\nformat csv\n"
    )
    assert cfg.n_min == 2 and cfg.n_max == 3
    assert cfg.sample_limit == 20
    assert cfg.seed == 99
    assert cfg.format == "csv"


#: Config text that fails to parse, and the message it fails with.
CONFIG_ERRORS = {
    "bogus 3\n": "unknown key 'bogus'",
    "n_min two\n": "n_min must be an integer",
    "n_min\n": "expected 'key value', got 'n_min'",
    # every population is connected: the key is gone, like jobs
    "connected_only maybe\n": "unknown key 'connected_only'",
    "connected_only true\n": "unknown key 'connected_only'",
    "jobs 2\n": "unknown key 'jobs'",
}


@pytest.mark.parametrize("text", CONFIG_ERRORS)
def test_parse_campaign_config_errors(text):
    with pytest.raises(ParseError) as err:
        parse_campaign_config(text)
    assert str(err.value) == f"line 1: {CONFIG_ERRORS[text]}"


def test_parse_campaign_config_rejects_bad_format():
    with pytest.raises(ParseError):
        parse_campaign_config("format xml\n")


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(n_min=3, n_max=2)
    with pytest.raises(ValueError):
        CampaignConfig(sample_limit=-1)
    with pytest.raises(ValueError):
        CampaignConfig(format="yaml")
    # no graph on 5 vertices has degree 5
    with pytest.raises(ValueError, match="min_degree"):
        CampaignConfig(n_min=5, n_max=5, min_degree=5)
    with pytest.raises(ValueError, match="min_degree"):
        CampaignConfig(min_degree=-1)
    with pytest.raises(ParseError, match="min_degree"):
        parse_campaign_config("n_min 5\nn_max 6\nmin_degree 5\n")


def test_with_overrides_skips_none():
    base = CampaignConfig(n_min=2, n_max=3)
    assert with_overrides(base, n_max=None, seed=None) == base
    assert with_overrides(base, n_max=4).n_max == 4


def test_edge_list_label():
    assert edge_list_label(directed_cycle(3)) == "1->2 2->3 3->1"


def test_format_float_round_trips():
    rng = random.Random(5)
    for _ in range(200):
        x = rng.uniform(-2, 2)
        assert float(format_float(x)) == x
    assert format_float(0.5) == "0.5"


def test_tiny_campaign_counts():
    result = run_campaign(CampaignConfig(n_min=2, n_max=2))
    assert len(result.results) == 3
    assert result.checks == 84
    assert result.failures == []
    assert result.skip_count == 3  # each single-edge graph has one undeletable edge
    assert result.divergence_count == 0


def test_n3_campaign_divergences():
    result = run_campaign(CampaignConfig(n_min=3, n_max=3))
    assert len(result.results) == 54
    assert result.failures == []
    # exactly the two all-arc triangles have eigenvalue -1 without being
    # positive bipartite
    assert result.divergence_count == 2


def test_report_bytes_do_not_depend_on_output_or_jobs():
    plain = run_campaign(CampaignConfig(n_min=2, n_max=3))
    routed = run_campaign(CampaignConfig(n_min=2, n_max=3, output="elsewhere.json"))
    assert render_json(plain) == render_json(routed)
    assert render_csv(plain) == render_csv(routed)


def test_json_report_is_valid_json():
    result = run_campaign(CampaignConfig(n_min=2, n_max=2))
    doc = json.loads(render_json(result))
    assert doc["config"]["n_min"] == 2
    assert len(doc["graphs"]) == 3
    assert doc["summary"]["graphs"] == 3
    assert doc["summary"]["failures"] == 0


def test_csv_report_shape():
    result = run_campaign(CampaignConfig(n_min=2, n_max=2, format="csv"))
    rows = list(csv.reader(io.StringIO(render_csv(result))))
    assert rows[0] == ["index", "n", "edges", "check", "lhs", "rhs", "slack",
                       "satisfied", "skipped", "reason"]
    assert len(rows) == 1 + result.checks
    assert all(len(row) == 10 for row in rows)


def test_csv_and_json_carry_identical_records():
    result = run_campaign(CampaignConfig(n_min=2, n_max=2))
    doc = json.loads(render_json(result))
    flat = {}
    for entry in doc["graphs"]:
        for name, record in entry["checks"].items():
            flat[(entry["index"], name)] = record
    rows = list(csv.reader(io.StringIO(render_csv(result))))[1:]
    assert len(rows) == len(flat)
    for index, _, _, check, lhs, rhs, slack, satisfied, skipped, reason in rows:
        record = flat[(int(index), check)]
        for text, value in ((lhs, record["lhs"]), (rhs, record["rhs"]), (slack, record["slack"])):
            if text == "":
                assert value is None
            else:
                assert float(text) == float(value)
        assert (satisfied == "true") == record["satisfied"]
        assert (skipped == "true") == record["skipped"]
        assert reason == record["reason"]


def test_summary_text():
    result = run_campaign(CampaignConfig(n_min=2, n_max=2))
    lines = summary_text(result).splitlines()
    assert lines[0] == "graphs 3"
    assert lines[1] == "checks 84"
    assert lines[2] == "failures 0"
    assert any(line.startswith("max_abs_slack ") for line in lines)


def test_numpy_inputs_give_report_scalars():
    rec, = _inequality("probe", np.float64(0.25), np.float64(0.5)).records(0, 1)
    assert type(rec.satisfied) is bool
    for value in (rec.lhs, rec.rhs, rec.slack, rec.satisfied, rec.skipped,
                  rec.reason):
        json_scalar(value)
    g = directed_cycle(3)
    result = hand_result(CampaignConfig(n_min=3, n_max=3),
                         [((g,), records_block((rec,)))])
    doc = json.loads(render_json(result))
    assert doc["graphs"][0]["checks"]["probe"] == {
        "lhs": 0.25, "rhs": 0.5, "slack": 0.25, "satisfied": True,
        "skipped": False, "reason": ""}
    # a numpy float is a float and renders as one; a numpy bool is not a
    # report scalar, and both formats refuse it rather than print `True`
    wide = CheckRecord("probe", True, lhs=np.float64(0.25), rhs=0.5,
                       slack=0.25)
    assert (json_checks([wide]) == json_checks([rec])
            == '{"probe": {"lhs": 0.25, "rhs": 0.5, "slack": 0.25, '
               '"satisfied": true, "skipped": false, "reason": ""}}')
    bad = CheckRecord("probe", np.True_)
    result = hand_result(CampaignConfig(n_min=3, n_max=3),
                         [((g,), records_block((bad,)))])
    for render in (render_csv, render_json):
        with pytest.raises(TypeError, match="not a report scalar"):
            render(result)
    with pytest.raises(TypeError, match="not a report scalar"):
        json_checks([bad])


def _awkward_result() -> CampaignResult:
    """Names and reasons that need CSV quoting and JSON escaping (comma,
    quote, newline, carriage return, non-ASCII), a skipped record without
    numbers shared by two graphs, a failure and a divergence."""
    skipped = CheckRecord('skip, "me"', True, skipped=True,
                          reason='no "edge", here\nλ')
    first = (
        CheckRecord('comma, "quote"\nnewline é', True, lhs=0.25, rhs=0.5,
                    slack=0.25),
        skipped,
        CheckRecord("λ ≤ 1", False, lhs=1.5, rhs=1.0, slack=-0.5,
                    reason="fails, by ½"),
        CheckRecord("plain", True),
        CheckRecord("interlacing:1->2", True, lhs=-0.0, rhs=1e-300,
                    slack=1e-300),
    )
    second = (
        skipped,
        CheckRecord("minus_one_vs_positive_bipartite", True,
                    reason='divergence: "x"\r\ny'),
        CheckRecord("interlacing:1->2", True, lhs=2.0, rhs=1.0, slack=-1.0),
    )
    return hand_result(
        CampaignConfig(n_min=2, n_max=3, sample_limit=2, seed=7),
        [((directed_cycle(3),), records_block(first)),
         ((path_graph(2),), records_block(second))])


# The bytes below were rendered by the per-cell renderers that the one-step
# record formatters replaced.
_AWKWARD_CSV = (
    'index,n,edges,check,lhs,rhs,slack,satisfied,skipped,reason\n'
    '0,3,1->2 3->1 2->3,"comma, ""quote""\nnewline é",0.25,0.5,0.25,true,false,\n'
    '0,3,1->2 3->1 2->3,"skip, ""me""",,,,true,true,"no ""edge"", here\nλ"\n'
    '0,3,1->2 3->1 2->3,λ ≤ 1,1.5,1,-0.5,false,false,"fails, by ½"\n'
    '0,3,1->2 3->1 2->3,plain,,,,true,false,\n'
    '0,3,1->2 3->1 2->3,interlacing:1->2,-0,1e-300,1e-300,true,false,\n'
    '1,2,1--2,"skip, ""me""",,,,true,true,"no ""edge"", here\nλ"\n'
    '1,2,1--2,minus_one_vs_positive_bipartite,,,,true,false,'
    '"divergence: ""x""\r\ny"\n'
    '1,2,1--2,interlacing:1->2,2,1,-1,true,false,\n'
)

_AWKWARD_JSON = (
    '{\n"config": {"n_min": 2, "n_max": 3, "connected_only": true, '
    '"min_degree": 1, "sample_limit": 2, "seed": 7, "format": "json"},\n'
    '"graphs": [\n'
    '{"index": 0, "n": 3, "edges": "1->2 3->1 2->3", "checks": {'
    '"comma, \\"quote\\"\\nnewline \\u00e9": {"lhs": 0.25, "rhs": 0.5, '
    '"slack": 0.25, "satisfied": true, "skipped": false, "reason": ""}, '
    '"skip, \\"me\\"": {"lhs": null, "rhs": null, "slack": null, '
    '"satisfied": true, "skipped": true, '
    '"reason": "no \\"edge\\", here\\n\\u03bb"}, '
    '"\\u03bb \\u2264 1": {"lhs": 1.5, "rhs": 1, "slack": -0.5, '
    '"satisfied": false, "skipped": false, "reason": "fails, by \\u00bd"}, '
    '"plain": {"lhs": null, "rhs": null, "slack": null, "satisfied": true, '
    '"skipped": false, "reason": ""}, '
    '"interlacing:1->2": {"lhs": -0, "rhs": 1e-300, "slack": 1e-300, '
    '"satisfied": true, "skipped": false, "reason": ""}}},\n'
    '{"index": 1, "n": 2, "edges": "1--2", "checks": {'
    '"skip, \\"me\\"": {"lhs": null, "rhs": null, "slack": null, '
    '"satisfied": true, "skipped": true, '
    '"reason": "no \\"edge\\", here\\n\\u03bb"}, '
    '"minus_one_vs_positive_bipartite": {"lhs": null, "rhs": null, '
    '"slack": null, "satisfied": true, "skipped": false, '
    '"reason": "divergence: \\"x\\"\\r\\ny"}, '
    '"interlacing:1->2": {"lhs": 2, "rhs": 1, "slack": -1, '
    '"satisfied": true, "skipped": false, "reason": ""}}}\n'
    '],\n'
    '"summary": {"graphs": 2, "checks": 8, "failures": 1, "skips": 2, '
    '"divergences": 1, "max_abs_slack": {'
    '"comma, \\"quote\\"\\nnewline \\u00e9": 0.25, "interlacing": 1, '
    '"\\u03bb \\u2264 1": 0.5}}\n'
    '}\n'
)


def test_awkward_names_and_reasons_render_pinned_bytes():
    result = _awkward_result()
    assert render_csv(result) == _AWKWARD_CSV
    assert render_json(result) == _AWKWARD_JSON
    assert summary_text(result) == (
        'graphs 2\nchecks 8\nfailures 1\nskips 2\ndivergences 1\n'
        'max_abs_slack comma, "quote"\nnewline é 0.25\n'
        'max_abs_slack interlacing 1\nmax_abs_slack λ ≤ 1 0.5\n')
    assert json_checks(result.results[1].suite.records) == (
        _AWKWARD_JSON.split('"checks": ')[2].split("}\n")[0])


def test_awkward_reports_round_trip():
    result = _awkward_result()
    expected = [
        [str(r.index), str(r.graph.n), edge_list_label(r.graph), rec.name,
         *("" if v is None else format_float(v)
           for v in (rec.lhs, rec.rhs, rec.slack)),
         str(rec.satisfied).lower(), str(rec.skipped).lower(), rec.reason]
        for r in result.results for rec in r.suite.records]
    rows = list(csv.reader(io.StringIO(render_csv(result), newline="")))
    assert rows[1:] == expected
    doc = json.loads(render_json(result))
    for r, entry in zip(result.results, doc["graphs"]):
        assert entry["edges"] == edge_list_label(r.graph)
        assert entry["checks"] == {
            rec.name: {"lhs": rec.lhs, "rhs": rec.rhs, "slack": rec.slack,
                       "satisfied": rec.satisfied, "skipped": rec.skipped,
                       "reason": rec.reason}
            for rec in r.suite.records}
    assert doc["summary"] == {
        "graphs": 2, "checks": 8, "failures": 1, "skips": 2,
        "divergences": 1, "max_abs_slack": result.max_abs_slack()}


def awkward_floats_result():
    """Two blocks of six n = 3 graphs whose columns hold 0.0, -0.0, two nan
    payloads, +-inf and subnormals, repeated within each column and across
    the blocks."""
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64).view(np.float64)
    values = np.array([0.0, -0.0, *nans, np.inf, -np.inf, 5e-324,
                       2.5e-310, 0.1, 1 / 3, -0.0, 0.1, 0.0, nans[1]])
    blocks = []
    for b in range(2):
        rows = np.roll(values, 3 * b)[:12]
        block = theorems._Block(None, [
            theorems._Column("probe", rows[:6], rows[6:12], rows[::-1][:6],
                             np.array([True, False] * 3), {}),
            theorems._Column("probe:constant", rows[3:9], -0.0, rows[:6],
                             np.ones(6, dtype=bool), {}),
            theorems._Column(
                [f"interlacing:{i}" for i in range(6)], rows[6:], rows[:6],
                rows[3:9], np.ones(6, dtype=bool), {}, [0, 1, 3, 3, 5, 6, 6]),
        ])
        blocks.append(((directed_cycle(3), path_graph(3)) * 3, block))
    return hand_result(CampaignConfig(), blocks)


def test_every_float_renders_as_its_own_text():
    result = awkward_floats_result()
    records = [rec for r in result.results for rec in r.suite.records]
    assert len(records) == 2 * 6 * 2 + 12
    texts = [[format(x, ".17g") for x in (rec.lhs, rec.rhs, rec.slack)]
             for rec in records]
    assert {t for row in texts for t in row} >= {
        "0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324",
        "2.5000000000000171e-310"}
    rows = list(csv.reader(io.StringIO(render_csv(result), newline="")))[1:]
    assert [row[3:7] for row in rows] == [
        [rec.name, *text] for rec, text in zip(records, texts)]
    lines = render_json(result).split("\n")[3:-4]
    assert len(lines) == len(result.results)
    expected = iter(zip(records, texts))
    for r, line in zip(result.results, lines):
        checks = [f'"{rec.name}": {{"lhs": {a}, "rhs": {b}, "slack": {c}, '
                  f'"satisfied": {str(rec.satisfied).lower()}, '
                  f'"skipped": false, "reason": ""}}'
                  for rec, (a, b, c) in
                  (next(expected) for _ in r.suite.records)]
        assert f'"checks": {{{", ".join(checks)}}}}}' in line
    # the records' own path renders the same bytes
    own = kept(result)
    for render in (render_csv, render_json, summary_text):
        assert render(result) == render(own)


def test_each_float_is_formatted_once_per_render(monkeypatch):
    result = awkward_floats_result()
    expected = {render: render(result) for render in (render_csv, render_json)}
    values = [x for r in result.results for rec in r.suite.records
              for x in (rec.lhs, rec.rhs, rec.slack)]
    distinct = len(np.unique(np.array(values).view(np.int64)))
    assert distinct < len(values)
    assert campaign._format_floats(values) == list(map(format_float, values))
    calls = []
    formatter = campaign._format_floats
    monkeypatch.setattr(campaign, "_RUN", 1)
    monkeypatch.setattr(campaign, "_format_floats",
                        lambda xs: calls.extend(xs) or formatter(xs))
    for render in (render_csv, render_json):
        calls.clear()
        assert render(result) == expected[render]
        assert len(calls) == distinct


def test_float_table_keeps_one_run_when_floats_rarely_repeat():
    floats = campaign._Floats()
    runs = [np.arange(k, k + 6, dtype=np.float64) for k in (0, 4, 8, 20)]
    kept = []
    for run in runs:
        bits = np.concatenate([run, run[::-1]]).view(np.int64)
        assert floats(bits) == list(map(format_float, run)) + list(
            map(format_float, run[::-1]))
        kept.append(floats.keys.view(np.float64).tolist())
    # two of six floats were kept: merged; none: the run's own table
    assert kept == [runs[0].tolist(), list(range(10)), list(range(14)),
                    runs[3].tolist()]


def test_bare_carriage_return_is_quoted():
    # no comma, quote or newline: only the carriage return needs quoting
    records = (CheckRecord("plain", True, reason="a\rb"),
               CheckRecord("x\ry", True, lhs=0.5, rhs=1.0, slack=0.5))
    result = hand_result(CampaignConfig(n_min=2, n_max=2),
                         [((path_graph(2),), records_block(records))])
    text = render_csv(result)
    assert text.endswith('0,2,1--2,plain,,,,true,false,"a\rb"\n'
                         '0,2,1--2,"x\ry",0.5,1,0.5,true,false,\n')
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[1:] == [["0", "2", "1--2", "plain", "", "", "", "true", "false", "a\rb"],
                        ["0", "2", "1--2", "x\ry", "0.5", "1", "0.5", "true", "false", ""]]


def test_empty_campaign_renders_pinned_bytes():
    result = run_campaign(CampaignConfig(sample_limit=0))
    assert render_csv(result) == (
        "index,n,edges,check,lhs,rhs,slack,satisfied,skipped,reason\n")
    assert render_json(result) == (
        '{\n"config": {"n_min": 2, "n_max": 4, "connected_only": true, '
        '"min_degree": 1, "sample_limit": 0, "seed": 1729, '
        '"format": "json"},\n"graphs": [\n],\n"summary": {"graphs": 0, '
        '"checks": 0, "failures": 0, "skips": 0, "divergences": 0, '
        '"max_abs_slack": {}}\n}\n')
    assert summary_text(result) == (
        "graphs 0\nchecks 0\nfailures 0\nskips 0\ndivergences 0\n")
    assert json.loads(render_json(result))["graphs"] == []


def test_report_digests_are_pinned():
    # Any change to these bytes must be deliberate: update the digests in
    # the same change and say why.
    result = run_campaign(CampaignConfig(n_min=2, n_max=3))
    digests = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
               for fmt, render in (("csv", render_csv), ("json", render_json))}
    assert digests == {
        "csv": "f5688f5d19637e63e504b975c1674ed34ab83c2d010792bea04d48ca50a2c3f0",
        "json": "f494142b5881cb845ef88f5e2a0a74e30c1a4f52ba2712d1f7c72db070a0de61",
    }


def test_sampled_report_digests_are_pinned():
    # As above, any change to these bytes must be deliberate.  The n = 2..3
    # pin has few non-pendant edges, so few interlacing records; seeded
    # n = 5, 6 samples have many.
    result = run_campaign(CampaignConfig(n_min=5, n_max=6, sample_limit=60,
                                         seed=1729))
    digests = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
               for fmt, render in (("csv", render_csv), ("json", render_json))}
    assert digests == {
        "csv": "38a576b19437090f2e6056204fd6fcfcdc0ddf2792d0aa7c006c8914f6d559d7",
        "json": "d97cfb290ad5e63912bbafaff4d320c4c3b94667698273a5af799e079843eadd",
    }


def test_sampled_n56_report_digests_are_pinned():
    # The seeded n = 5, 6 campaign of the benchmark's sampled workload, as
    # above: its bytes gate every change to the exact charpoly.
    result = run_campaign(CampaignConfig(n_min=5, n_max=6, seed=1729))
    assert (len(result.results), result.checks, len(result.failures)) == (
        1000, 36423, 26)
    digests = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
               for fmt, render in (("csv", render_csv), ("json", render_json))}
    assert digests == {
        "csv": "909430fb35e250ab146a1fc6555ddd45ac653afdb3e68d36ac54ba32e32b1211",
        "json": "734ee28113d005f0a35beb6ef9298523bef68355f21363b83f12fecb20956435",
    }


def test_default_report_digests_are_pinned():
    # The default n <= 4 campaign, whose bytes gate every speedup; any
    # change to them must be deliberate, as above.
    result = run_campaign(CampaignConfig())
    assert (len(result.results), result.checks) == (3891, 123015)
    assert sum(rec.name == "bipartite_iff_symmetric"
               for _, rec in result.failures) == 540
    digests = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
               for fmt, render in (("csv", render_csv), ("json", render_json))}
    assert digests == {
        "csv": "c13a24e98e1428da9c8930a51580bb396c3b6d4cdfc52b2efeeadc2e7def0a72",
        "json": "00d09b68993766d1804da60e83e07ace8a438b5a61ec2d24376bb2f704624c83",
    }


# The reference for the campaign's summary: one walk over every record of
# every graph, as the summary was computed before it read the columns.
def record_walk(result):
    failures = []
    skips = divergences = 0
    slack = {}
    for r in result.results:
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
                name = rec.name.split(":", 1)[0]
                slack[name] = max(slack.get(name, 0.0), abs(rec.slack))
        divergences += diverged
    checks = sum(len(r.suite.records) for r in result.results)
    return checks, failures, skips, divergences, slack


def tallies(result):
    return (result.checks, result.failures, result.skip_count,
            result.divergence_count, result.max_abs_slack())


def kept(result):
    """The result with each suite replaced by a block of one graph made
    from its records."""
    return hand_result(result.config, [
        ((r.graph,), records_block(r.suite.records)) for r in result.results])


def repeated_names_result():
    """Records where a name repeats within a graph, one divergence record
    per graph, and nan and -0.0 slacks."""
    nan = float("nan")
    note = "minus_one_vs_positive_bipartite"
    records = (
        (CheckRecord(note, True),
         CheckRecord("probe", True, lhs=nan, rhs=1.0, slack=nan),
         CheckRecord("probe", False, lhs=1.5, rhs=1.0, slack=-0.5)),
        (CheckRecord(note, True, reason="divergence"),
         CheckRecord("probe:x", True, lhs=0.0, rhs=-0.0, slack=-0.0)),
    )
    return hand_result(CampaignConfig(), [
        ((directed_cycle(3),), records_block(records[0])),
        ((path_graph(2),), records_block(records[1]))])


def nan_columns_result():
    """A block of two n = 3 graphs whose columns hold nan slacks."""
    nan = float("nan")
    block = theorems._Block(None, [
        theorems._inequality("probe", [nan, 0.25], 1.0),
        theorems._inequality("probe:x", [0.5, nan], [nan, 2.0]),
    ])
    return hand_result(CampaignConfig(),
                       [((directed_cycle(3), path_graph(3)), block)])


@pytest.mark.parametrize("make", [
    lambda: run_campaign(CampaignConfig(n_min=4, n_max=4)),
    lambda: run_campaign(CampaignConfig(n_min=5, n_max=6, seed=1729)),
    lambda: kept(run_campaign(CampaignConfig(n_min=2, n_max=4,
                                             sample_limit=300))),
    _awkward_result,
    repeated_names_result,
    nan_columns_result,
], ids=["population-4", "sample-5-6", "kept", "awkward", "repeated",
        "nan"])
def test_campaign_tallies_equal_a_record_walk(make):
    result = make()
    checks, failures, skips, divergences, slack = record_walk(result)
    got = tallies(result)
    assert got[0] == checks
    assert [(i, repr(rec)) for i, rec in got[1]] == [
        (i, repr(rec)) for i, rec in failures]
    assert got[2:4] == (skips, divergences)
    # float.hex tells -0.0 from 0.0 and keeps every bit
    assert {k: v.hex() for k, v in got[4].items()} == {
        k: float(v).hex() for k, v in slack.items()}
    assert all(type(v) is float for v in got[4].values())


def test_renders_read_the_columns_as_records_would_print():
    # a campaign's blocks render the same bytes as one-graph blocks made
    # from the same records
    result = run_campaign(CampaignConfig(n_min=3, n_max=5, sample_limit=200))
    for render in (render_csv, render_json, summary_text):
        assert render(result) == render(kept(result))


def test_campaign_and_renders_build_no_check_record(monkeypatch):
    built = []
    init = CheckRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["name"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(CheckRecord, "__init__", counted)
    for config in (CampaignConfig(), CampaignConfig(n_min=5, n_max=6)):
        result = run_campaign(config)
        render_csv(result)
        render_json(result)
        summary_text(result)
        assert built == []
    # the failing records are made when asked for, and counted here
    assert len(result.failures) == len(built) == 26
