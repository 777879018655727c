"""The benchmark's metrics: end-to-end ones from untraced passes, per-layer
ones from the spans of one traced pass.  Names and units match
BENCHMARK.json; NOTE.md says which end-to-end metric each layer metric
should move, on which workload."""

from __future__ import annotations

import math
import statistics

from speed import SpeedProbe
from tracer import SpanView, Tracer
from workloads import COMMANDS, TAIL_PERCENT, Pass


def nearest_rank(values: list[float], percent: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """(percent, value) for the highest of p99, p95, p90, p75, p50 that
    leaves at least ten samples beyond it; the maximum if none does."""
    n = len(values)
    for percent in (99, 95, 90, 75, 50):
        if n - math.ceil(percent / 100 * n) >= 10:
            return percent, nearest_rank(values, percent)
    return 100, max(values, default=0.0)


def pass_times(passes: list[Pass], time) -> dict[str, float]:
    """report_s, check_total_s, light_p50_ms and light_tail_ms over the
    passes, each op's time taken by `time(interval)`.  report_s is the
    median over the passes whose CSV rendered, 0 if none did."""
    reports = [time(p.report) for p in passes if p.report is not None]
    light = [time(i) for p in passes for i in p.light]
    return {
        "report_s": statistics.median(reports) if reports else 0.0,
        "check_total_s": statistics.median(
            sum(time(i) for i in p.checks) for p in passes),
        "light_p50_ms": 1e3 * statistics.median(light),
        "light_tail_ms": 1e3 * nearest_rank(light, TAIL_PERCENT),
    }


def end_to_end(setup_samples: list[float], passes: list[Pass],
               probe: SpeedProbe, peak_rss_mb: float
               ) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, every time scaled to the nominal speed;
    setup_samples are scaled already."""
    times = pass_times(passes, probe.scaled)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "report_s": (times["report_s"], "s"),
        "check_total_s": (times["check_total_s"], "s"),
        "light_p50_ms": (times["light_p50_ms"], "ms"),
        "light_tail_ms": (times["light_tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, passes: list[Pass], untraced: list[Pass],
              probe: SpeedProbe) -> tuple[dict[str, tuple[float, str]], dict]:
    """Layer metrics of the last traced pass, which `tracer` recorded, and
    notes that go with them.  The tracing overhead compares the medians of
    all traced and untraced passes, scaled to the nominal speed; the layer
    times are the spans' own, unscaled."""
    traced = passes[-1]
    view = SpanView(tracer)
    top_cli = [i for i in view.spans("cli.main") if tracer.parent[i] < 0]
    if len(top_cli) != len(traced.requests):
        raise RuntimeError("cli.main spans do not match the requests made")
    by_command = {c: [] for c in COMMANDS}
    codes = {"0": 0, "1": 0, "other": 0}
    for i, (command, rc) in zip(top_cli, traced.requests):
        by_command[command].append(view.self_time[i])
        codes[str(rc) if rc in (0, 1) else "other"] += 1

    # Per-graph ratios count calls made while checking graphs: under
    # run_campaign, or under a `check` request.
    suite_roots = set(view.spans("campaign.run_campaign")) | {
        i for i, (command, _) in zip(top_cli, traced.requests)
        if command == "check"}
    graphs = traced.graphs_checked

    def per_graph(name: str) -> float:
        return len(view.spans(name, roots=suite_roots)) / graphs if graphs else 0.0

    def calls(*names: str) -> int:
        return len(view.spans(*names))

    eigensolves = calls("spectra.eigendecompose")
    suite = [view.duration[i] for i in view.spans("theorems.run_theorem_suite")]
    suite_tail = tail(suite)
    json_spans = view.spans("campaign.render_json")

    m: dict[str, tuple[float, str]] = {
        "graphs.parse_calls": (calls("graphs.parse_graph"), "count"),
        "graphs.parse_s": (view.total("graphs.parse_graph"), "s"),
        "enumeration.population_s": (view.outermost_time(
            "enumeration.enumerate_mixed_graphs",
            "enumeration.sample_mixed_graphs"), "s"),
        "enumeration.elementary_calls": (calls(
            "enumeration.enumerate_elementary_subgraphs",
            "enumeration.spanning_elementary_subgraphs"), "count"),
        "enumeration.elementary_s": (view.outermost_time(
            "enumeration.enumerate_elementary_subgraphs",
            "enumeration.spanning_elementary_subgraphs"), "s"),
        "enumeration.cycles_calls": (calls("enumeration.enumerate_cycles"), "count"),
        "enumeration.cycles_per_graph": (per_graph("enumeration.enumerate_cycles"), "ratio"),
        "spectra.eigensolves": (eigensolves, "count"),
        "spectra.eigensolves_per_graph": (per_graph("spectra.eigendecompose"), "ratio"),
        "spectra.eigensolve_s": (view.total("spectra.eigendecompose"), "s"),
        "spectra.distinct_spectra_ratio": (
            len(tracer.matrices_seen) / eigensolves if eigensolves else 0.0, "ratio"),
        "spectra.charpoly_exact_s": (view.total("spectra.char_poly_combinatorial"), "s"),
        "spectra.determinant_exact_s": (view.total("spectra.determinant_combinatorial"), "s"),
        "matrices.randic_calls": (calls("matrices.randic_matrix"), "count"),
        "matrices.build_s": (view.outermost_time(
            "matrices.randic_matrix", "matrices.randic_via_incidence",
            "matrices.laplacian", "matrices.is_hermitian"), "s"),
        "gains.is_positive_calls": (calls("gains.is_positive"), "count"),
        "gains.is_positive_per_graph": (per_graph("gains.is_positive"), "ratio"),
        "gains.switching_s": (view.outermost_time(
            "gains.is_positive", "gains.is_positive_by_paths",
            "gains.view_is_positive", "gains.apply_switching",
            "gains.switching_certificate_to_constant",
            "gains.are_switching_equivalent"), "s"),
        "theorems.suite_calls": (len(suite), "count"),
        "theorems.suite_p50_ms": (1e3 * statistics.median(suite) if suite else 0.0, "ms"),
        "theorems.suite_tail_ms": (1e3 * suite_tail[1], "ms"),
        "theorems.suite_self_s": (sum(view.self_time[i] for i in
                                      view.spans("theorems.run_theorem_suite")), "s"),
        "theorems.interlacing_calls": (calls("theorems.interlacing_check"), "count"),
        "theorems.interlacing_s": (view.outermost_time("theorems.interlacing_check"), "s"),
        "campaign.run_s": (view.total("campaign.run_campaign"), "s"),
        "campaign.render_csv_s": (view.total("campaign.render_csv"), "s"),
        "campaign.render_json_s": (view.total("campaign.render_json"), "s"),
        "campaign.render_json_failed": (sum(tracer.raised[i] for i in json_spans), "count"),
        "campaign.report_bytes": (traced.report_bytes, "bytes"),
        "campaign.csv_noncanonical_bools": (traced.csv_noncanonical_bools, "count"),
        "cli.requests": (len(top_cli), "count"),
    }
    for command, selfs in by_command.items():
        m[f"cli.self_ms.{command}"] = (
            1e3 * statistics.median(selfs) if selfs else 0.0, "ms")
    for code, count in codes.items():
        m[f"cli.exit_codes.{code}"] = (count, "count")
    traced_s = pass_times(passes, probe.scaled)["report_s"]
    untraced_s = pass_times(untraced, probe.scaled)["report_s"]
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.spans"] = (len(tracer), "count")
    notes = {
        "theorems.suite_tail_ms": f"p{suite_tail[0]} of {len(suite)} suite calls",
        "cli.self_ms": "median per request of cli.main time minus its child spans",
        "trace.overhead_s": (f"median traced report_s {traced_s:.4f} s minus "
                             f"median untraced report_s {untraced_s:.4f} s, "
                             f"{len(passes)} pass(es) each, alternating"),
    }
    return m, notes
