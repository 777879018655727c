"""Command-line front end.

Subcommands: spectrum, charpoly, energy, bounds, interlace, check, enumerate.
Exit codes: 0 success, 1 a `check` run found failing assertions, 2 input
could not be parsed or read, 3 a precondition was violated (isolated vertex,
disconnected graph, size cap), 4 the output path could not be written, 5 an
internal error (any other exception, reported in one line on stderr without
a traceback).  All numbers are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .campaign import (
    CampaignConfig,
    format_float,
    json_checks,
    json_object,
    json_scalar,
    parse_campaign_config,
    render_csv,
    render_json,
    run_campaign,
    summary_text,
    with_overrides,
)
from .graphs import MixedGraph, ParseError, edge_label, is_label, parse_graph
from .spectra import char_poly_combinatorial, char_poly_numeric, randic_spectrum
from .matrices import randic_matrix
from .theorems import (
    energy_bounds_report,
    entry_sum_bounds,
    interlacing_check,
    randic_inverse,
    require_energy_domain,
    run_theorem_suite,
    smallest_eigenvalue_bound,
)


class _WriteError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


def _write_payload(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc}")


def _floats(values) -> str:
    return " ".join(format_float(v) for v in values)


def _json_list(values) -> str:
    return "[" + ", ".join(json_scalar(float(v)) for v in values) + "]"


def _items_payload(items: list[tuple[str, object]], fmt: str,
                   records=None) -> str:
    """(key, value) pairs as "key: value" lines or as one JSON object.  A
    value is an int or a float, written by json_scalar, or an array of
    floats.  The check records, when given, follow as lines or as the
    object's "checks"."""
    def text(v) -> str:
        if isinstance(v, (int, float)):
            return json_scalar(v)
        return _json_list(v) if fmt == "json" else _floats(v)

    if fmt == "json":
        pairs = [(k, text(v)) for k, v in items]
        if records is not None:
            pairs.append(("checks", json_checks(records)))
        return json_object(pairs) + "\n"
    lines = [f"{k}: {text(v)}" for k, v in items]
    lines += [_record_line(rec) for rec in records or ()]
    return "\n".join(lines) + "\n"


def _cmd_spectrum(g: MixedGraph, args) -> tuple[str, int]:
    s = randic_spectrum(g)
    return _items_payload([
        ("eigenvalues", s.eigenvalues),
        ("energy", s.energy),
        ("spectral_radius", s.rho),
        ("min_modulus", s.sigma),
        ("negative_count", s.negative_count),
    ], args.format), 0


def _cmd_charpoly(g: MixedGraph, args) -> tuple[str, int]:
    combinatorial = numeric = None
    if args.method in ("combinatorial", "both"):
        combinatorial = char_poly_combinatorial(g)
    if args.method in ("numeric", "both"):
        numeric = char_poly_numeric(randic_matrix(g))
    if args.format == "json":
        items = []
        if combinatorial is not None:
            coeffs = ", ".join(json_scalar(str(c))
                               for c in combinatorial.coefficients)
            items.append(("combinatorial", "[" + coeffs + "]"))
        if numeric is not None:
            items.append(("numeric", _json_list(numeric.coefficients)))
        if combinatorial is not None and numeric is not None:
            items.append(("max_difference",
                          json_scalar(combinatorial.max_difference(numeric))))
        payload = json_object(items) + "\n"
    else:
        lines = []
        if combinatorial is not None:
            lines.append("method combinatorial")
            lines.extend(f"a_{k} {c}"
                         for k, c in enumerate(combinatorial.coefficients))
        if numeric is not None:
            lines.append("method numeric")
            lines.extend(f"a_{k} {format_float(c)}"
                         for k, c in enumerate(numeric.coefficients))
        if combinatorial is not None and numeric is not None:
            diff = combinatorial.max_difference(numeric)
            lines.append(f"max_difference {format_float(diff)}")
        payload = "\n".join(lines) + "\n"
    return payload, 0


def _cmd_energy(g: MixedGraph, args) -> tuple[str, int]:
    require_energy_domain(g)
    s = randic_spectrum(g)
    return _items_payload([
        ("energy", s.energy),
        ("randic_inverse", randic_inverse(g)),
        ("determinant", s.determinant),
        ("spectral_radius", s.rho),
        ("min_modulus", s.sigma),
        ("negative_count", s.negative_count),
    ], args.format), 0


def _record_line(rec) -> str:
    if rec.skipped:
        return f"skip {rec.name} ({rec.reason})"
    detail = ""
    if rec.slack is not None:
        detail = (f" lhs={format_float(rec.lhs)} rhs={format_float(rec.rhs)}"
                  f" slack={format_float(rec.slack)}")
    if not rec.satisfied:
        tail = f" ({rec.reason})" if rec.reason else ""
        return f"FAIL {rec.name}{detail}{tail}"
    note = f" note: {rec.reason}" if rec.reason and rec.slack is None else ""
    return f"pass {rec.name}{detail}{note}"


def _cmd_bounds(g: MixedGraph, args) -> tuple[str, int]:
    spectrum = randic_spectrum(g)
    report = energy_bounds_report(g, spectrum)
    records = list(entry_sum_bounds(g, spectrum).records)
    records.append(smallest_eigenvalue_bound(g, spectrum, report.randic_inverse))
    records += report.records
    return _items_payload([
        ("n", report.n),
        ("edges", report.m),
        ("randic_inverse", report.randic_inverse),
        ("determinant", report.determinant),
        ("spectral_radius", report.rho),
        ("min_modulus", report.sigma),
        ("negative_count", report.negative_count),
        ("energy", report.energy),
    ], args.format, records), 0


def _parse_edge_flag(text: str) -> tuple[int, int]:
    """The two vertex labels of --edge u,v: the graph format's labels,
    each with any surrounding spaces."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2 or not all(map(is_label, parts)):
        raise ParseError(
            f"--edge wants 'u,v' with ASCII-digit labels, got {text!r}")
    return int(parts[0]), int(parts[1])


def _cmd_interlace(g: MixedGraph, args) -> tuple[str, int]:
    pair = _parse_edge_flag(args.edge)
    result = interlacing_check(g, pair)
    if args.format == "json":
        verdicts = "[" + ", ".join(json_scalar(v) for v in result.verdicts) + "]"
        payload = json_object([
            ("edge", json_scalar(edge_label(result.edge))),
            ("original", _json_list(result.original.eigenvalues)),
            ("deleted", _json_list(result.reduced.eigenvalues)),
            ("verdicts", verdicts),
            ("worst_violation", json_scalar(result.worst_violation)),
            ("holds", json_scalar(result.holds)),
        ]) + "\n"
    else:
        marks = " ".join("pass" if v else "FAIL" for v in result.verdicts)
        payload = (
            f"edge: {result.edge}\n"
            f"original: {_floats(result.original.eigenvalues)}\n"
            f"deleted: {_floats(result.reduced.eigenvalues)}\n"
            f"verdicts: {marks}\n"
            f"worst_violation: {format_float(result.worst_violation)}\n"
            f"holds: {'true' if result.holds else 'false'}\n"
        )
    return payload, 0


def _cmd_check(g: MixedGraph, args) -> tuple[str, int]:
    records = run_theorem_suite(g).records
    failures = sum(not r.skipped and not r.satisfied for r in records)
    skips = sum(r.skipped for r in records)
    notes = sum(r.satisfied and not r.skipped and bool(r.reason)
                for r in records)
    if args.format == "json":
        payload = json_object([
            ("checks", json_checks(records)),
            ("failures", json_scalar(failures)),
            ("skips", json_scalar(skips)),
            ("notes", json_scalar(notes)),
        ]) + "\n"
    else:
        lines = [_record_line(rec) for rec in records]
        lines.append(f"failures: {failures} skips: {skips} notes: {notes}")
        payload = "\n".join(lines) + "\n"
    return payload, 1 if failures else 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.config:
        config = parse_campaign_config(_read_text(args.config))
    else:
        config = CampaignConfig()
    config = with_overrides(
        config,
        n_min=args.n_min, n_max=args.n_max, min_degree=args.min_degree,
        sample_limit=args.sample_limit, seed=args.seed, format=args.format,
        output=args.output,
    )
    result = run_campaign(config)
    render = render_csv if config.format == "csv" else render_json
    report = render(result)
    summary = summary_text(result)
    if config.output is None:
        sys.stdout.write(report)
        sys.stderr.write(summary)
    else:
        _write_payload(report, config.output)
        sys.stdout.write(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedrandic",
        description="Spectra, characteristic polynomials and energy bounds "
                    "of the degree-normalized Hermitian matrix of a mixed graph",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--output", metavar="PATH",
                        help="write the payload to PATH instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, command, text in (
            ("spectrum", _cmd_spectrum,
             "eigenvalues and spectrum-derived scalars"),
            ("charpoly", _cmd_charpoly,
             "characteristic polynomial coefficients"),
            ("energy", _cmd_energy,
             "energy and the scalars the bounds consume"),
            ("bounds", _cmd_bounds, "every inequality check for one graph"),
            ("interlace", _cmd_interlace,
             "edge-deletion interlacing for one edge"),
            ("check", _cmd_check,
             "run the full checker suite; exit 1 on failures")):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("file")
        p.set_defaults(func=command)
    sub.choices["charpoly"].add_argument(
        "--method", choices=("numeric", "combinatorial", "both"),
        default="both")
    sub.choices["interlace"].add_argument("--edge", required=True,
                                          metavar="u,v")

    p = sub.add_parser("enumerate",
                       help="checker suite over all small graphs, to a report")
    p.add_argument("--config", metavar="FILE",
                   help="key-value config file; flags override it")
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--min-degree", type=int, dest="min_degree")
    p.add_argument("--sample-limit", type=int, dest="sample_limit")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--output", metavar="PATH")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first request, not at import; parse_args leaves it as
    # it was, so every request can share it
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        # the graph is read before a command checks its flags (interlace's
        # --edge), so an unreadable file exits 2 first
        payload, code = args.func(parse_graph(_read_text(args.file)), args)
        _write_payload(payload, args.output)
        return code
    except _WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
