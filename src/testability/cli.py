"""Command line interface.

Exit codes: 0 analysis completed (a "no" verdict is data, not a
failure), 2 parse or validation error, 3 some answer was unknown and
--strict was given, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .graphs import analyze_graph, complete_with_sink, transition_semigroup
from .io_formats import (ParseError, parse_graph, parse_semigroup, render_report,
                         write_graph, write_semigroup)
from .model import UNKNOWN, IncompleteInput, NotAssociative, NotGenerated
from .oracle import DEFAULT_BUDGET, DEFAULT_K_MAX
from .products import graph_direct_product, semigroup_direct_product
from .semigroups import (APERIODICITY, ASSOCIATIVITY, LEFT_LOCAL_TESTABILITY,
                         LOCAL_IDEMPOTENCE, LOCAL_TESTABILITY, ONE_TESTABILITY,
                         PIECEWISE_TESTABILITY, RIGHT_LOCAL_TESTABILITY,
                         STRICT_LOCAL_TESTABILITY, THRESHOLD_LOCAL_TESTABILITY,
                         analyze_semigroup)

PROP_NAMES = {
    "lt": LOCAL_TESTABILITY,
    "slt": STRICT_LOCAL_TESTABILITY,
    "right-lt": RIGHT_LOCAL_TESTABILITY,
    "left-lt": LEFT_LOCAL_TESTABILITY,
    "loc-idem": LOCAL_IDEMPOTENCE,
    "ltt": THRESHOLD_LOCAL_TESTABILITY,
    "pt": PIECEWISE_TESTABILITY,
    "aperiodic": APERIODICITY,
    "assoc": ASSOCIATIVITY,
    "1t": ONE_TESTABILITY,
}


def _props_arg(text: str):
    if text == "all":
        return None
    props = []
    for name in text.split(","):
        name = name.strip()
        if name not in PROP_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown property {name!r} (choose from "
                f"{', '.join(PROP_NAMES)}, or all)")
        props.append(PROP_NAMES[name])
    return tuple(props)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be at least 1")
    return value


def _analysis_flags(p: argparse.ArgumentParser, *, graph: bool) -> None:
    p.add_argument("--props", type=_props_arg, default=None, metavar="LIST",
                   help="comma separated list of properties, or 'all' (default): "
                        + ", ".join(PROP_NAMES))
    p.add_argument("--order", action="store_true",
                   help="search for the least window length k that works")
    if graph:
        p.add_argument("--k", type=_positive_int, default=None, metavar="N",
                       help="also check one fixed window length")
        p.add_argument("--t", type=_positive_int, default=1, metavar="N",
                       help="profile threshold for --k and --order (default 1)")
    p.add_argument("--kmax", type=_positive_int, default=DEFAULT_K_MAX, metavar="N",
                   help=f"largest window length the order search tries "
                        f"(default {DEFAULT_K_MAX})")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET, metavar="N",
                   help=f"profile state budget per oracle run (default {DEFAULT_BUDGET})")
    p.add_argument("--format", choices=("text", "machine"), default="text",
                   help="report style; 'machine' is stable key-value lines")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any answer is unknown (budget exceeded)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="testability",
        description="Decide testability properties of transition graphs "
                    "and finite semigroups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-graph", help="decide properties of a transition graph")
    p.add_argument("file", help="graph file: 'a g' header, then g rows of a targets")
    _analysis_flags(p, graph=True)
    p.set_defaults(run=_run_analyze_graph)

    p = sub.add_parser("analyze-semigroup", help="decide properties of a semigroup")
    p.add_argument("file", help="semigroup file: 'n g' header, then n Cayley rows")
    _analysis_flags(p, graph=False)
    p.set_defaults(run=_run_analyze_semigroup)

    p = sub.add_parser("product-graph", help="direct product of two graphs")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(run=_run_product_graph)

    p = sub.add_parser("product-semigroup", help="direct product of two semigroups")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(run=_run_product_semigroup)

    p = sub.add_parser("transition-semigroup",
                       help="write the transformation semigroup of a graph")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(run=_run_transition_semigroup)

    return parser


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _finish(report, args) -> int:
    sys.stdout.write(render_report(report, args.format))
    unknown = any(v.holds == UNKNOWN for v in report.verdicts) or (
        report.order is not None and report.order.status == "unknown")
    return 3 if args.strict and unknown else 0


def _run_analyze_graph(args) -> int:
    gr = parse_graph(_read_text(args.file))
    report = analyze_graph(gr, args.props, order=args.order, k=args.k, t=args.t,
                           k_max=args.kmax, budget=args.budget, source=args.file)
    return _finish(report, args)


def _run_analyze_semigroup(args) -> int:
    s = parse_semigroup(_read_text(args.file))
    report = analyze_semigroup(s, args.props, order=args.order,
                               k_max=args.kmax, budget=args.budget, source=args.file)
    return _finish(report, args)


def _run_product_graph(args) -> int:
    left = parse_graph(_read_text(args.left))
    right = parse_graph(_read_text(args.right))
    _write_text(args.output, write_graph(graph_direct_product(left, right)))
    return 0


def _run_product_semigroup(args) -> int:
    left = parse_semigroup(_read_text(args.left))
    right = parse_semigroup(_read_text(args.right))
    _write_text(args.output, write_semigroup(semigroup_direct_product(left, right)))
    return 0


def _run_transition_semigroup(args) -> int:
    gr = complete_with_sink(parse_graph(_read_text(args.file)))
    _write_text(args.output, write_semigroup(transition_semigroup(gr).semigroup))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 64
    try:
        return args.run(args)
    except (ParseError, UnicodeDecodeError, NotGenerated, NotAssociative,
            IncompleteInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
