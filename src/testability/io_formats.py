"""Readers and writers for the plain-text matrix formats, plus report rendering.

Both file kinds are streams of whitespace-separated integers: a graph
starts with "alphabet_size node_count" followed by the transition table
row-major (one row per node, -1 for a missing transition); a semigroup
starts with "element_count generator_count" followed by the Cayley rows
(element times generator).  Any token containing no decimal digit is a
comment and is skipped; a token mixing digits with anything else is an
error.  Extra integers after the table are ignored.
"""

from __future__ import annotations

import re

from .model import (NO, UNKNOWN, FiniteSemigroup, NotAssociative, PropertyReport,
                    TransitionGraph, UNDEFINED, format_word)
from .semigroups import check_associativity


class ParseError(ValueError):
    """Malformed numeric stream; the message carries the position."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, token: str | None = None):
        self.line = line
        self.column = column
        self.token = token
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class TooFewNumbers(ParseError):
    """The stream ended before the declared table was filled."""


class BadToken(ParseError):
    """A token mixing digits and non-digits (neither number nor comment)."""


class NonpositiveHeader(ParseError):
    """A graph header dimension was zero or negative."""


class HeaderInconsistent(ParseError):
    """A semigroup header with n <= 0, or generators outside [1, n]."""


class CellOutOfRange(ParseError):
    """A table cell outside the range the header allows."""


_INT = re.compile(r"-?\d+")
_DIGIT = re.compile(r"\d")


def _numbers(text: str):
    """Yield (value, line, column) for every numeric token."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in re.finditer(r"\S+", line):
            tok = m.group()
            if not _DIGIT.search(tok):
                continue
            if _INT.fullmatch(tok) is None:
                raise BadToken(f"token {tok!r} mixes digits and other characters",
                               lineno, m.start() + 1, tok)
            yield int(tok), lineno, m.start() + 1


def _take(nums, what: str) -> tuple[int, int, int]:
    try:
        return next(nums)
    except StopIteration:
        raise TooFewNumbers(f"input ended while reading {what}") from None


def parse_graph(text: str) -> TransitionGraph:
    """Read "a g" then g rows of a transitions; -1 means undefined."""
    nums = _numbers(text)
    a, line, col = _take(nums, "the alphabet size")
    g, gline, gcol = _take(nums, "the node count")
    if a <= 0:
        raise NonpositiveHeader(f"alphabet size {a} must be positive", line, col, str(a))
    if g <= 0:
        raise NonpositiveHeader(f"node count {g} must be positive", gline, gcol, str(g))
    delta = []
    for p in range(g):
        row = []
        for c in range(p * a, (p + 1) * a):
            v, vline, vcol = _take(nums, f"transition {c + 1} of {g * a}")
            if v < UNDEFINED or v >= g:
                raise CellOutOfRange(
                    f"transition target {v} outside -1..{g - 1}", vline, vcol, str(v))
            row.append(v)
        delta.append(tuple(row))
    return TransitionGraph(a, g, tuple(delta))


def parse_semigroup(text: str) -> FiniteSemigroup:
    """Read "n gN" then n Cayley rows of gN products.

    The closure from the generators and Light's associativity test both
    run before the value is returned, so a parsed semigroup is always a
    semigroup; NotGenerated or NotAssociative are raised otherwise.
    """
    nums = _numbers(text)
    n, line, col = _take(nums, "the element count")
    gn, gline, gcol = _take(nums, "the generator count")
    if n <= 0:
        raise HeaderInconsistent(f"element count {n} must be positive", line, col, str(n))
    if gn <= 0 or gn > n:
        raise HeaderInconsistent(
            f"generator count {gn} must be in 1..{n}", gline, gcol, str(gn))
    rows = []
    for x in range(n):
        row = []
        for c in range(x * gn, (x + 1) * gn):
            v, vline, vcol = _take(nums, f"product {c + 1} of {n * gn}")
            if v < 0 or v >= n:
                raise CellOutOfRange(
                    f"product {v} outside 0..{n - 1}", vline, vcol, str(v))
            row.append(v)
        rows.append(tuple(row))
    s = FiniteSemigroup(rows)
    verdict = check_associativity(s)
    if verdict.holds == NO:
        raise NotAssociative(verdict.witness)
    return s


def write_graph(gr: TransitionGraph) -> str:
    lines = [f"{gr.alphabet_size} {gr.node_count}"]
    lines += [" ".join(str(c) for c in row) for row in gr.delta]
    return "\n".join(lines) + "\n"


def write_semigroup(s: FiniteSemigroup) -> str:
    lines = [f"{s.element_count} {s.generator_count}"]
    lines += [" ".join(str(c) for c in row) for row in s.cayley]
    return "\n".join(lines) + "\n"


def _witness_str(witness: tuple) -> str:
    if all(isinstance(c, int) for c in witness):
        return " ".join(str(c) for c in witness)
    return " vs ".join(format_word(part) for part in witness)


def _describe(d: dict) -> str:
    if d.get("kind") == "graph":
        out = f"graph: alphabet {d['alphabet']}, nodes {d['nodes']}"
        if d.get("sink_added"):
            out += " (sink added)"
    else:
        out = f"semigroup: {d['elements']} elements, {d['generators']} generators"
    if d.get("source"):
        out += f" [{d['source']}]"
    return out


def _render_text(r: PropertyReport) -> str:
    lines = [_describe(r.descriptor)]
    stats = r.stats
    if "semigroup_elements" in stats:
        lines.append(f"transition semigroup: {stats['semigroup_elements']} elements, "
                     f"{stats['semigroup_generators']} generators")
    for v in r.verdicts:
        line = f"{v.property} = {v.holds}"
        if v.holds == NO:
            line += f"  (witness: {_witness_str(v.witness)})"
            if v.detail:
                line += f"  [{v.detail}]"
        elif v.holds == UNKNOWN and v.detail:
            line += f" ({v.detail})"
        lines.append(line)
    if r.order is not None:
        o = r.order
        if o.status == "found":
            lines.append(f"order = {o.k}")
        else:
            lines.append(f"order = {o.status} ({o.detail})")
    return "\n".join(lines) + "\n"


def _machine_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def _render_machine(r: PropertyReport) -> str:
    lines = [f"{key} = {_machine_value(val)}" for key, val in r.descriptor.items()]
    for v in r.verdicts:
        lines.append(f"{v.property} = {v.holds}")
        if v.witness is not None:
            if all(isinstance(c, int) for c in v.witness):
                lines.append(f"{v.property}.witness = {_witness_str(v.witness)}")
            else:
                first, second = v.witness
                lines.append(f"{v.property}.witness.first = {format_word(first)}")
                lines.append(f"{v.property}.witness.second = {format_word(second)}")
        if v.detail:
            lines.append(f"{v.property}.detail = {v.detail}")
    if r.order is not None:
        o = r.order
        lines.append(f"order.status = {o.status}")
        lines.append(f"order.k = {'none' if o.k is None else o.k}")
        lines.append(f"order.t = {o.t}")
        lines.append(f"order.k_max = {o.k_max}")
        lines.append(f"order.largest_failing = {o.largest_failing}")
        lines.append(f"order.states = {o.states}")
    for key in sorted(r.stats):
        lines.append(f"stats.{key} = {_machine_value(r.stats[key])}")
    return "\n".join(lines) + "\n"


def render_report(r: PropertyReport, format: str = "text") -> str:
    """Render a report; "text" for reading, "machine" for stable key-value
    lines (same input and flags give byte-identical output)."""
    if format == "text":
        return _render_text(r)
    if format == "machine":
        return _render_machine(r)
    raise ValueError(f"unknown report format {format!r}")
