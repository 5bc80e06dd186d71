"""Readers and writers for the plain-text matrix formats, plus report rendering.

Both file kinds are streams of whitespace-separated integers: a graph
starts with "alphabet_size node_count" followed by the transition table
row-major (one row per node, -1 for a missing transition); a semigroup
starts with "element_count generator_count" followed by the Cayley rows
(element times generator).  Any token containing no decimal digit is a
comment and is skipped; a token mixing digits with anything else is an
error, and so is a number too long for ``int`` in the header or table.
Tokens after the table are never read, so they are ignored whatever
they hold.  ``_Numbers`` reads the text in one lazy pass, about 1,000
characters at a time, and locates a token only to report an error.
"""

from __future__ import annotations

import re
from itertools import chain, islice

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


class NumberTooLong(ParseError):
    """A header value or table cell of more digits than ``int`` converts
    (4,300 on recent Pythons); the message gives its digit count only."""


# A whitespace-separated token containing a digit.  Group 1 holds it
# when it is an integer and is None when it mixes digits with other
# characters; digitless tokens (comments) never match.
_TOKEN = re.compile(r"(?<!\S)(?:(-?\d+)(?!\S)|\S*\d\S*)")
# Whitespace as ``str.split`` and ``_TOKEN`` see it, where pieces end.
_SPACE = re.compile(r"\s")


def _pieces(text: str, size: int = 1 << 10):
    """(start, end) bounds that cut ``text`` at whitespace into pieces of
    about ``size`` characters, which split into the text's tokens one
    piece at a time."""
    start = 0
    while start < len(text):
        m = _SPACE.search(text, start + size)
        end = m.start() if m else len(text)
        yield start, end
        start = end


class _Numbers:
    """The numeric tokens of a text, handed out front to back.

    One lazy pass reads the text a piece at a time, one list of values
    per piece.  ``int`` converts a piece's split tokens in one C-level
    pass, unless the piece holds ``+`` or ``_`` (``int`` accepts them,
    the format does not) or a token ``int`` rejects: then ``_TOKEN``,
    the definition of a token, reads that piece alone.  A malformed
    token, or a number too long for ``int``, ends the values, and its
    match is kept in ``stop`` to be reported if the table reaches it.
    """

    def __init__(self, text: str):
        self.text = text
        self.stop = None
        self._values = chain.from_iterable(self._read())

    def _read(self):
        text = self.text
        for start, end in _pieces(text):
            piece = text[start:end]
            if "+" not in piece and "_" not in piece:
                try:
                    values = list(map(int, piece.split()))
                except ValueError:
                    pass    # a comment, a malformed token or a long number
                else:
                    yield values
                    continue
            values = []
            for m in _TOKEN.finditer(text, start, end):
                try:
                    values.append(int(m[1]))
                except (TypeError, ValueError):    # malformed (m[1] is None), or too long
                    self.stop = m
                    break
            yield values
            if self.stop:
                return

    def take(self, count: int) -> list[int]:
        """The next ``count`` values.  Fewer means a malformed token, a
        number too long or the end of the text came first; the caller
        then ends the parse through ``missing``, which says which.  No
        text holds more values than characters, so a larger count (a
        header's product past ``islice``'s range) asks for them all."""
        return list(islice(self._values, min(count, len(self.text))))

    def missing(self, what: str):
        """Raise for the token after the last value taken: the kept match,
        or the end of the text."""
        m = self.stop
        if m is None:
            raise TooFewNumbers(f"input ended while reading {what}")
        if m[1] is None:
            raise BadToken(f"token {m[0]!r} mixes digits and other characters",
                           *self.where(m), m[0])
        raise NumberTooLong(f"number of {len(m[1].lstrip('-'))} digits is too long",
                            *self.where(m), m[0])

    def where(self, m: int | re.Match) -> tuple[int, int]:
        """(line, column), from 1, of a token's match, or of numeric token
        ``m``, found by one scan from the start."""
        if isinstance(m, int):
            m = next(islice(_TOKEN.finditer(self.text), m, None))
        lines = self.text[:m.end()].splitlines()
        return len(lines), len(lines[-1]) - len(m[0]) + 1


def _header(nums: _Numbers, first: str, second: str) -> list[int]:
    header = nums.take(2)
    if len(header) < 2:
        nums.missing((first, second)[len(header)])
    return header


def _cells(nums: _Numbers, count: int, low: int, high: int, noun: str,
           unit: str) -> list[int]:
    """The ``count`` values after the header, all in low..high; the first
    cell out of range is reported before a malformed token or a short
    input."""
    cells = nums.take(count)
    if cells and not (low <= min(cells) and max(cells) <= high):
        i = next(i for i, v in enumerate(cells) if not low <= v <= high)
        raise CellOutOfRange(f"{noun} {cells[i]} outside {low}..{high}",
                             *nums.where(2 + i), str(cells[i]))
    if len(cells) < count:
        try:
            total = str(count)
        except ValueError:    # a header's product may have more digits than str writes
            total = "a count too long to print"
        nums.missing(f"{unit} {len(cells) + 1} of {total}")
    return cells


def parse_graph(text: str) -> TransitionGraph:
    """Read "a g" then g rows of a transitions; -1 means undefined."""
    nums = _Numbers(text)
    a, g = _header(nums, "the alphabet size", "the node count")
    if a <= 0:
        raise NonpositiveHeader(f"alphabet size {a} must be positive",
                                *nums.where(0), str(a))
    if g <= 0:
        raise NonpositiveHeader(f"node count {g} must be positive",
                                *nums.where(1), str(g))
    cells = _cells(nums, g * a, UNDEFINED, g - 1, "transition target", "transition")
    return TransitionGraph._of_columns(cells[c::a] for c in range(a))


def parse_semigroup(text: str) -> FiniteSemigroup:
    """Read "n gN" then n Cayley rows of gN products.

    The closure from the generators and Light's associativity test both
    run before the value is returned, so a parsed semigroup is always a
    semigroup; NotGenerated or NotAssociative are raised otherwise.
    """
    nums = _Numbers(text)
    n, gn = _header(nums, "the element count", "the generator count")
    if n <= 0:
        raise HeaderInconsistent(f"element count {n} must be positive",
                                 *nums.where(0), str(n))
    if gn <= 0 or gn > n:
        raise HeaderInconsistent(f"generator count {gn} must be in 1..{n}",
                                 *nums.where(1), str(gn))
    cells = _cells(nums, n * gn, 0, n - 1, "product", "product")
    s = FiniteSemigroup(cells[i:i + gn] for i in range(0, n * gn, gn))
    verdict = check_associativity(s)
    if verdict.holds == NO:
        raise NotAssociative(verdict.witness)
    return s


def _write_table(header: str, rows, width: int) -> str:
    """The header line, then rows of ``width`` cells, each through ``str`` once."""
    cells = map(str, chain.from_iterable(rows))
    lines = map(" ".join, zip(*[cells] * width))
    return "\n".join(chain((header,), lines)) + "\n"


def write_graph(gr: TransitionGraph) -> str:
    return _write_table(f"{gr.alphabet_size} {gr.node_count}", zip(*gr.columns),
                        gr.alphabet_size)


def write_semigroup(s: FiniteSemigroup) -> str:
    return _write_table(f"{s.element_count} {s.generator_count}", s.cayley, s.generator_count)


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
