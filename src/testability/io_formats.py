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
from itertools import chain, islice, takewhile
from operator import itemgetter

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


# A whitespace-separated token containing a digit.  Group 1 holds it
# when it is an integer and is None when it mixes digits with other
# characters; digitless tokens (comments) never match.
_TOKEN = re.compile(r"(?<!\S)(?:(-?\d+)(?!\S)|\S*\d\S*)")


def _pieces(text: str, size: int = 1 << 10):
    """``text`` cut at spaces into pieces of about ``size`` characters,
    which split into the text's tokens one piece at a time."""
    start = 0
    while start < len(text):
        end = text.find(" ", start + size)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end


def _split_values(text: str):
    """A text's values, converted by ``int`` from its split tokens a
    piece at a time; None if it holds ``+`` or ``_``, which ``int``
    accepts and ``_TOKEN`` does not.

    A piece that ``int`` cannot read whole (it holds a comment, a
    malformed token or a value past ``int``'s digit limit) is read by
    ``_regex_values`` instead.  The pieces after it go back to the split
    pass, unless a malformed token ended the values there.  Each piece's
    values come with its mark: its offset and the count of values before
    it.
    """
    if "+" in text or "_" in text:
        return None
    return _piece_values(text)


def _piece_values(text: str):
    offset = before = 0
    for piece in _pieces(text):
        try:
            values = list(map(int, piece.split()))
        except ValueError:
            yield (offset, before), _regex_values(piece)
            tokens = list(map(itemgetter(1), _TOKEN.finditer(piece)))
            if not all(tokens):
                return    # a malformed token ends the values
            before += len(tokens)
        else:
            yield (offset, before), values
            before += len(values)
        offset += len(piece)


def _regex_values(text: str):
    """The values of a text's numeric tokens before the first malformed
    one, from one lazy ``_TOKEN`` pass."""
    return map(int, takewhile(bool, map(itemgetter(1), _TOKEN.finditer(text))))


class _Numbers:
    """The numeric tokens of a text, handed out front to back.

    The C-level ``_split_values`` reads them piece by piece, and the
    regex, the definition of a token, reads only the pieces that
    ``int`` cannot.  A token's (line, column) is worked out only for an
    error, by a scan that starts at ``mark``: the offset of the piece
    being read and the count of values before it.
    """

    def __init__(self, text: str):
        self.text = text
        self.mark = (0, 0)
        pieces = _split_values(text)
        self._values = (_regex_values(text) if pieces is None
                        else chain.from_iterable(self._marked(pieces)))
        self.taken = 0

    def _marked(self, pieces):
        for mark, values in pieces:
            self.mark = mark
            yield values

    def take(self, count: int) -> list[int]:
        """The next ``count`` values.  Fewer means a malformed token or
        the end of the text came first; the caller then ends the parse
        through ``missing``, which says which."""
        values = list(islice(self._values, count))
        self.taken += len(values)
        return values

    def missing(self, what: str):
        """Raise for the token after the last one taken."""
        m = self._match(self.taken)
        if m is None:
            raise TooFewNumbers(f"input ended while reading {what}")
        raise BadToken(f"token {m.group()!r} mixes digits and other characters",
                       *self.where(self.taken, m), m.group())

    def where(self, i: int, m: re.Match | None = None) -> tuple[int, int]:
        """(line, column), from 1, of numeric token i, whose match may be given."""
        m = m or self._match(i)
        lines = self.text[:m.end()].splitlines()
        return len(lines), len(lines[-1]) - len(m.group()) + 1

    def _match(self, i: int) -> re.Match | None:
        offset, before = self.mark if i >= self.mark[1] else (0, 0)
        return next(islice(_TOKEN.finditer(self.text, offset), i - before, None), None)


def _header(nums: _Numbers, first: str, second: str) -> list[int]:
    header = nums.take(2)
    if len(header) < 2:
        nums.missing((first, second)[len(header)])
    return header


def _cells(nums: _Numbers, count: int, low: int, high: int, noun: str,
           unit: str) -> list[int]:
    """The next ``count`` values, all in low..high; the first cell out of
    range is reported before a malformed token or a short input."""
    start = nums.taken
    cells = nums.take(count)
    if cells and not (low <= min(cells) and max(cells) <= high):
        i = next(i for i, v in enumerate(cells) if not low <= v <= high)
        raise CellOutOfRange(f"{noun} {cells[i]} outside {low}..{high}",
                             *nums.where(start + i), str(cells[i]))
    if len(cells) < count:
        nums.missing(f"{unit} {len(cells) + 1} of {count}")
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
    return TransitionGraph._of_columns(a, g, (cells[c::a] for c in range(a)))


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
