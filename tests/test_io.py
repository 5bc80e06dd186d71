"""Parsing, writing, and report rendering for the text matrix formats."""

import sys
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, strategies as st

from testability import (
    BadToken,
    CellOutOfRange,
    HeaderInconsistent,
    NonpositiveHeader,
    NotAssociative,
    NotGenerated,
    NumberTooLong,
    ParseError,
    TooFewNumbers,
    TransitionGraph,
    Verdict,
    check_associativity,
    graph_direct_product,
    parse_graph,
    parse_semigroup,
    render_report,
    write_graph,
    write_semigroup,
)
from testability import io_formats
from testability.model import PropertyReport
from tests import naive
from tests.corpus import (LONG_NUMERAL, fixtures, int_refuses, random_graph, seeded,
                          semigroup_zoo, small_transformation_semigroups)

FIX = fixtures()


def test_parse_graph_examples():
    assert parse_graph("1 2\n1\n0\n") == FIX.D_parity
    assert parse_graph("2 1  0 0") == FIX.D_triv
    assert parse_graph("2 3\n1 2\n2 0\n2 2\n") == FIX.D_ab


def test_parse_graph_partial_cells():
    gr = parse_graph("2 2 sink row follows\n0 -1\n1 1\n")
    assert naive.rows_of(gr) == ((0, -1), (1, 1))
    assert not gr.complete


def test_parse_semigroup_examples():
    assert parse_semigroup("2 1\n1\n0\n") == FIX.Z2
    assert parse_semigroup("2 2\n0 0\n1 1\n") == FIX.LZ2
    assert parse_semigroup("2 2\n0 0\n0 1\n") == FIX.U1


def test_parse_semigroup_accepts_full_table_presentation():
    s = parse_semigroup("2 2\n1 0\n0 1\n")
    assert s.element_count == 2
    assert s.generator_count == 2


def test_comments_are_skipped_and_trailing_numbers_ignored():
    assert parse_graph("# parity\n1 2\n1 ; flip\n0\n99 98") == FIX.D_parity
    assert parse_semigroup("n= 2 g= 1\ntable: 1 0 extra: 7") == FIX.Z2


def test_too_few_numbers():
    with pytest.raises(TooFewNumbers) as exc:
        parse_graph("1 2\n1\n")
    assert "transition 2 of 2" in str(exc.value)
    with pytest.raises(TooFewNumbers):
        parse_semigroup("2 1\n1\n")
    with pytest.raises(TooFewNumbers):
        parse_graph("")
    with pytest.raises(TooFewNumbers) as exc:    # a table past islice's range
        parse_graph("2 " + "9" * 30 + "\n0 0\n")
    assert str(exc.value).endswith(f"transition 3 of {2 * int('9' * 30)}")
    for parse, unit in ((parse_graph, "transition"), (parse_semigroup, "product")):
        with pytest.raises(TooFewNumbers) as exc:    # a table size past str's range
            parse("9" * 2500 + " " + "9" * 2500 + "\n0\n")
        if int_refuses(LONG_NUMERAL):
            assert str(exc.value).endswith(f"{unit} 2 of a count too long to print")


def test_bad_token_reports_its_position():
    with pytest.raises(BadToken) as exc:
        parse_graph("2x 2\n0 0\n0 0\n")
    assert exc.value.line == 1
    assert exc.value.column == 1
    assert exc.value.token == "2x"


needs_int_digit_limit = pytest.mark.skipif(not int_refuses(LONG_NUMERAL),
                                           reason="int() has no digit limit here")


@needs_int_digit_limit
@pytest.mark.parametrize("parse, text, line, column", [
    (parse_graph, f"{LONG_NUMERAL} 2\n1\n0\n", 1, 1),
    (parse_graph, f"1 {LONG_NUMERAL}\n1\n0\n", 1, 3),
    (parse_graph, f"1 2\n1\n-{LONG_NUMERAL}\n", 3, 1),
    (parse_semigroup, f"2 {LONG_NUMERAL}\n1\n0\n", 1, 3),
    (parse_semigroup, f"# cyclic\n2 1\n  {LONG_NUMERAL} 0\n", 3, 3),
], ids=["graph-alphabet", "graph-nodes", "graph-cell", "semigroup-generators",
        "semigroup-cell"])
def test_a_number_too_long_for_int_is_a_parse_error(parse, text, line, column):
    """A header value or table cell that ``int`` refuses is located, and
    its digit count, not its value, is reported."""
    with pytest.raises(NumberTooLong) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"line {line}, column {column}: number of 5000 digits is too long"


@needs_int_digit_limit
def test_trailing_numbers_are_ignored_however_long():
    """Values after the table are never read, whether they share the
    table's last piece or follow it in a piece of their own."""
    for tail in (f" {LONG_NUMERAL}", f"\n-{LONG_NUMERAL} 1x\n", f" a+b {LONG_NUMERAL} 1_0"):
        assert parse_graph("1 2\n1\n0" + tail) == FIX.D_parity
        assert parse_semigroup("2 1\n1\n0" + tail) == FIX.Z2
    gr = random_graph(seeded("long-tail"), 3000, 2)
    text = write_graph(gr) + f"{LONG_NUMERAL} " * 3
    assert len(list(io_formats._pieces(text))) > 20
    assert parse_graph(text) == gr


def test_graph_cell_out_of_range():
    with pytest.raises(CellOutOfRange) as exc:
        parse_graph("1 2\n2\n0\n")
    assert exc.value.line == 2
    assert exc.value.column == 1
    assert exc.value.token == "2"
    with pytest.raises(CellOutOfRange):
        parse_graph("1 1\n-2\n")


def test_semigroup_cell_out_of_range():
    with pytest.raises(CellOutOfRange) as exc:
        parse_semigroup("2 1\n1\n2\n")
    assert exc.value.line == 3
    assert "outside 0..1" in str(exc.value)


def test_bad_headers():
    with pytest.raises(NonpositiveHeader):
        parse_graph("0 2\n")
    with pytest.raises(NonpositiveHeader):
        parse_graph("2 -1\n")
    with pytest.raises(HeaderInconsistent):
        parse_semigroup("0 1\n")
    with pytest.raises(HeaderInconsistent):
        parse_semigroup("2 3\n0 0 0\n0 0 0\n")
    with pytest.raises(HeaderInconsistent):
        parse_semigroup("2 0\n")


def test_parser_runs_the_closure_check():
    with pytest.raises(NotGenerated) as exc:
        parse_semigroup("2 1\n0\n1\n")
    assert exc.value.element == 1


def test_parser_runs_the_associativity_check():
    with pytest.raises(NotAssociative) as exc:
        parse_semigroup("2 2\n1 0\n0 0\n")
    assert exc.value.triple == (0, 0, 1)


def test_parse_errors_are_value_errors():
    for bad in ("", "0 1", "1 1\nx1\n"):
        with pytest.raises(ParseError):
            parse_graph(bad)
    assert issubclass(ParseError, ValueError)


def test_write_graph_exact_bytes():
    assert write_graph(FIX.D_parity) == "1 2\n1\n0\n"
    assert write_graph(FIX.D_triv) == "2 1\n0 0\n"


def test_write_semigroup_exact_bytes():
    assert write_semigroup(FIX.Z2) == "2 1\n1\n0\n"


@pytest.mark.parametrize("gr", [FIX.D_triv, FIX.D_parity, FIX.D_ab,
                                TransitionGraph(2, 2, ((0, -1), (1, 1)))])
def test_graph_round_trip(gr):
    text = write_graph(gr)
    assert parse_graph(text) == gr
    assert write_graph(parse_graph(text)) == text


@pytest.mark.parametrize("s", [FIX.U1, FIX.LZ2, FIX.Z2])
def test_semigroup_round_trip(s):
    text = write_semigroup(s)
    assert parse_semigroup(text) == s
    assert write_semigroup(parse_semigroup(text)) == text


def test_product_output_round_trips():
    square = graph_direct_product(FIX.D_parity, FIX.D_parity)
    assert naive.rows_of(square) == ((3,), (2,), (1,), (0,))
    assert parse_graph(write_graph(square)) == square


def _cell_by_cell(a, n, rows):
    """A graph file written one cell at a time, from the rows."""
    out = f"{a} {n}\n"
    for row in rows:
        out += " ".join(str(c) for c in row) + "\n"
    return out


def test_parse_write_round_trip_gives_the_cell_by_cell_bytes():
    """Seeded graphs, spelled with uneven spacing, line breaks and
    comments, parse to columns that write back as the rows written cell
    by cell."""
    rng = seeded("column-round-trip")
    for _ in range(60):
        g, a = rng.randint(1, 300), rng.randint(1, 3)
        rows = [[rng.randrange(-1, g) for _ in range(a)] for _ in range(g)]
        cells = [str(c) for row in rows for c in row]
        spelled = [f"{a}", f"{g}"] + cells
        text = "".join(token + rng.choice((" ", "  ", "\n", " # note\n", "\t"))
                       for token in spelled)
        want = _cell_by_cell(a, g, rows)
        assert write_graph(parse_graph(text)) == want
        assert write_graph(parse_graph(want)) == want


class _CountingPattern:
    """Stands in for ``_TOKEN``, keeping the (start, end) bounds of each
    pass over one text."""

    def __init__(self, pattern, text):
        self.pattern, self.text, self.passes = pattern, text, []

    def finditer(self, text, pos=0, endpos=sys.maxsize):
        if text == self.text:
            self.passes.append((pos, min(endpos, len(text))))
        return self.pattern.finditer(text, pos, endpos)


def _piece_at(text, offset):
    """The bounds of the piece of ``text`` that holds ``offset``."""
    return next((start, end) for start, end in io_formats._pieces(text) if offset < end)


@pytest.mark.parametrize("where", ["header", "middle", "last"])
def test_a_bad_token_is_found_by_one_pass_over_the_text(monkeypatch, where):
    """A ``BadToken`` report costs no regex pass beyond reading: the one
    pass reads the piece that holds the token, and the report names the
    same line and column as before."""
    gr = random_graph(seeded("bad-token-pass"), 1000, 2)
    lines = write_graph(gr).splitlines()
    line = {"header": 0, "middle": 500, "last": len(lines) - 1}[where]
    lines[line] = lines[line].rsplit(" ", 1)[0] + " 1x"
    text = "\n".join(lines) + "\n"
    assert len(text) > 4 * 1024    # more than one piece
    spy = _CountingPattern(io_formats._TOKEN, text)
    monkeypatch.setattr(io_formats, "_TOKEN", spy)
    with pytest.raises(BadToken) as exc:
        parse_graph(text)
    assert spy.passes == [_piece_at(text, text.index(" 1x\n") + 1)]
    assert (exc.value.line, exc.value.token) == (line + 1, "1x")
    assert exc.value.column == len(lines[line]) - 1


@pytest.mark.parametrize("where", ["middle", "last"])
@pytest.mark.parametrize("comment", [False, True])
def test_a_bad_token_scan_starts_at_its_piece(monkeypatch, where, comment):
    """The reading stops at the piece that holds a malformed token, and
    the regex pass that finds the token starts there, so a bad token
    near the end of a large file is not found by a scan from the start.
    A comment in the first piece sends that piece through the regex as
    well, and no other."""
    gr = random_graph(seeded("bad-token-piece"), 3000, 2)
    lines = write_graph(gr).splitlines()
    line = {"middle": 1500, "last": len(lines) - 1}[where]
    lines[line] = lines[line].rsplit(" ", 1)[0] + " 1x"
    text = ("# a comment\n" if comment else "") + "\n".join(lines) + "\n"
    at = text.index(" 1x\n") + 1
    piece = _piece_at(text, at)[0]
    assert piece > len(text) // 3 and at - piece < 2 * 1024
    spy = _CountingPattern(io_formats._TOKEN, text)
    monkeypatch.setattr(io_formats, "_TOKEN", spy)
    with pytest.raises(BadToken) as exc:
        parse_graph(text)
    assert [start for start, _ in spy.passes] == [0] * comment + [piece]
    assert (exc.value.line, exc.value.token) == (line + 1 + comment, "1x")


@pytest.mark.parametrize("last", ["a_b", "1_0"])
def test_only_pieces_with_a_comment_a_plus_or_an_underscore_meet_the_regex(monkeypatch, last):
    """``int`` reads every piece but those that hold a comment, ``+`` or
    ``_``, and the regex reads each of those once.  ``1_0``, which
    ``int`` reads as 10, is a malformed token."""
    gr = random_graph(seeded("regex-pieces"), 3000, 3)
    lines = write_graph(gr).splitlines()
    for line, comment in ((0, "# my_graph\n"), (900, "a+b "), (1800, "# plain "),
                          (2700, last + " ")):
        lines[line] = comment + lines[line]
    text = "\n".join(lines) + "\n"
    marked = [(start, end) for start, end in io_formats._pieces(text)
              if any(mark in text[start:end] for mark in ("#", "+", "_"))]
    assert len(marked) == 4 and len(list(io_formats._pieces(text))) > 20
    spy = _CountingPattern(io_formats._TOKEN, text)
    monkeypatch.setattr(io_formats, "_TOKEN", spy)
    if last == "a_b":
        assert parse_graph(text) == gr
    else:
        with pytest.raises(BadToken) as exc:
            parse_graph(text)
        assert (exc.value.line, exc.value.column, exc.value.token) == (2702, 1, "1_0")
    assert spy.passes == marked


_COMMENT = st.text(alphabet="abcxyz#;!-=", min_size=1, max_size=6)


@given(st.lists(st.tuples(st.integers(0, 20), _COMMENT), max_size=6))
def test_digitless_tokens_never_change_a_parse(insertions):
    tokens = write_graph(FIX.D_ab).split()
    for pos, word in insertions:
        tokens.insert(pos % (len(tokens) + 1), word)
    assert parse_graph(" ".join(tokens)) == FIX.D_ab


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n),
    st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))))
def test_parsed_semigroups_always_pass_lights_test(args):
    n, g, cells = args
    text = f"{n} {g}\n" + " ".join(str(c) for c in cells[:n * g])
    try:
        s = parse_semigroup(text)
    except (NotGenerated, NotAssociative):
        return
    assert check_associativity(s).holds == "yes"


_NON_ASCII_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_SPACES = (" ", " ", " ", "\n", "\t", "\u00a0", "\u2003")
_COMMENTS = ("#", "abc", "-", "--", "é", "x;")
_FUZZ_SEMIGROUPS = [FIX.U1, FIX.LZ2, FIX.Z2] + [
    s for s in semigroup_zoo() + small_transformation_semigroups() if s.element_count <= 12]


def _respelled(v: int, rng) -> str:
    """A spelling of v: the first four read as v by every route, ``int``
    takes the next two and the regex does not, and the rest are
    malformed tokens for both."""
    text = str(v)
    sign, digits = ("-", text[1:]) if v < 0 else ("", text)
    return rng.choice([
        text,
        "-0" if v == 0 else text,
        sign + "00" + digits,
        text.translate(_NON_ASCII_DIGITS),
        "+" + text,
        sign + digits[:1] + "_" + digits[1:] if len(digits) > 1 else "1_" + digits,
        "1e3",
        "0x1",
        text + "a",
    ])


def _fuzzed_stream(rng):
    """(parser, text): a small graph or semigroup file whose numbers are
    respelled, commented, cut short, pushed out of range, too long for
    ``int`` or followed by extra tokens, at random."""
    if rng.random() < 0.5:
        parse = parse_graph
        a, g = rng.randint(1, 3), rng.randint(1, 4)
        cells = [c for row in naive.rows_of(random_graph(rng, g, a)) for c in row]
        values = [a, g] + [-1 if rng.random() < 0.1 else c for c in cells]
    else:
        parse = parse_semigroup
        s = rng.choice(_FUZZ_SEMIGROUPS)
        values = [s.element_count, s.generator_count] + [c for row in s.cayley for c in row]
    if rng.random() < 0.2:
        values[rng.randrange(len(values))] = rng.choice((-2, 9, 1000))
    if rng.random() < 0.2:
        del values[rng.randrange(len(values)):]
    rate = rng.choice((0, 0.1, 0.3))
    tokens = [_respelled(v, rng) if rng.random() < rate else str(v) for v in values]
    if tokens and rng.random() < 0.02:  # past the digit limit of int()
        tokens[rng.randrange(len(tokens))] = "9" * 5000
    for _ in range(rng.choice((0, 0, 1, 2, 6))):
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(_COMMENTS))
    if rng.random() < 0.2:  # a comment header line
        tokens.insert(0, "# " + rng.choice(_COMMENTS) + "\n")
    if rng.random() < 0.2:
        tokens.append(rng.choice(("99", "+1", "1_0", "1e3", "abc")))
    return parse, "".join(t + rng.choice(_SPACES) for t in tokens)


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, NotGenerated, NotAssociative) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _read_all(text):
    """Every value the reader hands out, and the (token, line, column)
    of the token that ended them, or None, as ``naive.numbers`` gives them."""
    nums = io_formats._Numbers(text)
    values = nums.take(len(text))
    try:
        nums.missing("the rest")
    except TooFewNumbers:
        return values, None
    except ParseError as exc:
        return values, (exc.token, exc.line, exc.column)


def _naive_read(self):
    """``_Numbers._read`` through ``naive.numbers``: all values in one
    list, and the match of the token that ended them."""
    values, stop = naive.numbers(self.text)
    if stop:
        token, line, column = stop
        offset = len("".join(self.text.splitlines(True)[:line - 1])) + column - 1
        self.stop = io_formats._TOKEN.match(self.text, offset)
    yield values


def test_split_pass_reads_what_the_regex_reads(monkeypatch):
    """Seeded fuzz against the reference reader ``naive.numbers``: the
    reader hands out its values and stops at its token, and both parsers
    give the same value as through the reference, or raise the same
    exception class with the same message, line and column.  Comments
    fall at random positions, and pieces are cut as short as a few
    characters, so pieces the regex reads are followed by pieces ``int``
    reads."""
    rng = seeded("tokenizer")
    pieces = io_formats._pieces
    cases = Counter()
    for _ in range(3000):
        parse, text = _fuzzed_stream(rng)
        size = rng.choice((1, 8, 1 << 10))
        monkeypatch.setattr(io_formats, "_pieces", partial(pieces, size=size))
        assert _read_all(text) == naive.numbers(text), text
        fast = _outcome(parse, text)
        with monkeypatch.context() as m:
            m.setattr(io_formats._Numbers, "_read", _naive_read)
            assert _outcome(parse, text) == fast, text
        commented = any(c in text.split() for c in _COMMENTS)
        cases["+" in text or "_" in text, isinstance(fast, tuple), commented] += 1
    assert len(cases) == 8, cases


def test_a_comment_header_leaves_the_rest_to_the_split_pass(monkeypatch):
    """A one-line comment header sends only the piece that holds it
    through the regex; ``int`` reads the tokens after that piece.  A
    one-letter graph has one cell a line, so its pieces end at newlines."""
    for letters in (3, 1):
        text = write_graph(random_graph(seeded("comment-header"), 3000, letters))
        commented = "# a comment header\n" + text
        spy = _CountingPattern(io_formats._TOKEN, commented)
        monkeypatch.setattr(io_formats, "_TOKEN", spy)
        assert parse_graph(commented) == parse_graph(text)
        first = next(io_formats._pieces(commented))
        assert spy.passes == [first]
        assert first[1] < 2000 < len(text)


def test_pieces_split_into_the_tokens_of_the_whole_text():
    """Cut at whitespace, the pieces of a text split into its tokens, at
    any piece size, whatever whitespace the text mixes."""
    rng = seeded("pieces")
    for _ in range(200):
        text = "".join(rng.choice(("7", "-12", "x", "٣")) + rng.choice(_SPACES) * rng.randint(1, 2)
                       for _ in range(rng.randint(0, 30)))
        for size in range(1, 12):
            pieces = [text[start:end] for start, end in io_formats._pieces(text, size)]
            assert "".join(pieces) == text
            assert [t for p in pieces for t in p.split()] == text.split()
    big = write_graph(random_graph(seeded("pieces-graph"), 3000, 3))
    pieces = [big[start:end] for start, end in io_formats._pieces(big)]
    assert len(pieces) > 2
    assert [t for p in pieces for t in p.split()] == big.split()


def test_text_rendering_of_witnesses():
    report = PropertyReport(
        {"kind": "semigroup", "elements": 2, "generators": 1},
        (Verdict("aperiodicity", "no", (0,), "element 0 has period 2"),
         Verdict("local_idempotence", "yes")))
    text = render_report(report)
    assert "semigroup: 2 elements, 1 generators" in text
    assert "aperiodicity = no  (witness: 0)  [element 0 has period 2]" in text
    assert "local_idempotence = yes" in text


def test_word_pair_witnesses_render_as_words():
    report = PropertyReport(
        {"kind": "graph", "alphabet": 1, "nodes": 2, "sink_added": False},
        (Verdict("k_testability", "no", ((0, 0), (0, 0, 0)), "k=2"),))
    text = render_report(report)
    assert "(witness: aa vs aaa)" in text
    machine = render_report(report, "machine")
    assert "k_testability.witness.first = aa" in machine
    assert "k_testability.witness.second = aaa" in machine


def test_unknown_report_format_is_rejected():
    report = PropertyReport({"kind": "graph", "alphabet": 1, "nodes": 1,
                             "sink_added": False}, ())
    with pytest.raises(ValueError):
        render_report(report, "json")
