"""Parsing, writing, and report rendering for the text matrix formats."""

from collections import Counter
from functools import partial
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from testability import (
    BadToken,
    CellOutOfRange,
    HeaderInconsistent,
    NonpositiveHeader,
    NotAssociative,
    NotGenerated,
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
from tests.corpus import (fixtures, random_graph, seeded, semigroup_zoo,
                          small_transformation_semigroups)

FIX = fixtures()


def test_parse_graph_examples():
    assert parse_graph("1 2\n1\n0\n") == FIX.D_parity
    assert parse_graph("2 1  0 0") == FIX.D_triv
    assert parse_graph("2 3\n1 2\n2 0\n2 2\n") == FIX.D_ab


def test_parse_graph_partial_cells():
    gr = parse_graph("2 2 sink row follows\n0 -1\n1 1\n")
    assert gr.delta == ((0, -1), (1, 1))
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


def test_bad_token_reports_its_position():
    with pytest.raises(BadToken) as exc:
        parse_graph("2x 2\n0 0\n0 0\n")
    assert exc.value.line == 1
    assert exc.value.column == 1
    assert exc.value.token == "2x"


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
    assert square.delta == ((3,), (2,), (1,), (0,))
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
    """Stands in for ``_TOKEN``, counting the passes over one text and
    keeping the offset each one starts at."""

    def __init__(self, pattern, text):
        self.pattern, self.text, self.passes, self.starts = pattern, text, 0, []

    def finditer(self, text, pos=0):
        if text == self.text:
            self.passes += 1
            self.starts.append(pos)
        return self.pattern.finditer(text, pos)


@pytest.mark.parametrize("where", ["header", "middle", "last"])
def test_a_bad_token_is_found_by_one_pass_over_the_text(monkeypatch, where):
    """A ``BadToken`` report scans the whole text for its token once,
    and names the same line and column as before."""
    gr = random_graph(seeded("bad-token-pass"), 1000, 2)
    lines = write_graph(gr).splitlines()
    line = {"header": 0, "middle": 500, "last": len(lines) - 1}[where]
    lines[line] = lines[line].rsplit(" ", 1)[0] + " 1x"
    text = "\n".join(lines) + "\n"
    assert len(text) > 4 * 1024    # more than one piece of the split pass
    spy = _CountingPattern(io_formats._TOKEN, text)
    monkeypatch.setattr(io_formats, "_TOKEN", spy)
    with pytest.raises(BadToken) as exc:
        parse_graph(text)
    assert spy.passes == 1
    assert (exc.value.line, exc.value.token) == (line + 1, "1x")
    assert exc.value.column == len(lines[line]) - 1


@pytest.mark.parametrize("where", ["middle", "last"])
@pytest.mark.parametrize("comment", [False, True])
def test_a_bad_token_scan_starts_at_its_piece(monkeypatch, where, comment):
    """The split pass stops at the piece that holds a malformed token,
    and the scan that places the token starts there, counting the values
    before it, so a bad token near the end of a large file is not found
    by a scan from the start.  A comment in the first piece sends that
    piece through the regex and leaves the count unchanged."""
    gr = random_graph(seeded("bad-token-piece"), 3000, 2)
    lines = write_graph(gr).splitlines()
    line = {"middle": 1500, "last": len(lines) - 1}[where]
    lines[line] = lines[line].rsplit(" ", 1)[0] + " 1x"
    text = ("# a comment\n" if comment else "") + "\n".join(lines) + "\n"
    at = text.index(" 1x\n") + 1
    starts = list(accumulate(map(len, io_formats._pieces(text)), initial=0))
    piece = max(s for s in starts if s <= at)
    assert piece > len(text) // 3 and at - piece < 2 * 1024
    spy = _CountingPattern(io_formats._TOKEN, text)
    monkeypatch.setattr(io_formats, "_TOKEN", spy)
    with pytest.raises(BadToken) as exc:
        parse_graph(text)
    assert spy.starts == [piece]
    assert (exc.value.line, exc.value.token) == (line + 1 + comment, "1x")


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
        cells = [c for row in random_graph(rng, g, a).delta for c in row]
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


def test_split_pass_reads_what_the_regex_reads(monkeypatch):
    """Seeded fuzz: both parsers give the same value through the C-level
    split pass as through the regex alone, or raise the same exception
    class with the same message, line and column.  Comments fall at
    random positions, and pieces are cut as short as a few characters,
    so pieces the regex reads are followed by pieces the split pass
    reads."""
    rng = seeded("tokenizer")
    pieces = io_formats._pieces
    cases = Counter()
    for _ in range(3000):
        parse, text = _fuzzed_stream(rng)
        size = rng.choice((1, 8, 1 << 10))
        monkeypatch.setattr(io_formats, "_pieces", partial(pieces, size=size))
        fast = _outcome(parse, text)
        with monkeypatch.context() as m:
            m.setattr(io_formats, "_split_values", lambda text: None)
            assert _outcome(parse, text) == fast, text
        commented = any(c in text.split() for c in _COMMENTS)
        cases[io_formats._split_values(text) is not None, isinstance(fast, tuple), commented] += 1
    assert len(cases) == 8, cases


def test_a_comment_header_leaves_the_rest_to_the_split_pass(monkeypatch):
    """A one-line comment header sends only the piece that holds it
    through ``_regex_values``; the tokens after that piece are split."""
    text = write_graph(random_graph(seeded("comment-header"), 3000, 3))
    read = []

    def spy(text):
        read.append(text)
        return regex_values(text)

    regex_values = io_formats._regex_values
    monkeypatch.setattr(io_formats, "_regex_values", spy)
    commented = "# a comment header\n" + text
    assert parse_graph(commented) == parse_graph(text)
    first = next(io_formats._pieces(commented))
    assert read == [first]
    assert len(first) < 2000 < len(text)


def test_pieces_split_into_the_tokens_of_the_whole_text():
    """Cut at spaces, the pieces of a text split into its tokens, at any
    piece size, whatever whitespace the text mixes."""
    rng = seeded("pieces")
    for _ in range(200):
        text = "".join(rng.choice(("7", "-12", "x", "٣")) + rng.choice(_SPACES) * rng.randint(1, 2)
                       for _ in range(rng.randint(0, 30)))
        for size in range(1, 12):
            pieces = list(io_formats._pieces(text, size))
            assert "".join(pieces) == text
            assert [t for p in pieces for t in p.split()] == text.split()
    big = write_graph(random_graph(seeded("pieces-graph"), 3000, 3))
    assert len(list(io_formats._pieces(big))) > 2
    assert [t for p in io_formats._pieces(big) for t in p.split()] == big.split()


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
