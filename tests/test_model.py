"""Core value types: construction, validation, word helpers."""

import re

import pytest
from hypothesis import given, strategies as st

from testability import (
    FiniteSemigroup,
    NotGenerated,
    TransitionGraph,
    Verdict,
    compose,
    format_word,
    identity_map,
    letter_name,
)
from testability.model import OrderResult, PropertyReport
from tests import naive
from tests.corpus import (fixtures, random_graph, random_partial_graph, seeded,
                          semigroup_zoo)

FIX = fixtures()


def test_fixture_tables_are_bit_exact():
    assert FIX.U1.cayley == ((0, 0), (0, 1))
    assert FIX.LZ2.cayley == ((0, 0), (1, 1))
    assert FIX.Z2.cayley == ((1,), (0,))
    assert naive.rows_of(FIX.D_triv) == ((0, 0),)
    assert naive.rows_of(FIX.D_parity) == ((1,), (0,))
    assert naive.rows_of(FIX.D_ab) == ((1, 2), (2, 0), (2, 2))


def test_z2_products():
    z2 = FIX.Z2
    assert z2.prod(0, 0) == 1
    assert z2.prod(0, 1) == 0
    assert z2.prod(1, 0) == 0
    assert z2.prod(1, 1) == 1


def test_factorizations_are_shortest_words():
    assert FIX.LZ2.factorization == ((0,), (1,))
    assert FIX.Z2.factorization == ((0,), (0, 0))
    assert FIX.U1.factorization == ((0,), (1,))


def test_product_table_extends_cayley_columns():
    for s in (FIX.U1, FIX.LZ2, FIX.Z2):
        table = s.product
        for x in range(s.element_count):
            for j in range(s.generator_count):
                assert table[x][j] == s.cayley[x][j]
        # the row cache and the fold-based prod agree everywhere
        for x in range(s.element_count):
            for y in range(s.element_count):
                assert table[x][y] == s.prod(x, y)


def test_rows_of_an_all_generator_table_are_its_cayley_rows():
    # g = n: every column is already a full row, so no copy is kept.
    for s in [FIX.U1, FIX.LZ2] + semigroup_zoo()[4:]:
        assert s.generator_count == s.element_count
        for x in range(s.element_count):
            assert s.row(x) is s.cayley[x]
        assert [list(row) for row in s.product] == naive.product_table(s.cayley)


def test_not_generated_names_the_orphan():
    with pytest.raises(NotGenerated) as exc:
        FiniteSemigroup(((0,), (1,)))
    assert exc.value.element == 1


def test_semigroup_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FiniteSemigroup(())
    with pytest.raises(ValueError):
        FiniteSemigroup(((0, 0, 0), (0, 0, 0)))  # more generators than elements
    with pytest.raises(ValueError):
        FiniteSemigroup(((0,), (0, 0)))  # ragged rows
    with pytest.raises(ValueError):
        FiniteSemigroup(((2,), (0,)))  # cell out of range


def test_semigroup_equality_ignores_caches():
    a = FiniteSemigroup(((1,), (0,)))
    b = FiniteSemigroup(((1,), (0,)))
    a.row(1)
    assert a == b
    assert hash(a) == hash(b)
    assert a != FIX.U1


def test_graph_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TransitionGraph(0, 1, ((),))
    with pytest.raises(ValueError):
        TransitionGraph(1, 0, ())
    with pytest.raises(ValueError):
        TransitionGraph(1, 2, ((0,),))  # missing a row
    with pytest.raises(ValueError):
        TransitionGraph(2, 1, ((0,),))  # short row
    with pytest.raises(ValueError):
        TransitionGraph(1, 2, ((0,), (2,)))  # cell out of range
    with pytest.raises(ValueError):
        TransitionGraph(1, 2, ((0,), (-2,)))  # only -1 marks a hole


def _outcome(build, *args):
    """("ok", value) or the type and message of what ``build`` raised."""
    try:
        return "ok", build(*args)
    except (ValueError, NotGenerated) as exc:
        return type(exc), str(exc)


def _malform(rng, rows, low, high):
    """``rows`` as lists with zero to three seeded defects: a row one
    cell short or long, a row dropped or repeated, a cell just outside
    low..high."""
    rows = [list(row) for row in rows]
    for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
        if not rows:
            break
        defect, row = rng.randrange(3), rng.randrange(len(rows))
        if defect == 0:
            if rows[row] and rng.random() < 0.5:
                rows[row].pop()
            else:
                rows[row].append(rng.randint(low, high))
        elif defect == 1:
            if rng.random() < 0.5:
                del rows[row]
            else:
                rows.insert(row, list(rows[row]))
        elif rows[row]:
            rows[row][rng.randrange(len(rows[row]))] = rng.choice(
                (low - 1 - rng.randrange(3), high + 1 + rng.randrange(3)))
    return rows


def _kind(outcome):
    """The outcome with every number in its message blanked out."""
    if outcome[0] in ("ok", NotGenerated):
        return outcome[0]
    return re.sub(r"-?\d+", "#", outcome[1])


def test_constructor_errors_match_the_row_by_row_reference():
    """Seeded malformed tables raise the exception type and message of
    the row-by-row reference; valid ones are stored as it stores them."""
    rng = seeded("constructor-errors")
    graph_kinds = set()
    for _ in range(300):
        a, g = rng.randrange(1, 4), rng.randrange(1, 6)
        base = (random_partial_graph if rng.random() < 0.5 else random_graph)(rng, g, a)
        delta = _malform(rng, naive.rows_of(base), -1, g - 1)
        want = _outcome(naive.graph_rows, a, g, delta)
        assert _outcome(lambda: naive.rows_of(TransitionGraph(a, g, iter(delta)))) == want
        graph_kinds.add(_kind(want))
    assert graph_kinds == {"ok", "expected # rows, got #", "row # has # cells, expected #",
                           "cell # at node # out of range"}

    zoo = semigroup_zoo()
    semigroup_kinds = set()
    for _ in range(300):
        s = rng.choice(zoo)
        rows = _malform(rng, s.cayley, 0, s.element_count - 1)
        want = _outcome(naive.semigroup_rows, rows)
        assert _outcome(lambda: FiniteSemigroup(rows).cayley) == want
        semigroup_kinds.add(_kind(want))
    assert semigroup_kinds >= {"ok", NotGenerated, "generator count # not in #..#",
                               "row # has # cells, expected #", "cell # in row # out of range"}


def _malform_columns(rng, columns, node_count):
    """``columns`` as lists, each as long as the others, with zero to
    two seeded defects: a cell just outside -1..node_count-1, a node
    dropped from or added to every column, a column dropped or added,
    or a header of 0."""
    columns = [list(column) for column in columns]
    a, n = len(columns), node_count
    for _ in range(rng.choice((0, 1, 1, 2))):
        defect = rng.randrange(4)
        if defect == 0 and columns[0]:
            column = rng.choice(columns)
            column[rng.randrange(len(column))] = rng.choice((-2, n, n + 1))
        elif defect == 1:
            if len(columns[0]) > 1 and rng.random() < 0.5:
                for column in columns:
                    column.pop()
            else:
                for column in columns:
                    column.append(rng.randrange(n))
        elif defect == 2:
            if len(columns) > 1 and rng.random() < 0.5:
                columns.pop(rng.randrange(len(columns)))
            else:
                columns.append([rng.randrange(n) for _ in columns[0]])
        elif rng.random() < 0.5:
            return 0, n, columns
        else:
            return a, 0, columns
    return a, n, columns


def test_column_path_errors_match_the_row_by_row_reference():
    """The builders' column path raises what the public constructor and
    the row-by-row reference raise for the same table read as rows, and
    stores what they store."""
    rng = seeded("column-errors")
    kinds = set()
    for _ in range(400):
        g, a = rng.randrange(1, 6), rng.randrange(1, 4)
        base = (random_partial_graph if rng.random() < 0.5 else random_graph)(rng, g, a)
        a, n, columns = _malform_columns(rng, base.columns, g)
        rows = list(zip(*columns))
        want = _outcome(naive.graph_rows, a, n, rows)
        assert _outcome(lambda: naive.rows_of(TransitionGraph._of_columns(a, n, columns))) == want
        assert _outcome(lambda: naive.rows_of(TransitionGraph(a, n, rows))) == want
        kinds.add(_kind(want))
    assert kinds == {"ok", "expected # rows, got #", "row # has # cells, expected #",
                     "cell # at node # out of range", "alphabet size # must be positive",
                     "node count # must be positive"}


def test_rows_and_columns_build_equal_graphs():
    """A table handed over as rows or as columns gives one graph: equal,
    hashed alike, with the columns transposed from the rows and
    ``delta`` the reference's rows."""
    rng = seeded("rows-and-columns")
    for _ in range(200):
        g, a = rng.randrange(1, 7), rng.randrange(1, 4)
        rows = naive.rows_of((random_partial_graph if rng.random() < 0.5 else random_graph)(
            rng, g, a))
        by_rows = TransitionGraph(a, g, iter(rows))
        by_columns = TransitionGraph._of_columns(a, g, map(list, zip(*rows)))
        assert by_rows == by_columns and hash(by_rows) == hash(by_columns)
        assert by_rows.columns == by_columns.columns == tuple(zip(*rows))
        assert naive.rows_of(by_columns) == naive.graph_rows(a, g, rows)
        assert by_rows.complete == (-1 not in (c for row in rows for c in row))
        changed = [list(row) for row in rows]
        changed[rng.randrange(g)][rng.randrange(a)] = rng.randrange(-1, g)
        assert (by_rows == TransitionGraph(a, g, changed)) == (tuple(map(tuple, changed))
                                                               == rows)
    assert FIX.D_ab != naive.rows_of(FIX.D_ab)
    assert repr(FIX.D_ab) == "TransitionGraph(alphabet=2, nodes=3)"


def test_handed_records_leave_the_public_checks_in_place():
    """Only the closure hands its records over; a table given to the
    constructor is still checked cell by cell and walked."""
    with pytest.raises(NotGenerated) as exc:
        FiniteSemigroup(((0,), (1,)))
    assert exc.value.element == 1
    with pytest.raises(ValueError, match="cell 2 in row 1 out of range"):
        FiniteSemigroup(((1,), (2,)))
    assert FiniteSemigroup([["1"], [0]]) == FIX.Z2


def test_complete_flag():
    assert FIX.D_ab.complete
    assert not TransitionGraph(2, 1, ((0, -1),)).complete


def test_compose_on_one_node():
    """A single index makes ``itemgetter`` return a bare item; compose
    must still give a one-entry tuple."""
    assert compose((0,), (0,)) == (0,)
    assert compose(identity_map(1), identity_map(1)) == identity_map(1)


def test_compose_reads_left_to_right():
    first = (1, 0, 2)
    then = (2, 2, 0)
    assert compose(first, then) == (2, 2, 0)
    ident = identity_map(3)
    assert compose(ident, first) == first
    assert compose(first, ident) == first


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.tuples(*[st.integers(0, n - 1)] * n),
    st.tuples(*[st.integers(0, n - 1)] * n),
    st.tuples(*[st.integers(0, n - 1)] * n))))
def test_compose_is_associative(maps):
    f, g, h = maps
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_letter_names():
    assert letter_name(0) == "a"
    assert letter_name(25) == "z"
    assert letter_name(26) == "l26"


def test_format_word():
    assert format_word(()) == '""'
    assert format_word((0, 1, 0)) == "aba"
    assert format_word((0, 30)) == "0.30"


def test_verdict_no_needs_a_witness():
    with pytest.raises(ValueError):
        Verdict("local_testability", "no")
    with pytest.raises(ValueError):
        Verdict("local_testability", "maybe")
    v = Verdict("local_testability", "no", (0, 1))
    assert v.witness == (0, 1)


def test_order_result_status_is_checked():
    with pytest.raises(ValueError):
        OrderResult("done", 1, 1, 8, 0, 3)


def test_report_rejects_duplicate_properties():
    v = Verdict("aperiodicity", "yes")
    with pytest.raises(ValueError):
        PropertyReport({"kind": "semigroup"}, (v, v))
    report = PropertyReport({"kind": "semigroup"}, (v,))
    assert report.verdict("aperiodicity") is v
    assert report.verdict("missing") is None
