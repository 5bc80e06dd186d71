"""Core value types: construction, validation, word helpers."""

import pytest
from hypothesis import given, strategies as st

from testability import (
    FiniteSemigroup,
    NotGenerated,
    TransitionGraph,
    Verdict,
    compose,
    fixtures,
    format_word,
    identity_map,
    letter_name,
)
from testability.model import OrderResult, PropertyReport

FIX = fixtures()


def test_fixture_tables_are_bit_exact():
    assert FIX.U1.cayley == ((0, 0), (0, 1))
    assert FIX.LZ2.cayley == ((0, 0), (1, 1))
    assert FIX.Z2.cayley == ((1,), (0,))
    assert FIX.D_triv.delta == ((0, 0),)
    assert FIX.D_parity.delta == ((1,), (0,))
    assert FIX.D_ab.delta == ((1, 2), (2, 0), (2, 2))


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


def test_graph_sink_bookkeeping_is_validated():
    ok = TransitionGraph(1, 2, ((1,), (1,)), completed_sink=1)
    assert ok.completed_sink == 1
    with pytest.raises(ValueError):
        TransitionGraph(1, 2, ((1,), (0,)), completed_sink=1)  # 1 does not loop
    with pytest.raises(ValueError):
        TransitionGraph(1, 2, ((-1,), (1,)), completed_sink=1)  # still partial


def test_graph_equality_ignores_sink_mark():
    plain = TransitionGraph(1, 2, ((1,), (1,)))
    marked = TransitionGraph(1, 2, ((1,), (1,)), completed_sink=1)
    assert plain == marked


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
