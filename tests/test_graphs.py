"""Graph-side decision procedures and the graph-to-semigroup reduction."""

import random
from itertools import product as iter_product

import pytest

from testability import (
    BadK,
    FiniteSemigroup,
    IncompleteInput,
    TransitionGraph,
    analyze_graph,
    complete_with_sink,
    graph_direct_product,
    letter_transformations,
    strongly_connected_components,
    transition_semigroup,
)
from testability import graphs, semigroups
from testability.semigroups import (ALL_PROPERTIES, ASSOCIATIVITY, LOCAL_TESTABILITY,
                                    ONE_TESTABILITY, PROPERTY_CHECKS)
from tests import naive
from tests.corpus import (fixtures, random_dfas, random_graph, random_partial_graph,
                          seeded)

FIX = fixtures()

# one absorbing chain over a single letter: the action of a^m only
# depends on min(m, 2), so thresholds matter
CHAIN3 = TransitionGraph(1, 3, ((1,), (2,), (2,)))


def test_completion_adds_one_sink():
    partial = TransitionGraph(2, 2, ((0, -1), (1, 1)))
    done = complete_with_sink(partial)
    assert naive.rows_of(done) == ((0, 2), (1, 1), (2, 2))
    assert complete_with_sink(done) is done


def test_completion_leaves_complete_graphs_alone():
    assert complete_with_sink(FIX.D_ab) is FIX.D_ab


def test_completion_matches_the_row_by_row_reference():
    rng = seeded("sink-columns")
    for _ in range(150):
        g, a = rng.randrange(1, 7), rng.randrange(1, 4)
        gr = random_partial_graph(rng, g, a, hole=rng.choice((0.0, 0.2, 0.6)))
        done = complete_with_sink(gr)
        assert naive.rows_of(done) == naive.sink_completed_rows(a, g, naive.rows_of(gr))
        assert done.complete and (done is gr) == gr.complete


def test_letter_transformations():
    assert letter_transformations(FIX.D_ab) == ((1, 2, 2), (2, 0, 2))
    assert letter_transformations(FIX.D_parity) == ((1, 0),)
    with pytest.raises(IncompleteInput):
        letter_transformations(TransitionGraph(1, 1, ((-1,),)))


def _actions(gr, ts):
    """The node map of each element, read off the word it names."""
    return tuple(naive.word_action(gr, ts.element_word(x))
                 for x in range(ts.semigroup.element_count))


def test_transition_semigroup_of_parity():
    ts = transition_semigroup(FIX.D_parity)
    assert ts.semigroup == FIX.Z2
    assert _actions(FIX.D_parity, ts) == ((1, 0), (0, 1))
    assert ts.label_to_generator == (0,)
    assert ts.element_word(1) == (0, 0)


def test_transition_semigroup_merges_equal_letters():
    ts = transition_semigroup(FIX.D_triv)
    assert ts.semigroup.element_count == 1
    assert ts.label_to_generator == (0, 0)
    assert ts.generator_letters == (0,)


def test_transition_semigroup_of_d_ab():
    ts = transition_semigroup(FIX.D_ab)
    assert ts.semigroup.cayley == ((2, 3), (4, 2), (2, 2), (0, 2), (2, 1))
    assert _actions(FIX.D_ab, ts) == ((1, 2, 2), (2, 0, 2), (2, 2, 2),
                                      (0, 2, 2), (2, 1, 2))
    assert ts.element_word(3) == (0, 1)
    assert ts.element_word(4) == (1, 0)


@pytest.mark.parametrize("seed", range(12))
def test_transition_semigroup_elements_act_as_their_words(seed):
    gr = random_graph(random.Random(seed), 4)
    ts = transition_semigroup(gr)
    assert _actions(gr, ts) == naive.transition_closure(gr)[1]


def _closure_corpus():
    """Seeded graphs for the closure cross-check, by kind."""
    rng = seeded("froidure-pin")
    corpus = []
    for _ in range(60):
        corpus.append(("complete", random_graph(rng, rng.randint(1, 6),
                                                rng.randint(1, 3))))
    for _ in range(30):
        gr = random_partial_graph(rng, rng.randint(1, 5), rng.randint(1, 3))
        corpus.append(("partial", complete_with_sink(gr)))
    for _ in range(20):
        gr = random_graph(rng, rng.randint(2, 5), 2)
        copied = rng.randrange(2)
        corpus.append(("duplicate letter", TransitionGraph(
            3, gr.node_count, tuple(row + (row[copied],) for row in naive.rows_of(gr)))))
    for _ in range(20):
        gr = random_graph(rng, rng.randint(2, 5), 2)
        a, b = rng.sample(range(2), 2)
        corpus.append(("product letter", TransitionGraph(3, gr.node_count, tuple(
            row + (gr.columns[b][row[a]],) for row in naive.rows_of(gr)))))
    for n in range(1, 8):
        corpus.append(("one letter", random_graph(rng, n, 1)))
    for a in range(1, 5):
        corpus.append(("one node", TransitionGraph(a, 1, ((0,) * a,))))
    return corpus


def test_closure_matches_the_breadth_first_reference():
    kinds = set()
    for kind, gr in _closure_corpus():
        ts = transition_semigroup(gr)
        rows, maps, words, label_to_gen, gen_letters = naive.transition_closure(gr)
        assert ts.semigroup.cayley == rows, kind
        assert _actions(gr, ts) == maps, kind
        assert ts.semigroup.factorization == words, kind
        assert ts.label_to_generator == label_to_gen, kind
        assert ts.generator_letters == gen_letters, kind
        kinds.add(kind)
    assert len(kinds) == 6


def _assert_records_match(ts):
    """The handed-over records equal those a walk of the rows finds."""
    sg, again = ts.semigroup, FiniteSemigroup(ts.semigroup.cayley)
    assert sg.cayley == again.cayley
    assert sg.factorization == again.factorization
    assert sg._steps == again._steps
    assert (sg.element_count, sg.generator_count) == (again.element_count,
                                                      again.generator_count)


def test_handed_records_equal_the_rebuilt_ones():
    """The closure hands its rows and steps to the semigroup; walking
    the same rows again finds the same steps and factorizations, on the
    corpus and on seeded random graphs."""
    graphs_seen = [FIX.D_triv, FIX.D_parity, FIX.D_ab, CHAIN3] + random_dfas(30)
    graphs_seen += [gr for _, gr in _closure_corpus()] + _row_class_corpus()
    rng = seeded("handed-records")
    graphs_seen += [complete_with_sink(random_partial_graph(rng, rng.randint(1, 8),
                                                            rng.randint(1, 3)))
                    for _ in range(60)]
    for gr in graphs_seen:
        _assert_records_match(transition_semigroup(gr))


def test_handed_records_of_the_large_closures():
    """The 13,517-element closure of a 200-node three-letter graph and
    the 840-element closure of a 40,000-node product hand over the same
    records a second walk finds."""
    rng = random.Random("testability:capacity-graph-8-3")
    core = rng.sample(range(200), 8)
    g3 = TransitionGraph(3, 200, tuple(tuple(rng.choice(core) for _ in range(3))
                                       for _ in range(200)))
    rng = random.Random("testability:capacity-graph-6-0")
    core = rng.sample(range(200), 6)
    g200 = TransitionGraph(2, 200, tuple(tuple(rng.choice(core) for _ in range(2))
                                         for _ in range(200)))
    for gr, size in ((g3, 13_517), (graph_direct_product(g200, g200), 840)):
        ts = transition_semigroup(gr)
        assert ts.semigroup.element_count == size
        _assert_records_match(ts)


def _core_graph(rng, n, core, letters, hole=0.0):
    """Every cell is a node of a random core of ``core`` nodes, or
    undefined with probability ``hole``: many nodes share a row."""
    targets = rng.sample(range(n), core)
    return TransitionGraph(letters, n, tuple(
        tuple(-1 if rng.random() < hole else rng.choice(targets) for _ in range(letters))
        for _ in range(n)))


def _row_class_corpus():
    """Seeded graphs whose nodes fall into few classes of equal rows."""
    rng = seeded("row-classes")
    corpus = [_core_graph(rng, rng.randint(30, 60), rng.randint(3, 6), rng.randint(2, 3))
              for _ in range(12)]
    corpus += [complete_with_sink(_core_graph(rng, rng.randint(20, 40), rng.randint(2, 5),
                                              rng.randint(1, 3), hole=0.4))
               for _ in range(12)]
    corpus.append(TransitionGraph(3, 20, ((4, 4, 7),) * 20))  # constant letters
    return corpus


def test_row_class_closure_matches_the_reference():
    """The closure keys elements on one node per distinct row of the
    table; the words of its elements must still act as the reference's
    full node maps."""
    merged = 0
    for gr in _row_class_corpus():
        ts = transition_semigroup(gr)
        rows, maps, words, label_to_gen, gen_letters = naive.transition_closure(gr)
        classes = len(set(naive.rows_of(gr)))
        assert ts.semigroup.cayley == rows
        assert _actions(gr, ts) == maps
        assert ts.semigroup.factorization == words
        assert ts.label_to_generator == label_to_gen
        assert ts.generator_letters == gen_letters
        merged += 4 * classes <= gr.node_count
    assert merged >= 5


def _image_graph(rng, size, partial):
    """A seeded graph whose letters' image has ``size`` nodes, the sink
    of a partial graph included: a random core of at most four nodes,
    nodes that every letter fixes and nodes that no letter reaches,
    shuffled together.  Its semigroup stays small, so the reference
    closure stays cheap, while the coded values span the whole image."""
    c, a = rng.randint(2, 4), rng.randint(1, 3)
    cells = [[rng.randrange(c) for _ in range(a)] for _ in range(c)]
    if partial:
        cells[rng.randrange(c)][rng.randrange(a)] = -1
    reached = sorted({q for row in cells for q in row if q >= 0})
    fixed = size - len(reached) - partial
    n = c + fixed + rng.randint(0, 30)
    name = list(range(n))
    rng.shuffle(name)
    targets = reached + list(range(c, c + fixed))
    rows = [()] * n
    for i in range(n):
        if i < c:
            row = [-1 if q < 0 else name[q] for q in cells[i]]
        elif i < c + fixed:
            row = [name[i]] * a
        else:
            row = [name[rng.choice(targets)] for _ in range(a)]
        rows[name[i]] = tuple(row)
    return complete_with_sink(TransitionGraph(a, n, rows))


def test_closure_codes_maps_on_the_letters_image(monkeypatch):
    """Node maps are coded as indices into the letters' image: bytes up
    to 256 image nodes, tuples above.  Both codings, the boundary and
    sink-completed graphs must close as the reference does, and only an
    image of more than 256 nodes composes tuples."""
    composed = []
    real = graphs.compose
    monkeypatch.setattr(graphs, "compose",
                        lambda first, then: composed.append(1) or real(first, then))
    rng = seeded("image-coding")
    corpus = [(random_graph(seeded("froidure-pin-count"), 6, 3), 6)]  # 2,650 elements
    corpus += [(_image_graph(rng, size, partial), size)
               for size in (255, 256, 257, 300) for partial in (False, True)
               for _ in range(2)]
    for gr, size in corpus:
        assert len(set().union(*letter_transformations(gr))) == size
        composed.clear()
        ts = transition_semigroup(gr)
        rows, _, words, label_to_gen, gen_letters = naive.transition_closure(gr)
        assert ts.semigroup.cayley == rows, size
        assert ts.semigroup.factorization == words, size
        assert (ts.label_to_generator, ts.generator_letters) == (label_to_gen, gen_letters)
        assert bool(composed) == (size > 256), size


def test_node_components():
    assert strongly_connected_components([[1], [0]]) == [[0, 1]]
    assert strongly_connected_components([[1, 2], [2, 0], [2, 2]]) == [[0, 1], [2]]
    assert strongly_connected_components([[], [], []]) == [[0], [1], [2]]


def test_components_agree_with_naive():
    # self-loops and repeated edges included; tuples as j_classes passes them
    rng = seeded("scc-cross-check")
    for _ in range(2000):
        n = rng.randint(1, 30)
        succ = [tuple(rng.randrange(n) for _ in range(rng.randint(0, 3)))
                for _ in range(n)]
        assert strongly_connected_components(succ) == naive.components(succ)


def test_components_of_long_chains():
    n = 200_000
    path = [[v + 1] for v in range(n - 1)] + [[]]
    assert strongly_connected_components(path) == [[v] for v in range(n)]
    cycle = [[(v + 1) % n] for v in range(n)]
    assert strongly_connected_components(cycle) == [list(range(n))]


def test_1_testable_examples():
    assert analyze_graph(FIX.D_triv, [ONE_TESTABILITY]).verdicts[0].holds == "yes"
    v = analyze_graph(FIX.D_parity, [ONE_TESTABILITY]).verdicts[0]
    assert v.holds == "no"
    assert v.witness == (0, 0)
    assert v.detail == "letter a is not idempotent at node 0"
    v = analyze_graph(FIX.D_ab, [ONE_TESTABILITY]).verdicts[0]
    assert v.witness == (0, 0)
    # completed with a sink first: a sends 0 to 1 and 1 to the sink
    partial = TransitionGraph(2, 2, ((1, -1), (-1, 0)))
    v = analyze_graph(partial, [ONE_TESTABILITY]).verdicts[0]
    assert (v.holds, v.witness) == ("no", (0, 0))
    assert v.detail == "letter a is not idempotent at node 0"


def test_1_testable_commutation_witness():
    # two constant maps are idempotent but do not commute
    gr = TransitionGraph(2, 2, ((0, 1), (0, 1)))
    v = analyze_graph(gr, [ONE_TESTABILITY]).verdicts[0]
    assert v.holds == "no"
    assert v.witness == (0, 1, 0)
    assert "do not commute" in v.detail


def test_1_testable_yes_with_two_letters():
    # identity letter plus a constant letter: both idempotent, commuting
    gr = TransitionGraph(2, 2, ((0, 0), (1, 0)))
    assert analyze_graph(gr, [ONE_TESTABILITY]).verdicts[0].holds == "yes"


def test_k_testable_examples():
    assert analyze_graph(FIX.D_triv, (), k=1).verdicts[0].holds == "yes"
    v = analyze_graph(FIX.D_ab, (), k=2).verdicts[0]
    assert v.holds == "yes"
    assert "k=2" in v.detail
    assert analyze_graph(FIX.D_ab, (), k=1).verdicts[0].holds == "no"
    # a partial graph is completed with a sink, not rejected
    partial = TransitionGraph(2, 2, ((1, -1), (-1, 0)))
    v = analyze_graph(partial, (), k=1).verdicts[0]
    assert (v.holds, v.witness) == ("no", ((0,), (0, 0)))
    assert v == analyze_graph(complete_with_sink(partial), (), k=1).verdicts[0]
    assert analyze_graph(partial, (), k=2).verdicts[0].holds == "yes"


@pytest.mark.parametrize("k", range(1, 7))
def test_parity_fails_every_window(k):
    v = analyze_graph(FIX.D_parity, (), k=k).verdicts[0]
    assert v.holds == "no"
    assert v.witness == ((0,) * k, (0,) * (k + 1))


def test_k_testable_rejects_bad_k():
    with pytest.raises(BadK):
        analyze_graph(FIX.D_ab, (), k=0)


def test_k_testable_budget():
    v = analyze_graph(FIX.D_parity, (), k=3, budget=2).verdicts[0]
    assert v.holds == "unknown"
    assert "budget exceeded" in v.detail


def test_threshold_separates_counting():
    assert analyze_graph(CHAIN3, (), k=1, t=1).verdicts[0].holds == "no"
    assert analyze_graph(CHAIN3, (), k=1, t=2).verdicts[0].holds == "yes"


def test_order_examples():
    res = analyze_graph(FIX.D_ab, (), order=True).order
    assert (res.status, res.k, res.largest_failing) == ("found", 2, 1)
    res = analyze_graph(FIX.D_triv, (), order=True).order
    assert (res.status, res.k, res.largest_failing) == ("found", 1, 0)
    res = analyze_graph(FIX.D_parity, (), order=True).order
    assert (res.status, res.k, res.largest_failing) == ("none", None, 8)
    res = analyze_graph(FIX.D_parity, (), order=True, k_max=3).order
    assert (res.status, res.largest_failing) == ("none", 3)
    partial = TransitionGraph(2, 2, ((1, -1), (-1, 0)))
    res = analyze_graph(partial, (), order=True).order
    assert (res.status, res.k, res.largest_failing) == ("found", 2, 1)
    assert res == analyze_graph(complete_with_sink(partial), (), order=True).order


def test_order_with_threshold():
    assert analyze_graph(CHAIN3, (), order=True, t=1).order.k == 2
    assert analyze_graph(CHAIN3, (), order=True, t=2).order.k == 1


def test_graph_property_examples():
    assert analyze_graph(FIX.D_ab, [LOCAL_TESTABILITY]).verdicts[0].holds == "yes"
    v = analyze_graph(FIX.D_ab, ["piecewise_testability"]).verdicts[0]
    assert v.holds == "no"
    assert v.witness == (0, 1)
    assert "witness words: a, b" in v.detail
    v = analyze_graph(FIX.D_parity, ["threshold_local_testability"]).verdicts[0]
    assert v.holds == "no"
    assert "not aperiodic" in v.detail


def test_graph_property_completes_partial_graphs():
    partial = TransitionGraph(1, 1, ((-1,),))
    assert analyze_graph(partial, ["aperiodicity"]).verdicts[0].holds == "yes"


def test_strict_alias():
    for gr in (FIX.D_triv, FIX.D_parity, FIX.D_ab):
        lt = analyze_graph(gr, ["local_testability"]).verdicts[0]
        slt = analyze_graph(gr, ["strict_local_testability"]).verdicts[0]
        assert (slt.holds, slt.witness, slt.detail) == (lt.holds, lt.witness, lt.detail)


def test_transition_semigroup_skips_lights_test(monkeypatch):
    scanned = []
    scan = semigroups._lights_test
    monkeypatch.setattr(semigroups, "_lights_test",
                        lambda s: scanned.append(s) or scan(s))
    report = analyze_graph(FIX.D_ab)
    assert scanned == []
    assert report.verdict(ASSOCIATIVITY).holds == "yes"


def test_analyze_graph_builds_the_transition_semigroup_once(monkeypatch):
    builds = []
    build = graphs.transition_semigroup
    monkeypatch.setattr(graphs, "transition_semigroup",
                        lambda gr: builds.append(gr) or build(gr))
    report = analyze_graph(FIX.D_ab, k=2, order=True)
    assert builds == [FIX.D_ab]
    assert report.verdict("k_testability").holds == "yes"
    assert report.order.k == 2
    builds.clear()
    assert analyze_graph(FIX.D_ab, [ONE_TESTABILITY]).verdicts[0].holds == "no"
    assert builds == []


def test_analyze_graph_full_map():
    report = analyze_graph(FIX.D_ab, order=True)
    got = {v.property: v.holds for v in report.verdicts}
    assert got == {
        "associativity": "yes",
        "aperiodicity": "yes",
        "local_idempotence": "yes",
        "local_testability": "yes",
        "strict_local_testability": "yes",
        "right_local_testability": "yes",
        "left_local_testability": "yes",
        "threshold_local_testability": "yes",
        "piecewise_testability": "no",
        "one_testability": "no",
    }
    assert report.order.k == 2
    assert report.stats["semigroup_elements"] == 5
    assert report.stats["semigroup_generators"] == 2
    assert report.descriptor["sink_added"] is False


def test_analyze_graph_trivial_all_yes():
    report = analyze_graph(FIX.D_triv, order=True)
    assert all(v.holds == "yes" for v in report.verdicts)
    assert report.order.k == 1


def test_analyze_graph_notes_the_sink():
    report = analyze_graph(TransitionGraph(1, 1, ((-1,),)))
    assert report.descriptor["sink_added"] is True
    assert report.descriptor["nodes"] == 2


def test_analyze_graph_k_flag_appends_a_verdict():
    report = analyze_graph(FIX.D_ab, ["aperiodicity"], k=2)
    assert [v.property for v in report.verdicts] == ["aperiodicity", "k_testability"]
    assert report.verdicts[1].holds == "yes"


def test_analyze_graph_letters_only_skips_the_semigroup():
    report = analyze_graph(FIX.D_ab, [ONE_TESTABILITY])
    assert "semigroup_elements" not in report.stats


def _all_graphs(g, a):
    for cells in iter_product(range(g), repeat=g * a):
        delta = tuple(tuple(cells[p * a:(p + 1) * a]) for p in range(g))
        yield TransitionGraph(a, g, delta)


@pytest.mark.parametrize("g,a", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_1_testability_equals_window_1_exhaustively(g, a):
    for gr in _all_graphs(g, a):
        one = analyze_graph(gr, [ONE_TESTABILITY]).verdicts[0]
        assert one.holds == analyze_graph(gr, (), k=1).verdicts[0].holds


@pytest.mark.parametrize("g", [4, 5])
def test_1_testability_equals_window_1_sampled(g):
    rng = seeded(f"one-vs-window-{g}")
    for _ in range(60):
        gr = random_graph(rng, g)
        one = analyze_graph(gr, [ONE_TESTABILITY]).verdicts[0]
        assert one.holds == analyze_graph(gr, (), k=1).verdicts[0].holds


@pytest.mark.parametrize("seed", range(15))
def test_k_testability_is_monotone(seed):
    gr = random_graph(random.Random(seed), 4)
    settled = False
    for k in (1, 2, 3):
        status = analyze_graph(gr, (), k=k, budget=200_000).verdicts[0].holds
        if status == "unknown":
            break
        if settled:
            assert status == "yes"
        settled = status == "yes"


@pytest.mark.parametrize("seed", range(15))
def test_k_witnesses_revalidate(seed):
    gr = random_graph(random.Random(seed), 5)
    for k in (1, 2):
        v = analyze_graph(gr, (), k=k).verdicts[0]
        if v.holds == "no":
            u, w = v.witness
            assert naive.profile(u, k, 1) == naive.profile(w, k, 1)
            assert naive.word_action(gr, u) != naive.word_action(gr, w)


@pytest.mark.parametrize("prop", [p for p in ALL_PROPERTIES if p != ONE_TESTABILITY])
def test_graph_verdicts_match_transition_semigroup(prop):
    # the graph route is the semigroup route plus word translation
    ts = transition_semigroup(FIX.D_ab)
    direct = PROPERTY_CHECKS[prop](ts.semigroup)
    via_graph = analyze_graph(FIX.D_ab, [prop]).verdict(prop)
    assert via_graph.holds == direct.holds
    assert via_graph.witness == direct.witness
