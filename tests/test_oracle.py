"""The window-profile oracle, cross-checked against brute enumeration
and against the reference search keyed by ``naive.profile``."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from testability import (
    BadK,
    TransitionGraph,
    analyze_graph,
    analyze_semigroup,
    complete_with_sink,
    profile_determines,
)
from testability import graphs, oracle, semigroups
from tests import naive
from tests.corpus import (fixtures, random_graph, random_partial_graph, seeded,
                          semigroup_zoo, small_transformation_semigroups)
from tests.naive import brute_force_scan

FIX = fixtures()


def eval_action(s):
    """Semigroup evaluation: fold generator indices through the table."""
    def step(v, j):
        return j if v is None else s.cayley[v][j]
    return None, step


def graph_action(gr):
    """Node-map composition, written out directly from the delta table."""
    letters = [tuple(row[a] for row in gr.delta) for a in range(gr.alphabet_size)]

    def step(tr, a):
        return tuple(letters[a][p] for p in tr)

    return tuple(range(gr.node_count)), step


ACTIONS = {
    "U1": lambda: eval_action(FIX.U1),
    "LZ2": lambda: eval_action(FIX.LZ2),
    "Z2": lambda: eval_action(FIX.Z2),
    "D_triv": lambda: graph_action(FIX.D_triv),
    "D_parity": lambda: graph_action(FIX.D_parity),
    "D_ab": lambda: graph_action(FIX.D_ab),
}

ALPHABETS = {"U1": 2, "LZ2": 2, "Z2": 1, "D_triv": 2, "D_parity": 1, "D_ab": 2}


def test_profile_fields():
    assert naive.profile((0, 1), 2, 1) == ((0,), (1,), frozenset({((0, 1), 1)}))


def test_profiles_saturate_at_threshold():
    assert naive.profile((0, 1, 0), 2, 1) == naive.profile((0, 1, 0, 1, 0), 2, 1)
    assert naive.profile((0, 1, 0), 2, 2) != naive.profile((0, 1, 0, 1, 0), 2, 2)


def test_short_words_are_kept_whole():
    assert naive.profile((0,), 2, 1) == ("short", (0,))
    assert naive.profile((), 3, 1) == ("short", ())


def test_search_interns_profiles():
    # k=1 over two letters: the profiles are the four letter sets, the
    # empty word's among them; the semilattice fold is settled by them.
    initial, step = eval_action(FIX.U1)
    res = profile_determines(initial, step, 2, 1)
    assert (res.status, res.states) == ("yes", 4)
    # one letter, k=2, t=1: "", "a" and every longer word
    initial, step = graph_action(FIX.D_triv)
    assert profile_determines(initial, step, 1, 2).states == 3


def test_budget_of_one_state_stops_at_the_empty_word():
    initial, step = graph_action(FIX.D_ab)
    res = profile_determines(initial, step, 2, 3, budget=1)
    assert (res.status, res.witness, res.states) == ("unknown", None, 1)


@pytest.mark.parametrize("budget", [0, -1])
def test_search_rejects_a_budget_below_one(budget):
    initial, step = graph_action(FIX.D_ab)
    with pytest.raises(ValueError) as err:
        profile_determines(initial, step, 2, 3, budget=budget)
    assert not isinstance(err.value, BadK)


@pytest.mark.parametrize("k_max", [0, -3])
def test_order_search_rejects_a_largest_window_below_one(k_max):
    with pytest.raises(BadK):
        analyze_graph(FIX.D_ab, (), order=True, k_max=k_max)
    with pytest.raises(BadK):
        analyze_graph(FIX.D_ab, (), order=True, k_max=k_max, t=0)
    with pytest.raises(BadK):
        analyze_semigroup(FIX.U1, (), order=True, k_max=k_max)


def test_search_rejects_an_empty_alphabet():
    with pytest.raises(ValueError):
        profile_determines(None, lambda v, a: v, 0, 1)


def test_search_checks_its_window_arguments():
    initial, step = graph_action(FIX.D_ab)
    with pytest.raises(BadK):
        profile_determines(initial, step, 2, 0)
    with pytest.raises(BadK):
        profile_determines(initial, step, 2, 2, 0)
    # the alphabet is checked first, and its error is not a BadK
    with pytest.raises(ValueError) as err:
        profile_determines(initial, step, 0, 0)
    assert not isinstance(err.value, BadK)


def test_trivial_graph_is_determined_at_k1():
    initial, step = graph_action(FIX.D_triv)
    res = profile_determines(initial, step, 2, 1)
    assert res.status == "yes"


def test_group_evaluation_is_never_determined():
    initial, step = eval_action(FIX.Z2)
    res = profile_determines(initial, step, 1, 3)
    assert res.status == "no"
    assert res.witness == ((0, 0, 0), (0, 0, 0, 0))


def test_semilattice_evaluation_is_determined_at_k1():
    initial, step = eval_action(FIX.U1)
    res = profile_determines(initial, step, 2, 1)
    assert res.status == "yes"


def test_budget_makes_the_answer_unknown():
    initial, step = graph_action(FIX.D_parity)
    res = profile_determines(initial, step, 1, 2, budget=2)
    assert res.status == "unknown"
    assert res.states >= 2


def test_brute_force_parity_witness():
    initial, step = graph_action(FIX.D_parity)
    res = brute_force_scan(initial, step, 1, 2, max_len=6)
    assert res.status == "no"
    assert res.witness == ((0, 0), (0, 0, 0))


def test_brute_force_on_empty_scan():
    initial, step = graph_action(FIX.D_parity)
    res = brute_force_scan(initial, step, 1, 2, max_len=0)
    assert res.status == "yes"
    assert res.states == 1


@pytest.mark.parametrize("name", sorted(ALPHABETS))
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t", [1, 2])
def test_oracle_agrees_with_brute_force(name, k, t):
    initial, step = ACTIONS[name]()
    a = ALPHABETS[name]
    fast = profile_determines(initial, step, a, k, t)
    slow = brute_force_scan(initial, step, a, k, t, max_len=8)
    # shortest witnesses for these fixtures fit well inside the scan
    assert fast.status == slow.status
    if fast.status == "no":
        # both witnesses must be genuine, not necessarily identical
        for res in (fast, slow):
            u, v = res.witness
            assert naive.profile(u, k, t) == naive.profile(v, k, t)
            fu = initial
            for c in u:
                fu = step(fu, c)
            fv = initial
            for c in v:
                fv = step(fv, c)
            assert fu != fv


@pytest.mark.parametrize("name", sorted(ALPHABETS))
def test_determination_is_monotone_in_k(name):
    initial, step = ACTIONS[name]()
    a = ALPHABETS[name]
    settled = False
    for k in range(1, 5):
        # binary-alphabet profile spaces explode past k=4; stay in budget
        status = profile_determines(initial, step, a, k, budget=300_000).status
        if status == "unknown":
            break
        if settled:
            assert status == "yes"
        settled = status == "yes"


@pytest.mark.parametrize("name", sorted(ALPHABETS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_determination_is_monotone_in_t(name, k):
    initial, step = ACTIONS[name]()
    a = ALPHABETS[name]
    if profile_determines(initial, step, a, k, 1).status == "yes":
        assert profile_determines(initial, step, a, k, 2).status == "yes"


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_oracle_witnesses_on_random_graphs(seed):
    import random

    from tests.corpus import random_graph

    gr = random_graph(random.Random(seed), 4)
    initial, step = graph_action(gr)
    res = profile_determines(initial, step, 2, 2)
    if res.status == "no":
        u, v = res.witness
        assert naive.profile(u, 2, 1) == naive.profile(v, 2, 1)
        assert naive.word_action(gr, u) != naive.word_action(gr, v)


def _fold_corpus(count):
    """Seeded graphs on 1-4 nodes over 1-3 letters, about half of them
    partial, some with two letters sharing a node map, each with a
    window length, threshold and budget."""
    rng = seeded("cayley-fold")
    for _ in range(count):
        g, a = rng.randrange(1, 5), rng.randrange(1, 4)
        gr = (random_partial_graph if rng.random() < 0.5 else random_graph)(rng, g, a)
        if a > 1 and rng.random() < 0.3:
            gr = TransitionGraph(a, g, tuple(row[:-1] + (row[0],) for row in gr.delta))
        yield (complete_with_sink(gr), rng.randrange(1, 4), rng.randrange(1, 3),
               rng.choice((3, 50, 2000)))


def test_cayley_fold_matches_node_maps(monkeypatch):
    """The package folds graph words over transition-semigroup ids; the
    searches it runs must equal the ones over node maps, state for
    state."""
    searches = []

    def recording(*args):
        res = profile_determines(*args)
        searches.append(res)
        return res

    monkeypatch.setattr(graphs, "profile_determines", recording)
    monkeypatch.setattr(semigroups, "profile_determines", recording)
    verdicts = set()
    for gr, k, t, budget in _fold_corpus(300):
        initial, step = graph_action(gr)
        a = gr.alphabet_size
        searches.clear()
        analyze_graph(gr, (), k=k, t=t, budget=budget)
        ref = profile_determines(initial, step, a, k, t, budget)
        assert searches == [ref]
        verdicts.add(ref.status)
        searches.clear()
        order = analyze_graph(gr, (), order=True, k_max=3, t=t, budget=budget).order
        refs = []
        for j in range(1, 4):
            refs.append(profile_determines(initial, step, a, j, t, budget))
            if refs[-1].status != "no":
                break
        assert searches == refs
        assert order.states == refs[-1].states
    assert verdicts == {"yes", "no", "unknown"}


REFERENCE_BUDGETS = (1, 3, 50, 3000)

# Alphabets and windows past the seeded draws.  Budgets around the
# number of words too short to hold a k-factor stop the search just
# before, at and just after its first k-letter word; budget 3000 runs
# each to a "no".
WIDE_CASES = ((2, 6), (5, 2), (26, 2))


def _around_short_words(a, k):
    short = sum(a ** length for length in range(k))
    return short - 1, short, short + 1


def _first_letter_parity(a):
    """The 2-node graph whose first letter swaps the nodes and whose
    other letters fix them: it counts the first letter mod 2."""
    return graph_action(TransitionGraph(a, 2, ((1,) + (0,) * (a - 1),
                                               (0,) + (1,) * (a - 1))))


def _reference_corpus():
    """The six fixtures, seeded graphs (some partial) and seeded
    semigroups, each with eight (k, t, budget) draws, then the
    ``WIDE_CASES``."""
    rng = seeded("reference-search")
    actions = [(ACTIONS[name](), ALPHABETS[name]) for name in sorted(ACTIONS)]
    for _ in range(24):
        g, a = rng.randrange(1, 5), rng.randrange(1, 4)
        gr = (random_partial_graph if rng.random() < 0.5 else random_graph)(rng, g, a)
        actions.append((graph_action(complete_with_sink(gr)), a))
    for s in semigroup_zoo() + small_transformation_semigroups():
        actions.append((eval_action(s), s.generator_count))
    for action, a in actions:
        for _ in range(8):
            k, t = rng.randrange(1, 5), rng.randrange(1, 4)
            yield action, a, k, t, rng.choice(REFERENCE_BUDGETS)
    for a, k in WIDE_CASES:
        for budget in _around_short_words(a, k) + (3000,):
            yield _first_letter_parity(a), a, k, 1, budget


def test_search_equals_the_kprofile_reference():
    """The integer-keyed search must reproduce the reference search,
    whose states are keyed by ``naive.profile``, state for state: same
    status, witness and state count."""
    seen = {"k": set(), "t": set(), "budget": set(), "status": set()}
    for (initial, step), a, k, t, budget in _reference_corpus():
        res = profile_determines(initial, step, a, k, t, budget)
        assert res == naive.profile_search(initial, step, a, k, t, budget), (k, t, budget)
        for field, value in zip(seen, (k, t, budget, res.status)):
            seen[field].add(value)
    wide_budgets = {b for a, k in WIDE_CASES for b in _around_short_words(a, k)}
    assert seen == {"k": {1, 2, 3, 4, 6}, "t": {1, 2, 3},
                    "budget": set(REFERENCE_BUDGETS) | wide_budgets,
                    "status": {"yes", "no", "unknown"}}


def test_both_bag_encodings_equal_the_reference(monkeypatch):
    """Dense bags (the capped counts in one integer) and interned bags
    must each reproduce the reference search over the whole corpus."""
    for (initial, step), a, k, t, budget in _reference_corpus():
        ref = naive.profile_search(initial, step, a, k, t, budget)
        for bound in (0, 10**9):
            monkeypatch.setattr(oracle, "DENSE_BAG_BITS", bound)
            assert profile_determines(initial, step, a, k, t, budget) == ref, (bound, k, t)


def _capped_zero_runs(k, cap):
    """The fold counting the factors 0**k of a word, capped at ``cap``:
    its profile at window k and threshold t settles it when cap <= t."""
    def step(value, letter):
        run, count = value    # run: the trailing zeros, up to k - 1
        if letter:
            return 0, count
        return min(run + 1, k - 1), min(count + (run == k - 1), cap)
    return (0, 0), step


# (A, k, t): t = 1, 2 and 3 (slots of 1, 2 and 2 bits), k = 1 on each
# alphabet size, and words of up to 3 letters too short for a k-factor.
BOUND_CASES = ((1, 1, 1), (2, 1, 2), (3, 1, 3), (2, 2, 1), (1, 4, 2), (2, 3, 3),
               (3, 2, 2), (2, 4, 1))


@pytest.mark.parametrize("a, k, t", BOUND_CASES)
def test_bag_encodings_meet_at_the_bound(monkeypatch, a, k, t):
    """Bags are dense while A**k slots of t.bit_length() bits fit the
    bound and interned one bit past it; both searches equal the
    reference on folds that saturate at t, count past t, or read the
    first letter."""
    bits = a ** k * t.bit_length()
    folds = (_capped_zero_runs(k, t), _capped_zero_runs(k, t + 1), _first_letter_parity(a))
    statuses = set()
    for (initial, step), budget in zip(folds * 2, (50,) * 3 + (3000,) * 3):
        ref = naive.profile_search(initial, step, a, k, t, budget)
        statuses.add(ref.status)
        for bound, width in ((bits, t.bit_length()), (bits - 1, 0)):
            monkeypatch.setattr(oracle, "DENSE_BAG_BITS", bound)
            assert oracle._slot_width(a, k, t) == width
            assert profile_determines(initial, step, a, k, t, budget) == ref, (bound, budget)
    assert "no" in statuses


# The README's table of profile states for a fold that never tells two
# words apart, at the default threshold and budget: the rows that settle.
@pytest.mark.parametrize("a, k, states", [(2, 4, 74_461), (3, 2, 1_615), (4, 2, 442_393)])
def test_readme_budget_table(a, k, states):
    res = profile_determines(0, lambda value, letter: value, a, k)
    assert (res.status, res.witness, res.states) == ("yes", None, states)


# Peak traced memory of the search below, 2-core host, Python 3.11:
# 10.8 MB with tuple-valued profile states, 8.2 MB with interned count
# bags, 26.8 MB with interned bags held as dense bitmasks over the 26**3
# factors.  The bound is the tuple-valued figure plus 25%.
MEMORY_BOUND_MB = 13.5


def test_search_memory_is_bounded_by_the_words():
    """26 letters, k=3: a bag costs what its word holds, not 26**3 bits.
    The fold is the 2-node graph whose letter a sends both nodes to a % 2."""
    letters = [(a % 2, a % 2) for a in range(26)]

    def step(value, a):
        return letters[a]

    tracemalloc.start()
    try:
        res = profile_determines((0, 1), step, 26, 3, budget=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.states) == ("unknown", 20_000)
    assert peak < MEMORY_BOUND_MB * 1e6, f"peak {peak / 1e6:.1f} MB"
