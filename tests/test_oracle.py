"""The window-profile oracle, cross-checked against brute enumeration
and against the reference search keyed by ``naive.profile``.

The folds here are step functions, as the references take them; the
package reads each one as its table of rows, through ``search``."""

import tracemalloc
from collections import Counter
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from testability import (
    DEFAULT_BUDGET,
    BadK,
    FiniteSemigroup,
    TransitionGraph,
    analyze_graph,
    analyze_semigroup,
    complete_with_sink,
    profile_determines,
)
from testability import graphs, oracle, semigroups
from tests import naive
from tests.corpus import (fixtures, free_semilattice, left_zero, random_graph,
                          random_partial_graph, right_zero, seeded, semigroup_zoo,
                          small_transformation_semigroups)
from tests.naive import brute_force_scan

FIX = fixtures()


def eval_action(s):
    """Semigroup evaluation: fold generator indices through the table."""
    def step(v, j):
        return j if v is None else s.cayley[v][j]
    return None, step


def graph_action(gr):
    """Node-map composition, written out directly from the letter columns."""
    letters = gr.columns

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


def search(initial, step, alphabet_size, *args, **kwargs):
    """``profile_determines`` on the rows of a step-function fold."""
    return profile_determines(initial, naive.fold_rows(step, alphabet_size), alphabet_size,
                              *args, **kwargs)


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
    res = search(initial, step, 2, 1)
    assert (res.status, res.states) == ("yes", 4)
    # one letter, k=2, t=1: "", "a" and every longer word
    initial, step = graph_action(FIX.D_triv)
    assert search(initial, step, 1, 2).states == 3


def test_budget_of_one_state_stops_at_the_empty_word():
    initial, step = graph_action(FIX.D_ab)
    res = search(initial, step, 2, 3, budget=1)
    assert (res.status, res.witness, res.states) == ("unknown", None, 1)


@pytest.mark.parametrize("a, k, budget", [(2, 20, DEFAULT_BUDGET), (1, 10**6, 10**6)])
def test_a_window_over_the_budget_reads_no_row(a, k, budget):
    """When the words of at most k letters, each a profile of its own,
    outnumber the budget, the answer is "unknown" at the budget before
    the fold is read: the step function is never called."""
    calls = []

    def step(value, letter):
        calls.append((value, letter))
        return value

    res = profile_determines(0, step, a, k, 1, budget)
    assert (res.status, res.witness, res.states, calls) == ("unknown", None, budget, [])


@pytest.mark.parametrize("budget", [0, -1])
def test_search_rejects_a_budget_below_one(budget):
    initial, step = graph_action(FIX.D_ab)
    with pytest.raises(ValueError) as err:
        search(initial, step, 2, 3, budget=budget)
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
        profile_determines(None, {}, 0, 1)


def test_search_checks_its_window_arguments():
    initial, step = graph_action(FIX.D_ab)
    with pytest.raises(BadK):
        search(initial, step, 2, 0)
    with pytest.raises(BadK):
        search(initial, step, 2, 2, 0)
    # the alphabet is checked first, and its error is not a BadK
    with pytest.raises(ValueError) as err:
        search(initial, step, 0, 0)
    assert not isinstance(err.value, BadK)


def test_trivial_graph_is_determined_at_k1():
    initial, step = graph_action(FIX.D_triv)
    res = search(initial, step, 2, 1)
    assert res.status == "yes"


def test_group_evaluation_is_never_determined():
    initial, step = eval_action(FIX.Z2)
    res = search(initial, step, 1, 3)
    assert res.status == "no"
    assert res.witness == ((0, 0, 0), (0, 0, 0, 0))


def test_semilattice_evaluation_is_determined_at_k1():
    initial, step = eval_action(FIX.U1)
    res = search(initial, step, 2, 1)
    assert res.status == "yes"


def test_budget_makes_the_answer_unknown():
    initial, step = graph_action(FIX.D_parity)
    res = search(initial, step, 1, 2, budget=2)
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
    fast = search(initial, step, a, k, t)
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
        status = search(initial, step, a, k, budget=300_000).status
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
    if search(initial, step, a, k, 1).status == "yes":
        assert search(initial, step, a, k, 2).status == "yes"


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_oracle_witnesses_on_random_graphs(seed):
    import random

    from tests.corpus import random_graph

    gr = random_graph(random.Random(seed), 4)
    initial, step = graph_action(gr)
    res = search(initial, step, 2, 2)
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
            gr = TransitionGraph(a, g, tuple(row[:-1] + (row[0],) for row in naive.rows_of(gr)))
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
        ref = search(initial, step, a, k, t, budget)
        assert searches == [ref]
        verdicts.add(ref.status)
        searches.clear()
        order = analyze_graph(gr, (), order=True, k_max=3, t=t, budget=budget).order
        refs = []
        for j in range(1, 4):
            refs.append(search(initial, step, a, j, t, budget))
            if refs[-1].status != "no":
                break
        assert searches == refs
        assert order.states == refs[-1].states
    assert verdicts == {"yes", "no", "unknown"}


REFERENCE_BUDGETS = (1, 3, 50, 3000)

# Alphabets and windows past the seeded draws, among them suffix spans
# A**(k-1) of 9, 27 and 1 that are not powers of two or leave the
# suffix field empty, and interned bags of 2,187 and 6,561 factor codes.
# Budgets around the number of words too short to hold a k-factor stop
# the search just before, at and just after its first k-letter word;
# budgets around the number of words of at most k letters stop it just
# before, at and just after its first longer word; budget 3000 runs the
# smaller ones to a "no".
WIDE_CASES = ((2, 6), (5, 2), (26, 2), (3, 3), (3, 4), (1, 5), (3, 7), (3, 8))


def _around_short_words(a, k):
    short = sum(a ** length for length in range(k))
    return short - 1, short, short + 1


def _around_k_letter_words(a, k):
    return tuple(budget + a ** k for budget in _around_short_words(a, k))


def _letter_parity(a, letter):
    """The 2-node graph where ``letter`` swaps the nodes and the other
    letters fix them: it counts that letter mod 2."""
    swap = tuple(int(c == letter) for c in range(a))
    return graph_action(TransitionGraph(a, 2, (swap, tuple(1 - s for s in swap))))


def _first_letter_parity(a):
    """Its first "no" is on the first k-letter word, 0**k against
    0**(k+1), before any longer word is found."""
    return _letter_parity(a, 0)


def _last_letter_parity(a):
    """Its first "no" is on the last k-letter word, after the others
    found longer words."""
    return _letter_parity(a, a - 1)


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
        for budget in _around_short_words(a, k) + _around_k_letter_words(a, k) + (3000,):
            yield _first_letter_parity(a), a, k, 1, budget
            yield _last_letter_parity(a), a, k, 1, budget


def test_search_equals_the_kprofile_reference():
    """The integer-keyed search must reproduce the reference search,
    whose states are keyed by ``naive.profile``, state for state: same
    status, witness and state count."""
    seen = {"k": set(), "t": set(), "budget": set(), "status": set()}
    for (initial, step), a, k, t, budget in _reference_corpus():
        res = search(initial, step, a, k, t, budget)
        assert res == naive.profile_search(initial, step, a, k, t, budget), (k, t, budget)
        for field, value in zip(seen, (k, t, budget, res.status)):
            seen[field].add(value)
    wide_budgets = {b for a, k in WIDE_CASES
                    for b in _around_short_words(a, k) + _around_k_letter_words(a, k)}
    assert seen == {"k": {1, 2, 3, 4, 5, 6, 7, 8}, "t": {1, 2, 3},
                    "budget": set(REFERENCE_BUDGETS) | wide_budgets,
                    "status": {"yes", "no", "unknown"}}


@pytest.mark.parametrize("a, k", WIDE_CASES)
def test_letter_parities_conflict_on_the_first_and_last_k_letter_words(a, k):
    """The first-letter parity's "no" comes at the first step from a
    k-letter word, with only the words of at most k letters counted, at
    every budget that counts them; the last-letter parity's comes at the
    last k-letter word, once longer words were found, where budget 3000
    allows it (below 500 k-letter words here)."""
    numbered = sum(a ** length for length in range(k + 1))
    zeros, lasts = (0,) * k, (a - 1,) * k
    for budget in _around_k_letter_words(a, k)[1:]:
        assert search(*_first_letter_parity(a), a, k, 1, budget) == \
            oracle.OracleResult("no", (zeros, zeros + (0,)), numbered)
    if a ** k < 500:
        res = search(*_last_letter_parity(a), a, k, 1, 3000)
        assert res.witness == (lasts, lasts + (a - 1,))
        assert res.states > numbered or a == 1


def test_a_step_function_folds_like_its_rows():
    """A step function may stand in for the rows, and gives the same
    search."""
    for (initial, step), a, k, t, budget in _reference_corpus():
        assert profile_determines(initial, step, a, k, t, budget) == \
            search(initial, step, a, k, t, budget), (k, t, budget)


def test_both_bag_encodings_equal_the_reference(monkeypatch):
    """Dense bags (the capped counts in one integer) and interned bags
    must each reproduce the reference search over the whole corpus."""
    for (initial, step), a, k, t, budget in _reference_corpus():
        ref = naive.profile_search(initial, step, a, k, t, budget)
        for bound in (0, 10**9):
            monkeypatch.setattr(oracle, "DENSE_BAG_BITS", bound)
            assert search(initial, step, a, k, t, budget) == ref, (bound, k, t)


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
            assert search(initial, step, a, k, t, budget) == ref, (bound, budget)
    assert "no" in statuses


# The README's table of profile states for a fold that never tells two
# words apart, at the default threshold and budget: the rows that settle.
@pytest.mark.parametrize("a, k, states", [(2, 4, 74_461), (3, 2, 1_615), (4, 2, 442_393)])
def test_readme_budget_table(a, k, states):
    res = profile_determines(0, [[0] * a], a, k)
    assert (res.status, res.witness, res.states) == ("yes", None, states)


# Peak traced memory of the search below, 2-core host, Python 3.11:
# 10.8 MB with tuple-valued profile states, 8.2 MB with interned count
# bags, 6.4 MB with interned bags that share their (factor, count)
# pairs, 26.8 MB with interned bags held as dense bitmasks over the
# 26**3 factors.  The bound is the tuple-valued figure plus 25%.
MEMORY_BOUND_MB = 13.5


def test_search_memory_is_bounded_by_the_words():
    """26 letters, k=3: a bag costs what its word holds, not 26**3 bits.
    The fold is the 2-node graph whose letter a sends both nodes to a % 2."""
    letters = [(a % 2, a % 2) for a in range(26)]

    def step(value, a):
        return letters[a]

    tracemalloc.start()
    try:
        res = search((0, 1), step, 26, 3, budget=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.states) == ("unknown", 20_000)
    assert peak < MEMORY_BOUND_MB * 1e6, f"peak {peak / 1e6:.1f} MB"


# --- the product route: a "yes" settled without a search -------------------

def _lt(s):
    return semigroups._check(s, semigroups.LOCAL_TESTABILITY).holds == "yes"


# Two-letter graphs, from a seeded scan, whose transition semigroups are
# locally testable and fail the loop condition at k = 4 (both) and
# k = 5 (the second) only on a loop shorter than its (k - 1)-letter
# word, at a period of 2 or more.
SHORT_LOOP_GRAPHS = (
    ((4, 2), (6, 6), (4, 6), (1, 6), (6, 3), (5, 0), (6, 6)),
    ((3, 3), (1, 1), (3, 3), (5, 1), (4, 0), (1, 3), (4, 2)),
)


def _monogenic(m):
    """a, a**2, ..., a**m with a**(m+1) = a**m: a fold on one letter
    whose order is m, settled at k < m only by the loop a at a**(k-1)."""
    return FiniteSemigroup(tuple((min(x + 1, m - 1),) for x in range(m)))


def _product_folds():
    """(semigroup, columns) of graph folds (seeded ones on 1-5 nodes over
    1-3 letters, some partial, and ``SHORT_LOOP_GRAPHS``) and of
    semigroup folds: the zoo, small transformation semigroups, free
    semilattices, zero semigroups and monogenic ones.  Both locally
    testable ones and others."""
    rng = seeded("product-route")
    grs = [(random_partial_graph if rng.random() < 0.3 else random_graph)(
        rng, rng.randrange(1, 6), rng.randrange(1, 4)) for _ in range(60)]
    grs += [TransitionGraph(2, len(delta), delta) for delta in SHORT_LOOP_GRAPHS]
    for gr in grs:
        ts = graphs.transition_semigroup(complete_with_sink(gr))
        yield ts.semigroup, ts.label_to_generator
    for s in (semigroup_zoo() + small_transformation_semigroups()
              + [free_semilattice(2), free_semilattice(3), left_zero(2), right_zero(2)]
              + [_monogenic(m) for m in range(1, 6)]):
        yield s, range(s.generator_count)


def test_the_product_route_equals_the_search():
    """With the fold's product, ``profile_determines`` gives the search's
    status, witness and state count, and those of the reference search
    where it is cheap, on locally testable folds and others, at every
    k up to 5 and budgets that stop it before, at and after the end
    (75,000 holds the 74,461 states of two letters at k = 4)."""
    seen = set()
    for s, columns in _product_folds():
        initial, table, product = semigroups._cayley_fold(s, columns)
        lt = _lt(s)
        a = len(columns)
        for k in range(1, 6):
            for budget in (40, 700, 3000, 75_000)[:3 + (k < 5)]:
                plain = profile_determines(initial, table, a, k, 1, budget)
                res = profile_determines(initial, table, a, k, 1, budget, product)
                assert res == plain, (s, k, budget)
                if budget <= 700:
                    step = (lambda v, j, table=table: table[v][j])
                    assert res == naive.profile_search(initial, step, a, k, 1, budget)
                seen.add((lt, res.status))
    assert seen == {(lt, status) for lt in (True, False) for status in ("yes", "no", "unknown")} \
        - {(False, "yes")}


@pytest.mark.parametrize("a, k, states", [(2, 4, 74_461), (3, 2, 1_615), (4, 2, 442_393),
                                          (2, 5, None), (3, 3, None), (5, 2, None)])
def test_the_product_route_around_the_readme_rows(a, k, states):
    """A budget one short of the state count gives "unknown" at the
    budget; at the count and one past it, "yes" with the count; as the
    search does, which the smaller rows also check directly.  The rows
    that exhaust the budget (no count) give "unknown" at 10**6."""
    def constant(x, y):
        return 0

    if states is None:
        res = profile_determines(0, [[0] * a], a, k, 1, DEFAULT_BUDGET, constant)
        assert (res.status, res.witness, res.states) == ("unknown", None, DEFAULT_BUDGET)
        return
    for budget, want in ((states - 1, ("unknown", None, states - 1)),
                         (states, ("yes", None, states)),
                         (states + 1, ("yes", None, states))):
        res = profile_determines(0, [[0] * a], a, k, 1, budget, constant)
        assert (res.status, res.witness, res.states) == want
        if states < 100_000:
            assert res == profile_determines(0, [[0] * a], a, k, 1, budget)


@pytest.mark.parametrize("a", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_profile_count_equals_the_constant_fold_search(a, k):
    """N(A, k) is the state count of a search on a fold that never tells
    two words apart, and None exactly when that search runs out."""
    for budget in (1_000, 20_000):
        res = profile_determines(0, [[0] * a], a, k, 1, budget)
        count = oracle._profile_count(a, k, sum(a ** n for n in range(k)), budget)
        assert (res.status, res.states) == (("yes", count) if count is not None
                                            else ("unknown", budget)), budget


def _first_appearance_form(word):
    names = {}
    return tuple(names.setdefault(letter, len(names)) for letter in word)


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 4])
def test_orbit_representatives_partition_the_words(a, length):
    """Each word is a letter permutation of exactly one representative,
    whose letters first appear in the order 0, 1, 2, ..., and each
    representative stands for A!/(A - m)! words: the sizes sum to
    A**length."""
    reps = dict(oracle._orbit_representatives(a, length))
    assert sum(reps.values()) == a ** length
    orbits = Counter()
    for code, word in enumerate(iter_product(range(a), repeat=length)):
        form = _first_appearance_form(word)
        orbits[sum(letter * a ** (length - 1 - i) for i, letter in enumerate(form))] += 1
        if form == word:
            assert code in reps
    assert orbits == reps


def test_the_work_bound_sends_the_call_back_to_the_search(monkeypatch):
    """The free semilattice on 3 at k = 1: the loop condition holds, and
    weighing it takes 8 products for S¹ and 64 for its pairs.  Under
    that budget the search runs, and answers as the count would."""
    counted = []

    def spy(*args):
        counted.append(args)
        return count(*args)

    count = oracle._profile_count
    monkeypatch.setattr(oracle, "_profile_count", spy)
    s = free_semilattice(3)
    initial, table, product = semigroups._cayley_fold(s, range(3))
    for budget, direct in ((71, False), (72, True)):
        counted.clear()
        res = profile_determines(initial, table, 3, 1, 1, budget, product)
        assert (res.status, res.states) == ("yes", 8)
        assert bool(counted) == direct, budget


def test_the_loop_condition_runs_at_t1_and_holds_only_on_locally_testable_folds(
        monkeypatch):
    """The oracle tries the condition only at t = 1 and on tables (and
    within dense bags, below); the callers hand it the product unless
    the semigroup already holds a local-testability "no", and the
    condition never holds on a fold whose semigroup is not locally
    testable."""
    held = []

    def spy(*args):
        held.append(loops_commute(*args))
        return held[-1]

    loops_commute = oracle._loops_commute
    monkeypatch.setattr(oracle, "_loops_commute", spy)
    ran = Counter()
    rng = seeded("loop-condition-spy")
    for _ in range(40):
        gr = random_graph(rng, rng.randrange(1, 5), rng.randrange(1, 3))
        lt = _lt(graphs.transition_semigroup(complete_with_sink(gr)).semigroup)
        k = rng.randrange(1, 4)
        for t in (1, 2):
            for props in ((), (semigroups.LOCAL_TESTABILITY,)):
                held.clear()
                report = analyze_graph(gr, props, k=k, t=t, order=True, k_max=3)
                assert report.order is not None
                assert not held or t == 1, (gr.columns, t)
                assert lt or not any(held), gr.columns
                assert lt or not (props and held), gr.columns    # the stored "no"
                ran[bool(held), any(held), lt, t, bool(props)] += 1
    for s in semigroup_zoo() + small_transformation_semigroups():
        held.clear()
        analyze_semigroup(s, (), order=True, k_max=3)
        lt = _lt(s)
        assert lt or not any(held)
        ran[bool(held), any(held), lt, 1, False] += 1
    # a step function at t = 1 with a product is searched too
    held.clear()
    profile_determines(0, lambda v, a: 0, 2, 2, 1, 1000, lambda x, y: 0)
    assert held == []
    assert ran[True, True, True, 1, False] and ran[True, False, False, 1, False]
    assert ran[False, False, False, 1, True] and ran[False, False, True, 2, False]


def test_window_questions_run_no_property_check(monkeypatch):
    """A fixed k and the order search fold over the semigroup and search;
    they run no property check, so a report that asks for none of them
    (``--props 1t``) pays for none, on semigroups that are not locally
    testable as on others."""
    entered = []

    def spy(prop, check):
        return lambda s: entered.append(prop) or check(s)

    for prop, check in list(semigroups.PROPERTY_CHECKS.items()):
        monkeypatch.setitem(semigroups.PROPERTY_CHECKS, prop, spy(prop, check))
    rng = seeded("no-property-check")
    kinds = Counter()
    while kinds[False] < 20:
        gr = random_graph(rng, rng.randrange(2, 6), rng.randrange(1, 4))
        ts = graphs.transition_semigroup(gr)
        lt = semigroups.check_local_property(ts.semigroup, semigroups.LOCAL_TESTABILITY)
        report = analyze_graph(gr, [semigroups.ONE_TESTABILITY], k=rng.randrange(1, 4),
                               order=True, k_max=3)
        assert report.order is not None
        kinds[lt.holds == "yes"] += 1
    for s in semigroup_zoo():
        analyze_semigroup(s, (), order=True, k_max=3)
    assert entered == [] and kinds[True]


def test_the_product_route_stays_within_dense_bags(monkeypatch):
    """The count keeps bags as bitmasks of A**k bits, so past the dense
    bound the loop condition is not tried and the search runs."""
    calls = []

    def spy(*args):
        calls.append(args)
        return loops_commute(*args)

    loops_commute = oracle._loops_commute
    monkeypatch.setattr(oracle, "_loops_commute", spy)
    for bound, tried in ((16, True), (15, False)):
        monkeypatch.setattr(oracle, "DENSE_BAG_BITS", bound)
        calls.clear()
        res = profile_determines(0, [[0] * 4], 4, 2, 1, 1_000, lambda x, y: 0)
        assert (res.status, res.states, bool(calls)) == ("unknown", 1_000, tried)
