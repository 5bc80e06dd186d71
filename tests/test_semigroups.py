"""Semigroup decision procedures, cross-checked against the naive loops."""

import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest

from testability import (
    ALL_PROPERTIES,
    ASSOCIATIVITY,
    LOCAL_PROPERTIES,
    FiniteSemigroup,
    NotAssociative,
    NotGenerated,
    NotIdempotent,
    TransitionGraph,
    analyze_graph,
    analyze_semigroup,
    check_associativity,
    check_generator_testability,
    check_local_property,
    idempotents,
    is_aperiodic,
    is_piecewise_testable,
    is_threshold_locally_testable,
    j_classes,
    local_submonoid,
    parse_semigroup,
    semigroup_direct_product,
    transition_semigroup,
    write_semigroup,
)
from testability import semigroups
from testability.oracle import profile_determines
from testability.semigroups import (
    APERIODICITY,
    LEFT_LOCAL_TESTABILITY,
    LOCAL_IDEMPOTENCE,
    LOCAL_TESTABILITY,
    ONE_TESTABILITY,
    PIECEWISE_TESTABILITY,
    RIGHT_LOCAL_TESTABILITY,
    STRICT_LOCAL_TESTABILITY,
    THRESHOLD_LOCAL_TESTABILITY,
    PROPERTY_CHECKS,
)
from tests import naive
from tests.corpus import (
    LTT_IDENTITY_FAILURE_GRAPHS,
    SANDWICH_PAIR_GRAPH,
    cyclic_group,
    fixtures,
    left_zero,
    ltt_identity_failures,
    min_chain,
    random_graph,
    rectangular_band,
    right_zero,
    seeded,
    semigroup_zoo,
    small_transformation_semigroups,
)
from tests.naive import brute_force_scan

FIX = fixtures()

CORPUS = [FIX.U1, FIX.LZ2, FIX.Z2] + semigroup_zoo() + small_transformation_semigroups()
IDS = [f"{i}:n{s.element_count}g{s.generator_count}" for i, s in enumerate(CORPUS)]
MEMBERS = list(range(len(CORPUS)))

# The local properties a report can name: the four eSe scans, and
# strict local testability, reported as the local testability verdict.
REPORTED_LOCAL = LOCAL_PROPERTIES + (STRICT_LOCAL_TESTABILITY,)


@lru_cache(maxsize=None)
def table_of(i: int):
    """Multiplication table re-derived by word folding, not by the package."""
    return naive.product_table(CORPUS[i].cayley)


def test_fixtures_pass_lights_test():
    for s in (FIX.U1, FIX.LZ2, FIX.Z2):
        assert check_associativity(s).holds == "yes"


def test_nonassociative_table_and_witness():
    s = FiniteSemigroup(((1, 0), (0, 0)))
    v = check_associativity(s)
    assert v.holds == "no"
    assert v.witness == (0, 0, 1)
    assert v.detail == "(0*0)*1 != 0*(0*1)"
    # re-evaluate the witness through plain folding
    x, g, y = v.witness
    c = s.cayley
    assert c[c[x][g]][y] != c[x][c[g][y]]


def test_analysis_reports_nonassociative_table():
    v = analyze_semigroup(FiniteSemigroup(((1, 0), (0, 0)))).verdict(ASSOCIATIVITY)
    assert (v.holds, v.witness) == ("no", (0, 0, 1))


def test_lights_scan_runs_once_per_value(monkeypatch):
    scanned = []
    scan = semigroups._lights_test
    monkeypatch.setattr(semigroups, "_lights_test",
                        lambda s: scanned.append(s) or scan(s))
    s = parse_semigroup(write_semigroup(rectangular_band(2, 3)))
    report = analyze_semigroup(s)
    assert scanned == [s]
    assert report.verdict(ASSOCIATIVITY) is check_associativity(s)
    assert scanned == [s]


def _mutated(s: FiniteSemigroup, rng):
    """``s`` with one Cayley cell changed, or None if that leaves some
    element ungenerated."""
    rows = [list(row) for row in s.cayley]
    rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] = rng.randrange(len(rows))
    try:
        return FiniteSemigroup(rows)
    except NotGenerated:
        return None


def test_lights_test_agrees_with_naive():
    """Same verdict and same lex-least (x, j, y) as the all-triples scan,
    on associative tables (the corpus and products of its members) and
    on copies with one cell changed; parsing raises on that triple."""
    rng = seeded("lights-test")
    tables = list(CORPUS)
    while len(tables) < len(CORPUS) + 12:
        a, b = rng.sample(CORPUS, 2)
        if a.element_count * b.element_count <= 40:
            tables.append(semigroup_direct_product(a, b))
    failures = 0
    for s in tables:
        assert naive.lights_test(s.cayley) is None
        assert semigroups._lights_test(s).holds == "yes"
        for _ in range(8):
            m = _mutated(s, rng)
            if m is None:
                continue
            witness = naive.lights_test(m.cayley)
            v = semigroups._lights_test(m)
            assert (v.holds, v.witness) == ("yes" if witness is None else "no", witness)
            if witness is not None:
                failures += 1
                with pytest.raises(NotAssociative) as exc:
                    parse_semigroup(write_semigroup(m))
                assert exc.value.triple == witness
    assert failures >= 50


def test_lights_subset_route_agrees_with_full_scan():
    """``_lights_test`` gives the same Verdict as the scan over every
    generator, on the corpus, products of its members and copies with
    one to three cells changed.  Whenever the kept generators reach
    every element, they generate the whole table under all products,
    as Light's theorem needs."""
    rng = seeded("lights-subset")
    tables = list(CORPUS)
    while len(tables) < len(CORPUS) + 12:
        a, b = rng.sample(CORPUS, 2)
        if a.element_count * b.element_count <= 40:
            tables.append(semigroup_direct_product(a, b))
    cases = Counter()
    for s in tables:
        for _ in range(8):
            m = s
            for _ in range(rng.randint(0, 3)):
                if m is not None:
                    m = _mutated(m, rng)
            if m is None:
                continue
            full = semigroups._lights_scan(m, range(m.generator_count))
            assert semigroups._lights_test(m) == full
            kept = semigroups._generating_subset(m)
            if kept is None:
                assert full.holds == "no"
                cases["kept set does not reach"] += 1
                continue
            assert naive.submagma(m.cayley, kept) == set(range(m.element_count))
            if semigroups._lights_scan(m, kept).holds == "no":
                assert full.holds == "no"
                cases["subset scan fails"] += 1
            elif len(kept) < m.generator_count:
                assert full.holds == "yes"
                cases["fewer generators pass"] += 1
    assert len(cases) == 3, cases


def _subset_route_tables():
    """The tables of the subset-route cross-check above (same seed, same
    draws): the corpus, products of its members and copies with one to
    three cells changed."""
    rng = seeded("lights-subset")
    tables = list(CORPUS)
    while len(tables) < len(CORPUS) + 12:
        a, b = rng.sample(CORPUS, 2)
        if a.element_count * b.element_count <= 40:
            tables.append(semigroup_direct_product(a, b))
    for s in tables:
        for _ in range(8):
            m = s
            for _ in range(rng.randint(0, 3)):
                if m is not None:
                    m = _mutated(m, rng)
            if m is not None:
                yield m


def test_generating_subset_is_the_greedy_reference():
    """``_generating_subset`` keeps what the from-scratch greedy reference
    keeps, walking the generators by the size of j*S^1, or is None
    exactly when that reach misses an element.  The kept list decides
    what Light's test costs, so any change to it shows here."""
    cases = Counter()
    for m in _subset_route_tables():
        kept, reach = naive.greedy_generating_subset(m.cayley)
        complete = len(reach) == m.element_count
        assert semigroups._generating_subset(m) == (kept if complete else None)
        cases[complete] += 1
    assert len(cases) == 2, cases


def test_generator_order_extends_right_reachability():
    """``_generating_subset`` walks the generators by the size of j*S^1,
    ties by index.  On an associative table that is the number of
    elements j reaches in the right Cayley graph, and if j reaches j'
    and j' does not reach j, then j comes first.  On a table that is
    not associative neither need hold."""
    tables = list(_subset_route_tables())
    tables += [semigroup_direct_product(rectangular_band(p, q), min_chain(c))
               for p, q, c in ((2, 3, 4), (3, 3, 5))]
    associative = pairs = 0
    for m in tables:
        order = semigroups._generator_order(m)
        assert order == naive.generator_order(m.cayley)
        if naive.lights_test(m.cayley) is not None:
            continue
        associative += 1
        reach = [naive.reachable(m.cayley, j) for j in range(m.generator_count)]
        assert order == sorted(range(m.generator_count), key=lambda j: -len(reach[j]))
        place = {j: i for i, j in enumerate(order)}
        for j in range(m.generator_count):
            for k in range(m.generator_count):
                if k in reach[j] and j not in reach[k]:
                    assert place[j] < place[k], (j, k)
                    pairs += 1
    assert associative >= 100 and pairs >= 100, (associative, pairs)


def test_lights_test_on_criterion_8_table_scans_few_generators(monkeypatch):
    """Parsing criterion 8's n=500 table scans 4 of its 86 generators,
    and the scan over all of them does not run."""
    scans = []
    scan = semigroups._lights_scan
    monkeypatch.setattr(semigroups, "_lights_scan",
                        lambda s, columns: scans.append(list(columns)) or scan(s, columns))
    s1 = transition_semigroup(random_graph(random.Random(179), 4)).semigroup
    s2 = transition_semigroup(random_graph(random.Random(154), 4)).semigroup
    big = semigroup_direct_product(s1, s2)
    assert (big.element_count, big.generator_count) == (500, 86)
    parsed = parse_semigroup(write_semigroup(big))
    assert check_associativity(parsed).holds == "yes"
    assert len(scans) == 1
    assert len(scans[0]) == 4


def test_idempotents():
    assert idempotents(FIX.U1) == (0, 1)
    assert idempotents(FIX.LZ2) == (0, 1)
    assert idempotents(FIX.Z2) == (1,)


def test_local_submonoids():
    assert local_submonoid(FIX.LZ2, 0) == (0,)
    assert local_submonoid(FIX.LZ2, 1) == (1,)
    assert local_submonoid(FIX.U1, 0) == (0,)
    assert local_submonoid(FIX.U1, 1) == (0, 1)
    assert local_submonoid(FIX.Z2, 1) == (0, 1)
    with pytest.raises(NotIdempotent):
        local_submonoid(FIX.Z2, 0)


def test_local_property_examples():
    v = check_local_property(FIX.Z2, LOCAL_IDEMPOTENCE)
    assert v.holds == "no"
    assert v.witness == (1, 0)
    assert v.detail == "e=1: 0*0 != 0"
    for prop in LOCAL_PROPERTIES:
        assert check_local_property(FIX.U1, prop).holds == "yes"
        assert check_local_property(FIX.LZ2, prop).holds == "yes"
        assert check_local_property(FIX.Z2, prop).holds == "no"
    for prop in ("aperiodicity", STRICT_LOCAL_TESTABILITY):
        with pytest.raises(ValueError):
            check_local_property(FIX.U1, prop)


def test_aperiodicity_examples():
    assert is_aperiodic(FIX.U1).holds == "yes"
    assert is_aperiodic(FIX.LZ2).holds == "yes"
    v = is_aperiodic(FIX.Z2)
    assert v.holds == "no"
    assert v.witness == (0,)
    assert v.detail == "element 0 has period 2"
    assert is_aperiodic(cyclic_group(3)).detail == "element 0 has period 3"
    assert is_aperiodic(min_chain(4)).holds == "yes"


def test_threshold_examples():
    assert is_threshold_locally_testable(FIX.U1).holds == "yes"
    assert is_threshold_locally_testable(FIX.LZ2).holds == "yes"
    v = is_threshold_locally_testable(FIX.Z2)
    assert v.holds == "no"
    assert v.witness == (0,)
    assert v.detail == "not aperiodic: element 0 has period 2"


def test_j_class_examples():
    assert j_classes(FIX.U1) == ((0,), (1,))
    assert j_classes(FIX.Z2) == ((0, 1),)
    # no identity in a left-zero semigroup, so one gets adjoined as 2
    assert j_classes(FIX.LZ2) == ((0, 1), (2,))
    assert j_classes(rectangular_band(2, 2)) == ((0, 1, 2, 3), (4,))


def test_piecewise_examples():
    assert is_piecewise_testable(FIX.U1).holds == "yes"
    assert is_piecewise_testable(min_chain(4)).holds == "yes"
    v = is_piecewise_testable(FIX.LZ2)
    assert v.holds == "no"
    assert v.witness == (0, 1)
    assert v.detail == "elements 0 and 1 generate the same two-sided ideal"


def test_generator_testability_examples():
    assert check_generator_testability(FIX.U1).holds == "yes"
    v = check_generator_testability(FIX.LZ2)
    assert v.witness == (0, 1)
    assert v.detail == "generators 0 and 1 do not commute"
    v = check_generator_testability(FIX.Z2)
    assert v.witness == (0,)
    assert v.detail == "generator 0 is not idempotent"


def test_order_examples():
    found = analyze_semigroup(FIX.U1, (), order=True).order
    assert (found.status, found.k, found.largest_failing) == ("found", 1, 0)
    found = analyze_semigroup(FIX.LZ2, (), order=True).order
    assert (found.status, found.k, found.largest_failing) == ("found", 2, 1)
    none = analyze_semigroup(FIX.Z2, (), order=True).order
    assert (none.status, none.k, none.largest_failing) == ("none", None, 8)


def test_order_found_matches_brute_force():
    # LZ2 evaluation: k=1 must fail, k=2 must hold up to the scan horizon
    def step(v, j):
        return j if v is None else FIX.LZ2.cayley[v][j]

    assert brute_force_scan(None, step, 2, 1, max_len=6).status == "no"
    assert brute_force_scan(None, step, 2, 2, max_len=6).status == "yes"


def test_order_respects_budget():
    res = analyze_semigroup(FIX.Z2, (), order=True, budget=2).order
    assert res.status == "unknown"
    assert res.k is None
    assert res.largest_failing == 1


def test_analyze_semigroup_report():
    report = analyze_semigroup(FIX.U1, order=True, source="u1")
    assert tuple(v.property for v in report.verdicts) == ALL_PROPERTIES
    assert all(v.holds == "yes" for v in report.verdicts)
    assert report.descriptor == {"kind": "semigroup", "source": "u1",
                                 "elements": 2, "generators": 2}
    assert report.stats["elements"] == 2
    assert report.stats["oracle_states"] > 0
    assert report.order.k == 1


def test_strict_local_testability_reuses_the_lt_scan(monkeypatch):
    scanned = []
    scan = semigroups.check_local_property
    monkeypatch.setattr(semigroups, "check_local_property",
                        lambda s, prop: scanned.append(prop) or scan(s, prop))
    for props in ([LOCAL_TESTABILITY, STRICT_LOCAL_TESTABILITY],
                  [STRICT_LOCAL_TESTABILITY, LOCAL_TESTABILITY]):
        scanned.clear()
        lt, slt = analyze_semigroup(cyclic_group(2), props).verdicts
        assert scanned == [LOCAL_TESTABILITY]
        assert (lt.property, slt.property) == tuple(props)
        assert (lt.holds, lt.witness, lt.detail) == (slt.holds, slt.witness, slt.detail)


def test_all_properties_run_the_aperiodicity_check_once(monkeypatch):
    """Threshold local testability includes aperiodicity and reads its
    verdict from the memo instead of scanning the powers again."""
    calls = []
    scan = semigroups.is_aperiodic

    def spy(s):
        calls.append(s)
        return scan(s)

    monkeypatch.setattr(semigroups, "is_aperiodic", spy)
    monkeypatch.setitem(PROPERTY_CHECKS, APERIODICITY, spy)
    analyze_semigroup(rectangular_band(2, 3))
    assert len(calls) == 1
    calls.clear()
    analyze_graph(random_graph(seeded("aperiodicity-once"), 4))
    assert len(calls) == 1


def test_a_second_analysis_of_one_value_runs_no_check(monkeypatch):
    s = rectangular_band(2, 3)
    first = analyze_semigroup(s)
    ran = []
    for prop, check in list(PROPERTY_CHECKS.items()):
        monkeypatch.setitem(
            PROPERTY_CHECKS, prop,
            lambda s, prop=prop, check=check: ran.append(prop) or check(s))
    assert analyze_semigroup(s) == first
    assert ran == []


def test_analyze_semigroup_select_and_dedup():
    report = analyze_semigroup(FIX.Z2, ["aperiodicity", "aperiodicity"])
    assert len(report.verdicts) == 1
    assert report.verdicts[0].holds == "no"
    with pytest.raises(ValueError):
        analyze_semigroup(FIX.Z2, ["aperiodic"])


@pytest.mark.parametrize("i", MEMBERS, ids=IDS)
def test_product_table_matches_naive(i):
    s = CORPUS[i]
    assert [list(row) for row in s.product] == table_of(i)


@pytest.mark.parametrize("prop", REPORTED_LOCAL)
@pytest.mark.parametrize("i", MEMBERS, ids=IDS)
def test_local_checks_agree_with_naive(i, prop):
    v = PROPERTY_CHECKS[prop](CORPUS[i])
    scanned = LOCAL_TESTABILITY if prop == STRICT_LOCAL_TESTABILITY else prop
    holds, witness = naive.check_local(table_of(i), scanned)
    assert (v.property, v.holds, v.witness) == (prop, holds, witness)


@pytest.mark.parametrize("i", MEMBERS, ids=IDS)
def test_aperiodicity_agrees_with_naive(i):
    v = is_aperiodic(CORPUS[i])
    assert (v.holds, v.witness) == naive.check_aperiodic(table_of(i))


@pytest.mark.parametrize("i", [i for i in MEMBERS if CORPUS[i].element_count <= 12],
                         ids=[IDS[i] for i in MEMBERS if CORPUS[i].element_count <= 12])
def test_threshold_agrees_with_naive(i):
    v = is_threshold_locally_testable(CORPUS[i])
    assert (v.holds, v.witness) == naive.check_ltt(table_of(i))


# Aperiodic members that fail the sandwich identity itself, alone and
# next to a two-element left-zero band, whose equal R-classes make later
# (e, f) pairs reuse class pairs that already passed.
LTT_FAILURES = [s for t in ltt_identity_failures()
                for s in (t, semigroup_direct_product(t, left_zero(2)))]
LTT_FAILURE_IDS = [f"{i}:n{s.element_count}" for i, s in enumerate(LTT_FAILURES)]


@pytest.mark.parametrize("s", LTT_FAILURES, ids=LTT_FAILURE_IDS)
def test_threshold_identity_failure_agrees_with_naive(s):
    v = is_threshold_locally_testable(s)
    assert (v.holds, v.witness) == naive.check_ltt(naive.product_table(s.cayley))
    assert len(v.witness) == 5


def test_threshold_agrees_with_naive_with_and_without_cached_rows():
    # prod folds over the right factor's word until the left factor's
    # row is cached, then reads the row: both branches must give the
    # same verdict and witness.
    rng = seeded("ltt-fresh-rows")
    graphs = [TransitionGraph(2, len(delta), delta)
              for delta in LTT_IDENTITY_FAILURE_GRAPHS]
    tables = set()
    while len(graphs) < 16:
        gr = random_graph(rng, rng.randrange(4, 7))
        s = transition_semigroup(gr).semigroup
        if (4 <= s.element_count <= 12 and s.cayley not in tables
                and is_aperiodic(s).holds == "yes"):
            tables.add(s.cayley)
            graphs.append(gr)
    verdicts = Counter()
    for gr in graphs:
        s = transition_semigroup(gr).semigroup
        expect = naive.check_ltt(naive.product_table(s.cayley))
        assert not s._rows
        v = is_threshold_locally_testable(s)
        assert (v.holds, v.witness) == expect
        assert len(s.product) == len(s._rows) == s.element_count
        v = is_threshold_locally_testable(s)
        assert (v.holds, v.witness) == expect
        verdicts[v.holds] += 1
    assert verdicts == {"yes": 10, "no": 6}


def test_sandwich_scan_is_exact_per_pair():
    members = ltt_identity_failures()
    members.append(transition_semigroup(
        TransitionGraph(2, len(SANDWICH_PAIR_GRAPH), SANDWICH_PAIR_GRAPH)).semigroup)
    for s in members:
        table = naive.product_table(s.cayley)
        n = len(table)
        idem = [e for e in range(n) if table[e][e] == e]
        for e in idem:
            for f in idem:
                esf = {table[table[e][x]][f] for x in range(n)}
                expect = all(table[table[p][u]][q] == table[table[q][u]][p]
                             for p in esf for u in range(n) for q in esf)
                assert semigroups._sandwich_identity_holds(s, e, f) == expect, (e, f)
    assert not semigroups._sandwich_identity_holds(members[-1], 3, 19)


def test_threshold_scans_each_class_pair_once(monkeypatch):
    scanned = []
    scan = semigroups._sandwich_identity_holds
    monkeypatch.setattr(semigroups, "_sandwich_identity_holds",
                        lambda s, e, f: scanned.append((e, f)) or scan(s, e, f))
    # The band's two rows and two columns at the chain's top: 2 x 2 pairs
    # of the 6 x 6 class pairs and 9 x 9 idempotent pairs.
    square = semigroup_direct_product(rectangular_band(2, 2), min_chain(3))
    assert is_threshold_locally_testable(square).holds == "yes"
    assert len(scanned) == 2 * 2
    # A "yes" scans the pairs of maximal R- and L-class representatives,
    # found from the eS and Se sets of the full table, in ascending
    # order.  A "no" scans them up to the first that fails, then the
    # pairs of the least idempotents of all R- and L-classes, ascending,
    # up to the witness pair, skipping the maximal pairs already scanned.
    members = [t for t in CORPUS + ltt_identity_failures()
               if is_aperiodic(t).holds == "yes"]
    verdicts = Counter()
    for t in members:
        for s in (t, semigroup_direct_product(t, left_zero(2)),
                  semigroup_direct_product(t, right_zero(2))):
            table = naive.product_table(s.cayley)
            r_top, l_top = naive.maximal_representatives(table)
            expect = [(e, f) for e in r_top for f in l_top]
            scanned.clear()
            v = is_threshold_locally_testable(s)
            if v.holds == "no":
                failing = next(p for p in expect if not naive.sandwich_holds(table, *p))
                r, l = naive.class_representatives(table)
                pairs = [(e, f) for e in r for f in l]
                expect = expect[:expect.index(failing) + 1]
                expect += [p for p in pairs[:pairs.index(v.witness[:2]) + 1]
                           if p not in expect]
            assert scanned == expect
            verdicts[v.holds] += 1
    assert verdicts["yes"] and verdicts["no"]


def test_threshold_maximal_pairs_agree_with_naive():
    # The maximal-pair scan decides "yes"; a "no" falls back to the full
    # ascending scan, whose witness pair need not be maximal.  Seeded
    # DFA semigroups of up to 30 elements keep the quintuple loop cheap.
    members = CORPUS + ltt_identity_failures()
    members += [semigroup_direct_product(t, z) for t in members
                for z in (left_zero(2), right_zero(2))]
    rng = seeded("ltt-maximal-pairs")
    dfas = []
    while len(dfas) < 200:
        s = transition_semigroup(random_graph(rng, rng.randrange(2, 6))).semigroup
        if s.element_count <= 30:
            dfas.append(s)
    verdicts = Counter()
    for s in members + dfas:
        table = naive.product_table(s.cayley)
        v = is_threshold_locally_testable(s)
        assert (v.holds, v.witness) == naive.check_ltt(table)
        if v.holds == "yes":
            verdicts["yes"] += 1
        elif len(v.witness) == 5:
            r_top, l_top = naive.maximal_representatives(table)
            e, f = v.witness[:2]
            verdicts["maximal" if e in r_top and f in l_top else "below"] += 1
    assert verdicts["yes"] and verdicts["maximal"] and verdicts["below"]


@pytest.mark.parametrize("i", MEMBERS, ids=IDS)
def test_piecewise_agrees_with_naive(i):
    v = is_piecewise_testable(CORPUS[i])
    assert (v.holds, v.witness) == naive.check_piecewise(table_of(i))


@pytest.mark.parametrize("i", MEMBERS, ids=IDS)
def test_generator_testability_agrees_with_naive(i):
    s = CORPUS[i]
    v = check_generator_testability(s)
    assert (v.holds, v.witness) == naive.check_one_testable(table_of(i),
                                                            s.generator_count)


@pytest.mark.parametrize("i", MEMBERS, ids=IDS)
def test_property_implications(i):
    s = CORPUS[i]
    got = {p: PROPERTY_CHECKS[p](s) for p in ALL_PROPERTIES}
    lt = got[LOCAL_TESTABILITY]
    assert replace(got[STRICT_LOCAL_TESTABILITY], property=LOCAL_TESTABILITY) == lt
    if lt.holds == "yes":
        for weaker in (RIGHT_LOCAL_TESTABILITY, LEFT_LOCAL_TESTABILITY,
                       LOCAL_IDEMPOTENCE, THRESHOLD_LOCAL_TESTABILITY):
            assert got[weaker].holds == "yes"
    if got[PIECEWISE_TESTABILITY].holds == "yes":
        assert got["aperiodicity"].holds == "yes"
    if got[ONE_TESTABILITY].holds == "yes":
        assert lt.holds == "yes"


@pytest.mark.parametrize("i", MEMBERS, ids=IDS)
def test_j_classes_partition(i):
    s = CORPUS[i]
    classes = j_classes(s)
    adjoined = naive.identity_of(table_of(i)) is None
    total = s.element_count + 1 if adjoined else s.element_count
    flat = sorted(x for cls in classes for x in cls)
    assert flat == list(range(total))


def _identity_cases():
    """The corpus, the fixture graphs' transition semigroups, and those of
    seeded two-letter graphs, every other one with letter b the identity
    map, so that the identity is a generator, a product (D_parity: aa),
    or missing."""
    rng = seeded("j-classes")
    out = list(CORPUS) + [transition_semigroup(gr).semigroup
                          for gr in (FIX.D_triv, FIX.D_parity, FIX.D_ab)]
    while len(out) < len(CORPUS) + 27:
        g = rng.randrange(2, 5)
        delta = naive.rows_of(random_graph(rng, g))
        if len(out) % 2:
            delta = tuple((row[0], p) for p, row in enumerate(delta))
        s = transition_semigroup(TransitionGraph(2, g, delta)).semigroup
        if s.element_count <= 30:
            out.append(s)
    return out


def test_j_classes_agree_with_naive():
    """Same classes, in the same order, as grouping elements by their
    two-sided ideal, with an identity adjoined exactly when none exists."""
    cases = Counter()
    for s in _identity_cases():
        table = naive.product_table(s.cayley)
        e = naive.identity_of(table)
        cases["missing" if e is None else
              "generator" if e < s.generator_count else "product"] += 1
        assert j_classes(s) == naive.j_classes(table), s.cayley
    assert min(cases[k] for k in ("generator", "product", "missing")) >= 3, cases


def _violates(table, prop, witness):
    """Re-evaluate a 'no' witness directly on the naive table."""
    if prop == "aperiodicity":
        (x,) = witness
        return naive.check_aperiodic(table)[0] == "no" and _period_of(table, x) > 1
    if prop in REPORTED_LOCAL:
        e = witness[0]
        sub = sorted({table[table[e][z]][e] for z in range(len(table))})
        if len(witness) == 2:
            x = witness[1]
            return table[e][e] == e and x in sub and table[x][x] != x
        x, y = witness[1], witness[2]
        if not (x in sub and y in sub):
            return False
        xy, yx = table[x][y], table[y][x]
        return {
            LOCAL_TESTABILITY: xy != yx,
            STRICT_LOCAL_TESTABILITY: xy != yx,
            RIGHT_LOCAL_TESTABILITY: table[xy][x] != xy,
            LEFT_LOCAL_TESTABILITY: table[xy][x] != yx,
        }[prop]
    if prop == THRESHOLD_LOCAL_TESTABILITY:
        if len(witness) == 1:
            return _period_of(table, witness[0]) > 1
        e, f, x, u, y = witness

        def m(*xs):
            acc = xs[0]
            for z in xs[1:]:
                acc = table[acc][z]
            return acc

        return m(e, x, f, u, e, y, f) != m(e, y, f, u, e, x, f)
    if prop == PIECEWISE_TESTABILITY:
        x, y = witness
        return naive.two_sided_ideal(table, x) == naive.two_sided_ideal(table, y)
    if prop == ONE_TESTABILITY:
        if len(witness) == 1:
            (u,) = witness
            return table[u][u] != u
        u, v = witness
        return table[u][v] != table[v][u]
    raise AssertionError(prop)


def _period_of(table, x):
    seen = []
    cur = x
    while cur not in seen:
        seen.append(cur)
        cur = table[cur][x]
    return len(seen) - seen.index(cur)


@pytest.mark.parametrize("i", MEMBERS, ids=IDS)
def test_no_witnesses_reevaluate(i):
    s = CORPUS[i]
    table = table_of(i)
    for prop in ALL_PROPERTIES:
        if prop == "associativity":
            continue  # the corpus is associative by construction
        v = PROPERTY_CHECKS[prop](s)
        if v.holds == "no":
            assert v.witness is not None
            assert _violates(table, prop, v.witness), (prop, v.witness)


@pytest.mark.parametrize("i", MEMBERS, ids=IDS)
def test_order_postcondition(i):
    s = CORPUS[i]
    # alphabets past two letters exhaust any budget at k >= 2; bail fast
    res = analyze_semigroup(s, (), order=True, k_max=4, budget=50_000).order
    if res.status == "found":
        assert res.largest_failing == res.k - 1

        def step(v, j):
            return j if v is None else s.cayley[v][j]

        # a scan can never contradict a genuine "yes"
        assert brute_force_scan(None, step, s.generator_count,
                                res.k, max_len=5).status == "yes"
        if res.k > 1:
            below = profile_determines(None, naive.fold_rows(step, s.generator_count),
                                       s.generator_count, res.k - 1)
            assert below.status == "no"
            u, v = below.witness
            assert naive.profile(u, res.k - 1, 1) == naive.profile(v, res.k - 1, 1)
            assert naive.eval_word(s.cayley, u) != naive.eval_word(s.cayley, v)
