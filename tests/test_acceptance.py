"""Acceptance gate: one test per shipped guarantee, with bounds pinned
inline.  Run with ``pytest -v -s tests/test_acceptance.py`` to see one
PASS line per criterion.

Expected values are never taken from the code under test: matrix cells
are frozen literals re-derived by the loops in tests/naive.py, and the
agreement checks pit the decision procedures against those loops on
seeded random inputs.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from itertools import product as iter_product

from testability import (
    ALL_PROPERTIES,
    APERIODICITY,
    ASSOCIATIVITY,
    LEFT_LOCAL_TESTABILITY,
    LOCAL_IDEMPOTENCE,
    LOCAL_TESTABILITY,
    NO,
    ONE_TESTABILITY,
    PIECEWISE_TESTABILITY,
    RIGHT_LOCAL_TESTABILITY,
    STRICT_LOCAL_TESTABILITY,
    THRESHOLD_LOCAL_TESTABILITY,
    TransitionGraph,
    YES,
    analyze_graph,
    analyze_semigroup,
    check_associativity,
    graph_direct_product,
    is_aperiodic,
    is_piecewise_testable,
    is_threshold_locally_testable,
    parse_graph,
    parse_semigroup,
    profile_determines,
    semigroup_direct_product,
    transition_semigroup,
    write_graph,
    write_semigroup,
)
from testability import graphs, semigroups
from testability.cli import main
from testability.semigroups import PROPERTY_CHECKS
from tests import naive
from tests.corpus import (cyclic_group, fixtures, free_semilattice, min_chain, random_dfas,
                          random_graph, rectangular_band, seeded)

FIX = fixtures()

# Properties preserved by direct products (criterion 5).
CLOSURE_PROPERTIES = (LOCAL_TESTABILITY, RIGHT_LOCAL_TESTABILITY,
                      LEFT_LOCAL_TESTABILITY, LOCAL_IDEMPOTENCE,
                      THRESHOLD_LOCAL_TESTABILITY, PIECEWISE_TESTABILITY,
                      APERIODICITY)


def eval_action(s):
    """Fold a generator word to the element it names, from raw rows."""
    def step(v, j):
        return j if v is None else s.cayley[v][j]
    return None, step


def graph_action(gr):
    """Fold a letter word to its node map, from raw rows."""
    def step(v, j):
        return tuple(gr.delta[p][j] for p in v)
    return tuple(range(gr.node_count)), step


def naive_holds(table, g, prop):
    """Verdict of one property from the brute loops, given a full table."""
    if prop == ASSOCIATIVITY:
        n = len(table)
        ok = all(table[table[x][y]][z] == table[x][table[y][z]]
                 for x in range(n) for y in range(n) for z in range(n))
        return YES if ok else NO
    if prop == APERIODICITY:
        return naive.check_aperiodic(table)[0]
    if prop == THRESHOLD_LOCAL_TESTABILITY:
        return naive.check_ltt(table)[0]
    if prop == PIECEWISE_TESTABILITY:
        return naive.check_piecewise(table)[0]
    if prop == ONE_TESTABILITY:
        return naive.check_one_testable(table, g)[0]
    if prop == STRICT_LOCAL_TESTABILITY:  # reported as the LT verdict, renamed
        prop = LOCAL_TESTABILITY
    return naive.check_local(table, prop)[0]


def naive_graph_one_testable(gr):
    """Letterwise check straight off the transition rows."""
    for i in range(gr.alphabet_size):
        for p in range(gr.node_count):
            q = gr.delta[p][i]
            if gr.delta[q][i] != q:
                return NO
        for j in range(i + 1, gr.alphabet_size):
            for p in range(gr.node_count):
                if gr.delta[gr.delta[p][i]][j] != gr.delta[gr.delta[p][j]][i]:
                    return NO
    return YES


def first_profile_collision(initial, step, alphabet, k, max_len):
    """Scan every nonempty word up to max_len, grouping values by the
    recomputed k-profile at threshold 1; None means each profile carried
    a single value, otherwise the first colliding word pair comes back."""
    seen = {}
    for length in range(1, max_len + 1):
        for word in iter_product(range(alphabet), repeat=length):
            val = initial
            for j in word:
                val = step(val, j)
            key = naive.profile(word, k, 1)
            if key in seen and seen[key][1] != val:
                return seen[key][0], word
            seen.setdefault(key, (word, val))
    return None


def test_criterion_1_fixture_matrix():
    t0 = time.perf_counter()
    u1, lz2, z2 = FIX.U1, FIX.LZ2, FIX.Z2

    semi_rows = (
        (u1, {p: YES for p in ALL_PROPERTIES if p != ONE_TESTABILITY},
         ("found", 1)),
        (lz2, {APERIODICITY: YES, LOCAL_TESTABILITY: YES,
               THRESHOLD_LOCAL_TESTABILITY: YES, PIECEWISE_TESTABILITY: NO},
         ("found", 2)),
        (z2, {APERIODICITY: NO, LOCAL_TESTABILITY: NO, LOCAL_IDEMPOTENCE: NO,
              THRESHOLD_LOCAL_TESTABILITY: NO, PIECEWISE_TESTABILITY: NO},
         ("none", None)),
    )
    for s, cells, (status, k) in semi_rows:
        table = naive.product_table(s.cayley)
        for prop, want in cells.items():
            assert PROPERTY_CHECKS[prop](s).holds == want, (s, prop)
            assert naive_holds(table, s.generator_count, prop) == want, (s, prop)
        res = analyze_semigroup(s, (), order=True).order
        assert (res.status, res.k) == (status, k)
        if status == "none":
            assert res.k_max == 8

    # The two elements of LZ2 sit in one two-sided ideal class.
    pt = is_piecewise_testable(lz2)
    assert (pt.holds, pt.witness) == (NO, (0, 1))
    lz2_table = naive.product_table(lz2.cayley)
    assert naive.two_sided_ideal(lz2_table, 0) == naive.two_sided_ideal(lz2_table, 1)

    graph_rows = (
        (FIX.D_triv, {p: YES for p in ALL_PROPERTIES}, ("found", 1)),
        (FIX.D_parity,
         {APERIODICITY: NO, LOCAL_TESTABILITY: NO, LOCAL_IDEMPOTENCE: NO,
          THRESHOLD_LOCAL_TESTABILITY: NO, PIECEWISE_TESTABILITY: NO},
         ("none", None)),
        (FIX.D_ab, {LOCAL_TESTABILITY: YES, ONE_TESTABILITY: NO,
                    THRESHOLD_LOCAL_TESTABILITY: YES, PIECEWISE_TESTABILITY: NO},
         ("found", 2)),
    )
    for gr, cells, (status, k) in graph_rows:
        sg = transition_semigroup(gr).semigroup
        table = naive.product_table(sg.cayley)
        for prop, want in cells.items():
            assert analyze_graph(gr, [prop]).verdict(prop).holds == want, (gr, prop)
            if prop == ONE_TESTABILITY:
                assert naive_graph_one_testable(gr) == want
            else:
                assert naive_holds(table, sg.generator_count, prop) == want, (gr, prop)
        res = analyze_graph(gr, (), order=True).order
        assert (res.status, res.k) == (status, k)
        if status == "none":
            assert res.k_max == 8

    # The parity action generates exactly two node maps.
    parity_maps = {naive.word_action(FIX.D_parity, (0,) * m) for m in range(1, 5)}
    assert len(parity_maps) == 2
    assert transition_semigroup(FIX.D_parity).semigroup.element_count == 2

    # Orders re-derived by profile-bucket scans over all short words.
    assert first_profile_collision(*eval_action(u1), 2, 1, 7) is None
    assert first_profile_collision(*eval_action(lz2), 2, 2, 7) is None
    assert first_profile_collision(*eval_action(lz2), 2, 1, 7) is not None
    assert first_profile_collision(*graph_action(FIX.D_triv), 2, 1, 7) is None
    assert first_profile_collision(*graph_action(FIX.D_ab), 2, 2, 7) is None
    assert first_profile_collision(*graph_action(FIX.D_ab), 2, 1, 7) is not None
    for k in range(1, 9):
        # a^k and a^(k+1) share the k-profile at threshold 1 but flip parity.
        u, v = (0,) * k, (0,) * (k + 1)
        assert naive.profile(u, k, 1) == naive.profile(v, k, 1)
        assert naive.eval_word(z2.cayley, u) != naive.eval_word(z2.cayley, v)
        assert naive.word_action(FIX.D_parity, u) != naive.word_action(FIX.D_parity, v)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 1: fixture verdict matrix exact and reproduced "
          f"by brute force, {elapsed:.2f}s < 1s")


def test_criterion_2_product_generator_count():
    rng = seeded("acceptance-products")
    dims = [(p, q) for p in range(1, 7) for q in range(1, 7) if 2 <= p * q <= 6]
    pool = [FIX.U1, FIX.LZ2, FIX.Z2]
    pool += [rectangular_band(*rng.choice(dims)) for _ in range(4)]
    pool += [cyclic_group(rng.randrange(2, 7)) for _ in range(3)]

    pairs = 0
    for s1 in pool:
        for s2 in pool:
            prod = semigroup_direct_product(s1, s2)
            n1, g1 = s1.element_count, s1.generator_count
            n2, g2 = s2.element_count, s2.generator_count
            assert prod.element_count == n1 * n2
            assert prod.generator_count == n1 * g2 + n2 * g1 - g1 * g2
            pairs += 1
    assert pairs >= 10
    print(f"PASS criterion 2: generator count n1*g2 + n2*g1 - g1*g2 exact "
          f"on {pairs} product pairs")


def test_criterion_3_testability_gate():
    t0 = time.perf_counter()
    dfas = random_dfas(50, "acceptance-dfas")
    testable = 0
    for i, gr in enumerate(dfas):
        lt = analyze_graph(gr, [LOCAL_TESTABILITY]).verdict(LOCAL_TESTABILITY).holds
        res = analyze_graph(gr, (), order=True, k_max=8, budget=60_000).order
        found = res.status == "found"
        assert (lt == YES) == found, (i, lt, res)
        testable += found
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 3: algebraic testability matches an order <= 8 "
          f"on {len(dfas)} DFAs ({testable} testable), {elapsed:.1f}s < 120s")


def test_criterion_4_dual_path_agreement():
    dfas = random_dfas(50, "acceptance-dfas")
    checked = 0
    for i, gr in enumerate(dfas):
        table = naive.product_table(transition_semigroup(gr).semigroup.cayley)
        for prop in naive.LOCAL_PROPS:
            want = naive.check_local(table, prop)[0]
            assert analyze_graph(gr, [prop]).verdict(prop).holds == want, (i, prop)
            checked += 1
    print(f"PASS criterion 4: {checked} local-property verdicts match the "
          f"naive triple loops exactly")


def test_criterion_5_product_closure():
    semis = [FIX.U1, FIX.LZ2, FIX.Z2]
    semis += [transition_semigroup(g).semigroup
              for g in (FIX.D_triv, FIX.D_parity, FIX.D_ab)]
    held = [{p: PROPERTY_CHECKS[p](s).holds for p in CLOSURE_PROPERTIES}
            for s in semis]
    preserved = 0
    for i, s1 in enumerate(semis):
        for j, s2 in enumerate(semis):
            prod = semigroup_direct_product(s1, s2)
            for prop in CLOSURE_PROPERTIES:
                if held[i][prop] == YES and held[j][prop] == YES:
                    assert PROPERTY_CHECKS[prop](prod).holds == YES, (i, j, prop)
                    preserved += 1

    graphs = (FIX.D_triv, FIX.D_parity, FIX.D_ab)
    graph_held = [{p: analyze_graph(g, [p]).verdict(p).holds for p in CLOSURE_PROPERTIES}
                  for g in graphs]
    for i, g1 in enumerate(graphs):
        for j, g2 in enumerate(graphs):
            prod = graph_direct_product(g1, g2)
            for prop in CLOSURE_PROPERTIES:
                if graph_held[i][prop] == YES and graph_held[j][prop] == YES:
                    v = analyze_graph(prod, [prop]).verdict(prop)
                    assert v.holds == YES, (i, j, prop)
                    preserved += 1
    print(f"PASS criterion 5: {preserved} shared properties preserved by "
          f"direct products of fixtures")


def test_criterion_6_monotonicity():
    budget = 300_000
    steps = 0
    for gr in (FIX.D_triv, FIX.D_parity, FIX.D_ab):
        prev = None
        for k in range(1, 5):
            v = analyze_graph(gr, (), k=k, budget=budget).verdicts[0]
            if v.holds == "unknown":
                break
            if prev == YES:
                assert v.holds == YES, (gr, k)
                steps += 1
            prev = v.holds

    actions = [(*graph_action(g), g.alphabet_size)
               for g in (FIX.D_triv, FIX.D_parity, FIX.D_ab)]
    actions += [(*eval_action(s), s.generator_count)
                for s in (FIX.U1, FIX.LZ2, FIX.Z2)]
    for initial, step, alphabet in actions:
        for k in (1, 2, 3):
            prev = None
            for t in (1, 2, 3):
                res = profile_determines(initial, step, alphabet, k, t, budget)
                if res.status == "unknown":
                    break
                if prev == "yes":
                    assert res.status == "yes", (alphabet, k, t)
                    steps += 1
                prev = res.status
    print(f"PASS criterion 6: verdicts monotone in k and in t across all "
          f"fixtures ({steps} adjacent steps)")


def test_criterion_7_round_trips():
    graphs = [FIX.D_triv, FIX.D_parity, FIX.D_ab]
    graphs += [graph_direct_product(a, b)
               for a in graphs[:3] for b in graphs[:3]]
    semis = [FIX.U1, FIX.LZ2, FIX.Z2]
    semis += [transition_semigroup(g).semigroup
              for g in (FIX.D_triv, FIX.D_parity, FIX.D_ab)]
    semis += [semigroup_direct_product(a, b)
              for a in semis[:6] for b in semis[:6]]

    trips = 0
    for gr in graphs:
        text = write_graph(gr)
        again = parse_graph(text)
        assert again == gr and write_graph(again) == text
        trips += 1
    for s in semis:
        text = write_semigroup(s)
        again = parse_semigroup(text)
        assert again == s and write_semigroup(again) == text
        trips += 1
    print(f"PASS criterion 7: {trips} write/parse round trips byte-identical")


def test_criterion_8_capacity(tmp_path):
    # 500 elements: product of the transition semigroups (20 and 25
    # elements) of two seeded four-node graphs.
    s1 = transition_semigroup(random_graph(random.Random(179), 4)).semigroup
    s2 = transition_semigroup(random_graph(random.Random(154), 4)).semigroup
    big = semigroup_direct_product(s1, s2)
    assert big.element_count == 500
    sg_path = tmp_path / "n500.sg"
    sg_path.write_text(write_semigroup(big))
    t0 = time.perf_counter()
    assert main(["analyze-semigroup", str(sg_path), "--props", "all"]) == 0
    sg_elapsed = time.perf_counter() - t0
    assert sg_elapsed < 60.0

    # 200 nodes, two letters mapping into a six-node seeded core, which
    # keeps the transition semigroup large but finite (840 elements).
    rng = random.Random("testability:capacity-graph-6-0")
    core = rng.sample(range(200), 6)
    delta = tuple(tuple(rng.choice(core) for _ in range(2)) for _ in range(200))
    gr = TransitionGraph(2, 200, delta)
    gr_path = tmp_path / "g200.gr"
    gr_path.write_text(write_graph(gr))
    t0 = time.perf_counter()
    ts = transition_semigroup(gr)
    assert main(["analyze-graph", str(gr_path), "--props", "all"]) == 0
    gr_elapsed = time.perf_counter() - t0
    assert ts.semigroup.element_count == 840
    assert gr_elapsed < 120.0
    print(f"PASS criterion 8: n=500 semigroup analyzed in {sg_elapsed:.1f}s "
          f"< 60s; g=200 graph in {gr_elapsed:.1f}s < 120s")


def test_criterion_9_worst_case_yes_instance():
    # 300 elements, all idempotent: a 5x5 rectangular band times a
    # 12-element chain.  Nothing fails early, so every check runs its
    # full scan; the verdicts follow from the factors (bands are
    # aperiodic, eSe is trivial in a rectangular band and commutative in
    # a chain), while the band's non-singleton J-classes and
    # non-commuting generators break the last two properties.
    s = semigroup_direct_product(rectangular_band(5, 5), min_chain(12))
    assert s.element_count == 300
    t0 = time.perf_counter()
    report = analyze_semigroup(s)
    elapsed = time.perf_counter() - t0
    got = {v.property: v.holds for v in report.verdicts}
    assert got == {p: NO if p in (PIECEWISE_TESTABILITY, ONE_TESTABILITY) else YES
                   for p in ALL_PROPERTIES}
    assert elapsed < 30.0
    print(f"PASS criterion 9: n=300 yes-instance analyzed in {elapsed:.1f}s < 30s")


# The 8-node Catalan graph: letter i sends node i to i+1 and fixes the
# rest; its maps are the order-preserving extensive maps of the chain,
# 1,429 besides the identity.
CATALAN_8 = TransitionGraph(7, 8, tuple(tuple(p + 1 if p == i else p for i in range(7))
                                        for p in range(8)))


def test_criterion_10_aperiodicity_and_pt_memory():
    # Aperiodicity and piecewise testability read the Cayley rows and
    # the generator rows only: no n x n table.  The 8-node Catalan
    # graph's semigroup is J-trivial, so both scans run to the end.
    cases = ((CATALAN_8, 1429, YES, (YES, None)),
             (random_graph(seeded("froidure-pin-count"), 6, 3), 2650, NO, (NO, (0, 5))))
    peaks = []
    for gr, elements, aperiodic, pt in cases:
        s = transition_semigroup(gr).semigroup
        assert s.element_count == elements
        tracemalloc.start()
        try:
            a = is_aperiodic(s)
            p = is_piecewise_testable(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.holds == aperiodic
        assert (p.holds, p.witness) == pt
        assert peak < 4e6, f"{elements} elements: peak {peak / 1e6:.1f} MB"
        peaks.append(peak / 1e6)
    print(f"PASS criterion 10: aperiodicity and PT on 1,429 and 2,650 elements "
          f"peak at {peaks[0]:.1f} and {peaks[1]:.1f} MB < 4 MB")


def test_criterion_11_closure_memory(monkeypatch):
    # The 40,000-node product of criterion 8's 200-node graph with
    # itself has only 1,296 distinct rows, and the closure keys each of
    # its 840 elements on one node per row: a few MB instead of the
    # 270 MB that 840 maps over all 40,000 nodes take.  Once closed,
    # only the Cayley table and the letter names stay alive.  The traced
    # call closes the transition semigroup once and checks LT on it;
    # the size its result keeps is read as the call returns.
    rng = random.Random("testability:capacity-graph-6-0")
    core = rng.sample(range(200), 6)
    gr = TransitionGraph(2, 200, tuple(tuple(rng.choice(core) for _ in range(2))
                                       for _ in range(200)))
    t0 = time.perf_counter()
    big = graph_direct_product(gr, gr)
    assert big.node_count == 40_000
    kept = []

    def measured(graph):
        before = tracemalloc.get_traced_memory()[0]
        ts = transition_semigroup(graph)
        kept.append(tracemalloc.get_traced_memory()[0] - before)
        return ts

    monkeypatch.setattr(graphs, "transition_semigroup", measured)
    tracemalloc.start()
    try:
        report = analyze_graph(big, [LOCAL_TESTABILITY])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - t0
    assert report.stats["semigroup_elements"] == 840
    v = report.verdicts[0]
    assert (v.holds, v.witness) == (NO, (13, 29))
    assert v.detail == "e=13: 29*29 != 29; witness words: bbb, bbbb"
    assert len(kept) == 1
    assert kept[0] < 2e6, f"result keeps {kept[0] / 1e6:.1f} MB"
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
    assert elapsed < 5.0
    print(f"PASS criterion 11: 840 elements of a 40,000-node graph closed and "
          f"checked for LT at {peak / 1e6:.1f} MB peak < 16 MB in {elapsed:.2f}s; "
          f"the closure keeps {kept[0] / 1e6:.2f} MB < 2 MB")


def test_criterion_12_threshold_memory():
    # LTT picks one idempotent per R- and L-class by products with the
    # smaller class representatives, so no n x n table is built just to
    # tell the classes apart.  The 8-node Catalan semigroup fails the
    # identity at its first pair, whose rows stay well under 8 MB.
    s = transition_semigroup(CATALAN_8).semigroup
    assert s.element_count == 1429
    tracemalloc.start()
    try:
        v = is_threshold_locally_testable(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (v.holds, v.witness) == (NO, (0, 0, 0, 1, 2))
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"
    print(f"PASS criterion 12: LTT on 1,429 elements answers no at "
          f"{peak / 1e6:.1f} MB peak < 8 MB")


def test_criterion_12_threshold_memory_catalan_9():
    # The 9-node Catalan semigroup also fails at its first pair (0, 0),
    # whose eSf has 1,430 elements.  The rows of p*w are built one q at
    # a time and compared with those already built, so the scan stops
    # at the first failing comparison instead of holding all 1,430 rows
    # of 4,861 entries (about 56 MB).
    catalan_9 = TransitionGraph(8, 9, tuple(tuple(p + 1 if p == i else p for i in range(8))
                                            for p in range(9)))
    s = transition_semigroup(catalan_9).semigroup
    assert s.element_count == 4861
    tracemalloc.start()
    try:
        v = is_threshold_locally_testable(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (v.holds, v.witness) == (NO, (0, 0, 0, 1, 2))
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"
    print(f"PASS criterion 12: LTT on 4,861 elements answers no at "
          f"{peak / 1e6:.1f} MB peak < 8 MB")


def test_criterion_13_lights_test_on_all_generator_table():
    # 1,280 elements, every one a generator: an 8x8 rectangular band
    # times a 20-element chain.  Light's test runs over the generators
    # kept greedily because the ones kept before them do not reach
    # them (300 here, not 1,280), and the table is associative, so the
    # scan over those columns runs to the end.
    s = semigroup_direct_product(rectangular_band(8, 8), min_chain(20))
    assert s.element_count == s.generator_count == 1280
    t0 = time.perf_counter()
    v = check_associativity(s)
    elapsed = time.perf_counter() - t0
    assert v.holds == YES
    assert elapsed < 30.0
    print(f"PASS criterion 13: Light's test on n = g = 1,280 answers yes in "
          f"{elapsed:.1f}s < 30s")


def test_criterion_14_threshold_maximal_pairs(monkeypatch):
    # The free semilattice on 8 letters: 255 subsets under union, each
    # one idempotent and alone in its R- and L-class.  A subset e lies
    # below d exactly when it contains d, so the maximal classes are the
    # 8 singletons, and a "yes" scans 8 x 8 pairs, not 255 x 255.
    s = free_semilattice(8)
    assert s.element_count == 255
    scanned = []
    scan = semigroups._sandwich_identity_holds
    monkeypatch.setattr(semigroups, "_sandwich_identity_holds",
                        lambda s, e, f: scanned.append((e, f)) or scan(s, e, f))
    t0 = time.perf_counter()
    v = is_threshold_locally_testable(s)
    elapsed = time.perf_counter() - t0
    assert v.holds == YES
    assert len(scanned) == 8 * 8
    assert elapsed < 3.0
    print(f"PASS criterion 14: LTT on the 255-element free semilattice answers "
          f"yes over {len(scanned)} class pairs in {elapsed:.2f}s < 3s")


def test_criterion_15_closure_of_13517_elements():
    # 200 nodes, three letters into a seeded 8-node core: 166 distinct
    # rows and 13,517 elements.  Each element is keyed on one node per
    # distinct row, coded as a byte string of indices into the letters'
    # 8-node image, so the keys the closure holds stay small.
    rng = random.Random("testability:capacity-graph-8-3")
    core = rng.sample(range(200), 8)
    gr = TransitionGraph(3, 200, tuple(tuple(rng.choice(core) for _ in range(3))
                                       for _ in range(200)))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        ts = transition_semigroup(gr)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(gr.delta)) == 166
    assert ts.semigroup.element_count == 13_517
    assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"
    assert elapsed < 5.0
    print(f"PASS criterion 15: 13,517 elements of a 200-node graph closed at "
          f"{peak / 1e6:.1f} MB traced peak < 12 MB in {elapsed:.2f}s < 5s")


def test_criterion_16_dense_profile_bags():
    # A constant fold over two letters at k = 5: no two words differ, so
    # the search runs to its budget.  Its 2**5 factor counts fit one
    # integer of one bit per factor, so the bags are never interned.
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        res = profile_determines(0, lambda value, letter: value, 2, 5, budget=200_000)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.witness, res.states) == ("unknown", None, 200_000)
    assert peak < 60e6, f"peak {peak / 1e6:.1f} MB"
    assert elapsed < 60.0
    print(f"PASS criterion 16: two-letter k=5 search to 200,000 states at "
          f"{peak / 1e6:.1f} MB traced peak < 60 MB in {elapsed:.2f}s < 60s")
