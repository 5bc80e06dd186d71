"""Direct products: generator layout, componentwise law, graph products."""

import pytest

from testability import (
    ASSOCIATIVITY,
    FiniteSemigroup,
    IncompleteInput,
    TransitionGraph,
    analyze_semigroup,
    check_associativity,
    graph_direct_product,
    parse_graph,
    parse_semigroup,
    semigroup_direct_product,
    transition_semigroup,
    write_graph,
    write_semigroup,
)
from testability import semigroups
from tests import naive
from tests.corpus import (
    cyclic_group,
    fixtures,
    min_chain,
    random_graph,
    rectangular_band,
    seeded,
    semigroup_zoo,
)

FIX = fixtures()


def pair_layout(s1, s2):
    """The documented element order of a product: mixed-generator pairs
    first (s2-generator column-block, then s1-generator rows), the rest
    row-major."""
    n1, g1 = s1.element_count, s1.generator_count
    n2, g2 = s2.element_count, s2.generator_count
    pairs = [(x, h) for x in range(n1) for h in range(g2)]
    pairs += [(g, y) for g in range(g1) for y in range(g2, n2)]
    pairs += [(x, y) for x in range(g1, n1) for y in range(g2, n2)]
    return pairs


def test_z2_squared_table_is_frozen():
    p = semigroup_direct_product(FIX.Z2, FIX.Z2)
    assert p.element_count == 4
    assert p.generator_count == 3
    assert write_semigroup(p) == "4 3\n3 2 1\n2 3 0\n1 0 3\n0 1 2\n"


def test_u1_squared_shape():
    # both factors use every element as a generator, so the product does too
    p = semigroup_direct_product(FIX.U1, FIX.U1)
    assert p.element_count == 4
    assert p.generator_count == 2 * 2 + 2 * 2 - 2 * 2


PAIRS = [
    (FIX.U1, FIX.LZ2), (FIX.LZ2, FIX.U1), (FIX.Z2, FIX.U1), (FIX.Z2, FIX.Z2),
    (cyclic_group(3), FIX.U1), (cyclic_group(2), cyclic_group(3)),
    (rectangular_band(2, 2), FIX.Z2), (min_chain(3), rectangular_band(1, 3)),
    (min_chain(2), min_chain(3)), (rectangular_band(2, 3), min_chain(2)),
    (FIX.U1, cyclic_group(4)),
]


@pytest.mark.parametrize("i", range(len(PAIRS)))
def test_generator_count_formula(i):
    s1, s2 = PAIRS[i]
    p = semigroup_direct_product(s1, s2)
    n1, g1 = s1.element_count, s1.generator_count
    n2, g2 = s2.element_count, s2.generator_count
    assert p.element_count == n1 * n2
    assert p.generator_count == n1 * g2 + n2 * g1 - g1 * g2


@pytest.mark.parametrize("i", range(len(PAIRS)))
def test_products_multiply_componentwise(i):
    s1, s2 = PAIRS[i]
    p = semigroup_direct_product(s1, s2)
    pairs = pair_layout(s1, s2)
    index = {pq: z for z, pq in enumerate(pairs)}
    t1 = naive.product_table(s1.cayley)
    t2 = naive.product_table(s2.cayley)
    for z, (x, y) in enumerate(pairs):
        for w, (u, v) in enumerate(pairs):
            assert p.prod(z, w) == index[t1[x][u], t2[y][v]]


def test_componentwise_spot_check():
    # (z, e) * (e, e) = (z, e) in the square of the two-element semilattice
    p = semigroup_direct_product(FIX.U1, FIX.U1)
    pairs = pair_layout(FIX.U1, FIX.U1)
    ze = pairs.index((0, 1))
    ee = pairs.index((1, 1))
    assert p.prod(ze, ee) == ze
    assert p.prod(ee, ee) == ee


def test_parity_square_graph():
    square = graph_direct_product(FIX.D_parity, FIX.D_parity)
    assert square.alphabet_size == 1
    assert square.node_count == 4
    assert naive.rows_of(square) == ((3,), (2,), (1,), (0,))


def test_product_with_one_node_graph():
    assert graph_direct_product(FIX.D_triv, FIX.D_ab) == FIX.D_ab


def test_product_alphabet_is_the_common_prefix():
    p = graph_direct_product(FIX.D_parity, FIX.D_ab)
    assert p.alphabet_size == 1
    assert p.node_count == 6
    # pair (p, q) steps to (delta1[p][c], delta2[q][c])
    for node in range(6):
        pq = (node // 3, node % 3)
        target = (FIX.D_parity.columns[0][pq[0]], FIX.D_ab.columns[0][pq[1]])
        assert p.columns[0][node] == target[0] * 3 + target[1]


def test_graph_product_matches_the_row_by_row_reference():
    """Each letter's column is built whole; the rows it gives are the
    pairs stepped cell by cell, alphabets of unequal size included."""
    rng = seeded("product-columns")
    for _ in range(100):
        gr1 = random_graph(rng, rng.randint(1, 6), rng.randint(1, 3))
        gr2 = random_graph(rng, rng.randint(1, 6), rng.randint(1, 3))
        product = graph_direct_product(gr1, gr2)
        assert naive.rows_of(product) == naive.product_rows(naive.rows_of(gr1), naive.rows_of(gr2))
        assert product.alphabet_size == min(gr1.alphabet_size, gr2.alphabet_size)
        assert product.node_count == gr1.node_count * gr2.node_count


def test_product_requires_complete_inputs():
    partial = TransitionGraph(1, 1, ((-1,),))
    with pytest.raises(IncompleteInput):
        graph_direct_product(partial, FIX.D_parity)
    with pytest.raises(IncompleteInput):
        graph_direct_product(FIX.D_parity, partial)


def test_product_semigroup_divides_the_factor_square():
    for gr in (FIX.D_parity, FIX.D_ab):
        single = transition_semigroup(gr).semigroup.element_count
        square = graph_direct_product(gr, gr)
        assert transition_semigroup(square).semigroup.element_count <= single * single


def test_product_outputs_round_trip():
    sq = semigroup_direct_product(FIX.Z2, FIX.Z2)
    assert parse_semigroup(write_semigroup(sq)) == sq
    gp = graph_direct_product(FIX.D_parity, FIX.D_ab)
    assert parse_graph(write_graph(gp)) == gp


def test_products_of_zoo_members_stay_semigroups():
    # parsing re-runs the associativity gate, so a round trip is a proof
    zoo = semigroup_zoo()
    for s1, s2 in zip(zoo[::2], zoo[1::2]):
        p = semigroup_direct_product(s1, s2)
        assert parse_semigroup(write_semigroup(p)) == p


@pytest.fixture
def lights_scans(monkeypatch):
    scanned = []
    scan = semigroups._lights_test
    monkeypatch.setattr(semigroups, "_lights_test",
                        lambda s: scanned.append(s) or scan(s))
    return scanned


def test_product_of_parsed_semigroups_inherits_associativity(lights_scans):
    s1 = parse_semigroup(write_semigroup(rectangular_band(2, 2)))
    s2 = parse_semigroup(write_semigroup(min_chain(3)))
    lights_scans.clear()
    report = analyze_semigroup(semigroup_direct_product(s1, s2))
    assert lights_scans == []
    assert report.verdict(ASSOCIATIVITY).holds == "yes"


def test_product_without_two_stored_yes_verdicts_is_scanned(lights_scans):
    checked = parse_semigroup(write_semigroup(rectangular_band(2, 2)))
    broken = FiniteSemigroup(((1, 0), (0, 0)))
    assert check_associativity(broken).holds == "no"
    for other in (min_chain(3), broken):
        p = semigroup_direct_product(checked, other)
        lights_scans.clear()
        analyze_semigroup(p, [ASSOCIATIVITY])
        assert lights_scans == [p]
