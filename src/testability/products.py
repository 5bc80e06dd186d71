"""Direct products of semigroups and of graphs."""

from __future__ import annotations

from .model import YES, FiniteSemigroup, IncompleteInput, TransitionGraph, Verdict
from .semigroups import ASSOCIATIVITY


def semigroup_direct_product(s1: FiniteSemigroup, s2: FiniteSemigroup) -> FiniteSemigroup:
    """Componentwise product on all element pairs.

    The designated generating set is every pair with a generator on at
    least one side: first (x, h) for all x and generators h of s2, in
    row-major order, then (g, y) for generators g of s1 and the
    remaining y; that is n1*g2 + n2*g1 - g1*g2 generators, placed in
    front of the element list.  Remaining pairs follow row-major.

    When both factors carry a stored "yes" from Light's test, so does
    the product: a componentwise product of associative operations is
    associative.
    """
    n1, g1 = s1.element_count, s1.generator_count
    n2, g2 = s2.element_count, s2.generator_count
    pairs: list[tuple[int, int]] = []
    for x in range(n1):
        for h in range(g2):
            pairs.append((x, h))
    for g in range(g1):
        for y in range(g2, n2):
            pairs.append((g, y))
    gens = tuple(pairs)
    for x in range(g1, n1):
        for y in range(g2, n2):
            pairs.append((x, y))
    index = {p: i for i, p in enumerate(pairs)}
    rows = []
    for x, y in pairs:
        r1, r2 = s1.row(x), s2.row(y)
        rows.append([index[r1[u], r2[v]] for u, v in gens])
    out = FiniteSemigroup(rows)
    yes = Verdict(ASSOCIATIVITY, YES)
    if s1._verdicts.get(ASSOCIATIVITY) == yes == s2._verdicts.get(ASSOCIATIVITY):
        out._verdicts[ASSOCIATIVITY] = yes
    return out


def graph_direct_product(gr1: TransitionGraph, gr2: TransitionGraph) -> TransitionGraph:
    """Synchronous product: node pairs stepping together letter by letter.

    The alphabet is the shorter of the two, labels identified by
    position; node pair (p, q) gets index p*g2 + q, built a letter
    column at a time.
    """
    if not gr1.complete or not gr2.complete:
        raise IncompleteInput("direct product needs complete graphs")
    g2 = gr2.node_count
    return TransitionGraph._of_columns(
        [s + y for s in [c * g2 for c in col1] for y in col2]
        for col1, col2 in zip(gr1.columns, gr2.columns))
