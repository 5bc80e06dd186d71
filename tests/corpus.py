"""Deterministic generators for test inputs: random graphs and a zoo of
small semigroups with known structure."""

from __future__ import annotations

import random

from testability import FiniteSemigroup, TransitionGraph, transition_semigroup


def seeded(name: str) -> random.Random:
    return random.Random(f"testability:{name}")


def random_graph(rng: random.Random, g: int, a: int = 2) -> TransitionGraph:
    return TransitionGraph(a, g, tuple(tuple(rng.randrange(g) for _ in range(a))
                                       for _ in range(g)))


def random_partial_graph(rng: random.Random, g: int, a: int = 2,
                         hole: float = 0.3) -> TransitionGraph:
    return TransitionGraph(a, g, tuple(
        tuple(-1 if rng.random() < hole else rng.randrange(g) for _ in range(a))
        for _ in range(g)))


def cyclic_group(m: int) -> FiniteSemigroup:
    """Powers of one generator: element i is the (i+1)-th power."""
    return FiniteSemigroup(tuple(((i + 1) % m,) for i in range(m)))


def rectangular_band(p: int, q: int) -> FiniteSemigroup:
    """(i, j) * (k, l) = (i, l) on p*q pairs; every element a generator."""
    n = p * q
    return FiniteSemigroup(tuple(tuple((x // q) * q + (y % q) for y in range(n))
                                 for x in range(n)))


def left_zero(p: int) -> FiniteSemigroup:
    return rectangular_band(p, 1)


def right_zero(q: int) -> FiniteSemigroup:
    return rectangular_band(1, q)


def min_chain(m: int) -> FiniteSemigroup:
    """The semilattice min on 0..m-1, full table."""
    return FiniteSemigroup(tuple(tuple(min(x, y) for y in range(m))
                                 for x in range(m)))


def semigroup_zoo() -> list[FiniteSemigroup]:
    """Small semigroups of assorted shapes, all with n <= 6."""
    return [
        cyclic_group(2), cyclic_group(3), cyclic_group(4), cyclic_group(6),
        rectangular_band(2, 2), rectangular_band(2, 3),
        left_zero(3), right_zero(3),
        min_chain(2), min_chain(4),
    ]


def random_dfas(count: int, name: str = "dfas") -> list[TransitionGraph]:
    """Seeded complete DFAs over two letters, node counts cycling 1..5."""
    rng = seeded(name)
    return [random_graph(rng, 1 + i % 5) for i in range(count)]


def small_transformation_semigroups(limit: int = 30) -> list[FiniteSemigroup]:
    """Transition semigroups of seeded graphs, capped at ``limit`` elements."""
    rng = seeded("transformation-semigroups")
    out = []
    while len(out) < 8:
        g = rng.randrange(2, 5)
        s = transition_semigroup(random_graph(rng, g)).semigroup
        if s.element_count <= limit:
            out.append(s)
    return out


# Two-letter DFAs on 3-5 nodes whose transition semigroups (at most 14
# elements) are aperiodic but break e x f u e y f = e y f u e x f, so the
# threshold check fails on the identity, not on aperiodicity.  Picked
# from a scan of 1,500 graphs drawn with seeded("ltt-identity"), one per
# distinct semigroup.
LTT_IDENTITY_FAILURE_GRAPHS = (
    ((0, 3), (1, 1), (2, 2), (1, 2)),
    ((0, 2), (2, 1), (0, 1), (3, 1)),
    ((1, 0), (2, 0), (2, 1)),
    ((1, 3), (2, 1), (2, 2), (0, 3)),
    ((0, 2), (0, 3), (0, 1), (2, 3)),
    ((1, 1), (2, 3), (2, 0), (1, 3)),
)

# An aperiodic two-letter DFA on 5 nodes (26-element semigroup, from
# seeded("ltt-pairs")) with idempotent pairs (e, f), such as (3, 19),
# where e x f u e y f = e y f u e x f holds for all u in eSf but fails
# for some u in fSe.
SANDWICH_PAIR_GRAPH = ((0, 4), (2, 4), (2, 2), (4, 2), (1, 3))


def ltt_identity_failures() -> list[FiniteSemigroup]:
    """Transition semigroups of LTT_IDENTITY_FAILURE_GRAPHS."""
    return [transition_semigroup(TransitionGraph(2, len(delta), delta)).semigroup
            for delta in LTT_IDENTITY_FAILURE_GRAPHS]
