"""Decision procedures on transition graphs.

Every check but 1-testability goes through the graph's transition
semigroup (the closure of the letter transformations under
composition), built at most once per analysis by one breadth-first
loop over node maps, coded as byte strings when the letters reach at
most 256 nodes.  Algebraic properties are checked on it directly;
window-size questions (a fixed k, or the least k) run the profile
oracle on words folded over its Cayley rows, one fold for both, which
gives the verdicts node maps would give, because distinct elements are
distinct node maps.  1-testability is read off the letter maps alone.
Partial graphs are completed with a sink first; every analysis here
assumes and enforces completeness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import (NO, UNKNOWN, YES, FiniteSemigroup, IncompleteInput,
                    PropertyReport, TransitionGraph, UNDEFINED, Verdict, compose,
                    format_word, letter_name)
from .oracle import DEFAULT_BUDGET, DEFAULT_K_MAX, profile_determines
from .semigroups import (ASSOCIATIVITY, ONE_TESTABILITY, _cayley_fold, _check,
                         _order_search, _resolve_properties)

K_TESTABILITY = "k_testability"


def complete_with_sink(gr: TransitionGraph) -> TransitionGraph:
    """Route every missing transition to one new self-looping node,
    numbered last.

    Complete graphs come back unchanged (same object), so completion is
    idempotent.
    """
    if gr.complete:
        return gr
    sink = gr.node_count
    return TransitionGraph._of_columns(
        [sink if c == UNDEFINED else c for c in column] + [sink] for column in gr.columns)


@dataclass(frozen=True)
class TransitionSemigroup:
    """A graph's transformation semigroup plus the letter bookkeeping.

    Letters with identical node maps share one generator, and
    ``label_to_generator`` maps each letter to its generator.
    Generators are numbered in the order their first letters appear, so
    element indices translate back into readable words.
    """

    semigroup: FiniteSemigroup
    label_to_generator: tuple[int, ...]

    def element_word(self, x: int) -> tuple[int, ...]:
        """One letter word whose action is element x: each generator is
        written as the first letter that stands for it."""
        return tuple(map(self.label_to_generator.index, self.semigroup.factorization[x]))


def transition_semigroup(gr: TransitionGraph) -> TransitionSemigroup:
    """Close the letter transformations of a complete graph under
    composition (IncompleteInput on a partial one).

    Elements are numbered in shortlex order of their least generator
    words.  The node maps live only while ``_closure`` runs: the result
    keeps only the Cayley table, its steps and words, and the
    letter-to-generator map.
    """
    if not gr.complete:
        raise IncompleteInput("graph has undefined transitions; complete it first")
    rows, steps, label_to_gen = _closure(gr)
    sg = FiniteSemigroup(rows, _steps=steps)
    # Composition of maps is associative, so Light's test is skipped.
    sg._verdicts[ASSOCIATIVITY] = Verdict(ASSOCIATIVITY, YES)
    return TransitionSemigroup(sg, tuple(label_to_gen))


def _closure(gr: TransitionGraph):
    """Cayley rows, breadth-first steps and letter-to-generator map of
    the closure of the letter maps.

    One breadth-first loop composes every element, in discovery order,
    with every generator, ascending, so elements are numbered in
    shortlex order of their least generator words, and a new element
    z = x*j gets the step (z, x, j) that ``FiniteSemigroup`` keeps.

    Elements are keyed by their maps on one node per distinct row of
    targets: nodes p and q with equal rows are sent to the same node
    by every letter, hence by every element (a letter followed by
    something), so two elements are equal exactly when these restricted
    maps are.  Every value of an element lies in the letters' image, so
    values are stored as indices into it.  An image of at most 256
    nodes makes each map a ``bytes`` object and each product one
    ``bytes.translate`` with the generator's map on the image, padded
    to 256 bytes, as table; a larger image keeps tuples and ``compose``.
    """
    letters = gr.columns
    image = sorted(set().union(*letters))
    code = {p: i for i, p in enumerate(image)}
    if len(image) <= 256:
        encode, step, pad = bytes, bytes.translate, bytes(256 - len(image))
    else:
        encode, step, pad = tuple, compose, ()
    ids: dict = {}
    tables = []    # each generator's map on the image, from its first letter
    label_to_gen: list[int] = []
    for a, tr in enumerate(zip(*dict.fromkeys(zip(*letters)))):
        j = ids.setdefault(encode(code[p] for p in tr), len(ids))
        if j == len(tables):
            tables.append(encode(code[letters[a][p]] for p in image) + pad)
        label_to_gen.append(j)
    elements = list(ids)
    steps: list[tuple[int, int, int]] = []
    rows: list[tuple[int, ...]] = []
    for m in elements:  # grows as products find new elements
        x = ids[m]  # m's number, as the int object the rows already hold
        row: list[int] = []
        for j, table in enumerate(tables):
            nxt = step(m, table)
            z = ids.setdefault(nxt, len(elements))
            if z == len(elements):
                elements.append(nxt)
                steps.append((z, x, j))
            row.append(z)
        rows.append(tuple(row))
    return rows, steps, label_to_gen


def _one_testability(gr: TransitionGraph) -> Verdict:
    """Letters must be idempotent and pairwise commuting node maps, so a
    word's action depends only on its letter set.  Witnesses are
    (letter, node) and (letter, letter, node), least first."""
    letters = gr.columns
    for u, tu in enumerate(letters):
        for p in range(gr.node_count):
            if tu[tu[p]] != tu[p]:
                return Verdict(ONE_TESTABILITY, NO, (u, p),
                               f"letter {letter_name(u)} is not idempotent "
                               f"at node {p}")
        for v in range(u + 1, gr.alphabet_size):
            tv = letters[v]
            for p in range(gr.node_count):
                if tv[tu[p]] != tu[tv[p]]:
                    return Verdict(ONE_TESTABILITY, NO, (u, v, p),
                                   f"letters {letter_name(u)} and {letter_name(v)} "
                                   f"do not commute at node {p}")
    return Verdict(ONE_TESTABILITY, YES)


def _k_testability(fold, alphabet_size: int, k: int, t: int, budget: int) -> Verdict:
    initial, table, product = fold
    res = profile_determines(initial, table, alphabet_size, k, t, budget, product)
    if res.status == "yes":
        return Verdict(K_TESTABILITY, YES, None, f"k={k}, t={t}: {res.states} profile states")
    if res.status == "no":
        u, v = res.witness
        return Verdict(K_TESTABILITY, NO, res.witness,
                       f"k={k}, t={t}: words {format_word(u)} and {format_word(v)} "
                       f"share a profile but act differently")
    return Verdict(K_TESTABILITY, UNKNOWN, None,
                   f"budget exceeded: {res.states} profile states at k={k}, t={t}")


def _with_witness_words(v: Verdict, ts: TransitionSemigroup) -> Verdict:
    if v.witness is None:
        return v
    words = ", ".join(format_word(ts.element_word(x)) for x in v.witness)
    note = f"witness words: {words}"
    return replace(v, detail=f"{v.detail}; {note}" if v.detail else note)


def analyze_graph(gr: TransitionGraph, properties=None, *, order: bool = False,
                  k: int | None = None, t: int = 1, k_max: int = DEFAULT_K_MAX,
                  budget: int = DEFAULT_BUDGET, source: str = "") -> PropertyReport:
    """Run the requested checks (all of them by default) on one graph.

    The graph is completed first and the report says when a sink was
    added.  ``k`` adds a single fixed-window check; ``order`` adds the
    window length search.
    """
    completed = complete_with_sink(gr)
    sink_added = completed is not gr
    props = _resolve_properties(properties)
    algebraic = any(p != ONE_TESTABILITY for p in props)
    ts = None
    if algebraic or order or k is not None:
        ts = transition_semigroup(completed)
    verdicts = []
    for p in props:
        if p == ONE_TESTABILITY:
            verdicts.append(_one_testability(completed))
        else:
            verdicts.append(_with_witness_words(_check(ts.semigroup, p), ts))
    order_result = None
    if order or k is not None:
        fold = _cayley_fold(ts.semigroup, ts.label_to_generator)
        if k is not None:
            verdicts.append(_k_testability(fold, completed.alphabet_size, k, t, budget))
        if order:
            order_result = _order_search(fold, completed.alphabet_size, k_max, t, budget)
    descriptor: dict = {"kind": "graph"}
    if source:
        descriptor["source"] = source
    descriptor["alphabet"] = completed.alphabet_size
    descriptor["nodes"] = completed.node_count
    descriptor["sink_added"] = sink_added
    stats: dict = {"alphabet": completed.alphabet_size, "nodes": completed.node_count}
    if algebraic:
        stats["semigroup_elements"] = ts.semigroup.element_count
        stats["semigroup_generators"] = ts.semigroup.generator_count
    if order_result is not None:
        stats["oracle_states"] = order_result.states
    return PropertyReport(descriptor, tuple(verdicts), order_result, stats)
