"""Window-profile oracle.

A word's k-profile is what a scanner with a sliding window of length k
can remember: the prefix and suffix of length k-1 and the number of
occurrences of every length-k factor, counted up to a threshold t.
Words shorter than k are kept whole.  A language property holds "with
window k" exactly when the profile of a word determines the value that
some deterministic letter-fold assigns to it; ``profile_determines``
decides that by a breadth-first search over the profiles reachable
letter by letter, each paired with the value its first word folds to.

The search keys a profile by one integer.  Over A letters a word is
read as a base-A number, ``span`` = A**(k-1) is the number of codes of
k - 1 letters, and ``sbits`` = (span - 1).bit_length() bits hold one
such code.  A word of k - 1 letters or more has the key
``bag << 2 * sbits | prefix << sbits | suffix``: the codes of its first
and last k - 1 letters as prefix and suffix, and its saturated factor
counts (counts capped at t) as bag, in one of the two encodings below.
In both, bag 0 is the empty bag, which only the (k - 1)-letter words
hold, so such a word's key is ``code << sbits | code``.  No word
shorter than k shares its profile with another word, so the search
builds those words a whole level at a time, in code order, and never
looks them up; the ones shorter than k - 1 letters get no key at all.
Nor do two k-letter words share a profile, since each bag holds only
its word.  A longer word w shares the profile of a k-letter word u only
at t = 1 (past it, u counts twice in w) and only as a**(k+j) against
a**k: every k-factor of w is u, and two overlapping equal factors make
u[1:] == u[:-1].  The search reaches such a w by a step from a**k
itself, whose profile its first k + j - 1 letters share.  So the
k-letter words head the queue, in code order, and each is keyed, and
entered among the seen states, only when the queue reaches it: a "no"
at the first step costs one key, not A**k.  Only longer words are
looked up.

Appending a letter adds the factor ``suffix * A + letter``: the prefix
stays, the suffix becomes the factor's last k - 1 letters, and the bag
counts the factor.  So the move a key takes by a letter depends on its
suffix field (and, for an interned bag, its bag field) alone.  A move
is (slot, full, unit, shift, letter), and the key goes to
``(key if key & slot == full else key + unit) + shift``.  The bag
encoding depends on A, k and t alone:

- dense, when A**k slots of ``width`` = t.bit_length() bits fit in
  ``DENSE_BAG_BITS``: the bag is one integer whose slot at bit
  ``code * width`` holds the count of that factor code, so in the key
  the slots start at bit 2 * sbits, right above the prefix field, with
  no marker bits under them.  A move's slot is the factor's slot, full
  is t in it, unit is a one in it and shift the change of suffix.  The
  A**k moves, at most ``DENSE_BAG_BITS`` of them, form a table indexed
  by suffix; nothing is interned.
- interned, past the bound: the bag is the id of a sorted tuple of
  (factor code, count) pairs, the other bags' ids from 1 on, in the
  order the search meets them.  A state's moves are built from its bag
  and suffix fields when it is expanded (a memo of them was hit by under
  2% of the states it was tried on): slot and full are 0, and shift
  carries the change of bag id as well as of suffix.  A grown bag is a
  copy of the tuple with one pair inserted or counted up, found by
  bisection, and shares its other pairs.  Such a bag holds one pair per
  distinct factor of its word, so memory per state is bounded by the
  word, not by A**k.

A dense key spends A**k * width bits however short its word is.  For a
constant fold, t = 1 and a budget of 100,000 states (2-core host,
Python 3.11, best of two runs of three), dense bags took 0.06-0.09 s
against 0.21-0.25 s interned from 256 to 2,187 bits, 0.16 against
0.27 s at 4,096 bits and 0.22 against 0.21 s at 6,561; their traced
peaks were 18-25 MB against 36-39 MB up to 1,024 bits, 36 against
38 MB at 2,187, 56 against 38 MB at 4,096 and 80 against 38 MB at
6,561.  The bound, 1,024 bits, stays below both crossovers, and keeps
the 26-letter k = 3 search (17,576 factor codes) interned.  Two keys
are equal exactly when the two words have equal k-profiles.

A fold here is an initial value and a table of rows over hashable
values: from value v, letter a leads to ``rows[v][a]``.  The package
folds both graph words and generator words over a letter table cut
from a semigroup's Cayley rows, whose last row is an identity adjoined
for the empty word (``semigroups._cayley_fold``).  A step function
(v, a) -> value may stand in for the rows; the search then calls it
for every letter at every state.

At t = 1, a "yes" can be settled without the search, given the fold's
product on its values; ``semigroups._cayley_fold`` builds it, and
leaves it out only when the semigroup already holds a local-testability
"no".  ``_loops_commute`` tests the de Bruijn loop condition, which
holds exactly when every k-profile determines the value (proof sketch
in its docstring).  Every k-testable fold factors through A+ modulo
equal k-profiles, which is locally testable (Brzozowski and Simon,
Characterizations of locally testable events, 1973), and so is each
quotient of it, so on any other semigroup the condition fails, at its
first failing set or once its work passes the budget, and the search
answers.  Three facts keep the answer, state count included, equal to
the search's:

- A search that answers "yes" visits every k-profile once: every
  profile is some word's, and the word's letters reach it.  So its
  count is N(A, k), the number of k-profiles of the words over A
  letters, whatever the fold; ``_profile_count`` counts them.
- A search that meets no conflict answers "unknown" exactly when
  N(A, k) > budget, with ``states`` = budget: it stops at the first
  new state found with ``budget`` states already found.
- A "no" keeps the search, so its witness and count do not change: it
  runs whenever the condition fails, and also when weighing the
  condition would take more products than the budget allows.

The count keeps each bag as a bitmask of A**k bits, so the test is made
only while bags are dense; past that bound, N(A, k) is far beyond any
budget (above 2**33 over 33 letters at k = 2, the first past it), and
the search, whose interned bags cost what their words hold, runs to
its budget as before.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from math import perm

from .model import BadK

DEFAULT_K_MAX = 8
DEFAULT_BUDGET = 10**6
DENSE_BAG_BITS = 1024


def _slot_width(alphabet_size: int, k: int, t: int) -> int:
    """Bits per factor slot of a dense bag, or 0 when bags are interned."""
    width = t.bit_length()
    return width if alphabet_size ** k * width <= DENSE_BAG_BITS else 0


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a profile search.

    status "yes": every reachable profile forces a single action value.
    status "no": ``witness`` holds two words with equal profiles and
    different values.  status "unknown": the state budget ran out.
    ``states`` counts profile states.
    """

    status: str
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    states: int


class _Lookup:
    """``lookup[key]`` is ``build(key)``, computed afresh on every read.

    It stands in for a table where the search reads one by subscript,
    which on a list is faster than any call."""

    def __init__(self, build):
        self.build = build

    def __getitem__(self, key):
        return self.build(key)


def _loops_commute(levels, product, size: int, alphabet_size: int, budget: int) -> bool:
    """Does the loop condition below hold, at work within ``budget``?

    ``levels[L]`` lists the values of the L-letter words by code, up to
    L = k - 1, and ``product`` multiplies the values 0..size-1, each the
    value of some word, a monoid whose identity is the empty word's
    value.  For each (k - 1)-letter word u, of value c, let T_u be
    S¹·c = {v·c for every value v} together with, for each period
    p < k - 1 of u, the value of u's last p letters.  The condition:
    c·X·X = c·X and c·X·Y = c·Y·X for all X and Y in T_u.  At k = 1,
    u is the empty word and the condition says S is a commutative band.

    It holds exactly when every k-profile (t = 1) determines the value.
    A word of k - 1 letters or more is a path in the de Bruijn graph on
    the (k - 1)-letter words, whose edges are the k-letter words; its
    k-profile is the path's start, end and edge set.  A loop at u is a
    word x with u·x ending in u: x = z·u for any word z (value in S¹·c),
    or, when x is shorter than u, x is the last p = |x| letters of u and
    p is a period of u.  So T_u is the set of values of loops at u.
    Only if: u·x·x and u·x, and u·x·y and u·y·x, are paths from u to u
    with one edge set, so they share their k-profile.  If: by Thérien
    and Weiss (Graph congruences and wreath products, 1985), two
    coterminal paths with one edge set are joined by steps x·x ↔ x and
    x·y ↔ y·x on loops x and y at one vertex v.  A word that reaches v
    is z·v, of value s·c_v with s the value of z, so the condition at v,
    multiplied by s on the left and by the rest of the word on the
    right, carries the value through every step.

    The walk takes the (k - 1)-letter words in code order, builds S¹·c
    for each value c it reaches, once, and scans each distinct (c,
    period values) pair once.  Periods are read from the word's code:
    p is a period of u exactly when u's last and first k - 1 - p
    letters agree, that is, when ``code % A**(k - 1 - p)`` equals
    ``code // A**p``.  One running total weighs the work: size
    products for each new c before its set is built, and |T_u|**2
    before a set is scanned.  The answer is False at the first set that
    fails, or once the total passes ``budget``; the caller then searches
    as before.
    """
    first = len(levels) - 1
    lefts: dict = {}    # c -> S¹·c
    scanned = set()
    work = 0
    for code, c in enumerate(levels[first]):
        if c not in lefts:
            work += size
            if work > budget:
                return False
            lefts[c] = {product(v, c) for v in range(size)}
        tails = frozenset(levels[p][code % alphabet_size ** p] for p in range(1, first)
                          if code % alphabet_size ** (first - p) == code // alphabet_size ** p)
        if (c, tails) in scanned:
            continue
        scanned.add((c, tails))
        values = lefts[c] | tails
        work += len(values) ** 2
        if work > budget:
            return False
        times = {x: product(c, x) for x in values}
        for x, cx in times.items():
            if product(cx, x) != cx:
                return False
            for y, cy in times.items():
                if y < x and product(cx, y) != product(cy, x):
                    return False
    return True


def _profile_count(alphabet_size: int, k: int, short: int, budget: int) -> int | None:
    """N(A, k), the number of k-profiles (t = 1) of the words over A
    letters, or None once it passes ``budget``.

    A search that answers "yes" visits each of them once, whatever the
    fold, so this is its state count.  The ``short`` words shorter than
    k are their own profiles, and the count starts from them.  Longer
    words are counted per (k - 1)-letter prefix, by a breadth-first walk
    over (bag, suffix) pairs, level by level, with the bag a bitmask of
    the factor codes seen, and no values.  A permutation of the letters
    maps profiles to profiles, so the walk starts only from prefixes
    whose letters first appear in the order 0, 1, 2, ..., and counts
    each one times the size of its orbit, A!/(A - m)! for m distinct
    letters.
    """
    span = alphabet_size ** (k - 1)
    total = short
    moves = [[(1 << factor, factor % span)
              for factor in range(suffix * alphabet_size, (suffix + 1) * alphabet_size)]
             for suffix in range(span)]
    for prefix, weight in _orbit_representatives(alphabet_size, k - 1):
        seen: dict[int, set[int]] = {}    # suffix -> the bags reached with it
        level = {prefix: {0}}
        while level:
            reached: dict[int, set[int]] = {}
            for suffix, bags in level.items():
                for bit, after in moves[suffix]:
                    reached.setdefault(after, set()).update(map(bit.__or__, bags))
            level = {}
            for after, bags in reached.items():
                old = seen.setdefault(after, set())
                new = bags - old    # walks bags, however large old has grown
                if new:
                    old |= new
                    level[after] = new
                    total += weight * len(new)
                    if total > budget:
                        return None
    return total


def _orbit_representatives(alphabet_size: int, length: int) -> list[tuple[int, int]]:
    """(code, orbit size) of each word of ``length`` letters whose
    letters first appear in the order 0, 1, 2, ...; the orbit sizes sum
    to A**length."""
    words = [(0, 0)]    # (code, distinct letters)
    for _ in range(length):
        words = [(code * alphabet_size + letter, max(used, letter + 1))
                 for code, used in words for letter in range(min(used + 1, alphabet_size))]
    return [(code, perm(alphabet_size, used)) for code, used in words]


def profile_determines(initial, rows, alphabet_size: int, k: int, t: int = 1,
                       budget: int = DEFAULT_BUDGET, product=None) -> OracleResult:
    """Does the k-profile of a word determine its folded value?

    The fold starts at ``initial``, and letter a leads from value v to
    ``rows[v][a]``; ``rows`` may also be a step function (v, a) -> value.
    ``product``, when given with a table at t = 1, multiplies the values
    0..len(rows)-1, which the caller promises form a monoid with
    ``initial`` as identity; while bags are dense, a "yes" is then
    settled by ``_loops_commute`` and ``_profile_count`` without a
    search.  On a monoid that is not locally testable the condition
    fails, and the search answers as it would without ``product``.

    Runs a breadth-first closure of (profile, value) pairs.  Profiles
    are numbered in discovery order, so the queue is a walk over those
    ids; state 0 is the empty word.  Until a conflict is seen each
    profile carries exactly one value, kept with its key; the first
    conflicting step, in BFS order with letters ascending, yields a
    deterministic shortest-first witness pair reconstructed through
    parent links.  Reaching ``budget`` states before the search settles
    gives "unknown".  The words of at most k letters are each a profile
    of its own, so a walk over their level sizes answers "unknown"
    before any row is read once they are more than ``budget``: it stops
    at the first j with more than ``budget`` words of at most j letters,
    a count that only grows with j, so it runs at most k steps and at
    most ``budget`` of them.

    The words shorter than k fill whole levels and are never looked up.
    The k-letter words are keyed as the queue reaches them, so their
    parent links, like those of the shorter words, are implicit; from
    them on, a state is its key, and a step takes one of the moves
    ``moves[key & field]`` (layout in the module docstring).
    """
    if alphabet_size < 1:
        raise ValueError(f"alphabet size {alphabet_size} must be positive")
    if k < 1:
        raise BadK(f"window length {k} must be at least 1")
    if t < 1:
        raise BadK(f"threshold {t} must be at least 1")
    if budget < 1:
        raise ValueError(f"budget {budget} must be at least 1")
    short, size = 0, 1    # the words of fewer than j letters, and of j
    for _ in range(k):
        short, size = short + size, size * alphabet_size
        if short + size > budget:
            return OracleResult("unknown", None, budget)
    span = size // alphabet_size
    letters = range(alphabet_size)
    width = _slot_width(alphabet_size, k, t)
    direct = product is not None and width == 1 and not callable(rows)    # dense, t = 1
    if callable(rows):
        step = rows
        rows = _Lookup(lambda value: [step(value, letter) for letter in letters])
    sbits = (span - 1).bit_length()
    suffix_mask = (1 << sbits) - 1

    levels = [[initial]]
    for _ in range(k - 1):
        levels.append(list(chain.from_iterable(map(rows.__getitem__, levels[-1]))))
    if direct and _loops_commute(levels, product, len(rows), alphabet_size, budget):
        count = _profile_count(alphabet_size, k, short, budget)
        return OracleResult("unknown", None, budget) if count is None else \
            OracleResult("yes", None, count)

    if width:
        # dense bags: the capped counts, one slot per factor code above
        # the prefix and suffix fields; moves by the suffix field
        field = suffix_mask
        slot_mask = (1 << width) - 1

        def dense_moves(suffix: int) -> list[tuple[int, int, int, int, int]]:
            out = []
            for letter in letters:
                factor = suffix * alphabet_size + letter
                unit = 1 << 2 * sbits + factor * width
                out.append((unit * slot_mask, unit * t, unit, factor % span - suffix, letter))
            return out

        moves = list(map(dense_moves, range(span)))
    else:
        # interned bags: bag id i names bags[i], a sorted tuple of
        # (factor code, count) pairs; moves by the bag and suffix fields,
        # built per state, each shift carrying the change of bag id too
        field = -1
        bags: list[tuple[tuple[int, int], ...]] = [()]
        bag_ids = {(): 0}

        def interned_moves(key: int) -> list[tuple[int, int, int, int, int]]:
            bag, suffix = key >> 2 * sbits, key & suffix_mask
            pairs = bags[bag]
            out = []
            for letter in letters:
                factor = suffix * alphabet_size + letter
                at = bisect_left(pairs, (factor,))
                count = pairs[at][1] if at < len(pairs) and pairs[at][0] == factor else 0
                grown = bag
                if count < t:
                    frozen = pairs[:at] + ((factor, count + 1),) + pairs[at + (count > 0):]
                    fresh = len(bags)
                    grown = bag_ids.setdefault(frozen, fresh)
                    if grown == fresh:
                        bags.append(frozen)
                out.append((0, 0, 0, (grown - bag << 2 * sbits) + factor % span - suffix,
                            letter))
            return out

        moves = _Lookup(interned_moves)

    # Words of at most k letters are numbered by length, then code, so
    # the parent link pid * alphabet_size + letter of each is its id less
    # one; ``parent`` holds the links of the longer words, numbered from
    # ``numbered`` on in discovery order.
    numbered = short + size

    def word_of(pid: int) -> tuple[int, ...]:
        out = []
        while pid:
            pid, letter = divmod(pid - 1 if pid < numbered else parent[pid - numbered],
                                 alphabet_size)
            out.append(letter)
        return tuple(reversed(out))

    def k_letter_words():
        """The k-letter words in code order, each entered into ``seen``
        when the queue reaches it.  A (k - 1)-letter word's prefix and
        suffix fields both hold its code."""
        for code, value in enumerate(levels[-1]):
            key = code << sbits | code
            for (slot, full, unit, shift, _), reached in zip(moves[key & field], rows[value]):
                head = (key if key & slot == full else key + unit) + shift
                seen[head] = reached
                yield head, reached

    seen = {}    # key -> value, for the words of k letters or more
    keys, values, parent = [], [], []    # the longer words, in discovery order
    found = numbered
    missing = object()
    link = (short - 1) * alphabet_size
    for states in (k_letter_words(), zip(keys, values)):
        for key, value in states:
            link += alphabet_size
            for (slot, full, unit, shift, letter), reached in zip(moves[key & field], rows[value]):
                target = (key if key & slot == full else key + unit) + shift
                old = seen.get(target, missing)
                if old is missing:
                    if found >= budget:
                        return OracleResult("unknown", None, found)
                    seen[target] = reached
                    found += 1
                    keys.append(target)
                    values.append(reached)
                    parent.append(link + letter)
                elif old != reached:
                    pid = link // alphabet_size
                    # a k-letter word is met only from itself (module docstring)
                    earlier = pid if target == key else numbered + keys.index(target)
                    return OracleResult("no", (word_of(earlier), word_of(pid) + (letter,)), found)
    return OracleResult("yes", None, found)
