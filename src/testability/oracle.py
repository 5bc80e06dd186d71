"""Window-profile oracle.

A word's k-profile is what a scanner with a sliding window of length k
can remember: the prefix and suffix of length k-1 and the number of
occurrences of every length-k factor, counted up to a threshold t.
Words shorter than k are kept whole.  A language property holds "with
window k" exactly when the profile of a word determines the value that
some deterministic letter-fold assigns to it; ``profile_determines``
decides that by a breadth-first search over the profiles reachable
letter by letter, each paired with the value its first word folds to,
and ``brute_force_scan`` re-derives the same answer by sheer
enumeration so the two routes can be played against each other.

A fold here is any pair (initial value, step function) over hashable
values.  The package folds both graph words and generator words over a
semigroup's Cayley rows (``semigroups._cayley_fold``); the tests also
use node maps composed letter by letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .model import BadK

DEFAULT_K_MAX = 8
DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class KProfile:
    """k-profile of a word: (prefix, suffix, saturated factor counts).

    ``short`` holds the whole word when it is shorter than k; prefix,
    suffix and counts are then derived from it.  ``counts`` is a sorted
    tuple of (factor, count) pairs with counts capped at t, so equal
    profiles compare and hash structurally.
    """

    k: int
    t: int
    prefix: tuple[int, ...]
    suffix: tuple[int, ...]
    counts: tuple[tuple[tuple[int, ...], int], ...]
    short: tuple[int, ...] | None

    def extend(self, letter: int) -> "KProfile":
        """Profile of w + letter, given the profile of w."""
        k, t = self.k, self.t
        if self.short is not None:
            w = self.short + (letter,)
            if len(w) < k:
                return KProfile(k, t, w, w, (), w)
            return KProfile(k, t, w[:k - 1], w[1:], ((w, 1),), None)
        factor = self.suffix + (letter,)
        bag = dict(self.counts)
        bag[factor] = min(bag.get(factor, 0) + 1, t)
        return KProfile(k, t, self.prefix, factor[1:], tuple(sorted(bag.items())), None)


def profile_of(word, k: int, t: int = 1) -> KProfile:
    if k < 1:
        raise BadK(f"window length {k} must be at least 1")
    if t < 1:
        raise BadK(f"threshold {t} must be at least 1")
    word = tuple(word)
    if len(word) < k:
        return KProfile(k, t, word, word, (), word)
    bag: dict[tuple[int, ...], int] = {}
    for i in range(len(word) - k + 1):
        factor = word[i:i + k]
        bag[factor] = min(bag.get(factor, 0) + 1, t)
    return KProfile(k, t, word[:k - 1], word[len(word) - k + 1:], tuple(sorted(bag.items())), None)


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a profile search.

    status "yes": every reachable profile forces a single action value
    (for brute_force_scan: up to the scanned length).  status "no":
    ``witness`` holds two words with equal profiles and different
    values.  status "unknown": the state budget ran out.
    ``states`` counts profile states for the breadth-first search and
    examined words for the brute-force scan.
    """

    status: str
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    states: int


def profile_determines(initial, step, alphabet_size: int, k: int, t: int = 1,
                       budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Does the k-profile of a word determine its folded value?

    Runs a breadth-first closure of (profile, value) pairs.  Profiles
    are numbered in discovery order, so the queue is a walk over those
    ids; state 0 is the empty word.  Until a conflict is seen each
    profile carries exactly one value, so the profile id doubles as the
    pair key; the first conflicting step, in BFS order with letters
    ascending, yields a deterministic shortest-first witness pair
    reconstructed through parent links.  Reaching ``budget`` states
    before the search settles gives "unknown".
    """
    if alphabet_size < 1:
        raise ValueError(f"alphabet size {alphabet_size} must be positive")
    start = profile_of((), k, t)
    profiles = [start]
    ids = {start: 0}
    value_of = [initial]
    parent: list[tuple[int, int] | None] = [None]

    def word_of(pid: int) -> tuple[int, ...]:
        out = []
        while pid:
            pid, letter = parent[pid]
            out.append(letter)
        return tuple(reversed(out))

    pid = 0
    while pid < len(profiles):
        prof = profiles[pid]
        value = value_of[pid]
        for letter in range(alphabet_size):
            target = prof.extend(letter)
            reached = step(value, letter)
            nid = ids.get(target)
            if nid is None:
                if len(profiles) >= budget:
                    return OracleResult("unknown", None, len(profiles))
                ids[target] = len(profiles)
                profiles.append(target)
                value_of.append(reached)
                parent.append((pid, letter))
            elif value_of[nid] != reached:
                return OracleResult("no", (word_of(nid), word_of(pid) + (letter,)),
                                    len(profiles))
        pid += 1
    return OracleResult("yes", None, len(profiles))


def brute_force_scan(initial, step, alphabet_size: int, k: int, t: int = 1,
                     max_len: int = DEFAULT_K_MAX) -> OracleResult:
    """Enumerate every word up to max_len and group values by profile.

    The slow cross-check for ``profile_determines``: same question, no
    automaton, words visited in (length, lexicographic) order.  A "yes"
    only says no conflict exists up to the scanned length.
    """
    seen: dict[KProfile, tuple[tuple[int, ...], object]] = {}
    examined = 0
    for length in range(max_len + 1):
        for word in iter_product(range(alphabet_size), repeat=length):
            examined += 1
            value = initial
            for letter in word:
                value = step(value, letter)
            prof = profile_of(word, k, t)
            if prof not in seen:
                seen[prof] = (word, value)
            elif seen[prof][1] != value:
                return OracleResult("no", (seen[prof][0], word), examined)
    return OracleResult("yes", None, examined)
