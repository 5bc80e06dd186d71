"""Window-profile oracle.

A word's k-profile is what a scanner with a sliding window of length k
can remember: the prefix and suffix of length k-1 and the number of
occurrences of every length-k factor, counted up to a threshold t.
Words shorter than k are kept whole.  A language property holds "with
window k" exactly when the profile of a word determines the value that
some deterministic letter-fold assigns to it; ``profile_determines``
decides that by closing the product of the profile automaton with the
fold, and ``brute_force_scan`` re-derives the same answer by sheer
enumeration so the two routes can be played against each other.

An action here is any pair (initial value, step function): a
transformation composed letter by letter, a semigroup evaluation, or
anything else that folds letters into hashable values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product as iter_product

from .model import BadK, BudgetExceeded

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


class ProfileAutomaton:
    """Deterministic automaton over k-profiles, built lazily.

    States are interned profiles; state 0 is the empty word.  ``step``
    creates target states on demand and raises BudgetExceeded once the
    number of states would pass the budget.
    """

    def __init__(self, alphabet_size: int, k: int, t: int = 1, budget: int = DEFAULT_BUDGET):
        if alphabet_size < 1:
            raise ValueError(f"alphabet size {alphabet_size} must be positive")
        self.alphabet_size = alphabet_size
        self.k = k
        self.t = t
        self.budget = budget
        start = profile_of((), k, t)
        self._profiles: list[KProfile] = [start]
        self._ids: dict[KProfile, int] = {start: 0}

    @property
    def start(self) -> int:
        return 0

    @property
    def state_count(self) -> int:
        return len(self._profiles)

    def profile(self, pid: int) -> KProfile:
        return self._profiles[pid]

    def step(self, pid: int, letter: int) -> int:
        target = self._profiles[pid].extend(letter)
        nid = self._ids.get(target)
        if nid is None:
            if len(self._profiles) >= self.budget:
                raise BudgetExceeded(len(self._profiles))
            nid = len(self._profiles)
            self._profiles.append(target)
            self._ids[target] = nid
        return nid


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a profile search.

    status "yes": every reachable profile forces a single action value
    (for brute_force_scan: up to the scanned length).  status "no":
    ``witness`` holds two words with equal profiles and different
    values.  status "unknown": the state budget ran out.
    ``states`` counts profile states for the automaton search and
    examined words for the brute-force scan.
    """

    status: str
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    states: int


def profile_determines(initial, step, alphabet_size: int, k: int, t: int = 1,
                       budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Does the k-profile of a word determine its folded value?

    Runs a breadth-first closure of (profile, value) pairs.  Until a
    conflict is seen each profile carries exactly one value, so the
    profile id doubles as the pair key; the first conflicting step, in
    BFS order with letters ascending, yields a deterministic
    shortest-first witness pair reconstructed through parent links.
    """
    auto = ProfileAutomaton(alphabet_size, k, t, budget)
    value_of = {0: initial}
    parent: dict[int, tuple[int, int]] = {}

    def word_of(pid: int) -> tuple[int, ...]:
        out = []
        while pid in parent:
            pid, letter = parent[pid]
            out.append(letter)
        return tuple(reversed(out))

    queue = deque([0])
    while queue:
        pid = queue.popleft()
        value = value_of[pid]
        for letter in range(alphabet_size):
            try:
                nid = auto.step(pid, letter)
            except BudgetExceeded:
                return OracleResult("unknown", None, auto.state_count)
            reached = step(value, letter)
            if nid not in value_of:
                value_of[nid] = reached
                parent[nid] = (pid, letter)
                queue.append(nid)
            elif value_of[nid] != reached:
                return OracleResult("no", (word_of(nid), word_of(pid) + (letter,)),
                                    auto.state_count)
    return OracleResult("yes", None, auto.state_count)


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
