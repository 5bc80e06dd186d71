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
read as a base-A number, and ``span`` = A**(k-1) is the number of codes
of k - 1 letters.  Every word has the key
``(bag * span + prefix) * span + suffix``:

- a word of L <= k - 1 letters has no k-factor.  Its bag is L, its
  suffix the code of the whole word and its prefix the code of the
  word without its last letter (never read).  The empty word is key 0;
- a longer word has the codes of its first and last k - 1 letters as
  prefix and suffix, and its saturated factor counts (counts capped at
  t) as bag, in one of the two encodings below.  In both, bag k - 1 is
  the empty bag, shared with the (k - 1)-letter words, and every other
  bag is at least k.

Appending a letter adds the factor ``suffix * A + letter``: it counts
one more letter while the bag is below k - 1 and goes into the counts
from then on.  The bag encoding depends on A, k and t alone:

- dense, when A**k slots of ``width`` = t.bit_length() bits fit in
  ``DENSE_BAG_BITS``: the bag is one integer whose slot at bit
  ``low + code * width`` holds the count of that factor code, with
  k - 1 in the ``low`` = (k - 1).bit_length() bits under the slots.
  A step reads the slot with a shift and a mask and, below t, adds one
  to it; nothing is interned.
- interned, past the bound: the bag is the id of a sorted tuple of
  (factor code, count) pairs, ids from k on.  A memo maps (bag id,
  factor code) to the id of the grown bag, so a step costs two dict
  lookups and a bag is rebuilt only on a memo miss.  Such a bag holds
  one pair per distinct factor of its word, so memory per state is
  bounded by the word, not by A**k.

A dense key spends A**k * width bits however short its word is.  For a
constant fold, t = 1 and a budget of 100,000 states (2-core host,
Python 3.11), dense bags took 0.21-0.26 s against 0.54-0.82 s interned
from 256 to 2,187 bits, and 0.44 s against 0.43 s at 6,561 bits;
their traced peaks were 20-38 MB against 65-85 MB up to 2,187 bits,
54 against 60 MB at 4,096 and 73 against 59 MB at 6,561.  The bound,
1,024 bits, stays well below both crossovers, and keeps the 26-letter
k = 3 search (17,576 factor codes) interned.  Two keys are equal
exactly when the two words have equal k-profiles.

A fold here is any pair (initial value, step function) over hashable
values.  The package folds both graph words and generator words over a
letter table cut from a semigroup's Cayley rows, whose last row is an
identity adjoined for the empty word (``semigroups._cayley_fold``); the
tests also use node maps composed letter by letter.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Each state is the integer key of its profile (layout in the module
    docstring): prefix code, suffix code and a bag, which counts the
    letters of a word too short to hold a k-factor and otherwise holds
    its capped factor counts, dense while ``_slot_width`` gives a slot
    width and interned past ``DENSE_BAG_BITS``.  The interned bags' memo
    is keyed by ``bag * A**k + factor``; ``grow`` builds a bag only when
    the memo misses.
    """
    if alphabet_size < 1:
        raise ValueError(f"alphabet size {alphabet_size} must be positive")
    if k < 1:
        raise BadK(f"window length {k} must be at least 1")
    if t < 1:
        raise BadK(f"threshold {t} must be at least 1")
    if budget < 1:
        raise ValueError(f"budget {budget} must be at least 1")
    letters = range(alphabet_size)
    span = alphabet_size ** (k - 1)
    factors = span * alphabet_size
    bag_span = span * span
    first = k - 1    # the empty bag; lower bags count letters
    width = _slot_width(alphabet_size, k, t)
    if width:
        # dense bags: the capped counts, one slot per factor code above
        # the low bits that hold first
        mask = (1 << width) - 1
        shifts = range(first.bit_length(), first.bit_length() + width * factors, width)
    else:
        bags: list[tuple[tuple[int, int], ...]] = [()]    # the bag first + i
        bag_ids = {(): first}
        grown: dict[int, int] = {}

        def grow(bag: int, factor: int) -> int:
            counts = dict(bags[bag - first])
            count = counts.get(factor, 0)
            result = bag
            if count < t:
                counts[factor] = count + 1
                frozen = tuple(sorted(counts.items()))
                result = bag_ids.setdefault(frozen, first + len(bags))
                if result == first + len(bags):
                    bags.append(frozen)
            grown[bag * factors + factor] = result
            return result

    keys = [0]
    ids = {0: 0}
    value_of = [initial]
    parent = [0]    # pid * alphabet_size + letter of the step that found a state

    def word_of(pid: int) -> tuple[int, ...]:
        out = []
        while pid:
            pid, letter = divmod(parent[pid], alphabet_size)
            out.append(letter)
        return tuple(reversed(out))

    pid = 0
    while pid < len(keys):
        rest, suffix = divmod(keys[pid], span)
        bag, prefix = divmod(rest, span)
        value = value_of[pid]
        memo_base = 0 if width else bag * factors    # dense bags skip the memo
        shifted = suffix * alphabet_size
        head = (suffix if bag < k else prefix) * span    # no k-factor: the word is its prefix
        for letter in letters:
            factor = shifted + letter
            if bag < first:
                bag_after = bag + 1
            elif width:
                shift = shifts[factor]
                bag_after = bag if bag >> shift & mask >= t else bag + (1 << shift)
            else:
                bag_after = grown.get(memo_base + factor)
                if bag_after is None:
                    bag_after = grow(bag, factor)
            target = bag_after * bag_span + head + factor % span
            reached = step(value, letter)
            nid = ids.get(target)
            if nid is None:
                if len(keys) >= budget:
                    return OracleResult("unknown", None, len(keys))
                ids[target] = len(keys)
                keys.append(target)
                value_of.append(reached)
                parent.append(pid * alphabet_size + letter)
            elif value_of[nid] != reached:
                return OracleResult("no", (word_of(nid), word_of(pid) + (letter,)),
                                    len(keys))
        pid += 1
    return OracleResult("yes", None, len(keys))
