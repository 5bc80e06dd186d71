"""Core value types: transition graphs, finite semigroups, verdicts.

One composition convention is used everywhere in this package: the word
``uv`` means "apply u first, then v".  Multiplication tables, generator
factorizations and every witness follow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

UNDEFINED = -1

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


class NotGenerated(Exception):
    """An element of a Cayley-rows table is not a product of the generators."""

    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} is not a product of the generators")


class NotAssociative(Exception):
    """A multiplication table failed the associativity check."""

    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        x, g, y = triple
        super().__init__(f"not associative: ({x}*{g})*{y} != {x}*({g}*{y})")


class NotIdempotent(ValueError):
    """A local submonoid was requested at a non-idempotent element."""


class IncompleteInput(ValueError):
    """An operation that needs a complete transition table got a partial one."""


class BadK(ValueError):
    """A window length or threshold below 1."""


# A transformation of the node set, as a tuple: t[p] is the image of p.
Transformation = tuple[int, ...]


def identity_map(n: int) -> Transformation:
    return tuple(range(n))


def compose(first: Transformation, then: Transformation) -> Transformation:
    """Apply ``first``, then ``then`` (same order as reading a word).

    ``itemgetter`` does the lookups in C; with a single index it returns
    the item itself rather than a tuple, so short maps take the plain
    route.
    """
    if len(first) < 2:
        return tuple(then[p] for p in first)
    return itemgetter(*first)(then)


def letter_name(i: int) -> str:
    return chr(97 + i) if 0 <= i < 26 else f"l{i}"


def format_word(word) -> str:
    """Render a word of symbol indices: 'aba' for small alphabets."""
    word = tuple(word)
    if not word:
        return '""'
    if max(word) < 26:
        return "".join(letter_name(c) for c in word)
    return ".".join(str(c) for c in word)


def _check_cells(rows, width: int, low: int, where: str) -> None:
    """Every row has ``width`` cells, each in low..len(rows)-1.  Only a
    table that fails this C-level check is walked, to name its first bad
    row or cell ("cell {c} {where} {row}")."""
    high = len(rows) - 1
    if (set(map(len, rows)) != {width}
            or min(chain.from_iterable(rows)) < low
            or max(chain.from_iterable(rows)) > high):
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")
            for c in row:
                if not low <= c <= high:
                    raise ValueError(f"cell {c} {where} {i} out of range")


class TransitionGraph:
    """Transition table of a deterministic automaton, no accepting states.

    Stored as letter columns: ``columns[c][p]`` is the node label c
    leads to from node p, or UNDEFINED (-1) where it leads nowhere.  The
    constructor takes any iterable of rows ``delta[p][c]``.  Graphs with
    equal columns are equal.
    """

    __slots__ = ("alphabet_size", "node_count", "columns")

    def __init__(self, alphabet_size: int, node_count: int, delta):
        if alphabet_size < 1:
            raise ValueError(f"alphabet size {alphabet_size} must be positive")
        if node_count < 1:
            raise ValueError(f"node count {node_count} must be positive")
        rows = tuple(tuple(map(int, row)) for row in delta)
        if len(rows) != node_count:
            raise ValueError(f"expected {node_count} rows, got {len(rows)}")
        _check_cells(rows, alphabet_size, UNDEFINED, "at node")
        self.alphabet_size, self.node_count = alphabet_size, node_count
        self.columns = tuple(zip(*rows))

    @classmethod
    def _of_columns(cls, alphabet_size: int, node_count: int, columns):
        """The builders' path: equal-length columns of ints, one C-level
        check, and the rows' walk only to name what fails it."""
        columns = tuple(map(tuple, columns))
        if not (node_count >= 1 and len(columns) == alphabet_size
                and set(map(len, columns)) == {node_count}
                and UNDEFINED <= min(map(min, columns)) and max(map(max, columns)) < node_count):
            return cls(alphabet_size, node_count, zip(*columns))
        gr = cls.__new__(cls)
        gr.alphabet_size, gr.node_count, gr.columns = alphabet_size, node_count, columns
        return gr

    @property
    def complete(self) -> bool:
        return all(UNDEFINED not in column for column in self.columns)

    def __eq__(self, other):  # the columns fix both sizes
        return isinstance(other, TransitionGraph) and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __repr__(self):
        return f"TransitionGraph(alphabet={self.alphabet_size}, nodes={self.node_count})"


class FiniteSemigroup:
    """Finite semigroup presented by Cayley rows (element x generator).

    Elements are numbered 0..element_count-1 with the generators first,
    so column j of ``cayley`` multiplies on the right by element j.
    Construction performs the closure: every element must be reachable
    from the generators (otherwise NotGenerated), and each element gets
    one factorization, a shortest word of generator indices found
    breadth-first from the step (y, x, j) that first found y as x*j.
    ``graphs._closure`` hands in its rows and steps (``_steps``), which
    are neither checked nor walked again.

    The full product table is derived from the rows on demand.  A row
    x*y for all y is filled in one pass over the discovery order, since
    x*(z*g) = (x*z)*g, and cached as a tuple; when every element is a
    generator there is nothing to fill and the row is ``cayley[x]``
    itself.  ``product`` is the table of those same tuples.
    Instances are immutable apart from the row cache and the verdict
    memo, which maps a property name to its Verdict.
    """

    __slots__ = ("element_count", "generator_count", "cayley", "factorization",
                 "_steps", "_rows", "_verdicts")

    def __init__(self, rows, *, _steps=None):
        if _steps is None:
            rows = tuple(tuple(map(int, row)) for row in rows)
            n = len(rows)
            if n == 0:
                raise ValueError("a semigroup needs at least one element")
            g = len(rows[0])
            if not 1 <= g <= n:
                raise ValueError(f"generator count {g} not in 1..{n}")
            _check_cells(rows, g, 0, "in row")
            reached = [True] * g + [False] * (n - g)
            order = list(range(g))
            _steps = []
            for x in order:  # order grows while walked: a breadth-first queue
                for j, y in enumerate(rows[x]):
                    if not reached[y]:
                        reached[y] = True
                        _steps.append((y, x, j))
                        order.append(y)
            if not all(reached):
                raise NotGenerated(reached.index(False))

        g = len(rows[0])
        fact: list = [(j,) for j in range(g)] + [None] * (len(rows) - g)
        for y, x, j in _steps:  # x was found before y
            fact[y] = fact[x] + (j,)
        self.element_count = len(rows)
        self.generator_count = g
        self.cayley = tuple(rows)
        self.factorization = tuple(fact)
        self._steps = tuple(_steps)
        self._rows: dict[int, tuple[int, ...]] = {}
        self._verdicts: dict = {}  # filled by semigroups._check

    def row(self, x: int) -> tuple[int, ...]:
        """The full row x*y for every y.  Computed once, then cached."""
        cached = self._rows.get(x)
        if cached is not None:
            return cached
        cayley = self.cayley
        row = cayley[x]
        if self._steps:
            row = list(row) + [0] * len(self._steps)
            for y, p, j in self._steps:
                row[y] = cayley[row[p]][j]
            row = tuple(row)
        self._rows[x] = row
        return row

    def prod(self, x: int, y: int) -> int:
        cached = self._rows.get(x)
        if cached is not None:
            return cached[y]
        v = x
        cayley = self.cayley
        for j in self.factorization[y]:
            v = cayley[v][j]
        return v

    @property
    def product(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row(x) for x in range(self.element_count))

    def __eq__(self, other):
        if not isinstance(other, FiniteSemigroup):
            return NotImplemented
        return (self.element_count == other.element_count
                and self.generator_count == other.generator_count
                and self.cayley == other.cayley)

    def __hash__(self):
        return hash((self.element_count, self.generator_count, self.cayley))

    def __repr__(self):
        return f"FiniteSemigroup(elements={self.element_count}, generators={self.generator_count})"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property check.

    ``holds`` is "yes", "no" or "unknown"; a "no" always carries a
    witness that violates the defining condition when re-evaluated.
    """

    property: str
    holds: str
    witness: tuple | None = None
    detail: str = ""

    def __post_init__(self):
        if self.holds not in (YES, NO, UNKNOWN):
            raise ValueError(f"bad verdict value {self.holds!r}")
        if self.holds == NO and self.witness is None:
            raise ValueError(f"a 'no' verdict for {self.property} needs a witness")


@dataclass(frozen=True)
class OrderResult:
    """Result of searching for the least window length k that works.

    status "found" means k holds and every smaller window provably
    fails; "none" means every k up to k_max fails; "unknown" means the
    search at ``k`` ran out of budget.  ``largest_failing`` is the
    largest window length proven to fail (0 when none was).
    """

    status: str
    k: int | None
    t: int
    k_max: int
    largest_failing: int
    states: int
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("found", "none", "unknown"):
            raise ValueError(f"bad order status {self.status!r}")


@dataclass(frozen=True)
class PropertyReport:
    """Everything one analysis run produced, ready for rendering."""

    descriptor: dict
    verdicts: tuple[Verdict, ...]
    order: OrderResult | None = None
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        names = [v.property for v in self.verdicts]
        if len(names) != len(set(names)):
            raise ValueError("duplicate property in report")

    def verdict(self, prop: str) -> Verdict | None:
        for v in self.verdicts:
            if v.property == prop:
                return v
        return None

