"""Brute-force reference implementations, written from the definitions.

Nothing here calls the package's decision procedures.  Multiplication
is re-derived from the Cayley rows by plain word folding, profiles are
recomputed from scratch, and every property check is the literal
quantifier loop; ``transition_closure`` composes the node maps of
every (element, letter) pair, with no table lookups.  ``profile`` is
the one readable definition of a k-profile: ``profile_search`` is the
profile oracle's breadth-first search with each state keyed by it,
which the integer-keyed search must match state for state, and
``brute_force_scan`` groups every short word by it.  Both fold words by
a step function; ``fold_rows`` hands the same fold to the package as
the table of rows it reads.  ``numbers`` reads a number file token by
token, from the format's definition of a token.  Deliberately slow;
meant for small inputs.
"""

from __future__ import annotations

from itertools import product as iter_product

from testability import NotGenerated, OracleResult

LOCAL_PROPS = ("local_idempotence", "local_testability", "right_local_testability",
               "left_local_testability")


def closure_words(cayley):
    """Shortest generator word for every element, breadth-first."""
    n = len(cayley)
    g = len(cayley[0])
    words = {j: (j,) for j in range(g)}
    queue = list(range(g))
    while queue:
        x = queue.pop(0)
        for j in range(g):
            y = cayley[x][j]
            if y not in words:
                words[y] = words[x] + (j,)
                queue.append(y)
    assert len(words) == n, "table is not generated by its generators"
    return [words[x] for x in range(n)]


def graph_rows(alphabet_size, node_count, delta):
    """The rows ``TransitionGraph`` stores, or the ValueError it raises:
    the header first, then the row count, then each row's length and
    cells in order."""
    if alphabet_size < 1:
        raise ValueError(f"alphabet size {alphabet_size} must be positive")
    if node_count < 1:
        raise ValueError(f"node count {node_count} must be positive")
    rows = [list(row) for row in delta]
    if len(rows) != node_count:
        raise ValueError(f"expected {node_count} rows, got {len(rows)}")
    for p, row in enumerate(rows):
        if len(row) != alphabet_size:
            raise ValueError(f"row {p} has {len(row)} cells, expected {alphabet_size}")
        for c in row:
            if c != -1 and not 0 <= c < node_count:
                raise ValueError(f"cell {c} at node {p} out of range")
    return tuple(tuple(row) for row in rows)


def rows_of(gr):
    """A graph's rows ``rows[p][c]``, transposed from its letter columns."""
    return tuple(zip(*gr.columns))


def sink_completed_rows(alphabet_size, node_count, rows):
    """The rows with every -1 sent to one new node, numbered last, that
    every letter keeps in place; the rows unchanged when none is -1."""
    if all(c != -1 for row in rows for c in row):
        return tuple(tuple(row) for row in rows)
    sink = node_count
    completed = [tuple(sink if c == -1 else c for c in row) for row in rows]
    return tuple(completed + [(sink,) * alphabet_size])


def product_rows(rows1, rows2):
    """The synchronous product's rows, cell by cell: node pair (p, q) is
    node p * len(rows2) + q, and the letters are the ones both share."""
    a = min(len(rows1[0]), len(rows2[0]))
    n2 = len(rows2)
    return tuple(tuple(rows1[p][c] * n2 + rows2[q][c] for c in range(a))
                 for p in range(len(rows1)) for q in range(n2))


def semigroup_rows(cayley):
    """The rows ``FiniteSemigroup`` stores, or what it raises: a
    ValueError for the shape (element count, generator count, then each
    row in order), NotGenerated for the least element the generators do
    not reach."""
    rows = [list(row) for row in cayley]
    n = len(rows)
    if n == 0:
        raise ValueError("a semigroup needs at least one element")
    g = len(rows[0])
    if not 1 <= g <= n:
        raise ValueError(f"generator count {g} not in 1..{n}")
    for x, row in enumerate(rows):
        if len(row) != g:
            raise ValueError(f"row {x} has {len(row)} cells, expected {g}")
        for c in row:
            if not 0 <= c < n:
                raise ValueError(f"cell {c} in row {x} out of range")
    reached = set(range(g))
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for y in rows[x]:
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    for x in range(n):
        if x not in reached:
            raise NotGenerated(x)
    return tuple(tuple(row) for row in rows)


def transition_closure(gr):
    """Close a complete graph's letter maps breadth-first.

    Letters with equal node maps share a generator (the first such
    letter names it).  Every element is composed with every generator,
    in discovery order.  Returns (Cayley rows, node maps,
    factorizations, label_to_generator, generator_letters).
    """
    ids = {}
    gens, gen_letters, label_to_gen = [], [], []
    for a in range(gr.alphabet_size):
        tr = gr.columns[a]
        if tr not in ids:
            ids[tr] = len(gens)
            gens.append(tr)
            gen_letters.append(a)
        label_to_gen.append(ids[tr])
    elements = list(gens)
    words = [(j,) for j in range(len(gens))]
    rows = []
    x = 0
    while x < len(elements):
        row = []
        for j, tr in enumerate(gens):
            nxt = tuple(tr[p] for p in elements[x])
            if nxt not in ids:
                ids[nxt] = len(elements)
                elements.append(nxt)
                words.append(words[x] + (j,))
            row.append(ids[nxt])
        rows.append(tuple(row))
        x += 1
    return (tuple(rows), tuple(elements), tuple(words), tuple(label_to_gen),
            tuple(gen_letters))


def eval_word(cayley, word):
    acc = word[0]
    for j in word[1:]:
        acc = cayley[acc][j]
    return acc


def product_table(cayley):
    """Full multiplication table via concatenated factorization words."""
    words = closure_words(cayley)
    n = len(cayley)
    return [[eval_word(cayley, words[x] + words[y]) for y in range(n)]
            for x in range(n)]


def lights_test(cayley):
    """The least (x, j, y) with (x*j)*y != x*(j*y), j a generator, or
    None; products come from ``product_table``."""
    table = product_table(cayley)
    n = len(table)
    for x in range(n):
        for j in range(len(cayley[0])):
            for y in range(n):
                if table[table[x][j]][y] != table[x][table[j][y]]:
                    return (x, j, y)
    return None


def submagma(cayley, kept):
    """The set of elements generated by ``kept``: its closure under
    every product of ``product_table``, in any bracketing."""
    table = product_table(cayley)
    elements = set(kept)
    while True:
        new = {table[x][y] for x in elements for y in elements} - elements
        if not new:
            return elements
        elements |= new


def generator_order(cayley):
    """The generators by the size of j*S^1 = {j} | {j*y}, from
    ``product_table``, largest first, ties by index.  On an associative
    table j*S^1 is the set ``reachable`` finds from j in the right Cayley
    graph x -> x*j."""
    table = product_table(cayley)
    return sorted(range(len(cayley[0])), key=lambda j: -len({j, *table[j]}))


def greedy_generating_subset(cayley):
    """Generators kept greedily, walked in ``generator_order``: j is kept
    unless it is in the right-reach of the kept ones under the kept
    columns, recomputed from scratch for each j.  Returns the kept list,
    ascending, and its final reach."""
    def right_reach(kept):
        reach = set(kept)
        while True:
            new = {cayley[x][k] for x in reach for k in kept} - reach
            if not new:
                return reach
            reach |= new

    kept = []
    for j in generator_order(cayley):
        if j not in right_reach(kept):
            kept.append(j)
    return sorted(kept), right_reach(kept)


def check_local(table, prop):
    """(verdict, witness) for one of the four local properties."""
    assert prop in LOCAL_PROPS
    n = len(table)
    for e in range(n):
        if table[e][e] != e:
            continue
        sub = sorted({table[table[e][x]][e] for x in range(n)})
        for x in sub:
            if table[x][x] != x:
                return "no", (e, x)
            if prop == "local_idempotence":
                continue
            for y in sub:
                xy = table[x][y]
                yx = table[y][x]
                if prop == "local_testability":
                    if xy != yx:
                        return "no", (e, x, y)
                elif prop == "right_local_testability":
                    if table[xy][x] != xy:
                        return "no", (e, x, y)
                else:
                    if table[xy][x] != yx:
                        return "no", (e, x, y)
    return "yes", None


def check_aperiodic(table):
    for x in range(len(table)):
        seen = []
        cur = x
        while cur not in seen:
            seen.append(cur)
            cur = table[cur][x]
        if len(seen) - seen.index(cur) != 1:
            return "no", (x,)
    return "yes", None


def check_ltt(table):
    """Aperiodicity plus the sandwich exchange identity, all quintuples."""
    aperiodic = check_aperiodic(table)
    if aperiodic[0] == "no":
        return aperiodic
    n = len(table)

    def m(*xs):
        acc = xs[0]
        for z in xs[1:]:
            acc = table[acc][z]
        return acc

    idem = [e for e in range(n) if table[e][e] == e]
    for e in idem:
        for f in idem:
            for x in range(n):
                for u in range(n):
                    for y in range(n):
                        if m(e, x, f, u, e, y, f) != m(e, y, f, u, e, x, f):
                            return "no", (e, f, x, u, y)
    return "yes", None


def sandwich_holds(table, e, f):
    """e x f u e y f = e y f u e x f for all x, u, y, at one pair (e, f)."""
    n = len(table)
    exf = [table[table[e][x]][f] for x in range(n)]
    return all(table[table[p][u]][q] == table[table[q][u]][p]
               for p in exf for u in range(n) for q in exf)


def class_representatives(table):
    """The least idempotent of each R-class and of each L-class, found by
    comparing the sets eS and Se of the full table."""
    n = len(table)
    r, l = {}, {}
    for e in range(n):
        if table[e][e] == e:
            r.setdefault(frozenset(table[e]), e)
            l.setdefault(frozenset(table[x][e] for x in range(n)), e)
    return list(r.values()), list(l.values())


def maximal_representatives(table):
    """The class representatives whose set eS (for R) or Se (for L) is
    contained in no other representative's set."""
    n = len(table)
    r, l = class_representatives(table)
    right = {e: frozenset(table[e]) for e in r}
    left = {f: frozenset(table[x][f] for x in range(n)) for f in l}
    return ([e for e in r if not any(right[e] < right[d] for d in r)],
            [f for f in l if not any(left[f] < left[d] for d in l)])


def two_sided_ideal(table, x):
    """The set of all u*x*v with u, v optional."""
    out = {x}
    frontier = [x]
    while frontier:
        z = frontier.pop()
        for w in range(len(table)):
            for nxt in (table[z][w], table[w][z]):
                if nxt not in out:
                    out.add(nxt)
                    frontier.append(nxt)
    return frozenset(out)


def reachable(succ, v):
    """The vertices a path from v reaches, v included, breadth-first."""
    seen = {v}
    queue = [v]
    for x in queue:
        for w in succ[x]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def components(succ):
    """Vertices grouped by mutual reachability, from one breadth-first
    search per vertex: each group ascending, the groups ordered by least
    member."""
    reach = [reachable(succ, v) for v in range(len(succ))]
    groups = {}
    for v, seen in enumerate(reach):
        least = min(w for w in seen if v in reach[w])
        groups.setdefault(least, []).append(v)
    return list(groups.values())


def check_piecewise(table):
    n = len(table)
    ideals = [two_sided_ideal(table, x) for x in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if ideals[x] == ideals[y]:
                return "no", (x, y)
    return "yes", None


def identity_of(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def j_classes(table):
    """Elements grouped by equal two-sided ideal, each class ascending and
    the classes ordered by least member, then ``(n,)`` for the identity
    adjoined when no element of the table is one."""
    n = len(table)
    classes = {}
    for x in range(n):
        classes.setdefault(two_sided_ideal(table, x), []).append(x)
    out = [tuple(c) for c in classes.values()]
    if identity_of(table) is None:
        out.append((n,))
    return tuple(out)


def check_one_testable(table, g):
    for u in range(g):
        if table[u][u] != u:
            return "no", (u,)
        for v in range(u + 1, g):
            if table[u][v] != table[v][u]:
                return "no", (u, v)
    return "yes", None


def numbers(text):
    """The values of a number file's tokens, read one token at a time,
    and the token that ended them.

    A token is a run of non-space characters.  One with no decimal digit
    is a comment; one that is ``-`` and decimal digits, or decimal digits
    only, is an integer.  Any other token, or an integer ``int`` refuses
    (too many digits), ends the values.  Returns (values, stop): stop is
    (token, line, column), from 1, for the token that ended the values,
    or None when the text ran out.
    """
    values = []
    for line, row in enumerate(text.splitlines(), 1):
        end = 0
        for token in row.split():
            start = row.index(token, end)
            end = start + len(token)
            if not any(c.isdecimal() for c in token):
                continue
            if token.removeprefix("-").isdecimal():
                try:
                    values.append(int(token))
                    continue
                except ValueError:
                    pass
            return values, (token, line, start + 1)
    return values, None


def word_action(gr, word):
    """Node map of a letter word, folded left to right."""
    state = list(range(gr.node_count))
    for a in word:
        state = [gr.columns[a][p] for p in state]
    return tuple(state)


def profile(word, k, t):
    """The (prefix, suffix, saturated factor bag) triple, from scratch."""
    word = tuple(word)
    if len(word) < k:
        return ("short", word)
    bag = {}
    for i in range(len(word) - k + 1):
        f = word[i:i + k]
        bag[f] = min(bag.get(f, 0) + 1, t)
    suffix = word[len(word) - k + 1:] if k > 1 else ()
    return (word[:k - 1], suffix, frozenset(bag.items()))


class _FoldRows(dict):
    def __init__(self, step, alphabet_size):
        super().__init__()
        self.step = step
        self.letters = range(alphabet_size)

    def __missing__(self, value):
        row = self[value] = [self.step(value, letter) for letter in self.letters]
        return row


def fold_rows(step, alphabet_size):
    """The rows of a step-function fold, ``rows[v][a] == step(v, a)``: a
    dict that fills the row of a value when it is first read."""
    return _FoldRows(step, alphabet_size)


def profile_search(initial, step, alphabet_size, k, t=1, budget=10**6):
    """``profile_determines`` with every state keyed by ``profile`` of
    the first word that reached it.

    Same breadth-first order (states numbered by discovery, letters
    ascending), same budget rule and same witness: each state keeps its
    first word, the word the search's parent links spell.  So the
    ``OracleResult`` must be equal field for field.
    """
    if alphabet_size < 1:
        raise ValueError(f"alphabet size {alphabet_size} must be positive")
    words = [()]
    ids = {profile((), k, t): 0}
    value_of = [initial]

    pid = 0
    while pid < len(words):
        word = words[pid]
        value = value_of[pid]
        for letter in range(alphabet_size):
            target = profile(word + (letter,), k, t)
            reached = step(value, letter)
            nid = ids.get(target)
            if nid is None:
                if len(words) >= budget:
                    return OracleResult("unknown", None, len(words))
                ids[target] = len(words)
                words.append(word + (letter,))
                value_of.append(reached)
            elif value_of[nid] != reached:
                return OracleResult("no", (words[nid], word + (letter,)), len(words))
        pid += 1
    return OracleResult("yes", None, len(words))


def brute_force_scan(initial, step, alphabet_size, k, t=1, max_len=8):
    """Enumerate every word up to max_len and group values by profile.

    The slow cross-check for ``profile_determines``: same question, no
    automaton, words visited in (length, lexicographic) order.  A "yes"
    only says no conflict exists up to the scanned length.  ``states``
    counts the examined words.
    """
    seen = {}
    examined = 0
    for length in range(max_len + 1):
        for word in iter_product(range(alphabet_size), repeat=length):
            examined += 1
            value = initial
            for letter in word:
                value = step(value, letter)
            prof = profile(word, k, t)
            if prof not in seen:
                seen[prof] = (word, value)
            elif seen[prof][1] != value:
                return OracleResult("no", (seen[prof][0], word), examined)
    return OracleResult("yes", None, examined)
