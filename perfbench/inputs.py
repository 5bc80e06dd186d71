"""Input generators of the benchmark, written without the package.

The package under test only ever sees the files these functions
produce, so a change to the package cannot change its own inputs.
Semigroups are Cayley rows with the generators first (row x, column j
is x times generator j); graphs are transition tables (row p, column c
is the node reached from p under letter c).  Both follow the package's
convention that a word is read left to right: "uv" applies u, then v.
"""

from __future__ import annotations

import random
from collections import deque

Rows = list[list[int]]
Transformation = tuple[int, ...]


# --- semigroups -----------------------------------------------------------

def rectangular_band(p: int, q: int) -> Rows:
    """(i, j) * (k, l) = (i, l) on p*q pairs, element i*q + j.

    A full table: every element is a generator.
    """
    n = p * q
    return [[(x // q) * q + y % q for y in range(n)] for x in range(n)]


def min_chain(m: int) -> Rows:
    """The semilattice min on 0..m-1; full table."""
    return [[min(x, y) for y in range(m)] for x in range(m)]


def free_semilattice(k: int) -> Rows:
    """Nonempty subsets of k letters under union; the singletons generate.

    Elements are the singletons in letter order, then the other subsets
    by increasing bitmask.
    """
    elems = [1 << i for i in range(k)]
    elems += [m for m in range(1, 1 << k) if m & (m - 1)]
    index = {m: i for i, m in enumerate(elems)}
    return [[index[m | elems[j]] for j in range(k)] for m in elems]


def relabel_semigroup(rows: Rows, rng: random.Random) -> Rows:
    """Rename elements at random, generators among generators only."""
    n, g = len(rows), len(rows[0])
    gens, rest = list(range(g)), list(range(g, n))
    rng.shuffle(gens)
    rng.shuffle(rest)
    new = gens + rest
    out = [[0] * g for _ in range(n)]
    for x, row in enumerate(rows):
        for j, v in enumerate(row):
            out[new[x]][new[j]] = new[v]
    return out


def full_table(rows: Rows) -> Rows:
    """Every product x*y, from Cayley rows, by x*(z*g) = (x*z)*g.

    Raises ValueError when some element is not a product of generators.
    """
    n, g = len(rows), len(rows[0])
    parent: list[tuple[int, int] | None] = [None] * n
    reached = [j < g for j in range(n)]
    order = list(range(g))
    queue = deque(order)
    while queue:
        x = queue.popleft()
        for j, y in enumerate(rows[x]):
            if not reached[y]:
                reached[y] = True
                parent[y] = (x, j)
                order.append(y)
                queue.append(y)
    if len(order) != n:
        raise ValueError("rows do not generate every element")
    table = []
    for x in range(n):
        full = [0] * n
        for y in order:
            link = parent[y]
            if link is None:
                full[y] = rows[x][y]
            else:
                z, j = link
                full[y] = rows[full[z]][j]
        table.append(full)
    return table


def semigroup_product(rows1: Rows, rows2: Rows) -> Rows:
    """Direct product with the package's generator choice and order.

    Generators are (x, h) for every x and generator h of the right
    factor, then (g, y) for generators g of the left factor and the
    other y; the remaining pairs follow in row-major order.
    """
    t1, t2 = full_table(rows1), full_table(rows2)
    n1, g1, n2, g2 = len(rows1), len(rows1[0]), len(rows2), len(rows2[0])
    pairs = [(x, h) for x in range(n1) for h in range(g2)]
    pairs += [(g, y) for g in range(g1) for y in range(g2, n2)]
    gens = list(pairs)
    pairs += [(x, y) for x in range(g1, n1) for y in range(g2, n2)]
    index = {p: i for i, p in enumerate(pairs)}
    return [[index[t1[x][u], t2[y][v]] for u, v in gens] for x, y in pairs]


def idempotent_count(rows: Rows) -> int:
    table = full_table(rows)
    return sum(1 for x, row in enumerate(table) if row[x] == x)


def semigroup_text(rows: Rows) -> str:
    """The semigroup file format: "n g", then n rows of g products."""
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines += [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


# --- graphs ---------------------------------------------------------------

def random_dfa(rng: random.Random, nodes: int, letters: int = 2) -> Rows:
    """Complete DFA with uniform random targets, drawn row by row."""
    return [[rng.randrange(nodes) for _ in range(letters)] for _ in range(nodes)]


def core_graph(rng: random.Random, nodes: int, core: int, letters: int) -> Rows:
    """Every transition lands in a random core of ``core`` nodes.

    The transition semigroup then acts on at most ``core`` nodes after
    one letter, so it stays finite and moderate however many nodes the
    graph has.
    """
    targets = rng.sample(range(nodes), core)
    return [[rng.choice(targets) for _ in range(letters)] for _ in range(nodes)]


def relabel_graph(delta: Rows, rng: random.Random) -> Rows:
    """Rename nodes at random; the letters keep their order."""
    new = list(range(len(delta)))
    rng.shuffle(new)
    out: Rows = [[]] * len(delta)
    for p, row in enumerate(delta):
        out[new[p]] = [new[q] for q in row]
    return out


def graph_product(d1: Rows, d2: Rows) -> Rows:
    """Synchronous product, node (p, q) at p*g2 + q, shorter alphabet."""
    a = min(len(d1[0]), len(d2[0]))
    g2 = len(d2)
    return [[r1[c] * g2 + r2[c] for c in range(a)] for r1 in d1 for r2 in d2]


def transition_semigroup(delta: Rows) -> Rows:
    """Close the letter maps under composition, breadth first.

    Letters with equal maps share one generator.  Returns the Cayley
    rows, elements in the package's order.
    """
    maps = [tuple(row[c] for row in delta) for c in range(len(delta[0]))]
    gens: list[Transformation] = []
    ids: dict[Transformation, int] = {}
    for tr in maps:
        if tr not in ids:
            ids[tr] = len(gens)
            gens.append(tr)
    elements = list(gens)
    rows: Rows = []
    qi = 0
    while qi < len(elements):
        cur = elements[qi]
        row = []
        for tr in gens:
            nxt = tuple(tr[p] for p in cur)
            z = ids.get(nxt)
            if z is None:
                z = ids[nxt] = len(elements)
                elements.append(nxt)
            row.append(z)
        rows.append(row)
        qi += 1
    return rows


def graph_text(delta: Rows) -> str:
    """The graph file format: "a g", then g rows of a targets."""
    lines = [f"{len(delta[0])} {len(delta)}"]
    lines += [" ".join(map(str, row)) for row in delta]
    return "\n".join(lines) + "\n"
