"""Decision procedures on finite semigroups.

Every check walks elements in ascending index order and reports the
lexicographically least violating tuple as its witness, so verdicts are
reproducible run to run.  The properties decided here:

  associativity            Light's test over a kept generating subset
  aperiodicity             every element's power sequence settles
  local_idempotence        x*x = x inside every local submonoid eSe
  local_testability        eSe is an idempotent commutative monoid
  strict_local_testability same predicate as local_testability
  right_local_testability  eSe satisfies x*x = x and x*y*x = x*y
  left_local_testability   eSe satisfies x*x = x and x*y*x = y*x
  threshold_local_testability  aperiodic and e x f u e y f = e y f u e x f
  piecewise_testability    all two-sided reachability classes are singletons
  one_testability          generators are idempotent and commute
"""

from __future__ import annotations

from dataclasses import replace

from .model import (NO, YES, BadK, FiniteSemigroup, NotIdempotent, OrderResult,
                    PropertyReport, Verdict, compose)
from .oracle import DEFAULT_BUDGET, DEFAULT_K_MAX, profile_determines
from .scc import strongly_connected_components

ASSOCIATIVITY = "associativity"
APERIODICITY = "aperiodicity"
LOCAL_IDEMPOTENCE = "local_idempotence"
LOCAL_TESTABILITY = "local_testability"
STRICT_LOCAL_TESTABILITY = "strict_local_testability"
RIGHT_LOCAL_TESTABILITY = "right_local_testability"
LEFT_LOCAL_TESTABILITY = "left_local_testability"
THRESHOLD_LOCAL_TESTABILITY = "threshold_local_testability"
PIECEWISE_TESTABILITY = "piecewise_testability"
ONE_TESTABILITY = "one_testability"

# The eSe scans of ``check_local_property``.  strict_local_testability
# is the same predicate as local_testability: PROPERTY_CHECKS reports
# that verdict under its name, so it has no scan of its own.
LOCAL_PROPERTIES = (LOCAL_IDEMPOTENCE, LOCAL_TESTABILITY, RIGHT_LOCAL_TESTABILITY,
                    LEFT_LOCAL_TESTABILITY)


def check_associativity(s: FiniteSemigroup) -> Verdict:
    """Light's test, run once per value: the verdict is kept on ``s``."""
    return _check(s, ASSOCIATIVITY)


def _lights_test(s: FiniteSemigroup) -> Verdict:
    """(x*a)*y == x*(a*y) for all x, y and generators a.

    Light's theorem: the elements a for which (x*a)*y == x*(a*y) holds
    for all x and y form a submagma, since for two such elements a and
    b, (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) =
    x*((a*b)*y).  So when a subset K of the generators already generates
    S and every a in K passes, all of S passes and S is associative.
    ``_generating_subset`` picks such a K, often far smaller than the
    generating set, and the scan runs over K first; which K it picks
    changes only the cost.  The full scan over every generator runs
    only when K does not reach all of S or fails the scan, which happens
    only on a table that is not associative; it returns the
    lexicographically least (x, j, y).
    """
    kept = _generating_subset(s)
    if kept is not None:
        verdict = _lights_scan(s, kept)
        if verdict.holds == YES:
            return verdict
    return _lights_scan(s, range(s.generator_count))


def _generator_order(s: FiniteSemigroup) -> list[int]:
    """Generators by the size of j*S^1, largest first, ties by index.
    If j reaches j' = j*w in the right Cayley graph x -> x*j and j' does
    not reach j, then j'*S^1 is inside j*S^1 and misses j, so it is
    smaller: j comes before every j' it reaches that does not reach it.
    """
    return sorted(range(s.generator_count), key=lambda j: -len({j, *s.row(j)}))


def _generating_subset(s: FiniteSemigroup) -> list[int] | None:
    """Generators kept greedily, returned ascending: walked in
    ``_generator_order``, generator j is kept only when the elements
    reached so far from the kept ones, by the kept columns, do not
    include it.  None when the kept generators do not reach every
    element, which an associative table rules out.  Walking the largest
    j*S^1 first keeps 34 of band 8x8 x chain 20's 1,280 generators,
    where index order kept 300.

    The reach grows incrementally: a new column is applied once to each
    element reached before it, and each newly reached element once to
    every kept column, so each (element, kept column) pair is visited
    once.  An element is marked as it is reached, and ``order`` past
    ``i`` is the queue of those not yet multiplied out.
    """
    cayley = s.cayley
    reached = [False] * s.element_count
    order: list[int] = []
    kept: list[int] = []

    def reach(y):
        if not reached[y]:
            reached[y] = True
            order.append(y)

    for j in _generator_order(s):
        if reached[j]:
            continue
        kept.append(j)
        i = len(order)
        for y in [j] + [cayley[x][j] for x in order]:
            reach(y)
        while i < len(order):
            row = cayley[order[i]]
            i += 1
            for k in kept:
                reach(row[k])
    return sorted(kept) if len(order) == s.element_count else None


def _lights_scan(s: FiniteSemigroup, columns) -> Verdict:
    """(x*j)*y == x*(j*y) for all x, y and every generator j in
    ``columns``, ascending; a "no" names the least failing (x, j, y).

    Each (x, j) compares the whole row of x*j with the row of j composed
    with the row of x, a C-level tuple comparison; only a pair that
    differs is scanned element by element, for the least y.
    """
    n = s.element_count
    cayley = s.cayley
    col_rows = [(j, s.row(j)) for j in columns]
    for x in range(n):
        row_x = s.row(x)
        for j, row_j in col_rows:
            row_xj = s.row(cayley[x][j])
            if row_xj == compose(row_j, row_x):
                continue
            for y in range(n):
                if row_xj[y] != row_x[row_j[y]]:
                    return Verdict(ASSOCIATIVITY, NO, (x, j, y),
                                   f"({x}*{j})*{y} != {x}*({j}*{y})")
    return Verdict(ASSOCIATIVITY, YES)


def idempotents(s: FiniteSemigroup) -> tuple[int, ...]:
    return tuple(x for x in range(s.element_count) if s.prod(x, x) == x)


def local_submonoid(s: FiniteSemigroup, e: int) -> tuple[int, ...]:
    """The set e*S*e = {e*x*e}, ascending; e must be idempotent."""
    if s.prod(e, e) != e:
        raise NotIdempotent(f"element {e} is not idempotent")
    return tuple(sorted({s.prod(z, e) for z in set(s.row(e))}))


def check_local_property(s: FiniteSemigroup, prop: str) -> Verdict:
    """Check one of the eSe identities on every local submonoid.

    Witnesses are (e, x) for an idempotence failure and (e, x, y) for a
    two-variable identity failure, least first.
    """
    if prop not in LOCAL_PROPERTIES:
        raise ValueError(f"not a local property: {prop!r}")
    two_sided = prop != LOCAL_IDEMPOTENCE
    for e in idempotents(s):
        sub = local_submonoid(s, e)
        for x in sub:
            row_x = s.row(x)
            if row_x[x] != x:
                return Verdict(prop, NO, (e, x), f"e={e}: {x}*{x} != {x}")
            if not two_sided:
                continue
            for y in sub:
                xy = row_x[y]
                if prop == LOCAL_TESTABILITY:
                    if xy != s.row(y)[x]:
                        return Verdict(prop, NO, (e, x, y),
                                       f"e={e}: {x}*{y} != {y}*{x}")
                elif prop == RIGHT_LOCAL_TESTABILITY:
                    if s.row(xy)[x] != xy:
                        return Verdict(prop, NO, (e, x, y),
                                       f"e={e}: {x}*{y}*{x} != {x}*{y}")
                else:
                    if s.row(xy)[x] != s.row(y)[x]:
                        return Verdict(prop, NO, (e, x, y),
                                       f"e={e}: {x}*{y}*{x} != {y}*{x}")
    return Verdict(prop, YES)


def is_aperiodic(s: FiniteSemigroup) -> Verdict:
    """Iterate powers of each element until they repeat; the cycle the
    sequence falls into must have length 1.  Powers step through
    ``prod``, so no row is built that another check has not built."""
    n = s.element_count
    for x in range(n):
        seen = {x: 1}
        power = x
        for i in range(2, n + 2):
            power = s.prod(power, x)
            if power in seen:
                period = i - seen[power]
                if period != 1:
                    return Verdict(APERIODICITY, NO, (x,),
                                   f"element {x} has period {period}")
                break
            seen[power] = i
    return Verdict(APERIODICITY, YES)


def is_threshold_locally_testable(s: FiniteSemigroup) -> Verdict:
    """Aperiodicity plus e x f u e y f = e y f u e x f over idempotents e, f.

    For one pair (e, f) the identity says p*u*q = q*u*p for all p, q in
    eSf and u in S.  Three reductions make each pair cheap:

    - u ranges over fSe only: p = exf gives p = p*f and q = eyf gives
      q = e*q, so p*u*q = p*(f*u*e)*q.
    - Only pairs p < q are compared: the identity is symmetric in p and
      q, and trivial when p = q.
    - eSf = e*(Sf) = (eS)*f depends only on the sets eS and Sf, that is
      on the R-class of e and the L-class of f, and whether the identity
      holds depends only on eSf; only the least idempotent of each class
      is scanned.  For idempotents eS = dS exactly when e*d = d and
      d*e = e, and Sf = Sd exactly when f*d = f and d*f = d.

    A "yes" needs only the maximal classes (Beauquier and Pin 1991;
    Trahtman 2004).  If the identity holds at (e, f), it holds at every
    (e', f') with e*e' = e' and f'*f = f': e'xf' = e*(e'xf')*f, so
    e'Sf' is inside eSf, and u still ranges over all of S.  So the
    pairs of the maximal representatives are scanned first, ascending:
    e with no other representative d above it (d*e = e, so eS is
    inside dS) and f with none above it (f*d = f); when they all pass,
    the answer is "yes".

    Otherwise every pair of representatives is scanned in ascending
    order, reusing the verdicts of the maximal pairs already scanned.
    The least (e, f) of a class pair is the pair of its least members,
    so the first one that fails is the least failing (e, f); only it is
    rescanned over all u in S for the lexicographically least
    (e, f, x, u, y).
    """
    aperiodic = _check(s, APERIODICITY)
    if aperiodic.holds == NO:
        return Verdict(THRESHOLD_LOCAL_TESTABILITY, NO, aperiodic.witness,
                       "not aperiodic: " + aperiodic.detail)
    prod = s.prod
    r_reps, l_reps = [], []
    for e in idempotents(s):
        if all(prod(e, d) != d or prod(d, e) != e for d in r_reps):
            r_reps.append(e)
        if all(prod(e, d) != e or prod(d, e) != d for d in l_reps):
            l_reps.append(e)
    r_top = [e for e in r_reps if all(d == e or prod(d, e) != e for d in r_reps)]
    l_top = [f for f in l_reps if all(d == f or prod(f, d) != f for d in l_reps)]
    known: dict[tuple[int, int], bool] = {}

    def holds(e: int, f: int) -> bool:
        if (e, f) not in known:
            known[e, f] = _sandwich_identity_holds(s, e, f)
        return known[e, f]

    if all(holds(e, f) for e in r_top for f in l_top):
        return Verdict(THRESHOLD_LOCAL_TESTABILITY, YES)
    e, f = next((e, f) for e in r_reps for f in l_reps if not holds(e, f))
    return _least_sandwich_witness(s, e, f)


def _sandwich_identity_holds(s: FiniteSemigroup, e: int, f: int) -> bool:
    """p*w*q == q*w*p for all p < q in eSf and w in fSe."""
    row, prod = s.row, s.prod
    esf = list({prod(v, f) for v in set(row(e))})
    fse = {prod(v, e) for v in set(row(f))}
    for w in fse:
        pw_rows = []  # filled one q at a time, so a failing w stops early
        for q in esf:
            row_qw = row(row(q)[w])
            for p, row_pw in zip(esf, pw_rows):
                if row_pw[q] != row_qw[p]:
                    return False
            pw_rows.append(row_qw)
    return True


def _least_sandwich_witness(s: FiniteSemigroup, e: int, f: int) -> Verdict:
    """The least (x, u, y) breaking the identity at a failing pair (e, f).

    Only the first x reaching each distinct value e*x*f can be part of a
    least witness, so x and y run over those representatives.
    """
    prod = s.prod
    n = s.element_count
    firsts: dict[int, int] = {}
    for x in range(n):
        firsts.setdefault(prod(prod(e, x), f), x)
    for p, x in firsts.items():
        for u in range(n):
            pu = prod(p, u)
            for q, y in firsts.items():
                if prod(pu, q) != prod(prod(q, u), p):
                    return Verdict(
                        THRESHOLD_LOCAL_TESTABILITY, NO, (e, f, x, u, y),
                        f"e={e}, f={f}: exf*u*eyf != eyf*u*exf "
                        f"at x={x}, u={u}, y={y}")
    raise AssertionError(f"e={e}, f={f} fails on fSe but not on S")


def j_classes(s: FiniteSemigroup) -> tuple[tuple[int, ...], ...]:
    """Two-sided reachability classes of S with an identity adjoined
    when no element already acts as one.

    Mutual reachability under one-step multiplication by generators, on
    either side, coincides with mutual two-sided ideal membership, so
    the classes are the SCCs of that digraph.  When an identity is
    adjoined it appears as the extra index element_count.

    Element e is the identity exactly when its successors e*j, then
    j*e, are the generators 0..g-1 twice over: e*j = j = j*e for every
    generator j is enough, because the generators generate S.
    """
    gens = tuple(range(s.generator_count))
    lefts = zip(*[s.row(j) for j in gens])
    succ = [right + left for right, left in zip(s.cayley, lefts)]
    if gens + gens not in succ:
        succ.append(gens)
    comps = strongly_connected_components(succ)
    return tuple(tuple(c) for c in comps)


def is_piecewise_testable(s: FiniteSemigroup) -> Verdict:
    classes = j_classes(s)
    for cls in classes:
        if len(cls) > 1:
            x, y = cls[0], cls[1]
            return Verdict(PIECEWISE_TESTABILITY, NO, (x, y),
                           f"elements {x} and {y} generate the same two-sided ideal")
    return Verdict(PIECEWISE_TESTABILITY, YES)


def check_generator_testability(s: FiniteSemigroup) -> Verdict:
    """Window length 1: generator words are determined by their letter
    set, which happens exactly when generators are idempotent and
    pairwise commute."""
    cayley = s.cayley
    for u in range(s.generator_count):
        if cayley[u][u] != u:
            return Verdict(ONE_TESTABILITY, NO, (u,),
                           f"generator {u} is not idempotent")
        for v in range(u + 1, s.generator_count):
            if cayley[u][v] != cayley[v][u]:
                return Verdict(ONE_TESTABILITY, NO, (u, v),
                               f"generators {u} and {v} do not commute")
    return Verdict(ONE_TESTABILITY, YES)


def _cayley_fold(s: FiniteSemigroup, columns):
    """The fold (initial, table, product) of words into the elements of
    ``s``.

    Letter a stands for generator ``columns[a]``: row x of the table
    keeps column ``columns[a]`` of Cayley row x as entry a, and one last
    row ``columns`` for the empty word, an identity adjoined as element
    ``element_count``, so a step reads one entry of one row.  The empty
    word's profile is shared by no other word, so its value is never
    compared.
    A semigroup passes ``range(g)``; a graph passes the
    letter-to-generator map of its transition semigroup, whose elements
    are in bijection with the node maps of the words, so the verdicts
    are the ones node maps would give.

    ``product`` multiplies the fold's values, with which
    ``profile_determines`` may settle a t = 1 "yes" without a search.
    It is None when ``s`` already holds a local-testability "no": no
    window fits such a semigroup (see the oracle module), and one read
    of the verdict memo spares the loop condition that would fail.
    """
    table = [[row[j] for j in columns] for row in s.cayley]
    table.append(list(columns))
    one, prod = s.element_count, s.prod
    lt = s._verdicts.get(LOCAL_TESTABILITY)
    if lt is not None and lt.holds == NO:
        return one, table, None
    return one, table, lambda x, y: y if x == one else x if y == one else prod(x, y)


def _order_search(s: FiniteSemigroup, columns, k_max: int, t: int,
                  budget: int) -> OrderResult:
    """Least window length k <= k_max whose k-profile determines the
    element every word over ``columns`` folds to in ``s``.

    Window lengths are tried in increasing order, so a "found" result
    also proves every smaller k fails; ``largest_failing`` reports the
    failure bound established on the way.
    """
    if k_max < 1:
        raise BadK(f"largest window length {k_max} must be at least 1")
    initial, table, product = _cayley_fold(s, columns)
    states = 0
    for k in range(1, k_max + 1):
        res = profile_determines(initial, table, len(columns), k, t, budget, product)
        states = res.states
        if res.status == "yes":
            return OrderResult("found", k, t, k_max, k - 1, states,
                               f"profile oracle succeeds at k={k}")
        if res.status == "unknown":
            return OrderResult("unknown", None, t, k_max, k - 1, states,
                               f"budget exceeded at k={k}")
    return OrderResult("none", None, t, k_max, k_max, states,
                       f"every k up to {k_max} fails")


def _local_check(prop):
    return lambda s: check_local_property(s, prop)


PROPERTY_CHECKS = {
    ASSOCIATIVITY: lambda s: _lights_test(s),  # looked up per call, like _local_check
    APERIODICITY: is_aperiodic,
    LOCAL_IDEMPOTENCE: _local_check(LOCAL_IDEMPOTENCE),
    LOCAL_TESTABILITY: _local_check(LOCAL_TESTABILITY),
    # The same predicate as local_testability: its verdict, renamed.
    STRICT_LOCAL_TESTABILITY: lambda s: replace(_check(s, LOCAL_TESTABILITY),
                                                property=STRICT_LOCAL_TESTABILITY),
    RIGHT_LOCAL_TESTABILITY: _local_check(RIGHT_LOCAL_TESTABILITY),
    LEFT_LOCAL_TESTABILITY: _local_check(LEFT_LOCAL_TESTABILITY),
    THRESHOLD_LOCAL_TESTABILITY: is_threshold_locally_testable,
    PIECEWISE_TESTABILITY: is_piecewise_testable,
    ONE_TESTABILITY: check_generator_testability,
}

# The default properties, in report order.
ALL_PROPERTIES = tuple(PROPERTY_CHECKS)


def _check(s: FiniteSemigroup, prop: str) -> Verdict:
    """PROPERTY_CHECKS[prop](s), run once per value: the verdict is kept
    on ``s``, so a check that another one includes is not run again."""
    v = s._verdicts.get(prop)
    if v is None:
        v = s._verdicts[prop] = PROPERTY_CHECKS[prop](s)
    return v


def _resolve_properties(properties) -> tuple[str, ...]:
    if properties is None:
        return ALL_PROPERTIES
    out = []
    for p in properties:
        if p not in PROPERTY_CHECKS:
            raise ValueError(f"unknown property {p!r}")
        if p not in out:
            out.append(p)
    return tuple(out)


def analyze_semigroup(s: FiniteSemigroup, properties=None, *, order: bool = False,
                      k_max: int = DEFAULT_K_MAX, budget: int = DEFAULT_BUDGET,
                      source: str = "") -> PropertyReport:
    """Run the requested checks (all of them by default) on one semigroup."""
    props = _resolve_properties(properties)
    verdicts = tuple(_check(s, p) for p in props)
    order_result = None
    stats = {"elements": s.element_count, "generators": s.generator_count}
    if order:
        order_result = _order_search(s, range(s.generator_count), k_max, 1, budget)
        stats["oracle_states"] = order_result.states
    descriptor: dict = {"kind": "semigroup"}
    if source:
        descriptor["source"] = source
    descriptor["elements"] = s.element_count
    descriptor["generators"] = s.generator_count
    return PropertyReport(descriptor, verdicts, order_result, stats)
