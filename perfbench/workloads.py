"""The benchmark's workloads: seeded batches of CLI invocations.

``build`` writes the input files of one workload into a work directory
and returns its batch.  The seed picks a relabeling of each fixed input
and, for ``order-search``, the members of a recorded pool of random
DFAs.  Every invocation the seed can pick has its output at the
recording commit stored in expected.json, so each run checks that the
package still prints the same verdicts and witnesses byte for byte.

Each workload loads one layer and leaves the others nearly idle:

sg-yes        worst-case yes instances for ``analyze-semigroup --props
              all``: semigroups.is_threshold_locally_testable scans
              everything; the oracle and graphs do nothing.
order-search  ``--order`` on small random DFAs, through the graph fold
              and (one call in four) the semigroup fold:
              oracle.profile_determines dominates.
closure-io    large inputs whose checks fail fast, plus the writers:
              Light's test, graphs.transition_semigroup, parsing and
              writing dominate; LTT and the oracle do nothing.

Every batch ends with four tiny calls that touch every layer once, so
no layer's traced time is exactly zero on any workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import inputs

WORKLOADS = ("sg-yes", "order-search", "closure-io")
EXPECTED_PATH = Path(__file__).with_name("expected.json")

VARIANTS = 8        # relabelings of each fixed input, variant 0 is the identity
BUDGET = 75_000     # above the 74,461 profile states of a two-letter k=4 search
KMAX = 8
ORDER_FLAGS = ["--props", "all", "--order", "--kmax", str(KMAX),
               "--budget", str(BUDGET), "--format", "machine"]

# How many members of the order-search pool classes "medium" and
# "cheap" one batch takes (see order_heavy for the others).  The
# classes, by the profile states the order search visits over all k:
#   found4   two letters, found at k=4 on both folds (about 74,500 states)
#   unknown  two letters, budget exhausted, at most BUDGET + 5,000 states
#   medium   three letters, 14,000 to 15,500 states
#   cheap    under 5,000 states on both folds
# Every member's transition semigroup has at most 100 elements, so the
# property checks stay small next to the order search.
ORDER_MIX = {"medium": 4, "cheap": 17}

SG_YES_INPUTS = {
    "band2x4-chain8": lambda: inputs.semigroup_product(inputs.rectangular_band(2, 4),
                                                       inputs.min_chain(8)),
    "band3x3-chain8": lambda: inputs.semigroup_product(inputs.rectangular_band(3, 3),
                                                       inputs.min_chain(8)),
    "band4x4-chain8": lambda: inputs.semigroup_product(inputs.rectangular_band(4, 4),
                                                       inputs.min_chain(8)),
    "semilattice6": lambda: inputs.free_semilattice(6),
}

# Verdicts known by construction.  A rectangular band times a chain is
# a band whose local submonoids are chains: every check holds except
# piecewise testability (the band's elements share an ideal) and
# 1-testability (band generators do not commute).
PROPERTIES = ("associativity", "aperiodicity", "local_idempotence",
              "local_testability", "strict_local_testability",
              "right_local_testability", "left_local_testability",
              "threshold_local_testability", "piecewise_testability",
              "one_testability")
BAND_CHAIN_NO = ("piecewise_testability", "one_testability")
KNOWN_VERDICTS = {
    name: {p: "no" if p in BAND_CHAIN_NO and name.startswith("band") else "yes"
           for p in PROPERTIES}
    for name in SG_YES_INPUTS
}

# Sizes fixed by the workload design (elements, generators).
KNOWN_SIZES = {
    "sg-yes/band2x4-chain8": (64, 64),
    "sg-yes/band3x3-chain8": (72, 72),
    "sg-yes/band4x4-chain8": (128, 128),
    "sg-yes/semilattice6": (63, 6),
    "closure-io/n500": (500, 86),
}
G40K_SEMIGROUP_ELEMENTS = 840
G3_SEMIGROUP_ELEMENTS = 13_517

# The canary graph: three nodes, order 2; its transition semigroup has
# 3 elements.  The second canary semigroup is the free semilattice on
# two letters.
CANARY_GRAPH = [[1, 0], [1, 2], [1, 2]]


@dataclass
class Invocation:
    """One CLI call and what its result must be.

    ``key`` names the expected.json entry, ``facts`` describe the input
    (sizes, idempotents) for the report, ``output`` is the file the
    call writes and ``same_as`` the text that file must hold when the
    benchmark can build it itself.
    """

    key: str
    argv: list[str]
    input_sha256: str = ""
    facts: dict = field(default_factory=dict)
    output: str | None = None
    same_as: str | None = None


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def semigroup_facts(rows) -> dict:
    return {"elements": len(rows), "generators": len(rows[0]),
            "idempotents": inputs.idempotent_count(rows)}


def graph_facts(delta) -> dict:
    return {"letters": len(delta[0]), "nodes": len(delta)}


class _Writer:
    """Writes input files into one work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        (workdir / "out").mkdir(parents=True, exist_ok=True)

    def put(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def out(self, name: str) -> str:
        return str(self.workdir / "out" / name)


def _variant_semigroup(rows, name: str, variant: int):
    if variant == 0:
        return rows
    return inputs.relabel_semigroup(rows, random.Random(f"perfbench:{name}:{variant}"))


def _variant_graph(delta, name: str, variant: int):
    if variant == 0:
        return delta
    return inputs.relabel_graph(delta, random.Random(f"perfbench:{name}:{variant}"))


def _analyze_semigroup(w: _Writer, key: str, rows, flags, facts: bool) -> Invocation:
    text = inputs.semigroup_text(rows)
    path = w.put(key.replace("/", "_") + ".sg", text)
    return Invocation(key, ["analyze-semigroup", path, *flags], sha256(text),
                      semigroup_facts(rows) if facts else {})


def _analyze_graph(w: _Writer, key: str, delta, flags) -> Invocation:
    text = inputs.graph_text(delta)
    path = w.put(key.replace("/", "_") + ".gr", text)
    return Invocation(key, ["analyze-graph", path, *flags], sha256(text),
                      graph_facts(delta))


# --- sg-yes ---------------------------------------------------------------

def sg_yes_invocation(w: _Writer, name: str, variant: int, facts: bool = False):
    rows = _variant_semigroup(SG_YES_INPUTS[name](), name, variant)
    return _analyze_semigroup(w, f"sg-yes/{name}/v{variant}", rows,
                              ["--props", "all", "--format", "machine"], facts)


def _sg_yes(w: _Writer, rng: random.Random, pools: dict, facts: bool):
    return [sg_yes_invocation(w, name, rng.randrange(VARIANTS), facts)
            for name in SG_YES_INPUTS]


# --- order-search ---------------------------------------------------------

def pool_dfa(i: int):
    """Member i of the DFA pool: 3-7 nodes, every fourth over 3 letters."""
    return inputs.random_dfa(random.Random(f"perfbench:dfa:{i}"), 3 + i % 5,
                             3 if i % 4 == 3 else 2)


def order_invocation(w: _Writer, i: int, path: str, variant: int = 0,
                     facts: bool = False):
    delta = pool_dfa(i)
    key = f"order-search/dfa{i}/{path}/v{variant}"
    if path == "graph":
        return _analyze_graph(w, key, _variant_graph(delta, f"dfa{i}", variant),
                              ORDER_FLAGS)
    rows = inputs.transition_semigroup(delta)
    return _analyze_semigroup(w, key, _variant_semigroup(rows, f"dfa{i}", variant),
                              ORDER_FLAGS, facts)


def order_heavy(pools: dict) -> list[tuple[int, str]]:
    """The three slow calls of every batch: the first two "found4"
    members, one through each fold, and the first "unknown" member.
    The seed only relabels them, so their cost does not depend on it."""
    return [(pools["found4"][0], "graph"), (pools["found4"][1], "semigroup"),
            (pools["unknown"][0], "graph")]


def _order_search(w: _Writer, rng: random.Random, pools: dict, facts: bool):
    picks = [(i, path, rng.randrange(VARIANTS)) for i, path in order_heavy(pools)]
    picks += [(i, "graph", 0) for i in rng.sample(pools["medium"], ORDER_MIX["medium"])]
    cheap = rng.sample(pools["cheap"], ORDER_MIX["cheap"])
    picks += [(i, "semigroup" if n % 4 == 0 else "graph", 0) for n, i in enumerate(cheap)]
    rng.shuffle(picks)
    return [order_invocation(w, i, path, v, facts) for i, path, v in picks]


# --- closure-io -----------------------------------------------------------

def closure_factors():
    """Criterion 8's two factors: transition semigroups of 4-node DFAs
    (20 and 25 elements), whose product has 500 elements."""
    s1 = inputs.transition_semigroup(inputs.random_dfa(random.Random(179), 4))
    s2 = inputs.transition_semigroup(inputs.random_dfa(random.Random(154), 4))
    return s1, s2


def closure_graphs():
    """Criterion 8's 200-node graph with a 6-node core over two letters
    (840-element transition semigroup), and a 200-node graph with an
    8-node core over three letters (13,517 elements)."""
    g200 = inputs.core_graph(random.Random("testability:capacity-graph-6-0"), 200, 6, 2)
    g3 = inputs.core_graph(random.Random("testability:capacity-graph-8-3"), 200, 8, 3)
    return g200, g3


def closure_invocations(w: _Writer, variant: int, facts: bool = False):
    s1, s2 = closure_factors()
    product = inputs.semigroup_product(s1, s2)
    n500 = _variant_semigroup(product, "n500", variant)
    g200, g3 = closure_graphs()
    g200 = _variant_graph(g200, "g200", variant)
    g3 = _variant_graph(g3, "g3", variant)
    g40k = inputs.graph_product(g200, g200)
    batch = [
        _analyze_semigroup(w, f"closure-io/n500/v{variant}", n500,
                           ["--props", "all", "--format", "machine"], facts),
        _analyze_graph(w, f"closure-io/g40k/v{variant}", g40k,
                       ["--props", "lt", "--format", "machine"]),
    ]
    # Variants write to their own files: the recording builds them all
    # before it runs any.
    v = f"-v{variant}"
    g3_text = inputs.graph_text(g3)
    g3_path = w.put(f"g3{v}.gr", g3_text)
    batch.append(Invocation(f"closure-io/g3-semigroup/v{variant}",
                            ["transition-semigroup", g3_path, "-o", w.out(f"g3{v}.sg")],
                            sha256(g3_text), graph_facts(g3), output=w.out(f"g3{v}.sg")))
    g200_path = w.put(f"g200{v}.gr", inputs.graph_text(g200))
    batch.append(Invocation(
        "closure-io/product-graph",
        ["product-graph", g200_path, g200_path, "-o", w.out(f"g40k{v}.gr")],
        output=w.out(f"g40k{v}.gr"), same_as=inputs.graph_text(g40k)))
    s1_path = w.put("s1.sg", inputs.semigroup_text(s1))
    s2_path = w.put("s2.sg", inputs.semigroup_text(s2))
    batch.append(Invocation(
        "closure-io/product-semigroup",
        ["product-semigroup", s1_path, s2_path, "-o", w.out("n500.sg")],
        output=w.out("n500.sg"), same_as=inputs.semigroup_text(product)))
    return batch


def _closure_io(w: _Writer, rng: random.Random, pools: dict, facts: bool):
    return closure_invocations(w, rng.randrange(VARIANTS), facts)


# --- canary ---------------------------------------------------------------

def canary_invocations(w: _Writer):
    rows = inputs.transition_semigroup(CANARY_GRAPH)
    lattice = inputs.free_semilattice(2)
    graph_path = w.put("canary.gr", inputs.graph_text(CANARY_GRAPH))
    left = w.put("canary-left.sg", inputs.semigroup_text(rows))
    right = w.put("canary-right.sg", inputs.semigroup_text(lattice))
    return [
        Invocation("canary/analyze-graph",
                   ["analyze-graph", graph_path, "--props", "all", "--order",
                    "--format", "machine"]),
        Invocation("canary/transition-semigroup",
                   ["transition-semigroup", graph_path, "-o", w.out("canary.sg")],
                   output=w.out("canary.sg"), same_as=inputs.semigroup_text(rows)),
        Invocation("canary/product-graph",
                   ["product-graph", graph_path, graph_path, "-o", w.out("canary2.gr")],
                   output=w.out("canary2.gr"),
                   same_as=inputs.graph_text(inputs.graph_product(CANARY_GRAPH,
                                                                  CANARY_GRAPH))),
        Invocation("canary/product-semigroup",
                   ["product-semigroup", left, right, "-o", w.out("canary-product.sg")],
                   output=w.out("canary-product.sg"),
                   same_as=inputs.semigroup_text(inputs.semigroup_product(rows, lattice))),
    ]


def every_invocation(w: _Writer, pools: dict):
    """Every invocation some seed can pick, with input facts: the set
    whose outputs expected.json records."""
    out = canary_invocations(w)
    for name in SG_YES_INPUTS:
        out += [sg_yes_invocation(w, name, v, facts=True) for v in range(VARIANTS)]
    for v in range(VARIANTS):
        out += closure_invocations(w, v, facts=True)
    for i, path in order_heavy(pools):
        out += [order_invocation(w, i, path, v, facts=True) for v in range(VARIANTS)]
    for cls in ORDER_MIX:
        paths = ("graph", "semigroup") if cls == "cheap" else ("graph",)
        out += [order_invocation(w, i, path, facts=True)
                for i in pools[cls] for path in paths]
    return out


_BATCHES = {"sg-yes": _sg_yes, "order-search": _order_search,
             "closure-io": _closure_io}


def build(workload: str, seed: int, workdir: Path, expected: dict,
          facts: bool = False) -> list[Invocation]:
    """Write one workload's inputs for ``seed``; return its batch.

    ``facts`` also counts the idempotents of every semigroup input,
    which is checking work and not part of set-up.
    """
    w = _Writer(workdir)
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return _BATCHES[workload](w, rng, expected["pools"], facts) + canary_invocations(w)


# --- checking -------------------------------------------------------------

ANSWER_KEYS = PROPERTIES + ("order.status",)
DECIDED = ("yes", "no", "found", "none")


def strip_source(stdout: str) -> str:
    """Machine output without the ``source =`` line, which names a path."""
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith("source = "))


def answers(stdout: str) -> dict[str, str]:
    """Verdicts and the order status, by name, from machine output."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in ANSWER_KEYS:
            out[key] = value
    return out


def machine_value(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        k, sep, value = line.partition(" = ")
        if sep and k == key:
            return value
    return None


def check_inputs(batch: list[Invocation], expected: dict) -> list[str]:
    """Problems with the generated inputs: drift from the recorded
    inputs, or sizes other than the workload design fixes."""
    problems = []
    outputs = expected["outputs"]
    for inv in batch:
        rec = outputs.get(inv.key)
        if inv.same_as is not None and rec is None:
            continue
        if rec is None:
            problems.append(f"{inv.key}: no recorded output")
            continue
        if inv.input_sha256 and rec.get("input_sha256") != inv.input_sha256:
            problems.append(f"{inv.key}: input differs from the recorded one")
        if inv.facts and rec.get("facts") != inv.facts:
            problems.append(f"{inv.key}: input facts {inv.facts} != {rec.get('facts')}")
        size = KNOWN_SIZES.get(inv.key.rsplit("/v", 1)[0])
        if size and inv.facts and (inv.facts["elements"], inv.facts["generators"]) != size:
            problems.append(f"{inv.key}: size {inv.facts} is not {size}")
    return problems


def check_result(inv: Invocation, rc: int, stdout: str, expected: dict) -> str | None:
    """Why one call's result is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    rec = expected["outputs"].get(inv.key)
    if inv.output is None:
        if rec is None:
            return "no recorded output"
        if strip_source(stdout) != rec["stdout"]:
            return "machine output differs from the recorded output"
        name = inv.key.split("/")[1]
        known = KNOWN_VERDICTS.get(name) if inv.key.startswith("sg-yes/") else None
        if known:
            got = answers(stdout)
            wrong = [p for p, v in known.items() if got.get(p) != v]
            if wrong:
                return f"verdicts differ from construction: {', '.join(wrong)}"
        if inv.key.startswith("closure-io/g40k/"):
            if machine_value(stdout, "stats.semigroup_elements") != str(G40K_SEMIGROUP_ELEMENTS):
                return "transition semigroup is not 840 elements"
        return None
    try:
        text = Path(inv.output).read_text()
    except OSError as exc:
        return f"output file unreadable: {exc}"
    if inv.same_as is not None and text != inv.same_as:
        return "written file differs from the benchmark's own construction"
    if rec is not None and sha256(text) != rec["output_sha256"]:
        return "written file differs from the recorded output"
    if inv.key.startswith("closure-io/g3-semigroup/"):
        if text.split(None, 1)[0] != str(G3_SEMIGROUP_ELEMENTS):
            return "transition semigroup is not 13,517 elements"
    return None


def decided_counts(inv: Invocation, stdout: str, expected: dict) -> tuple[int, int]:
    """(decided, requested) answers of one analysis call; writers give (0, 0)."""
    rec = expected["outputs"].get(inv.key)
    if inv.output is not None or rec is None:
        return 0, 0
    requested = answers(rec["stdout"])
    got = answers(stdout)
    return sum(1 for k in requested if got.get(k) in DECIDED), len(requested)
