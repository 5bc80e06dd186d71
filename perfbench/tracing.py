"""Spans and counters at the package's layer boundaries.

The traced run swaps module attributes for timing wrappers from the
benchmark's side; the package's files are not edited.  It wraps the
names callers look up at run time: ``cli.parse_semigroup`` rather than
``io_formats.parse_semigroup``, ``io_formats.check_associativity``,
both modules' ``profile_determines``, and the entries of
``semigroups.PROPERTY_CHECKS``, which graphs shares.

A span records its name, start, end, parent span and the invocation it
belongs to; spans stay in memory until the batch is summarised.  A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    invocation: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.invocation = 0
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counters, args, result)`` after it."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0, stack[-1] if stack else -1,
                        self.invocation)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def patch(self, owner, attr, name: str, count=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a wrapper."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        wrapped = self.wrap(name, original, count) if name else _counting(
            original, self.counters, count)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original, is_dict))

    def restore(self) -> None:
        for owner, attr, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            totals[s.name] += (s.end - s.start) - child[i]
        return totals


def _counting(fn, counters, count):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        count(counters, args, result)
        return result
    return counted


def _add(key, value_of):
    def count(counters, args, result):
        counters[key] += value_of(args, result)
    return count


def _both(*counts):
    def count(counters, args, result):
        for c in counts:
            c(counters, args, result)
    return count


def install(tracer: Tracer, pkg) -> None:
    """Wrap every layer boundary of the imported package ``pkg``."""
    cli, io_formats, model = pkg.cli, pkg.io_formats, pkg.model
    semigroups, graphs = pkg.semigroups, pkg.graphs
    p = tracer.patch

    p(cli, "main", "cli.main")
    p(cli, "parse_graph", "io_formats.parse_graph")
    p(cli, "parse_semigroup", "io_formats.parse_semigroup")
    p(cli, "render_report", "io_formats.render")
    p(cli, "write_graph", "io_formats.write")
    p(cli, "write_semigroup", "io_formats.write")
    p(cli, "graph_direct_product", "products.graph_direct_product")
    p(cli, "semigroup_direct_product", "products.semigroup_direct_product")

    ts_count = _both(_add("graphs.transition_semigroup_calls", lambda a, r: 1),
                     _add("graphs.transition_semigroup_elements",
                          lambda a, r: r.semigroup.element_count))
    p(cli, "transition_semigroup", "graphs.transition_semigroup", ts_count)
    p(graphs, "transition_semigroup", "graphs.transition_semigroup", ts_count)

    oracle_count = _both(_add("oracle.calls", lambda a, r: 1),
                         _add("oracle.states", lambda a, r: r.states),
                         _add("oracle.unknown_calls",
                              lambda a, r: r.status == "unknown"))
    p(graphs, "profile_determines", "oracle.profile_determines", oracle_count)
    p(semigroups, "profile_determines", "oracle.profile_determines", oracle_count)

    p(model.FiniteSemigroup, "__init__", "model.closure",
      _add("model.closure_elements", lambda a, r: a[0].element_count))

    assoc_count = _add("semigroups.associativity_calls", lambda a, r: 1)
    p(io_formats, "check_associativity", "semigroups.associativity", assoc_count)
    checks = semigroups.PROPERTY_CHECKS
    p(checks, semigroups.ASSOCIATIVITY, "semigroups.associativity", assoc_count)
    p(checks, semigroups.APERIODICITY, "semigroups.aperiodicity")
    p(semigroups, "is_aperiodic", "semigroups.aperiodicity")
    for prop in semigroups.LOCAL_PROPERTIES:
        p(checks, prop, "semigroups.local")
    p(checks, semigroups.THRESHOLD_LOCAL_TESTABILITY, "semigroups.ltt")
    p(checks, semigroups.PIECEWISE_TESTABILITY, "semigroups.pt")
    p(checks, semigroups.ONE_TESTABILITY, "semigroups.one_t")
    p(semigroups, "strongly_connected_components", "scc.components")
    # A counter only: idempotents() is cheap and its time belongs to
    # the check that asked for it.
    p(semigroups, "idempotents", "",
      _add("semigroups.idempotents", lambda a, r: len(r)))


# Per-layer metric -> span whose self time it reports.
SPAN_METRICS = {
    "semigroups.ltt_self_s": "semigroups.ltt",
    "semigroups.local_s": "semigroups.local",
    "semigroups.aperiodicity_s": "semigroups.aperiodicity",
    "semigroups.pt_s": "semigroups.pt",
    "semigroups.one_t_s": "semigroups.one_t",
    "scc.components_s": "scc.components",
    "semigroups.associativity_s": "semigroups.associativity",
    "io_formats.parse_semigroup_self_s": "io_formats.parse_semigroup",
    "model.closure_s": "model.closure",
    "graphs.transition_semigroup_s": "graphs.transition_semigroup",
    "io_formats.parse_graph_s": "io_formats.parse_graph",
    "oracle.profile_determines_s": "oracle.profile_determines",
    "products.semigroup_direct_product_s": "products.semigroup_direct_product",
    "products.graph_direct_product_s": "products.graph_direct_product",
    "io_formats.write_s": "io_formats.write",
    "io_formats.render_s": "io_formats.render",
    "cli.main_self_s": "cli.main",
}

COUNTER_METRICS = (
    "semigroups.idempotents", "semigroups.associativity_calls",
    "model.closure_elements", "graphs.transition_semigroup_calls",
    "graphs.transition_semigroup_elements", "oracle.calls", "oracle.states",
    "oracle.unknown_calls",
)


def batch_layers(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """Per-layer self times and counters of one traced batch.

    ``trace.covered_share`` is the share of the traced batch wall time
    spent inside a layer span below ``cli.main``, i.e. not in the CLI's
    own argument handling and glue.
    """
    selfs = tracer.self_times()
    out = {metric: selfs.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    for name in COUNTER_METRICS:
        out[name] = tracer.counters.get(name, 0)
    oracle_s = out["oracle.profile_determines_s"]
    out["oracle.states_per_s"] = out["oracle.states"] / oracle_s if oracle_s else 0.0
    below_main = sum(t for name, t in selfs.items() if name != "cli.main")
    out["trace.covered_share"] = below_main / traced_wall
    out["trace.wall_s"] = traced_wall
    return out
