"""Tests of the benchmark's own generators, checkers, tracer and clock.

    PYTHONPATH=src python3 -m pytest perfbench -q

The generators are checked against the package they feed, the input
sizes against the workload design, and the checkers against outputs
altered on purpose.
"""

from __future__ import annotations

import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import testability as T  # noqa: E402
from testability import cli as T_cli  # noqa: E402

from perfbench import calibrate, inputs, tracing, workloads  # noqa: E402

EXPECTED = workloads.load_expected()


def _sg(rows) -> T.FiniteSemigroup:
    return T.FiniteSemigroup(rows)


def _graph(delta) -> T.TransitionGraph:
    return T.TransitionGraph(len(delta[0]), len(delta), tuple(map(tuple, delta)))


def _graph_fold(delta):
    maps = [tuple(row[c] for row in delta) for c in range(len(delta[0]))]
    return T.identity_map(len(delta)), lambda tr, c: T.compose(tr, maps[c])


# --- generators against the package ---------------------------------------

@pytest.mark.parametrize("p,q,m,n", [(2, 4, 8, 64), (3, 3, 8, 72), (4, 4, 8, 128)])
def test_band_chain_matches_package_product(p, q, m, n):
    rows = inputs.semigroup_product(inputs.rectangular_band(p, q), inputs.min_chain(m))
    band = _sg(inputs.rectangular_band(p, q))
    chain = _sg(inputs.min_chain(m))
    assert list(map(list, T.semigroup_direct_product(band, chain).cayley)) == rows
    assert (len(rows), len(rows[0])) == (n, n)
    assert workloads.KNOWN_SIZES[f"sg-yes/band{p}x{q}-chain{m}"] == (n, n)


def test_free_semilattice_shape_and_verdicts():
    rows = inputs.free_semilattice(6)
    s = T.parse_semigroup(inputs.semigroup_text(rows))
    assert (s.element_count, s.generator_count) == (63, 6)
    report = T.analyze_semigroup(s)
    assert all(v.holds == T.YES for v in report.verdicts)


def test_own_closure_and_products_match_package():
    s1, s2 = workloads.closure_factors()
    for delta in (inputs.random_dfa(random.Random(179), 4),
                  inputs.random_dfa(random.Random(154), 4),
                  workloads.pool_dfa(148), workloads.CANARY_GRAPH):
        rows = inputs.transition_semigroup(delta)
        package = T.transition_semigroup(_graph(delta)).semigroup
        assert list(map(list, package.cayley)) == rows
    product = inputs.semigroup_product(s1, s2)
    assert list(map(list, T.semigroup_direct_product(_sg(s1), _sg(s2)).cayley)) == product
    assert (len(product), len(product[0])) == workloads.KNOWN_SIZES["closure-io/n500"]
    g200, _ = workloads.closure_graphs()
    assert T.graph_direct_product(_graph(g200), _graph(g200)) == \
        _graph(inputs.graph_product(g200, g200))


def test_closure_graph_sizes():
    g200, g3 = workloads.closure_graphs()
    assert len(inputs.transition_semigroup(g200)) == workloads.G40K_SEMIGROUP_ELEMENTS
    assert len(inputs.transition_semigroup(g3)) == workloads.G3_SEMIGROUP_ELEMENTS


def test_full_table_and_idempotents():
    rows = inputs.semigroup_product(*workloads.closure_factors())
    assert [list(r) for r in _sg(rows).product] == inputs.full_table(rows)
    assert inputs.idempotent_count(rows) == len(T.idempotents(_sg(rows)))
    with pytest.raises(ValueError):
        inputs.full_table([[0, 0], [0, 0], [2, 2]])


def test_relabelings_are_isomorphic():
    rng = random.Random(5)
    for rows in (inputs.free_semilattice(4),
                 inputs.semigroup_product(*workloads.closure_factors())):
        new = inputs.relabel_semigroup(rows, rng)
        s = T.parse_semigroup(inputs.semigroup_text(new))  # runs Light's test
        assert s.generator_count == len(rows[0])
        assert inputs.idempotent_count(new) == inputs.idempotent_count(rows)
    g200, _ = workloads.closure_graphs()
    new = inputs.relabel_graph(g200, rng)
    assert new != g200
    assert inputs.transition_semigroup(new) == inputs.transition_semigroup(g200)


def test_d_ab_like_inputs_reach_74461_states_at_k4():
    d_ab = [[1, 2], [2, 0], [2, 2]]
    res = T.profile_determines(*_graph_fold(d_ab), 2, 4, 1, workloads.BUDGET)
    assert (res.status, res.states) == ("yes", 74_461)
    found4 = workloads.order_heavy(EXPECTED["pools"])[:2]
    for i, path in found4:
        for v in range(workloads.VARIANTS):
            stdout = EXPECTED["outputs"][f"order-search/dfa{i}/{path}/v{v}"]["stdout"]
            assert workloads.machine_value(stdout, "order.k") == "4"
            assert workloads.machine_value(stdout, "order.states") == "74461"


# --- batches and recorded expectations ------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batches_are_seeded_and_recorded(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path / "a", EXPECTED, facts=True)
    again = workloads.build(workload, 7, tmp_path / "b", EXPECTED, facts=True)
    other = workloads.build(workload, 8, tmp_path / "c", EXPECTED, facts=True)
    assert [i.key for i in first] == [i.key for i in again]
    assert [i.input_sha256 for i in first] == [i.input_sha256 for i in again]
    assert [i.key for i in first] != [i.key for i in other]
    assert workloads.check_inputs(first, EXPECTED) == []


def test_order_search_mix(tmp_path):
    pools = EXPECTED["pools"]
    assert all(len(pools[c]) >= n for c, n in workloads.ORDER_MIX.items())
    i, path = workloads.order_heavy(pools)[2]
    for v in range(workloads.VARIANTS):
        stdout = EXPECTED["outputs"][f"order-search/dfa{i}/{path}/v{v}"]["stdout"]
        assert workloads.machine_value(stdout, "order.status") == "unknown"
    batch = workloads.build("order-search", 3, tmp_path, EXPECTED)
    order = [inv for inv in batch if not inv.key.startswith("canary/")]
    assert len(order) == 3 + sum(workloads.ORDER_MIX.values())
    assert sum("/semigroup/" in inv.key for inv in order) == len(order) // 4


def test_sg_yes_recorded_verdicts_match_construction():
    for key, rec in EXPECTED["outputs"].items():
        if key.startswith("sg-yes/"):
            assert workloads.answers(rec["stdout"]) == \
                workloads.KNOWN_VERDICTS[key.split("/")[1]]


# --- checkers -------------------------------------------------------------

def _canary(tmp_path):
    return workloads.canary_invocations(workloads._Writer(tmp_path))


def test_check_result_accepts_recorded_and_rejects_changed_output(tmp_path):
    analyze = _canary(tmp_path)[0]
    stdout = "source = x\n" + EXPECTED["outputs"][analyze.key]["stdout"]
    assert workloads.check_result(analyze, 0, stdout, EXPECTED) is None
    assert workloads.check_result(analyze, 2, stdout, EXPECTED) == "exit code 2"
    changed = stdout.replace("witness = 0 2", "witness = 0 3")
    assert changed != stdout
    assert "differs" in workloads.check_result(analyze, 0, changed, EXPECTED)


def test_check_result_on_written_files(tmp_path):
    product = _canary(tmp_path)[3]
    assert T_cli.main(product.argv) == 0
    assert workloads.check_result(product, 0, "", EXPECTED) is None
    Path(product.output).write_text("1 1\n0\n")
    assert "differs" in workloads.check_result(product, 0, "", EXPECTED)


def test_decided_counts_unknown_against_the_ratio(tmp_path):
    i, path = workloads.order_heavy(EXPECTED["pools"])[2]
    inv = workloads.order_invocation(workloads._Writer(tmp_path), i, path, 5)
    stdout = EXPECTED["outputs"][inv.key]["stdout"]
    decided, requested = workloads.decided_counts(inv, stdout, EXPECTED)
    assert requested == len(workloads.PROPERTIES) + 1
    assert decided == requested - 1


def test_check_inputs_reports_drift(tmp_path):
    batch = workloads.build("sg-yes", 1, tmp_path, EXPECTED, facts=True)
    batch[0].input_sha256 = "0" * 64
    batch[1].facts = dict(batch[1].facts, idempotents=1)
    problems = workloads.check_inputs(batch, EXPECTED)
    assert len(problems) == 2


# --- tracing --------------------------------------------------------------

def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.01)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        traced_inner()
        traced_inner()

    tracer.wrap("outer", outer)()
    outer_span = tracer.spans[0]
    selfs = tracer.self_times()
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert selfs["inner"] >= 0.02
    assert selfs["outer"] + selfs["inner"] == pytest.approx(
        outer_span.end - outer_span.start)


def test_install_and_restore_leave_the_package_unchanged(tmp_path):
    import testability.graphs as graphs
    import testability.semigroups as semigroups
    before = (T_cli.main, graphs.transition_semigroup,
              dict(semigroups.PROPERTY_CHECKS), T.FiniteSemigroup.__init__)
    tracer = tracing.Tracer()
    tracing.install(tracer, T)
    analyze = _canary(tmp_path)[0]
    assert T_cli.main(analyze.argv) == 0
    tracer.restore()
    after = (T_cli.main, graphs.transition_semigroup,
             dict(semigroups.PROPERTY_CHECKS), T.FiniteSemigroup.__init__)
    assert after == before
    layers = tracing.batch_layers(tracer, 1.0)
    assert layers["oracle.calls"] == 2 and layers["oracle.states"] > 0
    assert layers["graphs.transition_semigroup_calls"] == 1
    assert layers["semigroups.idempotents"] > 0
    assert layers["semigroups.ltt_self_s"] > 0
    assert {s.name for s in tracer.spans} >= {"cli.main", "io_formats.parse_graph",
                                             "semigroups.ltt", "model.closure"}


def test_run_fails_without_package_source(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for f in (ROOT / "perfbench").iterdir():
        if f.is_file():
            (bare / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sg-yes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    import json
    from perfbench import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layers = (set(tracing.SPAN_METRICS) | set(tracing.COUNTER_METRICS)
              | {"oracle.states_per_s", "trace.covered_share", "trace.wall_s",
                 "trace.overhead_s"})
    assert {m["name"] for m in spec["per_layer"]} == layers
    assert all(run._layer_unit(m["name"]) == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_per_call_takes_each_calls_median_scaled_time_over_batches():
    from perfbench import run
    batches = []
    # The third batch ran on a host half as fast: its times scale to 2.5, 1.2, 0.6.
    for times, slowdown in (([3.0, 1.0, 0.5], 1), ([2.0, 1.5, 0.4], 1), ([5.0, 2.4, 1.2], 2)):
        b = run.Batch()
        b.times = times
        level = [slowdown * calibrate.NOMINAL_S]
        b.during = [level] * 3
        b.gaps = [level] * 4
        batches.append(b)
    assert run.per_call(batches) == pytest.approx([2.5, 1.2, 0.5])
    assert batches[2].speed_factor() == pytest.approx(0.5)


def test_scaled_layers_keep_counts():
    from perfbench import run
    layers = {"oracle.profile_determines_s": 2.0, "oracle.states_per_s": 100.0,
              "oracle.states": 200.0, "trace.covered_share": 0.9}
    assert run.scale_layers(layers, 0.5) == pytest.approx(
        {"oracle.profile_determines_s": 1.0, "oracle.states_per_s": 200.0,
         "oracle.states": 200.0, "trace.covered_share": 0.9})


def test_reference_and_its_timer_runs_are_taken_out_of_the_call():
    assert calibrate.reference() == calibrate.ELEMENTS
    assert calibrate.scale(3.0, [2 * calibrate.NOMINAL_S] * 4) == pytest.approx(1.5)
    speed = calibrate.Speed()
    assert len(speed.gap()) >= 1
    handler = signal.getsignal(signal.SIGALRM)
    with speed.timed() as timing:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(timing.levels) >= 3
    assert 0 < timing.seconds < 0.3 + 0.01 - sum(timing.levels)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    with speed.timed(timer=False) as untimed:
        time.sleep(0.12)
    assert untimed.levels == [] and untimed.seconds >= 0.12
