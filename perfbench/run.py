"""Benchmark of the testability CLI: one workload per process.

    python3 perfbench/run.py --workload sg-yes --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run builds the package from ``src/`` of the checkout it sits in,
writes the workload's seeded inputs (set-up, done several times and
timed), then calls ``testability.cli.main(argv)`` in process, one call
after the other (a closed loop with one caller), batch after batch,
for as many batches as the first one says fit best in ``--seconds``
(at least two).  Every call's exit code and output are checked against
the recorded expectations.

Every time the run reports is scaled to a nominal host speed by a
reference computation timed around and during the calls (see
calibrate.py), because the host's speed changes by more than the
benchmark's bounds.  With ``--trace 0`` the run reports the end-to-end
metrics: a call's time is its median scaled time over the run's
batches, ``wall_s`` the sum of these over the batch and
``max_analysis_s`` the largest; ``setup_s`` is the median of the
scaled set-ups.  With ``--trace 1`` the run alternates untraced and
traced batches and reports per-layer self times and counters of the
traced ones; the tracing overhead is the traced batches' median wall
time less the untraced ones'.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--workload all`` runs every workload, untraced then traced, each in
its own process, prints all metrics by name and writes the combined
report to ``--report``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate, tracing, workloads  # noqa: E402  (needs ROOT on sys.path)

WORK = HERE / ".work"
SETUP_REPEATS = 15      # a fixed count: each set-up imports anew and adds to peak RSS
MIN_BATCHES = 2         # untraced runs time each call at least twice

E2E_UNITS = {"wall_s": "s", "max_analysis_s": "s", "peak_rss_mb": "MB",
             "decided_ratio": "ratio", "setup_s": "s"}


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "trace.covered_share":
        return "ratio"
    return "count"


def fresh_import():
    """Import the package anew from src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "testability" or m.startswith("testability.")]:
        del sys.modules[name]
    pkg = importlib.import_module("testability")
    importlib.import_module("testability.cli")
    return pkg


class Batch:
    """Timings and outcome of one pass over the invocations."""

    def __init__(self):
        self.times: list[float] = []  # one per invocation, in batch order
        self.during: list[list[float]] = []  # reference times inside each call
        self.gaps: list[list[float]] = []    # ... and between calls, one more
        self.failures: list[str] = []
        self.decided = 0
        self.requested = 0

    @property
    def wall(self) -> float:
        return sum(self.times)

    def scaled(self) -> list[float]:
        """Each call's time at the nominal speed, by the reference times
        taken just before, during and just after it."""
        return [calibrate.scale(t, before + during + after) for t, during, before, after
                in zip(self.times, self.during, self.gaps, self.gaps[1:])]

    def speed_factor(self) -> float:
        """Nominal over the mean reference time between the batch's calls."""
        return calibrate.scale(1.0, [t for gap in self.gaps for t in gap])


def per_call(batches: list[Batch]) -> list[float]:
    """Each invocation's median scaled time over the batches, in batch order."""
    return [statistics.median(times) for times in zip(*(b.scaled() for b in batches))]


def scale_layers(layers: dict[str, float], factor: float) -> dict[str, float]:
    """A traced batch's per-layer figures, times at the nominal speed."""
    unit_power = {"s": 1, "1/s": -1}
    return {name: value * factor ** unit_power.get(_layer_unit(name), 0)
            for name, value in layers.items()}


def run_batch(pkg, batch, expected, speed, tracer=None) -> Batch:
    """Call the CLI once per invocation, back to back; check each result.

    Only the call itself is timed; checking and the reference runs
    between calls are not.  Traced calls run without the reference
    timer, so that it adds nothing to their spans.
    """
    out = Batch()
    out.gaps.append(speed.gap())
    for n, inv in enumerate(batch):
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.invocation = n
        main = pkg.cli.main
        gc.collect()  # each call starts with no garbage, as a fresh process would
        try:
            with (speed.timed(timer=tracer is None) as timing,
                  contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
                rc = main(inv.argv)
        except Exception as exc:  # a crash is a failed call, not a crashed benchmark
            out.failures.append(f"{inv.key}: {type(exc).__name__}: {exc}")
            rc = None
        out.times.append(timing.seconds)
        out.during.append(timing.levels)
        text = stdout.getvalue()
        if rc is not None:
            why = workloads.check_result(inv, rc, text, expected)
            if why:
                out.failures.append(f"{inv.key}: {why} {stderr.getvalue().strip()}")
        decided, requested = workloads.decided_counts(inv, text, expected)
        out.decided += decided
        out.requested += requested
        out.gaps.append(speed.gap())
    return out


def setup(workload, seed, workdir, expected, speed):
    """Set up SETUP_REPEATS times; return the package, the batch and the
    median set-up time (import, input generation, file writing) at the
    nominal speed."""
    timings, gaps = [], [speed.gap()]
    for _ in range(SETUP_REPEATS):
        with speed.timed() as timing:
            pkg = fresh_import()
            batch = workloads.build(workload, seed, workdir, expected)
        timings.append(timing)
        gaps.append(speed.gap())
    # Once more, untimed, with the input facts that the checks compare.
    batch = workloads.build(workload, seed, workdir, expected, facts=True)
    return pkg, batch, statistics.median(
        calibrate.scale(t.seconds, before + t.levels + after)
        for t, before, after in zip(timings, gaps, gaps[1:]))


def measure(args, expected) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    speed = calibrate.Speed()
    try:
        pkg, batch, setup_s = setup(args.workload, args.seed, workdir, expected, speed)
        problems = workloads.check_inputs(batch, expected)
        for inv in batch:
            facts = " ".join(f"{k}={v}" for k, v in inv.facts.items())
            rec = expected["outputs"].get(inv.key, {})
            states = workloads.machine_value(rec.get("stdout", ""), "order.states")
            if states is not None:
                facts += f" oracle_states={states}"
            print(f"input {inv.key}: {facts}".rstrip())
        for p in problems:
            print(f"input problem: {p}")

        batches: list[Batch] = []
        traced: list[tuple[Batch, dict]] = []
        tracer = tracing.Tracer() if args.trace else None
        rounds = 1
        while len(batches) < rounds:
            t0 = time.perf_counter()
            batches.append(run_batch(pkg, batch, expected, speed))
            if tracer is not None:
                tracing.install(tracer, pkg)
                try:
                    b = run_batch(pkg, batch, expected, speed, tracer)
                finally:
                    tracer.restore()
                layers = tracing.batch_layers(tracer, b.wall)
                traced.append((b, scale_layers(layers, b.speed_factor())))
                tracer.reset()
            if len(batches) == 1:
                # As many rounds as make the run last closest to --seconds.
                rounds = max(1 if tracer else MIN_BATCHES,
                             round(args.seconds / (time.perf_counter() - t0)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = batches + [b for b, _ in traced]
    failures = [f for b in runs for f in b.failures]
    for f in failures[:20]:
        print(f"failed: {f}")
    attempted = sum(len(b.times) for b in runs)
    calls = per_call(batches)
    if args.trace:
        metrics = {name: statistics.median(layers[name] for _, layers in traced)
                   for name in traced[0][1]}
        # Both walls scaled by the reference runs between calls only:
        # traced calls run without the timer.
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"] - statistics.median(
            b.wall * b.speed_factor() for b in batches))
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": sum(calls),
            "max_analysis_s": max(calls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "decided_ratio": sum(b.decided for b in runs) / sum(b.requested for b in runs),
            "setup_s": setup_s,
        }
        units = E2E_UNITS
    print(f"workload {args.workload}: seed {args.seed}, {len(batches)} batches of "
          f"{len(batch)} calls, {len(traced)} traced")
    gaps = [t for b in batches for gap in b.gaps for t in gap]
    during = [t for b in batches for call in b.during for t in call]
    print(f"reference: {len(gaps)} runs between calls, mean {statistics.fmean(gaps) * 1e3:.3f} ms; "
          f"{len(during)} during calls, mean {statistics.fmean(during or [0]) * 1e3:.3f} ms; "
          f"nominal {calibrate.NOMINAL_S * 1e3:.3f} ms")
    print("raw batch walls: " + " ".join(f"{b.wall:.3f}" for b in batches))
    print("scaled calls: " + " ".join(f"{t:.3f}" for t in calls))
    print(f"failed_ratio = {len(failures) / attempted} ({len(failures)} of {attempted})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload untraced and traced, one process each."""
    report = {}
    ok = True
    for workload in workloads.WORKLOADS:
        report[workload] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                if not line.startswith("input "):
                    print(f"[{workload} trace={trace}] {line}")
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            report[workload]["traced" if trace else "end_to_end"] = result
    Path(args.report).parent.mkdir(parents=True, exist_ok=True)
    Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {args.report}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="sg-yes, order-search, closure-io, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=str(WORK / "report.json"),
                        help="where --workload all writes its report")
    args = parser.parse_args(argv)

    if not (SRC / "testability" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 64
    WORK.mkdir(exist_ok=True)
    result = measure(args, workloads.load_expected())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
