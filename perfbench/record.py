"""Record the expected output of every invocation a seed can pick.

    PYTHONPATH=src python3 -m perfbench.record

Takes about six minutes on one core.  Run it only at a commit
whose output is known to be right: later commits must reproduce the
recorded verdicts, witnesses and written files byte for byte.  It also
fills the order-search pool classes by running the profile oracle on
candidate DFAs and counting the states it visits over all k.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from testability import compose, identity_map, profile_determines
from testability.cli import main as cli_main

from . import inputs
from .workloads import (BUDGET, EXPECTED_PATH, KMAX, _Writer, check_result,
                        every_invocation, pool_dfa, sha256, strip_source)

WORK = Path(__file__).with_name(".work")
CANDIDATES = 3000
MAX_ELEMENTS = 100  # keeps --props all small next to the order search
QUOTAS = {"found4": 2, "unknown": 1, "medium": 24, "cheap": 96}


def _order_states(initial, step, letters: int) -> tuple[str, int | None, int]:
    """(status, k, profile states over every k tried) of an order search."""
    total = 0
    for k in range(1, KMAX + 1):
        res = profile_determines(initial, step, letters, k, 1, BUDGET)
        total += res.states
        if res.status == "yes":
            return "found", k, total
        if res.status == "unknown":
            return "unknown", k, total
    return "none", None, total


def _graph_fold(delta):
    maps = [tuple(row[c] for row in delta) for c in range(len(delta[0]))]
    return identity_map(len(delta)), lambda tr, c: compose(tr, maps[c]), len(maps)


def _semigroup_fold(delta):
    rows = inputs.transition_semigroup(delta)
    return None, lambda v, j: j if v is None else rows[v][j], len(rows[0])


def classify(i: int) -> str | None:
    delta = pool_dfa(i)
    if len(inputs.transition_semigroup(delta)) > MAX_ELEMENTS:
        return None
    letters = len(delta[0])
    status, k, total = _order_states(*_graph_fold(delta))
    if status == "unknown":
        return "unknown" if letters == 2 and total <= BUDGET + 5_000 else None
    if letters == 3:
        return "medium" if 14_000 <= total <= 15_500 else None
    if status == "found" and k == 4:
        return "found4" if _order_states(*_semigroup_fold(delta))[:2] == ("found", 4) else None
    if total < 5_000 and _order_states(*_semigroup_fold(delta))[2] < 5_000:
        return "cheap"
    return None


def build_pools() -> dict[str, list[int]]:
    pools: dict[str, list[int]] = {name: [] for name in QUOTAS}
    for i in range(CANDIDATES):
        cls = classify(i)
        if cls is not None and len(pools[cls]) < QUOTAS[cls]:
            pools[cls].append(i)
            print(f"pool {cls}: dfa{i}", file=sys.stderr, flush=True)
        if all(len(pools[c]) >= q for c, q in QUOTAS.items()):
            return pools
    raise SystemExit(f"pool quotas not met within {CANDIDATES} candidates: "
                     + ", ".join(f"{c} {len(v)}" for c, v in pools.items()))


def record(invocations) -> dict:
    """Run each invocation once; return its expected.json entries."""
    outputs = {}
    for inv in invocations:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli_main(inv.argv)
        entry: dict = {}
        if inv.output is None:
            entry["stdout"] = strip_source(stdout.getvalue())
        elif inv.same_as is None:
            entry["output_sha256"] = sha256(Path(inv.output).read_text())
        if inv.input_sha256:
            entry["input_sha256"] = inv.input_sha256
        if inv.facts:
            entry["facts"] = inv.facts
        recorded = {inv.key: entry} if inv.same_as is None else {}
        why = check_result(inv, rc, stdout.getvalue(), {"outputs": recorded})
        if why:
            raise SystemExit(f"{inv.key}: {why}")
        outputs.update(recorded)
        print(f"recorded {inv.key}", file=sys.stderr, flush=True)
    return outputs


def main() -> int:
    pools = build_pools()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=WORK))
    try:
        outputs = record(every_invocation(_Writer(workdir), pools))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = {"pools": pools, "outputs": outputs}
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
