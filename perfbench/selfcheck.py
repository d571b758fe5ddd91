"""Self-check of the benchmark, about ten seconds on 2 cores.

    python3 perfbench/selfcheck.py

Checks the open-quartet counter against brute force and the tail
percentile rule, then runs one set-up and one op of every workload in
both modes and asserts that every metric of BENCHMARK.json, the
printed-only timings and every outcome rate print with their units.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from itertools import combinations

import run

OUTCOMES = {"ptr-sub": ["recovery_rate"], "ptr-q64": ["recovery_rate"],
            "asr-q64": ["root_acc.diluted", "root_acc.majority", "root_acc.posterior"],
            "conc-deep": ["concentration_rate", "gate_rate"]}


def check_open_quartets():
    import numpy as np
    import tracing
    rng = np.random.default_rng(0)
    for m in (4, 7, 12, 20):
        dist = rng.uniform(0.0, 3.0, (m, m))
        dist = dist + dist.T
        saturated = rng.random((m, m)) < 0.1
        dist[saturated | saturated.T] = math.inf
        np.fill_diagonal(dist, 0.0)
        for gate in (0.0, 2.5, 4.0, 6.0):
            brute = sum(all(dist[a, b] <= gate for a, b in combinations(quad, 2))
                        for quad in combinations(range(m), 4))
            assert tracing.open_quartets(dist, gate) == brute, (m, gate)


def check_tail():
    assert run.tail(list(range(100))) == (89, 90, 10)
    assert run.tail(list(range(20))) == (9, 50, 10)
    assert run.tail(list(range(19))) == (18, 100, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


def check_workload(name, trace, spec):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.run(name, seed=0, seconds=0, trace=trace, import_s=0.0, setup_reps=1)
    report = buf.getvalue()
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {key: m["unit"] for key, m in result["metrics"].items()}
    assert got == want, f"{name} trace={trace}: metrics {sorted(got)} != {sorted(want)}"
    assert result["attempted"] == 1 and result["failed"] == 0, (name, trace, report)
    units = dict(want, error_rate="ratio", **dict.fromkeys(OUTCOMES[name], "ratio"))
    if not trace:
        units.update(op_s_p50="s", ops_per_s="1/s", op_s_tail="s", ref_s_p50="s")
    for metric, unit in units.items():
        line = rf"^{re.escape(metric)}\s+\S+ {re.escape(unit)}(\s|$)"
        assert re.search(line, report, re.M), f"{name}: no line for {metric} in {unit}"
    print(f"ok {name} trace={int(trace)}: {len(units)} metrics with units")


def main():
    run.import_sources()
    import workloads
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == set(OUTCOMES)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    check_open_quartets()
    check_tail()
    print("ok open-quartet counter and tail percentile")
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            check_workload(name, trace, spec)


if __name__ == "__main__":
    main()
