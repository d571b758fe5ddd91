"""Summarise or compare benchmark runs recorded with ``run.py --out``.

    python3 perfbench/run.py ... --out perfbench/results/runs.jsonl   (records)
    python3 perfbench/compare.py RUNS.jsonl
        Per workload and end-to-end metric: the runs' median, quartiles
        and spread (quartile distance over the median) against a third
        of the metric's bound.  Then, per workload with traced runs, the
        tracing overhead: the traced runs' median trace.op_s_p50 less
        the untraced runs' median op_s_p50.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
        Per workload and end-to-end metric: both sides' median and
        quartiles, how far the change's median moved toward worse as a
        share of the parent's, and a verdict against the metric's bound:
          regression  worse by more than the bound
          better      every change run beats every parent run
          unresolved  the parent's own spread exceeds the bound
          ok          none of the above

Both modes print the machines the runs were recorded on.  Quartiles
are those of ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]


def load(path) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def by_workload(records, trace=0) -> dict:
    """workload -> metric -> values, over the runs with this trace flag."""
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r["trace"] == trace:
            for name, m in {**r["metrics"], **r.get("printed", {})}.items():
                out[r["workload"]][name].append(m["value"])
    return out


def stats(values) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def print_machines(*named):
    for label, records in named:
        for m in sorted({json.dumps(r["machine"], sort_keys=True) for r in records}):
            print(f"# {label} machine {m}")
        bad = sum(not r["correct"] for r in records)
        print(f"# {label}: {len(records)} runs, {bad} with correct=false")


def summarise(records):
    print_machines(("runs", records))
    runs = by_workload(records)
    print(f"{'workload':<10} {'metric':<12} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound/3':>8}")
    for workload, values in runs.items():
        for spec in METRICS:
            vals = values.get(spec["name"])
            if not vals:
                continue
            med, q1, q3 = stats(vals)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < spec["bound"] / 3 else "wide"
            print(f"{workload:<10} {spec['name']:<12} {len(vals):>3} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {spread:>8.2%} {spec['bound'] / 3:>8.2%} "
                  f"{verdict}")
    traced = by_workload(records, trace=1)
    for workload, values in traced.items():
        if workload in runs and values.get("trace.op_s_p50"):
            on = statistics.median(values["trace.op_s_p50"])
            off = statistics.median(runs[workload]["op_s_p50"])
            print(f"tracing overhead {workload}: {on - off:+.6f} s per op "
                  f"({(on - off) / off:+.2%} of untraced op_s_p50 {off:.6f} s; "
                  f"{len(values['trace.op_s_p50'])} traced runs)")


def compare(parent, change):
    print_machines(("parent", parent), ("change", change))
    before, after = by_workload(parent), by_workload(change)
    print(f"{'workload':<10} {'metric':<12} {'parent median [q1, q3]':>38} "
          f"{'change median [q1, q3]':>38} {'worse by':>9} {'bound':>6}  verdict")
    for workload in before:
        for spec in METRICS:
            p, c = before[workload].get(spec["name"]), after[workload].get(spec["name"])
            if not p or not c:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            pm, p1, p3 = stats(p)
            cm, c1, c3 = stats(c)
            worse = sign * (cm - pm) / pm
            if worse > spec["bound"]:
                verdict = "regression"
            elif all(sign * x < sign * y for x in c for y in p):
                verdict = "better"
            elif (p3 - p1) / pm > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<10} {spec['name']:<12} "
                  f"{f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':>38} "
                  f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>38} "
                  f"{worse:>+9.2%} {spec['bound']:>6.0%}  {verdict}")


def main(argv):
    if len(argv) == 1:
        summarise(load(argv[0]))
    elif len(argv) == 2:
        compare(load(argv[0]), load(argv[1]))
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
