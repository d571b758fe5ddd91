"""Benchmark for phyrec: one workload, run as a closed loop by one caller
in one process, with no worker pool.

    python3 perfbench/run.py --workload ptr-sub --seed 1 --seconds 25 --trace 0

The workloads (ptr-sub, ptr-q64, asr-q64, conc-deep) are defined, with
the reason for each, in ``workloads.py``.  A run imports the package
from the ``src/`` directory next to this one, sets up three times (each
set-up ending in one untimed warm-up op), then runs ops back to back
until ``--seconds`` have passed, checking each op's output and pooling
the workload's statistical checks over the run.

Standard output holds one line per metric (name, value, unit, note),
the workload's outcome rates, any failed check, and as its last line
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones of BENCHMARK.json:

    setup_s      import time plus the median of the three set-ups
    op_ref_p50   median over ops of the op's time divided by the mean
                 time of the workload's reference computation run just
                 before and just after it (``reference_s``); the op's
                 cost in reference units, in which most of the host's
                 speed swings cancel
    peak_rss_mb  peak resident set size of this process

The wall-clock timings are printed but left out of the JSON object: on
a shared host whose speed swings by up to +-25% for tens of seconds at a
time, their medians spread 11-37% over ten runs of the same code, more
than any bound a check can use.

    op_s_p50     median op time
    ops_per_s    timed ops over their summed time; with one caller in a
                 closed loop this is one over the mean op time
    op_s_tail    the highest percentile with at least ten ops beyond it
                 (the percentile and count are printed with it)
    ref_s_p50    median time of the reference computation

With ``--trace 1`` every layer is wrapped (``tracing.py``) and the
metrics are the per-layer ones.  ``--out FILE`` appends the run's record
and the machine it ran on as one JSON line, for ``compare.py``.
"""

from __future__ import annotations

import os
import time

_START = time.perf_counter()

# One thread per BLAS and OpenMP pool, set before numpy loads: on a few
# shared cores a second pool thread measures the scheduler, not the
# program, and one caller in one process is the benchmark's load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
WORKLOAD_NAMES = ("ptr-sub", "ptr-q64", "asr-q64", "conc-deep")


def import_sources():
    """Import the package from this checkout's sources, never from an
    installed copy; exit with an error when they are missing."""
    if not (SRC / "phyrec" / "__init__.py").is_file():
        sys.exit(f"run.py: no phyrec sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import phyrec
    if Path(phyrec.__file__).resolve().parent != SRC / "phyrec":
        sys.exit(f"run.py: imported phyrec from {phyrec.__file__}, not {SRC}")


def machine() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy"), "blas": blas}


_REF_ARRAYS = None


def reference_s(kind: str) -> float:
    """Seconds taken by a fixed computation that uses no phyrec code:
    ``python`` is an interpreted integer loop (~10 ms on 2 vCPUs);
    ``scatter`` adds interpreted scalar writes at scattered places of a
    512 x 512 array, the pattern of tree_metric's pair loop (~17 ms);
    ``numpy`` is a sort and elementwise arithmetic over 200000 doubles
    (~25 ms)."""
    global _REF_ARRAYS
    import numpy as np
    if _REF_ARRAYS is None:
        rng = np.random.default_rng(0)
        _REF_ARRAYS = rng.random(200_000), np.zeros((512, 512)), rng.random(512)
    flat, mat, vec = _REF_ARRAYS
    t0 = time.perf_counter()
    if kind == "numpy":
        for _ in range(10):
            np.exp(flat) * flat + np.sort(flat)
    else:
        total = 0
        for i in range(100_000):
            total += i * 2 if i % 3 else i
        if kind == "scatter":
            for i in range(10_000):
                u, v = i & 511, (i * 193) & 511
                mat[u, v] = mat[v, u] = vec[u] + vec[v] - 2.0 * vec[u ^ v]
    return time.perf_counter() - t0


def tail(times) -> tuple:
    """(value, percentile, ops beyond it): the highest whole percentile
    from the median up, by nearest rank, with at least ten ops above it;
    with fewer than 20 ops no such percentile exists and the slowest op
    is the tail."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float,
        setup_reps: int = SETUP_REPS) -> dict:
    """Set up, run and check one workload; print its report and return
    the result object (the last line of the report)."""
    import tracing
    import workloads

    wl = workloads.make(name)
    kind = workloads.REFERENCES[name]
    tracer = tracing.Tracer() if trace else None
    notes, printed = {}, {}
    with tracer.installed() if tracer else nullcontext(), wl.hooks():
        setups = []
        for rep in range(setup_reps):
            t0 = time.perf_counter()
            wl.setup(seed)
            wl.op(rep)
            setups.append(time.perf_counter() - t0)
            reference_s(kind)
        if tracer:
            tracer.reset()
        times, failed, problems = [], 0, []
        refs = [reference_s(kind)]   # refs[i] and refs[i + 1] bracket op i
        index = setup_reps
        while True:
            t0 = time.perf_counter()
            try:
                result = tracer.run_op(index, wl.op) if tracer else wl.op(index)
                issues = None
            except Exception:
                issues = ["raised " + traceback.format_exc()]
            elapsed = tracer.op_s(index) if tracer else time.perf_counter() - t0
            if issues is None:
                issues = wl.check(result)
            times.append(elapsed)
            refs.append(reference_s(kind))
            if issues:
                failed += 1
                problems += [f"op {index}: {issue}" for issue in issues]
            index += 1
            if sum(times) >= seconds:
                break
        outcomes, pooled = wl.summary()
        n = len(times)
        if tracer:
            metrics = tracer.metrics(n, times)
            missing = [s for s in wl.expected_spans if metrics[f"{s}.calls"][0] == 0]
            if missing:
                sys.exit(f"run.py: spans that never fired on {name}: {', '.join(missing)}")
        else:
            value, p, beyond = tail(times)
            setup_s = import_s + statistics.median(setups)
            metrics = {"setup_s": (setup_s, "s"),
                       "op_ref_p50": (statistics.median(
                           2.0 * t / (a + b) for t, a, b in zip(times, refs, refs[1:])), "ref"),
                       "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                       / 1024.0, "MB")}
            printed = {"op_s_p50": (statistics.median(times), "s"),
                       "ops_per_s": (n / sum(times), "1/s"), "op_s_tail": (value, "s"),
                       "ref_s_p50": (statistics.median(refs), "s")}
            notes["setup_s"] = (f"import {import_s!r} s + median of set-ups "
                                + ", ".join(repr(s) for s in setups))
            notes["op_s_tail"] = f"p{p} of {n} ops, {beyond} beyond it"
            notes["ref_s_p50"] = f"{kind} reference, run before and after each op"
    print(f"# perfbench {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"machine={json.dumps(machine())}")
    for key, (value, unit) in {**metrics, **printed}.items():
        print(f"{key:<52} {value!r} {unit}  {notes.get(key, '')}".rstrip())
    print(f"{'error_rate':<52} {failed / n!r} ratio  {failed} of {n} ops failed")
    for o in outcomes:
        print(f"{o.name:<52} {o.value!r} {o.unit}  {o.note}")
    for problem in problems + pooled:
        print(f"CHECK FAILED {problem}")
    return {"correct": failed == 0 and not pooled, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "printed": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()},
            "outcomes": {o.name: o.value for o in outcomes}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    import_sources()
    import tracing  # noqa: F401  (imported here so setup_s counts it)
    import workloads  # noqa: F401
    import_s = time.perf_counter() - _START
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    outcomes, printed = result.pop("outcomes"), result.pop("printed")
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "seconds": args.seconds, "trace": args.trace,
                                     "machine": machine(), "outcomes": outcomes,
                                     "printed": printed,
                                     **result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
