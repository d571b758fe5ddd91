"""Spans and counters for the traced run of the benchmark.

Each layer is wrapped under the name its caller looks it up by: the
reconstruction sweep finds ``pairwise_distance_matrix`` in
``phyrec.reconstruct``, so that is the attribute replaced, not the one
in ``phyrec.metric``.  A span is one call across such a boundary; spans
stay in memory until the run ends, and a layer's self time is its
spans' durations minus the parts their child spans cover.

Counters that cost work of their own (open quartets, saturated
distances, argument sizes) run after the wrapped call returns, inside a
``trace.counters`` span.  That span is a child like any other, so its
time leaves every layer's self time, and it is subtracted from the
traced op time, which keeps the tracing overhead measurable on its own.
"""

from __future__ import annotations

import inspect
import math
import re
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from phyrec import experiments, metric, reconstruct
from phyrec.errors import ReconstructionError

OP = "op"
COUNTERS = "trace.counters"
FAIL_LEVELS = range(5)   # h=6 sweeps fail at levels 0..4 (m = 64 .. 4)
_UNFORCED = re.compile(r"leave (\d+) of (\d+) vertices unforced")


def open_quartets(dist: np.ndarray, gate: float) -> int:
    """Quartets whose six distances all pass the diameter gate.

    These are the 4-cliques of the graph {dist <= gate}: for each vertex
    i, the triangles among its neighbours above i, counted as
    sum((B @ B) * B) / 6 over their adjacency matrix B.
    """
    adj = dist <= gate
    np.fill_diagonal(adj, False)
    total = 0
    for i in range(adj.shape[0] - 3):
        up = np.flatnonzero(adj[i, i + 1:]) + i + 1
        if len(up) >= 3:
            sub = adj[np.ix_(up, up)].astype(np.float64)
            total += int(round(float(np.sum((sub @ sub) * sub)) / 6.0))
    return total


class Tracer:
    """Wraps the layers, records spans and counters, and turns them
    into the per-layer metrics of a traced run."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, op]
        self._stack = []
        self.op = -1
        self.counts = Counter()
        self.fail_levels = Counter()

    def reset(self):
        """Forget what the set-up and warm-up ops recorded."""
        self.spans.clear()
        self.counts.clear()
        self.fail_levels.clear()

    def call(self, name, fn, args=(), kwargs=None):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                           self.op])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end

    def run_op(self, index, fn):
        """One timed op under the ``op`` root span, with the quartet
        cache read before and after it, outside every span."""
        self.op = index
        before = reconstruct._all_quartets.cache_info()
        try:
            return self.call(OP, fn, (index,))
        finally:
            after = reconstruct._all_quartets.cache_info()
            self.counts["cache.hits"] += after.hits - before.hits
            self.counts["cache.misses"] += after.misses - before.misses

    def op_s(self, op) -> float:
        """The op's root span, less the counters computed inside it."""
        total = 0.0
        for name, start, end, _, span_op in self.spans:
            if span_op == op:
                if name == OP:
                    total += end - start
                elif name == COUNTERS:
                    total -= end - start
        return total

    @contextmanager
    def installed(self):
        """Replace every layer's function for the duration of the block."""
        patches = []
        try:
            for module, attr, name, after, on_error in _LAYERS:
                original = getattr(module, attr)
                setattr(module, attr, self._wrapper(original, name, after, on_error))
                patches.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def _wrapper(self, original, name, after, on_error):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            try:
                result = self.call(name, original, args, kwargs)
            except ReconstructionError as exc:
                if on_error is not None:
                    self.call(COUNTERS, on_error, (self, exc))
                raise
            if after is not None:
                self.call(COUNTERS, lambda: after(
                    self, signature.bind(*args, **kwargs).arguments, result))
            return result

        traced.__wrapped__ = original
        return traced

    def metrics(self, n_ops: int, op_times) -> dict:
        """Per-layer metrics, per timed op, as (value, unit) pairs."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, busy = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            busy[name] += end - start
        c = self.counts
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (calls[name] / n_ops, "count/op")
            out[f"{name}.self_s"] = (self_s[name] / n_ops, "s/op")
        lookups = c["cache.hits"] + c["cache.misses"]
        out["reconstruct.quartets.scanned"] = (c["quartets.scanned"] / n_ops, "count/op")
        out["reconstruct.quartets.open_ratio"] = (
            _ratio(c["quartets.open"], c["quartets.scanned"]), "ratio")
        out["reconstruct.quartet_cache.hit_ratio"] = (
            _ratio(c["cache.hits"], lookups), "ratio")
        out["reconstruct.quartet_cache.lookups"] = (lookups / n_ops, "count/op")
        out["reconstruct.matching.unforced"] = (c["matching.unforced"] / n_ops, "count/op")
        for level in FAIL_LEVELS:
            out[f"reconstruct.fail_level.{level}"] = (
                self.fail_levels[level] / n_ops, "count/op")
        out["metric.pairwise_distance_matrix.saturated_ratio"] = (
            _ratio(c["distances.saturated"], c["distances.pairs"]), "ratio")
        out["simulate.sample_alignment.node_sites_per_s"] = (
            _ratio(c["sample.node_sites"], busy["simulate.sample_alignment"]), "1/s")
        out["asr.roots_estimated"] = (c["asr.roots"] / n_ops, "count/op")
        out["trace.counter_s"] = (self_s[COUNTERS] / n_ops, "s/op")
        out["trace.op_s_p50"] = (statistics.median(op_times), "s")
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _count_quartets(tracer, args, relations):
    dist = args["dist"]
    m = dist.shape[0]
    tracer.counts["quartets.scanned"] += math.comb(m, 4)
    tracer.counts["quartets.open"] += open_quartets(dist, args["gate"])


def _count_saturated(tracer, args, dist):
    m = dist.shape[0]
    tracer.counts["distances.pairs"] += m * (m - 1)
    tracer.counts["distances.saturated"] += int(np.isinf(dist).sum())


def _count_node_sites(tracer, args, align):
    tracer.counts["sample.node_sites"] += args["phy"].n_nodes * args["k"]


def _count_roots(tracer, args, guesses):
    tracer.counts["asr.roots"] += args["leaf_batch"].shape[0]


def _count_unforced(tracer, exc):
    found = _UNFORCED.search(str(exc))
    if found is None:
        raise RuntimeError(f"unexpected cherry-matching message: {exc}")
    tracer.counts["matching.unforced"] += int(found.group(1))


def _record_fail_level(tracer, exc):
    tracer.fail_levels[exc.level] += 1


# (module that looks the name up, attribute, span, counter after a
# return, counter after a ReconstructionError)
_LAYERS = [
    (experiments, "reconstruct_homogeneous", "reconstruct.reconstruct_homogeneous",
     None, _record_fail_level),
    (experiments, "sample_alignment", "simulate.sample_alignment", _count_node_sites, None),
    (metric, "sample_alignment", "simulate.sample_alignment", _count_node_sites, None),
    (experiments, "potts_batch_sample", "simulate.potts_batch_sample", None, None),
    (reconstruct, "pairwise_distance_matrix", "metric.pairwise_distance_matrix",
     _count_saturated, None),
    (metric, "pairwise_distance_matrix", "metric.pairwise_distance_matrix",
     _count_saturated, None),
    (reconstruct, "_quartet_relations", "reconstruct.quartet_relations",
     _count_quartets, None),
    (reconstruct, "_matching_from_relations", "reconstruct.matching", None, _count_unforced),
    (reconstruct, "reconstruct_internal_sequences", "reconstruct.internal_sequences",
     None, None),
    (experiments, "diluted_estimates", "asr.diluted_estimates", _count_roots, None),
    (experiments, "majority_estimates", "asr.majority_estimates", _count_roots, None),
    (experiments, "_posterior_batch", "asr.posterior_batch", _count_roots, None),
    (metric, "tree_metric", "tree.tree_metric", None, None),
    (experiments, "topologies_equal", "tree.topologies_equal", None, None),
]

SPANS = [OP] + list(dict.fromkeys(name for _, _, name, _, _ in _LAYERS))
