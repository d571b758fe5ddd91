"""The benchmark's four workloads.

Each op goes through one of the package's public Monte Carlo entry points
(``ptr_success_sweep``, ``asr_outcomes``, ``distance_concentration_check``)
and its inputs derive from the run's seed and the op's index.  Each
workload checks every op's output, and pools its statistical checks
over the run.

Each op is kept under a second (0.2-0.9 s on 2 cores), so that a run's
median is taken over 25-150 ops; ``REFERENCES`` below then takes out
most of the host's speed swings.  This is why ptr-sub is a 64-leaf tree, conc-deep a 256-leaf
one with one trial, and asr-q64 250 roots an op.

The tier-1 test suite's wall time (about 214 s on 2 cores) is
deliberately not a workload: at 22 runs per check it would take over
an hour on its own.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from phyrec import experiments
from phyrec.asr import diluted_state_sets
from phyrec.errors import ReconstructionError
from phyrec.experiments import SweepConfig, asr_outcomes, ptr_success_sweep
from phyrec.metric import distance_concentration_check
from phyrec.model import potts_rate_matrix
from phyrec.tree import homogeneous_phylogeny


def op_seed(seed: int, index: int) -> int:
    """The seed of op ``index`` in a run seeded with ``seed``."""
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0])


def op_rng(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass
class Outcome:
    """A line of the run's report: a named value with its unit."""

    name: str
    value: float
    unit: str
    note: str = ""


class PtrWorkload:
    """One op is one ``ptr_success_sweep`` cell with one trial: sample,
    reconstruct, compare against ``unroot(phy)``.

    A ReconstructionError is a miss, with its level recorded; it is not
    a failed op.  The check recomputes success from the reconstructed
    tree's own adjacency against the dyadic splits of the true tree.
    """

    def __init__(self, name, q, tau, h, k, estimator, l, expected_spans):
        self.name = name
        self.q, self.tau, self.h, self.k = q, tau, h, k
        self.estimator, self.l = estimator, l
        self.expected_spans = expected_spans
        self._seen = None

    def setup(self, seed):
        self.seed = seed
        self.truth = _dyadic_splits(self.h)
        self.misses = {}
        self.successes = 0
        self.trials = 0

    @contextmanager
    def hooks(self):
        """Keep what the sweep's reconstruction returned or raised."""
        original = experiments.reconstruct_homogeneous

        def seen(*args, **kwargs):
            try:
                self._seen = original(*args, **kwargs)
            except ReconstructionError as exc:
                self._seen = exc
                raise
            return self._seen

        experiments.reconstruct_homogeneous = seen
        try:
            yield
        finally:
            experiments.reconstruct_homogeneous = original

    def op(self, index):
        self._seen = None
        cfg = SweepConfig(q_values=(self.q,), tau_values=(self.tau,),
                          h_values=(self.h,), k_values=(self.k,),
                          l_values=(self.l,), estimators=(self.estimator,),
                          trials=1, seed=op_seed(self.seed, index), jobs=1)
        return ptr_success_sweep(cfg), self._seen

    def check(self, result) -> list:
        rows, seen = result
        if len(rows) != 1:
            return [f"expected one sweep row, got {len(rows)}"]
        row = rows[0]
        want = {"q": self.q, "tau": self.tau, "h": self.h, "n": 2 ** self.h,
                "k": self.k, "l": self.l, "estimator": self.estimator, "trials": 1}
        problems = [f"row {key}={row[key]!r}, expected {value!r}"
                    for key, value in want.items() if row[key] != value]
        success = row["successes"]
        if success not in (0, 1) or row["rate"] != success or row["stderr"] != 0.0:
            problems.append(f"inconsistent row {row}")
        if isinstance(seen, ReconstructionError):
            recovered, level = False, seen.level
        elif seen is None:
            return problems + ["the sweep never called reconstruct_homogeneous"]
        else:
            recovered, level = _splits_of(seen) == self.truth, None
        if bool(success) != recovered:
            problems.append(f"sweep reports success={success}, the tree's splits say "
                            f"{recovered}")
        if not problems:
            self.trials += 1
            self.successes += success
            if level is not None:
                self.misses[level] = self.misses.get(level, 0) + 1
        return problems

    def summary(self):
        rate = self.successes / max(1, self.trials)
        by_level = ", ".join(f"level {lv}: {c}" for lv, c in sorted(self.misses.items()))
        outcomes = [Outcome("recovery_rate", rate, "ratio",
                            f"{self.successes} of {self.trials} trials; "
                            f"ReconstructionError by level: {by_level or 'none'}")]
        return outcomes, []


class AsrWorkload:
    """One op is ``asr_outcomes`` for each root estimator at ``roots``
    roots each (the ``asr-eval`` path).

    The diluted estimator's accuracy is checked in expectation over its
    own uniform draw: given the candidate set S of a row with root r it
    is right with probability (1[r in S] + (q - |S| - 1[r not in S]) /
    (q - 1)) / q.  The realized accuracy sits only ~0.003 above 1/q,
    about three standard errors at the ~15000 roots of a run, so a check
    on it would fail on some runs; the expectation is ~50 standard
    errors above 1/q.
    """

    estimators = ("diluted", "majority", "posterior")

    def __init__(self, name, q, tau, h, l, roots, expected_spans):
        self.name = name
        self.q, self.tau, self.h, self.l, self.roots = q, tau, h, l, roots
        self.expected_spans = expected_spans
        self._roots = None
        self._diluted_inputs = []

    def setup(self, seed):
        self.seed = seed
        self.correct = dict.fromkeys(self.estimators, 0)
        self.expected_diluted = 0.0
        self.total = 0

    @contextmanager
    def hooks(self):
        """Keep the roots and leaves each diluted estimate was made from."""
        sample, diluted = experiments.potts_batch_sample, experiments.diluted_estimates

        # Compact copies, so the op's peak memory does not grow by the
        # sampled states kept alive for the check.
        def sampled(*args, **kwargs):
            states = sample(*args, **kwargs)
            self._roots = states[:, 0].copy()
            return states

        def estimated(leaf_batch, *args, **kwargs):
            self._diluted_inputs.append((self._roots, leaf_batch.astype(np.uint8)))
            return diluted(leaf_batch, *args, **kwargs)

        experiments.potts_batch_sample, experiments.diluted_estimates = sampled, estimated
        try:
            yield
        finally:
            experiments.potts_batch_sample, experiments.diluted_estimates = sample, diluted

    def op(self, index):
        self._diluted_inputs = []
        outcomes = {est: asr_outcomes(self.q, self.tau, self.h, self.l, est, self.roots,
                                      op_rng(self.seed, index, e))
                    for e, est in enumerate(self.estimators)}
        return outcomes, self._diluted_inputs

    def check(self, result) -> list:
        outcomes, diluted_inputs = result
        problems = [f"{est}: outcomes are not {self.roots} zeros and ones"
                    for est, out in outcomes.items()
                    if out.shape != (self.roots,) or not np.isin(out, (0, 1)).all()]
        rows = sum(len(roots) for roots, _ in diluted_inputs)
        if rows != self.roots:
            problems.append(f"diluted estimates were made for {rows} roots")
        if not problems:
            self.total += self.roots
            for est, out in outcomes.items():
                self.correct[est] += int(out.sum())
            for roots, leaves in diluted_inputs:
                self.expected_diluted += self._expected_hits(roots, leaves)
        return problems

    def _expected_hits(self, roots, leaves) -> float:
        q = self.q
        chunk = max(1, (1 << 25) // (q * leaves.shape[1]))   # bound the one-hot memory
        total = 0.0
        for start in range(0, len(roots), chunk):
            r = roots[start:start + chunk]
            sets = diluted_state_sets(leaves[start:start + chunk], q, self.l)
            hit = sets[np.arange(len(r)), r].astype(np.int64)
            total += float(np.sum(hit + (q - sets.sum(axis=1) - (1 - hit)) / (q - 1))) / q
        return total

    def summary(self):
        total = max(1, self.total)
        acc = {est: self.correct[est] / total for est in self.estimators}
        expected = self.expected_diluted / total
        outcomes = [Outcome(f"root_acc.{est}", acc[est], "ratio",
                            f"{self.correct[est]} of {self.total} roots")
                    for est in self.estimators]
        outcomes[0].note += f"; {expected:.5f} over the estimator's own draw"
        problems = []
        if not expected > 1.0 / self.q:
            problems.append(f"diluted accuracy over the estimator's own draw "
                            f"{expected:.5f} is not above 1/q = {1.0 / self.q:.5f}")
        if not acc["posterior"] >= acc["majority"]:
            problems.append(f"posterior accuracy {acc['posterior']:.5f} is below "
                            f"majority {acc['majority']:.5f}")
        return outcomes, problems


class ConcentrationWorkload:
    """One op is one ``distance_concentration_check`` on the depth-h
    tree with every edge at ``tau``."""

    REQUIRED = 0.99   # the bar of acceptance check 09

    def __init__(self, name, q, tau, h, k, D, W, delta, trials, expected_spans):
        self.name = name
        self.q, self.tau, self.h, self.k = q, tau, h, k
        self.D, self.W, self.delta, self.trials = D, W, delta, trials
        self.expected_spans = expected_spans

    def setup(self, seed):
        self.seed = seed
        self.phy = homogeneous_phylogeny(self.h, self.tau)
        self.model = potts_rate_matrix(self.q)
        self.counts = self._class_sizes()
        self.hits = {"conc": 0, "near_ungated": 0, "far_gated": 0}
        self.events = {"conc": 0, "near_ungated": 0, "far_gated": 0}

    def _class_sizes(self) -> dict:
        """Pair counts per class, from the closed form of the tree
        metric: leaves at positions a, b are 2 * tau * bitlen(a ^ b)
        apart, and each leaf has 2^(L-1) partners at LCA height L."""
        sizes = {"concentration": 0, "far": 0, "near_gate": 0}
        n = 2 ** self.h
        for height in range(1, self.h + 1):
            d = 2.0 * self.tau * height
            pairs = n * 2 ** (height - 1) // 2
            sizes["concentration"] += pairs * (d < self.D)
            sizes["far"] += pairs * (d > self.D + math.log(self.W))
            sizes["near_gate"] += pairs * (d < self.D + math.log(self.W / 5.0))
        return sizes

    def hooks(self):
        return nullcontext()

    def op(self, index):
        return distance_concentration_check(self.phy, self.model, self.k, self.D,
                                            self.delta, self.trials,
                                            op_rng(self.seed, index), W=self.W)

    def check(self, report) -> list:
        want = {"k": self.k, "D": self.D, "W": self.W, "delta": self.delta,
                "trials": self.trials, "n_leaves": 2 ** self.h}
        problems = [f"report {key}={getattr(report, key)!r}, expected {value!r}"
                    for key, value in want.items() if getattr(report, key) != value]
        if report.counts != self.counts:
            problems.append(f"pair classes {report.counts}, expected {self.counts}")
        rates = {"conc": (report.rate_concentration, "concentration"),
                 "near_ungated": (report.rate_near_ungated, "near_gate"),
                 "far_gated": (report.rate_far_gated, "far")}
        problems += [f"{key} rate {rate!r} is not a probability"
                     for key, (rate, _) in rates.items() if not 0.0 <= rate <= 1.0]
        if not problems:
            for key, (rate, cls) in rates.items():
                events = self.counts[cls] * self.trials
                self.hits[key] += round(rate * events)
                self.events[key] += events
        return problems

    def summary(self):
        rate = {key: self.hits[key] / max(1, self.events[key]) for key in self.hits}
        gate = min(rate["near_ungated"], rate["far_gated"])
        outcomes = [
            Outcome("concentration_rate", rate["conc"], "ratio",
                    f"{self.hits['conc']} of {self.events['conc']} pair-trials"),
            Outcome("gate_rate", gate, "ratio",
                    f"min(near ungated {rate['near_ungated']:.5f}, "
                    f"far gated {rate['far_gated']:.5f})"),
        ]
        problems = [f"{o.name} {o.value:.5f} is below {self.REQUIRED}"
                    for o in outcomes if not o.value >= self.REQUIRED]
        return outcomes, problems


def _dyadic_splits(h: int) -> frozenset:
    """Non-trivial splits of the identity-labelled depth-h tree, each as
    the side without leaf 1: every dyadic block of 2..n/2 labels."""
    n = 2 ** h
    out = set()
    for size in (2 ** s for s in range(1, h)):
        for start in range(1, n + 1, size):
            block = frozenset(range(start, start + size))
            out.add(frozenset(range(1, n + 1)) - block if 1 in block else block)
    return frozenset(out)


def _splits_of(topology) -> frozenset:
    """Non-trivial splits of a Topology, each as the side without leaf 1,
    read from its adjacency alone."""
    adj = topology.adj
    n = len(topology.leaves)
    parent, order, stack = {1: None}, [1], [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
                stack.append(w)
    below = {}
    for v in reversed(order):
        leaves = {v} if v > 0 else set()
        for w in adj[v]:
            if parent.get(w) == v:
                leaves |= below[w]
        below[v] = frozenset(leaves)
    return frozenset(side for side in below.values() if 2 <= len(side) <= n - 2)


_RECONSTRUCTION_SPANS = ("op", "reconstruct.reconstruct_homogeneous",
                         "simulate.sample_alignment", "metric.pairwise_distance_matrix",
                         "reconstruct.quartet_relations", "reconstruct.matching",
                         "reconstruct.internal_sequences")

WORKLOADS = {
    # The paper's subcritical claim (acceptance check 05) and the heavy
    # case for the quartet layer: the C(64,4) scans take ~54% of a trial
    # (sampling and internal sequences ~21% each), and five level sizes
    # cycle through the 4-slot quartet-index cache, so it never hits.
    "ptr-sub": partial(
        PtrWorkload, q=2, tau=0.2, h=6, k=4000, estimator="majority", l=1,
        expected_spans=_RECONSTRUCTION_SPANS + ("tree.topologies_equal",)),
    # Between the two thresholds at q=64, with the CLI's default diluted
    # estimator: sampling (q=64 categorical draws) is the heavy layer and
    # quartets are light.  The only workload on the q>8 per-row distance
    # loop and the diluted internal-sequence estimator.  Every trial
    # currently ends in CherryMatchingError at level 1; the run reports
    # recovery_rate 0 as it is.  Sampling takes ~61% of a trial.
    "ptr-q64": partial(
        PtrWorkload, q=64, tau=0.5, h=6, k=4000, estimator="diluted", l=3,
        expected_spans=_RECONSTRUCTION_SPANS),
    # The ln 2 claim (acceptance check 07) on the asr-eval path: the exact
    # posterior (~55% of an op), diluted state sets and the batch sampler,
    # with no distance or quartet work at all.
    "asr-q64": partial(
        AsrWorkload, q=64, tau=0.5, h=9, l=3, roots=250,
        expected_spans=("op", "simulate.potts_batch_sample",
                        "asr.diluted_estimates", "asr.majority_estimates",
                        "asr.posterior_batch")),
    # The deepest tree of the four (256 leaves; the paper's 2^9 takes ~5 s
    # an op, too few ops per run to give a steady median) and the only
    # caller of tree_metric (~76% of the op).  Its broadcast sampler covers
    # 511 nodes at q=2 against ptr-q64's 127 nodes at q=64, so a sampler
    # change trading per-node overhead for per-state work shows on one of
    # the two.  W=10 keeps all three pair classes non-empty at this depth.
    "conc-deep": partial(
        ConcentrationWorkload, q=2, tau=0.2, h=8, k=4000, D=0.5, W=10.0, delta=0.05, trials=1,
        expected_spans=("op", "simulate.sample_alignment",
                        "metric.pairwise_distance_matrix", "tree.tree_metric")),
}


# The reference computation (``run.reference_s``) each workload's op time
# is divided by for op_ref_p50: the kind whose speed tracked the op's
# best through the host's speed swings of up to +-25% (measured on 2
# vCPUs by timing the kinds around every op for 130-330 s: over 10-25 s
# windows the op's median spread 7-30% raw, 2-5% over the chosen kind
# and 4-14% over the others).
REFERENCES = {"ptr-sub": "python", "ptr-q64": "numpy", "asr-q64": "numpy",
              "conc-deep": "scatter"}


def make(name: str):
    """A fresh workload; each holds the state of one run."""
    return WORKLOADS[name](name)
