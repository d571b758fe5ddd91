"""Monte Carlo drivers: success sweeps, accuracy sweeps, probes.

Reproducibility contract: every cell of a sweep derives its generator
from the master seed and the cell's grid coordinates through
``cell_rng``, so cells can be re-run or distributed in any order and
still produce identical numbers.  CSV rows are appended one at a time
and flushed, and finished cells are skipped when a sweep is resumed on
an existing output file.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .asr import diluted_estimates, majority_estimates, _posterior_batch
from .errors import ReconstructionError
from .model import potts_rate_matrix
from .reconstruct import (ReconstructionParams, auto_reconstruction_params,
                          reconstruct_homogeneous)
from .simulate import (exact_leaf_distribution, potts_batch_sample,
                       sample_alignment)
from .tree import (Phylogeny, homogeneous_phylogeny,
                   random_homogeneous_phylogeny, topologies_equal, unroot)

PTR_FIELDS = ["q", "tau", "h", "n", "k", "l", "estimator", "trials",
              "successes", "rate", "stderr", "seconds"]
ASR_FIELDS = ["estimator", "q", "tau", "h", "l", "trials", "successes",
              "accuracy", "stderr"]


def cell_rng(master_seed: int, *key) -> np.random.Generator:
    """Generator for one grid cell: the master seed spawned at the cell's
    coordinates.  Same seed + same key = same stream, on any host."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


@dataclass
class SweepConfig:
    """Grid and bookkeeping for the sweep drivers.

    ``estimators`` selects the internal-sequence estimator for topology
    sweeps ("diluted"/"majority") and the root estimator for accuracy
    sweeps ("diluted"/"majority"/"posterior"/"uniform").
    """

    q_values: tuple
    tau_values: tuple
    h_values: tuple
    k_values: tuple = (1000,)
    l_values: tuple = (1,)
    estimators: tuple = ("diluted",)
    trials: int = 50
    seed: int = 0
    out: str | None = None
    jobs: int = 1
    D: float | None = None       # None: fitted per cell (auto_reconstruction_params)
    W: float = 5.5
    f_min: float | None = None   # None: 2.5 * the cell's tau
    length_range: tuple | None = None  # (f, g): random per-edge lengths
    comments: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for name in ("q_values", "tau_values", "h_values", "k_values", "l_values"):
            if not tuple(getattr(self, name)):
                raise ValueError(f"{name} must be non-empty")
        if any(q < 2 for q in self.q_values):
            raise ValueError("alphabet sizes must be >= 2")
        if any(h < 1 for h in self.h_values):
            raise ValueError("depths must be >= 1")
        if any(k < 1 for k in self.k_values):
            raise ValueError("sequence lengths must be >= 1")


def _params_for(cfg: SweepConfig, tau: float, k: int, l: int,
                estimator: str) -> ReconstructionParams:
    g = tau if cfg.length_range is None else cfg.length_range[0]
    return auto_reconstruction_params(max(g, 1e-6), k, l=l, W=cfg.W,
                                      estimator=estimator, f_min=cfg.f_min,
                                      D=cfg.D)


def pipeline_trial(phy: Phylogeny, model, k: int,
                   params: ReconstructionParams, rng):
    """One sample-then-reconstruct trial: a k-site alignment on ``phy``
    and the topology rebuilt from it, or None when reconstruction fails.
    Both steps draw from ``rng``, sampling first."""
    align = sample_alignment(phy, model, k, rng)
    try:
        return reconstruct_homogeneous(align, model.q, params, rng)
    except ReconstructionError:
        return None


def _ptr_cell(cfg: SweepConfig, index: int, q, tau, h, k, l, estimator) -> dict:
    t0 = time.perf_counter()
    model = potts_rate_matrix(q)
    params = _params_for(cfg, tau, k, l, estimator)
    successes = 0
    for trial in range(cfg.trials):
        rng = cell_rng(cfg.seed, index, trial)
        if cfg.length_range is not None:
            f, g = cfg.length_range
            phy = random_homogeneous_phylogeny(h, f, g, rng)
        else:
            phy = homogeneous_phylogeny(h, tau)
        result = pipeline_trial(phy, model, k, params, rng)
        if result is not None:
            successes += int(topologies_equal(result, unroot(phy)))
    rate = successes / cfg.trials
    return {"q": q, "tau": tau, "h": h, "n": 2 ** h, "k": k, "l": l,
            "estimator": estimator, "trials": cfg.trials,
            "successes": successes, "rate": rate,
            "stderr": math.sqrt(rate * (1 - rate) / cfg.trials),
            "seconds": round(time.perf_counter() - t0, 3)}


def _ptr_cell_packed(args):
    return _ptr_cell(*args)


def ptr_success_sweep(cfg: SweepConfig) -> list[dict]:
    """Topology-reconstruction success rate over the (q, tau, h, k) grid.

    A trial succeeds when the reconstructed topology equals the true
    unrooted one; reconstruction failures score as misses.  Rows are
    appended to ``cfg.out`` (resumable) when set, and returned.
    """
    cells = [(index, q, tau, h, k, l, est)
             for index, (q, tau, h, k, l, est) in enumerate(
                 product(cfg.q_values, cfg.tau_values, cfg.h_values,
                         cfg.k_values, cfg.l_values, cfg.estimators))]
    key_of = lambda row: (str(row["q"]), str(row["tau"]), str(row["h"]),
                          str(row["k"]), str(row["l"]), str(row["estimator"]))
    done = _load_done(cfg.out, PTR_FIELDS, key_of)
    todo = [c for c in cells
            if (str(c[1]), str(c[2]), str(c[3]), str(c[4]), str(c[5]), str(c[6])) not in done]
    rows = []
    if cfg.jobs > 1 and len(todo) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            for row in pool.map(_ptr_cell_packed,
                                [(cfg, *cell) for cell in todo]):
                rows.append(row)
                _append_row(cfg.out, PTR_FIELDS, row, cfg.comments)
    else:
        for cell in todo:
            row = _ptr_cell(cfg, *cell)
            rows.append(row)
            _append_row(cfg.out, PTR_FIELDS, row, cfg.comments)
    return rows


def asr_outcomes(q: int, tau: float, h: int, l: int, estimator: str,
                 trials: int, rng, batch: int = 4000) -> np.ndarray:
    """Per-trial 0/1 root-recovery outcomes for one estimator and depth."""
    phy = homogeneous_phylogeny(h, tau)
    model = potts_rate_matrix(q) if estimator == "posterior" else None
    out = np.empty(trials, dtype=np.int8)
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        states = potts_batch_sample(phy, q, b, rng)
        roots = states[:, 0]
        leaves = states[:, phy.first_leaf:]
        if estimator == "diluted":
            guesses = diluted_estimates(leaves, q, l, rng)
        elif estimator == "majority":
            guesses = majority_estimates(leaves, q, rng)
        elif estimator == "posterior":
            guesses = np.argmax(_posterior_batch(phy, model, leaves), axis=1)
        elif estimator == "uniform":
            guesses = rng.integers(q, size=b)
        else:
            raise ValueError(f"unknown estimator {estimator!r}")
        out[done:done + b] = guesses == roots
        done += b
    return out


def asr_accuracy_sweep(cfg: SweepConfig) -> list[dict]:
    """Root-estimation accuracy over (estimator, q, tau, h, l) cells."""
    cells = [(index, est, q, tau, h, l)
             for index, (est, q, tau, h, l) in enumerate(
                 product(cfg.estimators, cfg.q_values, cfg.tau_values,
                         cfg.h_values, cfg.l_values))]
    key_of = lambda row: (str(row["estimator"]), str(row["q"]), str(row["tau"]),
                          str(row["h"]), str(row["l"]))
    done = _load_done(cfg.out, ASR_FIELDS, key_of)
    rows = []
    for index, est, q, tau, h, l in cells:
        if (str(est), str(q), str(tau), str(h), str(l)) in done:
            continue
        rng = cell_rng(cfg.seed, index)
        outcomes = asr_outcomes(q, tau, h, l, est, cfg.trials, rng)
        acc = float(outcomes.mean())
        row = {"estimator": est, "q": q, "tau": tau, "h": h, "l": l,
               "trials": cfg.trials, "successes": int(outcomes.sum()),
               "accuracy": acc,
               "stderr": math.sqrt(acc * (1 - acc) / cfg.trials)}
        rows.append(row)
        _append_row(cfg.out, ASR_FIELDS, row, cfg.comments)
    return rows


def bootstrap_decreasing_probability(outcome_vectors, n_boot: int, rng) -> float:
    """Probability, over bootstrap resamples of each depth's outcomes,
    that the resampled accuracies are strictly decreasing in order."""
    hits = 0
    means = []
    for _ in range(n_boot):
        means.clear()
        for vec in outcome_vectors:
            vec = np.asarray(vec)
            means.append(vec[rng.integers(len(vec), size=len(vec))].mean())
        hits += all(means[i] > means[i + 1] for i in range(len(means) - 1))
    return hits / n_boot


# ---------------------------------------------------------------------------
# Distinguishability probe


@dataclass
class ProbeResult:
    method: str
    depth: int
    k: int
    trials: int
    success: float
    tv: float | None = None   # exact method only


def _competing_pair(q: int, tau: float, depth: int, relabel=None):
    """The two candidate phylogenies: identity labels versus the deep
    quartet swap (second and third quarter blocks exchanged)."""
    if depth < 2:
        raise ValueError("the probe needs depth >= 2")
    n = 2 ** depth
    phy1 = homogeneous_phylogeny(depth, tau)
    if relabel is None:
        labels = np.arange(1, n + 1)
        quarter = n // 4
        block_b = labels[quarter:2 * quarter].copy()
        labels[quarter:2 * quarter] = labels[2 * quarter:3 * quarter]
        labels[2 * quarter:3 * quarter] = block_b
    else:
        labels = np.asarray(relabel)
    phy2 = Phylogeny(depth, phy1.edge_tau.copy(), labels)
    return phy1, phy2


def distinguishability_probe(q: int, tau: float, depth: int, k: int,
                             trials: int, rng, method: str = "exact",
                             params: ReconstructionParams | None = None,
                             relabel=None) -> ProbeResult:
    """How well can data of length k tell two topologies apart?

    The competing topologies differ by a quartet swap at the root.  The
    exact method computes the total-variation distance between the two
    leaf laws and scores the exact likelihood-ratio test on simulated
    k-site data; the pipeline method scores full reconstruction runs
    (the output must match the generating topology and not the rival).
    """
    phy1, phy2 = _competing_pair(q, tau, depth, relabel)
    model = potts_rate_matrix(q)
    if method == "exact":
        p1 = exact_leaf_distribution(phy1, model)
        p2 = exact_leaf_distribution(phy2, model)
        tv = 0.5 * float(np.abs(p1 - p2).sum())
        flat1, flat2 = np.log(p1.reshape(-1)), np.log(p2.reshape(-1))
        n = phy1.n_leaves
        powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
        hits = 0
        for _ in range(trials):
            z = int(rng.integers(2))
            align = sample_alignment(phy2 if z else phy1, model, k, rng)
            idx = align.states.astype(np.int64) @ powers
            ll1, ll2 = flat1[idx].sum(), flat2[idx].sum()
            if ll1 == ll2:
                hits += int(rng.integers(2) == z)
            else:
                hits += int(int(ll2 > ll1) == z)
        return ProbeResult("exact", depth, k, trials, hits / trials, tv=tv)
    if method == "pipeline":
        if params is None:
            raise ValueError("the pipeline method needs ReconstructionParams")
        top1, top2 = unroot(phy1), unroot(phy2)
        hits = 0
        for _ in range(trials):
            z = int(rng.integers(2))
            result = pipeline_trial(phy2 if z else phy1, model, k, params, rng)
            if result is None:
                continue
            match1 = topologies_equal(result, top1)
            match2 = topologies_equal(result, top2)
            if match1 != match2:
                hits += int(int(match2) == z)
        return ProbeResult("pipeline", depth, k, trials, hits / trials)
    raise ValueError(f"unknown method {method!r}")


@dataclass
class MinKResult:
    k: int | None
    curve: list          # (k, rate) pairs in evaluation order
    censored: bool


def find_min_k(q: int, tau: float, h: int, target_rate: float, rng,
               trials: int = 25, k_cap: int = 10 ** 6, l: int = 1,
               estimator: str = "majority", D: float | None = None,
               W: float = 5.5, f_min: float | None = None) -> MinKResult:
    """Smallest k (doubling then bisection) whose empirical success rate
    reaches ``target_rate``; censored when k_cap is passed."""
    model = potts_rate_matrix(q)
    phy = homogeneous_phylogeny(h, tau)
    truth = unroot(phy)
    curve = []

    def rate(k: int) -> float:
        params = auto_reconstruction_params(max(tau, 1e-6), k, l=l, W=W,
                                            estimator=estimator, f_min=f_min, D=D)
        wins = 0
        for trial in range(trials):
            sub = np.random.default_rng(
                np.random.SeedSequence(int(rng.integers(2 ** 63)), spawn_key=(k, trial)))
            result = pipeline_trial(phy, model, k, params, sub)
            if result is not None:
                wins += int(topologies_equal(result, truth))
        value = wins / trials
        curve.append((k, value))
        return value

    k = 1
    while k <= k_cap and rate(k) < target_rate:
        k *= 2
    if k > k_cap:
        return MinKResult(None, curve, censored=True)
    lo, hi = k // 2, k
    while hi - lo > 1 and lo >= 1:
        mid = (lo + hi) // 2
        if rate(mid) >= target_rate:
            hi = mid
        else:
            lo = mid
    return MinKResult(hi, curve, censored=False)


# ---------------------------------------------------------------------------
# CSV plumbing


def _load_done(path, fields, key_of) -> set:
    if not path or not os.path.exists(path):
        return set()
    done = set()
    with open(path) as handle:
        reader = csv.DictReader(
            line for line in handle if not line.startswith("#"))
        for row in reader:
            if row.get(fields[0]) is not None:
                done.add(key_of(row))
    return done


def _append_row(path, fields, row, comments=()):
    if not path:
        return
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as handle:
        if fresh:
            for line in comments:
                handle.write(line if line.startswith("#") else "# " + line)
                handle.write("\n")
            csv.DictWriter(handle, fields).writeheader()
        csv.DictWriter(handle, fields).writerow(row)
        handle.flush()
        os.fsync(handle.fileno())
