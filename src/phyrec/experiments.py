"""Monte Carlo drivers: success and accuracy sweeps, the diluted
estimator's error channel and dilution calibration, probes.

Every topology trial (success sweep, pipeline probe, minimal-k search)
samples, reconstructs and compares in one place (``pipeline_trial``);
every symmetric-model Monte Carlo run draws its samples through one
batch loop (``_potts_batches``); and both sweeps run through one
resumable grid driver (``_sweep``).  ``find_min_k`` scores each k as
one success-sweep cell.

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
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .asr import (_candidate_masks, _diluted_guesses, _has_state,
                  _posterior_batch, _rows_per_chunk, diluted_estimates,
                  majority_estimates)
from .errors import CalibrationError, ReconstructionError
from .model import G_PERC, potts_rate_matrix
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
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
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
                   params: ReconstructionParams, rng) -> bool:
    """One trial: sample a k-site alignment on ``phy``, rebuild the
    topology from it and say whether it equals ``unroot(phy)``; a failed
    reconstruction is a miss.  Both steps draw from ``rng``, sampling
    first."""
    align = sample_alignment(phy, model, k, rng)
    try:
        result = reconstruct_homogeneous(align, model.q, params, rng)
    except ReconstructionError:
        return False
    return topologies_equal(result, unroot(phy))


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
        successes += pipeline_trial(phy, model, k, params, rng)
    rate = successes / cfg.trials
    return {"q": q, "tau": tau, "h": h, "n": 2 ** h, "k": k, "l": l,
            "estimator": estimator, "trials": cfg.trials,
            "successes": successes, "rate": rate,
            "stderr": math.sqrt(rate * (1 - rate) / cfg.trials),
            "seconds": round(time.perf_counter() - t0, 3)}


def _potts_batches(phy: Phylogeny, q: int, trials: int, batch: int, rng):
    """Yield (roots, leaves) for ``trials`` symmetric-model samples on
    ``phy``, at most ``batch`` at a time; leaves are in position order."""
    for start in range(0, trials, batch):
        states = potts_batch_sample(phy, q, min(batch, trials - start), rng)
        yield states[:, 0], states[:, phy.first_leaf:]


def asr_outcomes(q: int, tau: float, h: int, l: int, estimator: str,
                 trials: int, rng, batch: int = 4000) -> np.ndarray:
    """Per-trial 0/1 root-recovery outcomes for one estimator and depth."""
    phy = homogeneous_phylogeny(h, tau)
    model = potts_rate_matrix(q) if estimator == "posterior" else None
    out = np.empty(trials, dtype=np.int8)
    done = 0
    for roots, leaves in _potts_batches(phy, q, trials, batch, rng):
        if estimator == "diluted":
            guesses = diluted_estimates(leaves, q, l, rng)
        elif estimator == "majority":
            guesses = majority_estimates(leaves, q, rng)
        elif estimator == "posterior":
            guesses = np.argmax(_posterior_batch(phy, model, leaves), axis=1)
        elif estimator == "uniform":
            guesses = rng.integers(q, size=len(roots))
        else:
            raise ValueError(f"unknown estimator {estimator!r}")
        out[done:done + len(roots)] = guesses == roots
        done += len(roots)
    return out


def _asr_cell(cfg: SweepConfig, index: int, estimator, q, tau, h, l) -> dict:
    outcomes = asr_outcomes(q, tau, h, l, estimator, cfg.trials,
                            cell_rng(cfg.seed, index))
    acc = float(outcomes.mean())
    return {"estimator": estimator, "q": q, "tau": tau, "h": h, "l": l,
            "trials": cfg.trials, "successes": int(outcomes.sum()),
            "accuracy": acc, "stderr": math.sqrt(acc * (1 - acc) / cfg.trials)}


def ptr_success_sweep(cfg: SweepConfig) -> list[dict]:
    """Topology-reconstruction success rate over the (q, tau, h, k) grid.

    A trial succeeds when the reconstructed topology equals the true
    unrooted one; reconstruction failures score as misses.  Rows are
    appended to ``cfg.out`` (resumable) when set, and returned.
    """
    return _sweep(cfg, PTR_FIELDS, _ptr_cell,
                  ("q", "tau", "h", "k", "l", "estimator"))


def asr_accuracy_sweep(cfg: SweepConfig) -> list[dict]:
    """Root-estimation accuracy over (estimator, q, tau, h, l) cells."""
    return _sweep(cfg, ASR_FIELDS, _asr_cell, ("estimator", "q", "tau", "h", "l"))


def _sweep(cfg: SweepConfig, fields, cell, keys) -> list[dict]:
    """Run ``cell(cfg, index, *values)`` over the product of the grid
    axes named by ``keys``, skipping cells whose ``keys`` columns are
    already in ``cfg.out``; ``index`` is the cell's place in the full
    product, which seeds it.  Rows are appended to the file as they
    arrive, from up to ``cfg.jobs`` worker processes, never more than
    there are cells to run."""
    axes = {"q": cfg.q_values, "tau": cfg.tau_values, "h": cfg.h_values,
            "k": cfg.k_values, "l": cfg.l_values, "estimator": cfg.estimators}
    done = _load_done(cfg.out, fields, keys)
    todo = [(index, *values)
            for index, values in enumerate(product(*(axes[key] for key in keys)))
            if tuple(map(str, values)) not in done]
    workers = min(cfg.jobs, len(todo))
    parallel = workers > 1
    rows = []
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        mapper = pool.map if parallel else map
        for row in mapper(cell, [cfg] * len(todo), *zip(*todo)):
            rows.append(row)
            _append_row(cfg.out, fields, row, cfg.comments)
    return rows


# ---------------------------------------------------------------------------
# Error channel of the diluted estimator


@dataclass
class ErrorChannelEstimate:
    """Monte Carlo estimate of P[estimate = j | root = i].

    ``b_hat`` is the length of the symmetric channel fitted to the mean
    diagonal; ``b_bar`` is the calibration cap -ln(eps/(2(q-1))) from the
    measured candidate frequency eps_hat.
    """

    matrix: np.ndarray
    b_hat: float
    b_bar: float
    sample_count: int
    counts: np.ndarray = field(repr=False, default=None)
    eps_hat: float = float("nan")
    no_signal: bool = False


def estimate_error_channel(phy: Phylogeny, q: int, l: int, trials: int, rng,
                           batch_size: int = 4000) -> ErrorChannelEstimate:
    """Sample the symmetric model on ``phy`` and tabulate the diluted
    estimator's conditional law given the true root state."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = np.zeros((q, q), dtype=np.int64)
    eps_count = 0
    batch = max(1, min(batch_size, _rows_per_chunk(q, phy.n_leaves)))
    for roots, leaves in _potts_batches(phy, q, trials, batch, rng):
        masks = _candidate_masks(leaves, q, l)
        np.add.at(counts, (roots, _diluted_guesses(masks, q, rng)), 1)
        eps_count += int(np.count_nonzero(
            _has_state(masks, np.arange(len(roots)), roots)))
    row_tot = counts.sum(axis=1, keepdims=True)
    matrix = counts / np.maximum(row_tot, 1)
    diag = float(np.mean(np.diag(matrix)))
    arg = 1.0 - q * (1.0 - diag) / (q - 1.0)
    b_hat = -math.log(arg) if arg > 0 else math.inf
    eps_hat = eps_count / trials
    b_bar = -math.log(eps_hat / (2.0 * (q - 1.0))) if eps_hat > 0 else math.inf
    return ErrorChannelEstimate(matrix=matrix, b_hat=b_hat, b_bar=b_bar,
                                sample_count=trials, counts=counts,
                                eps_hat=eps_hat, no_signal=diag <= 1.0 / q)


@dataclass
class CalibrationResult:
    l: int
    eps_hat: float
    fp_hat: float
    table: list   # (l, eps_hat, fp_hat) per attempted l


def calibrate_dilution(q: int, g: float, h_max: int, rng,
                       l_max: int = 6, trials: int = 10000) -> CalibrationResult:
    """Smallest l whose empirical candidate frequencies separate.

    For each l the symmetric model is simulated on the depth-``h_max``
    tree with every edge length g; eps_hat estimates the frequency of
    the true root state being a candidate and fp_hat the frequency for
    any fixed wrong state.  l is accepted when the true-candidate count
    is at least 100 (eps_hat ten sigma above zero, so a decaying
    transient that would vanish a few levels deeper cannot sneak in)
    and fp_hat <= eps_hat / 2.  Calibrate at the deepest scale you plan
    to reconstruct: a too-small l can look alive on shallow trees.
    """
    if not 0 < g < G_PERC:
        raise ValueError(f"calibration requires 0 < g < ln 2, got {g}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phy = homogeneous_phylogeny(h_max, g)
    batch = _rows_per_chunk(q, phy.n_leaves)
    table = []
    for l in range(1, l_max + 1):
        hits = 0
        false_hits = 0
        for roots, leaves in _potts_batches(phy, q, trials, batch, rng):
            masks = _candidate_masks(leaves, q, l)
            true_hits = int(np.count_nonzero(
                _has_state(masks, np.arange(len(roots)), roots)))
            hits += true_hits
            false_hits += int(np.bitwise_count(masks).sum()) - true_hits
        eps_hat = hits / trials
        fp_hat = false_hits / (trials * (q - 1))
        table.append((l, eps_hat, fp_hat))
        if hits >= 100 and fp_hat <= eps_hat / 2:
            return CalibrationResult(l=l, eps_hat=eps_hat, fp_hat=fp_hat, table=table)
    raise CalibrationError(
        f"no l in 1..{l_max} separated the candidate frequencies "
        f"(q={q}, g={g}, depth={h_max})", table=table)


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


def _competing_pair(q: int, tau: float, depth: int):
    """The two candidate phylogenies: identity labels versus the deep
    quartet swap (second and third quarter blocks exchanged)."""
    if depth < 2:
        raise ValueError("the probe needs depth >= 2")
    n = 2 ** depth
    phy1 = homogeneous_phylogeny(depth, tau)
    labels = np.arange(1, n + 1)
    quarter = n // 4
    block_b = labels[quarter:2 * quarter].copy()
    labels[quarter:2 * quarter] = labels[2 * quarter:3 * quarter]
    labels[2 * quarter:3 * quarter] = block_b
    phy2 = Phylogeny(depth, phy1.edge_tau.copy(), labels)
    return phy1, phy2


def distinguishability_probe(q: int, tau: float, depth: int, k: int,
                             trials: int, rng, method: str = "exact",
                             params: ReconstructionParams | None = None
                             ) -> ProbeResult:
    """How well can data of length k tell two topologies apart?

    The competing topologies differ by a quartet swap at the root.  The
    exact method computes the total-variation distance between the two
    leaf laws and scores the exact likelihood-ratio test on simulated
    k-site data; the pipeline method scores full reconstruction runs,
    which must rebuild the generating topology (the rival always
    differs from it).
    """
    phy1, phy2 = _competing_pair(q, tau, depth)
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
        hits = 0
        for _ in range(trials):
            z = int(rng.integers(2))
            hits += pipeline_trial(phy2 if z else phy1, model, k, params, rng)
        return ProbeResult("pipeline", depth, k, trials, hits / trials)
    raise ValueError(f"unknown method {method!r}")


@dataclass
class MinKResult:
    k: int | None
    curve: list          # (k, rate) pairs in evaluation order
    censored: bool


def find_min_k(q: int, tau: float, h: int, target_rate: float, seed: int,
               trials: int = 25, k_cap: int = 10 ** 6, l: int = 1,
               estimator: str = "majority", D: float | None = None,
               W: float = 5.5, f_min: float | None = None) -> MinKResult:
    """Smallest k (doubling then bisection) whose empirical success rate
    reaches ``target_rate``; censored when k_cap is passed.  Each k is
    scored as the sweep cell of index k, with the sweep's fitted
    parameters and streams ``cell_rng(seed, k, trial)``."""
    if not 0 < target_rate <= 1:
        raise ValueError(f"target_rate must be in (0, 1], got {target_rate}")
    if k_cap < 1:
        raise ValueError(f"k_cap must be >= 1, got {k_cap}")
    cfg = SweepConfig(q_values=(q,), tau_values=(tau,), h_values=(h,),
                      l_values=(l,), estimators=(estimator,), trials=trials,
                      seed=seed, D=D, W=W, f_min=f_min)
    curve = []

    def rate(k: int) -> float:
        value = _ptr_cell(cfg, k, q, tau, h, k, l, estimator)["rate"]
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


def _load_done(path, fields, keys) -> set:
    """The ``keys`` columns, as strings, of every row already in ``path``."""
    if not path or not os.path.exists(path):
        return set()
    done = set()
    with open(path) as handle:
        reader = csv.DictReader(
            line for line in handle if not line.startswith("#"))
        for row in reader:
            if row.get(fields[0]) is not None:
                done.add(tuple(row[key] for key in keys))
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
