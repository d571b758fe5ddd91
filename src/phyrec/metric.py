"""Distance estimation and the empirical concentration / gate report.

Distances between sequences are estimated by inverting the symmetric
channel: tau_hat = -ln(1 - q/(q-1) * mismatch fraction), saturating to
+inf when the argument of the log is not positive.  The agreement
counts behind it are exact integers: one-hot float32 matmuls for q <= 4,
XOR-and-popcount over ceil(log2 q) packed bit planes above, where each
row pair costs k/64 words per plane instead of k byte compares.  Between
reconstructed sequences the estimate concentrates around the weighted
distance tau(u, v) + b_u + b_v, where b_u is the length of the error
channel of u's reconstruction; those extra summands cancel in every
four-point combination, so quartet calls remain valid.

The four-point test itself runs in ``reconstruct._quartet_relations``:
a quartet whose largest pairwise estimate exceeds the diameter gate
D + ln(W/4) is discarded, so a saturated (+inf) estimate shuts out
every quartet it belongs to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulate import sample_alignment
from .tree import Phylogeny, tree_metric


def _mismatch_counts(seqs: np.ndarray, q: int) -> np.ndarray:
    """Exact mismatch counts between all rows of (m, k) states in 0..q-1.

    Bit b of every state goes to plane b, packed 64 sites to a uint64
    word; the padding bits are zero in every row.  Two sites differ iff
    some plane differs there, so a row pair's count is the popcount of
    the OR over the planes of their XORs.  Only the upper triangle is
    computed, a row at a time, then mirrored.
    """
    m, k = seqs.shape
    codes = np.ascontiguousarray(seqs, dtype=np.min_scalar_type(q - 1))
    n_planes = (q - 1).bit_length()
    packed = np.zeros((n_planes, m, 8 * -(-k // 64)), dtype=np.uint8)
    for b in range(n_planes):
        packed[b, :, :-(-k // 8)] = np.packbits((codes >> b) & 1, axis=1)
    planes = packed.view(np.uint64)
    mismatch = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        diff = planes[0, i:] ^ planes[0, i]
        for plane in planes[1:]:
            diff |= plane[i:] ^ plane[i]
        mismatch[i, i:] = np.bitwise_count(diff).sum(axis=1)
    return mismatch + np.triu(mismatch, 1).T


def pairwise_distance_matrix(seqs: np.ndarray, q: int) -> np.ndarray:
    """Channel-inverting distances between all rows of (m, k).  Saturated
    entries (agreement count at most k/q) are +inf; the diagonal is zero."""
    seqs = np.asarray(seqs)
    m, k = seqs.shape
    if k == 0:
        raise ValueError("cannot estimate distances from empty sequences")
    if q <= 4 and k >= 1 << 24:
        # float32 agreement counts are exact integers only below 2^24
        raise ValueError(f"k = {k} sites must stay below 2^24 for q <= 4")
    if q <= 4:
        agree = np.zeros((m, m), dtype=np.float32)
        for state in range(q):
            hot = (seqs == state).astype(np.float32)
            agree += hot @ hot.T
        agree = agree.astype(np.float64)
    else:
        agree = (k - _mismatch_counts(seqs, q)).astype(np.float64)
    arg = 1.0 - (q / (q - 1.0)) * (1.0 - agree / k)
    # saturation is decided on the exact counts, where arg may round
    # to a tiny positive value at mismatch exactly (q-1)/q
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.where(q * agree > k, -np.log(np.maximum(arg, 1e-300)), np.inf)
    np.fill_diagonal(dist, 0.0)
    return dist


# ---------------------------------------------------------------------------
# Empirical concentration / gate report


@dataclass
class ConcentrationReport:
    """Pooled per-(trial, pair) event rates for the three concentration
    conditions and for the gate decision itself."""

    k: int
    D: float
    W: float
    delta: float
    trials: int
    n_leaves: int
    rate_concentration: float   # |tau_hat - tau| < delta on pairs with tau < D
    rate_far_deep: float        # tau_hat > D + ln(W/2) on pairs with tau > D + ln W
    rate_near_ungated: float    # tau_hat <= D + ln(W/4) on pairs with tau < D + ln(W/5)
    rate_far_gated: float       # tau_hat > D + ln(W/4) on the far pairs
    counts: dict

    def gate_classification_rate(self) -> float:
        """Accuracy of the gate decision over both far and near classes."""
        far, near = self.counts["far"], self.counts["near_gate"]
        total = far + near
        if total == 0:
            return float("nan")
        return (self.rate_far_gated * far + self.rate_near_ungated * near) / total


def distance_concentration_check(phy: Phylogeny, model, k: int, D: float,
                                 delta: float, trials: int, rng,
                                 W: float = 20.0) -> ConcentrationReport:
    """Monte Carlo check of distance concentration and gate behaviour.

    Pairs of leaves are classed by their true tree distance: below D
    (concentration within delta expected), above D + ln W (the gate
    should fire), and below D + ln(W/5) (the gate should stay quiet).
    Events are pooled over pairs and trials.
    """
    q = model.q
    order = np.argsort(phy.leaf_labels)
    leaf_nodes = np.arange(phy.first_leaf, phy.n_nodes)[order]
    true_dist = tree_metric(phy)[np.ix_(leaf_nodes, leaf_nodes)]
    iu = np.triu_indices(phy.n_leaves, 1)
    d_pairs = true_dist[iu]
    near_conc = d_pairs < D
    far = d_pairs > D + math.log(W)
    near_gate = d_pairs < D + math.log(W / 5.0)
    gate = D + math.log(W / 4.0)
    deep = D + math.log(W / 2.0)

    hits = {"conc": 0, "far_deep": 0, "near_ungated": 0, "far_gated": 0}
    for _ in range(trials):
        align = sample_alignment(phy, model, k, rng)
        est = pairwise_distance_matrix(align.states.T, q)[iu]
        hits["conc"] += int(np.sum(np.abs(est[near_conc] - d_pairs[near_conc]) < delta))
        hits["far_deep"] += int(np.sum(est[far] > deep))
        hits["far_gated"] += int(np.sum(est[far] > gate))
        hits["near_ungated"] += int(np.sum(est[near_gate] <= gate))

    def rate(key, mask):
        total = int(mask.sum()) * trials
        return hits[key] / total if total else float("nan")

    return ConcentrationReport(
        k=k, D=D, W=W, delta=delta, trials=trials, n_leaves=phy.n_leaves,
        rate_concentration=rate("conc", near_conc),
        rate_far_deep=rate("far_deep", far),
        rate_near_ungated=rate("near_ungated", near_gate),
        rate_far_gated=rate("far_gated", far),
        counts={"concentration": int(near_conc.sum()), "far": int(far.sum()),
                "near_gate": int(near_gate.sum())})

