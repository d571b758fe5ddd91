import itertools
import math

import numpy as np
import pytest

from phyrec.metric import (
    ConcentrationReport,
    distance_concentration_check,
    pairwise_distance_matrix,
)
from phyrec.model import potts_rate_matrix
from phyrec.reconstruct import _quartet_relations
from phyrec.tree import Phylogeny


def pair_distance(seq_u, seq_v, q):
    """One pair's entry of the distance matrix."""
    return pairwise_distance_matrix(np.stack([seq_u, seq_v]), q)[0, 1]


def test_estimate_distance_formula():
    # q=2, one mismatch in four sites: -ln(1 - 2/4) = ln 2
    assert pair_distance([0, 0, 0, 0], [1, 0, 0, 0], 2) == \
        pytest.approx(math.log(2.0), abs=1e-15)
    # identical sequences sit at distance zero
    assert pair_distance([1, 2, 0], [1, 2, 0], 3) == 0.0
    # q=2: half the sites mismatch, the saturation point
    assert pair_distance([0, 1], [1, 1], 2) == math.inf
    # q=4: mismatch fraction 3/4 hits the saturation point exactly
    assert pair_distance([0, 1, 2, 3], [1, 2, 3, 3], 4) == math.inf
    # generic value: mismatch 2/5 at q=3 -> -ln(1 - 1.5 * 0.4)
    got = pair_distance([0, 1, 2, 0, 1], [0, 1, 0, 1, 1], 3)
    assert got == pytest.approx(-math.log(1.0 - 1.5 * 0.4), abs=1e-15)


def test_estimate_distance_validation():
    with pytest.raises(ValueError, match="empty"):
        pairwise_distance_matrix(np.zeros((2, 0), dtype=int), 2)


@pytest.mark.parametrize("q", [3, 16])
def test_pairwise_matrix_matches_scalar_estimates(q):
    rng = np.random.default_rng(81)
    seqs = rng.integers(q, size=(6, 40))
    seqs[5] = (seqs[0] + 1) % q  # a saturated pair on purpose
    mat = pairwise_distance_matrix(seqs, q)
    assert np.allclose(np.diag(mat), 0.0)
    for i in range(6):
        for j in range(i + 1, 6):
            arg = 1.0 - q * np.mean(seqs[i] != seqs[j]) / (q - 1.0)
            want = -math.log(arg) if arg > 0 else math.inf
            assert mat[i, j] == mat[j, i]
            if math.isinf(want):
                assert math.isinf(mat[i, j])
            else:
                assert mat[i, j] == pytest.approx(want, abs=1e-9)


def test_pairwise_matrix_saturates_exactly():
    # q=12 with mismatch exactly 11/12: 1 - (12/11)(11/12) rounds to
    # ~1e-16 in floating point, but the pair is saturated
    for k in (12, 24):
        seq_u = np.zeros(k, dtype=int)
        seq_v = np.arange(k) % 12
        assert pair_distance(seq_u, seq_v, 12) == math.inf
    # one more agreement leaves the pair finite
    seq_v = np.r_[0, 0, np.arange(2, 24) % 12]
    assert math.isfinite(pair_distance(np.zeros(24, dtype=int), seq_v, 12))


def byte_row_distances(seqs, q):
    """Oracle for q > 4: agreement counts from comparing the states row by
    row, then the library's channel inversion and saturation rule."""
    m, k = seqs.shape
    agree = np.empty((m, m), dtype=np.float64)
    for i in range(m):
        agree[i] = (seqs == seqs[i]).sum(axis=1)
    arg = 1.0 - (q / (q - 1.0)) * (1.0 - agree / k)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.where(q * agree > k, -np.log(np.maximum(arg, 1e-300)), np.inf)
    np.fill_diagonal(dist, 0.0)
    return dist


@pytest.mark.parametrize("q,k", [*itertools.product((9, 12, 20, 64, 255),
                                                    (1, 63, 64, 65, 4000)),
                                 (12, 12), (12, 4008), (300, 4000),
                                 *itertools.product((5, 6, 7, 8),
                                                    (1, 63, 64, 65, 4000))])
def test_bit_plane_distances_match_byte_rows(q, k):
    rng = np.random.default_rng(1000 * q + k)
    seqs = rng.integers(q, size=(12, k))
    seqs[1] = seqs[0]                       # equal rows
    seqs[2, :k // 2] = seqs[0, :k // 2]     # half-equal rows
    seqs[3] = q - 1                         # every bit plane set
    if k % q == 0:
        # agreement exactly k/q, mismatch (q-1)/q: saturated
        seqs[4], seqs[5] = 0, np.arange(k) % q
    got = pairwise_distance_matrix(seqs, q)
    assert np.array_equal(got, byte_row_distances(seqs, q))
    assert got[0, 1] == 0.0
    if k % q == 0:
        assert got[4, 5] == math.inf


def test_pairwise_matrix_refuses_inexact_float32_counts():
    seqs = np.broadcast_to(np.zeros(1, dtype=np.int8), (2, 2 ** 24))
    with pytest.raises(ValueError, match="2\\^24"):
        pairwise_distance_matrix(seqs, 2)


# The four-point test on these metrics runs in reconstruct._quartet_relations.

GATE = 10.0 + math.log(5.0)   # D = 10, W = 20


def quartet_metric(d12, d34, cross):
    m = np.full((4, 4), cross)
    m[0, 1] = m[1, 0] = d12
    m[2, 3] = m[3, 2] = d34
    np.fill_diagonal(m, 0.0)
    return m


def accepted_pairs(dist, gate, f_min):
    """(together, separated) as sets of index pairs i < j."""
    return tuple({(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(rel)))}
                 for rel in _quartet_relations(dist, gate, f_min))


def split_relations(pair1, pair2):
    """The relations one accepted split pair1|pair2 scatters."""
    together = {tuple(sorted(pair1)), tuple(sorted(pair2))}
    separated = {tuple(sorted((u, v))) for u in pair1 for v in pair2}
    return together, separated


def test_four_point_value_worked_example():
    # pendant edges 0.1 and internal edge 0.05 around the split 12|34:
    # within-pair distance 0.2, cross distance 0.25, so F(12|34) = 0.05
    # and F(13|24) = F(14|23) = -0.05; thresholds bracket the value
    dist = quartet_metric(0.2, 0.2, 0.25)
    assert accepted_pairs(dist, GATE, 0.099) == split_relations((0, 1), (2, 3))
    assert accepted_pairs(dist, GATE, 0.101) == (set(), set())


def test_four_point_value_gated():
    # D + ln(W/4) = 0.01 + ln(1.2525) ~ 0.235 sits below the cross distance
    gate = 0.01 + math.log(5.01 / 4.0)
    assert gate < 0.25
    assert accepted_pairs(quartet_metric(0.2, 0.2, 0.25), gate, 0.05) == (set(), set())


def test_four_point_split_all_three_configurations():
    # the same tree shape with labels permuted lands in each pairing slot
    for pair1, pair2 in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        dist = np.full((4, 4), 0.25)
        for a, b in (pair1, pair2):
            dist[a, b] = dist[b, a] = 0.2
        np.fill_diagonal(dist, 0.0)
        assert accepted_pairs(dist, GATE, 0.05) == split_relations(pair1, pair2)
    # star metric: every four-point value is zero, nothing is accepted
    assert accepted_pairs(quartet_metric(0.2, 0.2, 0.2), GATE, 0.05) == (set(), set())


def test_fp_indicator():
    dist = quartet_metric(0.2, 0.2, 0.25)
    assert accepted_pairs(dist, GATE, 0.05) == split_relations((0, 1), (2, 3))
    # a saturated pair trips the gate, so nothing fires either
    dist[0, 3] = dist[3, 0] = math.inf
    assert accepted_pairs(dist, GATE, 0.05) == (set(), set())


def test_gate_classification_rate_weighting():
    report = ConcentrationReport(
        k=100, D=1.0, W=20.0, delta=0.1, trials=1, n_leaves=8,
        rate_concentration=1.0, rate_far_deep=1.0,
        rate_near_ungated=0.9, rate_far_gated=0.6,
        counts={"concentration": 4, "far": 1, "near_gate": 3})
    assert report.gate_classification_rate() == pytest.approx((0.6 + 3 * 0.9) / 4)
    empty = ConcentrationReport(
        k=100, D=1.0, W=20.0, delta=0.1, trials=1, n_leaves=8,
        rate_concentration=1.0, rate_far_deep=float("nan"),
        rate_near_ungated=float("nan"), rate_far_gated=float("nan"),
        counts={"concentration": 4, "far": 0, "near_gate": 0})
    assert math.isnan(empty.gate_classification_rate())


def gate_check_phylogeny():
    """Depth-3 tree whose leaf pairs populate every distance class used by
    the gate report at D=1, W=20: cherries at 0.4 (concentration), pairs
    through a grandparent at 1.8 (below D + ln(W/5) ~ 2.39 with margin)
    and cross-root pairs at 4.2 (above D + ln W ~ 4.00)."""
    edge_tau = np.zeros(15)
    edge_tau[1:3] = 1.2
    edge_tau[3:7] = 0.7
    edge_tau[7:] = 0.2
    return Phylogeny(h=3, edge_tau=edge_tau, leaf_labels=np.arange(1, 9))


def test_distance_concentration_check_smoke():
    phy = gate_check_phylogeny()
    report = distance_concentration_check(
        phy, potts_rate_matrix(2), k=4000, D=1.0, delta=0.05, trials=10,
        rng=np.random.default_rng(83), W=20.0)
    assert report.counts == {"concentration": 4, "far": 16, "near_gate": 12}
    assert report.rate_concentration > 0.9
    assert report.rate_far_gated > 0.9
    assert report.rate_near_ungated > 0.9
    assert 0.0 <= report.rate_far_deep <= 1.0
    assert report.gate_classification_rate() > 0.9

