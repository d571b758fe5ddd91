import itertools
import math

import numpy as np
import pytest

from phyrec.asr import _VOTE_BUDGET, diluted_estimates, majority_estimates
from phyrec.errors import (
    CherryMatchingError,
    EnumerationTooLargeError,
    ReconstructionError,
)
from phyrec.reconstruct import (
    QUARTET_CANDIDATE_LIMIT,
    ReconstructionParams,
    _all_quartets,
    _matching_from_relations,
    _quartet_relations,
    auto_reconstruction_params,
    reconstruct_homogeneous,
    reconstruct_internal_sequences,
)
from phyrec.simulate import Alignment, sample_alignment
from phyrec.model import potts_rate_matrix
from phyrec.tree import (
    homogeneous_phylogeny,
    random_homogeneous_phylogeny,
    topologies_equal,
    tree_metric,
    unroot,
)


def per_parent_sequences(parent_leaf_sets, align, q, l, rng, estimator):
    """Oracle internal sequences: one estimator call per parent on its
    own leaf columns, in parent order (``majority_estimates`` itself is
    held to a one-call bincount oracle in test_asr)."""
    column = {v: i for i, v in enumerate(align.node_ids)}
    out = []
    for leaves in parent_leaf_sets:
        block = align.states[:, [column[v] for v in leaves]]
        if estimator == "diluted":
            out.append(diluted_estimates(block, q, l, rng))
        else:
            out.append(majority_estimates(block, q, rng))
    return out


def empty_alignment(n, q=2):
    return Alignment(list(range(1, n + 1)), np.empty((0, n), dtype=int), q)


def exact_metric_fn(phy, bias=None):
    """Test hook: exact tree distance between vertices named by their
    descendant leaf sets, optionally shifted by per-vertex biases."""
    tm = tree_metric(phy)
    node_of = {}
    for v in range(phy.n_nodes):
        stack, leaves = [v], []
        while stack:
            u = stack.pop()
            if u >= phy.first_leaf:
                leaves.append(phy.label_of_node(u))
            else:
                stack.extend(phy.children(u))
        node_of[frozenset(leaves)] = v

    def fn(leaves_u, leaves_v):
        u, v = node_of[frozenset(leaves_u)], node_of[frozenset(leaves_v)]
        d = float(tm[u, v])
        if bias is not None:
            d += bias[u] + bias[v]
        return d

    return fn


def test_params_validation():
    good = ReconstructionParams(l=1, D=1.0, W=20.0, f_min=0.1)
    assert good.estimator == "diluted"
    for kwargs in [dict(l=0, D=1.0), dict(l=1, D=1.0, W=5.0),
                   dict(l=1, D=0.0), dict(l=1, D=1.0, f_min=0.0),
                   dict(l=1, D=1.0, estimator="posterior"),
                   dict(l=1, D=math.inf), dict(l=1, D=math.nan),
                   dict(l=1, D=1.0, W=math.inf), dict(l=1, D=1.0, W=math.nan),
                   dict(l=1, D=1.0, f_min=math.inf), dict(l=1, D=1.0, f_min=math.nan)]:
        with pytest.raises(ValueError):
            ReconstructionParams(**kwargs)


def test_auto_reconstruction_params():
    p = auto_reconstruction_params(0.2, 4000)
    assert p.f_min == pytest.approx(0.5)
    assert p.W == pytest.approx(5.5)
    gate = p.D + math.log(p.W / 4.0)
    noise = math.sqrt(math.expm1(2 * 1.5) / 4000)
    assert gate == pytest.approx(1.5 + min(3 * noise, 0.2), abs=1e-12)
    # explicit settings pass straight through
    q = auto_reconstruction_params(0.2, 4000, l=2, W=20.0, estimator="majority",
                                   f_min=0.3, D=2.0)
    assert (q.l, q.W, q.estimator, q.f_min, q.D) == (2, 20.0, "majority", 0.3, 2.0)
    # longer sequences shrink the noise allowance (here k=4000 sits at the
    # cap already, so only the much longer run moves the gate)
    big_k = auto_reconstruction_params(0.2, 40000)
    assert big_k.D < p.D


@pytest.mark.parametrize("m", [4, 5, 8, 13])
def test_all_quartets_enumeration(m):
    got = _all_quartets(m)
    want = np.array(list(itertools.combinations(range(m), 4)))
    assert got.shape == want.shape
    assert np.array_equal(np.asarray(got, dtype=want.dtype), want)


def random_distance_matrix(m, rng, saturate=0.1):
    d = rng.uniform(0.05, 3.0, size=(m, m))
    d = 0.5 * (d + d.T)
    d[rng.random((m, m)) < saturate] = np.inf
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return d


def test_quartet_relations_match_scalar_indicators():
    rng = np.random.default_rng(91)
    for trial in range(15):
        m = int(rng.integers(4, 9))
        dist = random_distance_matrix(m, rng)
        f_min = float(rng.uniform(0.05, 0.6))
        gate = float(rng.uniform(0.5, 3.5))
        together, separated = _quartet_relations(dist, gate, f_min)
        # scalar oracle: the gated, thresholded four-point test per quartet
        want_t = np.zeros((m, m), dtype=bool)
        want_s = np.zeros((m, m), dtype=bool)
        for a, b, c, d in itertools.combinations(range(m), 4):
            quartet = (a, b, c, d)
            if max(dist[u, v] for u, v in itertools.combinations(quartet, 2)) > gate:
                continue
            x = dist[a, b] + dist[c, d]
            y = dist[a, c] + dist[b, d]
            z = dist[a, d] + dist[b, c]
            for side1, side2, value in (((a, b), (c, d), y - x),
                                        ((a, c), (b, d), x - y),
                                        ((a, d), (b, c), x - z)):
                if 0.5 * value > f_min / 2:
                    for u, v in (side1, side2):
                        want_t[u, v] = want_t[v, u] = True
                    for u, v in itertools.product(side1, side2):
                        want_s[u, v] = want_s[v, u] = True
        assert np.array_equal(together, want_t), trial
        assert np.array_equal(separated, want_s), trial


def full_scan_relations(dist, gate, f_min):
    """Oracle: the gated four-point test run over every 4-subset."""
    m = dist.shape[0]
    together = np.zeros((m, m), dtype=bool)
    separated = np.zeros((m, m), dtype=bool)
    half = f_min / 2.0

    def scatter(mask, a, b, c, d):
        together[a[mask], b[mask]] = True
        together[c[mask], d[mask]] = True
        for u, v in ((a, c), (a, d), (b, c), (b, d)):
            separated[u[mask], v[mask]] = True

    qa, qb, qc, qd = _all_quartets(m).T
    tab, tcd = dist[qa, qb], dist[qc, qd]
    tac, tbd = dist[qa, qc], dist[qb, qd]
    tad, tbc = dist[qa, qd], dist[qb, qc]
    worst = np.maximum.reduce([tab, tcd, tac, tbd, tad, tbc])
    open_gate = ~(worst > gate)
    with np.errstate(invalid="ignore"):
        x = tab + tcd
        y = tac + tbd
        z = tad + tbc
        scatter(open_gate & (0.5 * (y - x) > half), qa, qb, qc, qd)
        scatter(open_gate & (0.5 * (x - y) > half), qa, qc, qb, qd)
        scatter(open_gate & (0.5 * (x - z) > half), qa, qd, qb, qc)
    together |= together.T
    separated |= separated.T
    return together, separated


@pytest.mark.parametrize("gate", [0.0, 0.5, 1.5, 3.0, 1e300])
def test_quartet_relations_match_full_scan(gate):
    rng = np.random.default_rng(94)
    for m in (4, 5, 6, 9, 17, 33, 64):
        for _ in range(3):
            dist = random_distance_matrix(m, rng, saturate=0.15)
            if gate < 1e300:
                dist += gate - 1.5      # about half the entries pass the gate
            # entries exactly at the gate are admitted
            at_gate = np.triu(rng.random((m, m)) < 0.2, 1)
            dist[at_gate | at_gate.T] = gate
            f_min = float(rng.uniform(0.02, 0.6))
            got = _quartet_relations(dist, gate, f_min)
            want = full_scan_relations(dist, gate, f_min)
            assert np.array_equal(got[0], want[0]), (m, gate)
            assert np.array_equal(got[1], want[1]), (m, gate)


def test_quartet_enumeration_guard():
    dist = np.zeros((160, 160))
    with pytest.raises(EnumerationTooLargeError) as exc:
        _quartet_relations(dist, 1e300, 0.1)
    # every 4-subset is a candidate: C(160, 4) = 26,294,360
    assert "26294360" in str(exc.value) and "m = 160" in str(exc.value)
    assert math.comb(128, 4) <= QUARTET_CANDIDATE_LIMIT < math.comb(160, 4)


def test_quartet_relations_boundaries():
    # 01|23 with within-pair 0.25 and cross 0.5: F(01|23) = 0.25 exactly
    dist = np.full((4, 4), 0.5)
    dist[0, 1] = dist[1, 0] = dist[2, 3] = dist[3, 2] = 0.25
    np.fill_diagonal(dist, 0.0)
    accepted = lambda gate, f_min: _quartet_relations(dist, gate, f_min)[0].any()
    # a four-point value equal to f_min/2 is refused (strict >)
    assert not accepted(10.0, 0.5)
    assert accepted(10.0, np.nextafter(0.5, 0.0))
    # a worst distance equal to the gate is admitted
    assert accepted(0.5, 0.25)
    assert not accepted(np.nextafter(0.5, 0.0), 0.25)
    # one +inf or NaN entry closes the quartet under any finite gate
    for u, v in itertools.combinations(range(4), 2):
        for bad in (np.inf, np.nan):
            sat = dist.copy()
            sat[u, v] = sat[v, u] = bad
            assert not any(rel.any() for rel in _quartet_relations(sat, 1e300, 0.25))


def relations_from_edges(m, edges):
    together = np.zeros((m, m), dtype=bool)
    for i, j in edges:
        together[i, j] = together[j, i] = True
    return together, np.zeros((m, m), dtype=bool)


def test_matching_forced_by_degree_one_vertices():
    together, separated = relations_from_edges(4, [(0, 1), (2, 3)])
    assert _matching_from_relations(together, separated) == [(0, 1), (2, 3)]


def test_matching_survives_a_stray_candidate_edge():
    # 1 and 2 look compatible, but 0 and 3 force their partners first
    together, separated = relations_from_edges(4, [(0, 1), (2, 3), (1, 2)])
    assert _matching_from_relations(together, separated) == [(0, 1), (2, 3)]


def test_matching_rejects_a_candidate_cycle():
    together, separated = relations_from_edges(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(CherryMatchingError) as exc:
        _matching_from_relations(together, separated)
    assert "4 of 4" in str(exc.value)
    assert set(exc.value.candidates) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_matching_rejects_isolated_vertices():
    together, separated = relations_from_edges(4, [(0, 1)])
    with pytest.raises(CherryMatchingError):
        _matching_from_relations(together, separated)


def test_matching_respects_separation():
    together, separated = relations_from_edges(4, [(0, 1), (2, 3)])
    separated[2, 3] = separated[3, 2] = True  # contradicted pair drops out
    with pytest.raises(CherryMatchingError):
        _matching_from_relations(together, separated)


def test_identify_cherries_from_splits():
    # three cherries 01, 23, 45 under one star; cross distances 0.5
    dist = np.full((6, 6), 0.5)
    for a in (0, 2, 4):
        dist[a, a + 1] = dist[a + 1, a] = 0.2
    np.fill_diagonal(dist, 0.0)
    together, separated = _quartet_relations(dist, 10.0, 0.1)
    assert _matching_from_relations(together, separated) == [(0, 1), (2, 3), (4, 5)]


def test_identify_cherries_failure_modes():
    # star metric: no split is accepted, so there is no evidence
    star = np.full((4, 4), 0.5)
    np.fill_diagonal(star, 0.0)
    with pytest.raises(CherryMatchingError):
        _matching_from_relations(*_quartet_relations(star, 10.0, 0.1))
    # one quartet accepting two pairings (01|23 from y - x = 0.5 and
    # 03|12 from x - z = 0.5): every candidate is also separated
    dist = np.array([[0.0, 0.5, 0.75, 0.25],
                     [0.5, 0.0, 0.25, 0.75],
                     [0.75, 0.25, 0.0, 0.5],
                     [0.25, 0.75, 0.5, 0.0]])
    together, separated = _quartet_relations(dist, 10.0, 0.2)
    assert together[0, 1] and together[0, 3] and separated[0, 1]
    with pytest.raises(CherryMatchingError) as exc:
        _matching_from_relations(together, separated)
    assert exc.value.candidates == []


@pytest.mark.parametrize("h", [2, 3, 4])
def test_noiseless_reconstruction(h):
    rng = np.random.default_rng(900 + h)
    params = ReconstructionParams(l=1, D=100.0, W=20.0, f_min=0.1)
    for _ in range(20):
        phy = random_homogeneous_phylogeny(h, 0.1, 0.6, rng)
        got = reconstruct_homogeneous(empty_alignment(phy.n_leaves), 2, params,
                                      rng, metric_fn=exact_metric_fn(phy))
        assert topologies_equal(got, unroot(phy))


@pytest.mark.parametrize("q", [2, 3, 5, 64, 130])
@pytest.mark.parametrize("estimator,w", [("majority", 1), ("majority", 2),
                                         ("majority", 3), ("diluted", 2),
                                         ("diluted", 4)])
def test_internal_sequences_match_per_parent_oracle(q, estimator, w):
    # P * k rows on both sides of a majority chunk boundary; shuffled
    # labels; C- and F-ordered states (sample_alignment returns the latter)
    n_parents = 4
    chunk = _VOTE_BUDGET // (q + w)
    ids = [int(v) for v in np.random.default_rng(q).permutation(n_parents * w) + 1]
    sets = [tuple(range(1 + p * w, 1 + (p + 1) * w)) for p in range(n_parents)][::-1]
    for k in (chunk // n_parents, chunk // n_parents + 1, 3 * chunk // n_parents - 1):
        data = np.random.default_rng([q, w, k]).integers(q, size=(k, n_parents * w))
        for states in (data, np.asfortranarray(data.astype(np.int32))):
            align = Alignment(ids, states, q)
            rng, ref = np.random.default_rng(95), np.random.default_rng(95)
            got = reconstruct_internal_sequences(sets, align, q, 2, rng, estimator)
            want = per_parent_sequences(sets, align, q, 2, ref, estimator)
            assert len(got) == n_parents
            for g, x in zip(got, want):
                assert g.dtype == x.dtype and np.array_equal(g, x)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_internal_sequences_reject_bad_leaf_sets():
    align = Alignment([1, 2, 3, 4], np.zeros((5, 4), dtype=int), 2)
    rng = np.random.default_rng(96)
    for estimator in ("majority", "diluted"):
        with pytest.raises(ValueError, match="leaf label 9 is not a column"):
            reconstruct_internal_sequences([(1, 9)], align, 2, 1, rng, estimator)
        with pytest.raises(ValueError, match="must be of one size"):
            reconstruct_internal_sequences([(1, 2), (3,)], align, 2, 1, rng, estimator)
        assert reconstruct_internal_sequences([], align, 2, 1, rng, estimator) == []


def test_noiseless_reconstruction_ignores_vertex_biases():
    # additive per-vertex distortions cancel inside every four-point value
    rng = np.random.default_rng(92)
    params = ReconstructionParams(l=1, D=100.0, W=20.0, f_min=0.1)
    for _ in range(10):
        phy = random_homogeneous_phylogeny(3, 0.1, 0.6, rng)
        bias = rng.uniform(0.0, 0.4, size=phy.n_nodes)
        got = reconstruct_homogeneous(
            empty_alignment(8), 2, params, rng,
            metric_fn=exact_metric_fn(phy, bias=bias))
        assert topologies_equal(got, unroot(phy))


def test_reconstruction_from_sampled_sequences():
    # subcritical noisy run: depth 3, tau 0.25, majority estimator
    rng = np.random.default_rng(93)
    phy = random_homogeneous_phylogeny(3, 0.25, 0.25, rng)
    align = sample_alignment(phy, potts_rate_matrix(2), 3000, rng)
    params = auto_reconstruction_params(0.25, 3000, estimator="majority")
    got = reconstruct_homogeneous(align, 2, params, np.random.default_rng(1))
    assert topologies_equal(got, unroot(phy))


def test_deep_tree_reconstruction():
    # 1,024 leaves at k = 4000: the quartets inside the gate are a tiny
    # fraction of the C(1024, 4) ~ 4.6e10 a full scan would visit
    rng = np.random.default_rng(0)
    phy = random_homogeneous_phylogeny(10, 0.2, 0.2, rng)
    align = sample_alignment(phy, potts_rate_matrix(2), 4000, rng)
    params = auto_reconstruction_params(0.2, 4000, estimator="majority")
    got = reconstruct_homogeneous(align, 2, params, rng)
    assert topologies_equal(got, unroot(phy))


def test_two_leaf_reconstruction():
    align = Alignment([1, 2], np.zeros((5, 2), dtype=int), 2)
    top = reconstruct_homogeneous(align, 2,
                                  ReconstructionParams(l=1, D=1.0, W=20.0),
                                  np.random.default_rng(0))
    assert top.leaves == frozenset({1, 2})
    assert top.adj == {1: [2], 2: [1]}


def test_single_site_reconstruction_fails_cleanly():
    align = Alignment(list(range(1, 9)), np.zeros((1, 8), dtype=int), 2)
    params = ReconstructionParams(l=1, D=1.0, W=20.0, f_min=0.1,
                                  estimator="majority")
    with pytest.raises(ReconstructionError) as exc:
        reconstruct_homogeneous(align, 2, params, np.random.default_rng(2))
    assert isinstance(exc.value, CherryMatchingError)
    assert exc.value.level == 0


def test_reconstruct_homogeneous_validation():
    params = ReconstructionParams(l=1, D=1.0, W=20.0)
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        reconstruct_homogeneous(Alignment([2, 3], np.zeros((4, 2), dtype=int), 2),
                                2, params, rng)
    with pytest.raises(ValueError):
        reconstruct_homogeneous(
            Alignment(list(range(1, 7)), np.zeros((4, 6), dtype=int), 2),
            2, params, rng)
    with pytest.raises(ValueError):
        reconstruct_homogeneous(empty_alignment(4), 2, params, rng)
