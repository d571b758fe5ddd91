import tracemalloc

import numpy as np
import pytest
from scipy import stats

from phyrec.errors import EnumerationTooLargeError
from phyrec.model import potts_rate_matrix, transition_matrix, validate_gtr
from phyrec.simulate import (
    _NODE_SITE_BUDGET,
    Alignment,
    _broadcast_sites,
    exact_leaf_distribution,
    potts_batch_sample,
    read_alignment,
    sample_alignment,
    write_alignment,
)
from phyrec.tree import Phylogeny, homogeneous_phylogeny, random_homogeneous_phylogeny


def random_gtr_model(q, rng):
    s = rng.uniform(0.5, 2.0, size=(q, q))
    s = 0.5 * (s + s.T)
    pi = rng.dirichlet(np.full(q, 5.0))
    rate = s * pi[None, :]
    np.fill_diagonal(rate, 0.0)
    np.fill_diagonal(rate, -rate.sum(axis=1))
    model, _ = validate_gtr(q, rate, pi)
    return model


def brute_leaf_distribution(phy, model):
    """Joint leaf law by looping over every internal-state assignment."""
    q, n = model.q, phy.n_leaves
    edge = [None] + [transition_matrix(model, phy.edge_tau[v])
                     for v in range(1, phy.n_nodes)]
    n_internal = phy.first_leaf
    out = np.zeros((q,) * n)
    for internal in np.ndindex(*(q,) * n_internal):
        for leaves in np.ndindex(*(q,) * n):
            states = internal + leaves
            p = model.pi[states[0]]
            for v in range(1, phy.n_nodes):
                p *= edge[v][states[Phylogeny.parent(v)], states[v]]
            # grid axes follow labels, not positions
            out[tuple(leaves[phy.node_of_label(lab) - phy.first_leaf]
                      for lab in range(1, n + 1))] += p
    return out


def test_exact_leaf_distribution_is_a_law():
    phy = homogeneous_phylogeny(2, 0.4)
    law = exact_leaf_distribution(phy, potts_rate_matrix(3))
    assert law.shape == (3, 3, 3, 3)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(law >= 0)
    # symmetric model: uniform single-leaf marginals
    for axis in range(4):
        marg = law.sum(axis=tuple(a for a in range(4) if a != axis))
        assert np.allclose(marg, 1.0 / 3, atol=1e-12)


def test_exact_leaf_distribution_vs_brute_force():
    rng = np.random.default_rng(51)
    for q, h in [(2, 2), (3, 2), (2, 3)]:
        phy = random_homogeneous_phylogeny(h, 0.1, 0.8, rng)
        model = random_gtr_model(q, rng) if q == 3 else potts_rate_matrix(q)
        law = exact_leaf_distribution(phy, model)
        brute = brute_leaf_distribution(phy, model)
        assert np.max(np.abs(law - brute)) < 1e-12


def test_exact_leaf_distribution_axes_follow_labels():
    rng = np.random.default_rng(52)
    tau = np.array([0.0, 0.2, 0.5, 0.3, 0.7, 0.15, 0.4])
    plain = Phylogeny(h=2, edge_tau=tau, leaf_labels=np.array([1, 2, 3, 4]))
    shuffled = Phylogeny(h=2, edge_tau=tau, leaf_labels=np.array([3, 1, 4, 2]))
    model = potts_rate_matrix(2)
    law_p = exact_leaf_distribution(plain, model)
    law_s = exact_leaf_distribution(shuffled, model)
    # axis i always carries label i+1: moving label x to position j only
    # permutes which tree leaf the axis describes
    # position order of shuffled is labels (3,1,4,2) -> its label-ordered law
    # equals the plain law with axes mapped through the same permutation
    assert np.allclose(law_s, np.transpose(law_p, (1, 3, 0, 2)), atol=1e-15)


def test_enumeration_limit():
    with pytest.raises(EnumerationTooLargeError):
        exact_leaf_distribution(homogeneous_phylogeny(4, 0.3), potts_rate_matrix(64))


def chisq_pvalue(samples, law):
    """Goodness-of-fit p-value of leaf samples against an exact law."""
    q = law.shape[0]
    n = law.ndim
    radix = q ** np.arange(n - 1, -1, -1)
    codes = samples @ radix
    counts = np.bincount(codes, minlength=q ** n)
    expected = law.reshape(-1) * len(samples)
    keep = expected > 0
    _, p = stats.chisquare(counts[keep], expected[keep])
    return p


def test_samplers_match_exact_law():
    phy = homogeneous_phylogeny(2, 0.4)
    model = potts_rate_matrix(3)
    law = exact_leaf_distribution(phy, model)
    rng = np.random.default_rng(53)
    k = 20_000
    # leaf positions follow labels on this tree, so both share the law's axes
    for draw in (lambda: sample_alignment(phy, model, k, rng).states,
                 lambda: potts_batch_sample(phy, 3, k, rng)[:, phy.first_leaf:]):
        assert chisq_pvalue(draw(), law) > 1e-3


def test_potts_batch_sample_is_the_broadcast_kernel():
    phy = random_homogeneous_phylogeny(4, 0.1, 0.9, np.random.default_rng(59))
    for q in (2, 64):
        got = potts_batch_sample(phy, q, 300, np.random.default_rng(60))
        want = _broadcast_sites(phy, potts_rate_matrix(q), 300,
                                np.random.default_rng(60)).T
        assert got.shape == (300, phy.n_nodes)
        assert np.array_equal(got, want)
        assert got.flags.f_contiguous   # each node's column is contiguous


def test_broadcast_handles_gtr_models():
    rng = np.random.default_rng(54)
    model = random_gtr_model(3, rng)
    phy = homogeneous_phylogeny(2, 0.5)
    law = exact_leaf_distribution(phy, model)
    align = sample_alignment(phy, model, 20_000, rng)
    assert chisq_pvalue(align.states, law) > 1e-3


def count_below_sample(phy, model, k, rng):
    """Oracle: each child state is #(cum[parent] < u) for one uniform u
    per site and edge, drawn edge by edge."""
    states = np.empty((k, phy.n_nodes), dtype=np.int32)
    cum_pi = np.cumsum(model.pi)
    cum_pi[-1] = 1.0
    states[:, 0] = np.searchsorted(cum_pi, rng.random(k), side="right")
    for v in range(1, phy.n_nodes):
        cum = np.cumsum(transition_matrix(model, phy.edge_tau[v]), axis=1)
        cum[:, -1] = 1.0
        u = rng.random(k)
        states[:, v] = (cum[states[:, Phylogeny.parent(v)]] < u[:, None]).sum(axis=1)
    return states


def skewed_gtr_model():
    # skewed pi and two near-zero exchangeabilities (0-3 and 1-2)
    pi = np.array([0.85, 0.1, 0.04, 0.01])
    s = np.array([[0.0, 1.0, 2.0, 1e-6],
                  [1.0, 0.0, 1e-6, 0.5],
                  [2.0, 1e-6, 0.0, 1.5],
                  [1e-6, 0.5, 1.5, 0.0]])
    rate = s * pi[None, :]
    np.fill_diagonal(rate, -rate.sum(axis=1))
    return validate_gtr(4, rate, pi)[0]


SAMPLER_MODELS = [potts_rate_matrix(q) for q in (2, 3, 5, 64, 65)] + [skewed_gtr_model()]
SAMPLER_MODEL_IDS = ["potts2", "potts3", "potts5", "potts64", "potts65", "skewed-gtr"]


@pytest.mark.parametrize("model", SAMPLER_MODELS, ids=SAMPLER_MODEL_IDS)
@pytest.mark.parametrize("h,k", [(0, 0), (0, 1), (1, 0), (1, 1), (4, 700),
                                 # several nodes a block, the last one short
                                 (4, _NODE_SITE_BUDGET // 6),
                                 # one node a block, so a level spans many
                                 (3, _NODE_SITE_BUDGET + 1)])
def test_grouped_sampler_matches_count_below(model, h, k):
    rng = np.random.default_rng(59)
    phy = random_homogeneous_phylogeny(h, 0.01, 0.9, rng)
    # zero-length edges give identity matrices, zeros off the diagonal
    tau = phy.edge_tau.copy()
    tau[1::3] = 0.0
    phy = Phylogeny(h, tau, phy.leaf_labels.copy())
    draws = np.random.default_rng(7)
    full = _broadcast_sites(phy, model, k, draws).T
    oracle = np.random.default_rng(7)
    want = count_below_sample(phy, model, k, oracle)
    assert np.array_equal(full, want)
    # both consumed the same stream
    assert draws.random() == oracle.random()


def test_sampler_memory_stays_flat():
    """Peak traced memory of a 511-node, 4000-site draw: the (n_nodes, k)
    states (8.2 MB) and the leaf copy (4.1 MB) plus the block temporaries,
    which a 1 << 18 node-site budget would push to about 19 MB."""
    phy = homogeneous_phylogeny(8, 0.2)
    model = potts_rate_matrix(2)
    rng = np.random.default_rng(60)
    tracemalloc.start()
    try:
        align = sample_alignment(phy, model, 4000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert align.states.shape == (4000, 256)
    assert peak < 15e6


def test_degenerate_edges_copy_states():
    # tau = 0 everywhere: every node inherits the root state
    phy = homogeneous_phylogeny(3, 0.0)
    rng = np.random.default_rng(57)
    full = _broadcast_sites(phy, potts_rate_matrix(4), 20, rng).T
    for draw in (full, potts_batch_sample(phy, 4, 20, rng)):
        assert draw.shape == (20, phy.n_nodes)
        assert np.all(draw == draw[:, :1])


def test_leaf_columns_follow_labels():
    phy = random_homogeneous_phylogeny(3, 0.2, 0.6, np.random.default_rng(58))
    model = potts_rate_matrix(4)
    align = sample_alignment(phy, model, 50, np.random.default_rng(59))
    full = _broadcast_sites(phy, model, 50, np.random.default_rng(59)).T
    assert align.node_ids == list(range(1, 9))
    assert full.shape == (50, phy.n_nodes)
    for lab in range(1, 9):
        assert np.array_equal(align.column(lab), full[:, phy.node_of_label(lab)])


def test_sampler_determinism():
    phy = homogeneous_phylogeny(2, 0.3)
    model = potts_rate_matrix(2)
    a = sample_alignment(phy, model, 40, np.random.default_rng(99))
    b = sample_alignment(phy, model, 40, np.random.default_rng(99))
    assert np.array_equal(a.states, b.states)


def test_alignment_validation():
    with pytest.raises(ValueError):
        Alignment([1, 2], np.zeros((5, 3), dtype=int), 2)
    with pytest.raises(ValueError):
        Alignment([1, 2], np.array([[0, 2]]), 2)
    empty = Alignment([1, 2], np.empty((0, 2), dtype=int), 2)
    assert empty.k == 0


def test_alignment_file_roundtrip(tmp_path):
    rng = np.random.default_rng(59)
    phy = homogeneous_phylogeny(2, 0.4)
    align = sample_alignment(phy, potts_rate_matrix(3), 25, rng)
    path = tmp_path / "sites.tsv"
    write_alignment(path, align, comments=("made for the roundtrip test",))
    text = path.read_text()
    assert "q=3" in text and "k=25" in text
    assert "# made for the roundtrip test" in text
    # disk encoding is 1-based
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    disk_min = min(int(x) for ln in body[1:] for x in ln.split()[1:])
    assert disk_min >= 1
    back = read_alignment(path)
    assert back.q == align.q and back.k == align.k
    assert back.node_ids == align.node_ids
    assert np.array_equal(back.states, align.states)


def test_read_alignment_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("no header here\n1 2\n")
    with pytest.raises(ValueError, match="malformed alignment header"):
        read_alignment(path)
    path.write_text("q=2 k=2\nx\t1 2\n")
    with pytest.raises(ValueError, match="node name 'x' is not an integer"):
        read_alignment(path)
    path.write_text("q=2 k=3\n1\t1 2 a\n")
    with pytest.raises(ValueError, match="node 1: states must be integers, "
                                         "in alignment line '1.t1 2 a'"):
        read_alignment(path)
    for header in ("q=1 k=3", "q=2 k=-1"):
        path.write_text(header + "\n1\t1 1 1\n")
        with pytest.raises(ValueError, match=f"alignment header '{header}' "
                                             "needs q >= 2 and k >= 0"):
            read_alignment(path)
    for row in ("1 2 3", "0 1 2"):
        path.write_text(f"q=2 k=3\n4\t{row}\n")
        with pytest.raises(ValueError, match="node 4: states must lie in 1..2, "
                                             f"in alignment line '4.t{row}'"):
            read_alignment(path)
