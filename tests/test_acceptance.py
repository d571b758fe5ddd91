"""End-to-end acceptance battery.

Each test prints one ``ACCEPTANCE <n> <name>: PASS/FAIL`` line (run with
``pytest -s`` to see them as they complete) carrying the measured
numbers and the wall-clock time next to the stated budget.  Budgets are
informational only — printed, never asserted — so a slow machine cannot
turn a correct build red.

All seeds are fixed.  Two checks sit close to their statistical margin
by construction and are documented inline (check 9's concentration rate
is a ~2.4 sigma event over seeds; check 7's chi-square bound a ~3 sigma
one); the pinned streams pass with room.
"""

import itertools
import math
import time

import numpy as np
from scipy.linalg import expm
from scipy.stats import chisquare

from phyrec.asr import exact_root_posterior
from phyrec.errors import ReconstructionError
from phyrec.experiments import (
    bootstrap_decreasing_probability,
    calibrate_dilution,
    distinguishability_probe,
    estimate_error_channel,
    homogeneous_phylogeny,
    pipeline_trial,
    random_homogeneous_phylogeny,
)
from phyrec.metric import distance_concentration_check, tree_metric
from phyrec.model import (
    potts_rate_matrix,
    potts_transition_matrix,
    transition_matrix,
    validate_gtr,
)
from phyrec.reconstruct import (
    ReconstructionParams,
    auto_reconstruction_params,
    reconstruct_homogeneous,
)
from phyrec.simulate import Alignment, exact_leaf_distribution, sample_alignment
from phyrec.tree import Phylogeny, topologies_equal, unroot


def _verdict(num: int, name: str, ok: bool, t0: float, budget: str,
             detail: str) -> bool:
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} "
          f"[{elapsed:.1f} s, budget {budget}] {detail}", flush=True)
    return ok


def _random_gtr_model(q, rng):
    """Random reversible model from a symmetric flux matrix."""
    s = rng.uniform(0.5, 2.0, size=(q, q))
    s = 0.5 * (s + s.T)
    pi = rng.dirichlet(np.full(q, 5.0))
    rate = s * pi[None, :]
    np.fill_diagonal(rate, 0.0)
    np.fill_diagonal(rate, -rate.sum(axis=1))
    model, _ = validate_gtr(q, rate, pi)
    return model


# ---------------------------------------------------------------------------
# 1. Potts closed form vs the generic matrix exponential


def test_01_closed_form_matches_matrix_exponential():
    t0 = time.perf_counter()
    taus = (0.05, 0.5 * math.log(2.0), 0.5, math.log(2.0), 2.0)
    worst = 0.0
    for q in (2, 4, 16, 64):
        model = potts_rate_matrix(q)
        for tau in taus:
            closed = potts_transition_matrix(q, tau)
            brute = expm(tau * np.asarray(model.rate_matrix))
            worst = max(worst, float(np.max(np.abs(closed - brute))))
    assert _verdict(1, "closed form vs matrix exponential", worst < 1e-10,
                    t0, "< 1 s", f"max |diff| {worst:.2e} over 4 q x 5 tau")


# ---------------------------------------------------------------------------
# 2. The broadcast sampler and the random-cluster oracle against the
#    exact leaf law


class _DisjointSets:
    """Union-find with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:   # compress the walked path
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def random_cluster_sample(phy: Phylogeny, q: int, rng) -> np.ndarray:
    """States at every node via the random-cluster mechanism.

    Each edge of length tau is open with probability exp(-tau); the
    connected clusters of open edges get independent uniform colours.
    For the symmetric model this has exactly the broadcast law.
    """
    n = phy.n_nodes
    dsu = _DisjointSets(n)
    open_edge = rng.random(n) < np.exp(-phy.edge_tau)
    for v in range(1, n):
        if open_edge[v]:
            dsu.union(v, Phylogeny.parent(v))
    colours = rng.integers(q, size=n)
    return np.array([colours[dsu.find(v)] for v in range(n)], dtype=np.int32)


def test_02_samplers_match_exact_leaf_law():
    t0 = time.perf_counter()
    k = 100_000
    phy = homogeneous_phylogeny(2, 0.4)
    model = potts_rate_matrix(3)
    expected = exact_leaf_distribution(phy, model).reshape(-1) * k
    powers = 3 ** np.arange(phy.n_leaves - 1, -1, -1)
    rng = np.random.default_rng(20)
    # leaf positions follow labels on this tree, so both share the law's axes
    samples = {"broadcast": lambda: sample_alignment(phy, model, k, rng).states,
               "cluster": lambda: np.stack([random_cluster_sample(phy, 3, rng)
                                            for _ in range(k)])[:, phy.first_leaf:]}
    pvals = {}
    for sampler, draw in samples.items():
        counts = np.bincount(draw() @ powers, minlength=expected.size)
        pvals[sampler] = float(chisquare(counts, expected).pvalue)
    ok = all(p > 0.01 for p in pvals.values())
    assert _verdict(2, "sampler goodness of fit", ok, t0, "< 1 min",
                    "h=2 q=3 tau=0.4, " +
                    ", ".join(f"{s}: p={p:.3f}" for s, p in pvals.items()))


# ---------------------------------------------------------------------------
# 3. Pruning posterior vs exhaustive enumeration


def _enumerated_posterior(phy, model, leaf_states):
    q = model.q
    edge = [None] + [transition_matrix(model, phy.edge_tau[v])
                     for v in range(1, phy.n_nodes)]
    post = np.zeros(q)
    for internal in itertools.product(range(q), repeat=phy.first_leaf):
        states = tuple(internal) + tuple(leaf_states)
        p = model.pi[states[0]]
        for v in range(1, phy.n_nodes):
            p *= edge[v][states[Phylogeny.parent(v)], states[v]]
        post[states[0]] += p
    return post / post.sum()


def test_03_root_posterior_matches_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)
    worst = 0.0
    for trial in range(100):
        q = int(rng.integers(2, 4))
        h = int(rng.integers(1, 4))
        phy = random_homogeneous_phylogeny(h, 0.05, 1.2, rng)
        model = potts_rate_matrix(q) if trial % 2 else _random_gtr_model(q, rng)
        leaves = rng.integers(q, size=phy.n_leaves)
        got = exact_root_posterior(phy, model, leaves)
        want = _enumerated_posterior(phy, model, leaves)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert _verdict(3, "root posterior vs enumeration", worst < 1e-12,
                    t0, "< 10 s", f"max |diff| {worst:.2e} over 100 instances")


# ---------------------------------------------------------------------------
# 4. Reconstruction from exact metrics


def _exact_metric_fn(phy):
    """Exact tree distance between vertices named by their leaf sets."""
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

    return lambda lu, lv: float(tm[node_of[frozenset(lu)],
                                   node_of[frozenset(lv)]])


def test_04_noiseless_reconstruction_is_perfect():
    t0 = time.perf_counter()
    rng = np.random.default_rng(40)
    params = ReconstructionParams(l=1, D=100.0, W=20.0, f_min=0.1)
    wins = {}
    for h in (2, 3, 4):
        hits = 0
        for _ in range(100):
            phy = random_homogeneous_phylogeny(h, 0.1, 0.6, rng)
            empty = Alignment(list(range(1, phy.n_leaves + 1)),
                              np.empty((0, phy.n_leaves), dtype=int), 2)
            try:
                got = reconstruct_homogeneous(empty, 2, params, rng,
                                              metric_fn=_exact_metric_fn(phy))
                hits += int(topologies_equal(got, unroot(phy)))
            except ReconstructionError:
                pass
        wins[h] = hits
    ok = all(v == 100 for v in wins.values())
    assert _verdict(4, "noiseless reconstruction", ok, t0, "< 1 min",
                    "f=0.1 g=0.6, " +
                    ", ".join(f"h={h}: {v}/100" for h, v in wins.items()))


# ---------------------------------------------------------------------------
# 5 and 6. The two sides of the ln sqrt(2) transition at the same (h, k)


def _pipeline_success_rate(tau, rng, trials=50):
    phy = homogeneous_phylogeny(7, tau)
    model = potts_rate_matrix(2)
    params = auto_reconstruction_params(tau, 4000, estimator="majority")
    return sum(pipeline_trial(phy, model, 4000, params, rng)
               for _ in range(trials))


def test_05_subcritical_reconstruction_succeeds():
    t0 = time.perf_counter()
    wins = _pipeline_success_rate(0.2, np.random.default_rng(50))
    assert _verdict(5, "subcritical pipeline (tau=0.2)", wins >= 45,
                    t0, "< 10 min", f"h=7 k=4000: success {wins}/50, need >= 45")


def test_06_supercritical_pipeline_fails_and_signal_decays():
    t0 = time.perf_counter()
    rng = np.random.default_rng(60)
    wins = _pipeline_success_rate(0.9, rng)
    tvs = [distinguishability_probe(2, 0.9, depth, 4000, 2, rng,
                                    method="exact").tv
           for depth in (2, 3, 4)]
    decreasing = tvs[0] > tvs[1] > tvs[2]
    ok = wins <= 10 and decreasing
    assert _verdict(6, "supercritical pipeline (tau=0.9)", ok, t0, "< 10 min",
                    f"success {wins}/50 (need <= 10); TV by depth "
                    + " ".join(f"{tv:.4f}" for tv in tvs)
                    + f", decreasing={decreasing}")


# ---------------------------------------------------------------------------
# 7. Deep ancestral reconstruction past the Kesten-Stigum threshold


def test_07_diluted_asr_survives_depth_at_q64():
    """q=64, tau=0.5 sits between ln sqrt(2) and ln 2: naive estimators
    lose the root with depth but the calibrated diluted estimator must
    not.  One simulation per depth feeds all three claims: accuracy
    shows no decreasing trend (bootstrap), the pooled channel diagonal
    beats 1/q, and the pooled off-diagonals are mutually equal — tested
    as one global chi-square against uniform errors within each row,
    required to stay within 3 standard deviations of its null mean.  A
    per-cell 3-sigma rule would be wrong here: with 64*63 cells, ~10
    violations are expected under the null at any sample size."""
    t0 = time.perf_counter()
    q, trials = 64, 10_000
    rng = np.random.default_rng(70)
    calib = calibrate_dilution(q, 0.5, 9, rng, trials=trials)
    outcome_vectors = []
    accs = []
    pooled = np.zeros((q, q), dtype=np.int64)
    for h in range(4, 10):
        est = estimate_error_channel(homogeneous_phylogeny(h, 0.5), q,
                                     calib.l, trials, rng)
        correct = int(np.trace(est.counts))
        accs.append(correct / trials)
        outcome_vectors.append(np.repeat([1, 0], [correct, trials - correct]))
        pooled += est.counts
    p_decreasing = bootstrap_decreasing_probability(outcome_vectors, 2000, rng)
    diag_rate = float(np.trace(pooled)) / float(pooled.sum())
    chi2, dof = 0.0, 0
    for i in range(q):
        row = np.delete(pooled[i], i)
        mean = row.sum() / (q - 1.0)
        if mean > 0:
            chi2 += float(((row - mean) ** 2 / mean).sum())
            dof += q - 2
    bound = dof + 3.0 * math.sqrt(2.0 * dof)
    ok = (p_decreasing < 0.95 and diag_rate > 1.0 / q and chi2 <= bound)
    assert _verdict(
        7, "deep diluted ASR at q=64", ok, t0, "< 15 min",
        f"l={calib.l}, accuracy h=4..9: "
        + " ".join(f"{a:.4f}" for a in accs)
        + f" (1/q={1 / q:.4f}); P[decreasing]={p_decreasing:.3f} (need < 0.95); "
          f"pooled diagonal {diag_rate:.5f} > {1 / q:.5f}; "
          f"off-diagonal chi2 {chi2:.0f} <= {bound:.0f} (dof {dof})")


# ---------------------------------------------------------------------------
# 8. Semigroup property of the transition channels


def test_08_channel_composition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(80)
    worst = 0.0
    for trial in range(100):
        q = int(rng.integers(2, 65))
        b1, b2 = rng.uniform(0.05, 2.0, size=2)
        if trial % 2:
            channel = lambda b: potts_transition_matrix(q, b)
        else:
            model = _random_gtr_model(q, rng)
            channel = lambda b: transition_matrix(model, b)
        diff = np.max(np.abs(channel(b1) @ channel(b2) - channel(b1 + b2)))
        worst = max(worst, float(diff))
    assert _verdict(8, "channel composition", worst < 1e-10, t0, "< 1 s",
                    f"max |e(b1)e(b2) - e(b1+b2)| = {worst:.2e} over 100 triples")


# ---------------------------------------------------------------------------
# 9. Distance concentration and the diameter gate


def test_09_distance_concentration_and_gate():
    """The fixture tree puts leaf pairs in every distance class at D=1,
    W=20: cherries at 0.4 (the concentration claim |tau_hat - 0.4| <
    0.05, pooled over 4 pairs x 200 trials), pairs through a grandparent
    at 1.8 (the gate D + ln(W/4) ~ 2.61 must stay quiet) and cross-root
    pairs at 4.2 (it must fire).  At k=4000 the concentration event is
    2.8-2.9 sigma per pair-trial, i.e. ~99.56% expected against the 99%
    bar — about 2.4 sigma of slack over seeds, so the seed is pinned."""
    t0 = time.perf_counter()
    edge_tau = np.zeros(15)
    edge_tau[1:3] = 1.2
    edge_tau[3:7] = 0.7
    edge_tau[7:] = 0.2
    phy = Phylogeny(h=3, edge_tau=edge_tau, leaf_labels=np.arange(1, 9))
    report = distance_concentration_check(
        phy, potts_rate_matrix(2), k=4000, D=1.0, delta=0.05, trials=200,
        rng=np.random.default_rng(90), W=20.0)
    gate_rate = report.gate_classification_rate()
    ok = report.rate_concentration >= 0.99 and gate_rate >= 0.99
    assert _verdict(9, "distance concentration and gate", ok, t0, "< 2 min",
                    f"q=2 tau=0.4 k=4000: concentration "
                    f"{report.rate_concentration:.4f}, gate classification "
                    f"{gate_rate:.4f} (both need >= 0.99); far-pair depth "
                    f"rate {report.rate_far_deep:.4f} (reported only)")
