import itertools
import math
import tracemalloc

import numpy as np
import pytest

from phyrec.asr import (
    _VOTE_BUDGET,
    _candidate_masks,
    _posterior_batch,
    diluted_estimates,
    diluted_state_sets,
    exact_root_posterior,
    majority_estimates,
)
from phyrec.errors import CalibrationError
from phyrec.experiments import (
    CalibrationResult,
    calibrate_dilution,
    estimate_error_channel,
)
from phyrec.model import delta_from_tau, potts_rate_matrix, transition_matrix, validate_gtr
from phyrec.tree import Phylogeny, homogeneous_phylogeny, random_homogeneous_phylogeny


def oracle_candidates(leaves, q, l):
    """Reference diluted-subtree test by materialising the padded tree.

    A state qualifies when there is a subtree retaining the root and, per
    retained vertex, two descendants l levels down, whose bottom vertices
    all carry the state.  Real leaves are repeated 2^pad times to reach a
    multiple of l levels.
    """
    leaves = list(leaves)
    h = len(leaves).bit_length() - 1
    big = l * math.ceil(h / l) if h else 0
    virt = [s for s in leaves for _ in range(2 ** (big - h))]

    def exists(lo, hi, depth, state):
        if depth == big:
            return virt[lo] == state
        span = (hi - lo) // 2 ** l
        found = sum(exists(lo + j * span, lo + (j + 1) * span, depth + l, state)
                    for j in range(2 ** l))
        return found >= 2

    return [exists(0, len(virt), 0, i) for i in range(q)]


def one_hot_state_sets(leaf_states, q, l):
    """Reference candidate sets from a (B, q, n) one-hot: a vertex keeps
    state i iff at least two of its 2^l children do, counted per state."""
    batch = np.atleast_2d(leaf_states)
    h = batch.shape[1].bit_length() - 1
    qual = np.asfortranarray(batch)[:, None, :] == np.arange(q)[None, :, None]
    if h > 0:
        big = l * math.ceil(h / l)
        steps = big // l
        if big > h:
            block = 2 ** (h - (big - l))
            qual = qual.reshape(*qual.shape[:2], -1, block).any(axis=-1)
            steps -= 1
        for _ in range(steps):
            qual = np.count_nonzero(
                qual.reshape(*qual.shape[:2], -1, 2 ** l), axis=-1) >= 2
    return qual[..., 0]


def one_hot_estimates(leaf_batch, q, l, rng):
    """Reference guess-and-keep draw over one-hot candidate sets, chunked
    by the same 2^25 leaf-state pair budget."""
    n_rows, n = leaf_batch.shape
    chunk = max(1, (1 << 25) // (q * n))
    out = np.empty(n_rows, dtype=np.int32)
    for start in range(0, n_rows, chunk):
        sets = one_hot_state_sets(leaf_batch[start:start + chunk], q, l)
        x = rng.integers(q, size=len(sets))
        y = rng.integers(q - 1, size=len(sets))
        out[start:start + chunk] = np.where(sets[np.arange(len(sets)), x],
                                            x, y + (y >= x))
    return out


def structured_leaves(q, n_rows, n, rng):
    """Rows that give non-trivial candidate sets at any q: monochromatic,
    two-state mixtures drawn from a random pair or from {0, 63, 64, q-1}
    (word boundaries), and uniform states."""
    edges = np.array([s for s in (0, 63, 64, q - 1) if s < q])
    rows = []
    for i in range(n_rows):
        kind = i % 4
        if kind == 0:
            row = np.full(n, rng.integers(q))
        elif kind == 1:
            row = rng.choice(rng.integers(q, size=2), size=n)
        elif kind == 2:
            row = rng.choice(rng.choice(edges, size=2), size=n)
        else:
            row = rng.integers(q, size=n)
        rows.append(row)
    return np.array(rows, dtype=np.int32)


@pytest.mark.parametrize("q", [2, 3, 8, 9, 16, 17, 32, 33, 64, 65, 130])
def test_diluted_state_sets_match_one_hot_oracle(q):
    rng = np.random.default_rng(78 + q)
    for h in range(9):
        batch = structured_leaves(q, 24, 2 ** h, rng)
        for l in range(1, 5):
            want = one_hot_state_sets(batch, q, l)
            for layout in (np.ascontiguousarray, np.asfortranarray):
                got = diluted_state_sets(layout(batch), q, l)
                assert got.dtype == bool and got.shape == (24, q)
                assert np.array_equal(got, want), (h, l, layout.__name__)
            if h <= 4:       # the recursive oracle, on a few rows per case
                for row, pattern in zip(want[:4], batch[:4]):
                    assert row.tolist() == oracle_candidates(pattern, q, l)
        assert want.any()


@pytest.mark.parametrize("q", [2, 4, 64, 65, 130])
def test_candidate_masks_use_the_narrowest_word(q):
    masks = _candidate_masks(np.full((3, 4), q - 1), q, 1)
    width = {2: 1, 4: 1, 64: 8, 65: 8, 130: 8}[q]
    assert masks.itemsize == width
    assert masks.shape == (3, -(-q // (8 * width)))
    assert np.bitwise_count(masks).sum() == 3


@pytest.mark.parametrize("q,n_rows,n,l", [(2, 500, 2, 3), (4, 300, 8, 1),
                                          (64, 4000, 8, 3), (65, 200, 16, 2),
                                          (64, 2500, 512, 3), (130, 2100, 256, 4)])
def test_diluted_estimates_match_one_hot_draws(q, n_rows, n, l):
    # the last two rows take three chunks each
    batch = structured_leaves(q, n_rows, n, np.random.default_rng(q + n))
    rng, ref_rng = np.random.default_rng(79), np.random.default_rng(79)
    got = diluted_estimates(batch, q, l, rng)
    assert np.array_equal(got, one_hot_estimates(batch, q, l, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_diluted_estimates_memory_stays_below_one_hot():
    # a one-hot of these leaves would be 4000 * 64 * 32 bools = 8.2 MB
    batch = np.random.default_rng(80).integers(64, size=(4000, 32)).astype(np.int32)
    tracemalloc.start()
    try:
        diluted_estimates(batch, 64, 3, np.random.default_rng(81))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


@pytest.mark.parametrize("q,h,l", [(2, 3, 2), (3, 2, 1), (2, 2, 2), (2, 1, 2)])
def test_diluted_state_sets_exhaustive(q, h, l):
    n = 2 ** h
    for pattern in itertools.product(range(q), repeat=n):
        leaves = np.array(pattern)
        got = diluted_state_sets(leaves, q, l)
        assert got.tolist() == oracle_candidates(pattern, q, l), pattern


@pytest.mark.parametrize("q,h,l,seed", [(2, 4, 3, 61), (4, 3, 2, 62), (3, 4, 4, 63)])
def test_diluted_state_sets_random_patterns(q, h, l, seed):
    rng = np.random.default_rng(seed)
    batch = rng.integers(q, size=(400, 2 ** h))
    got = diluted_state_sets(batch, q, l)
    assert got.shape == (400, q)
    for row, pattern in zip(got, batch):
        assert row.tolist() == oracle_candidates(pattern, q, l)


def test_diluted_state_sets_one_row_matches_batch():
    rng = np.random.default_rng(64)
    batch = rng.integers(3, size=(50, 8))
    sets = diluted_state_sets(batch, 3, 2)
    for pattern, row in zip(batch, sets):
        assert np.array_equal(diluted_state_sets(pattern, 3, 2), row)


@pytest.mark.parametrize("q,h,l", [(4, 6, 3), (64, 3, 3), (4, 4, 3), (8, 5, 2)])
def test_diluted_state_sets_ignore_memory_layout(q, h, l):
    # (4, 6, 3) and (64, 3, 3) divide the levels, (4, 4, 3) and (8, 5, 2) pad
    rng = np.random.default_rng(65)
    batch = rng.integers(q, size=(300, 2 ** h))
    c_sets = diluted_state_sets(np.ascontiguousarray(batch), q, l)
    f_sets = diluted_state_sets(np.asfortranarray(batch), q, l)
    assert np.array_equal(c_sets, f_sets)
    assert 0 < c_sets.sum() < c_sets.size


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.int64, np.uint64])
def test_diluted_state_sets_ignore_integer_dtype(dtype):
    # q=130 spans three words; unsigned inputs below a word's first state
    # must not wrap into it
    batch = structured_leaves(130, 40, 16, np.random.default_rng(83))
    want = one_hot_state_sets(batch, 130, 2)
    assert np.array_equal(diluted_state_sets(batch.astype(dtype), 130, 2), want)


def test_diluted_state_sets_rejects_bad_input():
    with pytest.raises(ValueError):
        diluted_state_sets(np.zeros(8, dtype=int), 2, 0)
    with pytest.raises(ValueError):
        diluted_state_sets(np.zeros(6, dtype=int), 2, 1)  # not a power of two
    for bad in ([5, 5], [-1, -1], [[0, 1], [1, 2]]):
        with pytest.raises(ValueError, match="leaf states must lie in 0..1"):
            diluted_state_sets(bad, 2, 1)
    with pytest.raises(ValueError, match="leaf states must lie in 0..3"):
        diluted_estimates([[7, 7, 7, 7]], 4, 1, np.random.default_rng(82))
    for bad in ([0, 1, 1, 0], 3, np.zeros((1, 2, 4), dtype=int)):
        with pytest.raises(ValueError, match="leaf_batch must be 2-D"):
            diluted_estimates(bad, 2, 1, np.random.default_rng(82))


def test_diluted_estimator_law_on_monochromatic_leaves():
    # all leaves carry 3: candidate set is exactly {3}; the guess-and-keep
    # rule then answers 3 with probability 1/4 + (3/4)(1/3) = 1/2
    leaves = np.full(4, 3)
    rng = np.random.default_rng(65)
    draws = np.array([diluted_estimates(leaves[None, :], 4, 1, rng)[0]
                      for _ in range(3000)])
    freq3 = np.mean(draws == 3)
    assert abs(freq3 - 0.5) < 0.05
    others = [np.mean(draws == s) for s in range(3)]
    assert all(abs(f - 1.0 / 6) < 0.05 for f in others)


def test_diluted_estimates_matches_scalar_law():
    # tile one fixed leaf vector: a many-row batch must reproduce the
    # guess-and-keep law of one-row calls (candidate set {3}, see above)
    batch = np.tile(np.full((1, 4), 3), (3000, 1))
    draws = diluted_estimates(batch, 4, 1, np.random.default_rng(66))
    assert draws.shape == (3000,)
    assert abs(np.mean(draws == 3) - 0.5) < 0.05
    for s in range(3):
        assert abs(np.mean(draws == s) - 1.0 / 6) < 0.05


class FlatNoise:
    """Stands in for a Generator whose every uniform draw is 0.5."""

    def random(self, shape):
        return np.full(shape, 0.5)


def test_majority_estimator():
    rng = np.random.default_rng(67)
    assert majority_estimates(np.array([[0, 0, 1, 2]]), 3, rng)[0] == 0
    assert majority_estimates(np.array([[2, 2, 2, 2]]), 3, rng)[0] == 2
    # array-likes are accepted
    assert majority_estimates([[1, 1], [1, 1]], 2, rng).tolist() == [1, 1]
    # equal noise on every state: a tie goes to the first maximum, as in argmax
    for q in (2, 3):
        tied = np.array([[0, 1], [1, 0], [1, 1], [q - 1, 1]])
        assert majority_estimates(tied, q, FlatNoise()).tolist() == [0, 0, 1, 1]
    # two-way tie breaks uniformly
    draws = majority_estimates(np.tile(np.array([[0, 1]]), (2000, 1)), 2, rng)
    ones = int(draws.sum())
    assert 800 < ones < 1200
    # the batch agrees with per-row counts on untied rows
    batch = rng.integers(3, size=(300, 9))
    vec = majority_estimates(batch, 3, rng)
    for i in range(300):
        counts = np.bincount(batch[i], minlength=3)
        if (counts == counts.max()).sum() == 1:
            assert vec[i] == counts.argmax()


def add_at_majority(leaf_batch, q, rng):
    """Oracle: per-row counts scattered with np.add.at, then the same
    sub-unit noise tie-break."""
    n_rows = leaf_batch.shape[0]
    counts = np.zeros((n_rows, q))
    np.add.at(counts, (np.arange(n_rows)[:, None], leaf_batch), 1.0)
    return np.argmax(counts + rng.random(counts.shape), axis=1).astype(np.int32)


@pytest.mark.parametrize("q,n_rows,n", [(2, 500, 32), (3, 300, 9), (64, 400, 2),
                                        (65, 50, 128), (4, 0, 8), (5, 7, 1)])
def test_majority_estimates_matches_add_at_oracle(q, n_rows, n):
    batch = np.random.default_rng(q + n).integers(q, size=(n_rows, n)).astype(np.int32)
    got = majority_estimates(batch, q, np.random.default_rng(74))
    want = add_at_majority(batch, q, np.random.default_rng(74))
    assert got.dtype == want.dtype and np.array_equal(got, want)


def bincount_majority(leaf_batch, q, rng):
    """Oracle: one bincount over all rows, then argmax over the counts
    plus one (B, q) draw of sub-unit noise."""
    n_rows = leaf_batch.shape[0]
    codes = np.arange(n_rows)[:, None] * q + leaf_batch
    counts = np.bincount(codes.reshape(-1), minlength=n_rows * q)
    counts = counts.reshape(n_rows, q).astype(np.float64)
    return np.argmax(counts + rng.random(counts.shape), axis=1).astype(np.int32)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 8), (2, 130), (3, 1), (3, 4),
                                 (5, 6), (64, 2), (64, 16), (130, 4)])
def test_majority_estimates_match_bincount_oracle(q, n):
    # even n gives q = 2 ties; row counts straddle the chunk boundaries,
    # and the generator must end where one (B, q) draw leaves it
    chunk = _VOTE_BUDGET // (q + n)
    for n_rows in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 5):
        batch = np.random.default_rng([q, n, n_rows]).integers(q, size=(n_rows, n))
        for rows in (batch.astype(np.int8 if q < 128 else np.int16),
                     np.asfortranarray(batch.astype(np.int32)),
                     batch.astype(np.uint64)):
            rng, ref = np.random.default_rng(76), np.random.default_rng(76)
            got = majority_estimates(rows, q, rng)
            want = bincount_majority(batch, q, ref)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_majority_estimates_rejects_states_outside_alphabet():
    rng = np.random.default_rng(75)
    for bad in ([[0, 2]], [[-1, 0]]):
        with pytest.raises(ValueError, match="leaf states must lie in 0..1"):
            majority_estimates(np.array(bad), 2, rng)
    for bad in (np.array([0, 1]), [1], 0, np.zeros((2, 2, 2), dtype=int)):
        with pytest.raises(ValueError, match="leaf_batch must be 2-D"):
            majority_estimates(bad, 2, rng)


def test_estimate_error_channel_shallow_signal():
    phy = homogeneous_phylogeny(2, 0.25)
    est = estimate_error_channel(phy, 4, 1, 6000, np.random.default_rng(68))
    assert est.sample_count == 6000
    assert est.counts.sum() == 6000
    assert np.allclose(est.matrix.sum(axis=1), 1.0, atol=1e-9)
    diag = float(np.mean(np.diag(est.matrix)))
    assert diag > 0.25  # clear signal this shallow
    assert not est.no_signal
    assert math.isfinite(est.b_hat) and est.b_hat > 0
    assert est.eps_hat > 0 and math.isfinite(est.b_bar)


def test_estimate_error_channel_no_signal_flag():
    # far above the percolation threshold nothing survives depth 6
    phy = homogeneous_phylogeny(6, 2.5)
    est = estimate_error_channel(phy, 2, 1, 4000, np.random.default_rng(69))
    diag = float(np.mean(np.diag(est.matrix)))
    assert est.no_signal == (diag <= 0.5)
    assert abs(diag - 0.5) < 0.05


def test_calibrate_dilution_subcritical():
    result = calibrate_dilution(2, 0.2, 3, np.random.default_rng(70),
                                l_max=4, trials=4000)
    assert isinstance(result, CalibrationResult)
    assert 1 <= result.l <= 4
    assert result.eps_hat > 0
    assert result.fp_hat <= result.eps_hat / 2
    assert result.table[-1][0] == result.l


def test_calibrate_dilution_failure_has_table():
    # tau close to ln 2 at this depth: candidate frequencies never separate
    with pytest.raises(CalibrationError) as exc:
        calibrate_dilution(2, 0.65, 6, np.random.default_rng(71),
                           l_max=3, trials=2000)
    table = exc.value.table
    assert [row[0] for row in table] == [1, 2, 3]
    assert all(len(row) == 3 for row in table)


def test_calibrate_dilution_rejects_trace_level_signal():
    # At q=64, g=0.5, the l=2 candidate sets are almost always empty by
    # depth 8: a handful of lucky hits must not count as a usable level.
    with pytest.raises(CalibrationError) as exc:
        calibrate_dilution(64, 0.5, 8, np.random.default_rng(73),
                           l_max=2, trials=4000)
    table = exc.value.table
    assert [row[0] for row in table] == [1, 2]
    assert all(eps < 0.01 for _, eps, _ in table)


def test_calibrate_dilution_rejects_bad_g():
    rng = np.random.default_rng(72)
    for g in (0.0, -0.1, math.log(2.0), 1.5):
        with pytest.raises(ValueError):
            calibrate_dilution(2, g, 3, rng)


def brute_posterior(phy, model, leaf_states):
    """Posterior by explicit summation over internal assignments."""
    q = model.q
    edge = [None] + [transition_matrix(model, phy.edge_tau[v])
                     for v in range(1, phy.n_nodes)]
    n_internal = phy.first_leaf
    post = np.zeros(q)
    for internal in itertools.product(range(q), repeat=n_internal):
        states = tuple(internal) + tuple(leaf_states)
        p = model.pi[states[0]]
        for v in range(1, phy.n_nodes):
            p *= edge[v][states[Phylogeny.parent(v)], states[v]]
        post[states[0]] += p
    return post / post.sum()


def pruning_oracle(phy, model, leaf_batch):
    """Felsenstein pruning with one-hot leaf messages, every node lifting
    its children into fresh arrays."""
    q = model.q
    n_rows = leaf_batch.shape[0]
    symmetric = model.is_symmetric
    matrices = {}
    messages = {}
    for v in range(phy.n_nodes - 1, -1, -1):
        if v >= phy.first_leaf:
            msg = np.zeros((n_rows, q))
            msg[np.arange(n_rows), leaf_batch[:, v - phy.first_leaf]] = 1.0
        else:
            msg = None
            for c in Phylogeny.children(v):
                child = messages.pop(c)
                tau = float(phy.edge_tau[c])
                if symmetric:
                    delta = delta_from_tau(q, tau)
                    up = delta * child.sum(axis=1, keepdims=True) \
                        + (1.0 - q * delta) * child
                else:
                    if tau not in matrices:
                        matrices[tau] = transition_matrix(model, tau)
                    up = child @ matrices[tau].T
                msg = up if msg is None else msg * up
            msg = msg / np.maximum(msg.max(axis=1, keepdims=True), 1e-300)
        messages[v] = msg
    post = messages[0] * model.pi[None, :]
    return post / post.sum(axis=1, keepdims=True)


def skewed_pi_gtr(q=4):
    rng = np.random.default_rng(76)
    s = rng.uniform(0.5, 2.0, size=(q, q))
    s = 0.5 * (s + s.T)
    pi = np.array([0.85, 0.1, 0.04, 0.01])
    rate = s * pi[None, :]
    np.fill_diagonal(rate, 0.0)
    np.fill_diagonal(rate, -rate.sum(axis=1))
    return validate_gtr(q, rate, pi)[0]


@pytest.mark.parametrize("model", [potts_rate_matrix(q) for q in (2, 3, 64, 65)]
                         + [skewed_pi_gtr()],
                         ids=["potts2", "potts3", "potts64", "potts65", "skewed-gtr"])
@pytest.mark.parametrize("h", range(8))
def test_posterior_batch_matches_pruning_oracle(model, h):
    rng = np.random.default_rng(77 + h)
    phy = random_homogeneous_phylogeny(h, 1e-4, 1.5, rng)
    tau = phy.edge_tau.copy()
    tau[2::4] = 0.0                     # zero-length edges among per-edge lengths
    phy = Phylogeny(h, tau, phy.leaf_labels.copy())
    leaves = rng.integers(model.q, size=(40, phy.n_leaves))
    leaves[:5] = leaves[:5, :1]         # monochromatic rows
    got = _posterior_batch(phy, model, leaves)
    assert np.array_equal(got, pruning_oracle(phy, model, leaves))


def test_exact_root_posterior_vs_enumeration():
    rng = np.random.default_rng(73)
    for _ in range(20):
        q = int(rng.integers(2, 4))
        h = int(rng.integers(1, 4))
        phy = random_homogeneous_phylogeny(h, 0.05, 1.2, rng)
        if rng.random() < 0.5:
            model = potts_rate_matrix(q)
        else:
            s = rng.uniform(0.5, 2.0, size=(q, q))
            s = 0.5 * (s + s.T)
            pi = rng.dirichlet(np.full(q, 5.0))
            rate = s * pi[None, :]
            np.fill_diagonal(rate, 0.0)
            np.fill_diagonal(rate, -rate.sum(axis=1))
            model, _ = validate_gtr(q, rate, pi)
        leaves = rng.integers(q, size=phy.n_leaves)
        got = exact_root_posterior(phy, model, leaves)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(got - brute_posterior(phy, model, leaves))) < 1e-12


def test_exact_root_posterior_symmetry():
    # two leaves in different states across equal edges: posterior uniform
    phy = homogeneous_phylogeny(1, 0.3)
    post = exact_root_posterior(phy, potts_rate_matrix(2), np.array([0, 1]))
    assert np.allclose(post, 0.5, atol=1e-14)


def test_exact_root_posterior_validates_shape():
    phy = homogeneous_phylogeny(2, 0.3)
    with pytest.raises(ValueError):
        exact_root_posterior(phy, potts_rate_matrix(2), np.array([0, 1]))
