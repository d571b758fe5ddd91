"""Root-state estimators for a homogeneous subtree: diluted and majority
estimates, each over rows of leaf states, and the exact posterior
(``exact_root_posterior`` for one site, ``_posterior_batch`` for rows).
Their Monte Carlo evaluation (error channel, dilution calibration,
accuracy) lives in ``experiments``.

The workhorse beyond the linear regime is the diluted-subtree estimator:
state i is a candidate for the root when the tree contains an l-diluted
binary subtree (every retained vertex at level s*l keeps exactly two
descendants at level (s+1)*l) whose bottom-level vertices all carry
state i.  The estimator draws a uniform state and keeps it when it is a
candidate, otherwise answers uniformly among the other states.  Its
composite effect on the root is itself a symmetric channel, which is
what makes reconstructed sequences usable as distance-estimation input.

When the number of levels is not a multiple of l, the tree is padded
with zero-length edges and the leaf states are copied downward; the
padding is applied arithmetically rather than by materialising copies.

The majority vote counts each row's states and breaks ties with sub-unit
uniform noise, a row chunk at a time (one ``rng.random((rows, q))`` a
chunk, which draws the same doubles as one call for all rows).  At q = 2
the count is a column sum: state 1 wins iff ones + u1 > zeros + u0, the
first-maximum rule of argmax over the noisy counts.

Candidate sets are bitmasks: one unsigned word per (row, vertex), the
narrowest of uint8..uint64 that holds q bits, or ceil(q/64) uint64
words above q = 64, with bit s meaning "state s qualifies".  A leaf
contributes 1 << state, and "at least two of the 2^l children" is a
carry-save count over the children's words (``twos |= ones & c;
ones |= c``), so one word operation covers every state at once.
"""

from __future__ import annotations

import math

import numpy as np

from .model import RateModel, delta_from_tau, transition_matrix
from .tree import Phylogeny

_BOOL_BUDGET = 1 << 25   # q * n leaf-state pairs per chunk; sets the RNG batch sizes
_VOTE_BUDGET = 1 << 16   # rows * (q + n) per majority chunk: counts, noise and leaves stay in cache


def _levels_of(n_leaves: int) -> int:
    h = int(n_leaves).bit_length() - 1
    if 2 ** h != n_leaves:
        raise ValueError(f"leaf count must be a power of two, got {n_leaves}")
    return h


def _check_states(leaf_batch: np.ndarray, q: int):
    if leaf_batch.size and (leaf_batch.min() < 0 or leaf_batch.max() >= q):
        raise ValueError(f"leaf states must lie in 0..{q - 1}")


def _leaf_rows(leaf_batch, q: int) -> np.ndarray:
    """``leaf_batch`` as a checked (rows, leaves) array of states in 0..q-1."""
    leaf_batch = np.asarray(leaf_batch)
    if leaf_batch.ndim != 2:
        raise ValueError(
            f"leaf_batch must be 2-D (rows, leaves), got shape {leaf_batch.shape}")
    _check_states(leaf_batch, q)
    return leaf_batch


def _word_dtype(q: int) -> np.dtype:
    """Smallest unsigned word holding q bits; uint64 (several words a
    set) above q = 64."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if q <= 8 * np.dtype(dtype).itemsize:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def _candidate_masks(batch: np.ndarray, q: int, l: int) -> np.ndarray:
    """Candidate sets of (B, n) leaf states in 0..q-1 as (B, W) words:
    bit s of word s // bits is set iff state s is a candidate.

    Vertices are node-major with rows innermost, (vertices, B, W), so
    each child taken below is a contiguous slab of B rows.  A leaf's
    mask is 1 << state (an oversized or wrapped shift gives 0 in the
    other words).  A vertex keeps a state iff at least two of its 2^l
    children do, counted by carry-save: ``ones`` holds the states seen
    in one child so far, ``twos`` those seen in two.
    """
    if l < 1:
        raise ValueError(f"dilution parameter must be >= 1, got {l}")
    n_rows, n = batch.shape
    h = _levels_of(n)
    dtype = _word_dtype(q)
    bits = 8 * dtype.itemsize
    n_words = -(-q // bits)
    masks = np.empty((n, n_rows, n_words), dtype=dtype)
    for w in range(n_words):
        shift = batch.T if w == 0 else np.subtract(
            batch.T, w * bits, dtype=np.int64, casting="unsafe")
        np.left_shift(1, shift, out=masks[:, :, w], dtype=dtype, casting="unsafe")
    if h > 0:
        big = l * math.ceil(h / l)
        steps = big // l
        if big > h:
            # Bottom diluted layer sits below the real leaves: each real
            # leaf stands for 2^(big - h) >= 2 identical virtual
            # descendants, so a vertex at level big-l qualifies iff one
            # leaf of its real-leaf block matches.
            block = 2 ** (h - (big - l))
            group = masks.reshape(n // block, block, n_rows, n_words)
            masks = group[:, 0] | group[:, 1]
            for j in range(2, block):
                masks |= group[:, j]
            steps -= 1
        fan = 2 ** l
        for _ in range(steps):
            group = masks.reshape(len(masks) // fan, fan, n_rows, n_words)
            twos = group[:, 0] & group[:, 1]
            if fan > 2:
                ones = group[:, 0] | group[:, 1]
                for j in range(2, fan):
                    twos |= ones & group[:, j]
                    if j < fan - 1:
                        ones |= group[:, j]
            masks = twos
    return masks[0]


def _has_state(masks: np.ndarray, rows, states) -> np.ndarray:
    """Whether bit ``states`` is set in row ``rows`` of (B, W) masks;
    ``rows`` and ``states`` broadcast as in fancy indexing."""
    bits = 8 * masks.itemsize
    bit = np.left_shift(1, states & (bits - 1), dtype=masks.dtype, casting="unsafe")
    words = masks.reshape(-1)[rows * masks.shape[1] + (states >> (bits.bit_length() - 1))]
    return words & bit != 0


def diluted_state_sets(leaf_states: np.ndarray, q: int, l: int) -> np.ndarray:
    """Candidate-state indicators for one or many leaf vectors.

    Parameters
    ----------
    leaf_states : (n,) or (batch, n) int array in 0..q-1, left-to-right
        leaf order
    q, l : alphabet size and dilution parameter (l >= 1)

    Returns
    -------
    bool array of shape (q,) or (batch, q); entry i says whether an
    l-diluted monochromatic-i subtree exists.
    """
    leaf_states = np.asarray(leaf_states)
    single = leaf_states.ndim == 1
    batch = leaf_states[None, :] if single else leaf_states
    _check_states(batch, q)
    masks = _candidate_masks(batch, q, l)
    sets = _has_state(masks, np.arange(len(masks))[:, None], np.arange(q))
    return sets[0] if single else sets


def _rows_per_chunk(q: int, n: int) -> int:
    """Rows of n leaves whose q * n leaf-state pairs fit the budget."""
    return max(1, _BOOL_BUDGET // max(1, q * n))


def _diluted_guesses(masks: np.ndarray, q: int, rng) -> np.ndarray:
    """Guess-and-keep draw per row of (B, W) candidate masks: a uniform
    state, kept when it is a candidate, otherwise replaced by a uniform
    draw from the other q-1 states."""
    n_rows = len(masks)
    x = rng.integers(q, size=n_rows)
    y = rng.integers(q - 1, size=n_rows)
    return np.where(_has_state(masks, np.arange(n_rows), x), x, y + (y >= x))


def diluted_estimates(leaf_batch: np.ndarray, q: int, l: int, rng) -> np.ndarray:
    """Guess-and-keep diluted root estimate per row of (B, n) leaf states."""
    leaf_batch = _leaf_rows(leaf_batch, q)
    n_rows, n = leaf_batch.shape
    chunk = _rows_per_chunk(q, n)
    out = np.empty(n_rows, dtype=np.int32)
    for start in range(0, n_rows, chunk):
        masks = _candidate_masks(leaf_batch[start:start + chunk], q, l)
        out[start:start + chunk] = _diluted_guesses(masks, q, rng)
    return out


def _count_dtype(dtype: np.dtype, n: int) -> np.dtype:
    """The rows' own integer dtype when it holds n, so a column sum
    reads them without a cast; int64 otherwise."""
    if dtype.kind in "iu" and np.iinfo(dtype).max >= n:
        return dtype
    return np.dtype(np.int64)


def majority_estimates(leaf_batch, q: int, rng) -> np.ndarray:
    """Plurality vote per row of (B, n) leaf states, ties broken uniformly."""
    leaf_batch = _leaf_rows(leaf_batch, q)
    n_rows, n = leaf_batch.shape
    chunk = max(1, _VOTE_BUDGET // (q + n))
    count_dtype = _count_dtype(leaf_batch.dtype, n)
    out = np.empty(n_rows, dtype=np.int32)
    for start in range(0, n_rows, chunk):
        rows = leaf_batch[start:start + chunk]
        # Sub-unit noise turns argmax into a uniform tie-break.
        noise = rng.random((len(rows), q))
        if q == 2:
            ones = np.add.reduce(rows, axis=1, dtype=count_dtype)
            out[start:start + chunk] = (ones + noise[:, 1]) > ((n - ones) + noise[:, 0])
        else:
            codes = np.add(np.arange(len(rows))[:, None] * q, rows, dtype=np.int64)
            counts = np.bincount(codes.ravel(order="K"), minlength=len(rows) * q)
            noise += counts.reshape(len(rows), q)
            out[start:start + chunk] = np.argmax(noise, axis=1)
    return out


# ---------------------------------------------------------------------------
# Exact posterior (Felsenstein pruning)


def _posterior_batch(phy: Phylogeny, model: RateModel, leaf_batch: np.ndarray) -> np.ndarray:
    """Exact root posteriors, (B, q), for leaf matrices in position order.

    Felsenstein pruning, each message scaled to a maximum of 1.  A leaf's
    upward message over an edge is a row of that edge's q x q table, what
    lifting its one-hot message gives entry for entry, so a leaf parent's
    message is the product of two row lookups.  Higher up, each popped
    child message is lifted over its edge in place.
    """
    q = model.q
    n_rows = leaf_batch.shape[0]
    first = phy.first_leaf
    symmetric = model.is_symmetric
    tables, messages = {}, {}

    def table(c):
        """Edge c's q x q table: row x lifts a leaf in state x."""
        tau = float(phy.edge_tau[c])
        if tau not in tables:
            if symmetric:
                delta = delta_from_tau(q, tau)
                tables[tau] = delta * 1.0 + (1.0 - q * delta) * np.eye(q)
            else:
                tables[tau] = transition_matrix(model, tau).T
        return tables[tau]

    def lift(c):
        """Child c's message lifted over its edge, in place when symmetric:
        delta * row sum + (1 - q delta) * message."""
        child = messages.pop(c)
        if not symmetric:
            return child @ table(c)
        delta = delta_from_tau(q, float(phy.edge_tau[c]))
        total = child.sum(axis=1, keepdims=True)
        child *= 1.0 - q * delta
        child += delta * total
        return child

    if phy.h == 0:
        root = np.zeros((n_rows, q))
        root[np.arange(n_rows), leaf_batch[:, 0]] = 1.0
    else:
        for v in range(first - 1, -1, -1):
            left, right = Phylogeny.children(v)
            if left >= first:
                msg = table(left)[leaf_batch[:, left - first]]
                msg *= table(right)[leaf_batch[:, right - first]]
            else:
                msg = lift(left)
                msg *= lift(right)
            msg /= np.maximum(msg.max(axis=1, keepdims=True), 1e-300)
            messages[v] = msg
        root = messages[0]
    post = root * model.pi[None, :]
    return post / post.sum(axis=1, keepdims=True)


def exact_root_posterior(phy: Phylogeny, model: RateModel, leaf_states) -> np.ndarray:
    """Posterior law of the root state given one site of leaf states
    (left-to-right position order)."""
    leaf_states = np.asarray(leaf_states, dtype=int)
    if leaf_states.shape != (phy.n_leaves,):
        raise ValueError(
            f"expected {phy.n_leaves} leaf states, got {leaf_states.shape}")
    return _posterior_batch(phy, model, leaf_states[None, :])[0]
