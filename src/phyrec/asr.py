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
"""

from __future__ import annotations

import math

import numpy as np

from .model import RateModel, delta_from_tau, transition_matrix
from .tree import Phylogeny

_BOOL_BUDGET = 1 << 25   # chunk one-hot work below ~32 MB


def _levels_of(n_leaves: int) -> int:
    h = int(n_leaves).bit_length() - 1
    if 2 ** h != n_leaves:
        raise ValueError(f"leaf count must be a power of two, got {n_leaves}")
    return h


def diluted_state_sets(leaf_states: np.ndarray, q: int, l: int) -> np.ndarray:
    """Candidate-state indicators for one or many leaf vectors.

    Parameters
    ----------
    leaf_states : (n,) or (batch, n) int array, left-to-right leaf order
    q, l : alphabet size and dilution parameter (l >= 1)

    Returns
    -------
    bool array of shape (q,) or (batch, q); entry i says whether an
    l-diluted monochromatic-i subtree exists.
    """
    if l < 1:
        raise ValueError(f"dilution parameter must be >= 1, got {l}")
    leaf_states = np.asarray(leaf_states)
    single = leaf_states.ndim == 1
    batch = leaf_states[None, :] if single else leaf_states
    h = _levels_of(batch.shape[1])

    # one-hot (B, q, n): leaf qualifies for state i iff it carries i.
    # Rows innermost, so each count/any reduction below adds whole slabs
    # of B rows instead of runs of 2^l bytes.
    qual = np.asfortranarray(batch)[:, None, :] == np.arange(q)[None, :, None]
    if h > 0:
        big = l * math.ceil(h / l)
        pad = big - h
        if pad:
            # Bottom diluted layer sits below the real leaves: each real
            # leaf stands for 2^pad >= 2 identical virtual descendants, so
            # a vertex at level big-l qualifies iff one leaf of its
            # real-leaf block matches.
            block = 2 ** (h - (big - l))
            qual = qual.reshape(*qual.shape[:2], -1, block).any(axis=-1)
            steps = big // l - 1
        else:
            steps = big // l
        for _ in range(steps):
            qual = np.count_nonzero(
                qual.reshape(*qual.shape[:2], -1, 2 ** l), axis=-1) >= 2
    result = qual[..., 0]
    return result[0] if single else result


def _rows_per_chunk(q: int, n: int) -> int:
    """Rows of n leaves whose (rows, q, n) one-hot work fits the budget."""
    return max(1, _BOOL_BUDGET // max(1, q * n))


def _diluted_guesses(sets: np.ndarray, rng) -> np.ndarray:
    """Guess-and-keep draw per row of (B, q) candidate indicators: a
    uniform state, kept when it is a candidate, otherwise replaced by a
    uniform draw from the other q-1 states."""
    n_rows, q = sets.shape
    x = rng.integers(q, size=n_rows)
    y = rng.integers(q - 1, size=n_rows)
    return np.where(sets[np.arange(n_rows), x], x, y + (y >= x))


def diluted_estimates(leaf_batch: np.ndarray, q: int, l: int, rng) -> np.ndarray:
    """Guess-and-keep diluted root estimate per row of (B, n) leaf states."""
    n_rows, n = leaf_batch.shape
    chunk = _rows_per_chunk(q, n)
    out = np.empty(n_rows, dtype=np.int32)
    for start in range(0, n_rows, chunk):
        sets = diluted_state_sets(leaf_batch[start:start + chunk], q, l)
        out[start:start + chunk] = _diluted_guesses(sets, rng)
    return out


def majority_estimates(leaf_batch: np.ndarray, q: int, rng) -> np.ndarray:
    """Plurality vote per row of (B, n) leaf states, ties broken uniformly."""
    n_rows = leaf_batch.shape[0]
    if leaf_batch.size and (leaf_batch.min() < 0 or leaf_batch.max() >= q):
        raise ValueError(f"leaf states must lie in 0..{q - 1}")
    codes = np.arange(n_rows)[:, None] * q + leaf_batch
    counts = np.bincount(codes.reshape(-1), minlength=n_rows * q)
    counts = counts.reshape(n_rows, q).astype(np.float64)
    # Sub-unit noise turns argmax into a uniform tie-break.
    return np.argmax(counts + rng.random(counts.shape), axis=1).astype(np.int32)


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
