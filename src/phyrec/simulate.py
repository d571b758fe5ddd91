"""Sampling site patterns on phylogenies, plus the exact leaf law.

``sample_alignment`` broadcasts sites one tree level at a time through
the transition matrices of any rate model.  ``potts_batch_sample``, which
the Monte Carlo drivers use, runs the same kernel under the symmetric
model and returns every node's states.  Both are tested against the exact
leaf law, and against the random-cluster mechanism kept in the tests as
an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationTooLargeError
from .model import RateModel, potts_rate_matrix, transition_matrix
from .tree import Phylogeny

EXACT_ENUMERATION_LIMIT = 10 ** 6
_NODE_SITE_BUDGET = 1 << 15   # node-sites per sampling block, ~1 MB of temporaries


@dataclass
class Alignment:
    """k i.i.d. site samples at a set of nodes.

    ``states`` has shape (k, len(node_ids)) with values in 0..q-1; column
    j belongs to ``node_ids[j]``.  On disk states are written 1-based.
    """

    node_ids: list
    states: np.ndarray
    q: int

    def __post_init__(self):
        self.states = np.asarray(self.states)
        if self.states.ndim != 2 or self.states.shape[1] != len(self.node_ids):
            raise ValueError("states must be a k x len(node_ids) array")
        if self.states.size and (self.states.min() < 0 or self.states.max() >= self.q):
            raise ValueError(f"states must lie in 0..{self.q - 1}")

    @property
    def k(self) -> int:
        return self.states.shape[0]

    def column(self, node_id) -> np.ndarray:
        return self.states[:, self.node_ids.index(node_id)]


def _cumulative_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise cumulative transition table with its last column 1.0.
    ``transition_matrix`` clips entries to >= 0, so every row is
    non-decreasing and a draw u in [0, 1) lands on #(row < u)."""
    cum = np.cumsum(matrix, axis=1)
    cum[:, -1] = 1.0
    return cum


def _broadcast_sites(phy: Phylogeny, model: RateModel, k: int, rng) -> np.ndarray:
    """Node-major states (n_nodes, k) of k sites broadcast from the root.

    The root draws from pi.  Below it the tree is walked level by level,
    in blocks of whole nodes of at most ``_NODE_SITE_BUDGET`` node-sites,
    with one uniform u per site and edge drawn in node order.  A child
    site takes #(cum[parent] < u) over its edge's cumulative row, found
    by a branchless binary search in one flat table of all rows, each
    padded with 2.0 to a power-of-two width (any pad >= 1 works: u < 1).
    """
    q = model.q
    states = np.empty((phy.n_nodes, k), dtype=np.int32)
    cum_pi = np.cumsum(model.pi)
    cum_pi[-1] = 1.0
    states[0] = np.searchsorted(cum_pi, rng.random(k), side="right")
    width = 1 << max(1, (q - 1).bit_length())
    taus, table_of = np.unique(phy.edge_tau[1:], return_inverse=True)
    flat = np.full((len(taus), q, width), 2.0)
    for i, tau in enumerate(taus):
        flat[i, :, :q] = _cumulative_rows(transition_matrix(model, float(tau)))
    flat = flat.reshape(-1)
    # per child node v (entry v - 1): its table's start in ``flat``, minus one
    row_base = table_of.reshape(-1) * (q * width) - 1
    block = max(1, _NODE_SITE_BUDGET // max(k, 1))
    for level in range(1, phy.h + 1):
        lo, hi = 2 ** level - 1, 2 ** (level + 1) - 1
        for start in range(lo, hi, block):
            nodes = np.arange(start, min(start + block, hi))
            u = rng.random((len(nodes), k))
            base = row_base[nodes - 1, None] + states[(nodes - 1) // 2] * width
            idx = base.copy()
            step = width >> 1
            while step:
                idx += (flat[idx + step] < u) * step
                step >>= 1
            states[nodes] = idx - base
    return states


def potts_batch_sample(phy: Phylogeny, q: int, n_samples: int, rng) -> np.ndarray:
    """Symmetric-model samples of every node, (n_samples, n_nodes).

    The broadcast kernel under ``potts_rate_matrix(q)``, returned as a
    view of its node-major states, so each node's column is contiguous.
    """
    return _broadcast_sites(phy, potts_rate_matrix(q), n_samples, rng).T


def sample_alignment(phy: Phylogeny, model: RateModel, k: int, rng) -> Alignment:
    """Sample k i.i.d. sites and return the leaf alignment.

    The root state is drawn from pi, then each child through the
    transition matrix of its edge.  Leaf columns are ordered by label
    1..n.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    nodes = _broadcast_sites(phy, model, k, rng)
    order = np.argsort(phy.leaf_labels)  # column j <-> label j+1
    leaf_states = nodes[phy.first_leaf:][order].T
    return Alignment(list(range(1, phy.n_leaves + 1)), leaf_states, model.q)


def exact_leaf_distribution(phy: Phylogeny, model: RateModel) -> np.ndarray:
    """Exact joint law of the leaf states, shape (q,) * n.

    Axis i of the result is the leaf labelled i+1.  Computed by a
    sum-product sweep over the tree; refuses instances with q^n beyond
    EXACT_ENUMERATION_LIMIT cells.
    """
    q, n = model.q, phy.n_leaves
    if q ** n > EXACT_ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(
            f"q^n = {q}^{n} exceeds the exact-enumeration limit")

    def table(v):
        """P(leaf pattern under v | state of v), shape (q, q^{leaves under v})."""
        if v >= phy.first_leaf:
            return np.eye(q)
        left, right = Phylogeny.children(v)
        u1 = transition_matrix(model, phy.edge_tau[left]) @ table(left)
        u2 = transition_matrix(model, phy.edge_tau[right]) @ table(right)
        return np.einsum("sa,sb->sab", u1, u2).reshape(q, -1)

    flat = model.pi @ table(0)              # position-ordered joint law
    grid = flat.reshape((q,) * n)
    axes = [int(np.nonzero(phy.leaf_labels == lab)[0][0]) for lab in range(1, n + 1)]
    return np.transpose(grid, axes)


# ---------------------------------------------------------------------------
# Alignment files


def write_alignment(path, align: Alignment, comments=()):
    """Write ``q=<q> k=<k>`` then one ``<node>\\t<states>`` line per node,
    states 1-based, preceded by '#' comment lines."""
    def dump(handle):
        for line in comments:
            handle.write(line if line.startswith("#") else "# " + line)
            handle.write("\n")
        handle.write(f"q={align.q} k={align.k}\n")
        for j, node in enumerate(align.node_ids):
            row = " ".join(str(int(s) + 1) for s in align.states[:, j])
            handle.write(f"{node}\t{row}\n")
    if hasattr(path, "write"):
        dump(path)
    else:
        with open(path, "w") as handle:
            dump(handle)


def read_alignment(path) -> Alignment:
    if hasattr(path, "read"):
        lines = path.read().splitlines()
    else:
        with open(path) as handle:
            lines = handle.read().splitlines()
    lines = [l for l in lines if l.strip() and not l.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty alignment file")
    try:
        header = dict(part.split("=", 1) for part in lines[0].split())
        q, k = int(header["q"]), int(header["k"])
    except (KeyError, ValueError):
        raise ValueError(f"malformed alignment header {lines[0]!r}") from None
    if q < 2 or k < 0:
        raise ValueError(f"alignment header {lines[0]!r} needs q >= 2 and k >= 0")
    node_ids, rows = [], []
    for line in lines[1:]:
        name, _, data = line.partition("\t")
        try:
            node_ids.append(int(name))
        except ValueError:
            raise ValueError(f"node name {name!r} is not an integer "
                             f"in alignment line {line!r}") from None
        try:
            row = np.array(data.split(), dtype=np.int32) - 1
        except (ValueError, OverflowError):
            raise ValueError(f"node {name}: states must be integers, "
                             f"in alignment line {line!r}") from None
        if row.shape != (k,):
            raise ValueError(f"node {name}: expected {k} states, got {row.shape[0]}")
        if k and (row.min() < 0 or row.max() >= q):
            raise ValueError(f"node {name}: states must lie in 1..{q}, "
                             f"in alignment line {line!r}")
        rows.append(row)
    states = np.stack(rows, axis=1) if rows else np.empty((k, 0), dtype=np.int32)
    return Alignment(node_ids, states, q)
