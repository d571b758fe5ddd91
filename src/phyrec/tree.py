"""Homogeneous phylogenies and unrooted leaf-labelled topologies.

A Phylogeny is a rooted complete binary tree with h levels, positive
edge lengths and leaves labelled by a permutation of 1..n (n = 2^h).
Nodes are indexed in level order: the root is 0 and node v has children
2v+1 and 2v+2.  Leaf "position" p in 0..n-1 refers to node (2^h - 1) + p;
``leaf_labels[p]`` is the label displayed at that position.

``tree_metric`` computes all path lengths from this index arithmetic.

A Topology is the unrooted shape only: leaf labels plus adjacency, no
edge lengths.  Internal topology nodes use negative ids so they can
never collide with leaf labels.  ``nested_topology`` builds every
Topology (unroot, Newick, reconstruction) from nested tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np


@dataclass(frozen=True, eq=False)
class Phylogeny:
    h: int
    edge_tau: np.ndarray   # length 2^(h+1) - 1, indexed by child node; entry 0 unused
    leaf_labels: np.ndarray  # length 2^h, position -> label

    def __post_init__(self):
        if self.h < 0:
            raise ValueError(f"depth must be >= 0, got {self.h}")
        n_nodes = 2 ** (self.h + 1) - 1
        tau = np.asarray(self.edge_tau, dtype=float)
        if tau.shape != (n_nodes,):
            raise ValueError(
                f"edge_tau must have one entry per node ({n_nodes}), got {tau.shape}")
        # tau = 0 is tolerated (degenerate edges used by samplers and
        # dilution padding); negative or non-finite lengths never are.
        if not np.all(np.isfinite(tau) & (tau >= 0)):
            raise ValueError("edge lengths must be finite and >= 0")
        labels = np.asarray(self.leaf_labels, dtype=int)
        n = 2 ** self.h
        if sorted(labels.tolist()) != list(range(1, n + 1)):
            raise ValueError(f"leaf labels must be a permutation of 1..{n}")
        object.__setattr__(self, "edge_tau", tau)
        object.__setattr__(self, "leaf_labels", labels)
        tau.setflags(write=False)
        labels.setflags(write=False)

    # -- node arithmetic -------------------------------------------------
    @property
    def n_leaves(self) -> int:
        return 2 ** self.h

    @property
    def n_nodes(self) -> int:
        return 2 ** (self.h + 1) - 1

    @property
    def first_leaf(self) -> int:
        return 2 ** self.h - 1

    @staticmethod
    def parent(v: int) -> int:
        return (v - 1) // 2

    @staticmethod
    def children(v: int) -> tuple[int, int]:
        return 2 * v + 1, 2 * v + 2

    def node_of_label(self, label: int) -> int:
        pos = int(np.nonzero(self.leaf_labels == label)[0][0])
        return self.first_leaf + pos

    def label_of_node(self, v: int) -> int:
        return int(self.leaf_labels[v - self.first_leaf])


def homogeneous_phylogeny(h: int, tau) -> Phylogeny:
    """Phylogeny with identity leaf labelling and fixed (or per-edge) lengths."""
    n_nodes = 2 ** (h + 1) - 1
    edge_tau = np.zeros(n_nodes)
    edge_tau[1:] = tau
    return Phylogeny(h, edge_tau, np.arange(1, 2 ** h + 1))


def random_homogeneous_phylogeny(h: int, f: float, g: float, rng) -> Phylogeny:
    """Random instance: each edge length uniform on [f, g] (fixed g when
    f == g) and a uniformly random leaf labelling."""
    if not (np.isfinite(f) and np.isfinite(g)):
        raise ValueError(f"edge length bounds must be finite, got f={f}, g={g}")
    if f <= 0:
        raise ValueError(f"minimum edge length must be > 0, got {f}")
    if f > g:
        raise ValueError(f"need f <= g, got f={f}, g={g}")
    n_nodes = 2 ** (h + 1) - 1
    edge_tau = np.zeros(n_nodes)
    if f == g:
        edge_tau[1:] = g
    else:
        edge_tau[1:] = rng.uniform(f, g, size=n_nodes - 1)
    labels = rng.permutation(2 ** h) + 1
    return Phylogeny(h, edge_tau, labels)


def tree_metric(phy: Phylogeny) -> np.ndarray:
    """Additive tree metric over every node: the (n_nodes, n_nodes) array
    of path lengths d(u, v) = depth(u) + depth(v) - 2 depth(lca(u, v)).

    Depths are summed level by level.  The LCA comes from 1-based heap
    indices: lifting the deeper node by the level difference puts both
    on one level, where they meet bit_length(i ^ j) levels up.
    """
    n = phy.n_nodes
    depth = np.zeros(n)
    for level in range(1, phy.h + 1):
        lo, hi = 2 ** level - 1, 2 ** (level + 1) - 1
        depth[lo:hi] = depth[(np.arange(lo, hi) - 1) // 2] + phy.edge_tau[lo:hi]
    heap = np.arange(1, n + 1)
    level = np.frexp(heap)[1] - 1
    dist = np.empty((n, n))
    for u in range(n):
        lift = level[u] - level
        a = heap[u] >> np.maximum(lift, 0)
        b = heap >> np.maximum(-lift, 0)
        lca = (a >> np.frexp(a ^ b)[1]) - 1
        dist[u] = depth[u] + depth - 2.0 * depth[lca]
    return dist


class Topology:
    """Unrooted leaf-labelled binary tree on labels 1..n.

    Internal nodes have degree three (there are none for n = 2) and carry
    negative ids.  Only the shape matters: no branch lengths.
    """

    def __init__(self, adjacency: dict, leaves):
        self.adj = {v: sorted(ns) for v, ns in adjacency.items()}
        self.leaves = frozenset(int(x) for x in leaves)
        self._check()

    def _check(self):
        n = len(self.leaves)
        if self.leaves != frozenset(range(1, n + 1)):
            raise ValueError(f"leaves must be exactly 1..{n}")
        for v, ns in self.adj.items():
            if v in self.leaves:
                if len(ns) != 1:
                    raise ValueError(f"leaf {v} must have degree 1, has {len(ns)}")
            elif len(ns) != 3:
                raise ValueError(f"internal node {v} must have degree 3, has {len(ns)}")
            for w in ns:
                if v not in self.adj[w]:
                    raise ValueError("adjacency is not symmetric")
        n_internal = len(self.adj) - n
        if n > 2 and n_internal != n - 2:
            raise ValueError(f"expected {n - 2} internal nodes, found {n_internal}")
        if n == 2 and n_internal != 0:
            raise ValueError("a 2-leaf topology is a bare edge")

    def split_masks(self) -> frozenset:
        """Non-trivial splits, one per internal edge, each as the int
        bitmask (bit l for leaf l) of the side without leaf 1.

        One walk from leaf 1: a node's mask ORs its children's masks, and
        each internal node below an internal parent closes one split.
        """
        parent, order = {1: None}, [1]
        for v in order:                      # breadth-first; grows as it goes
            for w in self.adj.get(v, ()):
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        mask, out = {}, set()
        for v in reversed(order):
            if v in self.leaves:
                mask[v] = 1 << v
                continue
            mask[v] = 0
            for w in self.adj[v]:
                if w != parent[v]:
                    mask[v] |= mask[w]
            if parent[v] not in self.leaves:
                out.add(mask[v])
        return frozenset(out)

    def splits(self) -> frozenset:
        """Non-trivial bipartitions, one per internal edge: ``split_masks``
        with each split as a frozenset of the two leaf-label frozensets."""
        out = set()
        for mask in self.split_masks():
            side = frozenset(l for l in self.leaves if mask >> l & 1)
            out.add(frozenset({side, self.leaves - side}))
        return frozenset(out)

    def relabel(self, mapping: dict) -> "Topology":
        """New topology with leaf labels pushed through ``mapping``."""
        def m(v):
            return mapping.get(v, v) if v > 0 else v
        adj = {m(v): [m(w) for w in ns] for v, ns in self.adj.items()}
        return Topology(adj, [mapping.get(l, l) for l in self.leaves])

    def __repr__(self):
        return f"Topology(n={len(self.leaves)})"


def nested_topology(root) -> Topology:
    """Unrooted topology of a rooted tree written as nested tuples: a
    leaf is its label, an internal node the tuple of its children.

    A root with two children is suppressed by joining them; any other
    root must have three and every other internal node two children.
    """
    if not isinstance(root, tuple):
        return Topology({}, [root])
    adj = {}
    ids = count(-1, -1)

    def build(node, arity):
        if not isinstance(node, tuple):
            return node
        if len(node) != arity:
            raise ValueError(f"non-binary internal node ({len(node)} children)")
        me = next(ids)
        for child in node:
            join(me, build(child, 2))
        return me

    def join(a, b):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    if len(root) == 2:
        join(build(root[0], 2), build(root[1], 2))
    else:
        build(root, 3)
    return Topology(adj, [v for v in adj if v > 0])


def unroot(phy: Phylogeny) -> Topology:
    """Forget root, lengths and child order of a phylogeny: pair up
    sibling positions level by level and suppress the root."""
    nodes = phy.leaf_labels.tolist()
    while len(nodes) > 1:
        nodes = list(zip(nodes[::2], nodes[1::2]))
    return nested_topology(nodes[0])


def robinson_foulds(t1: Topology, t2: Topology) -> int:
    """Robinson-Foulds distance: size of the symmetric difference of the
    non-trivial split sets, compared as bitmasks.  Requires identical
    leaf sets."""
    if t1.leaves != t2.leaves:
        raise ValueError("topologies have different leaf sets")
    return len(t1.split_masks() ^ t2.split_masks())


def topologies_equal(t1: Topology, t2: Topology) -> bool:
    """True when both trees display the same set of splits."""
    return t1.leaves == t2.leaves and robinson_foulds(t1, t2) == 0
