import tracemalloc

import numpy as np
import pytest

from phyrec.newick import to_newick
from phyrec.tree import (
    Phylogeny,
    Topology,
    homogeneous_phylogeny,
    nested_topology,
    random_homogeneous_phylogeny,
    robinson_foulds,
    topologies_equal,
    tree_metric,
    unroot,
)


def nx_graph(phy):
    """The phylogeny as a weighted networkx graph on node indices."""
    import networkx
    g = networkx.Graph()
    g.add_node(0)
    for v in range(1, phy.n_nodes):
        g.add_edge(Phylogeny.parent(v), v, weight=float(phy.edge_tau[v]))
    return g


def nx_splits(top):
    """Independent split computation: cut each internal edge and collect
    the leaf sets of the two components."""
    import networkx
    g = networkx.Graph()
    for v, ns in top.adj.items():
        for w in ns:
            g.add_edge(v, w)
    out = set()
    for u, v in list(g.edges):
        if u in top.leaves or v in top.leaves:
            continue
        g.remove_edge(u, v)
        comp = networkx.node_connected_component(g, u)
        side = frozenset(x for x in comp if x in top.leaves)
        out.add(frozenset({side, top.leaves - side}))
        g.add_edge(u, v)
    return frozenset(out)


def frozenset_splits(top):
    """Oracle: for each internal edge, walk the leaves beyond it and keep
    both leaf sets as frozensets."""
    def beyond(u, v):
        seen, stack, found = {u, v}, [v], []
        while stack:
            w = stack.pop()
            if w in top.leaves:
                found.append(w)
            for x in top.adj[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        return frozenset(found)

    out = set()
    for u in top.adj:
        for v in top.adj[u]:
            if u < v or u in top.leaves or v in top.leaves:
                continue
            side = beyond(u, v)
            out.add(frozenset({side, top.leaves - side}))
    return frozenset(out)


def test_node_arithmetic():
    phy = homogeneous_phylogeny(3, 0.2)
    assert phy.n_leaves == 8
    assert phy.n_nodes == 15
    assert phy.first_leaf == 7
    assert Phylogeny.parent(1) == 0 and Phylogeny.parent(2) == 0
    assert Phylogeny.children(0) == (1, 2)
    for v in range(1, phy.n_nodes):
        a, b = Phylogeny.children(Phylogeny.parent(v))
        assert v in (a, b)
    # label <-> node maps invert each other
    for lab in range(1, 9):
        assert phy.label_of_node(phy.node_of_label(lab)) == lab


def test_homogeneous_phylogeny_edges():
    phy = homogeneous_phylogeny(2, 0.35)
    assert np.allclose(phy.edge_tau[1:], 0.35)
    assert phy.leaf_labels.tolist() == [1, 2, 3, 4]


def test_phylogeny_validation():
    with pytest.raises(ValueError):
        Phylogeny(h=-1, edge_tau=np.zeros(1), leaf_labels=np.array([1]))
    with pytest.raises(ValueError):
        Phylogeny(h=1, edge_tau=np.zeros(2), leaf_labels=np.array([1, 2]))
    with pytest.raises(ValueError):
        Phylogeny(h=1, edge_tau=np.array([0.0, -0.1, 0.2]),
                  leaf_labels=np.array([1, 2]))
    with pytest.raises(ValueError):
        Phylogeny(h=1, edge_tau=np.zeros(3), leaf_labels=np.array([1, 3]))


def test_phylogeny_refuses_non_finite_lengths():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Phylogeny(h=1, edge_tau=np.array([0.0, bad, 0.2]),
                      leaf_labels=np.array([1, 2]))
    # zero-length edges stay legal
    assert Phylogeny(h=1, edge_tau=np.zeros(3), leaf_labels=np.array([1, 2])).h == 1


def test_random_homogeneous_phylogeny():
    rng = np.random.default_rng(31)
    phy = random_homogeneous_phylogeny(4, 0.1, 0.6, rng)
    assert phy.h == 4
    lengths = phy.edge_tau[1:]
    assert np.all(lengths >= 0.1) and np.all(lengths <= 0.6)
    assert sorted(phy.leaf_labels.tolist()) == list(range(1, 17))
    # f == g pins every edge
    fixed = random_homogeneous_phylogeny(2, 0.3, 0.3, rng)
    assert np.allclose(fixed.edge_tau[1:], 0.3)
    with pytest.raises(ValueError):
        random_homogeneous_phylogeny(2, 0.0, 0.5, rng)
    with pytest.raises(ValueError):
        random_homogeneous_phylogeny(2, 0.6, 0.5, rng)
    for f, g in ((0.1, np.nan), (np.nan, 0.5), (0.1, np.inf), (np.inf, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            random_homogeneous_phylogeny(2, f, g, rng)


def test_tree_metric_against_networkx_paths():
    networkx = pytest.importorskip("networkx")
    rng = np.random.default_rng(32)
    for h in (0, 1, 4, 6):
        phy = random_homogeneous_phylogeny(h, 0.1, 0.6, rng)
        tm = tree_metric(phy)
        assert tm.shape == (phy.n_nodes, phy.n_nodes)
        dist = dict(networkx.all_pairs_dijkstra_path_length(nx_graph(phy)))
        want = np.array([[dist[u][v] for v in range(phy.n_nodes)]
                         for u in range(phy.n_nodes)])
        np.testing.assert_allclose(tm, want, rtol=0, atol=1e-12)
        assert np.array_equal(tm, tm.T)
        assert np.all(np.diag(tm) == 0.0)
        # leaf labels reach the array through the label maps
        labels = range(1, phy.n_leaves + 1)
        for a in labels:
            for b in labels:
                expect = dist[phy.node_of_label(a)][phy.node_of_label(b)]
                got = tm[phy.node_of_label(a), phy.node_of_label(b)]
                assert got == pytest.approx(expect, abs=1e-12)


def test_unroot_shape_and_splits():
    pytest.importorskip("networkx")
    rng = np.random.default_rng(33)
    for h in (2, 3, 4):
        phy = random_homogeneous_phylogeny(h, 0.2, 0.5, rng)
        top = unroot(phy)
        n = phy.n_leaves
        assert top.leaves == frozenset(range(1, n + 1))
        assert len(top.adj) == 2 * n - 2
        assert top.splits() == nx_splits(top)
        assert len(top.splits()) == n - 3


def test_unroot_two_leaves():
    phy = homogeneous_phylogeny(1, 0.4)
    top = unroot(phy)
    assert top.leaves == frozenset({1, 2})
    assert top.adj == {1: [2], 2: [1]}
    assert top.splits() == frozenset()


def test_unroot_one_leaf():
    top = unroot(homogeneous_phylogeny(0, 0.4))
    assert top.leaves == frozenset({1})
    assert top.adj == {}
    assert top.splits() == frozenset()
    assert to_newick(top) == "1;"


def test_nested_topology_shapes():
    # a two-child root is suppressed, so both rootings give one tree
    rooted = nested_topology(((1, 2), (3, 4)))
    assert rooted.adj[1] == rooted.adj[2] and len(rooted.adj) == 6
    assert topologies_equal(rooted, nested_topology((1, 2, (3, 4))))
    assert topologies_equal(rooted, unroot(homogeneous_phylogeny(2, 0.2)))
    assert all(v < 0 for v in rooted.adj if v not in rooted.leaves)
    assert to_newick(nested_topology((1, (2, 3)))) == "(1,2,3);"
    assert nested_topology(1).adj == {}
    # only the root may have three children
    for bad in [((1, 2, 3), (4, 5), 6), ((1, 2), (3, 4), (5, 6, 7)),
                (1, 2, 3, 4), ((1,), 2, 3)]:
        with pytest.raises(ValueError, match="non-binary internal node"):
            nested_topology(bad)


def test_robinson_foulds_known_values():
    a = homogeneous_phylogeny(2, 0.2)
    same = unroot(a)
    assert robinson_foulds(same, unroot(a)) == 0
    assert topologies_equal(same, unroot(a))
    # swapping labels 2 and 3 flips the single non-trivial split
    swapped = Phylogeny(h=2, edge_tau=a.edge_tau.copy(),
                        leaf_labels=np.array([1, 3, 2, 4]))
    other = unroot(swapped)
    assert robinson_foulds(same, other) == 2
    assert not topologies_equal(same, other)


def test_robinson_foulds_is_a_metric_on_examples():
    rng = np.random.default_rng(34)
    tops = [unroot(random_homogeneous_phylogeny(3, 0.1, 0.6, rng))
            for _ in range(4)]
    for t in tops:
        assert robinson_foulds(t, t) == 0
    for s in tops:
        for t in tops:
            assert robinson_foulds(s, t) == robinson_foulds(t, s)
            assert (robinson_foulds(s, t) == 0) == topologies_equal(s, t)


def caterpillar(n):
    shape = 1
    for label in range(2, n + 1):
        shape = (shape, label)
    return nested_topology(shape)


def test_robinson_foulds_matches_frozenset_oracle():
    rng = np.random.default_rng(35)
    tops = [unroot(random_homogeneous_phylogeny(h, 0.1, 0.6, rng))
            for h in (0, 1, 2, 3, 3, 4, 4, 5, 5, 6) for _ in range(2)]
    tops += [caterpillar(n) for n in (3, 4, 5, 8, 16, 32, 64)]
    tops += [t.relabel(dict(zip(range(1, len(t.leaves) + 1),
                                (rng.permutation(len(t.leaves)) + 1).tolist())))
             for t in tops]
    for t in tops:
        want = frozenset_splits(t)
        assert t.splits() == want
        assert len(t.split_masks()) == len(want) == max(0, len(t.leaves) - 3)
        for mask in t.split_masks():
            assert not mask & 0b11          # no bit 0, no leaf 1
    for s in tops:
        for t in tops:
            if s.leaves == t.leaves:
                want = len(frozenset_splits(s) ^ frozenset_splits(t))
                assert robinson_foulds(s, t) == want


def test_large_compare_memory():
    """Two 4,096-leaf topologies compare in a few MB of traced memory:
    one bitmask per split, not both leaf sets."""
    rng = np.random.default_rng(36)
    a = unroot(random_homogeneous_phylogeny(12, 0.1, 0.6, rng))
    b = unroot(random_homogeneous_phylogeny(12, 0.1, 0.6, rng))
    renamed = a.relabel({})
    tracemalloc.start()
    try:
        same, rf = topologies_equal(a, renamed), robinson_foulds(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same
    assert 0 < rf <= 2 * (4096 - 3)
    assert peak < 100e6


def test_topologies_equal_ignores_internal_ids():
    base = unroot(homogeneous_phylogeny(2, 0.2))
    renamed = base.relabel({})  # identity on leaves, fresh internal ids
    assert topologies_equal(base, renamed)
    shuffled = Topology({v: ns for v, ns in sorted(base.adj.items(), reverse=True)},
                        base.leaves)
    assert topologies_equal(base, shuffled)


def test_relabel_moves_splits():
    base = unroot(homogeneous_phylogeny(2, 0.2))
    swapped = base.relabel({2: 3, 3: 2})
    assert robinson_foulds(base, swapped) == 2


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology({1: [2], 2: [1]}, [1, 3])  # labels must be 1..n
    with pytest.raises(ValueError):
        # internal node of degree 2
        Topology({1: [-1], 2: [-1], -1: [1, 2]}, [1, 2])
    with pytest.raises(ValueError):
        # asymmetric adjacency
        Topology({1: [2], 2: []}, [1, 2])
