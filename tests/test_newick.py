import re

import numpy as np
import pytest

from phyrec.errors import NewickError
from phyrec.newick import parse_newick, read_newick_file, to_newick
from phyrec.tree import (
    Phylogeny,
    Topology,
    homogeneous_phylogeny,
    random_homogeneous_phylogeny,
    topologies_equal,
    tree_metric,
    unroot,
)


def test_phylogeny_roundtrip():
    # canonical form may mirror sibling subtrees, so compare the trees as
    # metric objects rather than by their internal layout
    rng = np.random.default_rng(41)
    for h in (1, 2, 3, 4):
        phy = random_homogeneous_phylogeny(h, 0.05, 0.9, rng)
        text = to_newick(phy)
        assert text.endswith(";") and "\n" not in text
        back = parse_newick(text)
        assert isinstance(back, Phylogeny)
        assert back.h == phy.h
        assert sorted(back.leaf_labels.tolist()) == sorted(phy.leaf_labels.tolist())
        tm_a, tm_b = tree_metric(phy), tree_metric(back)
        for a in range(1, phy.n_leaves + 1):
            ua, va = phy.node_of_label(a), back.node_of_label(a)
            # distance to the root pins the rooted shape ...
            assert tm_b[0, va] == pytest.approx(tm_a[0, ua], abs=1e-7)
            # ... and the leaf metric pins everything else
            for b in range(a + 1, phy.n_leaves + 1):
                ub, vb = phy.node_of_label(b), back.node_of_label(b)
                assert tm_b[va, vb] == pytest.approx(tm_a[ua, ub], abs=1e-7)


def test_topology_roundtrip():
    rng = np.random.default_rng(42)
    for h in (1, 2, 3):
        top = unroot(random_homogeneous_phylogeny(h, 0.1, 0.6, rng))
        back = parse_newick(to_newick(top))
        assert isinstance(back, Topology)
        assert topologies_equal(top, back)


def test_canonical_form_is_deterministic():
    phy = homogeneous_phylogeny(3, 0.25)
    assert to_newick(phy) == to_newick(phy)
    # the canonical string orders children by smallest descendant label,
    # so label-mirrored trees print identically
    mirrored = Phylogeny(h=1, edge_tau=np.array([0.0, 0.3, 0.3]),
                         leaf_labels=np.array([2, 1]))
    plain = Phylogeny(h=1, edge_tau=np.array([0.0, 0.3, 0.3]),
                      leaf_labels=np.array([1, 2]))
    assert to_newick(mirrored) == to_newick(plain) == "(1:0.3,2:0.3);"


def test_lengths_decide_the_return_type():
    assert isinstance(parse_newick("((1:0.1,2:0.2):0.3,(3:0.1,4:0.1):0.2);"),
                      Phylogeny)
    assert isinstance(parse_newick("((1,2),(3,4));"), Topology)
    assert isinstance(parse_newick("(1,2,(3,4));"), Topology)
    # lengths on a trifurcating root are discarded, not an error
    assert isinstance(parse_newick("(1:0.5,2:0.5,(3:0.1,4:0.1):0.2);"), Topology)
    with pytest.raises(NewickError):
        parse_newick("((1:0.1,2):0.3,(3:0.1,4:0.1):0.2);")  # one length missing


def test_whitespace_tolerance():
    back = parse_newick(" ( ( 1 , 2 ) , ( 3 , 4 ) ) ;\n")
    assert isinstance(back, Topology)
    assert topologies_equal(back, parse_newick("((1,2),(3,4));"))


def test_parse_errors_carry_positions():
    for text in ["((1,2),(3,4)", "((1,2),(3,4)));", "(1,2,3,4);", "1;",
                 "((x,2),(3,4));", "((1,2),(3,4);", "", "((1,2),(2,3));",
                 "((1,2,3),(4,5),6);", "((1,2),((3,4,5),6));"]:
        with pytest.raises(NewickError):
            parse_newick(text)
    with pytest.raises(NewickError, match=r"leaf labels must be integers 1\.\.n, "
                       r"got 0 \(at position 8\)"):
        parse_newick("((1,2),(0,3));")
    # a written but unusable branch length is quoted, not reported missing
    for token in ("nan", "inf", "-0.1", "1e400", "0.1x"):
        with pytest.raises(NewickError, match=r"branch length must be a finite "
                           rf"number >= 0, got '{re.escape(token)}' \(at position 3\)"):
            parse_newick(f"(1:{token},2:0.1);")
    with pytest.raises(NewickError, match=r"expected a branch length after ':' "
                       r"\(at position 3\)"):
        parse_newick("(1:,2:0.1);")
    with pytest.raises(NewickError) as exc:
        parse_newick("((1,2),(3,4)")
    assert exc.value.pos is not None
    # NewickError doubles as a ValueError for callers catching broadly
    assert isinstance(exc.value, ValueError)


def test_unequal_depths_rejected_for_phylogenies():
    with pytest.raises(NewickError):
        parse_newick("((1:0.1,2:0.1):0.1,3:0.2);")


def test_two_leaf_forms():
    top = parse_newick("(1,2);")
    assert isinstance(top, Topology)
    assert top.leaves == frozenset({1, 2})
    phy = parse_newick("(1:0.4,2:0.6);")
    assert isinstance(phy, Phylogeny)
    assert phy.h == 1


def test_read_newick_file(tmp_path):
    path = tmp_path / "trees.nwk"
    phy = homogeneous_phylogeny(2, 0.3)
    top = unroot(phy)
    path.write_text("# two trees\n" + to_newick(phy) + "\n\n" + to_newick(top) + "\n")
    loaded = read_newick_file(path)
    assert len(loaded) == 2
    assert isinstance(loaded[0], Phylogeny)
    assert isinstance(loaded[1], Topology)


def test_to_newick_rejects_other_types():
    with pytest.raises(TypeError):
        to_newick("((1,2),(3,4));")
