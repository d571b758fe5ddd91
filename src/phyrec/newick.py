"""Newick serialisation for phylogenies and topologies.

Canonical form: children of every node are ordered by their smallest
descendant leaf label and branch lengths are written with 9 significant
digits.  Phylogenies serialise rooted with lengths; topologies serialise
with a trifurcating root (or as a bare pair for n = 2) and no lengths.
"""

from __future__ import annotations

import math
import re

from .errors import NewickError
from .tree import Phylogeny, Topology, nested_topology

_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_LABEL = re.compile(r"\d+")
_TOKEN = re.compile(r"[^\s,();]*")


def _fmt(x: float) -> str:
    return "%.9g" % x


def to_newick(obj) -> str:
    """Serialise a Phylogeny or Topology to a one-line Newick string."""
    if isinstance(obj, Phylogeny):
        return _phylogeny_string(obj)
    if isinstance(obj, Topology):
        return _topology_string(obj)
    raise TypeError(f"cannot serialise {type(obj).__name__} as Newick")


def _phylogeny_string(phy: Phylogeny) -> str:
    def walk(v):
        if v >= phy.first_leaf:
            label = phy.label_of_node(v)
            return str(label), label
        (s1, m1), (s2, m2) = walk(2 * v + 1), walk(2 * v + 2)
        t1, t2 = phy.edge_tau[2 * v + 1], phy.edge_tau[2 * v + 2]
        if m2 < m1:
            (s1, m1, t1), (s2, m2, t2) = (s2, m2, t2), (s1, m1, t1)
        return f"({s1}:{_fmt(t1)},{s2}:{_fmt(t2)})", m1
    if phy.h == 0:
        return f"{phy.label_of_node(0)};"
    return walk(0)[0] + ";"


def _topology_string(top: Topology) -> str:
    if len(top.leaves) == 1:
        return f"{min(top.leaves)};"
    if len(top.leaves) == 2:
        return "(%d,%d);" % tuple(sorted(top.leaves))

    def walk(v, come_from):
        if v > 0:
            return str(v), v
        parts = [walk(w, v) for w in top.adj[v] if w != come_from]
        parts.sort(key=lambda p: p[1])
        return "(" + ",".join(p[0] for p in parts) + ")", parts[0][1]

    # Root the string at the internal node next to the smallest leaf so
    # equal topologies always render identically.
    start = top.adj[min(top.leaves)][0]
    body = ",".join(
        p[0] for p in sorted((walk(w, start) for w in top.adj[start]),
                             key=lambda p: p[1]))
    return "(" + body + ");"


# ---------------------------------------------------------------------------
# Parsing


class _Node:
    __slots__ = ("children", "label")

    def __init__(self, children=None, label=None):
        self.children = children or []   # list of (node, length-or-None)
        self.label = label


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise NewickError(message, pos=self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        root = self.subtree()
        if self.peek() != ";":
            self.error("expected ';'")
        self.pos += 1
        if self.peek() != "":
            self.error("trailing text after ';'")
        return root

    def subtree(self) -> _Node:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            children = [self.child()]
            while self.peek() == ",":
                self.pos += 1
                children.append(self.child())
            if self.peek() != ")":
                self.error("expected ',' or ')'")
            self.pos += 1
            return _Node(children=children)
        match = _LABEL.match(self.text, self.pos)
        if not match:
            self.error("expected '(' or a leaf label")
        if int(match.group()) < 1:
            self.error(f"leaf labels must be integers 1..n, got {match.group()}")
        self.pos = match.end()
        return _Node(label=int(match.group()))

    def child(self):
        node = self.subtree()
        length = None
        if self.peek() == ":":
            self.pos += 1
            self.skip_ws()
            token = _TOKEN.match(self.text, self.pos).group()
            if not token:
                self.error("expected a branch length after ':'")
            length = float(token) if _NUMBER.fullmatch(token) else math.nan
            if not math.isfinite(length):   # nan, inf, -0.1, overflow, junk
                self.error(f"branch length must be a finite number >= 0, got {token!r}")
            self.pos += len(token)
        return node, length


def _edge_lengths(node: _Node, out):
    for child, length in node.children:
        out.append(length)
        _edge_lengths(child, out)


def parse_newick(text: str):
    """Parse one Newick tree.

    A rooted bifurcating tree with branch lengths everywhere parses to a
    Phylogeny (and must be a complete binary tree); a tree without
    lengths, or one with a trifurcating root, parses to a Topology with
    any lengths discarded.
    """
    root = _Parser(text).parse()
    if root.label is not None:
        raise NewickError("a tree needs at least two leaves")
    degree = len(root.children)
    if degree not in (2, 3):
        raise NewickError(f"root must have 2 or 3 children, found {degree}")
    if degree == 2:
        lengths = []
        _edge_lengths(root, lengths)
        have = [l is not None for l in lengths]
        if all(have):
            return _build_phylogeny(root)
        if any(have):
            raise NewickError("missing branch length on a rooted tree with lengths")
    return _build_topology(root)


def _build_phylogeny(root: _Node) -> Phylogeny:
    def depth(node):
        if node.label is not None:
            return 0
        if len(node.children) != 2:
            raise NewickError(
                f"non-binary internal node ({len(node.children)} children)")
        d1, d2 = depth(node.children[0][0]), depth(node.children[1][0])
        if d1 != d2:
            raise NewickError("leaves at unequal depths; not a homogeneous phylogeny")
        return d1 + 1

    h = depth(root)
    n_nodes = 2 ** (h + 1) - 1
    edge_tau = [0.0] * n_nodes
    labels = [0] * 2 ** h

    def walk(node, index):
        if node.label is not None:
            labels[index - (2 ** h - 1)] = node.label
            return
        for slot, (child, length) in enumerate(node.children):
            ci = 2 * index + 1 + slot
            edge_tau[ci] = length
            walk(child, ci)

    walk(root, 0)
    try:
        return Phylogeny(h, edge_tau, labels)
    except ValueError as exc:
        raise NewickError(str(exc)) from exc


def _build_topology(root: _Node) -> Topology:
    def nest(node):
        if node.label is not None:
            return node.label
        return tuple(nest(child) for child, _ in node.children)

    try:
        return nested_topology(nest(root))
    except ValueError as exc:
        raise NewickError(str(exc)) from exc


def read_newick_file(path):
    """Read a .nwk file: one tree per line, '#' comment lines skipped."""
    out = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(parse_newick(line))
    return out
