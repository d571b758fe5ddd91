"""Level-by-level topology reconstruction for homogeneous trees.

Starting from the leaves, each sweep estimates all pairwise distances
within the current level, runs the thresholded four-point test over the
quartets inside the diameter gate (the 4-cliques of the graph of
distances at most the gate, enumerated directly, so deep trees never
visit the C(m, 4) others), collects the accepted splits, and pairs up
the vertices that only ever appear on the same side of accepted splits.
The new parents' sequences are reconstructed site-by-site from their
descendant leaf data: the majority estimator gathers the level's leaf
columns once and casts one vote over all of them, the diluted one runs
per parent.  The sweep then repeats one level up.  A vertex is
carried as the tuple of its leaves and its shape as nested tuples; the
last two vertices are joined by ``tree.nested_topology`` into the
unrooted topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .asr import diluted_estimates, majority_estimates
from .errors import CherryMatchingError, EnumerationTooLargeError
from .metric import pairwise_distance_matrix
from .simulate import Alignment
from .tree import Topology, nested_topology

_ESTIMATORS = ("diluted", "majority")


@dataclass
class ReconstructionParams:
    """Tuning knobs of the reconstruction sweep.

    l       dilution parameter of the internal-sequence estimator
    D, W    diameter-gate parameters (quartets with an estimated
            distance above D + ln(W/4) are discarded; W > 5)
    f_min   lower bound on edge lengths; splits need a four-point value
            above f_min / 2
    estimator  "diluted" or "majority" for internal sequences
    """

    l: int
    D: float
    W: float = 20.0
    f_min: float = 0.1
    estimator: str = "diluted"

    def __post_init__(self):
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        if not (math.isfinite(self.W) and self.W > 5):
            raise ValueError(f"W must be finite and exceed 5, got {self.W}")
        if not (math.isfinite(self.f_min) and self.f_min > 0):
            raise ValueError(f"f_min must be finite and > 0, got {self.f_min}")
        if not (math.isfinite(self.D) and self.D > 0):
            raise ValueError(f"D must be finite and > 0, got {self.D}")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}")


def auto_reconstruction_params(g: float, k: int, l: int = 1, W: float = 5.5,
                               estimator: str = "diluted",
                               f_min: float | None = None,
                               D: float | None = None) -> ReconstructionParams:
    """Reconstruction parameters fitted to an edge scale ``g`` and
    sequence length ``k``.

    The smallest four-point value the matching relies on is a cherry
    junction separation of 2g, so the default acceptance threshold sits
    at 1.25g (``f_min = 2.5g``), leaving headroom on both sides.  The
    diameter gate must admit the sibling-block quartets the matching
    needs -- worst pair 4g plus twice the reconstruction bias, which for
    deep majority estimates approaches 1.8g per vertex, so about 7.5g --
    while excluding more distant quartets: quartets whose true split
    pairs the middle of the sorted index order have wrong pairings with
    a four-point value of exactly zero, and on far quartets estimate
    noise pushes those past the threshold, planting false "separated"
    marks on true cherries.  The gate therefore sits at 7.5g plus a
    noise allowance for sequence length ``k``, capped at g.
    """
    if f_min is None:
        f_min = 2.5 * g
    if D is None:
        block = 7.5 * g
        noise = math.sqrt(math.expm1(min(2.0 * block, 60.0)) / k)
        gate = block + min(3.0 * noise, g)
        D = max(gate - math.log(W / 4.0), 1e-3)
    return ReconstructionParams(l=l, D=D, W=W, f_min=f_min, estimator=estimator)


# Growth steps of the quartet enumeration examine at most this many
# candidate cliques: m = 128 with every quartet open (10,668,000) fits.
QUARTET_CANDIDATE_LIMIT = 1 << 24
# Candidate quartets grown and scored at a time, which bounds the
# kernel's memory whatever the gate admits.
_QUARTET_BLOCK = 1 << 20


@lru_cache(maxsize=4)
def _all_quartets(m: int) -> np.ndarray:
    """All 4-subsets of range(m) as an (n_quartets, 4) int16 array: the
    full scan behind the tests' oracle for ``_quartet_relations``."""
    if m < 4:
        return np.empty((0, 4), dtype=np.int16)
    pairs = np.array(list(combinations(range(m), 2)), dtype=np.int16)
    # starts[b] = index of the first pair whose smaller element is b
    counts_per_first = np.arange(m - 1, -1, -1, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts_per_first)))
    n_pairs = len(pairs)
    tail_counts = n_pairs - starts[pairs[:, 1] + 1]
    ab = np.repeat(pairs, tail_counts, axis=0)
    cd = np.concatenate([pairs[starts[b + 1]:] for b in pairs[:, 1]])
    return np.hstack([ab, cd])


def _grow_cliques(cliques: np.ndarray, up: np.ndarray, indptr: np.ndarray,
                  indices: np.ndarray) -> np.ndarray:
    """Extend each row of increasing vertices by every upper neighbour
    of its last vertex (``indices[indptr[v]:indptr[v + 1]]`` in the CSR
    form of ``up``) that is adjacent to all of its other members."""
    last = cliques[:, -1]
    degree = indptr[last + 1] - indptr[last]
    rows = np.repeat(np.arange(len(cliques)), degree)
    # position of each candidate inside its clique's neighbour run
    offset = np.arange(len(rows)) - np.repeat(np.cumsum(degree) - degree, degree)
    new = indices[indptr[last][rows] + offset]
    keep = np.ones(len(rows), dtype=bool)
    for c in range(cliques.shape[1] - 1):
        keep &= up[cliques[rows, c], new]
    return np.column_stack([cliques[rows[keep]], new[keep]])


def _quartet_relations(dist: np.ndarray, gate: float, f_min: float):
    """Score the quartets inside the diameter gate and scatter the
    accepted splits into pairwise ``together`` / ``separated`` relations
    (m x m boolean).

    This is the package's one four-point test.  For a quartet a<b<c<d
    with x = t(a,b) + t(c,d), y = t(a,c) + t(b,d), z = t(a,d) + t(b,c),
    the pairing ab|cd is accepted when (y - x)/2 > f_min/2, ac|bd when
    (x - y)/2 > f_min/2 and ad|bc when (x - z)/2 > f_min/2.  Only
    quartets whose six distances are all at most ``gate`` are scored:
    they are the 4-cliques of the graph {dist <= gate}, grown vertex by
    vertex from its upper-triangular adjacency, so saturated (+inf) and
    NaN estimates shut out every quartet they belong to.  Raises
    EnumerationTooLargeError when a growth step would examine more than
    QUARTET_CANDIDATE_LIMIT candidates.
    """
    m = dist.shape[0]
    together = np.zeros((m, m), dtype=bool)
    separated = np.zeros((m, m), dtype=bool)
    up = np.triu(dist <= gate, 1)
    indptr = np.concatenate(([0], np.cumsum(up.sum(axis=1))))
    indices = np.nonzero(up)[1]

    def upper_degrees(cliques):
        last = cliques[:, -1]
        degree = indptr[last + 1] - indptr[last]
        if degree.sum() > QUARTET_CANDIDATE_LIMIT:
            raise EnumerationTooLargeError(
                f"{degree.sum()} candidate cliques at m = {m} under gate "
                f"{gate:g} exceed the quartet limit of "
                f"{QUARTET_CANDIDATE_LIMIT}; lower D")
        return degree

    triangles = np.arange(m)[:, None]
    for _ in range(2):
        upper_degrees(triangles)
        triangles = _grow_cliques(triangles, up, indptr, indices)
    # grow the triangles into quartets and score them a block at a time
    widest = int(upper_degrees(triangles).max(initial=0))
    step = max(1, _QUARTET_BLOCK // max(1, widest))
    for start in range(0, len(triangles), step):
        quartets = _grow_cliques(triangles[start:start + step], up, indptr, indices)
        _score_quartets(quartets, dist, f_min, together, separated)
    together |= together.T
    separated |= separated.T
    return together, separated


def _score_quartets(quartets, dist, f_min, together, separated):
    """The four-point test on rows a<b<c<d, marking the accepted splits
    in the upper triangles of ``together`` and ``separated``."""
    half = f_min / 2.0

    def scatter(mask, a, b, c, d):
        # accepted pairing (a,b)|(c,d)
        together[a[mask], b[mask]] = True
        together[c[mask], d[mask]] = True
        for u, v in ((a, c), (a, d), (b, c), (b, d)):
            separated[u[mask], v[mask]] = True

    qa, qb, qc, qd = quartets.T
    tab, tcd = dist[qa, qb], dist[qc, qd]
    tac, tbd = dist[qa, qc], dist[qb, qd]
    tad, tbc = dist[qa, qd], dist[qb, qc]
    with np.errstate(invalid="ignore"):
        # a gate of +inf admits saturated estimates, whose differences
        # are NaN and accept nothing
        x = tab + tcd
        y = tac + tbd
        z = tad + tbc
        scatter(0.5 * (y - x) > half, qa, qb, qc, qd)
        scatter(0.5 * (x - y) > half, qa, qc, qb, qd)
        scatter(0.5 * (x - z) > half, qa, qd, qb, qc)


def _matching_from_relations(together: np.ndarray, separated: np.ndarray):
    """Greedy forced matching of the candidate cherry pairs.

    A candidate pair co-occurs in some accepted split and is never
    separated.  Vertices with exactly one candidate partner are matched
    first; matched vertices are removed and the elimination cascades, so
    stray extra candidates between members of different (forced)
    cherries are harmless.  If the cascade cannot match everyone the
    matching is missing or ambiguous and CherryMatchingError is raised.
    """
    cand = together & ~separated
    np.fill_diagonal(cand, False)
    m = cand.shape[0]
    adj = [set(map(int, np.flatnonzero(cand[i]))) for i in range(m)]
    candidates = [(i, j) for i in range(m) for j in adj[i] if i < j]
    unmatched = set(range(m))
    queue = [v for v in range(m) if len(adj[v]) == 1]
    pairs = []
    while queue:
        v = queue.pop()
        if v not in unmatched or len(adj[v]) != 1:
            continue
        (u,) = adj[v]
        pairs.append((v, u) if v < u else (u, v))
        unmatched -= {u, v}
        for w in (u, v):
            for x in adj[w]:
                adj[x].discard(w)
                if x in unmatched and len(adj[x]) == 1:
                    queue.append(x)
            adj[w] = set()
    if unmatched:
        raise CherryMatchingError(
            f"cherry candidates leave {len(unmatched)} of {m} vertices "
            "unforced (missing or ambiguous pairs)", candidates=candidates)
    pairs.sort()
    return pairs


def reconstruct_internal_sequences(parent_leaf_sets, align: Alignment, q: int,
                                   l: int, rng, estimator: str = "diluted"):
    """Site-by-site root estimates for each parent's descendant leaves.

    ``parent_leaf_sets`` holds, per parent, the labels of its descendant
    leaves in subtree order, every parent with the same number w of
    them; the estimator sees only those leaf columns.  The majority vote
    is one call over the P parents' columns gathered at once into a
    (P * k, w) block, parent-major (parent p owns rows p*k to (p+1)*k).
    The diluted estimator gathers and estimates one parent's (k, w) rows
    at a time, which keeps them in cache.  Gathers read whole leaf
    columns, contiguous when ``align.states`` is leaf-major as
    ``sample_alignment`` returns it.  Returns one length-k int array per
    parent.
    """
    if estimator not in _ESTIMATORS:
        raise ValueError(f"estimator must be one of {_ESTIMATORS}")
    column = {v: i for i, v in enumerate(align.node_ids)}
    try:
        cols = [[column[v] for v in leaves] for leaves in parent_leaf_sets]
    except KeyError as exc:
        raise ValueError(f"leaf label {exc.args[0]!r} is not a column of the "
                         "alignment") from None
    sizes = {len(c) for c in cols}
    if len(sizes) > 1:
        raise ValueError(
            f"parent leaf sets must be of one size, got sizes {sorted(sizes)}")
    if not cols:
        return []
    index = np.array(cols, dtype=np.intp)
    (n_parents, w), k = index.shape, align.k
    by_leaf = align.states.T
    if estimator == "majority":
        block = by_leaf[index.T].reshape(w, n_parents * k).T
        return list(majority_estimates(block, q, rng).reshape(n_parents, k))
    return [diluted_estimates(by_leaf[row].T, q, l, rng) for row in index]


def reconstruct_homogeneous(align: Alignment, q: int,
                            params: ReconstructionParams, rng,
                            metric_fn=None) -> Topology:
    """Reconstruct the unrooted topology of a homogeneous phylogeny.

    ``align`` holds the leaf sequences (columns labelled 1..n, n a power
    of two).  ``metric_fn(leaves_u, leaves_v)`` is a test hook: when
    given, it supplies every pairwise distance (e.g. the exact tree
    metric), no sequence work happens, and ``align`` may be empty
    (k = 0).

    Raises ReconstructionError (CherryMatchingError) with the failing
    level and the candidate-pair table when a sweep cannot pair up its
    vertices.
    """
    labels = sorted(align.node_ids)
    n = len(labels)
    if labels != list(range(1, n + 1)):
        raise ValueError(f"alignment columns must be labelled 1..{n}")
    h = n.bit_length() - 1
    if 2 ** h != n or h < 1:
        raise ValueError(f"leaf count must be a power of two >= 2, got {n}")
    if align.k == 0 and metric_fn is None:
        raise ValueError("empty alignment requires a metric_fn hook")

    # per vertex: its leaves in subtree order, and its shape as nested tuples
    leaves = [(lab,) for lab in range(1, n + 1)]
    shapes = list(range(1, n + 1))
    seqs = None
    if metric_fn is None:
        order = [align.node_ids.index(lab) for lab in range(1, n + 1)]
        seqs = align.states[:, order].T        # (m, k)
    gate = params.D + math.log(params.W / 4.0)

    for level in range(h):
        m = len(leaves)
        if m == 2:
            break
        if metric_fn is not None:
            dist = np.zeros((m, m))
            for i in range(m):
                for j in range(i + 1, m):
                    dist[i, j] = dist[j, i] = metric_fn(leaves[i], leaves[j])
        else:
            dist = pairwise_distance_matrix(seqs, q)
        together, separated = _quartet_relations(dist, gate, params.f_min)
        try:
            pairs = _matching_from_relations(together, separated)
        except CherryMatchingError as exc:
            raise CherryMatchingError(
                f"cherry matching failed at level {level}: {exc}",
                level=level,
                candidates=[(leaves[i], leaves[j])
                            for i, j in exc.candidates]) from None
        leaves = [leaves[i] + leaves[j] for i, j in pairs]
        shapes = [(shapes[i], shapes[j]) for i, j in pairs]
        if metric_fn is None:
            seqs = np.stack(reconstruct_internal_sequences(
                leaves, align, q, params.l, rng, estimator=params.estimator))

    return nested_topology(tuple(shapes))

