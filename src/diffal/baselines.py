"""Comparison methods: agglomerative linkage trees, random-query active
labeling, and cluster-based active learning over a linkage tree (CBAL).

The agglomerative implementation keeps one n x n distance matrix (O(n^2)
memory) and picks each merge by the smallest height, breaking ties by the
smaller minimum original point index of the merged pair, then by the other
cluster's minimum index.  That rule makes merge sequences reproducible
across implementations.  Each row caches its first minimum, and a merge
rescans only the rows whose minimum rose, so a run takes O(n^2) time on
typical inputs (O(n^3) at worst).  Merged-away slots are masked rather than
overwritten, and whenever the live clusters fall to half the matrix side the
matrix shrinks in place, inside its own buffer, to the live slots in
ascending order, so the tie rule reads the same on the smaller matrix.

cut_purity_curve is the one path that reads a dendrogram's cuts: it
replays the merges with class counts and reads each level's purity off
them, building no cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import PointCloud, _check_count, _check_levels
from .geometry import DensityEstimate, DiffusionEmbedding
from .land import ActiveResult, _query, _query_and_propagate
from .metrics import _ClassCounts, _labeled, _runs

LINKAGE_METHODS = ("single", "average")


@dataclass(frozen=True)
class Dendrogram:
    """Merge list of an agglomerative clustering.

    Cluster ids follow the usual convention: leaves are 0..n-1, the cluster
    created by merge step s has id n+s.  children_a[s] < children_b[s].
    """

    children_a: np.ndarray
    children_b: np.ndarray
    heights: np.ndarray
    n_leaves: int

    @property
    def n_merges(self) -> int:
        return self.heights.shape[0]

    @property
    def root_id(self) -> int:
        return self.n_leaves + self.n_merges - 1

    @cached_property
    def _members(self) -> list[np.ndarray]:
        """Sorted int64 member points of every cluster id, as a list indexed
        by id and built once per tree; a merge's array is its two children's
        arrays sorted together."""
        members = [np.array([i], dtype=np.int64) for i in range(self.n_leaves)]
        for a, b in zip(self.children_a, self.children_b):
            members.append(np.sort(np.concatenate((members[a], members[b]))))
        return members


def linkage(cloud: PointCloud, method: str) -> Dendrogram:
    """Agglomerative clustering on Euclidean distances (single or average)."""
    if method not in LINKAGE_METHODS:
        raise ValueError(f"method must be one of {LINKAGE_METHODS}, got {method!r}")
    n = cloud.n
    if n < 2:
        raise ValueError("linkage needs at least two points")

    # dmat[i, j] is the current distance between the live clusters at slots
    # i and j (+inf on the diagonal); slots are kept in ascending order of
    # their clusters' smallest original indices.  A dead slot's row and
    # column keep stale values: pad is +inf there (0 elsewhere) and is added
    # wherever a row is read.  Row r caches nn[r], its first argmin, and
    # best[r], the value there, so argmin(best) is the row-major
    # (height, i, j) choice.
    flat = cdist(cloud.points, cloud.points).reshape(-1)
    dmat = flat.reshape(n, n)
    np.fill_diagonal(dmat, np.inf)
    nn = np.argmin(dmat, axis=1)
    best = dmat[np.arange(n), nn]
    sizes = np.ones(n, dtype=np.int64)
    slot_id = np.arange(n, dtype=np.int64)
    pad = np.zeros(n)
    ch_a = np.empty(n - 1, dtype=np.int64)
    ch_b = np.empty(n - 1, dtype=np.int64)
    heights = np.empty(n - 1, dtype=np.float64)

    for step in range(n - 1):
        if 2 * (n - step) <= dmat.shape[0]:
            # Half the slots are dead: move the live rows and columns, in
            # ascending order, to the front of the same buffer.  Row k lands
            # before the old row keep[k] >= k starts, so no unread row is hit.
            live = pad == 0
            keep = np.flatnonzero(live)
            m = keep.size
            for k, r in enumerate(keep):
                flat[k * m:(k + 1) * m] = dmat[r, keep]
            dmat = flat[:m * m].reshape(m, m)
            nn = (np.cumsum(live) - 1)[nn[keep]]  # live rows point at live slots
            best, sizes, slot_id = best[keep], sizes[keep], slot_id[keep]
            pad = np.zeros(m)

        i = int(np.argmin(best))
        j = int(nn[i])  # j > i: a smaller j would have made row j the argmin
        a, b = slot_id[i], slot_id[j]
        ch_a[step], ch_b[step] = min(a, b), max(a, b)
        heights[step] = best[i]

        if method == "single":
            new = np.minimum(dmat[i], dmat[j])
        else:
            new = (sizes[i] * dmat[i] + sizes[j] * dmat[j]) / (sizes[i] + sizes[j])
        pad[j] = np.inf
        new += pad
        new[i] = np.inf
        dmat[i] = dmat[:, i] = new
        sizes[i] += sizes[j]
        slot_id[i] = n + step
        best[j] = np.inf

        # Only column i changed.  Rows that pointed at i or j now point at i
        # unless their minimum rose; then they (row i among them) rescan.
        stale = (nn == i) | (nn == j)
        moved = (new < best) | ((new == best) & (stale | (nn > i)))
        nn[moved] = i
        best[moved] = new[moved]
        for r in np.flatnonzero(stale & (new > best)):
            row = dmat[r] + pad
            nn[r] = np.argmin(row)
            best[r] = row[nn[r]]
    return Dendrogram(children_a=ch_a, children_b=ch_b, heights=heights, n_leaves=n)


def cut_purity_curve(dend: Dendrogram, levels, truth) -> list[float]:
    """For each level ell, the purity of the ell clusters left by undoing the
    last merges, from one replay of the merges.

    Every cluster carries the class counts of its evaluable points from the
    singletons up, so a level's purity is read off after its merges and no
    cut is built.
    """
    n = dend.n_leaves
    levels = _check_levels(levels, n)
    truth, mask = _labeled(truth, n)
    counts = _ClassCounts(np.arange(n), truth, mask)
    ch_a, ch_b = dend.children_a.tolist(), dend.children_b.tolist()
    out: dict[int, float] = {}
    applied = 0
    for ell in sorted(set(levels), reverse=True):  # fewest merges first
        for step in range(applied, n - ell):
            counts.merge(ch_a[step], ch_b[step], into=n + step)
        applied = n - ell
        out[ell] = counts.purity()
    return [out[ell] for ell in levels]


def land_random(
    dens: DensityEstimate,
    emb: DiffusionEmbedding,
    budget: int,
    oracle,
    seed: int,
    nearest_higher: np.ndarray,
) -> ActiveResult:
    """Active labeling with uniformly random query points instead of the
    mode-score maximizers; everything after the queries is unchanged,
    including the partial query trail on a refused query.  nearest_higher
    is the forest that propagates the answers, ModeScores.nearest_higher."""
    _check_count("budget", budget, dens.n)
    rng = np.random.default_rng(seed)
    targets = rng.choice(dens.n, size=budget, replace=False).astype(np.int64)
    return _query_and_propagate(targets, dens, emb, oracle, nearest_higher)


def _majority(labels: np.ndarray) -> tuple[int, float]:
    """(modal label, modal fraction); label ties go to the smaller id."""
    values, counts = _runs(labels)
    best = int(np.argmax(counts))  # values ascend: the first maximum is the smallest id
    return int(values[best]), float(counts[best]) / len(labels)


def _check_cbal_args(budget: int, purity_threshold: float, sample_size: int) -> None:
    """The argument rules of cbal; the budget may exceed the point count."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if not 0.0 < purity_threshold <= 1.0:
        raise ValueError(f"purity threshold must be in (0, 1], got {purity_threshold}")
    if sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")


def cbal(
    dend: Dendrogram,
    budget: int,
    oracle,
    purity_threshold: float = 0.9,
    sample_size: int = 3,
    seed: int = 0,
) -> ActiveResult:
    """Cluster-based active learning over a linkage tree.

    Maintains a frontier of tree nodes starting at the root.  Each round
    picks the frontier node containing the most unqueried points and asks
    the oracle about up to sample_size random unqueried points inside it.
    A node whose queried labels reach the purity threshold (or which is a
    leaf) is frozen and all its points take the majority label; otherwise
    it is replaced by its two children.  When the budget runs out, frozen
    nodes keep their labels and every remaining frontier node falls back to
    the majority of its own queries (or of all queries if it has none).
    """
    _check_cbal_args(budget, purity_threshold, sample_size)
    n = dend.n_leaves
    members = dend._members
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    asked = np.zeros(n, dtype=bool)
    answer = np.zeros(n, dtype=np.int64)
    order: list[int] = []  # queried points in query order
    # Frontier node -> its unqueried member count.  Frontier nodes are
    # disjoint and only the chosen node gets queries, so the others' counts
    # stay exact.
    frontier = {dend.root_id: n}

    while frontier and len(order) < budget:
        # most unqueried points first, node id breaks ties
        node = max(frontier, key=lambda nd: (frontier[nd], -nd))
        mem = members[node]
        if frontier.pop(node):  # it has unqueried members
            unqueried = mem[~asked[mem]]
            to_ask = min(sample_size, unqueried.size, budget - len(order))
            for k in rng.choice(unqueried.size, size=to_ask, replace=False):
                point = int(unqueried[k])
                answer[point] = _query(oracle, point)
                asked[point] = True
                order.append(point)
        # the node now holds at least one queried point; frontier nodes are
        # disjoint, so a frozen node's labels are final when written
        label, fraction = _majority(answer[mem[asked[mem]]])
        if fraction >= purity_threshold or node < n:
            labels[mem] = label
        else:
            for child in (int(dend.children_a[node - n]), int(dend.children_b[node - n])):
                frontier[child] = members[child].size - np.count_nonzero(asked[members[child]])

    queried = np.array(order, dtype=np.int64)
    global_label = _majority(answer[queried])[0]
    for node in frontier:
        node_answers = answer[members[node][asked[members[node]]]]
        labels[members[node]] = _majority(node_answers)[0] if node_answers.size else global_label

    return ActiveResult(
        labels=labels,
        queried_indices=queried,
        queries_used=len(order),
        queried_labels=answer[queried],
    )
