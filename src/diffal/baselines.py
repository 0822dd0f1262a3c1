"""Comparison methods: agglomerative linkage trees, random-query active
labeling, and cluster-based active learning over a linkage tree (CBAL).

The agglomerative implementation keeps one symmetric distance matrix
(O(n^2) memory) and picks each merge by the smallest height, breaking ties
by the smaller minimum original point index of the merged pair, then by
the other cluster's minimum index.  That rule makes merge sequences
reproducible across implementations.  Each row caches its first minimum,
and a merge rescans only the rows whose minimum rose, so a run takes
O(n^2) time on typical inputs (O(n^3) at worst).

Dendrogram cuts number their clusters 1..L by each cluster's smallest
member index.  cut_sequence keeps that smallest member per point while it
replays the merges, so a cut is one np.unique over that vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import PointCloud
from .geometry import DensityEstimate, DiffusionEmbedding
from .land import ActiveResult, _query_and_propagate

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
    def _members(self) -> dict[int, list[int]]:
        """Sorted member points of every cluster id, built once per tree."""
        members: dict[int, list[int]] = {i: [i] for i in range(self.n_leaves)}
        for s in range(self.n_merges):
            a, b = int(self.children_a[s]), int(self.children_b[s])
            members[self.n_leaves + s] = sorted(members[a] + members[b])
        return members


def linkage(cloud: PointCloud, method: str) -> Dendrogram:
    """Agglomerative clustering on Euclidean distances (single or average)."""
    if method not in LINKAGE_METHODS:
        raise ValueError(f"method must be one of {LINKAGE_METHODS}, got {method!r}")
    n = cloud.n
    if n < 2:
        raise ValueError("linkage needs at least two points")

    # dmat[i, j] is the current distance between the clusters whose smallest
    # original indices are i and j (+inf on the diagonal and for merged-away
    # slots).  Row r caches nn[r], its first argmin, and best[r], the value
    # there, so argmin(best) is the row-major (height, i, j) choice.
    dmat = cdist(cloud.points, cloud.points)
    np.fill_diagonal(dmat, np.inf)
    nn = np.argmin(dmat, axis=1)
    best = dmat[np.arange(n), nn]
    sizes = np.ones(n, dtype=np.int64)
    slot_id = np.arange(n, dtype=np.int64)
    ch_a = np.empty(n - 1, dtype=np.int64)
    ch_b = np.empty(n - 1, dtype=np.int64)
    heights = np.empty(n - 1, dtype=np.float64)

    for step in range(n - 1):
        i = int(np.argmin(best))
        j = int(nn[i])  # j > i: a smaller j would have made row j the argmin
        a, b = slot_id[i], slot_id[j]
        ch_a[step], ch_b[step] = min(a, b), max(a, b)
        heights[step] = best[i]

        if method == "single":
            new = np.minimum(dmat[i], dmat[j])
        else:
            new = (sizes[i] * dmat[i] + sizes[j] * dmat[j]) / (sizes[i] + sizes[j])
        new[[i, j]] = np.inf
        dmat[i] = dmat[:, i] = new
        dmat[j] = dmat[:, j] = np.inf
        sizes[i] += sizes[j]
        slot_id[i] = n + step
        best[j] = np.inf

        # Only columns i and j changed.  Rows that pointed at i or j now point
        # at i unless their minimum rose; then they (row i among them) rescan.
        stale = (nn == i) | (nn == j)
        moved = (new < best) | ((new == best) & (stale | (nn > i)))
        nn[moved] = i
        best[moved] = new[moved]
        for r in np.flatnonzero(stale & (new > best)):
            nn[r] = np.argmin(dmat[r])
            best[r] = dmat[r, nn[r]]
    return Dendrogram(children_a=ch_a, children_b=ch_b, heights=heights, n_leaves=n)


def cut(dend: Dendrogram, num_clusters: int) -> np.ndarray:
    """Partition into exactly num_clusters clusters by undoing the last merges.

    Returns labels 1..num_clusters, numbered by each cluster's smallest
    member index.
    """
    return cut_sequence(dend, [num_clusters])[0]


def cut_sequence(dend: Dendrogram, levels) -> list[np.ndarray]:
    """cut() for many levels in one pass over the merges (levels need not be sorted).

    Every point carries the smallest member index of its current cluster, so
    a merge relabels the larger of the two smallest members to the other,
    and ranking those values yields the labels numbered by smallest member.
    """
    n = dend.n_leaves
    levels = list(levels)
    for ell in levels:
        if not 1 <= ell <= n:
            raise ValueError(f"need 1 <= level <= n, got {ell}")
    low = np.empty(n + dend.n_merges, dtype=np.int64)  # smallest member per cluster id
    low[:n] = np.arange(n)
    comp = np.arange(n, dtype=np.int64)
    out: dict[int, np.ndarray] = {}
    applied = 0
    for ell in sorted(set(levels), reverse=True):  # fewest merges first
        while applied < n - ell:
            a, b = sorted((low[dend.children_a[applied]], low[dend.children_b[applied]]))
            comp[comp == b] = a
            low[n + applied] = a
            applied += 1
        out[ell] = np.unique(comp, return_inverse=True)[1].astype(np.int64) + 1
    return [out[ell] for ell in levels]


def save_merges_csv(path, dend: Dendrogram) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("child_a,child_b,height\n")
        for a, b, h in zip(dend.children_a, dend.children_b, dend.heights):
            fh.write(f"{int(a)},{int(b)},{float(h)!r}\n")


def land_random(
    dens: DensityEstimate,
    emb: DiffusionEmbedding,
    budget: int,
    oracle,
    seed: int,
    nearest_higher: np.ndarray | None = None,
) -> ActiveResult:
    """Active labeling with uniformly random query points instead of the
    mode-score maximizers; everything after the queries is unchanged,
    including the partial query trail on a refused query."""
    n = dens.n
    if not 1 <= budget <= n:
        raise ValueError(f"need 1 <= budget <= n, got budget={budget}, n={n}")
    rng = np.random.default_rng(seed)
    targets = rng.choice(n, size=budget, replace=False).astype(np.int64)
    return _query_and_propagate(targets, dens, emb, oracle, nearest_higher)


def _majority(labels: list[int]) -> tuple[int, float]:
    """(modal label, modal fraction); label ties go to the smaller id."""
    values, counts = np.unique(np.asarray(labels, dtype=np.int64), return_counts=True)
    best = int(np.lexsort((values, -counts))[0])
    return int(values[best]), float(counts[best]) / len(labels)


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
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if not 0.0 < purity_threshold <= 1.0:
        raise ValueError(f"purity threshold must be in (0, 1], got {purity_threshold}")
    if sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")

    n = dend.n_leaves
    members = dend._members
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    frontier: list[int] = [dend.root_id]
    queried: dict[int, int] = {}  # point -> answer, in query order

    while frontier and len(queried) < budget:
        # most unqueried points first, node id breaks ties
        node = max(frontier, key=lambda nd: (sum(1 for m in members[nd] if m not in queried), -nd))
        unqueried = [m for m in members[node] if m not in queried]
        if unqueried:
            to_ask = min(sample_size, len(unqueried), budget - len(queried))
            for k in rng.choice(len(unqueried), size=to_ask, replace=False):
                point = unqueried[int(k)]
                queried[point] = int(oracle.query(point))
        # the node now holds at least one queried point; frontier nodes are
        # disjoint, so a frozen node's labels are final when written
        frontier.remove(node)
        label, fraction = _majority([queried[m] for m in members[node] if m in queried])
        if fraction >= purity_threshold or node < n:
            labels[members[node]] = label
        else:
            frontier.extend((int(dend.children_a[node - n]), int(dend.children_b[node - n])))

    global_label = _majority(list(queried.values()))[0]
    for node in frontier:
        node_answers = [queried[m] for m in members[node] if m in queried]
        labels[members[node]] = _majority(node_answers)[0] if node_answers else global_label

    return ActiveResult(
        labels=labels,
        queried_indices=np.array(list(queried), dtype=np.int64),
        queries_used=len(queried),
        queried_labels=np.array(list(queried.values()), dtype=np.int64),
    )
