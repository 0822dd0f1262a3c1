"""Comparison methods: agglomerative linkage trees, random-query active
labeling, and cluster-based active learning over a linkage tree (CBAL).

The agglomerative implementation keeps a full distance matrix (O(n^2)
memory) and picks each merge by the smallest height, breaking ties by the
smaller minimum original point index of the merged pair, then by the other
cluster's minimum index.  That rule makes merge sequences reproducible
across implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def linkage(cloud: PointCloud, method: str) -> Dendrogram:
    """Agglomerative clustering on Euclidean distances (single or average)."""
    if method not in LINKAGE_METHODS:
        raise ValueError(f"method must be one of {LINKAGE_METHODS}, got {method!r}")
    n = cloud.n
    if n < 2:
        raise ValueError("linkage needs at least two points")

    # dmat[i, j] for i < j is the current distance between the clusters whose
    # minimum original indices are i and j; everything else stays +inf, so a
    # row-major argmin realizes the (height, min-index, other-index) tie rule.
    dmat = cdist(cloud.points, cloud.points)
    dmat[np.tril_indices(n)] = np.inf

    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    slot_id = np.arange(n, dtype=np.int64)
    ch_a = np.empty(n - 1, dtype=np.int64)
    ch_b = np.empty(n - 1, dtype=np.int64)
    heights = np.empty(n - 1, dtype=np.float64)

    for step in range(n - 1):
        flat = int(np.argmin(dmat))
        i, j = divmod(flat, n)
        h = dmat[i, j]
        a, b = slot_id[i], slot_id[j]
        ch_a[step], ch_b[step] = min(a, b), max(a, b)
        heights[step] = h

        others = np.flatnonzero(active)
        others = others[(others != i) & (others != j)]
        if others.size:
            d_i = dmat[np.minimum(i, others), np.maximum(i, others)]
            d_j = dmat[np.minimum(j, others), np.maximum(j, others)]
            if method == "single":
                new = np.minimum(d_i, d_j)
            else:
                new = (sizes[i] * d_i + sizes[j] * d_j) / (sizes[i] + sizes[j])
            dmat[np.minimum(i, others), np.maximum(i, others)] = new
        dmat[j, :] = np.inf
        dmat[:, j] = np.inf
        active[j] = False
        sizes[i] += sizes[j]
        slot_id[i] = n + step
    return Dendrogram(children_a=ch_a, children_b=ch_b, heights=heights, n_leaves=n)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return int(root)

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)


def _leaf_reps(dend: Dendrogram, n_merges_applied: int) -> np.ndarray:
    """Component representative per point after applying a merge prefix."""
    n = dend.n_leaves
    uf = _UnionFind(n)
    cluster_rep = {i: i for i in range(n)}
    for s in range(n_merges_applied):
        ra = cluster_rep.pop(int(dend.children_a[s]))
        rb = cluster_rep.pop(int(dend.children_b[s]))
        uf.union(ra, rb)
        cluster_rep[n + s] = uf.find(ra)
    return np.array([uf.find(i) for i in range(n)], dtype=np.int64)


def _reps_to_labels(reps: np.ndarray) -> np.ndarray:
    """Cluster ids 1..L assigned in order of each cluster's smallest member."""
    n = reps.shape[0]
    first_member = {}
    for i in range(n):
        first_member.setdefault(int(reps[i]), i)
    ranked = sorted(first_member, key=first_member.get)
    mapping = {rep: rank + 1 for rank, rep in enumerate(ranked)}
    return np.array([mapping[int(r)] for r in reps], dtype=np.int64)


def cut(dend: Dendrogram, num_clusters: int) -> np.ndarray:
    """Partition into exactly num_clusters clusters by undoing the last merges.

    Returns labels 1..num_clusters, numbered by each cluster's smallest
    member index.
    """
    n = dend.n_leaves
    if not 1 <= num_clusters <= n:
        raise ValueError(f"need 1 <= num_clusters <= n, got {num_clusters}")
    return _reps_to_labels(_leaf_reps(dend, n - num_clusters))


def cut_sequence(dend: Dendrogram, levels) -> list[np.ndarray]:
    """cut() for many levels in one incremental pass (levels need not be sorted)."""
    n = dend.n_leaves
    levels = list(levels)
    for ell in levels:
        if not 1 <= ell <= n:
            raise ValueError(f"need 1 <= level <= n, got {ell}")
    wanted = sorted(set(levels), reverse=True)  # fewest merges first
    uf = _UnionFind(n)
    cluster_rep = {i: i for i in range(n)}
    out: dict[int, np.ndarray] = {}
    applied = 0
    for ell in wanted:
        target = n - ell
        while applied < target:
            ra = cluster_rep.pop(int(dend.children_a[applied]))
            rb = cluster_rep.pop(int(dend.children_b[applied]))
            uf.union(ra, rb)
            cluster_rep[n + applied] = uf.find(ra)
            applied += 1
        reps = np.array([uf.find(i) for i in range(n)], dtype=np.int64)
        out[ell] = _reps_to_labels(reps)
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


def _node_members(dend: Dendrogram) -> dict[int, list[int]]:
    members: dict[int, list[int]] = {i: [i] for i in range(dend.n_leaves)}
    for s in range(dend.n_merges):
        a, b = int(dend.children_a[s]), int(dend.children_b[s])
        members[dend.n_leaves + s] = sorted(members[a] + members[b])
    return members


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
    members = _node_members(dend)
    children = {
        n + s: (int(dend.children_a[s]), int(dend.children_b[s]))
        for s in range(dend.n_merges)
    }
    rng = np.random.default_rng(seed)

    frontier: list[int] = [dend.root_id]
    frozen: dict[int, int] = {}
    queried: dict[int, int] = {}
    query_order: list[int] = []

    while frontier and len(queried) < budget:
        # most unqueried points first, node id breaks ties
        node = max(frontier, key=lambda nd: (sum(1 for m in members[nd] if m not in queried), -nd))
        unqueried = [m for m in members[node] if m not in queried]
        to_ask = min(sample_size, len(unqueried), budget - len(queried))
        if to_ask > 0:
            picks = rng.choice(len(unqueried), size=to_ask, replace=False)
            for k in picks:
                point = unqueried[int(k)]
                queried[point] = int(oracle.query(point))
                query_order.append(point)
        node_answers = [queried[m] for m in members[node] if m in queried]
        is_leaf = node < n
        if node_answers:
            label, fraction = _majority(node_answers)
            if fraction >= purity_threshold or is_leaf:
                frozen[node] = label
                frontier.remove(node)
                continue
        if is_leaf:
            # unreachable in practice (a selected leaf always ends up queried);
            # freeze defensively so the loop cannot stall
            frozen[node] = _majority(list(queried.values()))[0] if queried else 1
            frontier.remove(node)
            continue
        frontier.remove(node)
        frontier.extend(children[node])

    labels = np.zeros(n, dtype=np.int64)
    global_label = _majority(list(queried.values()))[0] if queried else 1
    for node, label in frozen.items():
        labels[members[node]] = label
    for node in frontier:
        node_answers = [queried[m] for m in members[node] if m in queried]
        label = _majority(node_answers)[0] if node_answers else global_label
        labels[members[node]] = label

    targets = np.array(query_order, dtype=np.int64)
    answers = np.array([queried[i] for i in query_order], dtype=np.int64)
    return ActiveResult(
        labels=labels,
        queried_indices=targets,
        queries_used=len(queried),
        queried_labels=answers,
    )
