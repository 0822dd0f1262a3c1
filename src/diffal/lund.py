"""Unsupervised labeling by nonlinear diffusion (LUND) and its diagnostics.

LUND seeds labels at the top mode-score points and propagates them down the
nearest-denser forest: every point takes the label of the first seeded point
on its chain of diffusion-nearest strictly-denser points, and a map that is
not a forest is a ValueError.  The number of clusters is estimated from the
largest ratio between consecutive sorted mode scores.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import _check_count, _check_levels, validate_labels
from .geometry import DensityEstimate, DiffusionEmbedding, ModeScores, global_density_maximizer
from .graph import _BLOCK_ELEMENTS, NumericalError
from .metrics import _ClassCounts, _labeled, purity


@dataclass(frozen=True)
class ClusteringResult:
    """A full labeling in 1..num_clusters with the seeded mode points."""

    num_clusters: int
    labels: np.ndarray
    mode_indices: np.ndarray


@dataclass(frozen=True)
class SeparationDiagnostics:
    """Within/between-class diffusion distances and classwise density peaks.

    lund_condition_holds is the unsupervised-recovery test
    d_in / d_btw < max_mode_density / min_mode_density; land_condition_holds
    is the stricter d_in < d_btw under which seeding every classwise density
    maximizer labels the data perfectly.
    """

    d_in: float
    d_btw: float
    maximizer_indices: np.ndarray
    max_mode_density: float
    min_mode_density: float
    lund_condition_holds: bool
    land_condition_holds: bool


def propagate_labels(
    seeds: np.ndarray,
    dens: DensityEstimate,
    emb: DiffusionEmbedding,
    nearest_higher: np.ndarray,
) -> np.ndarray:
    """Complete a partial labeling along the nearest-denser forest.

    Each unlabeled point takes the label of the first seeded point on its
    chain of diffusion-nearest strictly-denser points (the labels of a
    decreasing-density sweep).  An unseeded global density maximizer, the
    root, takes the nearest seed's label by (distance, index), with a warning.

    nearest_higher is the forest's parent map, ModeScores.nearest_higher.
    It must be a forest: a wrong length, an index outside 0..n-1 or a cycle
    that no seed breaks is a ValueError.
    """
    labels = validate_labels(seeds, n=dens.n)
    if not np.any(labels > 0):
        raise ValueError("at least one seed label is required")
    if emb.n != dens.n:
        raise ValueError(f"embedding has {emb.n} rows but density has {dens.n}")
    n = dens.n
    up = _checked_forest(nearest_higher, n)

    roots = np.flatnonzero((labels == 0) & (up == np.arange(n)))
    if roots.size:
        warnings.warn("global density maximizer is unseeded; assigning it the "
                      "label of the nearest seeded point", stacklevel=2)
        # argmin keeps the first of equal distances: the smaller seed index
        seeded = np.flatnonzero(labels > 0)
        d = cdist(emb.coords[roots], emb.coords[seeded])
        labels[roots] = labels[seeded[np.argmin(d, axis=1)]]
    # pointer jumping: after r rounds up[i] lies 2**r links along i's chain,
    # or at its first seeded point; a forest's chains are shorter than n links
    up = np.where(labels > 0, np.arange(n), up)
    for _ in range(n.bit_length()):
        jumped = up[up]
        if np.array_equal(jumped, up):
            break
        up = jumped
    labels = labels[up]
    if np.any(labels == 0):
        raise ValueError("nearest_higher has a cycle that no seed breaks")
    return labels


def _checked_forest(nearest_higher, n: int) -> np.ndarray:
    up = np.asarray(nearest_higher)
    if up.shape != (n,) or np.any((up < 0) | (up >= n)):
        raise ValueError(f"nearest_higher must hold {n} indices in 0..{n - 1}")
    return up


def estimate_num_clusters(scores: ModeScores) -> int:
    """Largest ratio between consecutive sorted mode scores.

    The argmax runs over positions 1..ceil(n/2) (deep-tail ratios are
    excluded: a near-zero denominator far down the ordering would otherwise
    dominate); ties go to the smaller position.
    """
    n = scores.n
    if n < 2:
        raise ValueError("cluster count estimation needs at least two points")
    sorted_scores = scores.score[scores.order]
    limit = min(n - 1, math.ceil(n / 2))
    if np.any(sorted_scores[: limit + 1] == 0):
        raise NumericalError(
            "zero mode score in the searched range; scores must be positive"
        )
    ratios = sorted_scores[:limit] / sorted_scores[1 : limit + 1]
    return int(np.argmax(ratios)) + 1


def lund_k(
    scores: ModeScores,
    dens: DensityEstimate,
    emb: DiffusionEmbedding,
    num_clusters: int,
) -> ClusteringResult:
    """Label the data with a known number of clusters.

    Seeds labels 1..K on the top-K mode-score points, then propagates them.
    """
    n = scores.n
    _check_count("num_clusters", num_clusters, n)
    modes = scores.order[:num_clusters].copy()
    seeds = np.zeros(n, dtype=np.int64)
    seeds[modes] = np.arange(1, num_clusters + 1)
    labels = propagate_labels(seeds, dens, emb, nearest_higher=scores.nearest_higher)
    return ClusteringResult(num_clusters=num_clusters, labels=labels, mode_indices=modes)


def lund_purity_curve(
    scores: ModeScores,
    dens: DensityEstimate,
    emb: DiffusionEmbedding,
    levels,
    truth,
) -> list[float]:
    """purity(lund_k(scores, dens, emb, ell).labels, truth) for each level.

    While every root of the forest (a point that is its own nearest denser
    point) is seeded, dropping seed order[K-1] moves its cluster whole into
    the cluster that holds its nearest denser point.  So one lund_k labeling
    at the largest such level, and a union-find over its seeds, give every
    level down to the last root's rank in order.  Below that an unseeded
    root takes its nearest seed's label, which need not nest; those levels
    are labeled one by one.
    """
    n = scores.n
    levels = _check_levels(levels, n)
    truth, mask = _labeled(truth, n)
    up = _checked_forest(scores.nearest_higher, n)
    rank = np.empty(n, dtype=np.int64)
    rank[scores.order] = np.arange(n)
    roots = np.flatnonzero(up == np.arange(n))
    first_nested = int(rank[roots].max()) + 1 if roots.size else 1

    out: dict[int, float] = {}
    nested = sorted({ell for ell in levels if ell >= first_nested}, reverse=True)
    if nested:
        top = nested[0]
        labels = lund_k(scores, dens, emb, top).labels
        counts = _ClassCounts(labels, truth, mask)
        parent = list(range(top + 1))  # union-find over the seed labels 1..top

        def find(label: int) -> int:
            while parent[label] != label:
                parent[label] = parent[parent[label]]
                label = parent[label]
            return label

        # label, at level top, of the nearest denser point of seed order[j]
        holder = labels[up[scores.order[:top]]].tolist()
        k = top  # seeds left
        for ell in nested:
            while k > ell:  # drop seed order[k - 1], labeled k
                target = find(holder[k - 1])
                if target == k:
                    raise ValueError("nearest_higher has a cycle that no seed breaks")
                counts.merge(k, target, into=target)
                parent[k] = target
                k -= 1
            out[ell] = counts.purity()
    for ell in sorted(set(levels).difference(out)):
        out[ell] = purity(lund_k(scores, dens, emb, ell).labels, truth)
    return [out[ell] for ell in levels]


def lund(
    scores: ModeScores, dens: DensityEstimate, emb: DiffusionEmbedding
) -> ClusteringResult:
    """Fully unsupervised labeling: estimate the cluster count, then label."""
    return lund_k(scores, dens, emb, estimate_num_clusters(scores))


def separation_diagnostics(emb: DiffusionEmbedding, dens: DensityEstimate,
                           truth: np.ndarray) -> SeparationDiagnostics:
    """Max within-class and min between-class diffusion distances.

    Exact over all point pairs (chunked, O(n^2) time).  Points with truth 0
    are left out, as in every metric.
    """
    truth, labeled = _labeled(truth, n=dens.n)
    index = np.flatnonzero(labeled)
    truth, coords, p = truth[index], emb.coords[index], dens.p[index]
    classes = np.unique(truth)
    n = coords.shape[0]

    maximizers = np.empty(len(classes), dtype=np.int64)
    for ci, c in enumerate(classes):
        # classwise density peak; members ascend, so ties go to the smaller index
        members = np.flatnonzero(truth == c)
        maximizers[ci] = members[global_density_maximizer(p[members])]
    mode_density = p[maximizers]
    max_mode = float(mode_density.max())
    min_mode = float(mode_density.min())

    d_in = 0.0
    d_btw = math.inf
    chunk = max(1, int(_BLOCK_ELEMENTS // max(1, n)))
    for start in range(0, n, chunk):
        block = slice(start, start + chunk)
        d = cdist(coords[block], coords)
        same = truth[block][:, None] == truth[None, :]
        if np.any(same):
            d_in = max(d_in, float(d[same].max()))
        if np.any(~same):
            d_btw = min(d_btw, float(d[~same].min()))
    if not math.isfinite(d_btw):
        d_btw = 0.0  # single class: no between-class pairs

    # cross-multiplied form avoids dividing by a zero d_btw
    lund_ok = d_in * min_mode < max_mode * d_btw
    land_ok = d_in < d_btw
    return SeparationDiagnostics(
        d_in=d_in,
        d_btw=d_btw,
        maximizer_indices=index[maximizers],
        max_mode_density=max_mode,
        min_mode_density=min_mode,
        lund_condition_holds=bool(lund_ok),
        land_condition_holds=bool(land_ok),
    )
