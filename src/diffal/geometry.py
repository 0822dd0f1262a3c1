"""Diffusion embeddings, diffusion distances, kernel density, and mode scores.

At diffusion time t every point maps to the row
(lambda_1^t psi_1(x), ..., lambda_M^t psi_M(x)); Euclidean distance between
rows is the (truncated) diffusion distance D_t.  Each point's density p and
its diffusion distance rho to the nearest higher-density point combine into
the mode score p * rho, whose maximizers seed clusters downstream.

Density comparisons use the strict total order
    y is denser than x  iff  p(y) > p(x), or p(y) == p(x) and y < x,
so there is a unique global density maximizer and chains of
nearest-higher-density pointers can never cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dataset import PointCloud
from .graph import (
    NeighborLists,
    SpectralDecomposition,
    _exact_search,
    knn_search,
)


@dataclass(frozen=True)
class DiffusionEmbedding:
    """Coordinates whose Euclidean distances are truncated diffusion distances."""

    coords: np.ndarray  # (n, M), column l = lambda_l^t * psi_l
    t: float

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class DensityEstimate:
    """Unnormalized Gaussian-kernel density over the k_density nearest neighbors."""

    p: np.ndarray
    k_density: int
    sigma0: float

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class ModeScores:
    """Per-point mode scores and the descending-score visit order.

    score = p * rho; order sorts scores descending with ties broken by
    smaller index; nearest_higher[i] is the argmin point realizing rho[i]
    (i itself for the global density maximizer).
    """

    rho: np.ndarray
    score: np.ndarray
    order: np.ndarray
    nearest_higher: np.ndarray

    @property
    def n(self) -> int:
        return self.score.shape[0]


def eigenvalue_powers(eigenvalues: np.ndarray, t: float) -> np.ndarray:
    """lambda^t for each eigenvalue; integer t uses exact signed powers."""
    if t < 0:
        raise ValueError(f"diffusion time must be non-negative, got {t}")
    if t == 0:
        return np.ones_like(eigenvalues)
    if float(t).is_integer():
        return eigenvalues ** int(t)
    if np.any(eigenvalues < 0):
        bad = float(eigenvalues[eigenvalues < 0][0])
        raise ValueError(
            f"non-integer diffusion time t={t} with a negative retained "
            f"eigenvalue {bad}; use integer t or drop the negative eigenpairs"
        )
    return eigenvalues**t


def diffusion_embed(spec: SpectralDecomposition, t: float) -> DiffusionEmbedding:
    """Scale each eigenvector column by lambda^t."""
    weights = eigenvalue_powers(spec.eigenvalues, t)
    # C-contiguous so every distance computation reduces in the same order
    coords = np.ascontiguousarray(spec.basis * weights[None, :])
    return DiffusionEmbedding(coords=coords, t=float(t))


def diffusion_distance(emb: DiffusionEmbedding, i: int, j: int) -> float:
    """Truncated diffusion distance between points i and j."""
    diff = emb.coords[i] - emb.coords[j]
    return float(np.sqrt(np.einsum("i,i->", diff, diff)))


def pairwise_diffusion_distances(emb: DiffusionEmbedding) -> np.ndarray:
    """Dense n x n distance matrix; intended for small n (tests, diagnostics)."""
    diff = emb.coords[:, None, :] - emb.coords[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def kde(
    cloud: PointCloud,
    k_density: int,
    sigma0: float,
    neighbors: NeighborLists | None = None,
) -> DensityEstimate:
    """p(x) = sum over the k_density nearest neighbors of exp(-dist^2/sigma0^2).

    The point itself is excluded; no normalization is applied (downstream
    use only depends on relative values).  Pass precomputed neighbor lists
    with at least k_density columns to skip the search.
    """
    if sigma0 <= 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    if not 1 <= k_density < cloud.n:
        raise ValueError(f"need 1 <= k_density < n, got k_density={k_density}, n={cloud.n}")
    if neighbors is None:
        neighbors = knn_search(cloud, k_density)
    elif neighbors.k < k_density:
        raise ValueError(f"neighbor lists have k={neighbors.k} < k_density={k_density}")
    dist = neighbors.distances[:, :k_density]
    p = np.exp(-((dist / sigma0) ** 2)).sum(axis=1)
    return DensityEstimate(p=p, k_density=int(k_density), sigma0=float(sigma0))


def global_density_maximizer(p: np.ndarray) -> int:
    """Unique top of the density order: maximum p, ties to the smaller index."""
    n = p.shape[0]
    return int(np.lexsort((np.arange(n), -p))[0])


def density_descending_order(p: np.ndarray) -> np.ndarray:
    """Indices sorted by decreasing density, ties by increasing index."""
    n = p.shape[0]
    return np.lexsort((np.arange(n), -p))


def nearest_denser_points(
    emb: DiffusionEmbedding, dens: DensityEstimate
) -> tuple[np.ndarray, np.ndarray]:
    """For each point, distance and index of its nearest strictly-denser point.

    The global density maximizer gets (max distance to any point, itself).
    Every other point goes through the exact neighbor engine of graph with
    k = 1 and the strict density order as the acceptance test.  The search
    starts from max(8, 2 ceil(log2 n) + 2) tree candidates per point and
    widens fourfold per round, up to a full scan, for the points it cannot
    yet prove complete.  Results match a quadratic scan exactly, tie rules
    included: at equal distance the smaller index wins.
    """
    coords = np.ascontiguousarray(emb.coords)
    p = dens.p
    n = p.shape[0]
    if n != coords.shape[0]:
        raise ValueError(f"embedding has {coords.shape[0]} rows but density has {n}")
    imax = global_density_maximizer(p)

    def denser(rows, cand):
        pc, pr = p[cand], p[rows, None]
        return (pc > pr) | ((pc == pr) & (cand < rows[:, None]))

    rows = np.setdiff1d(np.arange(n), [imax])
    idx, dist = _exact_search(
        coords, cKDTree(coords), rows, 1,
        max(8, 2 * math.ceil(math.log2(n)) + 2), denser,
    )
    dist_out = np.empty(n, dtype=np.float64)
    idx_out = np.empty(n, dtype=np.int64)
    dist_out[rows] = dist[:, 0]
    idx_out[rows] = idx[:, 0]
    diff = coords - coords[imax]
    dist_out[imax] = float(np.sqrt(np.einsum("ij,ij->i", diff, diff)).max())
    idx_out[imax] = imax
    return dist_out, idx_out


def rho(emb: DiffusionEmbedding, dens: DensityEstimate) -> tuple[np.ndarray, np.ndarray]:
    """Diffusion distance to the nearest strictly-denser point.

    Returns (rho values, nearest_higher indices); the global density
    maximizer carries its maximum distance to any point and points to
    itself.
    """
    return nearest_denser_points(emb, dens)


def mode_scores(
    dens: DensityEstimate, rho_values: np.ndarray, nearest_higher: np.ndarray
) -> ModeScores:
    """score = p * rho, plus the descending-score ordering (ties by index)."""
    p = dens.p
    rho_values = np.asarray(rho_values, dtype=np.float64)
    nearest_higher = np.asarray(nearest_higher, dtype=np.int64)
    if rho_values.shape != p.shape or nearest_higher.shape != p.shape:
        raise ValueError("density, rho, and nearest_higher must have equal lengths")
    score = p * rho_values
    order = np.lexsort((np.arange(p.shape[0]), -score))
    return ModeScores(
        rho=rho_values, score=score, order=order, nearest_higher=nearest_higher
    )


def save_mode_scores_csv(path, scores: ModeScores, dens: DensityEstimate) -> None:
    """Write (index, density, rho, score) rows for plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,p,rho,score\n")
        for i in range(scores.n):
            fh.write(
                f"{i},{float(dens.p[i])!r},{float(scores.rho[i])!r},"
                f"{float(scores.score[i])!r}\n"
            )
