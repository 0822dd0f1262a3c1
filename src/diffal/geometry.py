"""Diffusion embeddings, diffusion distances, kernel density, and mode scores.

At diffusion time t every point maps to the row (|lambda_l|^t psi_l(x))_l,
whose Euclidean distances are the (truncated) diffusion distance
D_t(x, y)^2 = sum_l (lambda_l^2)^t (psi_l(x) - psi_l(y))^2 at every t >= 0.
Each point's density p and its diffusion distance rho to the nearest
higher-density point combine into the mode score p * rho, whose maximizers
seed clusters downstream.

Density comparisons use the strict total order
    y is denser than x  iff  p(y) > p(x), or p(y) == p(x) and y < x,
so there is a unique global density maximizer and chains of
nearest-higher-density pointers can never cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _check_positive, _open_output
from .graph import NeighborLists, SpectralDecomposition, _exact_search, _proposer_for


@dataclass(frozen=True)
class DiffusionEmbedding:
    """Coordinates whose Euclidean distances are truncated diffusion distances."""

    coords: np.ndarray  # (n, M), column l = |lambda_l|^t * psi_l
    t: float

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class DensityEstimate:
    """Unnormalized Gaussian-kernel density over each point's listed neighbors."""

    p: np.ndarray

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
    """|lambda|^t, the embedding's column weights: their squares are the
    (lambda^2)^t of D_t^2 = sum_l (lambda_l^2)^t dpsi_l^2.  At integer t a
    column then differs from lambda^t psi in sign only, which changes no
    distance, and for lambda < 0 in the last bit (numpy's power of a
    negative base takes another path)."""
    if not 0 <= t < np.inf:
        raise ValueError(f"diffusion time must be finite and non-negative, got {t}")
    return np.abs(eigenvalues) ** t


def diffusion_embed(spec: SpectralDecomposition, t: float) -> DiffusionEmbedding:
    """Scale each eigenvector column by |lambda|^t."""
    weights = eigenvalue_powers(spec.eigenvalues, t)
    # C-contiguous so every distance computation reduces in the same order
    coords = np.ascontiguousarray(spec.basis * weights[None, :])
    return DiffusionEmbedding(coords=coords, t=float(t))


def kde(neighbors: NeighborLists, sigma0: float) -> DensityEstimate:
    """p(x) = sum over the k listed neighbors of exp(-dist^2/sigma0^2).

    The lists exclude the point itself; no normalization is applied
    (downstream use only depends on relative values).
    """
    _check_positive("sigma0", sigma0)
    p = np.exp(-((neighbors.distances / sigma0) ** 2)).sum(axis=1)
    return DensityEstimate(p=p)


def global_density_maximizer(p: np.ndarray) -> int:
    """Unique top of the density order: maximum p, ties to the smaller index."""
    return int(np.argmax(p))


def nearest_denser_points(
    emb: DiffusionEmbedding, dens: DensityEstimate, width: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """For each point, distance and index of its nearest strictly-denser point.

    The global density maximizer gets (max distance to any point, itself).
    Every other point goes through the exact neighbor engine of graph with
    k = 1 and the strict density order as the acceptance test.  The search
    starts from 8 candidates per point and widens fourfold per round, up to
    a full scan, for the points it cannot yet prove complete; most points
    have a denser point among their 8 nearest and finish in the first
    round.  width, by default the embedding's column count, is the number
    of dimensions the points spread over, and picks the candidate generator
    (graph._proposer_for).  Results match a quadratic scan exactly, tie
    rules included, whichever generator proposes: at equal distance the
    smaller index wins.
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

    if width is None:
        width = coords.shape[1]
    rows = np.delete(np.arange(n), imax)
    idx, dist = _exact_search(coords, _proposer_for(width)(coords), rows, 1, 8, denser)
    dist_out = np.empty(n, dtype=np.float64)
    idx_out = np.empty(n, dtype=np.int64)
    dist_out[rows] = dist[:, 0]
    idx_out[rows] = idx[:, 0]
    diff = coords - coords[imax]
    dist_out[imax] = float(np.sqrt(np.einsum("ij,ij->i", diff, diff)).max())
    idx_out[imax] = imax
    return dist_out, idx_out


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
    with _open_output(path) as fh:
        fh.write("index,p,rho,score\n")
        for i in range(scores.n):
            fh.write(
                f"{i},{float(dens.p[i])!r},{float(scores.rho[i])!r},"
                f"{float(scores.score[i])!r}\n"
            )
