"""End-to-end assembly: point cloud -> diffusion model -> per-t scores.

The expensive, t-independent work (neighbor search, kernel, Markov chain,
spectral decomposition, density estimate) is bundled in a DiffusionModel;
per-t embeddings and mode scores are derived from it cheaply, so t sweeps
reuse one decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import DiffusionCache, content_key
from .dataset import PointCloud
from .geometry import (
    DensityEstimate,
    DiffusionEmbedding,
    ModeScores,
    diffusion_embed,
    kde,
    mode_scores,
    rho,
)
from .graph import (
    NeighborLists,
    SpectralDecomposition,
    default_num_eigs,
    default_num_neighbors,
    default_sigma,
    kernel_matrix,
    knn_search,
    markov_normalize,
    spectral_decompose,
    truncate_small_eigenvalues,
)

# eigenpairs below this modulus carry no usable geometry at any positive t
MIN_EIGENVALUE_MAGNITUDE = 1e-8


@dataclass(frozen=True)
class DiffusionModel:
    cloud: PointCloud
    neighbors: NeighborLists
    spectrum: SpectralDecomposition
    density: DensityEstimate
    sigma: float

    @property
    def n(self) -> int:
        return self.cloud.n

    def embedding(self, t: float) -> DiffusionEmbedding:
        return diffusion_embed(self.spectrum, t)

    def scores_at(self, t: float) -> tuple[DiffusionEmbedding, ModeScores]:
        emb = self.embedding(t)
        rho_values, nearest = rho(emb, self.density)
        return emb, mode_scores(self.density, rho_values, nearest)


def build_model(
    cloud: PointCloud,
    k: int | None = None,
    sigma: float | None = None,
    k_density: int | None = None,
    sigma0: float | None = None,
    num_eigs: int | None = None,
    cache_dir=None,
    eig_tol: float = 0.0,
    eig_ncv: int | None = None,
) -> DiffusionModel:
    """Build the full diffusion model with self-tuning defaults.

    Defaults: k = max(20, ceil(log2 n)) capped below n; sigma = mean k-th
    neighbor distance; the density estimate reuses the graph's k and sigma;
    num_eigs = 25 with eigenpairs below 1e-8 in modulus dropped.  eig_tol
    and eig_ncv are passed to the eigensolver (performance knobs for large
    graphs; the defaults solve to machine precision).
    """
    n = cloud.n
    if n < 2:
        raise ValueError("diffusion model needs at least two points")
    if k is None:
        k = default_num_neighbors(n)
    if k_density is None:
        k_density = k
    if num_eigs is None:
        num_eigs = default_num_eigs(n)

    cache = DiffusionCache(cache_dir) if cache_dir is not None else None
    search_k = max(k, k_density)

    neighbors = None
    nb_key = None
    if cache is not None:
        nb_key = content_key(cloud.points, kind="neighbors", k=search_k)
        neighbors = cache.load_neighbors(nb_key)
    if neighbors is None:
        neighbors = knn_search(cloud, search_k)
        if cache is not None:
            cache.save_neighbors(nb_key, neighbors)

    graph_nb = NeighborLists(
        indices=neighbors.indices[:, :k], distances=neighbors.distances[:, :k]
    )
    if sigma is None:
        sigma = default_sigma(graph_nb)
    if sigma0 is None:
        sigma0 = sigma

    spectrum = None
    eig_key = None
    if cache is not None:
        eig_key = content_key(
            cloud.points, kind="spectrum", k=k, sigma=sigma, num_eigs=num_eigs,
            eig_tol=eig_tol, eig_ncv=eig_ncv,
        )
        spectrum = cache.load_spectrum(eig_key)
    if spectrum is None:
        chain = markov_normalize(kernel_matrix(graph_nb, sigma))
        spectrum = spectral_decompose(chain, num_eigs, tol=eig_tol, ncv=eig_ncv)
        if cache is not None:
            cache.save_spectrum(eig_key, spectrum)
    spectrum = truncate_small_eigenvalues(spectrum, MIN_EIGENVALUE_MAGNITUDE)

    density = kde(cloud, k_density, sigma0, neighbors=neighbors)
    return DiffusionModel(
        cloud=cloud,
        neighbors=neighbors,
        spectrum=spectrum,
        density=density,
        sigma=float(sigma),
    )


def log_t_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Diffusion times 10**x for x = start, start+step, ..., stop."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    count = int(round((stop - start) / step)) + 1
    exponents = start + step * np.arange(count)
    return np.power(10.0, exponents)
