"""End-to-end assembly: point cloud -> diffusion model -> per-t scores.

The expensive, t-independent work (neighbor search, kernel, spectral
decomposition of its diffusion, density estimate) is bundled in a DiffusionModel;
per-t embeddings and mode scores are derived from it cheaply, so t sweeps
reuse one decomposition.  Every t >= 0 has an embedding (column weights
|lambda|^t); only a t at which every non-Perron column |lambda|^t psi has
shrunk below sqrt(smallest normal) carries no geometry: its squared
coordinate differences underflow, so the embedding is psi_1 and its
rounding.  Such a t fails before the nearest-denser search, with the same
zero-mode-score NumericalError the cluster count would raise.  The search
takes its candidates from the kd-tree or from GEMM by how many columns
carry weight at t (see DiffusionModel.scores_at).  A model built with a
cache_dir also caches each scored t's nearest-denser search, the costly
part of scores_at.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cache import DiffusionCache, NearestDenser, params_key, points_hash
from .dataset import DataError, PointCloud, _DataValueError, _check_count, _check_positive
from .geometry import (
    DensityEstimate,
    DiffusionEmbedding,
    ModeScores,
    diffusion_embed,
    eigenvalue_powers,
    kde,
    mode_scores,
    nearest_denser_points,
)
from .graph import (
    EIGENSOLVER_VERSION,
    NeighborLists,
    NumericalError,
    SpectralDecomposition,
    default_num_eigs,
    default_num_neighbors,
    default_sigma,
    kernel_matrix,
    knn_search,
    spectral_decompose,
    truncate_small_eigenvalues,
)

# A weighted column spread below this squares to below the smallest normal
# float: its coordinate differences no longer add to any distance.
_SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)


def _weighted_column_count(weights: np.ndarray) -> float:
    """(sum w^2)^2 / sum w^4: how many columns carry the weights w, from 1
    when one dominates to len(w) when all are equal.  w is scaled by its
    largest entry first, so w^4 cannot underflow; w must hold a nonzero."""
    w2 = (weights / weights.max()) ** 2
    return float(w2.sum() ** 2 / (w2 @ w2))


@dataclass(frozen=True)
class DiffusionModel:
    cloud: PointCloud
    neighbors: NeighborLists
    spectrum: SpectralDecomposition
    density: DensityEstimate
    sigma: float
    # cached_rho(search, t=t): the cache's nearest-denser entry at t, or
    # search() saved under it; just search() for a model without a cache_dir
    cached_rho: Callable[..., NearestDenser] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.cloud.n

    def scores_at(self, t: float) -> tuple[DiffusionEmbedding, ModeScores]:
        """Embedding and mode scores at diffusion time t.

        When the spectrum holds more than one pair and every non-Perron
        weight |lambda_l|^t and weighted spread |lambda_l|^t (max psi_l -
        min psi_l) is below sqrt(smallest normal), every squared coordinate
        difference outside psi_1 underflows: the distances are
        lambda_1^t psi_1's rounding, and the mode scores noise or 0.  That
        raises NumericalError ("zero mode score") before the search.  The
        spreads are read only once every weight is that small.  On a
        connected graph psi_1 is constant, so each other psi_l has pi-mean 0
        and pi-variance 1, and a spread of at least 2: there the weights
        never decide alone.  Computed copies of lambda = 1, one per
        component of a disconnected graph, sit about 1e-15 below 1, so they
        keep their weight only while t << 1e15.

        The nearest-denser search runs on the kd-tree or on GEMM candidates
        by _proposer_for's rule, at the width min(data dimension, number of
        non-Perron columns that carry weight): GEMM only where noisy data in
        many dimensions keep many columns near full weight, as a
        hyperspectral cube at t = 1.  Either gives the same result.

        A model built with a cache_dir reads the nearest-denser search's
        result at t from the cache, after those checks and only then, and on
        a miss searches and saves it; a model built without one does no disk
        I/O.  The embedding and the scores are derived afresh either way.
        """
        weights = eigenvalue_powers(self.spectrum.eigenvalues, t)
        rest = weights[1:]
        if rest.size and np.all(rest < _SQRT_TINY) and np.all(
                rest * np.ptp(self.spectrum.basis[:, 1:], axis=0) < _SQRT_TINY):
            raise NumericalError(
                f"zero mode score at t={t:g}: every non-Perron column |lambda|^t psi "
                "spreads by less than sqrt(smallest normal), so the diffusion "
                "embedding is constant up to rounding"
            )
        emb = diffusion_embed(self.spectrum, t)

        def search():
            width = min(self.cloud.dim, _weighted_column_count(rest)) if rest.size else 1
            return NearestDenser(*nearest_denser_points(emb, self.density, width))

        found = self.cached_rho(search, t=float(t))
        return emb, mode_scores(self.density, found.rho, found.nearest_higher)


def build_model(
    cloud: PointCloud,
    k: int | None = None,
    sigma: float | None = None,
    sigma0: float | None = None,
    num_eigs: int | None = None,
    cache_dir=None,
) -> DiffusionModel:
    """Build the full diffusion model with self-tuning defaults.

    Defaults: k = max(20, ceil(log2 n)) capped below n; sigma = mean k-th
    neighbor distance; the density estimate reuses the graph's k neighbors
    and, unless sigma0 is given, its sigma; num_eigs = 25 with eigenpairs
    below 1e-8 in modulus dropped.  The eigensolver works to machine
    precision.  Fewer than two points, or a default sigma of 0 (every k-th
    neighbor distance is 0), is a DataError, the first also a ValueError; an
    explicit sigma or sigma0 that is not positive (NaN included) is a
    ValueError.  cache_dir, when given, is created (with its parents) only
    after the num_eigs, sigma and sigma0 checks, and before the neighbor
    search; one that cannot be created raises OSError.
    """
    n = cloud.n
    if n < 2:
        raise _DataValueError("diffusion model needs at least two points")
    if k is None:
        k = default_num_neighbors(n)
    if num_eigs is None:
        num_eigs = default_num_eigs(n)
    _check_count("num_eigs", num_eigs, n)
    for name, value in (("sigma", sigma), ("sigma0", sigma0)):
        if value is not None:
            _check_positive(name, value)

    cache = DiffusionCache(cache_dir) if cache_dir is not None else None
    points_state = points_hash(cloud.points) if cache is not None else None

    def cached(kind, shape, compute, **params):
        """The cache's entry of this kind for (points, params), computed and
        saved on a miss; kind names the cache's load_/save_ methods."""
        if cache is None:
            return compute()
        key = params_key(points_state, kind=kind, **params)
        entry = getattr(cache, f"load_{kind}")(key, shape=shape)
        if entry is None:
            entry = compute()
            getattr(cache, f"save_{kind}")(key, entry)
        return entry

    neighbors = cached("neighbors", (n, k), lambda: knn_search(cloud, k), k=k)
    if sigma is None:
        sigma = default_sigma(neighbors)
        if sigma == 0:
            raise DataError(
                f"default sigma is 0: every point's {k}-th nearest neighbor is an exact "
                f"duplicate (each point occurs more than {k} times); deduplicate the "
                "data or pass --sigma"
            )
    if sigma0 is None:
        sigma0 = sigma

    spectrum = cached(
        "spectrum", (n, num_eigs),
        lambda: spectral_decompose(kernel_matrix(neighbors, sigma), num_eigs),
        k=k, sigma=sigma, num_eigs=num_eigs, solver=EIGENSOLVER_VERSION,
    )
    spectrum = truncate_small_eigenvalues(spectrum)

    density = kde(neighbors, sigma0)
    return DiffusionModel(
        cloud=cloud,
        neighbors=neighbors,
        spectrum=spectrum,
        density=density,
        sigma=float(sigma),
        cached_rho=partial(
            cached, "rho", (n,), k=k, sigma=float(sigma), sigma0=float(sigma0),
            num_eigs=num_eigs, solver=EIGENSOLVER_VERSION),
    )


def log_t_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Diffusion times 10**x for x = start, start+step, ..., stop.  A grid whose top
    time overflows, or too long to allocate, is a ValueError before any time is built."""
    if not np.all(np.isfinite([start, stop, step])):
        raise ValueError(f"time grid bounds and step must be finite, got {start}:{stop}:{step}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    last = np.rint((stop - start) / step)  # index of the top time; inf for a tiny step
    if last < 0:
        raise ValueError(f"empty time grid: stop {stop} is below start {start}")
    with np.errstate(over="ignore"):
        if np.isinf(np.power(10.0, start + step * last)):
            raise ValueError(f"time grid {start}:{stop}:{step} reaches a time that overflows")
    try:
        exponents = start + step * np.arange(int(last) + 1)
    except (MemoryError, ValueError):  # numpy: "Maximum allowed size exceeded"
        raise ValueError(f"time grid {start}:{stop}:{step} has too many points") from None
    return np.power(10.0, exponents)
