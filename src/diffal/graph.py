"""kNN kernel graph, Markov normalization, and truncated spectral decomposition.

The graph is built in four steps: exact k-nearest-neighbor lists, a sparse
Gaussian kernel matrix symmetrized by entrywise max, row-stochastic
normalization P = D^(-1) W, and the top eigenpairs of the symmetric
conjugate D^(-1/2) W D^(-1/2) converted to right eigenvectors of P.

Both exact neighbor searches, kNN here and the nearest-denser search in
geometry, run on one engine, _exact_search.  It proposes candidates with a
kd-tree, recomputes every reported distance with plain numpy arithmetic, and
widens the candidate set fourfold per round (up to a full scan) for the rows
it cannot yet prove complete.  Results, including tie-breaking by smaller
index at equal distance, are bitwise identical to a brute-force double loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from scipy.spatial import cKDTree

from .dataset import PointCloud

# Relative safety margin when deciding whether a kd-tree candidate set is
# provably complete; dominates the ~1e-14 arithmetic disagreement between
# the tree's distances and numpy's.
_BOUNDARY_MARGIN = 1e-9

# Rows per block of a neighbor search are chosen so the (rows, candidates,
# dimension) difference array holds about this many elements (32 MiB).
_BLOCK_ELEMENTS = 2**22


class NumericalError(Exception):
    """Eigensolver failure or other numerical breakdown."""


@dataclass(frozen=True)
class NeighborLists:
    """Exact kNN indices and distances; each row sorted by (distance, index)."""

    indices: np.ndarray    # (n, k) int64, row i never contains i
    distances: np.ndarray  # (n, k) float64, non-decreasing along each row

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]


@dataclass(frozen=True)
class SparseKernelMatrix:
    """Symmetric sparse kernel weights in [0, 1] with unit diagonal."""

    weights: sparse.csr_matrix
    sigma: float

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class MarkovChain:
    """Row-stochastic transition matrix with degrees and stationary distribution."""

    transitions: sparse.csr_matrix  # P = D^{-1} W
    degrees: np.ndarray             # d_i = sum_j W_ij
    stationary: np.ndarray          # pi_i = d_i / sum_j d_j

    @property
    def n(self) -> int:
        return self.transitions.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Top eigenpairs of P, sorted with eigenvalue 1 first then by modulus.

    basis column l holds the right eigenvector psi_l of P, normalized so
    that sum_i stationary_i * psi_a(i) * psi_b(i) = delta_ab, with the sign
    fixed by making each column's largest-magnitude entry positive.
    """

    eigenvalues: np.ndarray  # (M,)
    basis: np.ndarray        # (n, M)
    stationary: np.ndarray   # (n,)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def num_eigs(self) -> int:
        return self.eigenvalues.shape[0]


def _exact_search(coords, tree, rows, k, m, accept):
    """The k accepted points nearest each of coords[rows], as (indices, distances).

    Each round asks the kd-tree for m candidates per pending row, recomputes
    their distances with numpy, masks them with accept(rows, cand), and
    keeps the k smallest per row by (distance, index).  A row is finished
    once its k-th distance lies below the tree's m-th distance by the
    boundary margin, since no point outside the candidates can then be
    closer.  The other rows go to the next round with 4m candidates; once
    m reaches n a full scan finishes them.  Every row must have at least k
    acceptable points.
    """
    n, dim = coords.shape
    out_idx = np.empty((rows.size, k), dtype=np.int64)
    out_dist = np.empty((rows.size, k), dtype=np.float64)
    pending = np.arange(rows.size)
    while pending.size:
        m = min(n, m)
        step = max(1, _BLOCK_ELEMENTS // (m * dim))
        unfinished = []
        for start in range(0, pending.size, step):
            pos = pending[start:start + step]
            r = rows[pos]
            if m == n:
                cand, bound = np.broadcast_to(np.arange(n), (r.size, n)), np.inf
            else:
                qd, cand = tree.query(coords[r], k=m)
                bound = qd[:, -1] * (1.0 - _BOUNDARY_MARGIN)
            # einsum reduces sequentially whatever the array shape, so these
            # distances are bitwise identical to a brute-force double loop
            diff = coords[cand] - coords[r, None, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            ok = accept(r, cand)
            dist = np.where(ok, dist, np.inf)
            idx = np.where(ok, cand, n)
            order = np.lexsort((idx, dist), axis=1)[:, :k]
            best_dist = np.take_along_axis(dist, order, axis=1)
            best_idx = np.take_along_axis(idx, order, axis=1)
            done = (m == n) | (best_dist[:, -1] < bound)
            out_idx[pos[done]] = best_idx[done]
            out_dist[pos[done]] = best_dist[done]
            unfinished.append(pos[~done])
        pending = np.concatenate(unfinished)
        m *= 4
    return out_idx, out_dist


def knn_search(cloud: PointCloud, k: int) -> NeighborLists:
    """Exact k nearest neighbors in Euclidean distance.

    Distance ties are broken by smaller index, so the output is
    deterministic and matches a brute-force scan exactly.  The search
    starts from k + 2 tree candidates, one for the point itself and one
    beyond the k-th neighbor to prove it.
    """
    n = cloud.n
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    points = cloud.points
    idx, dist = _exact_search(
        points, cKDTree(points), np.arange(n), k, k + 2,
        lambda rows, cand: cand != rows[:, None],
    )
    return NeighborLists(indices=idx, distances=dist)


def kernel_matrix(nb: NeighborLists, sigma: float) -> SparseKernelMatrix:
    """Gaussian weights exp(-dist^2 / sigma^2) on the kNN pattern.

    The matrix is symmetrized by entrywise max (one-sided edges keep the
    kernel value) and the diagonal is set to 1, the kernel at distance 0.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    n, k = nb.n, nb.k
    vals = np.exp(-((nb.distances / sigma) ** 2)).ravel()
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = nb.indices.ravel()
    W = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    W = W.maximum(W.T)
    W = W.maximum(sparse.identity(n, format="csr"))
    return SparseKernelMatrix(weights=W, sigma=float(sigma))


def markov_normalize(W: SparseKernelMatrix) -> MarkovChain:
    """Row-normalize the kernel: P_ij = W_ij / d_i, stationary pi = d / sum(d)."""
    weights = W.weights
    degrees = np.asarray(weights.sum(axis=1)).ravel()
    if np.any(degrees <= 0):
        bad = int(np.argmax(degrees <= 0))
        raise ValueError(f"vertex {bad} has non-positive degree {degrees[bad]}")
    P = sparse.csr_matrix(weights.multiply(1.0 / degrees[:, None]))
    stationary = degrees / degrees.sum()
    return MarkovChain(transitions=P, degrees=degrees, stationary=stationary)


def _symmetric_conjugate(mc: MarkovChain) -> sparse.csr_matrix:
    # S = D^{1/2} P D^{-1/2} = D^{-1/2} W D^{-1/2}; symmetrize away rounding.
    sqrt_d = np.sqrt(mc.degrees)
    S = sparse.csr_matrix(mc.transitions.multiply(sqrt_d[:, None]).multiply(1.0 / sqrt_d[None, :]))
    return (S + S.T) * 0.5


_DENSE_EIG_CUTOFF = 300


# spectrum of the symmetric conjugate lies in [-1, 1]; shifts just outside
# either end are always safely away from any eigenvalue
_SHIFT_OUTSIDE = 1.0 + 1e-6


def _sparse_eigensolve(S, num_eigs: int, tol: float, ncv: int | None):
    """Top-by-modulus eigenpairs of S via shift-invert Lanczos.

    The eigenvalues nearest a shift just above +1 are the largest algebraic
    ones.  Negative eigenvalues can only enter the top-by-modulus set when
    the bottom of the spectrum reaches below minus the smallest kept value;
    a cheap probe of the smallest eigenvalue decides whether a second
    shift-invert solve near the bottom is needed, and the two ends are then
    merged.  Falls back to direct Lanczos if the factorization fails.
    """
    n = S.shape[0]
    v0 = np.full(n, 1.0 / math.sqrt(n))
    try:
        Sc = S.tocsc()
        vals_hi, vecs_hi = splinalg.eigsh(
            Sc, k=num_eigs, sigma=_SHIFT_OUTSIDE, which="LM", v0=v0, tol=tol
        )
    except (RuntimeError, MemoryError):
        return splinalg.eigsh(S, k=num_eigs, which="LM", v0=v0, tol=tol, ncv=ncv)

    kept_min = float(np.min(np.abs(vals_hi)))
    probe_tol = 1e-3
    try:
        bottom = splinalg.eigsh(
            S, k=1, which="SA", v0=v0, tol=probe_tol, return_eigenvectors=False
        )
        # Ritz values sit inside the spectrum; widen by the residual bound
        bottom_lb = float(bottom[0]) - 10.0 * probe_tol - 1e-3
        inconclusive = bottom_lb <= -kept_min
        sigma_lo = bottom_lb - 0.05
    except splinalg.ArpackNoConvergence:
        inconclusive = True
        sigma_lo = -_SHIFT_OUTSIDE
    if not inconclusive:
        return vals_hi, vecs_hi

    vals_lo, vecs_lo = splinalg.eigsh(
        Sc, k=num_eigs, sigma=sigma_lo, which="LM", v0=v0, tol=tol
    )
    return np.concatenate([vals_hi, vals_lo]), np.hstack([vecs_hi, vecs_lo])


def spectral_decompose(
    mc: MarkovChain,
    num_eigs: int,
    tol: float = 0.0,
    ncv: int | None = None,
) -> SpectralDecomposition:
    """Top num_eigs eigenpairs of P by eigenvalue modulus.

    Solved through the symmetric conjugate D^(-1/2) W D^(-1/2): dense
    symmetric solve when n is small or nearly all eigenpairs are requested,
    otherwise shift-invert Lanczos (iteration counts stay flat as n grows
    because the factorization concentrates the spectrum ends).  Eigenvectors
    are converted to right eigenvectors of P by dividing by
    sqrt(stationary).  tol=0 means machine precision; ncv sizes the Lanczos
    basis of the direct fallback.
    """
    n = mc.n
    if not 1 <= num_eigs <= n:
        raise ValueError(f"need 1 <= num_eigs <= n, got num_eigs={num_eigs}, n={n}")
    S = _symmetric_conjugate(mc)
    if n <= _DENSE_EIG_CUTOFF or num_eigs > n - 2 or 2 * num_eigs + 2 > n:
        import scipy.linalg

        evals, evecs = scipy.linalg.eigh(S.toarray())
    else:
        try:
            evals, evecs = _sparse_eigensolve(S, num_eigs, tol, ncv)
        except splinalg.ArpackNoConvergence as exc:
            got = 0 if exc.eigenvalues is None else len(exc.eigenvalues)
            raise NumericalError(
                f"eigensolver did not converge ({got}/{num_eigs} eigenpairs found)"
            ) from exc

    # Largest modulus first; at equal modulus the positive eigenvalue wins,
    # which puts the Perron eigenvalue 1 in front.
    order = np.lexsort((-evals, -np.abs(evals)))[:num_eigs]
    evals = evals[order]
    evecs = evecs[:, order]

    if num_eigs >= 2 and abs(evals[1]) >= 1.0 - 1e-10:
        warnings.warn(
            "second eigenvalue has modulus 1: the graph appears disconnected",
            stacklevel=2,
        )

    psi = evecs / np.sqrt(mc.stationary)[:, None]
    # pi-weighted normalization: sum_i pi_i psi^2 = 1 iff the conjugate
    # eigenvector has unit 2-norm, which eigh/eigsh already guarantee.
    for col in range(psi.shape[1]):
        peak = np.argmax(np.abs(psi[:, col]))
        if psi[peak, col] < 0:
            psi[:, col] = -psi[:, col]
    return SpectralDecomposition(
        eigenvalues=evals,
        basis=np.ascontiguousarray(psi),
        stationary=mc.stationary.copy(),
    )


def truncate_small_eigenvalues(
    spec: SpectralDecomposition, min_magnitude: float = 1e-8
) -> SpectralDecomposition:
    """Drop trailing eigenpairs with |eigenvalue| below min_magnitude.

    Keeps at least the leading eigenpair.  Used by the default pipeline so
    numerically-null directions never enter the embedding.
    """
    keep = max(1, int(np.sum(np.abs(spec.eigenvalues) >= min_magnitude)))
    if keep == spec.num_eigs:
        return spec
    return SpectralDecomposition(
        eigenvalues=spec.eigenvalues[:keep],
        basis=spec.basis[:, :keep],
        stationary=spec.stationary,
    )


def default_num_neighbors(n: int) -> int:
    """Default graph connectivity: max(20, ceil(log2 n)), capped below n."""
    return min(n - 1, max(20, math.ceil(math.log2(n))))


def default_num_eigs(n: int) -> int:
    return min(n, 25)


def default_sigma(nb: NeighborLists) -> float:
    """Self-tuning kernel bandwidth: mean distance to the k-th neighbor."""
    return float(np.mean(nb.distances[:, -1]))
