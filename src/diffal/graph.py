"""kNN kernel graph and truncated spectral decomposition of its diffusion.

The graph is built in three steps: exact k-nearest-neighbor lists, a sparse
Gaussian kernel matrix W symmetrized by entrywise max, and the top
eigenpairs of the symmetric conjugate D^(-1/2) W D^(-1/2), with D the
degrees, converted to right eigenvectors of the diffusion P = D^(-1) W.

The eigensolver is chosen from the graph's shape, with no knob: a dense solve
for small n; shift-invert Lanczos where the kNN graph grows like a plane
(two-hop growth of the sparsity pattern at most 4), because only there its
sparse LU stays sparse; plain Lanczos everywhere else, as on hyperspectral
clouds in hundreds of dimensions, and where a bottom probe cannot prove the
shift-invert pairs the top ones by modulus.  Shift-invert runs on one
symmetric-mode LU with diagonal pivots, an LDL^T factor, and a second such
factor counts the eigenvalues above the smallest returned one by Sylvester's
law of inertia: pairs the Lanczos run missed, such as copies of 1 on
numerically separate components, are recovered with the found ones projected
out, and a gap that recovery cannot close raises NumericalError.  Plain
Lanczos has no such count.  Every returned eigenpair is checked by its
residual, and a wrong one raises NumericalError.

Both exact neighbor searches, kNN here and the nearest-denser search in
geometry, run on one engine, _exact_search.  A candidate generator proposes
candidates and a lower bound on the distance of every other point; the
engine recomputes every reported distance with plain numpy arithmetic, and
widens the candidate set fourfold per round (up to a full scan) for the rows
it cannot yet prove complete.  There are two generators: a kd-tree with
sliding-midpoint splits (Maneewongvatana and Mount, 1999), and blocked GEMM
over the squared-norm expansion, whose bound subtracts an error term derived
from the point norms.  One rule, _proposer_for, picks between them from a
width: GEMM above _TREE_MAX_DIM, the tree at or below.  kNN passes the data
dimension; the nearest-denser search passes the smaller of the data
dimension and the number of embedding columns that carry weight.  Results,
including tie-breaking by smaller index at equal distance, are bitwise
identical to a brute-force double loop whichever generator proposes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from scipy.spatial import cKDTree

from .dataset import PointCloud, _check_count, _check_positive

# Rows per block of a neighbor search are chosen so the (rows, candidates,
# dimension) difference array holds about this many elements (32 MiB).
_BLOCK_ELEMENTS = 2**22


class NumericalError(ValueError):
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

    @property
    def n(self) -> int:
        return self.weights.shape[0]


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


def _exact_search(coords, propose, rows, k, m, accept):
    """The k accepted points nearest each of coords[rows], as (indices, distances).

    Each round asks propose(r, m) for m candidates per pending row and a
    per-row bound below the distance of every point outside them, recomputes
    the candidates' distances with numpy, masks them with accept(rows, cand),
    and keeps the k smallest per row by (distance, index).  A row is
    finished once its k-th distance lies below its bound, since no point
    outside the candidates can then be closer.  The other rows go to the
    next round with 4m candidates; once m reaches n a full scan finishes
    them.  Every row must have at least k acceptable points.
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
                cand, bound = propose(r, m)
            # einsum reduces sequentially whatever the array shape, so these
            # distances are bitwise identical to a brute-force double loop
            diff = coords[cand]
            diff -= coords[r, None, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            del diff  # the largest array of a block; free it before the next
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


def _tree_proposer(coords):
    """Candidates from a kd-tree: the m nearest by the tree's distances.

    The tree splits each cell at the midpoint of its widest side, slid to
    the nearest point when one side would be empty (balanced_tree=False).
    The bound is the m-th of the tree's distances, t_m, times (1 - margin),
    so it lies below the numpy distance of every point outside the
    candidates.  With u = eps/2 the unit roundoff, D = dim, and h the number
    of splits on a path from the root to a leaf:
      - numpy and the tree each sum D rounded squares of rounded
        differences, within (D + 2) u of the exact squared distance (Higham,
        Accuracy and Stability of Numerical Algorithms, section 3.1); the
        square root halves that and rounds once, so each distance is within
        (D + 4) u / 2 of the exact one, and the two within (D + 4) u of each
        other.  A point the tree measured and did not keep is at least t_m
        away by the tree's arithmetic, so at least t_m (1 - (D + 4) u) by
        numpy's;
      - the tree skips a cell whose squared distance to the query, as the
        tree computes it, exceeds its current m-th squared distance, which
        is at least t_m^2.  It builds that cell distance from D side terms
        at the root and at most one update per split on the way down, each
        term a rounded square of a rounded difference: at most D + h
        roundings of a running sum of non-negative terms plus 3 u, so within
        (D + h + 4) u of the exact cell distance, itself at most the exact
        squared distance of every point in the cell.  Such a point is then
        at least t_m (1 - (D + h + 4) u / 2) away exactly, and at least
        t_m (1 - (2D + h + 8) u / 2) by numpy's arithmetic;
      - the product that forms the bound rounds once more: u.
    That is (2D + h + 10) u / 2 at most; margin = (D + h + 8) eps, twice
    that and more, leaves room for the second-order terms.  h is bounded by
    the tree's internal nodes, (size - 1) / 2: about 900 for 10 000 points
    in the plane, where the deepest leaf lies 14 splits down, so the margin
    is about 2e-13 there.
    """
    tree = cKDTree(coords, balanced_tree=False)
    splits = (tree.size - 1) // 2
    shrink = 1.0 - (coords.shape[1] + splits + 8) * np.finfo(np.float64).eps

    def propose(r, m):
        qd, cand = tree.query(coords[r], k=m)
        return cand, qd[:, -1] * shrink

    return propose


def _gemm_proposer(coords):
    """Candidates from blocked GEMM: the m smallest squared distances
    |x|^2 + |y|^2 - 2 x.y of the centred points, one matrix product per block.

    The bound is the (m+1)-th smallest such value less an error term, so it
    lies below the numpy distance of every point outside the candidates.
    With u = eps/2 the unit roundoff, D = dim, x and y centred, and
    s = |x| + max|y| (so |x - y| <= s):
      - the doubled dot product is off by at most 2 D u |x||y|, and the
        squared norms by D u |x|^2 and D u |y|^2: D u s^2 together;
      - the two additions round once each: 2 u s^2;
      - centring moves each coordinate of x - y by at most u (|x_i| + |y_i|),
        so the squared distance moves by at most 2 u s^2;
      - the numpy recompute of the squared distance it is compared with
        differs from the exact one by at most (D + 2) u s^2 (D rounded
        squares of rounded differences, D - 1 additions), and the bound's
        subtraction rounds once more: u s^2.
    That is (2D + 7) u s^2; gamma = (D + 4) eps = (2D + 8) u leaves one u
    for the second-order terms.  Blocks of rows are sized so that the
    (rows, n) distance block and the index array argpartition returns for
    it, 16 rows n bytes together, take a quarter of _BLOCK_ELEMENTS' 32 MiB:
    8 MiB.  With blocks of 64 MiB (rows n = _BLOCK_ELEMENTS), the GEMM
    nearest-denser search of a 2 704-point cube at t = 1 raised the
    benchmark's peak RSS from 141 to 185 MB; with 16 MiB it read 152 MB,
    with 8 MiB 140 MB, and the kNN search took as long.
    """
    n, dim = coords.shape
    centred = coords - coords.mean(axis=0)
    sq = np.einsum("ij,ij->i", centred, centred)
    norms = np.sqrt(sq)
    gamma = (dim + 4) * np.finfo(np.float64).eps
    reach = norms.max()
    step = max(1, _BLOCK_ELEMENTS // (8 * n))

    def propose(r, m):
        cand = np.empty((r.size, m), dtype=np.int64)
        bound = np.empty(r.size)
        for start in range(0, r.size, step):
            b = r[start:start + step]
            d2 = centred[b] @ centred.T
            d2 *= -2.0
            d2 += sq
            d2 += sq[b, None]
            part = np.argpartition(d2, m, axis=1)
            cand[start:start + step] = part[:, :m]
            beyond = np.take_along_axis(d2, part[:, m:m + 1], axis=1)[:, 0]
            lower = beyond - gamma * (norms[b] + reach) ** 2
            bound[start:start + step] = np.sqrt(np.maximum(lower, 0.0))
        return cand, bound

    return propose


def _proposer_for(width):
    """The candidate generator for points that spread over about width
    dimensions: blocked GEMM above _TREE_MAX_DIM, the kd-tree at or below."""
    return _gemm_proposer if width > _TREE_MAX_DIM else _tree_proposer


def knn_search(cloud: PointCloud, k: int) -> NeighborLists:
    """Exact k nearest neighbors in Euclidean distance.

    Distance ties are broken by smaller index, so the output is
    deterministic and matches a brute-force scan exactly.  Candidates come
    from a kd-tree up to _TREE_MAX_DIM dimensions and from blocked GEMM
    above it, where the tree prunes little.  The search starts from k + 2
    candidates, one for the point itself and one beyond the k-th neighbor
    to prove it.
    """
    n = cloud.n
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    points = cloud.points
    idx, dist = _exact_search(
        points, _proposer_for(cloud.dim)(points), np.arange(n), k, k + 2,
        lambda rows, cand: cand != rows[:, None],
    )
    return NeighborLists(indices=idx, distances=dist)


def kernel_matrix(nb: NeighborLists, sigma: float) -> SparseKernelMatrix:
    """Gaussian weights exp(-dist^2 / sigma^2) on the kNN pattern.

    The matrix is symmetrized by entrywise max (one-sided edges keep the
    kernel value) and the diagonal is set to 1, the kernel at distance 0.
    """
    _check_positive("sigma", sigma)
    n, k = nb.n, nb.k
    vals = np.exp(-((nb.distances / sigma) ** 2)).ravel()
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = nb.indices.ravel()
    W = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    W = W.maximum(W.T)
    W = W.maximum(sparse.identity(n, format="csr"))
    return SparseKernelMatrix(weights=W)


def _symmetric_conjugate(W: SparseKernelMatrix) -> tuple[sparse.csr_matrix, np.ndarray]:
    """(S, d): S = D^(1/2) P D^(-1/2) = D^(-1/2) W D^(-1/2) for the degrees d,
    formed in that order, with its transpose averaged in against rounding."""
    weights = W.weights
    degrees = np.asarray(weights.sum(axis=1)).ravel()
    if np.any(degrees <= 0):
        bad = int(np.argmax(degrees <= 0))
        raise ValueError(f"vertex {bad} has non-positive degree {degrees[bad]}")
    sqrt_d = np.sqrt(degrees)
    P = weights.multiply(1.0 / degrees[:, None])
    S = sparse.csr_matrix(P.multiply(sqrt_d[:, None]).multiply(1.0 / sqrt_d[None, :]))
    return (S + S.T) * 0.5, degrees


_DENSE_EIG_CUTOFF = 300

# Two-hop growth of the kernel's sparsity pattern at or below which the graph
# grows like a plane: doubling the hop radius at most quadruples the ball.
# Only there does the sparse LU behind shift-invert stay sparse; on graphs
# that grow faster it fills in to a nearly dense matrix and plain Lanczos wins.
_PLANAR_GROWTH = 4.0

# Width at or below which _proposer_for takes candidates from a kd-tree;
# above it, from blocked GEMM.  The tree prunes well in few dimensions and
# almost nothing in many, while the cost of GEMM grows slowly with dimension.
# kNN passes the data dimension.  Seconds per k = 20 search on Gaussian
# clouds, best of 3, BLAS on one thread; the kd-tree is _tree_proposer's, and
# a median-split tree (cKDTree's default build) came within 10 % of it at
# every size:
#
#   n x dim        kd-tree   GEMM
#   9 000 x 2       0.07     0.94
#   5 000 x 5       0.09     0.25
#   5 000 x 8       0.25     0.23
#   20 000 x 8      1.81     3.78
#   5 000 x 10      0.43     0.29
#   20 000 x 10     5.11     3.91
#   5 000 x 25      0.91     0.27
#   5 000 x 200     4.74     0.56
#
# The nearest-denser search passes min(data dimension, (sum w^2)^2 / sum w^4)
# over the non-Perron column weights w = |lambda|^t: lambda^t shrinks most
# columns of the diffusion embedding, and the tree prunes well on the rest.
# Milliseconds per search, kd-tree/GEMM, with that width in brackets, at
# auto-t grid times on the benchmark's sets (seed 3, best of 3, one BLAS
# thread); the two outputs were bit-identical in every cell:
#
#   set, n x dim           t = 1             10^0.5          10^1          10^3
#   cube, 2 704 x 200      131/64 [15.3]     31/63 [3.6]     16/72 [1.7]   28/195 [1.0]
#   blobs, 9 000 x 2       104/882 [2]       76/815 [2]      80/804 [2]    70/691 [2]
#   geometric, 1 500 x 2    18/37 [2]        18/39 [2]       17/37 [2]      9/75 [2]
#   bottleneck, 1 460 x 2   17/20 [2]        16/19 [2]       15/19 [2]      7/18 [2]
#
# The data dimension bounds the width: the blobs keep 24 columns near full
# weight at t = 1, yet GEMM is 8 times slower there, and at t = 10^5-10^6 it
# took 9.7-25.6 s against the tree's 0.06-0.13 s.  On the tree the
# sliding-midpoint split pays: the 13-time auto-t scan of 9 000 2-D blobs
# took 1.33 s against 5.83 s with median splits and the old start of
# max(8, 2 ceil(log2 n) + 2) candidates (geometric and bottleneck: 0.15 and
# 0.12 s against 0.32 and 0.30 s).
_TREE_MAX_DIM = 8

# evenly spaced rows sampled to measure the two-hop growth
_GROWTH_ROWS = 64

# Largest ||S v - lambda v|| accepted for a returned unit eigenvector.  Every
# path solves to machine precision (residuals near 1e-13), so a pair above
# this bound is wrong, not rounded.
_EIG_RESIDUAL_BOUND = 1e-8

# Part of the spectrum cache key: bump it whenever a solver change can alter
# the returned eigenpairs, so spectra cached by the old solver are recomputed.
EIGENSOLVER_VERSION = 4


# spectrum of the symmetric conjugate lies in [-1, 1]; a shift just above its
# top end is always safely away from any eigenvalue
_SHIFT_OUTSIDE = 1.0 + 1e-6

# Least distance between the inertia count's point mu and the smallest
# shift-invert eigenvalue, far above the residuals the solver reaches (1e-15
# to 1e-13), so rounding in the count's factor cannot miscount that value.
_COUNT_GAP = 1e-10

# Recovery rounds allowed, and the seed of the random start vectors of
# every shift-invert Lanczos run.
_RECOVERY_ROUNDS = 3
_START_SEED = 0


def _two_hop_growth(S) -> float:
    """nnz(B[rows] @ B) / nnz(B[rows]) for the 0/1 pattern B of S.

    rows are _GROWTH_ROWS evenly spaced rows, and B keeps the unit diagonal,
    so this is the mean size of a radius-2 ball over that of a radius-1 ball:
    about 4 or less on a planar kNN graph, and far more in high dimension.
    """
    n = S.shape[0]
    B = sparse.csr_matrix((np.ones_like(S.data), S.indices, S.indptr), shape=S.shape)
    head = B[np.linspace(0, n - 1, _GROWTH_ROWS).astype(np.int64)]
    return (head @ B).nnz / head.nnz


def _symmetric_factor(S, shift):
    """Sparse LU of S - shift I with every pivot on the diagonal.

    SuperLU's symmetric mode orders rows and columns alike by minimum degree
    on the pattern of A^T + A, and diag_pivot_thresh=0 takes the diagonal
    pivot whenever it is nonzero.  The factor is then LDL^T written as LU
    (U = D L^T), about half as full as a partial-pivoting LU.  A pivot left
    the diagonal only where perm_r differs from perm_c.
    """
    shifted = S - shift * sparse.identity(S.shape[0], format="csr")
    return splinalg.splu(
        shifted.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
        options={"SymmetricMode": True},
    )


def _count_above(S, mu):
    """Number of eigenvalues of S above mu, or None when it cannot be read.

    With every pivot on the diagonal, the factor is S - mu I = Q^T L D L^T Q
    for one permutation Q, a congruence, so by Sylvester's law of inertia
    S - mu I has as many positive eigenvalues as D, U's diagonal, has
    positive entries.  That is the spectrum-slicing count of shift-invert
    Lanczos (Ericsson and Ruhe, 1980; Grimes, Lewis and Simon, 1994).  When
    a pivot left the diagonal the factor is no congruence, and the result
    is None.
    """
    lu = _symmetric_factor(S, mu)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() > 0))


def _max_residual(S, vals, vecs) -> float:
    """Largest ||S v - lambda v|| over the pairs; unit v, so it bounds
    each lambda's distance to the spectrum."""
    return float(np.linalg.norm(S @ vecs - vecs * vals, axis=0).max())


def _shift_invert(S, solve, k, v0):
    """k eigenpairs of S nearest _SHIFT_OUTSIDE, solve applying (S - shift I)^-1."""
    inverse = splinalg.LinearOperator(S.shape, matvec=solve, dtype=np.float64)
    return splinalg.eigsh(
        S, k=k, sigma=_SHIFT_OUTSIDE, OPinv=inverse, which="LM", v0=v0
    )


def _projector(V):
    """x -> (I - V V^T) x for orthonormal columns V."""
    return lambda x: x - V @ (V.T @ x)


def _recover(S, solve, vals, vecs, mu, count, rng):
    """Complete the pairs above mu to count of them, or raise NumericalError.

    Each round runs shift-invert Lanczos on the same factor with the found
    vectors V projected out of the operator, P solve P with P = I - V V^T,
    for the count - len(vals) pairs still missing.  It starts from a fresh
    random vector of rng, projected: in exact arithmetic a missed copy of a
    repeated eigenvalue is orthogonal to the start of the run that missed
    it, which finds such copies only through rounding.  Pairs found above mu
    join the set; once the set holds count of them it is complete, since
    the count proves that no other eigenvalue lies above mu.
    """
    for _ in range(_RECOVERY_ROUNDS):
        project = _projector(vecs)
        start = project(rng.standard_normal(S.shape[0]))
        new_vals, new_vecs = _shift_invert(
            S, lambda x: project(solve(project(x))), count - vals.size, start
        )
        above = new_vals > mu
        vals = np.concatenate([vals, new_vals[above]])
        vecs = np.hstack([vecs, new_vecs[:, above]])
        if vals.size == count:
            return vals, vecs
    raise NumericalError(
        f"shift-invert found {vals.size} of the {count} eigenvalues above "
        f"{mu:.17g} after {_RECOVERY_ROUNDS} recovery rounds"
    )


def _sparse_eigensolve(S, num_eigs: int, v0: np.ndarray):
    """Top-by-modulus eigenpairs of S via shift-invert Lanczos, or None.

    Used on planar-like graphs only, where the sparse LU of S - sigma I stays
    sparse.  S - sigma I is negative definite for the shift sigma just above
    +1, so one symmetric-mode factor with diagonal pivots is stable; its
    solve is the Lanczos operator.  The eigenvalues nearest the shift are
    the largest algebraic ones; they are the top by modulus unless the
    bottom of the spectrum reaches below minus the smallest kept value.  A
    cheap probe of the smallest eigenvalue, started from v0, must prove that
    it does not.

    The Lanczos run starts from a seeded random vector, not from v0.
    Single-vector Lanczos finds the copies of a repeated eigenvalue only
    through rounding, and the random start found more of them: on one
    Gaussian of 10 000 points (seed 0) all 7 copies of 1 against 6 from v0,
    and at 20 000 points (seeds 0-3) 16, 7, 13 and 10 of 16, 8, 13 and 10
    against 12, 7, 12 and 10.  So the recovery below runs less often.

    The returned pairs are then proved complete.  An inertia count at mu,
    below the smallest returned eigenvalue by more than twice the largest
    residual (at least _COUNT_GAP), gives the number of eigenvalues above
    mu.  Fewer than returned is a NumericalError; more starts the recovery,
    which adds the missing pairs above mu or raises NumericalError.  The
    result may then hold more than num_eigs pairs, every eigenpair above mu.

    When the probe cannot prove its case, or a factorization, the first
    solve or the probe fails, or a pivot of the count's factor leaves the
    diagonal, the result is None, and the caller runs its plain Lanczos call
    for the top pairs by modulus instead.
    """
    probe_tol = 1e-3
    rng = np.random.default_rng(_START_SEED)
    try:
        lu = _symmetric_factor(S, _SHIFT_OUTSIDE)
        vals, vecs = _shift_invert(S, lu.solve, num_eigs, rng.standard_normal(S.shape[0]))
        bottom = splinalg.eigsh(
            S, k=1, which="SA", v0=v0, tol=probe_tol, return_eigenvectors=False
        )
        # Ritz values sit inside the spectrum; widen by the residual bound
        if float(bottom[0]) - 10.0 * probe_tol - 1e-3 <= -float(np.min(np.abs(vals))):
            return None
        mu = float(vals.min()) - max(2.0 * _max_residual(S, vals, vecs), _COUNT_GAP)
        count = _count_above(S, mu)
    except (RuntimeError, MemoryError):  # ArpackNoConvergence is a RuntimeError
        return None
    if count is None:
        return None
    if count < vals.size:
        raise NumericalError(
            f"inertia count of {count} eigenvalues above {mu:.17g} is below "
            f"the {vals.size} shift-invert returned"
        )
    if count > vals.size:
        vals, vecs = _recover(S, lu.solve, vals, vecs, mu, count, rng)
    return vals, vecs


def spectral_decompose(W: SparseKernelMatrix, num_eigs: int) -> SpectralDecomposition:
    """Top num_eigs eigenpairs of the diffusion P = D^(-1) W by eigenvalue modulus.

    Solved through the symmetric conjugate S = D^(-1/2) W D^(-1/2), with D
    the degrees; a vertex of non-positive degree is a ValueError.  The
    dense symmetric solver runs when n is small or nearly all eigenpairs are
    requested.  Otherwise the two-hop growth of S's pattern picks the sparse
    solver: on a planar-like graph (growth at most 4) shift-invert Lanczos,
    whose factorization keeps iteration counts flat as n grows, with plain
    Lanczos as its one fallback; on any other graph one plain Lanczos call
    for the top pairs by modulus, negative ones included.  Every path solves
    to machine precision, and the returned pairs are checked: a residual
    ||S v - lambda v|| above 1e-8 raises NumericalError.  Eigenvectors are
    converted to right eigenvectors of P by dividing by sqrt(d / sum(d)).

    Completeness is proved on the dense path, where every pair is computed,
    and on the shift-invert path, where an inertia count of the eigenvalues
    above the smallest returned one must match the pairs found, missing
    pairs are recovered, and a gap no recovery closes raises NumericalError
    (see _sparse_eigensolve).  The plain-Lanczos path carries no such proof:
    there the LDL^T factor that the count needs fills in to a nearly dense
    matrix, so a copy of a repeated eigenvalue that single-vector Lanczos
    misses goes unnoticed, and the next eigenpair takes its place.
    """
    n = W.n
    _check_count("num_eigs", num_eigs, n)
    S, degrees = _symmetric_conjugate(W)
    if n <= _DENSE_EIG_CUTOFF or 2 * num_eigs + 2 > n:
        evals, evecs = scipy.linalg.eigh(S.toarray())
    else:
        v0 = np.full(n, 1.0 / math.sqrt(n))
        try:
            planar = _two_hop_growth(S) <= _PLANAR_GROWTH
            pairs = _sparse_eigensolve(S, num_eigs, v0) if planar else None
            evals, evecs = pairs or splinalg.eigsh(S, k=num_eigs, which="LM", v0=v0)
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
    residual = _max_residual(S, evals, evecs)
    if not residual <= _EIG_RESIDUAL_BOUND:
        raise NumericalError(
            f"eigenpair residual {residual:.3g} exceeds {_EIG_RESIDUAL_BOUND:g}"
        )

    if num_eigs >= 2 and abs(evals[1]) >= 1.0 - 1e-10:
        warnings.warn(
            "second eigenvalue has modulus 1: the graph appears disconnected",
            stacklevel=2,
        )

    stationary = degrees / degrees.sum()
    psi = evecs / np.sqrt(stationary)[:, None]
    # pi-weighted normalization: sum_i pi_i psi^2 = 1 iff the conjugate
    # eigenvector has unit 2-norm, which eigh/eigsh already guarantee.
    for col in range(psi.shape[1]):
        peak = np.argmax(np.abs(psi[:, col]))
        if psi[peak, col] < 0:
            psi[:, col] = -psi[:, col]
    return SpectralDecomposition(
        eigenvalues=evals,
        basis=np.ascontiguousarray(psi),
        stationary=stationary,
    )


def truncate_small_eigenvalues(spec: SpectralDecomposition) -> SpectralDecomposition:
    """Drop trailing eigenpairs with |eigenvalue| below 1e-8, the pipeline's
    floor: below it an eigenpair carries no usable geometry at any positive
    t.  Keeps at least the leading eigenpair."""
    keep = max(1, int(np.sum(np.abs(spec.eigenvalues) >= 1e-8)))
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
