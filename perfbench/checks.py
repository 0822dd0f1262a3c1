"""Output checks that recompute results without calling diffal.

Each check returns None when the output is right and a one-line reason
when it is not; the caller counts a reason as a failed operation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

# ||S v - lambda v||_2 for a unit eigenvector v of the symmetric conjugate
# S = D^(-1/2) W D^(-1/2).  Solves at machine precision land near 1e-13;
# anything above this bound is a wrong eigenpair, not rounding.
EIG_RESIDUAL_BOUND = 1e-8


def _row_distances(points: np.ndarray, i: int) -> np.ndarray:
    diff = points - points[i]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def knn_rows(points, indices, distances, rows):
    """Brute-force kNN of the sampled rows, bit-exact, ties to smaller index."""
    n, k = indices.shape
    for i in rows:
        d = _row_distances(points, int(i))
        cand = np.delete(np.arange(n), i)
        dc = np.delete(d, i)
        best = np.lexsort((cand, dc))[:k]
        if not np.array_equal(cand[best], indices[i]):
            return f"kNN row {int(i)}: indices differ from brute force"
        if not np.array_equal(dc[best], distances[i]):
            return f"kNN row {int(i)}: distances differ from brute force"
    return None


def eig_residual(indices, distances, sigma, spectrum) -> float:
    """Largest ||S v - lambda v|| over the model's retained eigenpairs.

    The kernel is rebuilt from the neighbor lists with its documented
    definition: Gaussian weights on the kNN pattern, symmetrized by
    entrywise max, unit diagonal.
    """
    n, k = indices.shape
    vals = np.exp(-((distances / sigma) ** 2)).ravel()
    W = sparse.csr_matrix(
        (vals, (np.repeat(np.arange(n), k), indices.ravel())), shape=(n, n)
    )
    W = W.maximum(W.T).maximum(sparse.identity(n, format="csr"))
    inv_sqrt = 1.0 / np.sqrt(np.asarray(W.sum(axis=1)).ravel())
    S = sparse.diags(inv_sqrt) @ W @ sparse.diags(inv_sqrt)
    V = spectrum.basis * np.sqrt(spectrum.stationary)[:, None]
    R = S @ V - V * spectrum.eigenvalues[None, :]
    return float(np.linalg.norm(R, axis=0).max())


def nearest_denser_rows(coords, p, rho, nearest, rows):
    """Quadratic nearest-strictly-denser search on the sampled rows."""
    n = p.shape[0]
    imax = int(np.lexsort((np.arange(n), -p))[0])
    idx = np.arange(n)
    for i in rows:
        i = int(i)
        d = _row_distances(coords, i)
        if i == imax:
            want_d, want_j = d.max(), i
        else:
            denser = (p > p[i]) | ((p == p[i]) & (idx < i))
            cand = idx[denser]
            best = np.lexsort((cand, d[cand]))[0]
            want_d, want_j = d[cand][best], cand[best]
        if nearest[i] != want_j or rho[i] != want_d:
            return f"nearest-denser row {i}: got ({rho[i]!r}, {int(nearest[i])}), want ({want_d!r}, {int(want_j)})"
    return None


def complete_labels(labels, num_classes: int):
    """Every point labeled with a class id in 1..num_classes."""
    labels = np.asarray(labels)
    if labels.size == 0 or labels.min() < 1 or labels.max() > num_classes:
        return f"labels outside 1..{num_classes}"
    return None


def land_queries(queried, order, budget: int):
    """LAND queries exactly the top-budget prefix of the score order."""
    if not np.array_equal(np.asarray(queried), order[:budget]):
        return f"land(budget={budget}) queried set is not the top-{budget} prefix of order"
    return None


def random_queries(queried, budget: int):
    queried = np.asarray(queried)
    if queried.size != budget or np.unique(queried).size != budget:
        return f"land_random(budget={budget}) did not query {budget} distinct points"
    return None


def results_csv(text: str, expected_rows: int):
    lines = text.splitlines()
    if lines[0] != "dataset,method,budget_or_level,seed,oa,aa,kappa":
        return "results.csv header changed"
    if len(lines) - 1 != expected_rows:
        return f"results.csv has {len(lines) - 1} rows, want {expected_rows}"
    for line in lines[1:]:
        oa, aa, kappa = (float(v) for v in line.split(",")[4:])
        if not (0.0 <= oa <= 1.0 and 0.0 <= aa <= 1.0 and kappa <= 1.0):
            return f"results.csv row out of range: {line}"
    return None


def purity_csv(text: str, levels: int):
    """Purity in (0, 1]; linkage cuts are nested, so their curves never drop."""
    lines = text.splitlines()
    if len(lines) != 1 + 3 * levels:
        return f"purity csv has {len(lines) - 1} rows, want {3 * levels}"
    curves: dict[str, list[float]] = {}
    for line in lines[1:]:
        _, value, method = line.split(",")
        curves.setdefault(method, []).append(float(value))
    for method, values in curves.items():
        if not all(0.0 < v <= 1.0 for v in values):
            return f"purity of {method} outside (0, 1]"
        if method != "lund" and any(b < a for a, b in zip(values, values[1:])):
            return f"purity of nested {method} cuts decreases"
    return None
