"""Test-only references that several test modules compare the library against."""

import numpy as np
import scipy.sparse as sparse


def reference_cuts(dend, levels):
    """Independent cut oracle: replay each merge prefix with Python sets and
    number the clusters 1..L by their smallest member."""
    n = dend.n_leaves
    out = []
    for ell in levels:
        clusters = {i: {i} for i in range(n)}
        for s in range(n - ell):
            a, b = int(dend.children_a[s]), int(dend.children_b[s])
            clusters[n + s] = clusters.pop(a) | clusters.pop(b)
        labels = np.zeros(n, dtype=np.int64)
        for rank, members in enumerate(sorted(clusters.values(), key=min), start=1):
            labels[list(members)] = rank
        out.append(labels)
    return out


def pairwise_distances(coords):
    """Dense n x n Euclidean distances between the rows of coords.  Each
    difference is reduced in one order, so the matrix is exactly symmetric
    with an exactly zero diagonal."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def transition_matrix(W):
    """(P, stationary) of a kernel matrix: the paper's diffusion
    P = D^(-1) W as CSR, and pi = d / sum(d) for the degrees d."""
    degrees = np.asarray(W.weights.sum(axis=1)).ravel()
    P = sparse.csr_matrix(W.weights.multiply(1.0 / degrees[:, None]))
    return P, degrees / degrees.sum()
