import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import diffal as da

# Child processes (`python -m diffal.cli`) do not see pytest's `pythonpath`
# setting, so export the checkout's src to them.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(autouse=True)
def _quiet_connectivity_warnings():
    # well-separated synthetic clusters routinely disconnect the kNN graph,
    # which is expected in most tests here
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*appears disconnected.*")
        warnings.filterwarnings("ignore", message=".*maximizer is unseeded.*")
        yield


def build_graph_pieces(points, k, num_eigs=None):
    """knn -> kernel -> spectrum for raw coordinates."""
    cloud = da.PointCloud(np.asarray(points, dtype=float))
    nb = da.knn_search(cloud, k)
    W = da.kernel_matrix(nb, da.default_sigma(nb))
    spec = da.spectral_decompose(W, num_eigs if num_eigs is not None else cloud.n)
    return cloud, nb, W, spec


def brute_force_knn(points, k):
    """Independent double-loop kNN with the (distance, index) tie rule."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        cand = np.array([j for j in range(n) if j != i])
        diff = points[cand] - points[i]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = np.lexsort((cand, d))[:k]
        indices[i] = cand[order]
        distances[i] = d[order]
    return indices, distances


def brute_force_nearest_denser(coords, p):
    """Independent quadratic evaluation of the nearest-denser-point rule."""
    coords = np.asarray(coords, dtype=float)
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    rho = np.empty(n)
    nearest = np.empty(n, dtype=np.int64)
    imax = int(np.lexsort((np.arange(n), -p))[0])
    for i in range(n):
        diff = coords - coords[i]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if i == imax:
            rho[i] = d.max()
            nearest[i] = i
            continue
        cand = np.array(
            [j for j in range(n) if p[j] > p[i] or (p[j] == p[i] and j < i)]
        )
        dd = d[cand]
        best = np.lexsort((cand, dd))[0]
        rho[i] = dd[best]
        nearest[i] = cand[best]
    return rho, nearest
