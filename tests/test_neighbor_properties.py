"""Property tests: the exact neighbor searches equal brute force bit for bit
on tie-heavy, duplicate-heavy integer grids."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import diffal as da
from diffal.geometry import nearest_denser_points

from conftest import brute_force_knn, brute_force_nearest_denser

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def grid_clouds(draw):
    """Points on a small integer grid, plus extra copies of the first point
    (sometimes more than k of them, which no kd-tree round can resolve)."""
    dim = draw(st.integers(1, 3))
    base = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
        min_size=2, max_size=30,
    ))
    copies = draw(st.integers(0, 12))
    points = np.array(base + [base[0]] * copies, dtype=float)
    k = draw(st.integers(1, points.shape[0] - 1))
    return points, k


@SETTINGS
@given(grid_clouds())
def test_knn_search_equals_brute_force(cloud_and_k):
    points, k = cloud_and_k
    nb = da.knn_search(da.PointCloud(points), k)
    indices, distances = brute_force_knn(points, k)
    assert np.array_equal(nb.indices, indices)
    assert np.array_equal(nb.distances, distances)


@SETTINGS
@given(grid_clouds(), st.data())
def test_nearest_denser_points_equals_brute_force(cloud_and_k, data):
    points, _ = cloud_and_k
    n = points.shape[0]
    levels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    p = np.array(levels, dtype=float)  # few levels, so many density ties
    emb = da.DiffusionEmbedding(coords=points, t=1.0)
    dens = da.DensityEstimate(p=p, k_density=1, sigma0=1.0)
    rho, nearest = nearest_denser_points(emb, dens)
    exp_rho, exp_nearest = brute_force_nearest_denser(points, p)
    assert np.array_equal(rho, exp_rho)
    assert np.array_equal(nearest, exp_nearest)
