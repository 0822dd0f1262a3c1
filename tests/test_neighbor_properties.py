"""Property tests: the exact neighbor searches equal brute force bit for bit
on tie-heavy, duplicate-heavy integer grids."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffal as da
from diffal import graph
from diffal.geometry import nearest_denser_points
from diffal.graph import _TREE_MAX_DIM

from conftest import brute_force_knn, brute_force_nearest_denser

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def grid_clouds(draw, min_dim=1, max_dim=3):
    """Points on a small integer grid, plus extra copies of the first point
    (sometimes more than k of them, which no kd-tree round can resolve)."""
    dim = draw(st.integers(min_dim, max_dim))
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


def _assert_nearest_denser_is_brute_force(points, p):
    emb = da.DiffusionEmbedding(coords=points, t=1.0)
    dens = da.DensityEstimate(p=p)
    rho, nearest = nearest_denser_points(emb, dens)
    exp_rho, exp_nearest = brute_force_nearest_denser(points, p)
    assert np.array_equal(rho, exp_rho)
    assert np.array_equal(nearest, exp_nearest)


@SETTINGS
@given(grid_clouds(), st.data())
def test_nearest_denser_points_equals_brute_force(cloud_and_k, data):
    points, _ = cloud_and_k
    n = points.shape[0]
    levels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    _assert_nearest_denser_is_brute_force(points, np.array(levels, dtype=float))


@SETTINGS
@given(grid_clouds(min_dim=2, max_dim=40), st.data())
def test_nearest_denser_points_in_many_columns_equals_brute_force(cloud_and_k, data):
    # at most 42 points and few density levels: rows that 8 candidates
    # cannot prove go on to 32 and then to a full scan
    points, _ = cloud_and_k
    n = points.shape[0]
    levels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    _assert_nearest_denser_is_brute_force(points, np.array(levels, dtype=float))


def test_a_dense_local_maximum_widens_past_the_second_round(monkeypatch):
    # point 0 is denser than the 40 points around it and sparser than the
    # 159 of a far cluster: its first two rounds (8 and 32 candidates) hold
    # no denser point, and its third (128) must pass the bound test
    rng = np.random.default_rng(3)
    angle = rng.uniform(0, 2 * np.pi, 40)
    ring = rng.uniform(0.2, 1.0, size=(40, 1)) * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    far = np.array([10.0, 0.0]) + rng.normal(size=(159, 2))
    points = np.vstack([[[0.0, 0.0]], ring, far])
    p = np.concatenate([[2.0], np.ones(40), 3.0 + rng.uniform(size=159)])
    rounds = []
    real = graph._tree_proposer

    def spy(coords):
        propose = real(coords)

        def counted(r, m):
            rounds.append((m, r.tolist()))
            return propose(r, m)

        return counted

    monkeypatch.setattr(graph, "_tree_proposer", spy)
    _assert_nearest_denser_is_brute_force(points, p)
    assert [m for m, _ in rounds] == [8, 32, 128]
    assert 0 in rounds[2][1]


@pytest.mark.parametrize("spread", [1e-13, 1e-16])
@pytest.mark.parametrize("dim", [2, 5, 25])
def test_distances_that_agree_to_a_spread_equal_brute_force(dim, spread):
    # 300 points on a sphere about the origin with radii 1 + U(0, spread):
    # seen from the origin, the least dense point, all 300 distances agree
    # to the spread, so the tree's rounds turn on the boundary margin.  At
    # 1e-16 the tree's rounding and numpy's order points differently, and a
    # zero margin returns a wrong neighbor at dim 5.
    rng = np.random.default_rng(0)
    sphere = rng.normal(size=(300, dim))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    sphere *= 1.0 + spread * rng.uniform(size=(300, 1))
    points = np.vstack([np.zeros((1, dim)), sphere])
    _assert_knn_is_brute_force(points, 7)
    p = np.concatenate([[0.0], rng.integers(1, 4, size=300)]).astype(float)
    _assert_nearest_denser_is_brute_force(points, p)


# --- the GEMM candidate generator, used above the kd-tree's dimension limit ---

@st.composite
def padded_grid_clouds(draw):
    """grid_clouds zero-padded to more than _TREE_MAX_DIM columns, so that
    knn_search takes its candidates from GEMM."""
    points, k = draw(grid_clouds())
    width = draw(st.integers(_TREE_MAX_DIM + 1, _TREE_MAX_DIM + 12))
    padded = np.zeros((points.shape[0], width))
    padded[:, :points.shape[1]] = points
    return padded, k


def _assert_knn_is_brute_force(points, k):
    nb = da.knn_search(da.PointCloud(points), k)
    indices, distances = brute_force_knn(points, k)
    assert np.array_equal(nb.indices, indices)
    assert np.array_equal(nb.distances, distances)


@SETTINGS
@given(padded_grid_clouds())
def test_gemm_knn_equals_brute_force(cloud_and_k):
    _assert_knn_is_brute_force(*cloud_and_k)


@SETTINGS
@given(padded_grid_clouds(), st.data())
def test_gemm_knn_equals_brute_force_far_from_origin(cloud_and_k, data):
    # +1e8 on every coordinate of a drawn subset (possibly all) of the
    # points: centring cannot remove it, so the squared-norm expansion
    # cancels badly and its error term must force wider rounds
    points, k = cloud_and_k
    n = points.shape[0]
    far = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    _assert_knn_is_brute_force(points + 1e8 * np.array(far)[:, None], k)


@pytest.mark.parametrize("k", [1, 5, 11])
def test_gemm_knn_on_two_distant_lattices(k):
    # {0..3}^3 and a copy 1e8 away on every axis: squared distances that
    # differ by 1 come out of the expansion with errors far larger than
    # that, so only the derived error term keeps the search exact
    lattice = np.array(np.meshgrid(*[np.arange(4.0)] * 3)).reshape(3, -1).T
    points = np.zeros((128, _TREE_MAX_DIM + 1))
    points[:64, :3] = lattice
    points[64:] = 1e8
    points[64:, :3] += lattice
    _assert_knn_is_brute_force(points, k)


@pytest.fixture()
def trees_built(monkeypatch):
    """Shapes of the point sets of every kd-tree built while the test runs."""
    built = []
    real = graph.cKDTree

    def spy(data, *args, **kwargs):
        built.append(np.shape(data))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(graph, "cKDTree", spy)
    return built


def test_planar_knn_searches_the_kd_tree(trees_built):
    points = np.random.default_rng(5).normal(size=(300, 2))
    _assert_knn_is_brute_force(points, 7)
    assert trees_built == [(300, 2)]


@pytest.mark.parametrize("dim", [_TREE_MAX_DIM + 1, 200])
def test_high_dimensional_knn_builds_no_kd_tree(trees_built, dim):
    points = np.random.default_rng(6).normal(size=(300, dim))
    _assert_knn_is_brute_force(points, 7)
    assert trees_built == []


@SETTINGS
@given(grid_clouds(min_dim=1, max_dim=12), st.data())
def test_tree_and_gemm_nearest_denser_points_equal_brute_force(cloud_and_k, data):
    # ties and duplicates from the grid; +1e8 on every coordinate of a drawn
    # subset of the points makes GEMM's squared-norm expansion cancel badly
    points, _ = cloud_and_k
    n = points.shape[0]
    far = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    points = points + 1e8 * np.array(far)[:, None]
    p = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=float)
    exp_rho, exp_nearest = brute_force_nearest_denser(points, p)
    emb = da.DiffusionEmbedding(coords=points, t=1.0)
    for width in (1, _TREE_MAX_DIM + 1):  # the kd-tree, then GEMM
        rho, nearest = nearest_denser_points(emb, da.DensityEstimate(p=p), width)
        assert np.array_equal(rho, exp_rho)
        assert np.array_equal(nearest, exp_nearest)


def _model_with(dim, eigenvalues):
    """The model of 300 Gaussian points in dim dimensions, with its leading
    eigenvectors given the eigenvalues 1 and then eigenvalues."""
    cloud = da.PointCloud(np.random.default_rng(7).normal(size=(300, dim)))
    model = da.build_model(cloud)
    spec = model.spectrum
    lam = np.array([1.0, *eigenvalues])
    return dataclasses.replace(model, spectrum=da.SpectralDecomposition(
        eigenvalues=lam, basis=spec.basis[:, :lam.size], stationary=spec.stationary))


def _spy_proposers(monkeypatch):
    """The candidate generator of every search run while the test runs."""
    used = []
    for name in ("_tree_proposer", "_gemm_proposer"):
        def spy(coords, real=getattr(graph, name), name=name):
            used.append(name)
            return real(coords)

        monkeypatch.setattr(graph, name, spy)
    return used


@pytest.mark.parametrize("dim, eigenvalues, proposer", [
    # 24 equal weights, so the weighted column count is 24
    (2, [0.9] * 24, "_tree_proposer"),
    (_TREE_MAX_DIM, [0.9] * 24, "_tree_proposer"),
    (_TREE_MAX_DIM + 1, [0.9] * 24, "_gemm_proposer"),
    (200, [0.9] * 24, "_gemm_proposer"),
    # nine equal weights and the rest 0: a count of 9, and of 8 with eight
    (200, [0.9] * 9 + [0.0] * 15, "_gemm_proposer"),
    (200, [0.9] * 8 + [0.0] * 16, "_tree_proposer"),
    # one weight dominates: a count near 1
    (200, [0.9] + [0.01] * 23, "_tree_proposer"),
])
def test_nearest_denser_search_takes_the_proposer_of_its_width(
        monkeypatch, dim, eigenvalues, proposer):
    """scores_at searches at the width min(data dimension, weighted column
    count), on the tree at or below _TREE_MAX_DIM and on GEMM above it."""
    model = _model_with(dim, eigenvalues)
    used = _spy_proposers(monkeypatch)
    emb, scores = model.scores_at(1.0)
    assert used == [proposer]
    exp_rho, exp_nearest = brute_force_nearest_denser(emb.coords, model.density.p)
    assert np.array_equal(scores.rho, exp_rho)
    assert np.array_equal(scores.nearest_higher, exp_nearest)
