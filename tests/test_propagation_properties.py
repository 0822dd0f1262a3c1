"""Property test: label propagation equals a plain density-order sweep bit
for bit on tie-heavy integer grids with tied densities and on one deep
chain; a nearest-denser map that is not a forest is a ValueError."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffal as da
from diffal.geometry import nearest_denser_points


def sweep(seeds, coords, p):
    """Visit points by (density descending, index ascending); each unlabeled
    point copies the label of its nearest denser point by (distance, index).
    The global maximizer, which has no denser point, copies the nearest seed."""
    n = p.shape[0]
    labels = seeds.copy()
    for i in np.lexsort((np.arange(n), -p)):
        if labels[i] != 0:
            continue
        diff = coords - coords[i]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        pool = [j for j in range(n) if p[j] > p[i] or (p[j] == p[i] and j < i)]
        if not pool:
            pool = [j for j in range(n) if seeds[j] > 0]
        labels[i] = labels[min(pool, key=lambda j: (d[j], j))]
    return labels


@st.composite
def seeded_grids(draw):
    """Points on a small integer grid (duplicates allowed), densities with
    few levels, and a partial labeling; the maximizer is seeded or not."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 30))
    points = np.array(draw(st.lists(
        st.lists(st.integers(0, 3), min_size=dim, max_size=dim), min_size=n, max_size=n,
    )), dtype=float)
    p = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=float)
    seeds = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    imax = int(np.lexsort((np.arange(n), -p))[0])
    if draw(st.booleans()):
        seeds[imax] = draw(st.integers(1, 3))
    else:
        seeds[imax] = 0
        if not np.any(seeds > 0):
            other = draw(st.integers(0, n - 2))
            seeds[other + (other >= imax)] = draw(st.integers(1, 3))
    return points, p, seeds


@settings(max_examples=40, deadline=None)
@given(seeded_grids())
def test_propagate_labels_equals_density_order_sweep(case):
    points, p, seeds = case
    emb = da.DiffusionEmbedding(coords=points, t=1.0)
    dens = da.DensityEstimate(p=p)
    expected = sweep(seeds, points, p)
    _, nearest = nearest_denser_points(emb, dens)
    got = da.propagate_labels(seeds, dens, emb, nearest_higher=nearest)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def _line(n):
    """n points on a line with density strictly decreasing along it, so the
    nearest-denser forest is one chain of n - 1 links from point 0."""
    points = np.arange(n, dtype=float)[:, None]
    emb = da.DiffusionEmbedding(coords=points, t=1.0)
    dens = da.DensityEstimate(p=np.arange(n, 0, -1, dtype=float))
    return points, emb, dens


def test_deep_chain_equals_density_order_sweep():
    # 999 links take ceil(log2 999) = 10 rounds of pointer jumping, the most
    # any chain of 1 000 points needs: one round fewer leaves the tail unlabeled
    n = 1000
    points, emb, dens = _line(n)
    _, nearest = nearest_denser_points(emb, dens)
    assert nearest.tolist() == [0, *range(n - 1)]
    top = np.zeros(n, dtype=np.int64)
    top[0] = 1
    along = top.copy()
    along[[100, 517, 900, 998]] = [2, 3, 1, 2]
    for seeds in (top, along):
        expected = sweep(seeds, points, dens.p)
        got = da.propagate_labels(seeds, dens, emb, nearest_higher=nearest)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("nearest", [
    [0, 2, 1, 0],  # 1 and 2 point at each other and neither is seeded
    [0, 4, 0, 0],
    [0, -1, 0, 0],
    [0, 0, 0],
])
def test_nearest_higher_that_is_not_a_forest_is_rejected(nearest):
    _, emb, dens = _line(4)
    seeds = np.array([1, 0, 0, 0])
    with pytest.raises(ValueError):
        da.propagate_labels(seeds, dens, emb, nearest_higher=np.array(nearest))
