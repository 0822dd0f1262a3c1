"""Property test: label propagation equals a plain density-order sweep bit
for bit on tie-heavy integer grids with tied densities."""

import numpy as np
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
    dens = da.DensityEstimate(p=p, k_density=1, sigma0=1.0)
    expected = sweep(seeds, points, p)
    got = da.propagate_labels(seeds, dens, emb)
    _, nearest = nearest_denser_points(emb, dens)
    got_given = da.propagate_labels(seeds, dens, emb, nearest_higher=nearest)
    for labels in (got, got_given):
        assert labels.dtype == expected.dtype
        assert np.array_equal(labels, expected)
