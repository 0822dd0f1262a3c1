"""Property tests: linkage keeps the (height, min-index, other-index) merge
order bit for bit on tie-heavy integer grids with duplicate points.

Single linkage is checked against the independent brute-force oracle.  Both
methods are checked against `triangular_linkage`, the plain O(n^3) loop
(one full-matrix argmin per merge over an upper-triangular matrix), which
performs the same Lance-Williams arithmetic, so average-linkage heights
must agree to the last bit as well.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import diffal as da

from test_baselines import brute_force_linkage

SETTINGS = settings(max_examples=60, deadline=None)

# After 1 and 3 merge at height 1, point 0 is sqrt(2) from both 2 and the
# new cluster {1, 3}; the tie rule merges 0 with the cluster (slot 1) first.
# A row minimum cache that kept pointing at 2 would merge 0 with 2.
TIE_MOVES_TO_NEW_SLOT = np.array([[0.0, 2.0], [2.0, 1.0], [1.0, 3.0], [1.0, 1.0]])


def triangular_linkage(points, method):
    """Reference merge list: dmat[i, j] for i < j holds the distance between
    the clusters whose smallest members are i and j, everything else is
    +inf, so a row-major argmin realizes the tie rule."""
    n = points.shape[0]
    dmat = cdist(points, points)
    dmat[np.tril_indices(n)] = np.inf
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    slot_id = np.arange(n, dtype=np.int64)
    ch_a = np.empty(n - 1, dtype=np.int64)
    ch_b = np.empty(n - 1, dtype=np.int64)
    heights = np.empty(n - 1, dtype=np.float64)
    for step in range(n - 1):
        i, j = divmod(int(np.argmin(dmat)), n)
        a, b = slot_id[i], slot_id[j]
        ch_a[step], ch_b[step] = min(a, b), max(a, b)
        heights[step] = dmat[i, j]
        others = np.flatnonzero(active)
        others = others[(others != i) & (others != j)]
        if others.size:
            d_i = dmat[np.minimum(i, others), np.maximum(i, others)]
            d_j = dmat[np.minimum(j, others), np.maximum(j, others)]
            if method == "single":
                new = np.minimum(d_i, d_j)
            else:
                new = (sizes[i] * d_i + sizes[j] * d_j) / (sizes[i] + sizes[j])
            dmat[np.minimum(i, others), np.maximum(i, others)] = new
        dmat[j, :] = np.inf
        dmat[:, j] = np.inf
        active[j] = False
        sizes[i] += sizes[j]
        slot_id[i] = n + step
    return ch_a, ch_b, heights


@st.composite
def grid_points(draw):
    """Points on a small integer grid, plus extra copies of one of them."""
    dim = draw(st.integers(1, 2))
    base = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
        min_size=2, max_size=30,
    ))
    copies = draw(st.integers(0, 8))
    which = draw(st.integers(0, len(base) - 1))
    return np.array(base + [base[which]] * copies, dtype=float)


def assert_same_merges(dend, ch_a, ch_b, heights):
    assert np.array_equal(dend.children_a, ch_a)
    assert np.array_equal(dend.children_b, ch_b)
    assert dend.heights.dtype == np.float64
    assert dend.heights.tobytes() == np.asarray(heights, dtype=np.float64).tobytes()


@SETTINGS
@given(grid_points())
@example(TIE_MOVES_TO_NEW_SLOT)
def test_single_linkage_equals_brute_force(points):
    dend = da.linkage(da.PointCloud(points), "single")
    merges = brute_force_linkage(points, "single")
    assert_same_merges(dend, *(np.array(col) for col in zip(*merges)))


@SETTINGS
@given(grid_points(), st.sampled_from(["single", "average"]))
@example(TIE_MOVES_TO_NEW_SLOT, "single")
def test_linkage_equals_triangular_loop(points, method):
    dend = da.linkage(da.PointCloud(points), method)
    assert_same_merges(dend, *triangular_linkage(points, method))


@pytest.mark.parametrize("method", ["single", "average"])
def test_lattice_with_all_ties_equals_triangular_loop(method):
    # every nearest-neighbor distance on a lattice ties, and average linkage
    # then merges clusters of many sizes at equal heights
    points = np.argwhere(np.ones((12, 12))).astype(float)
    dend = da.linkage(da.PointCloud(points), method)
    assert_same_merges(dend, *triangular_linkage(points, method))


def seeded_grid(n, seed=0):
    """n points on a 4 x 4 integer grid: many duplicates and equal heights."""
    return np.random.default_rng(seed).integers(0, 4, size=(n, 2)).astype(float)


# linkage compacts its matrix whenever the live clusters fall to half its
# side, so these merge lists cross 5 (n = 64, 120) and 6 (n = 200)
# compactions.  Every merge rescans the merged row; in the average tree of
# the 64-point grid, the merge right after the compaction to 16 slots (step
# 48) also rescans another row whose minimum rose.
@pytest.mark.parametrize("n", [64, 120, 200])
@pytest.mark.parametrize("method", ["single", "average"])
def test_compacting_grids_equal_triangular_loop(n, method):
    points = seeded_grid(n)
    dend = da.linkage(da.PointCloud(points), method)
    assert_same_merges(dend, *triangular_linkage(points, method))


@pytest.mark.parametrize("method", ["single", "average"])
def test_linkage_peak_memory_is_one_matrix(method):
    # the matrix shrinks inside its own buffer; a compacted copy beside it
    # would add a quarter matrix at the first compaction
    n = 600
    cloud = da.PointCloud(np.random.default_rng(1).normal(size=(n, 3)))
    tracemalloc.start()
    try:
        da.linkage(cloud, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n * n
