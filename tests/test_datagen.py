import numpy as np
import pytest

import diffal as da
from diffal.datagen import (
    ANNULUS_RADIAL_NOISE,
    ANNULUS_RADIUS,
    BRIDGE_NOISE,
    HIERARCHICAL_MEANS,
)

from reference import reference_cuts


class TestGenGaussians:
    def test_single_component(self):
        cloud, truth = da.gen_gaussians([[0.0, 0.0]], 1.0, [100], seed=0)
        assert cloud.n == 100
        assert np.all(truth == 1)

    def test_determinism(self):
        a = da.gen_gaussians([[0.0], [5.0]], 0.3, [40, 60], seed=9)
        b = da.gen_gaussians([[0.0], [5.0]], 0.3, [40, 60], seed=9)
        assert np.array_equal(a[0].points, b[0].points)
        assert np.array_equal(a[1], b[1])

    def test_sizes_and_labels(self):
        cloud, truth = da.gen_gaussians(
            [[0.0, 0.0], [9.0, 0.0], [0.0, 9.0]], 0.5, [10, 20, 30], seed=1
        )
        assert cloud.n == 60
        assert np.bincount(truth)[1:].tolist() == [10, 20, 30]

    def test_separated_components_satisfy_land_condition_somewhere(self):
        sd = 0.5
        cloud, truth = da.gen_gaussians(
            [[0.0, 0.0], [10 * sd, 0.0], [0.0, 10 * sd]], sd, [80, 80, 80], seed=2
        )
        model = da.build_model(cloud)
        found = False
        for t in da.log_t_grid(0.0, 6.0, 0.5):
            emb, _ = model.scores_at(t)
            diag = da.separation_diagnostics(emb, model.density, truth)
            found = found or diag.land_condition_holds
        assert found

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            da.gen_gaussians([[0.0, 0.0], [1.0]], 0.5, [5, 5], seed=0)


class TestGenHierarchical:
    def test_means_near_specified_centers(self):
        per = 400
        stddev = 0.3
        cloud, truth4, _ = da.gen_hierarchical(seed=3, per_cluster=per, stddev=stddev)
        bound = 3 * stddev / np.sqrt(per)
        for k, center in enumerate(HIERARCHICAL_MEANS, start=1):
            got = cloud.points[truth4 == k].mean(axis=0)
            assert np.all(np.abs(got - np.asarray(center)) <= 4 * bound)

    def test_coarse_truth_structure(self):
        per = 50
        _, truth4, truth2 = da.gen_hierarchical(seed=4, per_cluster=per)
        assert sorted(np.unique(truth2).tolist()) == [1, 2]
        assert np.bincount(truth2)[1:].tolist() == [2 * per, 2 * per]
        # coarse classes merge the bottom pair (y=0) and the top pair (y=2)
        assert np.all(truth2[truth4 == 1] == truth2[truth4 == 3])
        assert np.all(truth2[truth4 == 2] == truth2[truth4 == 4])

    def test_determinism(self):
        a = da.gen_hierarchical(seed=5, per_cluster=30)
        b = da.gen_hierarchical(seed=5, per_cluster=30)
        assert np.array_equal(a[0].points, b[0].points)

    def test_scan_shows_both_granularities(self):
        cloud, _, _ = da.gen_hierarchical(seed=7, per_cluster=500)
        model = da.build_model(cloud)
        estimates = set()
        for t in da.log_t_grid(0.0, 8.0, 0.5):
            try:
                _, scores = model.scores_at(t)
                estimates.add(da.estimate_num_clusters(scores))
            except ValueError:
                continue
        assert 4 in estimates
        assert 2 in estimates

    def test_per_cluster_minimum(self):
        with pytest.raises(ValueError):
            da.gen_hierarchical(seed=0, per_cluster=5)


class TestGenGeometric:
    def test_sizes(self):
        cloud, truth = da.gen_geometric(seed=6, sizes=(100, 150, 50))
        assert cloud.n == 300
        assert np.bincount(truth)[1:].tolist() == [100, 150, 50]

    def test_annulus_radii_within_noise_band(self):
        cloud, truth = da.gen_geometric(seed=7, sizes=(500, 50, 50))
        radii = np.linalg.norm(cloud.points[truth == 1], axis=1)
        assert np.all(np.abs(radii - ANNULUS_RADIUS) <= 4 * ANNULUS_RADIAL_NOISE + 1e-12)

    def test_determinism(self):
        a = da.gen_geometric(seed=8)
        b = da.gen_geometric(seed=8)
        assert np.array_equal(a[0].points, b[0].points)

    def test_strip_is_elongated(self):
        cloud, truth = da.gen_geometric(seed=9)
        strip = cloud.points[truth == 2]
        spans = strip.max(axis=0) - strip.min(axis=0)
        assert spans[0] > 5 * spans[1]


class TestGenBottleneck:
    def test_sizes_and_bridge_labels(self):
        cloud, truth = da.gen_bottleneck(seed=10, sizes=(50, 60, 20))
        assert cloud.n == 130
        bridge = cloud.points[110:]
        bridge_labels = truth[110:]
        assert np.all(bridge_labels[bridge[:, 0] < 0] == 1)
        assert np.all(bridge_labels[bridge[:, 0] > 0] == 2)

    def test_bridge_collinear_within_noise(self):
        cloud, _ = da.gen_bottleneck(seed=11, sizes=(30, 30, 25))
        bridge = cloud.points[60:]
        assert np.all(np.abs(bridge[:, 1]) <= 4 * BRIDGE_NOISE + 1e-12)
        assert np.all(np.diff(bridge[:, 0]) > 0)  # evenly spaced chain

    def test_single_linkage_merges_blobs_through_bridge(self):
        cloud, truth = da.gen_bottleneck(seed=11)
        dend = da.linkage(cloud, "single")
        labels2 = reference_cuts(dend, [2])[0]
        sizes = np.sort(np.bincount(labels2)[1:])
        # the two-cluster cut peels off a stray point instead of splitting
        # the blobs: the bridge chains them together
        assert sizes[-1] >= 0.95 * cloud.n
        frac = np.bincount(truth)[1:].max() / cloud.n
        assert da.purity(labels2, truth) == pytest.approx(frac, abs=0.02)

    def test_determinism(self):
        a = da.gen_bottleneck(seed=12)
        b = da.gen_bottleneck(seed=12)
        assert np.array_equal(a[0].points, b[0].points)
