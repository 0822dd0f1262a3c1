import itertools

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph

import diffal as da
from diffal.land import BudgetExceededError

from reference import reference_cuts


def brute_force_linkage(points, method):
    """Independent O(n^3) agglomerative oracle.

    Cluster distances are recomputed directly from the original pairwise
    distances (no recurrence); candidate pairs are ranked by
    (height, smaller min-member-index, larger min-member-index).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    clusters = {i: [i] for i in range(n)}
    next_id = n
    merges = []
    while len(clusters) > 1:
        best_key, best_pair = None, None
        for a, b in itertools.combinations(sorted(clusters), 2):
            cross = dist[np.ix_(clusters[a], clusters[b])]
            h = cross.min() if method == "single" else cross.mean()
            mins = sorted((min(clusters[a]), min(clusters[b])))
            key = (h, mins[0], mins[1])
            if best_key is None or key < best_key:
                best_key, best_pair = key, (a, b)
        a, b = best_pair
        merges.append((min(a, b), max(a, b), best_key[0]))
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        next_id += 1
    return merges


class TestLinkage:
    def test_collinear_hand_case(self):
        cloud = da.PointCloud(np.array([[0.0], [1.0], [10.0]]))
        dend = da.linkage(cloud, "single")
        assert dend.children_a[0] == 0 and dend.children_b[0] == 1
        assert dend.heights[0] == 1.0
        assert dend.heights[1] == 9.0

    @pytest.mark.parametrize("method", ["single", "average"])
    def test_matches_cubic_oracle(self, method):
        rng = np.random.default_rng(80)
        pts = rng.normal(size=(12, 3))
        dend = da.linkage(da.PointCloud(pts), method)
        expected = brute_force_linkage(pts, method)
        for s, (ea, eb, eh) in enumerate(expected):
            assert dend.children_a[s] == ea
            assert dend.children_b[s] == eb
            assert dend.heights[s] == pytest.approx(eh, rel=1e-9)

    def test_single_heights_equal_mst_weights(self):
        rng = np.random.default_rng(81)
        pts = rng.normal(size=(25, 2))
        dend = da.linkage(da.PointCloud(pts), "single")
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        mst = csgraph.minimum_spanning_tree(sparse.csr_matrix(dist))
        mst_weights = np.sort(mst.data)
        assert np.allclose(np.sort(dend.heights), mst_weights, atol=1e-12)

    @pytest.mark.parametrize("method", ["single", "average"])
    def test_heights_non_decreasing(self, method):
        rng = np.random.default_rng(82)
        dend = da.linkage(da.PointCloud(rng.normal(size=(40, 3))), method)
        assert np.all(np.diff(dend.heights) >= -1e-12)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            da.linkage(da.PointCloud(np.zeros((3, 1))), "ward")


class TestCut:
    def test_refinement_chain(self):
        rng = np.random.default_rng(84)
        dend = da.linkage(da.PointCloud(rng.normal(size=(20, 2))), "average")
        cuts = reference_cuts(dend, range(1, 21))
        for coarse, fine in zip(cuts, cuts[1:]):
            # each fine cluster maps into exactly one coarse cluster
            for fc in np.unique(fine):
                assert len(np.unique(coarse[fine == fc])) == 1
            # and exactly one coarse cluster splits
            split = sum(
                len(np.unique(fine[coarse == cc])) > 1 for cc in np.unique(coarse)
            )
            assert split == 1

    def test_out_of_range(self):
        dend = da.linkage(da.PointCloud(np.array([[0.0], [1.0]])), "single")
        with pytest.raises(ValueError):
            da.cut_purity_curve(dend, [0], [1, 1])
        with pytest.raises(ValueError):
            da.cut_purity_curve(dend, [3], [1, 1])

    def test_dendrogram_purity_monotone_and_final_one(self):
        cloud, truth = da.gen_bottleneck(seed=86, sizes=(60, 60, 10))
        for method in ("single", "average"):
            dend = da.linkage(cloud, method)
            purities = da.cut_purity_curve(dend, range(1, cloud.n + 1), truth)
            assert np.all(np.diff(purities) >= -1e-15)
            assert purities[-1] == 1.0


class TestLandRandom:
    def _setup(self, seed=87):
        cloud, truth = da.gen_gaussians(
            [[0.0, 0.0], [10.0, 0.0]], 0.5, [60, 60], seed=seed
        )
        model = da.build_model(cloud)
        emb, scores = model.scores_at(100.0)
        return model, emb, scores, truth

    def test_full_budget_is_truth(self):
        model, emb, scores, truth = self._setup()
        n = len(truth)
        result = da.land_random(
            model.density, emb, n, da.GroundTruthOracle(truth, n), seed=0,
            nearest_higher=scores.nearest_higher,
        )
        assert np.array_equal(result.labels, truth)

    def test_same_seed_same_result(self):
        model, emb, scores, truth = self._setup()
        runs = [
            da.land_random(
                model.density, emb, 10, da.GroundTruthOracle(truth, 10), seed=5,
                nearest_higher=scores.nearest_higher,
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].queried_indices, runs[1].queried_indices)
        assert np.array_equal(runs[0].labels, runs[1].labels)

    def test_different_seed_different_queries(self):
        model, emb, scores, truth = self._setup()
        a = da.land_random(model.density, emb, 10, da.GroundTruthOracle(truth, 10), seed=1,
                           nearest_higher=scores.nearest_higher)
        b = da.land_random(model.density, emb, 10, da.GroundTruthOracle(truth, 10), seed=2,
                           nearest_higher=scores.nearest_higher)
        assert not np.array_equal(a.queried_indices, b.queried_indices)

    def test_budget_respected(self):
        model, emb, scores, truth = self._setup()
        oracle = da.GroundTruthOracle(truth, 7)
        result = da.land_random(model.density, emb, 7, oracle, seed=3,
                                nearest_higher=scores.nearest_higher)
        assert oracle.queries_used == 7
        assert len(np.unique(result.queried_indices)) == 7

    def test_budget_exhaustion_aborts_with_partial_trail(self):
        model, emb, scores, truth = self._setup()
        oracle = da.GroundTruthOracle(truth, 2)
        with pytest.raises(BudgetExceededError) as excinfo:
            da.land_random(model.density, emb, 5, oracle, seed=4,
                           nearest_higher=scores.nearest_higher)
        trail = excinfo.value.queried_indices
        assert len(trail) == 2
        partial = excinfo.value.partial_labels
        assert np.array_equal(np.flatnonzero(partial), np.sort(trail))
        assert np.array_equal(partial[trail], truth[trail])

    def test_rejects_class_ids_below_one(self):
        class ZeroOracle:
            def query(self, index):
                return 0

        model, emb, scores, truth = self._setup()
        with pytest.raises(ValueError, match="invalid class id 0"):
            da.land_random(model.density, emb, 3, ZeroOracle(), seed=4,
                           nearest_higher=scores.nearest_higher)


class TestCbal:
    def _pure_pairs(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 0.0], [10.0, 0.1]])
        truth = np.array([1, 1, 2, 2])
        dend = da.linkage(da.PointCloud(pts), "average")
        return dend, truth

    def test_hand_simulated_two_cluster_tree(self):
        # seed 1: the first root sample is {1, 2}, one point per class, so
        # the root descends; each child then needs one more query and
        # freezes pure, spending exactly the budget of 4
        dend, truth = self._pure_pairs()
        oracle = da.GroundTruthOracle(truth, 4)
        result = da.cbal(dend, 4, oracle, purity_threshold=0.9, sample_size=2, seed=1)
        assert da.overall_accuracy(result.labels, truth) == 1.0
        assert result.queries_used == 4
        assert result.queried_indices.tolist() == [1, 2, 0, 3]

    def test_pure_sample_freezes_root_early(self):
        # seed 0 samples {2, 3} (one class); the root freezes immediately
        dend, truth = self._pure_pairs()
        result = da.cbal(
            dend, 4, da.GroundTruthOracle(truth, 4),
            purity_threshold=0.9, sample_size=2, seed=0,
        )
        assert result.queries_used == 2
        assert da.overall_accuracy(result.labels, truth) == 0.5

    def test_threshold_one_never_freezes_mixed_node(self):
        dend, truth = self._pure_pairs()
        # seed 1 again: mixed root sample; with threshold 1.0 the root must
        # descend rather than freeze, and the children finish pure
        result = da.cbal(
            dend, 4, da.GroundTruthOracle(truth, 4),
            purity_threshold=1.0, sample_size=2, seed=1,
        )
        assert da.overall_accuracy(result.labels, truth) == 1.0

    def test_same_seed_identical_sequence(self):
        cloud, truth = da.gen_gaussians(
            [[0.0, 0.0], [8.0, 0.0]], 0.6, [40, 40], seed=88
        )
        dend = da.linkage(cloud, "average")
        runs = [
            da.cbal(dend, 9, da.GroundTruthOracle(truth, 9), seed=13)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].queried_indices, runs[1].queried_indices)
        assert np.array_equal(runs[0].labels, runs[1].labels)

    def test_budget_never_exceeded(self):
        cloud, truth = da.gen_gaussians(
            [[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]], 0.8, [30, 30, 30], seed=89
        )
        dend = da.linkage(cloud, "average")
        for budget in (1, 3, 8, 20):
            oracle = da.GroundTruthOracle(truth, budget)
            result = da.cbal(dend, budget, oracle, seed=7)
            assert result.queries_used <= budget
            assert len(np.unique(result.queried_indices)) == result.queries_used
            assert np.all(result.labels > 0)

    def test_mid_node_exhaustion_still_labels_everything(self):
        dend, truth = self._pure_pairs()
        result = da.cbal(
            dend, 1, da.GroundTruthOracle(truth, 1),
            purity_threshold=0.9, sample_size=2, seed=1,
        )
        assert result.queries_used == 1
        assert np.all(result.labels > 0)

    @pytest.mark.parametrize("answer", [0, -2])
    def test_rejects_class_ids_below_one(self, answer):
        # land's rule and message: seed 1 asks about point 1 first
        class StubOracle:
            def query(self, index):
                return answer

        dend, _ = self._pure_pairs()
        with pytest.raises(ValueError) as excinfo:
            da.cbal(dend, 4, StubOracle(), sample_size=2, seed=1)
        assert str(excinfo.value) == f"oracle returned invalid class id {answer} for point 1"

    def test_bad_params(self):
        dend, truth = self._pure_pairs()
        oracle = da.GroundTruthOracle(truth, 5)
        with pytest.raises(ValueError):
            da.cbal(dend, 0, oracle)
        with pytest.raises(ValueError):
            da.cbal(dend, 2, oracle, purity_threshold=0.0)
        with pytest.raises(ValueError):
            da.cbal(dend, 2, oracle, sample_size=0)
