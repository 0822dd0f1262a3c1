import itertools
import tracemalloc

import numpy as np
import pytest

import diffal as da


class TestOverallAccuracy:
    def test_perfect(self):
        assert da.overall_accuracy([1, 2, 1], [1, 2, 1]) == 1.0

    def test_three_of_four(self):
        assert da.overall_accuracy([1, 1, 2, 2], [1, 1, 2, 1]) == 0.75

    def test_truth_zeros_excluded(self):
        # the wrong prediction sits on an unlabeled point: it must not count
        assert da.overall_accuracy([1, 2, 9], [1, 2, 0]) == 1.0
        assert da.overall_accuracy([1, 9], [0, 2]) == 0.0

    def test_no_evaluable_points(self):
        with pytest.raises(ValueError):
            da.overall_accuracy([1, 1], [0, 0])


class TestAverageAccuracy:
    def test_balanced_equals_oa(self):
        pred = [1, 1, 2, 2]
        truth = [1, 2, 2, 1]
        assert da.average_accuracy(pred, truth) == da.overall_accuracy(pred, truth)

    def test_small_class_equal_weight(self):
        truth = [1] * 9 + [2]
        pred = [1] * 9 + [1]
        assert da.overall_accuracy(pred, truth) == pytest.approx(0.9, abs=1e-12)
        assert da.average_accuracy(pred, truth) == pytest.approx(0.5, abs=1e-12)

    def test_perfect(self):
        assert da.average_accuracy([1, 2, 3], [1, 2, 3]) == 1.0


class TestCohensKappa:
    def test_perfect_two_class(self):
        assert da.cohens_kappa([1, 2, 1, 2], [1, 2, 1, 2]) == 1.0

    def test_constant_predictor_balanced_truth(self):
        pred = [1, 1, 1, 1]
        truth = [1, 1, 2, 2]
        assert da.cohens_kappa(pred, truth) == pytest.approx(0.0, abs=1e-15)

    def test_known_confusion_matrix(self):
        # confusion counts [[45, 5], [10, 40]] scored by the direct formula
        truth = [1] * 50 + [2] * 50
        pred = [1] * 45 + [2] * 5 + [1] * 10 + [2] * 40
        n = 100
        p_o = (45 + 40) / n
        p_e = ((50 * 55) + (50 * 45)) / n**2
        expected = (p_o - p_e) / (1 - p_e)
        assert expected == pytest.approx(0.70, abs=1e-12)
        assert da.cohens_kappa(pred, truth) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_single_class(self):
        assert da.cohens_kappa([1, 1], [1, 1]) == 1.0
        # constant disagreement over disjoint classes: observed and chance
        # agreement are both zero
        assert da.cohens_kappa([3, 3], [1, 1]) == 0.0

    def test_kappa_at_most_oa(self):
        rng = np.random.default_rng(90)
        for _ in range(25):
            truth = rng.integers(1, 4, size=40)
            pred = rng.integers(1, 4, size=40)
            kappa = da.cohens_kappa(pred, truth)
            oa = da.overall_accuracy(pred, truth)
            assert kappa <= oa + 1e-12

    def test_kappa_one_iff_equal(self):
        rng = np.random.default_rng(91)
        truth = rng.integers(1, 4, size=30)
        pred = truth.copy()
        assert da.cohens_kappa(pred, truth) == pytest.approx(1.0, abs=1e-12)
        pred[0] = pred[0] % 3 + 1
        assert da.cohens_kappa(pred, truth) < 1.0


class TestAlignLabels:
    def test_swapped_names(self):
        truth = np.array([1, 1, 2, 2])
        pred = np.array([2, 2, 1, 1])
        aligned = da.align_labels(pred, truth)
        assert da.overall_accuracy(aligned, truth) == 1.0

    def test_single_cluster_vs_two_classes(self):
        truth = np.array([1, 1, 2, 2])
        pred = np.ones(4, dtype=int)
        aligned = da.align_labels(pred, truth)
        assert da.overall_accuracy(aligned, truth) == 0.5

    def test_matches_exhaustive_permutations(self):
        rng = np.random.default_rng(92)
        for _ in range(10):
            k = int(rng.integers(2, 7))
            truth = rng.integers(1, k + 1, size=60)
            pred = rng.integers(1, k + 1, size=60)
            aligned_oa = da.overall_accuracy(da.align_labels(pred, truth), truth)
            best = 0.0
            for perm in itertools.permutations(range(1, k + 1)):
                renamed = np.array([perm[p - 1] for p in pred])
                best = max(best, da.overall_accuracy(renamed, truth))
            assert aligned_oa == pytest.approx(best, abs=1e-12)

    def test_extra_clusters_get_fresh_ids(self):
        truth = np.array([1, 1, 2, 2])
        pred = np.array([1, 3, 2, 7])
        aligned = da.align_labels(pred, truth)
        assert len(np.unique(aligned)) == 4  # one-to-one map preserved

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(93)
        truth = rng.integers(1, 5, size=80)
        pred = rng.integers(1, 5, size=80)
        assert da.overall_accuracy(
            da.align_labels(pred, truth), truth
        ) >= da.overall_accuracy(pred, truth)


class TestPurity:
    def test_singletons(self):
        truth = np.array([1, 2, 1, 2])
        assert da.purity(np.arange(1, 5), truth) == 1.0

    def test_one_cluster_balanced(self):
        assert da.purity([1, 1, 1, 1], [1, 1, 2, 2]) == 0.5

    def test_hand_case(self):
        clustering = [1, 1, 1, 2, 2]
        truth = [1, 1, 2, 2, 2]
        assert da.purity(clustering, truth) == pytest.approx(0.8, abs=1e-12)

    def test_name_permutation_invariance(self):
        rng = np.random.default_rng(94)
        truth = rng.integers(1, 4, size=50)
        clustering = rng.integers(1, 5, size=50)
        base = da.purity(clustering, truth)
        renamed = np.array([{1: 4, 2: 3, 3: 2, 4: 1}[c] for c in clustering])
        truth_renamed = np.array([{1: 3, 2: 1, 3: 2}[t] for t in truth])
        assert da.purity(renamed, truth) == base
        assert da.purity(clustering, truth_renamed) == base


class TestMetricInvariances:
    def test_oa_aa_invariant_to_joint_renaming(self):
        rng = np.random.default_rng(95)
        truth = rng.integers(1, 4, size=40)
        pred = rng.integers(1, 4, size=40)
        mapping = {1: 7, 2: 9, 3: 8}
        truth2 = np.array([mapping[t] for t in truth])
        pred2 = np.array([mapping[p] for p in pred])
        assert da.overall_accuracy(pred2, truth2) == da.overall_accuracy(pred, truth)
        # renaming reorders the per-class mean, so allow rounding slack
        assert da.average_accuracy(pred2, truth2) == pytest.approx(
            da.average_accuracy(pred, truth), abs=1e-12
        )
        assert da.cohens_kappa(pred2, truth2) == pytest.approx(
            da.cohens_kappa(pred, truth), abs=1e-12
        )


class TestClassCounts:
    def test_no_evaluable_points_is_a_data_error(self):
        for metric in (da.overall_accuracy, da.average_accuracy, da.cohens_kappa,
                       da.accuracy_scores, da.purity):
            with pytest.raises(da.DataError, match="no evaluable points"):
                metric([1, 2], [0, 0])

    def test_accuracy_scores_hand_case(self):
        # classes 1 (3 points, 2 hits) and 2 (1 point, 1 hit); the unlabeled
        # point's prediction 7 counts nowhere
        oa, aa, kappa = da.accuracy_scores([1, 1, 2, 2, 7], [1, 1, 1, 2, 0])
        assert (oa, aa) == (0.75, (2 / 3 + 1.0) / 2)
        p_e = (3 * 2 + 1 * 2) / 16
        assert kappa == (0.75 - p_e) / (1 - p_e)

    def test_kappa_memory_is_linear_in_distinct_ids(self):
        # n distinct predicted ids: an ids x ids count matrix would take
        # 8 n^2 bytes (72 MB here); the tally keeps about ten n-vectors
        n = 3000
        pred = np.random.default_rng(3).permutation(n) + 1
        truth = np.arange(1, n + 1)
        tracemalloc.start()
        try:
            da.cohens_kappa(pred, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * n
