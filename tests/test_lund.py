import numpy as np
import pytest

import diffal as da

from conftest import build_graph_pieces


def toy_embedding(coords):
    return da.DiffusionEmbedding(coords=np.asarray(coords, dtype=float), t=1.0)


def toy_density(p):
    return da.DensityEstimate(p=np.asarray(p, dtype=float))


def forest(emb, dens):
    """The nearest-denser forest that propagate_labels follows."""
    return da.nearest_denser_points(emb, dens)[1]


def two_cluster_setup(seed=50, n_per=100, gap=50.0):
    """Embedding with two tight, far-apart groups; densities peak per group."""
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=0.5, size=(n_per, 2))
    b = rng.normal(scale=0.5, size=(n_per, 2)) + [gap, 0.0]
    coords = np.vstack([a, b])
    p = np.concatenate([rng.uniform(1, 2, n_per), rng.uniform(1, 2, n_per)])
    p[0] = 5.0       # maximizer of cluster one (global)
    p[n_per] = 4.0   # maximizer of cluster two
    truth = np.repeat([1, 2], n_per)
    return toy_embedding(coords), toy_density(p), truth


class TestPropagateLabels:
    def test_single_seed_at_maximizer_labels_everything(self):
        emb, dens, _ = two_cluster_setup()
        seeds = np.zeros(dens.n, dtype=int)
        seeds[0] = 7
        labels = da.propagate_labels(seeds, dens, emb, forest(emb, dens))
        assert np.all(labels == 7)

    def test_two_separated_clusters(self):
        emb, dens, truth = two_cluster_setup()
        diag = da.separation_diagnostics(emb, dens, truth)
        assert diag.land_condition_holds
        seeds = np.zeros(dens.n, dtype=int)
        seeds[0] = 1
        seeds[100] = 2
        labels = da.propagate_labels(seeds, dens, emb, forest(emb, dens))
        assert np.array_equal(labels, truth)

    def test_complete_seeds_returned_unchanged(self):
        emb, dens, truth = two_cluster_setup()
        labels = da.propagate_labels(truth, dens, emb, forest(emb, dens))
        assert np.array_equal(labels, truth)

    def test_idempotent(self):
        emb, dens, _ = two_cluster_setup()
        seeds = np.zeros(dens.n, dtype=int)
        seeds[0] = 1
        seeds[150] = 2
        once = da.propagate_labels(seeds, dens, emb, forest(emb, dens))
        twice = da.propagate_labels(once, dens, emb, forest(emb, dens))
        assert np.array_equal(once, twice)

    def test_unseeded_maximizer_falls_back_with_warning(self):
        emb = toy_embedding([[0.0], [1.0], [10.0]])
        dens = toy_density([5.0, 1.0, 2.0])
        seeds = np.array([0, 0, 3])
        with pytest.warns(UserWarning, match="unseeded"):
            labels = da.propagate_labels(seeds, dens, emb, forest(emb, dens))
        assert np.all(labels == 3)

    def test_label_permutation_equivariance(self):
        emb, dens, _ = two_cluster_setup(seed=51)
        seeds = np.zeros(dens.n, dtype=int)
        seeds[0], seeds[100] = 1, 2
        base = da.propagate_labels(seeds, dens, emb, forest(emb, dens))
        swapped = np.zeros(dens.n, dtype=int)
        swapped[0], swapped[100] = 2, 1
        out = da.propagate_labels(swapped, dens, emb, forest(emb, dens))
        assert np.array_equal(out, np.where(base == 1, 2, 1))

    def test_requires_a_seed(self):
        emb, dens, _ = two_cluster_setup()
        with pytest.raises(ValueError, match="seed"):
            da.propagate_labels(np.zeros(dens.n, dtype=int), dens, emb, forest(emb, dens))


class TestEstimateNumClusters:
    def _scores(self, score_values):
        n = len(score_values)
        dens = toy_density(np.ones(n))
        scores = da.ModeScores(
            rho=np.asarray(score_values, dtype=float),
            score=np.asarray(score_values, dtype=float),
            order=np.lexsort((np.arange(n), -np.asarray(score_values, dtype=float))),
            nearest_higher=np.zeros(n, dtype=int),
        )
        return scores

    def test_clear_gap(self):
        assert da.estimate_num_clusters(self._scores([10.0, 9.0, 1.0, 0.9])) == 2

    def test_constant_ratio_tie_goes_to_smallest(self):
        assert da.estimate_num_clusters(self._scores([8.0, 4.0, 2.0, 1.0])) == 1

    def test_zero_score_in_range_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            da.estimate_num_clusters(self._scores([4.0, 0.0, 0.0, 0.0]))

    def test_tail_spike_outside_range_ignored(self):
        # huge ratio at position 9 of 12 (beyond ceil(12/2)=6) must not win
        values = [100.0, 99.0, 9.0, 8.9, 8.8, 8.7, 8.6, 8.5, 8.4, 1e-9, 1e-9, 1e-9]
        assert da.estimate_num_clusters(self._scores(values)) == 2

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            da.estimate_num_clusters(self._scores([1.0]))


class TestLund:
    def test_three_gaussians_recovered(self):
        cloud, truth = da.gen_gaussians(
            [[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]], 0.5, [150, 150, 150], seed=52
        )
        model = da.build_model(cloud)
        emb, scores = model.scores_at(100.0)
        diag = da.separation_diagnostics(emb, model.density, truth)
        assert diag.lund_condition_holds
        result = da.lund(scores, model.density, emb)
        assert result.num_clusters == 3
        aligned = da.align_labels(result.labels, truth)
        assert da.overall_accuracy(aligned, truth) == 1.0

    def test_result_invariants(self):
        cloud, _ = da.gen_gaussians([[0.0, 0.0], [9.0, 0.0]], 0.5, [80, 80], seed=53)
        model = da.build_model(cloud)
        emb, scores = model.scores_at(50.0)
        result = da.lund(scores, model.density, emb)
        assert np.all(result.labels >= 1)
        assert np.all(result.labels <= result.num_clusters)
        for k, idx in enumerate(result.mode_indices, start=1):
            assert result.labels[idx] == k

    def test_two_symmetric_points_estimate_one_cluster(self):
        # a fully symmetric pair has equal scores, so the ratio rule sees a
        # single flat ratio and estimates one cluster
        emb = toy_embedding([[0.0], [2.0]])
        dens = toy_density([1.0, 1.0])
        rho_values, nh = da.nearest_denser_points(emb, dens)
        scores = da.mode_scores(dens, rho_values, nh)
        assert da.estimate_num_clusters(scores) == 1
        result = da.lund(scores, dens, emb)
        assert result.num_clusters == 1
        assert np.array_equal(result.labels, [1, 1])

    def test_lund_equals_lund_k_at_estimate(self):
        cloud, _ = da.gen_gaussians(
            [[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]], 0.5, [100, 100, 100], seed=54
        )
        model = da.build_model(cloud)
        emb, scores = model.scores_at(100.0)
        auto = da.lund(scores, model.density, emb)
        fixed = da.lund_k(scores, model.density, emb, auto.num_clusters)
        assert np.array_equal(auto.labels, fixed.labels)
        assert np.array_equal(auto.mode_indices, fixed.mode_indices)


class TestLundK:
    def test_k_one_single_label(self):
        emb, dens, _ = two_cluster_setup(seed=55)
        rho_values, nh = da.nearest_denser_points(emb, dens)
        scores = da.mode_scores(dens, rho_values, nh)
        result = da.lund_k(scores, dens, emb, 1)
        assert np.all(result.labels == 1)

    def test_k_equals_n_all_distinct(self):
        emb = toy_embedding(np.arange(6, dtype=float)[:, None])
        dens = toy_density(np.linspace(2, 1, 6))
        rho_values, nh = da.nearest_denser_points(emb, dens)
        scores = da.mode_scores(dens, rho_values, nh)
        result = da.lund_k(scores, dens, emb, 6)
        assert sorted(result.labels.tolist()) == [1, 2, 3, 4, 5, 6]

    def test_k_out_of_range(self):
        emb, dens, _ = two_cluster_setup(seed=56)
        rho_values, nh = da.nearest_denser_points(emb, dens)
        scores = da.mode_scores(dens, rho_values, nh)
        with pytest.raises(ValueError):
            da.lund_k(scores, dens, emb, 0)
        with pytest.raises(ValueError):
            da.lund_k(scores, dens, emb, dens.n + 1)

    def test_purity_non_decreasing_on_geometric_data(self):
        cloud, truth = da.gen_geometric(seed=11, sizes=(200, 200, 200))
        model = da.build_model(cloud)
        emb, scores = model.scores_at(10**4.0)
        purities = [
            da.purity(da.lund_k(scores, model.density, emb, k).labels, truth)
            for k in range(1, 41)
        ]
        assert np.all(np.diff(purities) >= -1e-12)


class TestSeparationDiagnostics:
    def test_two_singleton_classes(self):
        emb = toy_embedding([[0.0], [3.0]])
        dens = toy_density([1.0, 2.0])
        diag = da.separation_diagnostics(emb, dens, np.array([1, 2]))
        assert diag.d_in == 0.0
        assert diag.d_btw == 3.0
        assert diag.land_condition_holds

    def test_matches_brute_force_pair_scan(self):
        rng = np.random.default_rng(57)
        coords = rng.normal(size=(50, 3))
        truth = rng.integers(1, 4, size=50)
        p = rng.uniform(1, 2, size=50)
        emb, dens = toy_embedding(coords), toy_density(p)
        diag = da.separation_diagnostics(emb, dens, truth)
        d_in, d_btw = 0.0, np.inf
        for i in range(50):
            for j in range(50):
                if i == j:
                    continue
                d = float(np.linalg.norm(coords[i] - coords[j]))
                if truth[i] == truth[j]:
                    d_in = max(d_in, d)
                else:
                    d_btw = min(d_btw, d)
        assert diag.d_in == pytest.approx(d_in, rel=1e-12)
        assert diag.d_btw == pytest.approx(d_btw, rel=1e-12)

    def test_condition_booleans_recomputable(self):
        emb, dens, truth = two_cluster_setup(seed=58)
        diag = da.separation_diagnostics(emb, dens, truth)
        expected_lund = (
            diag.d_in / diag.d_btw < diag.max_mode_density / diag.min_mode_density
        )
        assert diag.lund_condition_holds == expected_lund
        assert diag.land_condition_holds == (diag.d_in < diag.d_btw)

    def test_classwise_maximizers(self):
        emb, dens, truth = two_cluster_setup(seed=59)
        diag = da.separation_diagnostics(emb, dens, truth)
        assert diag.maximizer_indices.tolist() == [0, 100]
        assert diag.max_mode_density == 5.0
        assert diag.min_mode_density == 4.0

    def test_unlabeled_points_are_left_out(self):
        emb, dens, truth = two_cluster_setup(seed=60)
        truth = truth.copy()
        truth[[0, 150]] = 0  # class one's density peak and a class-two point
        diag = da.separation_diagnostics(emb, dens, truth)
        keep = truth > 0
        want = da.separation_diagnostics(toy_embedding(emb.coords[keep]),
                                         toy_density(dens.p[keep]), truth[keep])
        assert (diag.d_in, diag.d_btw) == (want.d_in, want.d_btw)
        assert diag.maximizer_indices.tolist() == np.flatnonzero(keep)[
            want.maximizer_indices].tolist()
        assert 0 not in diag.maximizer_indices.tolist()
        assert diag.max_mode_density == 4.0
        with pytest.raises(da.DataError, match="no evaluable points"):
            da.separation_diagnostics(emb, dens, np.zeros_like(truth))


class TestPerfectRecoveryGuarantee:
    def test_separated_data_labels_perfectly(self):
        # when within < between and the top-B scores contain every classwise
        # density peak, seeding those peaks labels everything correctly
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            sd = 0.5
            means = [
                [0.0, 0.0],
                [10 * sd + rng.uniform(0, 2), 0.0],
                [rng.uniform(0, 2), 10 * sd + rng.uniform(0, 2)],
            ]
            cloud, truth = da.gen_gaussians(means, sd, [70, 70, 70], seed=seed)
            model = da.build_model(cloud)
            checked = 0
            for t in da.log_t_grid(1.0, 5.0, 1.0):
                emb, scores = model.scores_at(t)
                diag = da.separation_diagnostics(emb, model.density, truth)
                top3 = set(int(i) for i in scores.order[:3])
                if diag.land_condition_holds and set(
                    int(i) for i in diag.maximizer_indices
                ) <= top3:
                    result = da.land(
                        scores, model.density, emb, 3, da.GroundTruthOracle(truth, 3)
                    )
                    assert da.overall_accuracy(result.labels, truth) == 1.0
                    checked += 1
            assert checked > 0
