import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffal as da
from diffal.cli import AUTO_T_GRID
from diffal.geometry import (
    eigenvalue_powers,
    global_density_maximizer,
    nearest_denser_points,
    save_mode_scores_csv,
)

from conftest import brute_force_nearest_denser, build_graph_pieces
from reference import pairwise_distances, transition_matrix


class TestDiffusionEmbed:
    def test_t_zero_returns_basis(self):
        rng = np.random.default_rng(30)
        _, _, _, spec = build_graph_pieces(rng.normal(size=(30, 2)), k=4, num_eigs=8)
        emb = da.diffusion_embed(spec, 0.0)
        assert np.array_equal(emb.coords, spec.basis)

    def test_large_t_collapses_trailing_columns(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(50, 2))
        _, _, _, spec = build_graph_pieces(pts, k=6, num_eigs=10)
        emb = da.diffusion_embed(spec, 1e6)
        assert np.max(np.abs(emb.coords[:, 1:])) < 1e-12
        d = pairwise_distances(emb.coords)
        assert np.max(d) < 1e-6

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(32)
        _, _, W, spec = build_graph_pieces(rng.normal(size=(50, 3)), k=6)
        emb = da.diffusion_embed(spec, 3.0)
        P, pi = transition_matrix(W)
        P3 = np.linalg.matrix_power(P.toarray(), 3)
        d = pairwise_distances(emb.coords)
        for i in range(0, 50, 7):
            for j in range(0, 50, 5):
                direct = np.sqrt((((P3[i] - P3[j]) ** 2) / pi).sum())
                trunc = d[i, j]
                assert abs(direct - trunc) <= 1e-8 * max(1.0, direct)

    def test_integer_t_with_negative_eigenvalue(self):
        spec = da.SpectralDecomposition(
            eigenvalues=np.array([1.0, -0.5]),
            basis=np.array([[1.0, 1.0], [1.0, -1.0]]),
            stationary=np.array([0.5, 0.5]),
        )
        emb = da.diffusion_embed(spec, 2.0)
        assert emb.coords[0, 1] == pytest.approx(0.25)  # (-0.5)^2

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.5, 3.0, 10**0.5])
    def test_negative_eigenvalue_weighs_its_modulus_to_the_t(self, t):
        spec = da.SpectralDecomposition(
            eigenvalues=np.array([1.0, -0.5]),
            basis=np.array([[1.0, 1.0], [1.0, -1.0]]),
            stationary=np.array([0.5, 0.5]),
        )
        assert eigenvalue_powers(spec.eigenvalues, t)[1] == 0.5**t
        emb = da.diffusion_embed(spec, t)
        assert np.array_equal(emb.coords, spec.basis * [1.0, 0.5**t])
        # D_t^2 = (lambda^2)^t (psi(0) - psi(1))^2 needs no sign of lambda
        assert pairwise_distances(emb.coords)[0, 1] == pytest.approx(np.sqrt(0.25**t * 4.0))

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            eigenvalue_powers(np.array([1.0]), -1.0)

    def test_truncation_consistency_bound(self):
        rng = np.random.default_rng(33)
        _, _, _, spec = build_graph_pieces(rng.normal(size=(40, 2)), k=5)
        t = 2.0
        full = da.diffusion_embed(spec, t)
        m_small = 5
        small = da.diffusion_embed(
            da.SpectralDecomposition(
                eigenvalues=spec.eigenvalues[:m_small],
                basis=spec.basis[:, :m_small],
                stationary=spec.stationary,
            ),
            t,
        )
        tail = np.sum(
            spec.eigenvalues[m_small:] ** (2 * t)
            * np.max(spec.basis[:, m_small:] ** 2, axis=0)
            * 4.0
        )
        bound = np.sqrt(tail)
        d_full = pairwise_distances(full.coords)
        d_small = pairwise_distances(small.coords)
        assert np.max(np.abs(d_full - d_small)) <= bound + 1e-12

    def test_mean_distance_non_increasing_in_integer_t(self):
        rng = np.random.default_rng(34)
        pts = rng.normal(size=(60, 2))
        _, _, _, spec = build_graph_pieces(pts, k=8, num_eigs=15)
        pairs = rng.integers(0, 60, size=(40, 2))
        means = []
        for t in (1, 2, 3, 5, 8):
            d = pairwise_distances(da.diffusion_embed(spec, float(t)).coords)
            means.append(np.mean(d[pairs[:, 0], pairs[:, 1]]))
        assert np.all(np.diff(means) <= 1e-12)


class TestDiffusionDistance:
    def test_metric_properties(self):
        rng = np.random.default_rng(35)
        _, _, _, spec = build_graph_pieces(rng.normal(size=(30, 3)), k=5, num_eigs=10)
        d = pairwise_distances(da.diffusion_embed(spec, 2.0).coords)
        assert np.all(np.diag(d) == 0.0)
        assert np.array_equal(d, d.T)
        for a in range(30):
            for b in range(30):
                for c in range(0, 30, 7):
                    assert d[a, c] <= d[a, b] + d[b, c] + 1e-12


class TestKde:
    def test_duplicates_give_count(self):
        pts = np.vstack([np.zeros((4, 2)), [[5.0, 5.0]], [[6.0, 6.0]]])
        dens = da.kde(da.knn_search(da.PointCloud(pts), 3), sigma0=1.0)
        assert dens.p[0] == pytest.approx(3.0, abs=1e-12)

    def test_isolated_point_low_density(self):
        rng = np.random.default_rng(36)
        pts = np.vstack([rng.normal(size=(20, 2)) * 0.1, [[50.0, 50.0]]])
        dens = da.kde(da.knn_search(da.PointCloud(pts), 5), sigma0=1.0)
        assert dens.p[-1] < dens.p[:-1].min()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(37)
        pts = rng.normal(size=(40, 3))
        k, sigma0 = 6, 0.8
        dens = da.kde(da.knn_search(da.PointCloud(pts), k), sigma0)
        for i in range(40):
            cand = np.array([j for j in range(40) if j != i])
            d = np.sort(np.sqrt(((pts[cand] - pts[i]) ** 2).sum(axis=-1)))[:k]
            expected = np.exp(-((d / sigma0) ** 2)).sum()
            assert dens.p[i] == pytest.approx(expected, abs=1e-12)

    def test_bad_params(self):
        cloud = da.PointCloud(np.random.default_rng(38).normal(size=(10, 2)))
        neighbors = da.knn_search(cloud, 9)
        with pytest.raises(ValueError):
            da.kde(neighbors, 0.0)

    def test_range_invariant(self):
        rng = np.random.default_rng(39)
        dens = da.kde(da.knn_search(da.PointCloud(rng.normal(size=(50, 2))), 7), 0.5)
        assert np.all(dens.p > 0) and np.all(dens.p <= 7)


class TestNearestDenser:
    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(40)
        coords = rng.normal(size=(60, 4))
        p = rng.uniform(0.5, 2.0, size=60)
        emb = da.DiffusionEmbedding(coords=coords, t=1.0)
        dens = da.DensityEstimate(p=p)
        got_rho, got_nh = da.nearest_denser_points(emb, dens)
        exp_rho, exp_nh = brute_force_nearest_denser(coords, p)
        assert np.array_equal(got_rho, exp_rho)
        assert np.array_equal(got_nh, exp_nh)

    def test_matches_oracle_with_density_ties_and_duplicates(self):
        rng = np.random.default_rng(41)
        coords = np.round(rng.normal(size=(80, 2)), 1)
        coords[40:50] = coords[0]
        p = np.round(rng.uniform(0.5, 2.0, size=80), 1)
        emb = da.DiffusionEmbedding(coords=coords, t=1.0)
        dens = da.DensityEstimate(p=p)
        got_rho, got_nh = da.nearest_denser_points(emb, dens)
        exp_rho, exp_nh = brute_force_nearest_denser(coords, p)
        assert np.array_equal(got_rho, exp_rho)
        assert np.array_equal(got_nh, exp_nh)

    def test_global_maximizer_gets_max_distance(self):
        coords = np.array([[0.0], [1.0], [4.0]])
        p = np.array([3.0, 2.0, 1.0])
        emb = da.DiffusionEmbedding(coords=coords, t=1.0)
        dens = da.DensityEstimate(p=p)
        rho_values, nh = da.nearest_denser_points(emb, dens)
        assert rho_values[0] == 4.0 and nh[0] == 0

    def test_two_points(self):
        emb = da.DiffusionEmbedding(coords=np.array([[0.0], [2.0]]), t=1.0)
        dens = da.DensityEstimate(p=np.array([1.0, 5.0]))
        rho_values, nh = da.nearest_denser_points(emb, dens)
        assert rho_values[0] == 2.0 and nh[0] == 1  # lower-density point
        assert rho_values[1] == 2.0 and nh[1] == 1  # maximizer, self

    def test_chain_terminates_at_global_maximizer(self):
        rng = np.random.default_rng(42)
        coords = rng.normal(size=(120, 3))
        p = rng.uniform(size=120)
        emb = da.DiffusionEmbedding(coords=coords, t=1.0)
        dens = da.DensityEstimate(p=p)
        _, nh = da.nearest_denser_points(emb, dens)
        imax = global_density_maximizer(p)
        for start in range(120):
            seen = set()
            i = start
            while nh[i] != i:
                assert i not in seen  # no cycles
                seen.add(i)
                i = nh[i]
                assert len(seen) <= 120
            assert i == imax

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(43)
        pts = rng.normal(size=(70, 2))
        cloud = da.PointCloud(pts)
        k, sigma0 = 5, 0.7
        dens = da.kde(da.knn_search(cloud, k), sigma0)
        # note: equivariance of the full pipeline additionally needs the
        # embedding; here we check kde + rho on a fixed embedding
        coords = rng.normal(size=(70, 3))
        emb = da.DiffusionEmbedding(coords=coords, t=1.0)
        rho1, _ = da.nearest_denser_points(emb, dens)
        score1 = dens.p * rho1

        perm = rng.permutation(70)
        # a permutation with no density ties keeps the selection identical
        assert len(np.unique(dens.p)) == 70
        cloud_p = da.PointCloud(pts[perm])
        dens_p = da.kde(da.knn_search(cloud_p, k), sigma0)
        emb_p = da.DiffusionEmbedding(coords=coords[perm], t=1.0)
        rho_p, _ = da.nearest_denser_points(emb_p, dens_p)
        assert np.allclose(dens_p.p, dens.p[perm], atol=1e-12)
        assert np.allclose(rho_p, rho1[perm], atol=1e-12)
        assert np.allclose(dens_p.p * rho_p, score1[perm], atol=1e-12)


class TestModeScores:
    def test_hand_case(self):
        dens = da.DensityEstimate(p=np.array([2.0, 1.0]))
        scores = da.mode_scores(dens, np.array([3.0, 1.0]), np.array([0, 0]))
        assert scores.score.tolist() == [6.0, 1.0]
        assert scores.order.tolist() == [0, 1]

    def test_all_equal_scores_order_is_identity(self):
        dens = da.DensityEstimate(p=np.ones(5))
        scores = da.mode_scores(dens, np.ones(5), np.zeros(5, dtype=int))
        assert scores.order.tolist() == [0, 1, 2, 3, 4]

    def test_top_modes_cover_clusters(self):
        cloud, truth = da.gen_gaussians(
            [[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]], 0.4, [150, 150, 150], seed=44
        )
        model = da.build_model(cloud)
        _, scores = model.scores_at(1000.0)
        top3_classes = set(int(c) for c in truth[scores.order[:3]])
        assert top3_classes == {1, 2, 3}

    def test_length_mismatch(self):
        dens = da.DensityEstimate(p=np.ones(3))
        with pytest.raises(ValueError):
            da.mode_scores(dens, np.ones(2), np.zeros(2, dtype=int))

    def test_csv_serialization(self, tmp_path):
        dens = da.DensityEstimate(p=np.array([2.0, 1.0]))
        scores = da.mode_scores(dens, np.array([3.0, 1.0]), np.array([0, 0]))
        path = tmp_path / "scores.csv"
        save_mode_scores_csv(path, scores, dens)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,p,rho,score"
        assert lines[1].startswith("0,2.0,3.0,6.0")


class TestDensityOrderHelpers:
    def test_density_maximizer_ties_by_index(self):
        p = np.array([1.0, 3.0, 3.0, 0.5])
        assert global_density_maximizer(p) == 1


AUTO_GRID = [float(t) for t in da.log_t_grid(*AUTO_T_GRID)]


@st.composite
def small_models(draw):
    """Models of 8 to 40 points in one to three Gaussian blobs, 1-3 dims;
    such small kernel graphs often keep negative eigenvalues."""
    n, dim = draw(st.integers(8, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.uniform(-5.0, 5.0, size=(draw(st.integers(1, 3)), dim))
    points = centers[rng.integers(len(centers), size=n)] + rng.normal(scale=0.5, size=(n, dim))
    return da.build_model(da.PointCloud(points))


class TestDiffusionDistanceAtEveryTime:
    """Column weights |lambda|^t: every t >= 0 has an embedding, and its
    distances are D_t^2 = sum_l (lambda_l^2)^t (psi_l(x) - psi_l(y))^2."""

    @settings(max_examples=40, deadline=None)
    @given(small_models(), st.one_of(st.sampled_from(AUTO_GRID), st.floats(0.0, 50.0)))
    def test_scores_and_distances_at_any_time(self, model, t):
        try:
            model.scores_at(t)
        except da.NumericalError as exc:
            assert "zero mode score" in str(exc)
        spec = model.spectrum
        emb = da.diffusion_embed(spec, t)
        dpsi = spec.basis[:, None, :] - spec.basis[None, :, :]
        want = np.sqrt(np.einsum("ijl,l->ij", dpsi**2, (spec.eigenvalues**2) ** t))
        got = pairwise_distances(emb.coords)
        # a coordinate difference rounds at the scale of the coordinates
        assert np.all(np.abs(got - want) <= 1e-12 * (want + np.abs(emb.coords).max()))

    def test_non_negative_spectrum_is_bit_equal_to_plain_powers(self):
        cloud, _ = da.gen_gaussians([[0.0, 0.0], [5.0, 0.0], [2.5, 4.33]], 0.5,
                                    [40, 40, 40], seed=0)
        model = da.build_model(cloud)
        spec = model.spectrum
        assert np.all(spec.eigenvalues >= 0)
        for t in [0.0, 1.0, 10**0.5, 3.0, 10**2.5, 1e4]:
            coords = np.ascontiguousarray(spec.basis * (spec.eigenvalues**t)[None, :])
            emb, scores = model.scores_at(t)
            assert np.array_equal(emb.coords, coords)
            ref = da.DiffusionEmbedding(coords=coords, t=t)
            rho_values, nh = nearest_denser_points(ref, model.density)
            want = da.mode_scores(model.density, rho_values, nh)
            for name in ("rho", "score", "order", "nearest_higher"):
                assert np.array_equal(getattr(scores, name), getattr(want, name))
