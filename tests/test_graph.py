import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import diffal as da
from diffal.graph import NumericalError, _symmetric_conjugate

from conftest import brute_force_knn, build_graph_pieces


class TestKnnSearch:
    def test_collinear_hand_case(self):
        cloud = da.PointCloud(np.array([[0.0], [1.0], [3.0]]))
        nb = da.knn_search(cloud, 1)
        assert nb.indices.ravel().tolist() == [1, 0, 1]
        assert nb.distances.ravel().tolist() == [1.0, 1.0, 2.0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(64, 5))
        nb = da.knn_search(da.PointCloud(pts), 8)
        idx, dist = brute_force_knn(pts, 8)
        assert np.array_equal(nb.indices, idx)
        assert np.array_equal(nb.distances, dist)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(11)
        pts = np.round(rng.normal(size=(50, 2)) * 2) / 2  # lattice ties
        pts[10] = pts[3]
        pts[20] = pts[3]
        nb = da.knn_search(da.PointCloud(pts), 5)
        idx, dist = brute_force_knn(pts, 5)
        assert np.array_equal(nb.indices, idx)
        assert np.array_equal(nb.distances, dist)

    def test_duplicate_pair_mutual_at_zero(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
        nb = da.knn_search(da.PointCloud(pts), 1)
        assert nb.indices[0, 0] == 1 and nb.indices[1, 0] == 0
        assert nb.distances[0, 0] == 0.0 and nb.distances[1, 0] == 0.0

    def test_k_out_of_range(self):
        cloud = da.PointCloud(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            da.knn_search(cloud, 3)
        with pytest.raises(ValueError):
            da.knn_search(cloud, 0)

    def test_rows_sorted_and_self_free(self):
        rng = np.random.default_rng(12)
        cloud = da.PointCloud(rng.normal(size=(40, 3)))
        nb = da.knn_search(cloud, 7)
        assert np.all(np.diff(nb.distances, axis=1) >= 0)
        assert not np.any(nb.indices == np.arange(40)[:, None])


class TestKernelMatrix:
    def test_distance_sigma_gives_inv_e(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        nb = da.knn_search(da.PointCloud(pts), 1)
        W = da.kernel_matrix(nb, 1.0).weights
        assert W[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_distance_zero_gives_one(self):
        pts = np.array([[2.0], [2.0], [5.0]])
        nb = da.knn_search(da.PointCloud(pts), 1)
        W = da.kernel_matrix(nb, 0.7).weights
        assert W[0, 1] == 1.0
        assert W[0, 0] == 1.0  # unit diagonal

    def test_one_sided_edge_symmetrized(self):
        # 0 and 1 close together, 2 far right: 2's nearest is 1, but 1's
        # nearest is 0, so edge (1,2) is one-sided before symmetrization
        pts = np.array([[0.0], [1.0], [3.0]])
        nb = da.knn_search(da.PointCloud(pts), 1)
        W = da.kernel_matrix(nb, 2.0).weights
        expected = np.exp(-((2.0 / 2.0) ** 2))
        assert W[1, 2] == pytest.approx(expected, abs=1e-15)
        assert W[2, 1] == W[1, 2]

    def test_exact_symmetry_and_range(self):
        rng = np.random.default_rng(13)
        cloud = da.PointCloud(rng.normal(size=(60, 4)))
        nb = da.knn_search(cloud, 6)
        W = da.kernel_matrix(nb, da.default_sigma(nb)).weights
        assert (W != W.T).nnz == 0
        assert W.data.min() >= 0.0 and W.data.max() <= 1.0
        assert np.all(W.diagonal() == 1.0)

    def test_sigma_must_be_positive(self):
        pts = np.array([[0.0], [1.0]])
        nb = da.knn_search(da.PointCloud(pts), 1)
        with pytest.raises(ValueError):
            da.kernel_matrix(nb, 0.0)


class TestMarkovNormalize:
    def test_two_state_all_ones(self):
        W = da.SparseKernelMatrix(
            weights=sparse.csr_matrix(np.ones((2, 2))), sigma=1.0
        )
        mc = da.markov_normalize(W)
        assert np.allclose(mc.transitions.toarray(), 0.5)
        assert np.allclose(mc.stationary, [0.5, 0.5])

    def test_diagonal_only(self):
        W = da.SparseKernelMatrix(weights=sparse.identity(4, format="csr"), sigma=1.0)
        mc = da.markov_normalize(W)
        assert np.allclose(mc.transitions.toarray(), np.eye(4))
        assert np.allclose(mc.stationary, 0.25)

    def test_random_symmetric_stochastic_and_stationary(self):
        rng = np.random.default_rng(14)
        A = rng.uniform(0.1, 1.0, size=(10, 10))
        A = (A + A.T) / 2
        mc = da.markov_normalize(
            da.SparseKernelMatrix(weights=sparse.csr_matrix(A), sigma=1.0)
        )
        rows = np.asarray(mc.transitions.sum(axis=1)).ravel()
        assert np.max(np.abs(rows - 1.0)) <= 1e-12
        pi = mc.stationary
        assert np.max(np.abs(pi @ mc.transitions.toarray() - pi)) <= 1e-10

    def test_zero_degree_reports_index(self):
        A = np.eye(3)
        A[2, 2] = 0.0
        with pytest.raises(ValueError, match="2"):
            da.markov_normalize(
                da.SparseKernelMatrix(weights=sparse.csr_matrix(A), sigma=1.0)
            )


class TestSpectralDecompose:
    def test_two_state_chain_closed_form(self):
        for a in (0.1, 0.25, 0.4):
            W = np.array([[1.0 - a, a], [a, 1.0 - a]])
            mc = da.markov_normalize(
                da.SparseKernelMatrix(weights=sparse.csr_matrix(W), sigma=1.0)
            )
            spec = da.spectral_decompose(mc, 2)
            assert np.allclose(sorted(spec.eigenvalues), sorted([1.0, 1.0 - 2 * a]), atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(15)
        _, _, mc, spec = build_graph_pieces(rng.normal(size=(50, 3)), k=6)
        S = _symmetric_conjugate(mc).toarray()
        evals, evecs = scipy.linalg.eigh(S)
        order = np.lexsort((-evals, -np.abs(evals)))
        assert np.allclose(spec.eigenvalues, evals[order], atol=1e-8)
        psi_oracle = evecs[:, order] / np.sqrt(mc.stationary)[:, None]
        for col in range(50):
            peak = np.argmax(np.abs(psi_oracle[:, col]))
            if psi_oracle[peak, col] < 0:
                psi_oracle[:, col] = -psi_oracle[:, col]
        # sign fixing may be unstable inside degenerate eigenspaces; compare
        # only where eigenvalues are simple
        gaps = np.min(np.abs(spec.eigenvalues[:, None] - spec.eigenvalues[None, :])
                      + np.eye(50), axis=1)
        simple = gaps > 1e-6
        assert np.allclose(spec.basis[:, simple], psi_oracle[:, simple], atol=1e-8)

    def test_disconnected_components_warn(self):
        pts = np.vstack([np.zeros((5, 2)), np.full((5, 2), 100.0)])
        pts += np.random.default_rng(16).normal(scale=0.01, size=pts.shape)
        cloud = da.PointCloud(pts)
        nb = da.knn_search(cloud, 3)
        mc = da.markov_normalize(da.kernel_matrix(nb, 0.05))
        with pytest.warns(UserWarning, match="disconnected"):
            spec = da.spectral_decompose(mc, 5)
        assert np.sum(np.abs(spec.eigenvalues - 1.0) < 1e-8) >= 2

    def test_orthonormality_and_constant_leading_vector(self):
        rng = np.random.default_rng(17)
        _, _, mc, spec = build_graph_pieces(rng.normal(size=(80, 4)), k=8, num_eigs=20)
        G = (spec.basis * spec.stationary[:, None]).T @ spec.basis
        assert np.max(np.abs(G - np.eye(20))) <= 1e-8
        assert abs(spec.eigenvalues[0] - 1.0) <= 1e-10
        assert np.max(np.abs(spec.basis[:, 0] - spec.basis[0, 0])) <= 1e-8

    def test_eigen_residuals(self):
        rng = np.random.default_rng(18)
        _, _, mc, spec = build_graph_pieces(rng.normal(size=(120, 3)), k=8, num_eigs=15)
        P = mc.transitions
        for col in range(spec.num_eigs):
            resid = P @ spec.basis[:, col] - spec.eigenvalues[col] * spec.basis[:, col]
            assert np.linalg.norm(resid) <= 1e-8

    def test_modulus_ordering(self):
        rng = np.random.default_rng(19)
        _, _, _, spec = build_graph_pieces(rng.normal(size=(60, 2)), k=5)
        mods = np.abs(spec.eigenvalues)
        assert np.all(mods[1:-1] + 1e-12 >= mods[2:])

    def test_sparse_iterative_path_matches_dense(self):
        rng = np.random.default_rng(20)
        pts = rng.normal(size=(400, 3))
        _, _, mc, spec = build_graph_pieces(pts, k=10, num_eigs=12)
        S = _symmetric_conjugate(mc).toarray()
        evals = scipy.linalg.eigh(S, eigvals_only=True)
        order = np.lexsort((-evals, -np.abs(evals)))[:12]
        assert np.allclose(spec.eigenvalues, evals[order], atol=1e-10)

    def test_num_eigs_out_of_range(self):
        rng = np.random.default_rng(21)
        _, _, mc, _ = build_graph_pieces(rng.normal(size=(10, 2)), k=3, num_eigs=2)
        with pytest.raises(ValueError):
            da.spectral_decompose(mc, 11)

    def test_spectral_reconstruction_of_matrix_powers(self):
        rng = np.random.default_rng(22)
        for trial in range(3):
            n = int(rng.integers(30, 100))
            _, _, mc, spec = build_graph_pieces(rng.normal(size=(n, 3)), k=6)
            P = mc.transitions.toarray()
            pi = mc.stationary
            for t in (1, 2, 5):
                Pt = np.linalg.matrix_power(P, t)
                rec = (spec.basis * spec.eigenvalues**t) @ spec.basis.T * pi[None, :]
                assert np.max(np.abs(rec - Pt)) <= 1e-8

    def test_sign_flip_leaves_distances_unchanged(self):
        rng = np.random.default_rng(23)
        _, _, _, spec = build_graph_pieces(rng.normal(size=(40, 2)), k=5, num_eigs=10)
        emb = da.diffusion_embed(spec, 2.0)
        flipped = da.SpectralDecomposition(
            eigenvalues=spec.eigenvalues,
            basis=spec.basis * np.where(np.arange(10) % 2 == 0, 1.0, -1.0)[None, :],
            stationary=spec.stationary,
        )
        emb2 = da.diffusion_embed(flipped, 2.0)
        d1 = da.pairwise_diffusion_distances(emb)
        d2 = da.pairwise_diffusion_distances(emb2)
        assert np.allclose(d1, d2, atol=1e-12)

    def test_truncate_small_eigenvalues(self):
        spec = da.SpectralDecomposition(
            eigenvalues=np.array([1.0, 0.5, 1e-9, 1e-12]),
            basis=np.ones((3, 4)),
            stationary=np.full(3, 1 / 3),
        )
        out = da.truncate_small_eigenvalues(spec, 1e-8)
        assert out.num_eigs == 2
        assert da.truncate_small_eigenvalues(spec, 0.0).num_eigs == 4


class TestCache:
    def test_truncated_entries_are_recomputed(self, tmp_path):
        rng = np.random.default_rng(27)
        cloud = da.PointCloud(rng.normal(size=(100, 2)))
        cold = da.build_model(cloud, k=6)
        da.build_model(cloud, k=6, cache_dir=tmp_path)  # populates
        entries = sorted(tmp_path.glob("*.npz"))
        assert len(entries) == 2
        for path in entries:
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        rebuilt = da.build_model(cloud, k=6, cache_dir=tmp_path)
        assert np.array_equal(rebuilt.neighbors.indices, cold.neighbors.indices)
        assert np.array_equal(rebuilt.neighbors.distances, cold.neighbors.distances)
        assert np.array_equal(rebuilt.spectrum.eigenvalues, cold.spectrum.eigenvalues)
        assert np.array_equal(rebuilt.spectrum.basis, cold.spectrum.basis)
        assert np.array_equal(rebuilt.density.p, cold.density.p)
        # the unreadable entries were overwritten and no temp file is left
        assert sorted(tmp_path.iterdir()) == entries
        cache = da.DiffusionCache(tmp_path)
        key = da.content_key(cloud.points, kind="neighbors", k=6)
        assert np.array_equal(cache.load_neighbors(key).indices, cold.neighbors.indices)

    def test_neighbor_roundtrip(self, tmp_path):
        rng = np.random.default_rng(24)
        cloud = da.PointCloud(rng.normal(size=(30, 3)))
        nb = da.knn_search(cloud, 4)
        cache = da.DiffusionCache(tmp_path)
        key = da.content_key(cloud.points, kind="neighbors", k=4)
        assert cache.load_neighbors(key) is None
        cache.save_neighbors(key, nb)
        loaded = cache.load_neighbors(key)
        assert np.array_equal(loaded.indices, nb.indices)
        assert np.array_equal(loaded.distances, nb.distances)

    def test_spectrum_roundtrip_and_key_sensitivity(self, tmp_path):
        rng = np.random.default_rng(25)
        _, _, mc, spec = build_graph_pieces(rng.normal(size=(40, 2)), k=5, num_eigs=6)
        cache = da.DiffusionCache(tmp_path)
        pts = rng.normal(size=(40, 2))
        k1 = da.content_key(pts, kind="spectrum", k=5, sigma=0.5, num_eigs=6)
        k2 = da.content_key(pts, kind="spectrum", k=5, sigma=0.6, num_eigs=6)
        assert k1 != k2
        cache.save_spectrum(k1, spec)
        loaded = cache.load_spectrum(k1)
        assert np.array_equal(loaded.eigenvalues, spec.eigenvalues)
        assert np.array_equal(loaded.basis, spec.basis)
        assert cache.load_spectrum(k2) is None

    def test_cached_model_matches_fresh(self, tmp_path):
        rng = np.random.default_rng(26)
        cloud = da.PointCloud(rng.normal(size=(100, 2)))
        fresh = da.build_model(cloud, k=6)
        warm = da.build_model(cloud, k=6, cache_dir=tmp_path)   # populates
        cached = da.build_model(cloud, k=6, cache_dir=tmp_path)  # hits cache
        for model in (warm, cached):
            assert np.array_equal(model.spectrum.eigenvalues, fresh.spectrum.eigenvalues)
            assert np.array_equal(model.spectrum.basis, fresh.spectrum.basis)
            assert np.array_equal(model.neighbors.indices, fresh.neighbors.indices)
