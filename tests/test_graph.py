import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import diffal as da
from diffal.cache import params_key, points_hash, read_arrays, write_arrays
from diffal.graph import NumericalError, _symmetric_conjugate

from conftest import brute_force_knn, build_graph_pieces
from reference import pairwise_distances, transition_matrix


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


def _kernel(A):
    return da.SparseKernelMatrix(weights=sparse.csr_matrix(A))


class TestDegreesAndStationary:
    def test_two_state_all_ones(self):
        spec = da.spectral_decompose(_kernel(np.ones((2, 2))), 2)
        assert np.allclose(spec.stationary, [0.5, 0.5])

    def test_diagonal_only(self):
        spec = da.spectral_decompose(_kernel(np.eye(4)), 4)
        assert np.allclose(spec.stationary, 0.25)

    def test_random_symmetric_stationary(self):
        rng = np.random.default_rng(14)
        A = rng.uniform(0.1, 1.0, size=(10, 10))
        A = (A + A.T) / 2
        W = _kernel(A)
        pi = da.spectral_decompose(W, 10).stationary
        P, _ = transition_matrix(W)
        assert np.max(np.abs(pi @ P.toarray() - pi)) <= 1e-10

    def test_zero_degree_reports_index(self):
        A = np.eye(3)
        A[2, 2] = 0.0
        with pytest.raises(ValueError, match="vertex 2 has non-positive degree"):
            da.spectral_decompose(_kernel(A), 1)

    def test_conjugate_is_the_transition_matrix_conjugated(self):
        # bit for bit: D^(1/2) P D^(-1/2) averaged with its transpose
        rng = np.random.default_rng(24)
        _, _, W, _ = build_graph_pieces(rng.normal(size=(200, 3)), k=8, num_eigs=5)
        P, pi = transition_matrix(W)
        S, degrees = _symmetric_conjugate(W)
        assert np.array_equal(degrees / degrees.sum(), pi)
        sqrt_d = np.sqrt(degrees)
        want = sparse.csr_matrix(P.multiply(sqrt_d[:, None]).multiply(1.0 / sqrt_d[None, :]))
        want = (want + want.T) * 0.5
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(S, part), getattr(want, part))


class TestSpectralDecompose:
    def test_two_state_chain_closed_form(self):
        for a in (0.1, 0.25, 0.4):
            W = _kernel([[1.0 - a, a], [a, 1.0 - a]])
            spec = da.spectral_decompose(W, 2)
            assert np.allclose(sorted(spec.eigenvalues), sorted([1.0, 1.0 - 2 * a]), atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(15)
        _, _, W, spec = build_graph_pieces(rng.normal(size=(50, 3)), k=6)
        S = _symmetric_conjugate(W)[0].toarray()
        evals, evecs = scipy.linalg.eigh(S)
        order = np.lexsort((-evals, -np.abs(evals)))
        assert np.allclose(spec.eigenvalues, evals[order], atol=1e-8)
        psi_oracle = evecs[:, order] / np.sqrt(transition_matrix(W)[1])[:, None]
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
        W = da.kernel_matrix(nb, 0.05)
        with pytest.warns(UserWarning, match="disconnected"):
            spec = da.spectral_decompose(W, 5)
        assert np.sum(np.abs(spec.eigenvalues - 1.0) < 1e-8) >= 2

    def test_orthonormality_and_constant_leading_vector(self):
        rng = np.random.default_rng(17)
        _, _, _, spec = build_graph_pieces(rng.normal(size=(80, 4)), k=8, num_eigs=20)
        G = (spec.basis * spec.stationary[:, None]).T @ spec.basis
        assert np.max(np.abs(G - np.eye(20))) <= 1e-8
        assert abs(spec.eigenvalues[0] - 1.0) <= 1e-10
        assert np.max(np.abs(spec.basis[:, 0] - spec.basis[0, 0])) <= 1e-8

    def test_eigen_residuals(self):
        rng = np.random.default_rng(18)
        _, _, W, spec = build_graph_pieces(rng.normal(size=(120, 3)), k=8, num_eigs=15)
        P, _ = transition_matrix(W)
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
        _, _, W, spec = build_graph_pieces(pts, k=10, num_eigs=12)
        S = _symmetric_conjugate(W)[0].toarray()
        evals = scipy.linalg.eigh(S, eigvals_only=True)
        order = np.lexsort((-evals, -np.abs(evals)))[:12]
        assert np.allclose(spec.eigenvalues, evals[order], atol=1e-10)

    def test_num_eigs_out_of_range(self):
        rng = np.random.default_rng(21)
        _, _, W, _ = build_graph_pieces(rng.normal(size=(10, 2)), k=3, num_eigs=2)
        with pytest.raises(ValueError):
            da.spectral_decompose(W, 11)

    def test_spectral_reconstruction_of_matrix_powers(self):
        rng = np.random.default_rng(22)
        for trial in range(3):
            n = int(rng.integers(30, 100))
            _, _, W, spec = build_graph_pieces(rng.normal(size=(n, 3)), k=6)
            P, pi = transition_matrix(W)
            P = P.toarray()
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
        d1 = pairwise_distances(emb.coords)
        d2 = pairwise_distances(emb2.coords)
        assert np.allclose(d1, d2, atol=1e-12)

    def test_truncate_small_eigenvalues(self):
        spec = da.SpectralDecomposition(
            eigenvalues=np.array([1.0, 0.5, 1e-9, 1e-12]),
            basis=np.ones((3, 4)),
            stationary=np.full(3, 1 / 3),
        )
        out = da.truncate_small_eigenvalues(spec)
        assert out.num_eigs == 2


class TestDuplicatePoints:
    """20 distinct points with 30 copies each: every point's k-th neighbor
    (k = 20 by default) is an exact duplicate, so the default sigma is 0."""

    @staticmethod
    def _cloud():
        base = np.random.default_rng(28).normal(size=(20, 3))
        return da.PointCloud(np.repeat(base, 30, axis=0))

    def test_zero_default_sigma_is_a_data_error(self):
        with pytest.raises(da.DataError, match="deduplicate the data or pass --sigma"):
            da.build_model(self._cloud())

    def test_explicit_nonpositive_sigma_stays_a_value_error(self):
        with pytest.raises(ValueError, match="sigma must be positive"):
            da.build_model(self._cloud(), sigma=0.0)


class TestCache:
    def test_truncated_entries_are_recomputed(self, tmp_path):
        rng = np.random.default_rng(27)
        cloud = da.PointCloud(rng.normal(size=(100, 2)))
        cold = da.build_model(cloud, k=6)
        da.build_model(cloud, k=6, cache_dir=tmp_path)  # populates
        entries = sorted(tmp_path.glob("*.bin"))
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
        key = params_key(points_hash(cloud.points), kind="neighbors", k=6)
        assert np.array_equal(cache.load_neighbors(key, shape=(cloud.n, 6)).indices,
                              cold.neighbors.indices)

    def test_neighbor_roundtrip(self, tmp_path):
        rng = np.random.default_rng(24)
        cloud = da.PointCloud(rng.normal(size=(30, 3)))
        nb = da.knn_search(cloud, 4)
        cache = da.DiffusionCache(tmp_path)
        key = params_key(points_hash(cloud.points), kind="neighbors", k=4)
        assert cache.load_neighbors(key, shape=(30, 4)) is None
        cache.save_neighbors(key, nb)
        loaded = cache.load_neighbors(key, shape=(30, 4))
        assert np.array_equal(loaded.indices, nb.indices)
        assert np.array_equal(loaded.distances, nb.distances)

    def test_spectrum_roundtrip_and_key_sensitivity(self, tmp_path):
        rng = np.random.default_rng(25)
        _, _, _, spec = build_graph_pieces(rng.normal(size=(40, 2)), k=5, num_eigs=6)
        cache = da.DiffusionCache(tmp_path)
        pts = rng.normal(size=(40, 2))
        k1 = params_key(points_hash(pts), kind="spectrum", k=5, sigma=0.5, num_eigs=6)
        k2 = params_key(points_hash(pts), kind="spectrum", k=5, sigma=0.6, num_eigs=6)
        assert k1 != k2
        cache.save_spectrum(k1, spec)
        loaded = cache.load_spectrum(k1, shape=(40, 6))
        assert np.array_equal(loaded.eigenvalues, spec.eigenvalues)
        assert np.array_equal(loaded.basis, spec.basis)
        assert cache.load_spectrum(k2, shape=(40, 6)) is None

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

    def test_entry_file_keeps_names_dtypes_shapes_and_values(self, tmp_path):
        rng = np.random.default_rng(28)
        arrays = {"basis": np.asfortranarray(rng.normal(size=(7, 3))),
                  "indices": np.arange(12, dtype=np.int64).reshape(3, 4),
                  "empty": np.zeros((0, 5)), "format_version": np.array([2], dtype=np.int64)}
        path = tmp_path / "entry.bin"
        with open(path, "wb") as fh:
            write_arrays(fh, arrays)
        loaded = read_arrays(path, [(name, value.dtype, value.shape)
                                    for name, value in arrays.items()])
        assert list(loaded) == list(arrays)
        for name, want in arrays.items():
            assert loaded[name].dtype == want.dtype
            assert np.array_equal(loaded[name], want)
        loaded["basis"][0, 0] = 1.0  # loaded arrays are writable

    @pytest.mark.parametrize("damage", ["magic", "short", "trailing byte", "object dtype"])
    def test_damaged_entry_file_raises(self, tmp_path, damage):
        path = tmp_path / "entry.bin"
        with open(path, "wb") as fh:
            write_arrays(fh, {"rho": np.ones(4)})
        data = path.read_bytes()
        data = {"magic": b"X" + data[1:], "short": data[:-1], "trailing byte": data + b"\0",
                "object dtype": data.replace(b"<f8", b"|O\0")}[damage]
        path.write_bytes(data)
        with pytest.raises(ValueError):
            read_arrays(path, [("rho", np.float64, (4,))])
