"""The sparse eigensolver path chosen from the graph's two-hop growth, the
inertia count that proves the shift-invert pairs complete and the recovery
of missed ones, the residual check on every returned eigenpair, and
spectrum cache entries that cannot be trusted."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import diffal as da
import diffal.graph as graph
import diffal.pipeline as pipeline
from diffal.cache import params_key, points_hash, read_arrays, write_arrays
from diffal.cli import main
from diffal.graph import _PLANAR_GROWTH, _symmetric_conjugate, _two_hop_growth

from reference import transition_matrix

NUM_EIGS = 25


def _kernel(points, k=20):
    cloud = da.PointCloud(np.asarray(points, dtype=float))
    nb = da.knn_search(cloud, k)
    return da.kernel_matrix(nb, da.default_sigma(nb))


def _cloud(dim, n=600, seed=40):
    return np.random.default_rng(seed).normal(size=(n, dim))


def _spy_shift_invert(monkeypatch):
    calls = []
    real = graph._sparse_eigensolve

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(graph, "_sparse_eigensolve", spy)
    return calls


class TestPathChoice:
    def test_planar_cloud_takes_shift_invert(self, monkeypatch):
        W = _kernel(_cloud(2))
        assert _two_hop_growth(_symmetric_conjugate(W)[0]) <= _PLANAR_GROWTH
        calls = _spy_shift_invert(monkeypatch)
        da.spectral_decompose(W, NUM_EIGS)
        assert calls == [NUM_EIGS]

    def test_five_dimensional_cloud_takes_plain_lanczos(self, monkeypatch):
        W = _kernel(_cloud(5))
        assert _two_hop_growth(_symmetric_conjugate(W)[0]) > _PLANAR_GROWTH
        calls = _spy_shift_invert(monkeypatch)
        da.spectral_decompose(W, NUM_EIGS)
        assert calls == []

    @pytest.mark.parametrize("dim", [2, 5])
    def test_matches_dense_eigh(self, dim):
        W = _kernel(_cloud(dim))
        spec = da.spectral_decompose(W, NUM_EIGS)
        S = _symmetric_conjugate(W)[0]
        evals, evecs = scipy.linalg.eigh(S.toarray())
        order = np.lexsort((-evals, -np.abs(evals)))
        assert np.max(np.abs(spec.eigenvalues - evals[order[:NUM_EIGS]])) <= 1e-10

        # an eigenvector is determined up to sign only where its eigenvalue
        # is simple in the whole spectrum
        gaps = np.abs(evals[order[:NUM_EIGS], None] - evals[None, :])
        gaps[np.arange(NUM_EIGS), order[:NUM_EIGS]] = np.inf
        simple = gaps.min(axis=1) > 1e-6
        assert simple.sum() >= NUM_EIGS // 2
        want = evecs[:, order[:NUM_EIGS]] / np.sqrt(transition_matrix(W)[1])[:, None]
        want *= np.sign(np.sum(want * spec.basis, axis=0))[None, :]
        assert np.max(np.abs(spec.basis[:, simple] - want[:, simple])) <= 1e-8

        V = spec.basis * np.sqrt(spec.stationary)[:, None]
        residual = np.linalg.norm(S @ V - V * spec.eigenvalues[None, :], axis=0)
        assert residual.max() <= 1e-8

    def test_disconnected_non_planar_graph_warns(self):
        rng = np.random.default_rng(41)
        pts = np.vstack([rng.normal(size=(300, 5)), 100.0 + rng.normal(size=(300, 5))])
        W = _kernel(pts, k=10)
        assert _two_hop_growth(_symmetric_conjugate(W)[0]) > _PLANAR_GROWTH
        with pytest.warns(UserWarning, match="appears disconnected"):
            spec = da.spectral_decompose(W, NUM_EIGS)
        assert np.sum(np.abs(spec.eigenvalues - 1.0) < 1e-8) >= 2


def _assert_top_pairs_match_dense(W, spec):
    evals = scipy.linalg.eigh(_symmetric_conjugate(W)[0].toarray(), eigvals_only=True)
    order = np.lexsort((-evals, -np.abs(evals)))
    assert np.max(np.abs(spec.eigenvalues - evals[order[:NUM_EIGS]])) <= 1e-10


def _spy_shift_invert_solves(monkeypatch, drop_first_top=False):
    """Record k of every shift-invert Lanczos run; with drop_first_top, the
    first run loses its largest pair, as a missed copy of 1 would be lost."""
    calls = []
    real = graph._shift_invert

    def spy(S, solve, k, v0):
        calls.append(k)
        vals, vecs = real(S, solve, k, v0)
        if drop_first_top and len(calls) == 1:
            keep = np.arange(k) != np.argmax(vals)
            return vals[keep], vecs[:, keep]
        return vals, vecs

    monkeypatch.setattr(graph, "_shift_invert", spy)
    return calls


class TestCompleteness:
    """The inertia count proves the shift-invert pairs complete above mu;
    when it shows pairs missing, the recovery adds them or fails with exit 4."""

    def test_every_copy_of_one_of_separate_components_is_returned(self):
        # six single points 12 from a Gaussian cloud of 400, each with kernel
        # weights below 1e-17 to every other point: seven numerically
        # separate components, so 1 is an eigenvalue seven times over
        rng = np.random.default_rng(0)
        angle = np.arange(6) * np.pi / 3
        far = 12.0 * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        W = _kernel(np.vstack([rng.normal(size=(400, 2)), far]))
        assert transition_matrix(W)[0][400:, :400].max() < 1e-17
        assert _two_hop_growth(_symmetric_conjugate(W)[0]) <= _PLANAR_GROWTH
        with pytest.warns(UserWarning, match="appears disconnected"):
            spec = da.spectral_decompose(W, NUM_EIGS)
        assert np.sum(spec.eigenvalues >= 1.0 - 1e-12) == 7
        _assert_top_pairs_match_dense(W, spec)

    def test_a_missed_pair_is_recovered_in_one_round(self, monkeypatch):
        W = _kernel(_cloud(2))
        calls = _spy_shift_invert_solves(monkeypatch, drop_first_top=True)
        spec = da.spectral_decompose(W, NUM_EIGS)
        assert calls == [NUM_EIGS, 1]
        _assert_top_pairs_match_dense(W, spec)

    @pytest.mark.parametrize("excess, message, solves", [
        # every round finds the next pair, which lies below mu
        (1, "recovery rounds", [NUM_EIGS] + [1] * graph._RECOVERY_ROUNDS),
        (-1, "is below the 25 shift-invert returned", [NUM_EIGS]),
    ])
    def test_a_count_the_pairs_cannot_meet_exits_4(
        self, monkeypatch, tmp_path, capsys, excess, message, solves
    ):
        real = graph._count_above
        monkeypatch.setattr(graph, "_count_above", lambda S, mu: real(S, mu) + excess)
        calls = _spy_shift_invert_solves(monkeypatch)
        with pytest.raises(da.NumericalError, match=message):
            da.spectral_decompose(_kernel(_cloud(2)), NUM_EIGS)
        assert calls == solves

        points = tmp_path / "points.csv"
        da.save_csv(points, da.PointCloud(_cloud(2, n=400)))
        out = tmp_path / "labels.txt"
        assert main(["lund", "--data", str(points), "--t", "10", "--out", str(out)]) == 4
        err = capsys.readouterr().err.strip()
        assert err.startswith("numerical failure:") and message in err
        assert "\n" not in err
        assert not out.exists()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 80), st.integers(1, 3),
       st.integers(2, 8), st.floats(-1.0, 1.0))
def test_inertia_count_equals_dense_count(seed, n, dim, k, mu):
    S = _symmetric_conjugate(_kernel(np.random.default_rng(seed).normal(size=(n, dim)), k=k))[0]
    evals = scipy.linalg.eigh(S.toarray(), eigvals_only=True)
    assume(np.min(np.abs(evals - mu)) > 1e-8)
    assert graph._count_above(S, mu) == np.count_nonzero(evals > mu)


def _perturb_first_eigenvalue(vals, vecs):
    vals = vals.copy()
    vals[0] += 1e-6
    return vals, vecs


class TestResidualCheck:
    def test_wrong_plain_lanczos_pair_is_a_numerical_error(self, monkeypatch):
        W = _kernel(_cloud(5))
        real = graph.splinalg.eigsh
        monkeypatch.setattr(
            graph.splinalg, "eigsh",
            lambda *args, **kwargs: _perturb_first_eigenvalue(*real(*args, **kwargs)),
        )
        with pytest.raises(da.NumericalError, match="residual"):
            da.spectral_decompose(W, NUM_EIGS)

    def test_wrong_shift_invert_pair_exits_4(self, monkeypatch, tmp_path, capsys):
        real = graph._sparse_eigensolve
        monkeypatch.setattr(
            graph, "_sparse_eigensolve",
            lambda *args: _perturb_first_eigenvalue(*real(*args)),
        )
        points = tmp_path / "points.csv"
        da.save_csv(points, da.PointCloud(_cloud(2, n=400)))
        out = tmp_path / "labels.txt"
        assert main(["lund", "--data", str(points), "--t", "10", "--out", str(out)]) == 4
        err = capsys.readouterr().err.strip()
        assert err.startswith("numerical failure:") and "residual" in err
        assert "\n" not in err
        assert not out.exists()


class TestUntrustedCacheEntries:
    K = 6

    @staticmethod
    def _cloud():
        return da.PointCloud(np.random.default_rng(42).normal(size=(100, 2)))

    def _assert_same(self, model, fresh):
        assert np.array_equal(model.neighbors.indices, fresh.neighbors.indices)
        assert np.array_equal(model.neighbors.distances, fresh.neighbors.distances)
        assert np.array_equal(model.spectrum.eigenvalues, fresh.spectrum.eigenvalues)
        assert np.array_equal(model.spectrum.basis, fresh.spectrum.basis)

    def test_spectrum_of_another_solver_version_is_recomputed(self, tmp_path, monkeypatch):
        cloud = self._cloud()
        fresh = da.build_model(cloud, k=self.K)
        num_eigs = da.default_num_eigs(cloud.n)
        # a wrong spectrum of the right shape under the key of a cache that
        # did not record the solver version
        old_key = params_key(points_hash(cloud.points), kind="spectrum", k=self.K,
                             sigma=fresh.sigma, num_eigs=num_eigs)
        cache = da.DiffusionCache(tmp_path)
        cache.save_spectrum(old_key, da.SpectralDecomposition(
            eigenvalues=np.ones(num_eigs), basis=np.ones((cloud.n, num_eigs)),
            stationary=np.full(cloud.n, 1.0 / cloud.n),
        ))
        self._assert_same(da.build_model(cloud, k=self.K, cache_dir=tmp_path), fresh)
        assert len(list(tmp_path.glob("eig_*.bin"))) == 2

        # a new solver version misses the spectrum but reuses the neighbors
        monkeypatch.setattr(pipeline, "EIGENSOLVER_VERSION", graph.EIGENSOLVER_VERSION + 1)
        self._assert_same(da.build_model(cloud, k=self.K, cache_dir=tmp_path), fresh)
        assert len(list(tmp_path.glob("eig_*.bin"))) == 3
        assert len(list(tmp_path.glob("nb_*.bin"))) == 1

    def test_misshapen_neighbor_entry_is_a_miss_and_overwritten(self, tmp_path):
        cloud = self._cloud()
        fresh = da.build_model(cloud, k=self.K)
        key = params_key(points_hash(cloud.points), kind="neighbors", k=self.K)
        cache = da.DiffusionCache(tmp_path)
        short = da.knn_search(cloud, self.K - 1)
        cache.save_neighbors(key, short)
        assert cache.load_neighbors(key, shape=(cloud.n, self.K)) is None
        self._assert_same(da.build_model(cloud, k=self.K, cache_dir=tmp_path), fresh)
        loaded = cache.load_neighbors(key, shape=(cloud.n, self.K))
        assert np.array_equal(loaded.indices, fresh.neighbors.indices)

    def test_misshapen_spectrum_entry_is_a_miss_and_overwritten(self, tmp_path):
        cloud = self._cloud()
        fresh = da.build_model(cloud, k=self.K)
        num_eigs = da.default_num_eigs(cloud.n)
        key = params_key(
            points_hash(cloud.points), kind="spectrum", k=self.K, sigma=fresh.sigma,
            num_eigs=num_eigs, solver=graph.EIGENSOLVER_VERSION,
        )
        cache = da.DiffusionCache(tmp_path)
        cache.save_spectrum(key, da.SpectralDecomposition(
            eigenvalues=fresh.spectrum.eigenvalues[:-1],
            basis=fresh.spectrum.basis[:, :-1],
            stationary=fresh.spectrum.stationary,
        ))
        assert cache.load_spectrum(key, shape=(cloud.n, num_eigs)) is None
        self._assert_same(da.build_model(cloud, k=self.K, cache_dir=tmp_path), fresh)
        loaded = cache.load_spectrum(key, shape=(cloud.n, num_eigs))
        assert loaded.eigenvalues.shape == (num_eigs,)

    @pytest.mark.parametrize("fault", ["misshapen", "missing", "retyped"])
    @pytest.mark.parametrize("array", ["indices", "distances", "eigenvalues", "basis",
                                       "stationary"])
    def test_entry_with_one_bad_array_is_a_miss_and_overwritten(self, tmp_path, array, fault):
        cloud = self._cloud()
        fresh = da.build_model(cloud, k=self.K, cache_dir=tmp_path)
        cache = da.DiffusionCache(tmp_path)
        if array in ("indices", "distances"):
            kind, load, shape = "nb", cache.load_neighbors, (cloud.n, self.K)
            layout = [("indices", np.int64, shape), ("distances", np.float64, shape)]
        else:
            kind, load = "eig", cache.load_spectrum
            shape = (cloud.n, da.default_num_eigs(cloud.n))
            layout = [("eigenvalues", np.float64, shape[1:]), ("basis", np.float64, shape),
                      ("stationary", np.float64, shape[:1])]
        (path,) = tmp_path.glob(f"{kind}_*.bin")
        key = path.stem.split("_", 1)[1]
        good = read_arrays(path, layout)
        bad = dict(good)
        if fault == "misshapen":
            bad[array] = good[array][:-1]
        elif fault == "retyped":  # same shape, float indices or single-precision values
            bad[array] = good[array].astype(np.float64 if array == "indices" else np.float32)
        else:
            del bad[array]
        with open(path, "wb") as fh:
            write_arrays(fh, bad)
        assert load(key, shape=shape) is None

        self._assert_same(da.build_model(cloud, k=self.K, cache_dir=tmp_path), fresh)
        data = read_arrays(path, layout)
        assert sorted(data) == sorted(good)
        assert all(np.array_equal(data[name], good[name]) for name in good)
        assert load(key, shape=shape) is not None


def _no_convergence(*args, **kwargs):
    raise graph.splinalg.ArpackNoConvergence("no convergence", np.zeros(3), None)


def _failed_factorization(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def _inconclusive_probe(*args, **kwargs):
    return np.array([-1.0])


class TestHandover:
    """Shift-invert keeps its pairs only when the bottom probe proves them;
    every other outcome hands over to one plain Lanczos call."""

    @staticmethod
    def _record_eigsh(monkeypatch, **faults):
        """Replace eigsh with a recorder of its calls as "shift", "probe" or
        "plain"; a call of a kind named in faults goes to that fault."""
        calls = []
        real = graph.splinalg.eigsh

        def eigsh(*args, **kwargs):
            kind = ("shift" if kwargs.get("sigma") is not None
                    else "probe" if kwargs.get("which") == "SA" else "plain")
            calls.append(kind)
            return faults.get(kind, real)(*args, **kwargs)

        monkeypatch.setattr(graph.splinalg, "eigsh", eigsh)
        return calls

    @pytest.mark.parametrize("faults, want", [
        ({}, ["shift", "probe"]),
        ({"probe": _inconclusive_probe}, ["shift", "probe", "plain"]),
        ({"probe": _no_convergence}, ["shift", "probe", "plain"]),
        ({"shift": _failed_factorization}, ["shift", "plain"]),
        ({"shift": _out_of_memory}, ["shift", "plain"]),
    ])
    def test_every_outcome_matches_dense_eigh(self, monkeypatch, faults, want):
        W = _kernel(_cloud(2))
        calls = self._record_eigsh(monkeypatch, **faults)
        spec = da.spectral_decompose(W, NUM_EIGS)
        assert calls == want
        _assert_top_pairs_match_dense(W, spec)

    def test_a_count_that_cannot_be_read_hands_over(self, monkeypatch):
        # a pivot off the diagonal: the factor is no congruence
        W = _kernel(_cloud(2))
        monkeypatch.setattr(graph, "_count_above", lambda S, mu: None)
        calls = self._record_eigsh(monkeypatch)
        spec = da.spectral_decompose(W, NUM_EIGS)
        assert calls == ["shift", "probe", "plain"]
        _assert_top_pairs_match_dense(W, spec)

    @pytest.mark.parametrize("dim, want", [(2, ["shift", "plain"]), (5, ["plain"])])
    def test_plain_lanczos_without_convergence_exits_4(
        self, monkeypatch, tmp_path, capsys, dim, want
    ):
        # on the 2-D cloud the factorization fails first, so the failure
        # comes from the handover
        calls = self._record_eigsh(
            monkeypatch, shift=_failed_factorization, plain=_no_convergence
        )
        points = tmp_path / "points.csv"
        da.save_csv(points, da.PointCloud(_cloud(dim, n=400)))
        out = tmp_path / "labels.txt"
        assert main(["lund", "--data", str(points), "--t", "10", "--out", str(out)]) == 4
        assert calls == want
        err = capsys.readouterr().err.strip()
        assert err.startswith("numerical failure:") and "did not converge (3/25" in err
        assert "\n" not in err
        assert not out.exists()
