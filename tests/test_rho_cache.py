"""Nearest-denser results cached per diffusion time.

A second command on the same points, graph parameters and t runs no
nearest-denser search; a change to any input of rho misses; an entry that
cannot be trusted is a miss and is overwritten; and cached scores and CLI
outputs equal uncached ones bit for bit."""

import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffal as da
from diffal import pipeline
from diffal.cache import read_arrays, write_arrays
from diffal.cli import main


@pytest.fixture()
def searches(monkeypatch):
    """The diffusion time of every nearest-denser search, in call order."""
    calls = []
    real = pipeline.nearest_denser_points

    def spy(emb, dens, width):
        calls.append(emb.t)
        return real(emb, dens, width)

    monkeypatch.setattr(pipeline, "nearest_denser_points", spy)
    return calls


@pytest.fixture()
def dataset(tmp_path):
    cloud, truth = da.gen_gaussians([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]], 0.5,
                                    [50, 50, 50], seed=11)
    points, labels = tmp_path / "points.csv", tmp_path / "truth.txt"
    da.save_csv(points, cloud)
    da.save_labels(labels, truth)
    return str(points), str(labels)


def _bench(dataset, out, *extra):
    points, labels = dataset
    return main(["bench", "--dataset", points, "--truth", labels,
                 "--methods", "land,land-random,cbal,lund", "--budgets", "2,3", "--trials", "2",
                 "--t", "auto", "--out", str(out), *extra])


def _purity(dataset, out, *extra):
    points, labels = dataset
    return main(["purity", "--data", points, "--truth", labels, "--t", "auto", "--levels", "6",
                 "--out", str(out), *extra])


def _label(command, dataset, out, t, *extra):
    """land with budget 4 or lund with 3 clusters at --t t."""
    points, labels = dataset
    size = ["--budget", "4"] if command == "land" else ["--num-clusters", "3"]
    return main([command, "--data", points, "--truth", labels, "--t", t, *size,
                 "--out", str(out), *extra])


class TestSecondCommandSearchesNothing:
    def test_purity_after_bench(self, dataset, tmp_path, searches):
        cache = ["--cache", str(tmp_path / "cache")]
        assert _bench(dataset, tmp_path / "out", *cache) == 0
        assert searches
        searches.clear()
        assert _purity(dataset, tmp_path / "purity.csv", *cache) == 0
        assert searches == []

    def test_lund_after_land(self, dataset, tmp_path, searches):
        cache = ["--cache", str(tmp_path / "cache")]
        assert _label("land", dataset, tmp_path / "land.txt", "1000", *cache) == 0
        assert searches == [1000.0]
        assert _label("lund", dataset, tmp_path / "lund.txt", "1000", *cache) == 0
        assert searches == [1000.0]

    def test_explicit_t_hits_the_auto_scan_entry(self, dataset, tmp_path, searches):
        # the scan keys its np.float64 grid times as floats, so the typed time hits
        cache = ["--cache", str(tmp_path / "cache")]
        assert _bench(dataset, tmp_path / "out", *cache) == 0
        t = json.loads((tmp_path / "out" / "manifest.json").read_text())["resolved"]["t"]
        assert t in searches and not float(t).is_integer()
        searches.clear()
        assert _label("lund", dataset, tmp_path / "lund.txt", repr(t), *cache) == 0
        assert searches == []

    @pytest.mark.parametrize("flag", [["--sigma0", "1.5"], ["--k", "12"], ["--num-eigs", "10"]])
    def test_another_input_of_rho_misses(self, dataset, tmp_path, searches, flag):
        cache = ["--cache", str(tmp_path / "cache")]
        assert _label("lund", dataset, tmp_path / "a.txt", "1000", *cache) == 0
        assert _label("lund", dataset, tmp_path / "b.txt", "1000", *cache, *flag) == 0
        assert searches == [1000.0, 1000.0]
        assert len(list((tmp_path / "cache").glob("rho_*.bin"))) == 2


def test_outputs_are_byte_identical_with_and_without_a_cache(dataset, tmp_path):
    """Each command runs without a cache, then twice on one cache (a cold
    run that saves, a warm one that loads); every output is the same."""
    runs = {"none": [], "cold": ["--cache", str(tmp_path / "cache")]}
    runs["warm"] = runs["cold"]
    outputs = {}
    for run, cache in runs.items():
        out = tmp_path / run
        out.mkdir()
        assert _bench(dataset, out / "bench", *cache) == 0
        assert _purity(dataset, out / "purity.csv", *cache) == 0
        assert _label("land", dataset, out / "land.txt", "1000", *cache) == 0
        assert _label("lund", dataset, out / "lund.txt", "1000", *cache,
                      "--scores-out", str(out / "scores.csv")) == 0
        outputs[run] = [(out / name).read_bytes() for name in (
            "bench/results.csv", "purity.csv", "land.txt", "lund.txt", "scores.csv")]
    assert outputs["cold"] == outputs["none"]
    assert outputs["warm"] == outputs["none"]


def _rho_layout(n):
    """The (name, dtype, shape) triples of a rho entry of n points."""
    return [("rho", np.float64, (n,)), ("nearest_higher", np.int64, (n,))]


def _format_2_entry(arrays):
    """The bytes of arrays as the format-2 writer stored them: the magic, the
    array count, a (name, dtype string, ndim) head and the shape per array,
    a format_version array [2] last, then every array's bytes."""
    arrays = {**arrays, "format_version": np.array([2], dtype=np.int64)}
    head = [b"DIFFALCA", struct.pack("<I", len(arrays))]
    for name, value in arrays.items():
        head += [struct.pack("<16s8sI", name.encode(), value.dtype.str.encode(), value.ndim),
                 struct.pack(f"<{value.ndim}q", *value.shape)]
    return b"".join(head + [value.tobytes() for value in arrays.values()])


class TestUntrustedRhoEntries:
    T = 10

    @staticmethod
    def _model(tmp_path):
        cloud = da.PointCloud(np.random.default_rng(42).normal(size=(100, 2)))
        return da.build_model(cloud, k=6, cache_dir=tmp_path)

    @pytest.mark.parametrize("fault", ["truncated", "stale", "format 2", "misshapen rho",
                                       "misshapen nearest_higher", "missing rho",
                                       "missing nearest_higher", "retyped rho",
                                       "retyped nearest_higher"])
    def test_untrusted_entry_is_a_miss_and_overwritten(self, tmp_path, searches, fault):
        _, want = self._model(tmp_path).scores_at(self.T)
        (path,) = tmp_path.glob("rho_*.bin")
        good = read_arrays(path, _rho_layout(100))
        data = path.read_bytes()
        if fault == "truncated":
            path.write_bytes(data[: len(data) // 2])
        elif fault == "stale":  # the header's version field, after the 8-byte magic, reads 2
            path.write_bytes(data[:8] + struct.pack("<I", 2) + data[12:])
        elif fault == "format 2":  # an entry as the previous format wrote it
            path.write_bytes(_format_2_entry(good))
        else:
            bad = dict(good)
            how, _, array = fault.partition(" ")
            if how == "misshapen":
                bad[array] = good[array][:-1]
            elif how == "retyped":  # same shape, float indices or single-precision rho
                bad[array] = good[array].astype(np.float64 if array == "nearest_higher"
                                                else np.float32)
            else:
                del bad[array]
            with open(path, "wb") as fh:
                write_arrays(fh, bad)
        key = path.stem.split("_", 1)[1]
        assert da.DiffusionCache(tmp_path).load_rho(key, shape=(100,)) is None

        # a rebuilt model searches once, scores as before and rewrites the entry
        searches.clear()
        _, got = self._model(tmp_path).scores_at(self.T)
        assert searches == [float(self.T)]
        for name in ("rho", "nearest_higher", "score", "order"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        data = read_arrays(path, _rho_layout(100))
        assert sorted(data) == sorted(good)
        assert all(np.array_equal(data[name], good[name]) for name in good)
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".bin"] * 3  # no temp file left

    def test_zero_mode_score_time_writes_no_entry(self, tmp_path, searches):
        model = self._model(tmp_path)
        with pytest.raises(da.NumericalError, match="zero mode score"):
            model.scores_at(1e12)
        assert searches == []
        assert not list(tmp_path.glob("rho_*.bin"))

    def test_rho_entry_holds_16_bytes_per_point(self, tmp_path):
        model = self._model(tmp_path)
        model.scores_at(self.T)
        data = read_arrays(next(tmp_path.glob("rho_*.bin")), _rho_layout(model.n))
        assert sum(data[name].nbytes for name in ("rho", "nearest_higher")) == 16 * model.n


@st.composite
def clouds(draw):
    """Small 1- to 3-D clouds on a coarse lattice, so duplicate points are
    common, and a time from a half-decade grid or a non-integer one."""
    n = draw(st.integers(8, 30))
    dim = draw(st.integers(1, 3))
    coords = draw(st.lists(st.integers(-6, 6), min_size=n * dim, max_size=n * dim))
    points = np.array(coords, dtype=np.float64).reshape(n, dim) / 3.0
    t = draw(st.one_of(st.sampled_from([float(t) for t in da.log_t_grid(0, 3, 0.5)]),
                       st.floats(0.0, 50.0, allow_nan=False)))
    return points, t


@settings(max_examples=60, deadline=None)
@given(clouds())
def test_cached_scores_equal_uncached_bit_for_bit(case):
    points, t = case
    cloud = da.PointCloud(points)
    try:
        plain = da.build_model(cloud)
    except (da.DataError, da.NumericalError):
        return  # e.g. every k-th neighbor is a duplicate: no default sigma
    with tempfile.TemporaryDirectory() as directory:
        cached = da.build_model(cloud, cache_dir=directory)
        try:
            want = plain.scores_at(t)
        except da.NumericalError as exc:
            # raised before the lookup, so no entry is written
            with pytest.raises(da.NumericalError) as raised:
                cached.scores_at(t)
            assert str(raised.value) == str(exc)
            assert not [name for name in os.listdir(directory) if name.startswith("rho_")]
            return
        for _ in ("miss", "hit"):
            emb, scores = cached.scores_at(t)
            assert np.array_equal(emb.coords, want[0].coords)
            for name in ("rho", "nearest_higher", "score", "order"):
                got, ref = getattr(scores, name), getattr(want[1], name)
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
