import dataclasses
import io
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import diffal as da
from diffal import cli, geometry, pipeline
from diffal.cli import (AUTO_T_GRID, ConfigError, coerce_config, main, parse_config,
                        run_experiment)


def run_cli(*args):
    return main(list(args))


@pytest.fixture()
def small_dataset(tmp_path):
    cloud, truth = da.gen_gaussians(
        [[0.0, 0.0], [10.0, 0.0]], 0.5, [60, 60], seed=100
    )
    points = tmp_path / "points.csv"
    labels = tmp_path / "truth.txt"
    da.save_csv(points, cloud)
    da.save_labels(labels, truth)
    return points, labels, cloud, truth


class TestGenData:
    def test_writes_points_truth_manifest(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run_cli(
            "gen-data", "--dataset", "geometric", "--seed", "3",
            "--sizes", "40,40,40", "--out", str(out),
        ) == 0
        cloud = da.load_csv(out / "points.csv")
        truth = da.load_labels(out / "truth.txt")
        assert cloud.n == 120 and len(truth) == 120
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset"] == "geometric"
        assert manifest["n"] == 120

    def test_hierarchical_writes_both_truths(self, tmp_path):
        # the CLI passes on only the flags given, so the library's default
        # spread applies, and both truths are the generator's own
        out = tmp_path / "ds"
        assert run_cli(
            "gen-data", "--dataset", "hierarchical", "--seed", "1",
            "--per-cluster", "20", "--out", str(out),
        ) == 0
        cloud, fine, coarse = da.gen_hierarchical(1, 20)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["points_sha256"] == cli._sha256_of(cloud.points)
        assert np.array_equal(da.load_csv(out / "points.csv").points, cloud.points)
        assert np.array_equal(da.load_labels(out / "truth.txt"), fine)
        assert np.array_equal(da.load_labels(out / "truth_coarse.txt"), coarse)
        assert len(np.unique(coarse)) == 2

    def test_matches_library_generator(self, tmp_path):
        out = tmp_path / "ds"
        run_cli("gen-data", "--dataset", "bottleneck", "--seed", "5",
                "--sizes", "30,30,10", "--out", str(out))
        cloud, truth = da.gen_bottleneck(seed=5, sizes=(30, 30, 10))
        loaded = da.load_csv(out / "points.csv")
        assert np.allclose(loaded.points, cloud.points, atol=0)

    @pytest.mark.parametrize("args", [
        ["gaussians", "--stddev", "nan"],
        ["gaussians", "--stddev", "inf"],
        ["gaussians", "--means", "nan,0;5,5", "--sizes", "10,10"],
        ["hierarchical", "--stddev", "nan"],
        # finite values whose points overflow
        ["gaussians", "--stddev", "1e308"],
        ["gaussians", "--means", "1.79e308,0;0,0", "--sizes", "10,10", "--stddev", "1e306"],
        ["hierarchical", "--stddev", "1e308"],
    ])
    def test_non_finite_generator_value_is_a_config_error(self, tmp_path, capsys, args):
        assert run_cli("gen-data", "--dataset", *args, "--out", str(tmp_path / "ds")) == 2
        assert _one_line(capsys, "config")
        assert not (tmp_path / "ds" / "points.csv").exists()


    @pytest.mark.parametrize("args", [
        ["geometric", "--stddev", "5", "--per-cluster", "3", "--means", "0,0"],
        ["bottleneck", "--per-cluster", "30"],
        ["hierarchical", "--sizes", "5,5"],
        ["hierarchical", "--means", "0,0"],
        ["gaussians", "--per-cluster", "30"],
    ])
    def test_key_the_generator_does_not_take_is_a_config_error(self, tmp_path, capsys, args):
        assert run_cli("gen-data", "--dataset", *args, "--seed", "1",
                       "--out", str(tmp_path / "ds")) == 2
        assert _one_line(capsys, "config")
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize("args, params", [
        (["hierarchical", "--per-cluster", "20"], {"seed": 1, "per_cluster": 20, "stddev": 0.3}),
        (["geometric"], {"seed": 1, "sizes": [500, 500, 500]}),
        (["bottleneck", "--sizes", "30,30,10"], {"seed": 1, "sizes": [30, 30, 10]}),
        (["gaussians", "--sizes", "10,10,10"],
         {"seed": 1, "means": [[0.0, 0.0], [5.0, 0.0], [2.5, 4.33]], "stddev": 0.5,
          "sizes": [10, 10, 10]}),
    ])
    def test_manifest_records_the_arguments_the_generator_ran_with(self, tmp_path, args, params):
        out = tmp_path / "ds"
        assert run_cli("gen-data", "--dataset", *args, "--seed", "1", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"] == params
        cloud = getattr(da, f"gen_{args[0]}")(**params)[0]
        assert manifest["points_sha256"] == cli._sha256_of(cloud.points)


class TestPipelineCommands:
    def test_build_graph_summary(self, small_dataset, capsys):
        points, _, _, _ = small_dataset
        assert run_cli("build-graph", "--data", str(points), "--k", "8") == 0
        out = capsys.readouterr().out
        assert "n=120" in out and "eigenvalues" in out

    def test_lund_writes_labels_and_metrics(self, small_dataset, tmp_path, capsys):
        points, labels, _, truth = small_dataset
        out = tmp_path / "lund_labels.txt"
        scores_out = tmp_path / "scores.csv"
        code = run_cli(
            "lund", "--data", str(points), "--truth", str(labels),
            "--t", "100", "--out", str(out), "--scores-out", str(scores_out),
        )
        assert code == 0
        got = da.load_labels(out)
        assert len(got) == 120
        assert "OA=" in capsys.readouterr().out
        assert scores_out.read_text().startswith("index,p,rho,score")

    def test_land_batch(self, small_dataset, tmp_path, capsys):
        points, labels, _, truth = small_dataset
        out = tmp_path / "land_labels.txt"
        code = run_cli(
            "land", "--data", str(points), "--truth", str(labels),
            "--budget", "2", "--t", "100", "--out", str(out),
        )
        assert code == 0
        got = da.load_labels(out)
        assert da.overall_accuracy(got, truth) == 1.0
        assert "never observed" not in capsys.readouterr().out

    def test_land_names_the_classes_its_budget_never_observed(
            self, small_dataset, tmp_path, capsys):
        points, labels, cloud, truth = small_dataset
        out = tmp_path / "land_labels.txt"
        assert run_cli("land", "--data", str(points), "--truth", str(labels),
                       "--budget", "1", "--t", "100", "--out", str(out)) == 0
        model = da.build_model(cloud)
        emb, scores = model.scores_at(100.0)
        result = da.land(scores, model.density, emb, 1, da.GroundTruthOracle(truth, 1))
        missing = sorted(set(truth.tolist()) - set(result.observed_classes().tolist()))
        assert len(missing) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"classes never observed by the oracle: {missing}"

    def test_land_interactive_subprocess(self, small_dataset, tmp_path):
        points, _, _, truth = small_dataset
        out = tmp_path / "labels.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "diffal.cli", "land", "--data", str(points),
             "--interactive", "--budget", "2", "--t", "100", "--out", str(out)],
            input="1\n2\n", capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        prompts = [l for l in proc.stdout.splitlines() if l.startswith("QUERY ")]
        assert len(prompts) == 2
        assert out.exists()

    def test_a_library_warning_is_one_stderr_line(self, tmp_path):
        # pytest records warnings in-process, so only a subprocess shows
        # what the user sees
        assert run_cli("gen-data", "--dataset", "geometric", "--seed", "11",
                       "--sizes", "50,50,50", "--out", str(tmp_path / "geo")) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "diffal.cli", "lund",
             "--data", str(tmp_path / "geo" / "points.csv"), "--t", "10",
             "--out", str(tmp_path / "labels.txt")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "warning: second eigenvalue has modulus 1: the graph appears disconnected"
        ]

    def test_scan_t_csv(self, tmp_path):
        # the hierarchical blobs read as four classes at early times and as
        # two at late ones, on a graph that is connected
        out = tmp_path / "scan.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                "scan-t", "--dataset", "hierarchical", "--data-seed", "7",
                "--t-grid", "2:5:0.5", "--out", str(out),
            )
        assert code == 0
        assert [str(w.message) for w in caught] == []
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("t_log10,k_hat,d_in,d_btw,score_1")
        k_hats = [int(l.split(",")[1]) for l in lines[1:] if l.split(",")[1]]
        assert 4 in k_hats and 2 in k_hats

    @pytest.mark.filterwarnings("ignore:scan skipped")
    def test_scan_t_single_gaussian_mostly_one_cluster(self, tmp_path):
        cloud, _ = da.gen_gaussians([[0.0, 0.0]], 1.0, [150], seed=30)
        points = tmp_path / "blob.csv"
        da.save_csv(points, cloud)
        out = tmp_path / "scan.csv"
        assert run_cli(
            "scan-t", "--data", str(points), "--t-grid", "0:4:0.5", "--out", str(out)
        ) == 0
        k_hats = [
            int(l.split(",")[1])
            for l in out.read_text().strip().splitlines()[1:]
            if l.split(",")[1]
        ]
        assert sum(k == 1 for k in k_hats) > len(k_hats) / 2

    def test_scan_t_disconnected_components_stay_two(self, tmp_path):
        # once each component has internally mixed, the cross-component
        # distances never collapse, so the estimate stays 2 no matter how
        # large t gets
        rng = np.random.default_rng(31)
        pts = np.vstack([
            rng.normal(scale=0.2, size=(60, 2)),
            rng.normal(scale=0.2, size=(60, 2)) + [500.0, 0.0],
        ])
        points = tmp_path / "two.csv"
        da.save_csv(points, da.PointCloud(pts))
        out = tmp_path / "scan.csv"
        assert run_cli(
            "scan-t", "--data", str(points), "--k", "5",
            "--t-grid", "2:8:1", "--out", str(out),
        ) == 0
        k_hats = [
            int(l.split(",")[1])
            for l in out.read_text().strip().splitlines()[1:]
            if l.split(",")[1]
        ]
        assert len(k_hats) == 7 and all(k == 2 for k in k_hats)

    def test_purity_csv(self, small_dataset, tmp_path):
        points, labels, _, _ = small_dataset
        out = tmp_path / "purity.csv"
        code = run_cli(
            "purity", "--data", str(points), "--truth", str(labels),
            "--t", "100", "--levels", "5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        methods = {l.split(",")[2] for l in lines[1:]}
        assert methods == {"lund", "single", "average"}
        assert len(lines) == 1 + 3 * 5


class TestBench:
    def _config(self, tmp_path, **extra):
        lines = {
            "dataset": "gaussians",
            "data_seed": "11",
            "sizes": "50,50,50",
            "stddev": "0.5",
            "means": "0,0;6,0;3,5",
            "t": "100",
            "budgets": "3,6",
            "methods": "land,land-random,cbal,lund",
            "trials": "2",
            "root_seed": "40",
        }
        lines.update(extra)
        path = tmp_path / "bench.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        return path

    def test_run_and_rerun_byte_identical(self, tmp_path):
        cfg_path = self._config(tmp_path)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        cfg = parse_config(cfg_path)
        res1, man1 = run_experiment(cfg, out1)
        res2, man2 = run_experiment(parse_config(cfg_path), out2)
        assert Path(res1).read_bytes() == Path(res2).read_bytes()
        m1 = json.loads(Path(man1).read_text())
        m2 = json.loads(Path(man2).read_text())
        m1.pop("timestamp"), m2.pop("timestamp")
        assert m1 == m2

    def test_rows_cover_methods_and_budgets(self, tmp_path):
        cfg = parse_config(self._config(tmp_path))
        res, _ = run_experiment(cfg, tmp_path / "out")
        lines = Path(res).read_text().strip().splitlines()
        assert lines[0] == "dataset,method,budget_or_level,seed,oa,aa,kappa"
        rows = [l.split(",") for l in lines[1:]]
        methods = {r[1] for r in rows}
        assert methods == {"land", "land-random", "cbal", "lund"}
        land_rows = [r for r in rows if r[1] == "land"]
        assert {int(r[2]) for r in land_rows} == {3, 6}
        random_rows = [r for r in rows if r[1] == "land-random"]
        assert len(random_rows) == 4  # 2 budgets x 2 trials

    def test_full_budget_rows_are_perfect(self, tmp_path):
        cfg = parse_config(self._config(tmp_path, budgets="150", methods="land"))
        res, _ = run_experiment(cfg, tmp_path / "out")
        rows = [l.split(",") for l in Path(res).read_text().strip().splitlines()[1:]]
        assert all(float(r[4]) == 1.0 for r in rows)

    def test_cli_entrypoint(self, tmp_path, capsys):
        cfg_path = self._config(tmp_path, methods="land", budgets="3")
        code = run_cli("bench", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == 0
        assert (tmp_path / "o" / "results.csv").exists()
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_manifest_records_hashes(self, tmp_path):
        cfg = parse_config(self._config(tmp_path, methods="land", budgets="3"))
        _, man = run_experiment(cfg, tmp_path / "out")
        manifest = json.loads(Path(man).read_text())
        assert len(manifest["resolved"]["points_sha256"]) == 64
        assert manifest["resolved"]["t"] == 100.0


    def test_manifest_records_the_generator_arguments(self, tmp_path):
        cfg = parse_config(self._config(tmp_path, methods="lund"))
        _, man = run_experiment(cfg, tmp_path / "out")
        assert json.loads(Path(man).read_text())["resolved"]["generator_args"] == {
            "seed": 11, "sizes": [50, 50, 50], "stddev": 0.5,
            "means": [[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]],
        }

    @pytest.mark.parametrize("command", ["bench", "scan-t"])
    def test_key_the_generator_does_not_take_fails_before_any_graph_work(
            self, tmp_path, capsys, monkeypatch, command):
        builds = _spy_builds(monkeypatch)
        out = tmp_path / "o"
        # geometric takes sizes but neither the stddev nor the means of this config
        code = run_cli(command, "--config", str(self._config(tmp_path, dataset="geometric")),
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err == "config error: dataset geometric takes no stddev, means"
        assert builds == []
        assert not out.is_file() and not (out / "results.csv").exists()

    @pytest.mark.parametrize("command", ["bench", "scan-t"])
    def test_file_dataset_with_a_generator_key_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, command):
        data = tmp_path / "f"
        assert run_cli("gen-data", "--dataset", "gaussians", "--sizes", "20,20,20",
                       "--out", str(data)) == 0
        points = data / "points.csv"
        cfg = tmp_path / "file.cfg"
        cfg.write_text(f"dataset = {points}\ntruth = {data / 'truth.txt'}\n"
                       "stddev = 5\nmethods = lund\n")
        builds = _spy_builds(monkeypatch)
        out = tmp_path / "o"
        capsys.readouterr()
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"config error: dataset {points} is a file and takes no stddev"
        assert builds == [] and not out.exists()

    def test_gen_data_key_the_generator_does_not_take_leaves_no_directory(
            self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run_cli("gen-data", "--dataset", "geometric", "--stddev", "5",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.strip() == "config error: dataset geometric takes no stddev"
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        ({"methods": "land", "budgets": "0,3"}, "need 1 <= budget <= n"),
        ({"methods": "land-random", "budgets": "5000"}, "need 1 <= budget <= n"),
        ({"methods": "lund,land", "budgets": "3,151"}, "got budget=151, n=150"),
        ({"methods": "cbal", "budgets": "0"}, "budget must be at least 1"),
        ({"methods": "cbal", "cbal_theta": "0"}, "purity threshold must be in (0, 1]"),
        ({"methods": "land,cbal", "cbal_sample_size": "0"}, "sample size must be at least 1"),
        ({"methods": "land", "budgets": "3,x"}, "bad budgets list: '3,x'"),
    ])
    def test_bad_budget_or_cbal_setting_fails_before_any_graph_work(
            self, tmp_path, capsys, monkeypatch, extra, message):
        builds = _spy_builds(monkeypatch)
        out = tmp_path / "o"
        code = run_cli("bench", "--config", str(self._config(tmp_path, **extra)), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and message in err and err.count("\n") == 1
        assert builds == []
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        ({"methods": "land,land", "budgets": "3"}, "method 'land' is listed more than once"),
        ({"methods": "lund,cbal,lund", "budgets": "3"}, "method 'lund' is listed more than once"),
        ({"methods": "land", "budgets": "3,3"}, "budget 3 is listed more than once"),
        ({"methods": "cbal", "budgets": "2,5,2"}, "budget 2 is listed more than once"),
    ])
    def test_repeated_method_or_budget_fails_before_any_graph_work(
            self, tmp_path, capsys, monkeypatch, extra, message):
        builds = _spy_builds(monkeypatch)
        out = tmp_path / "o"
        code = run_cli("bench", "--config", str(self._config(tmp_path, **extra)), "--out", str(out))
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert err == f"config error: {message}"
        assert builds == []
        assert not out.exists()

    def test_cbal_budget_may_exceed_the_point_count(self, tmp_path):
        cfg = parse_config(self._config(tmp_path, methods="cbal", budgets="200", trials="1"))
        res, _ = run_experiment(cfg, tmp_path / "out")
        rows = [l.split(",") for l in Path(res).read_text().strip().splitlines()[1:]]
        assert [(r[1], r[2]) for r in rows] == [("cbal", "200")]

    @pytest.mark.parametrize("extra, message", [
        ({"methods": "land", "budgets": ""}, "budgets list is empty"),
        ({"methods": "land-random", "budgets": ","}, "budgets list is empty"),
        ({"methods": "lund,cbal", "budgets": ""}, "budgets list is empty"),
        ({"methods": "", "budgets": "3"}, "methods list is empty"),
        ({"methods": ",", "budgets": "3"}, "methods list is empty"),
    ])
    def test_nothing_to_run_is_a_config_error_before_any_work(
            self, tmp_path, capsys, monkeypatch, extra, message):
        builds = _spy_builds(monkeypatch)
        out = tmp_path / "o"
        code = run_cli("bench", "--config", str(self._config(tmp_path, **extra)), "--out", str(out))
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert err.startswith("config error:") and message in err
        assert builds == []
        assert not out.exists()

    def test_lund_alone_needs_no_budgets(self, tmp_path):
        cfg = parse_config(self._config(tmp_path, methods="lund", budgets=""))
        res, _ = run_experiment(cfg, tmp_path / "out")
        rows = Path(res).read_text().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["lund"]


class TestConfigAndExitCodes:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 4\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            coerce_config({"k": "many"})

    @pytest.mark.parametrize("text, message", [
        ("mystery = 1\n", "unknown config key 'mystery'"),
        ("methods = land\nbudgets 3\n", "line 2 is not `key = value`"),
    ])
    def test_config_error_exit_code(self, tmp_path, capsys, monkeypatch, text, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        builds = _spy_builds(monkeypatch)
        out = tmp_path / "o"
        assert run_cli("bench", "--config", str(bad), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.endswith(f"{message}\n")
        assert err.count("\n") == 1
        assert builds == []
        assert not out.exists()

    def test_readme_lists_the_config_keys_in_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config files", 1)[1]
        keys = section.split("\nKeys: ", 1)[1].split("\n\n", 1)[0]
        assert re.findall(r"`(\w+)`", keys) == list(cli.CONFIG_KEYS)

    def test_data_error_exit_code(self, tmp_path, capsys):
        assert run_cli(
            "build-graph", "--data", str(tmp_path / "missing.csv")
        ) == 3
        assert "data error" in capsys.readouterr().err

    def test_duplicate_points_are_a_data_error(self, tmp_path, capsys):
        base = np.random.default_rng(29).normal(size=(20, 3))
        points = tmp_path / "dups.csv"
        da.save_csv(points, da.PointCloud(np.repeat(base, 30, axis=0)))
        assert run_cli("build-graph", "--data", str(points)) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("data error:") and "\n" not in err
        assert run_cli("build-graph", "--data", str(points), "--sigma", "0") == 2
        assert "config error" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("dataset = geometric\ndata_seed = 1\n")
        out = tmp_path / "scan.csv"
        code = run_cli(
            "scan-t", "--config", str(path), "--dataset", "bottleneck",
            "--data-seed", "2", "--t-grid", "3:3:1", "--out", str(out),
        )
        assert code == 0

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# experiment\n\ndataset = geometric  # generator\n")
        cfg = parse_config(path)
        assert cfg["dataset"] == "geometric"

    def test_negative_eigenvalue_at_non_integer_t_labels(self, tmp_path, capsys):
        # a star graph keeps a negative eigenvalue; its column weight at the
        # non-integer time t = 1.5 is |lambda|^1.5 (exit 4 is covered by
        # TestUnderflowedTime)
        angles = 2 * np.pi * np.arange(5) / 5
        star = np.vstack([[0.0, 0.0], np.c_[np.cos(angles), np.sin(angles)]])
        points = tmp_path / "star.csv"
        da.save_csv(points, da.PointCloud(star))
        model = da.build_model(da.PointCloud(star), k=1, sigma=100.0)
        assert np.any(model.spectrum.eigenvalues < 0)
        out = tmp_path / "labels.txt"
        assert run_cli(
            "lund", "--data", str(points), "--k", "1", "--sigma", "100",
            "--t", "1.5", "--out", str(out),
        ) == 0
        assert capsys.readouterr().err == ""
        assert da.load_labels(out).shape == (6,)

    def test_short_truth_is_a_data_error(self, small_dataset, tmp_path, capsys):
        points, _, _, truth = small_dataset
        short = tmp_path / "short.txt"
        da.save_labels(short, truth[:10])
        assert run_cli(
            "land", "--data", str(points), "--truth", str(short),
            "--budget", "2", "--t", "100", "--out", str(tmp_path / "labels.txt"),
        ) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("data error:") and "\n" not in err

    def test_long_truth_fails_before_any_output(self, small_dataset, tmp_path, capsys):
        points, _, _, truth = small_dataset
        long = tmp_path / "long.txt"
        da.save_labels(long, np.concatenate([truth, truth]))
        out = tmp_path / "labels.txt"
        assert run_cli(
            "lund", "--data", str(points), "--truth", str(long),
            "--t", "100", "--out", str(out),
        ) == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not out.exists()

    def test_time_flag_errors_come_before_the_graph(self, tmp_path, capsys):
        # this cloud's default sigma is 0, a data error of the graph build,
        # so exit 2 shows that the flags were checked first
        base = np.random.default_rng(29).normal(size=(20, 3))
        points = tmp_path / "dups.csv"
        da.save_csv(points, da.PointCloud(np.repeat(base, 30, axis=0)))
        out = tmp_path / "labels.txt"
        for t in ("zz", "auto"):
            assert run_cli("lund", "--data", str(points), "--t", t, "--out", str(out)) == 2
            err = capsys.readouterr().err.strip()
            assert err.startswith("config error:") and "\n" not in err
            assert not out.exists()

    def test_reversed_t_grid_is_a_config_error(self, small_dataset, tmp_path, capsys):
        points, _, _, _ = small_dataset
        with pytest.raises(ValueError, match="empty time grid"):
            da.log_t_grid(3.0, 1.0, 0.5)
        out = tmp_path / "scan.csv"
        assert run_cli(
            "scan-t", "--data", str(points), "--t-grid", "3:1:0.5", "--out", str(out),
        ) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_purity_levels_out_of_range_fail_before_any_output(
        self, small_dataset, tmp_path, capsys
    ):
        points, labels, cloud, _ = small_dataset
        out = tmp_path / "purity.csv"
        for levels in (0, cloud.n + 1):
            assert run_cli(
                "purity", "--data", str(points), "--truth", str(labels),
                "--t", "100", "--levels", str(levels), "--out", str(out),
            ) == 2
            assert capsys.readouterr().err.startswith("config error:")
            assert not out.exists()

    def test_one_point_is_a_data_error(self, tmp_path, capsys):
        one = tmp_path / "one.csv"
        one.write_text("1.0,2.0\n")
        out = tmp_path / "labels.txt"
        assert run_cli("lund", "--data", str(one), "--t", "10", "--out", str(out)) == 3
        err = capsys.readouterr().err.strip()
        assert err == "data error: diffusion model needs at least two points"
        assert not out.exists()
        with pytest.raises(ValueError, match="at least two points"):
            da.build_model(da.load_csv(one))


def _auto_time(cloud, truth):
    """The auto-t rule through the library: the median (upper middle) of the
    times on the log10 grid 0:6:0.5 whose estimated cluster count is the
    number of classes."""
    model = da.build_model(cloud)
    num_classes = np.unique(truth[truth > 0]).size
    matches = []
    for t in da.log_t_grid(0.0, 6.0, 0.5):
        try:
            if da.estimate_num_clusters(model.scores_at(t)[1]) == num_classes:
                matches.append(float(t))
        except da.NumericalError:
            continue
    assert matches
    return matches[len(matches) // 2]


class TestAutoTimeAndRawCube:
    def test_bench_auto_t_is_the_median_matching_time(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "dataset = gaussians\ndata_seed = 11\nsizes = 50,50,50\nstddev = 0.5\n"
            "means = 0,0;6,0;3,5\nt = auto\nbudgets = 3\nmethods = land\n"
        )
        out = tmp_path / "out"
        assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cloud, truth = da.gen_gaussians(
            [[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]], 0.5, [50, 50, 50], 11
        )
        assert manifest["resolved"]["t"] == _auto_time(cloud, truth)

    def test_lund_auto_t_writes_the_bytes_of_its_time(self, small_dataset, tmp_path):
        points, labels, cloud, truth = small_dataset
        t = _auto_time(cloud, truth)
        auto, fixed = tmp_path / "auto.txt", tmp_path / "fixed.txt"
        args = ["lund", "--data", str(points), "--truth", str(labels)]
        assert run_cli(*args, "--t", "auto", "--out", str(auto)) == 0
        assert run_cli(*args, "--t", repr(t), "--out", str(fixed)) == 0
        assert auto.read_bytes() == fixed.read_bytes()

    def test_lund_on_a_raw_cube_matches_the_library(self, tmp_path):
        rng = np.random.default_rng(7)
        header = da.HsiCubeHeader(rows=10, cols=12, bands=20, dtype="float32")
        endmembers = rng.uniform(size=(3, header.bands))
        region = np.repeat(np.arange(3), header.n_pixels // 3)
        pixels = endmembers[region] + 0.05 * rng.normal(size=(header.n_pixels, header.bands))
        cube, hdr = tmp_path / "cube.bsq", tmp_path / "cube.hdr"
        da.save_hsi_cube(cube, da.PointCloud(pixels), header)
        da.save_hsi_header(hdr, header)
        out = tmp_path / "labels.txt"
        assert run_cli(
            "lund", "--data", str(cube), "--hsi-header", str(hdr),
            "--t", "10", "--num-clusters", "3", "--out", str(out),
        ) == 0
        model = da.build_model(da.load_hsi_cube(cube, da.load_hsi_header(hdr)))
        emb, scores = model.scores_at(10.0)
        want = da.lund_k(scores, model.density, emb, 3).labels
        assert np.array_equal(da.load_labels(out), want)


def _duplicate_cloud(tmp_path):
    """20 points 30 times each, with truth: reading them is fine, but the
    default sigma is 0, a data error of the graph build."""
    base = np.random.default_rng(29).normal(size=(20, 3))
    points, labels = tmp_path / "dups.csv", tmp_path / "truth.txt"
    da.save_csv(points, da.PointCloud(np.repeat(base, 30, axis=0)))
    da.save_labels(labels, np.repeat(np.arange(1, 21), 30))
    return points, labels


class TestOutputPaths:
    def test_missing_output_directory_fails_before_the_graph(self, tmp_path, capsys):
        # this cloud's default sigma is 0, a data error of the graph build,
        # so exit 2 shows that the output paths were checked first
        base = np.random.default_rng(29).normal(size=(20, 3))
        points, labels = tmp_path / "dups.csv", tmp_path / "truth.txt"
        da.save_csv(points, da.PointCloud(np.repeat(base, 30, axis=0)))
        da.save_labels(labels, np.repeat(np.arange(1, 21), 30))
        missing = str(tmp_path / "missing" / "out.txt")
        ok = str(tmp_path / "ok.txt")
        data = ["--data", str(points), "--truth", str(labels)]
        calls = [
            ["lund", *data, "--t", "100", "--out", missing],
            ["lund", *data, "--t", "100", "--out", ok, "--scores-out", missing],
            ["land", *data, "--t", "100", "--budget", "3", "--out", missing],
            ["scan-t", *data, "--t-grid", "0:1:1", "--out", missing],
            ["purity", *data, "--t", "100", "--levels", "3", "--out", missing],
        ]
        for argv in calls:
            assert run_cli(*argv) == 2, argv
            err = capsys.readouterr().err.strip()
            assert err.startswith("config error:") and "\n" not in err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["dups.csv", "truth.txt"]

    @pytest.mark.parametrize("scores_out", ["labels.txt", "./labels.txt", "sub/../labels.txt"])
    def test_out_and_scores_out_naming_one_file_fail_before_the_inputs_are_read(
            self, small_dataset, tmp_path, capsys, monkeypatch, scores_out):
        points, labels, _, _ = small_dataset
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        # a missing --data would be a data error, so its exit 2 shows the order
        for data in (points, tmp_path / "missing.csv"):
            assert run_cli("lund", "--data", str(data), "--truth", str(labels), "--t", "100",
                           "--out", "labels.txt", "--scores-out", scores_out) == 2
            assert _one_line(capsys, "config")
            assert not (tmp_path / "labels.txt").exists()

    def test_output_file_that_is_a_directory_fails_before_the_graph(self, tmp_path, capsys):
        # exit 2 instead of the duplicate cloud's data error shows that the
        # output paths were checked before any graph work
        points, labels = _duplicate_cloud(tmp_path)
        folder = tmp_path / "folder"
        folder.mkdir()
        ok = str(tmp_path / "ok.txt")
        data = ["--data", str(points), "--truth", str(labels)]
        calls = [
            ["lund", *data, "--t", "100", "--out", str(folder)],
            ["lund", *data, "--t", "100", "--out", ok, "--scores-out", str(folder)],
            ["land", *data, "--t", "100", "--budget", "3", "--out", str(folder)],
            ["scan-t", *data, "--t-grid", "0:1:1", "--out", str(folder)],
            ["purity", *data, "--t", "100", "--levels", "3", "--out", str(folder)],
        ]
        for argv in calls:
            assert run_cli(*argv) == 2, argv
            err = capsys.readouterr().err.strip()
            assert err.startswith("config error:") and "\n" not in err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["dups.csv", "folder", "truth.txt"]
            assert list(folder.iterdir()) == []

    def test_bench_output_directory_that_is_a_file_fails_before_any_work(
        self, tmp_path, capsys
    ):
        # the duplicate cloud would be a data error (exit 3) once built
        points, labels = _duplicate_cloud(tmp_path)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"dataset = {points}\ntruth = {labels}\nt = 100\n")
        target = tmp_path / "afile"
        target.write_text("keep\n")
        assert run_cli("bench", "--config", str(cfg), "--out", str(target)) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and "\n" not in err
        assert target.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "afile", "bench.cfg", "dups.csv", "truth.txt"]

    def test_gen_data_output_directory_that_is_a_file_is_a_config_error(
        self, tmp_path, capsys
    ):
        target = tmp_path / "afile"
        target.write_text("keep\n")
        assert run_cli("gen-data", "--dataset", "geometric", "--seed", "3",
                       "--sizes", "40,40,40", "--out", str(target)) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and "\n" not in err
        assert target.read_text() == "keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_bench_output_directory_under_a_file_fails_before_any_work(
        self, tmp_path, capsys
    ):
        # the duplicate cloud would be a data error (exit 3) once built
        points, labels = _duplicate_cloud(tmp_path)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"dataset = {points}\ntruth = {labels}\nt = 100\n")
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        assert run_cli("bench", "--config", str(cfg), "--out", str(afile / "sub")) == 2
        assert _one_line(capsys, "config")
        assert afile.read_text() == "keep\n"

    def test_gen_data_output_directory_under_a_file_is_a_config_error(
        self, tmp_path, capsys
    ):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        assert run_cli("gen-data", "--dataset", "geometric", "--seed", "3",
                       "--sizes", "40,40,40", "--out", str(afile / "sub")) == 2
        assert _one_line(capsys, "config")
        assert afile.read_text() == "keep\n"


_DATA = ["--data", "points.csv", "--truth", "truth.txt"]
_BENCH = ["bench", "--dataset", "points.csv", "--methods", "land", "--t", "100",
          "--out", "out", "--cache", "cache"]
_GRAPH_COMMANDS = [
    ["lund", *_DATA, "--t", "100", "--out", "labels.txt"],
    ["land", *_DATA, "--t", "100", "--budget", "3", "--out", "labels.txt"],
    ["purity", *_DATA, "--t", "100", "--levels", "3", "--out", "purity.csv"],
    ["scan-t", *_DATA, "--t-grid", "0:1:1", "--out", "scan.csv"],
    ["build-graph", "--data", "points.csv"],
]


@pytest.fixture()
def inputs_only(tmp_path, monkeypatch):
    """Work in an empty directory holding a connected two-blob cloud, its
    truth and a truth with one 0; return a check that nothing else is there."""
    cloud, truth = da.gen_gaussians([[0.0, 0.0], [4.0, 0.0]], 1.0, [60, 60], seed=100)
    da.save_csv(tmp_path / "points.csv", cloud)
    da.save_labels(tmp_path / "truth.txt", truth)
    da.save_labels(tmp_path / "zero.txt", np.where(np.arange(cloud.n) == 4, 0, truth))
    monkeypatch.chdir(tmp_path)
    return lambda: sorted(p.name for p in tmp_path.iterdir()) == [
        "points.csv", "truth.txt", "zero.txt"]


@pytest.mark.parametrize("argv, code", [
    (_BENCH + ["--budgets", "3"], 2),  # a file dataset without truth
    (_BENCH + ["--budgets", "3", "--truth", "zero.txt"], 3),
    (_BENCH + ["--truth", "truth.txt", "--budgets", "5000"], 2),
    (_BENCH + ["--truth", "truth.txt", "--budgets", "3", "--t", "foo"], 2),
    (_BENCH + ["--truth", "truth.txt", "--budgets", "3", "--num-eigs", "0"], 2),
    (_BENCH + ["--truth", "truth.txt", "--budgets", "3", "--sigma", "-1"], 2),
    (_BENCH + ["--truth", "truth.txt", "--budgets", "3", "--sigma0", "0"], 2),
    *[(command + ["--cache", "cache", flag, value], 2) for command in _GRAPH_COMMANDS
      for flag, value in (("--sigma", "-1"), ("--sigma0", "nan"))],
], ids=lambda value: " ".join([value[0], *value[-2:]]) if isinstance(value, list) else None)
def test_a_failed_command_leaves_only_its_inputs(inputs_only, capsys, argv, code):
    assert run_cli(*argv) == code
    assert _one_line(capsys, "config" if code == 2 else "data")
    assert inputs_only()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("command", [command[:-1] for command in _GRAPH_COMMANDS[:4]],
                         ids=lambda command: command[0])
def test_an_output_that_cannot_be_written_is_a_config_error(inputs_only, capsys, command):
    assert run_cli(*command, "/dev/full") == 2
    err = capsys.readouterr().err
    assert err == "config error: [Errno 28] No space left on device: '/dev/full'\n"


def _one_line(capsys, kind):
    err = capsys.readouterr().err.strip()
    return err.startswith(f"{kind} error:") and "\n" not in err


class TestUnreadableInputs:
    def test_directory_as_an_input_file_is_a_data_error(self, small_dataset, tmp_path, capsys):
        points, labels, _, _ = small_dataset
        folder = tmp_path / "folder"
        folder.mkdir()
        out = tmp_path / "labels.txt"
        calls = [
            ["--data", str(folder)],
            ["--data", str(points), "--truth", str(folder)],
            ["--data", str(points), "--hsi-header", str(folder)],
        ]
        for flags in calls:
            assert run_cli("lund", *flags, "--t", "100", "--out", str(out)) == 3, flags
            assert _one_line(capsys, "data")
            assert not out.exists()

    def test_directory_as_config_is_a_config_error(self, tmp_path, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert run_cli("bench", "--config", str(folder), "--out", str(tmp_path / "out")) == 2
        assert _one_line(capsys, "config")
        assert [p.name for p in tmp_path.iterdir()] == ["folder"]

    def test_undecodable_points_and_truth_are_data_errors(self, small_dataset, tmp_path, capsys):
        points, labels, _, _ = small_dataset
        bad_points, bad_truth = tmp_path / "bad.csv", tmp_path / "bad.txt"
        bad_points.write_bytes(points.read_bytes() + b"1.0,\xff\n")
        bad_truth.write_bytes(labels.read_bytes()[:-2] + b"\xff\n")
        out = tmp_path / "labels.txt"
        for flags in (["--data", str(bad_points)],
                      ["--data", str(points), "--truth", str(bad_truth)]):
            assert run_cli("lund", *flags, "--t", "100", "--out", str(out)) == 3, flags
            assert _one_line(capsys, "data")
            assert not out.exists()

    def test_directory_as_a_raw_cube_is_a_data_error(self, tmp_path, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        header = tmp_path / "cube.hdr"
        out = tmp_path / "labels.txt"
        # the first header implies as many bytes as the directory's size
        for cols in (folder.stat().st_size or 4096, 3):
            header.write_text(f"rows 1\ncols {cols}\nbands 1\ndtype uint8\n")
            assert run_cli("lund", "--data", str(folder), "--hsi-header", str(header),
                           "--t", "100", "--out", str(out)) == 3, cols
            err = capsys.readouterr().err.strip()
            assert err.startswith(f"data error: cannot read {folder}:") and "\n" not in err
            assert not out.exists()

    def test_truth_id_at_the_int64_limit_is_a_data_error(self, small_dataset, tmp_path, capsys):
        # lund's accuracy report aligns its clusters to the truth, which
        # leaves no int64 id past 2**63 - 1 for an unmatched cluster
        points, _, _, truth = small_dataset
        labels = tmp_path / "big.txt"
        da.save_labels(labels, np.where(truth == 2, 2**63 - 1, truth))
        assert run_cli("lund", "--data", str(points), "--truth", str(labels), "--t", "100",
                       "--out", str(tmp_path / "labels.txt")) == 3
        assert _one_line(capsys, "data")


class TestCacheThatIsAFile:
    def test_every_graph_command_fails_before_the_graph(self, tmp_path, capsys):
        # the duplicate cloud would be a data error (exit 3) once built
        points, labels = _duplicate_cloud(tmp_path)
        cache = tmp_path / "cache"
        cache.write_text("keep\n")
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"dataset = {points}\ntruth = {labels}\nt = 100\ncache = {cache}\n")
        out = str(tmp_path / "out")
        data = ["--data", str(points), "--truth", str(labels), "--cache", str(cache)]
        calls = [
            ["lund", *data, "--t", "100", "--out", out],
            ["land", *data, "--t", "100", "--budget", "3", "--out", out],
            ["scan-t", *data, "--t-grid", "0:1:1", "--out", out],
            ["purity", *data, "--t", "100", "--levels", "3", "--out", out],
            ["build-graph", "--data", str(points), "--cache", str(cache)],
            ["bench", "--config", str(cfg), "--out", out],
        ]
        for argv in calls:
            assert run_cli(*argv) == 2, argv
            assert _one_line(capsys, "config")
            assert cache.read_text() == "keep\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "bench.cfg", "cache", "dups.csv", "truth.txt"]

    def test_cache_under_a_file_fails_before_the_graph(self, tmp_path, capsys):
        # the duplicate cloud would be a data error (exit 3) once built
        points, _ = _duplicate_cloud(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        out = tmp_path / "o.txt"
        assert run_cli("lund", "--data", str(points), "--t", "10",
                       "--cache", str(afile / "sub"), "--out", str(out)) == 2
        assert _one_line(capsys, "config")
        assert afile.read_text() == "keep\n"
        assert not out.exists()


class TestInteractiveOracleFailures:
    @pytest.mark.parametrize("reply", ["", "abc\n", "0\n"])
    def test_closed_or_bad_reply_is_a_data_error(
        self, small_dataset, tmp_path, capsys, monkeypatch, reply
    ):
        points, _, _, _ = small_dataset
        monkeypatch.setattr(sys, "stdin", io.StringIO(reply))
        out = tmp_path / "labels.txt"
        assert run_cli(
            "land", "--data", str(points), "--interactive", "--budget", "2",
            "--t", "100", "--out", str(out),
        ) == 3
        # the oracle writes the queried point's coordinates to stderr first
        *info, last = capsys.readouterr().err.strip().splitlines()
        assert last.startswith("data error:")
        assert all(line.startswith("point ") for line in info)
        assert not out.exists()


def test_auto_t_is_the_median_of_the_scan_rows_that_match(tmp_path):
    """`--t auto` and `scan-t` share one scan: the chosen t is the median
    (upper middle) of the scan-t rows on the auto grid whose k_hat is the
    class count."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset = gaussians\ndata_seed = 11\nsizes = 50,50,50\nstddev = 0.5\n"
                   "means = 0,0;6,0;3,5\nbudgets = 3\nmethods = land\n")
    scan, out = tmp_path / "scan.csv", tmp_path / "out"
    assert run_cli("scan-t", "--config", str(cfg), "--t-grid", "0:6:0.5",
                   "--out", str(scan)) == 0
    assert run_cli("bench", "--config", str(cfg), "--t", "auto", "--out", str(out)) == 0
    rows = [line.split(",") for line in scan.read_text().splitlines()[1:]]
    assert len(rows) == 13 and any(row[1] == "" for row in rows)  # some t are skipped
    matches = [float(row[0]) for row in rows if row[1] == "3"]
    assert len(matches) >= 3
    t = json.loads((out / "manifest.json").read_text())["resolved"]["t"]
    assert float(np.log10(t)) == matches[len(matches) // 2]


def test_auto_t_searches_once_per_scan_time(tmp_path, monkeypatch):
    """`bench --t auto` labels with the scan's own mode scores at the chosen
    t, so it runs one nearest-denser search per scan time and none after."""
    searches = _spy_searches(monkeypatch)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset = gaussians\ndata_seed = 11\nsizes = 50,50,50\nstddev = 0.5\n"
                   "means = 0,0;6,0;3,5\nbudgets = 3\nmethods = land\n")
    assert run_cli("bench", "--config", str(cfg), "--t", "auto",
                   "--out", str(tmp_path / "out")) == 0
    assert searches == [float(t) for t in da.log_t_grid(*AUTO_T_GRID)]


def _connected_cloud():
    """Two touching Gaussians: one connected graph (|lambda_2| < 1)."""
    return da.gen_gaussians([[0.0, 0.0], [3.0, 0.0]], 0.7, [60, 60], seed=3)


def _non_perron_weights(model, t):
    return geometry.eigenvalue_powers(model.spectrum.eigenvalues, t)[1:]


def _searched(model, t):
    """Whether scores_at searches at t: some non-Perron weight |lambda|^t, or
    the spread |lambda|^t (max psi - min psi) of its column, is at least
    sqrt(smallest normal), so not every squared difference underflows."""
    weights = _non_perron_weights(model, t)
    spreads = weights * np.ptp(model.spectrum.basis[:, 1:], axis=0)
    return bool(np.any(np.maximum(weights, spreads) >= np.sqrt(np.finfo(np.float64).tiny)))


@pytest.fixture()
def connected_dataset(tmp_path):
    cloud, truth = _connected_cloud()
    # the precondition: every non-Perron lambda^t underflows at t = 1e6
    assert not np.any(_non_perron_weights(da.build_model(cloud), 1e6))
    points, labels = tmp_path / "points.csv", tmp_path / "truth.txt"
    da.save_csv(points, cloud)
    da.save_labels(labels, truth)
    return points, labels


class TestUnderflowedTime:
    """At a t where every non-Perron lambda^t underflows, the embedding is
    constant: an explicit --t fails with exit 4 and writes nothing."""

    def _assert_fails(self, capsys, out, *args):
        assert run_cli(*args, "--t", "1e6", "--out", str(out)) == 4
        err = capsys.readouterr().err.strip()
        assert err.startswith("numerical failure:") and "\n" not in err
        assert "zero mode score" in err
        assert not out.exists()

    def test_lund_with_num_clusters(self, connected_dataset, tmp_path, capsys):
        points, _ = connected_dataset
        self._assert_fails(capsys, tmp_path / "labels.txt",
                           "lund", "--data", str(points), "--num-clusters", "2")

    def test_land(self, connected_dataset, tmp_path, capsys):
        points, labels = connected_dataset
        self._assert_fails(capsys, tmp_path / "labels.txt", "land", "--data", str(points),
                           "--truth", str(labels), "--budget", "5")

    def test_purity(self, connected_dataset, tmp_path, capsys):
        points, labels = connected_dataset
        self._assert_fails(capsys, tmp_path / "purity.csv", "purity", "--data", str(points),
                           "--truth", str(labels), "--levels", "4")


def _spy_searches(monkeypatch):
    """The diffusion time of every nearest-denser search scores_at runs."""
    searches = []
    real = pipeline.nearest_denser_points

    def spy(emb, dens, width):
        searches.append(emb.t)
        return real(emb, dens, width)

    monkeypatch.setattr(pipeline, "nearest_denser_points", spy)
    return searches


def test_underflowed_time_fails_before_the_search(monkeypatch):
    model = da.build_model(_connected_cloud()[0])
    assert not np.any(_non_perron_weights(model, 1e6))
    searches = _spy_searches(monkeypatch)
    with pytest.raises(da.NumericalError, match="zero mode score"):
        model.scores_at(1e6)
    assert searches == []


def test_time_whose_weighted_spreads_underflow_fails_before_the_search(monkeypatch):
    # eigenvalues 0.5 down to 0.4 on the model's own eigenvectors: at t = 600
    # every non-Perron weight is nonzero (0.4^600 is about 1e-239), yet every
    # |lambda|^t (max psi - min psi) lies below sqrt(smallest normal)
    model = da.build_model(_connected_cloud()[0])
    spec = model.spectrum
    lam = np.concatenate([[1.0], np.linspace(0.5, 0.4, spec.num_eigs - 1)])
    model = dataclasses.replace(model, spectrum=da.SpectralDecomposition(
        eigenvalues=lam, basis=spec.basis, stationary=spec.stationary))
    assert np.all(_non_perron_weights(model, 600.0) > 0)
    assert not _searched(model, 600.0) and _searched(model, 450.0)
    searches = _spy_searches(monkeypatch)
    with pytest.raises(da.NumericalError, match="zero mode score"):
        model.scores_at(600.0)
    assert searches == []
    model.scores_at(450.0)
    assert searches == [450.0]


def test_auto_t_searches_only_where_a_non_perron_weight_survives(
        connected_dataset, tmp_path, monkeypatch):
    points, labels = connected_dataset
    model = da.build_model(_connected_cloud()[0])
    live = [float(t) for t in da.log_t_grid(*AUTO_T_GRID) if _searched(model, t)]
    assert live  # and t = 1e6, the grid's last, underflows (the fixture)
    searches = _spy_searches(monkeypatch)
    assert run_cli("lund", "--data", str(points), "--truth", str(labels), "--t", "auto",
                   "--out", str(tmp_path / "labels.txt")) == 0
    assert searches == live


def _three_blobs_39():
    """`gen-data --dataset gaussians --sizes 13,13,13 --seed 0`: a kernel graph
    that keeps negative eigenvalues."""
    return da.gen_gaussians([[0.0, 0.0], [5.0, 0.0], [2.5, 4.33]], 0.5, [13, 13, 13], seed=0)


def test_auto_t_searches_half_integer_times_despite_a_negative_eigenvalue(
        tmp_path, monkeypatch, capsys):
    cloud, truth = _three_blobs_39()
    points, labels = tmp_path / "points.csv", tmp_path / "truth.txt"
    da.save_csv(points, cloud)
    da.save_labels(labels, truth)
    model = da.build_model(cloud)
    assert np.any(model.spectrum.eigenvalues < 0)
    live = [float(t) for t in da.log_t_grid(*AUTO_T_GRID) if _searched(model, t)]
    assert any(not np.log10(t).is_integer() for t in live)
    searches = _spy_searches(monkeypatch)
    # no grid time reads k_hat = 3 here, and at the middle time, t = 1000,
    # every weighted spread underflows, so the scored time nearest it,
    # 10^2.5, is taken: one search per live grid time, none at t = 1000
    assert run_cli("lund", "--data", str(points), "--truth", str(labels), "--t", "auto",
                   "--out", str(tmp_path / "labels.txt")) == 0
    assert capsys.readouterr().out.startswith(f"t={10 ** 2.5:.6g} ")
    assert len(live) == 6 and searches == live


def test_auto_t_raises_the_scans_own_error_at_an_unscorable_middle_time():
    class Unscorable:
        def __init__(self):
            self.calls = []

        def scores_at(self, t):
            self.calls.append(float(t))
            raise da.NumericalError(f"no scores at t={t:g}")

    model = Unscorable()
    with pytest.raises(da.NumericalError, match="no scores at t=1000$"):
        cli.choose_time(model, np.array([1, 2]))
    assert model.calls == [float(t) for t in da.log_t_grid(*AUTO_T_GRID)]


def test_auto_t_takes_the_scans_scores_at_the_middle_time_when_no_count_is_read():
    """Zero mode scores leave k_hat unread at every time; the scan's own
    scores at the middle time are returned, with no second scoring."""
    zeros = da.ModeScores(rho=np.zeros(4), score=np.zeros(4), order=np.arange(4),
                          nearest_higher=np.zeros(4, dtype=np.int64))
    calls = []

    class ZeroScores:
        def scores_at(self, t):
            calls.append(float(t))
            return f"embedding at {t:g}", zeros

    t, emb, scores = cli.choose_time(ZeroScores(), np.array([1, 2]))
    assert (t, emb) == (1000.0, "embedding at 1000") and scores is zeros
    assert calls == [float(t) for t in da.log_t_grid(*AUTO_T_GRID)]


@pytest.mark.parametrize("scorable, chosen", [
    (lambda t: t < 1000, 5),  # 10^2.5, the earlier of 10^2.5 and 10^3.5
    (lambda t: t < 100 or t > 1000, 7),  # 10^3.5
    (lambda t: t > 1000, 7),
])
def test_auto_t_takes_the_scored_time_nearest_an_unscorable_middle_time(scorable, chosen):
    """When no count matches and the middle time (10^3, grid index 6)
    cannot be scored, the scan's scores at the scored grid time nearest it
    are returned."""
    chosen = float(da.log_t_grid(*AUTO_T_GRID)[chosen])
    zeros = da.ModeScores(rho=np.zeros(4), score=np.zeros(4), order=np.arange(4),
                          nearest_higher=np.zeros(4, dtype=np.int64))

    class PartlyScorable:
        def scores_at(self, t):
            if not scorable(t):
                raise da.NumericalError(f"no scores at t={t:g}")
            return f"embedding at {t:g}", zeros

    t, emb, scores = cli.choose_time(PartlyScorable(), np.array([1, 2]))
    assert (t, emb) == (chosen, f"embedding at {chosen:g}") and scores is zeros


def test_scan_t_truth_with_unlabeled_points(tmp_path):
    cloud, truth = _three_blobs_39()
    truth[0] = 0
    points, labels = tmp_path / "points.csv", tmp_path / "truth.txt"
    da.save_csv(points, cloud)
    da.save_labels(labels, truth)
    out = tmp_path / "scan.csv"
    assert run_cli("scan-t", "--data", str(points), "--truth", str(labels),
                   "--t-grid", "0:3:0.5", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 7
    assert all(row[1] and row[2] and row[3] for row in rows[:-1])  # k_hat, d_in, d_btw
    # at t = 1000 every weighted spread |lambda|^t (max psi - min psi) underflows
    assert rows[-1][0] == "3.0" and not any(rows[-1][1:])


def test_disconnected_cloud_scores_at_a_late_time():
    """The lambda = 1 columns of two far-apart blobs keep weight 1, so a time
    at which every other power underflows still has two modes."""
    cloud, _ = da.gen_gaussians([[0.0, 0.0], [50.0, 0.0]], 0.5, [60, 60], seed=3)
    with pytest.warns(UserWarning, match="disconnected"):
        model = da.build_model(cloud)
    assert model.spectrum.eigenvalues[1] >= 1.0 - 1e-10
    _, scores = model.scores_at(1e6)
    top = scores.score[scores.order[:2]]
    assert np.all(top > 0) and top[1] > 1e-3 * top[0]


def _spy_builds(monkeypatch):
    builds = []

    def spy(*args, **kwargs):
        builds.append(args)
        return da.build_model(*args, **kwargs)

    monkeypatch.setattr(cli, "build_model", spy)
    return builds


@pytest.mark.parametrize("command", [
    ["purity"],
    ["lund"],
    ["land", "--budget", "5"],
    ["bench", "--methods", "land", "--budgets", "3"],
])
def test_truth_without_a_positive_label_fails_before_any_graph_work(
        small_dataset, tmp_path, capsys, monkeypatch, command):
    points, _, cloud, _ = small_dataset
    err = _truth_data_error(points, np.zeros(cloud.n, dtype=np.int64), command,
                            tmp_path, capsys, monkeypatch)
    assert err.startswith("data error:") and "no evaluable points" in err


@pytest.mark.parametrize("command", [
    ["purity"],
    ["lund"],
    ["land", "--budget", "5"],
    ["bench", "--methods", "lund", "--budgets", "3"],
])
def test_truth_of_another_length_fails_before_any_graph_work(
        small_dataset, tmp_path, capsys, monkeypatch, command):
    points, _, cloud, truth = small_dataset
    err = _truth_data_error(points, truth[:-1], command, tmp_path, capsys, monkeypatch)
    assert err == f"data error: label vector has length {cloud.n - 1}, expected {cloud.n}\n"


@pytest.mark.parametrize("command", [
    ["land", "--budget", "5"],
    ["bench", "--methods", "lund,land", "--budgets", "3"],
    ["bench", "--methods", "land-random", "--budgets", "3"],
    ["bench", "--methods", "cbal", "--budgets", "3"],
])
def test_oracle_truth_with_unlabeled_points_fails_before_any_graph_work(
        small_dataset, tmp_path, capsys, monkeypatch, command):
    points, _, _, truth = small_dataset
    truth = truth.copy()
    truth[4] = 0
    err = _truth_data_error(points, truth, command, tmp_path, capsys, monkeypatch)
    assert err == "data error: label vector must be fully labeled; index 4 is 0\n"


def _truth_data_error(points, truth, command, tmp_path, capsys, monkeypatch):
    """Run command with this truth; assert exit 3 with no model built and no
    file written, and return stderr."""
    labels = tmp_path / "labels.txt"
    da.save_labels(labels, truth)
    builds = _spy_builds(monkeypatch)
    out = tmp_path / "o"
    out.mkdir()
    source = (["--dataset"] if command[0] == "bench" else ["--data"]) + [str(points)]
    target = out if command[0] == "bench" else out / "out.txt"
    code = run_cli(command[0], *source, "--truth", str(labels), "--t", "100",
                   *command[1:], "--out", str(target))
    assert code == 3
    assert builds == []
    assert list(out.iterdir()) == []
    return capsys.readouterr().err


def test_purity_replays_every_level_above_the_roots_rank(small_dataset, tmp_path, monkeypatch):
    # both blobs' density maximizer tops the mode-score order, so one lund_k
    # labeling and one replay per tree give every level, with no cut built
    # and one class tally for the lund curve
    points, labels, _, _ = small_dataset
    lund_module = sys.modules["diffal.lund"]
    calls = {"lund_k": 0, "_ClassCounts": 0}

    def counted(module, name):
        original = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    counted(lund_module, "lund_k")
    counted(lund_module, "_ClassCounts")
    out = tmp_path / "purity.csv"
    assert run_cli("purity", "--data", str(points), "--truth", str(labels), "--t", "100",
                   "--levels", "120", "--out", str(out)) == 0
    assert calls == {"lund_k": 1, "_ClassCounts": 1}
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 3 * 120


@pytest.mark.parametrize("t", ["nan", "inf", "1e400", "-1"])
def test_time_outside_zero_to_infinity_fails_before_the_graph(
    small_dataset, tmp_path, capsys, monkeypatch, t
):
    points, labels, _, _ = small_dataset
    builds = _spy_builds(monkeypatch)
    out = tmp_path / "labels.txt"
    assert run_cli("lund", "--data", str(points), "--truth", str(labels), f"--t={t}",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"config error: diffusion time must be finite and non-negative, got {t!r}"
    assert builds == []
    assert not out.exists()
    with pytest.raises(ValueError, match="finite and non-negative"):
        geometry.eigenvalue_powers(np.array([1.0, 0.5]), float(t))


@pytest.mark.parametrize("grid", ["0:inf:1", "0:nan:1", "nan:1:1", "0:1:nan"])
def test_non_finite_t_grid_part_is_a_config_error(small_dataset, tmp_path, capsys,
                                                  monkeypatch, grid):
    points, _, _, _ = small_dataset
    builds = _spy_builds(monkeypatch)
    out = tmp_path / "scan.csv"
    assert run_cli("scan-t", "--data", str(points), "--t-grid", grid, "--out", str(out)) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"config error: bad grid {grid!r}: start, stop and step must be finite"
    assert builds == []
    assert not out.exists()
    with pytest.raises(ValueError, match="must be finite"):
        da.log_t_grid(*(float(part) for part in grid.split(":")))


@pytest.mark.parametrize("flag", ["--sigma", "--sigma0"])
def test_nan_bandwidth_is_a_config_error_that_names_it(small_dataset, tmp_path, capsys, flag):
    points, labels, _, _ = small_dataset
    out = tmp_path / "labels.txt"
    assert run_cli("lund", "--data", str(points), "--truth", str(labels), flag, "nan",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"config error: {flag[2:]} must be positive, got nan"
    assert not out.exists()


def test_infinite_sigma_still_labels(small_dataset, tmp_path):
    points, labels, _, _ = small_dataset
    out = tmp_path / "labels.txt"
    assert run_cli("lund", "--data", str(points), "--truth", str(labels), "--sigma", "inf",
                   "--out", str(out)) == 0
    assert da.load_labels(out).shape == (120,)


@pytest.mark.parametrize("command, message", [
    (["land", "--truth", "T", "--budget", "0"], "got budget=0, n=120"),
    (["land", "--truth", "T", "--budget", "121"], "got budget=121, n=120"),
    (["land", "--budget", "2"], "batch mode needs --truth"),
    (["lund", "--num-clusters", "121"], "got num_clusters=121, n=120"),
    (["lund", "--num-clusters", "0"], "got num_clusters=0, n=120"),
    (["lund", "--num-eigs", "0"], "got num_eigs=0, n=120"),
])
def test_count_and_truth_flag_errors_fail_before_the_graph(
        small_dataset, tmp_path, capsys, monkeypatch, command, message):
    points, labels, _, _ = small_dataset
    builds = _spy_builds(monkeypatch)
    out = tmp_path / "out.txt"
    argv = [str(labels) if arg == "T" else arg for arg in command]
    code = run_cli(*argv, "--data", str(points), "--t", "100", "--out", str(out))
    err = capsys.readouterr().err.strip()
    assert code == 2
    assert err.startswith("config error:") and message in err and "\n" not in err
    assert builds == []
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--sigma", "--sigma0"])
@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_bandwidth_that_is_not_positive_fails_before_the_graph(
        small_dataset, tmp_path, capsys, monkeypatch, flag, value):
    points, _, _, _ = small_dataset
    searches = []
    monkeypatch.setattr(pipeline, "knn_search", lambda *args: searches.append(args))
    cache = tmp_path / "cache"
    out = tmp_path / "labels.txt"
    assert run_cli("lund", "--data", str(points), "--t", "10", flag, value,
                   "--cache", str(cache), "--out", str(out)) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"config error: {flag[2:]} must be positive, got {float(value)}"
    assert searches == []
    assert not cache.exists()
    assert not out.exists()


def test_num_eigs_is_checked_before_the_neighbor_search(monkeypatch):
    pipeline = sys.modules["diffal.pipeline"]
    monkeypatch.setattr(pipeline, "knn_search", lambda *args: pytest.fail("searched"))
    cloud = da.PointCloud(np.random.default_rng(5).normal(size=(30, 2)))
    with pytest.raises(ValueError, match="got num_eigs=31, n=30"):
        da.build_model(cloud, num_eigs=31)


# the top time of 300:320:10 and 0:1e9:1e-9 overflows; 0:1:1e-16 has
# 10**16 + 1 points, which no machine can allocate, so numpy refuses at once
@pytest.mark.parametrize("grid, message", [
    ("300:320:10", "time grid 300.0:320.0:10.0 reaches a time that overflows"),
    ("0:1e9:1e-9", "time grid 0.0:1000000000.0:1e-09 reaches a time that overflows"),
    ("0:1:1e-16", "time grid 0.0:1.0:1e-16 has too many points"),
    ("0:1", "grid must be start:stop:step in log10, got '0:1'"),
    ("0:1:0.5:2", "grid must be start:stop:step in log10, got '0:1:0.5:2'"),
    ("0:one:1", "bad grid '0:one:1'"),
    ("0:1:0", "step must be positive, got 0.0"),
])
def test_bad_t_grid_fails_before_the_graph(
        small_dataset, tmp_path, capsys, monkeypatch, grid, message):
    points, _, _, _ = small_dataset
    builds = _spy_builds(monkeypatch)
    out = tmp_path / "scan.csv"
    assert run_cli("scan-t", "--data", str(points), "--t-grid", grid, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert builds == []
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["build-graph"],
    ["lund", "--t", "100", "--out", "OUT"],
    ["land", "--truth", "T", "--budget", "3", "--t", "100", "--out", "OUT"],
])
def test_standardize_without_a_cube_header_is_a_config_error(
        small_dataset, tmp_path, capsys, monkeypatch, command):
    points, labels, _, _ = small_dataset
    reads = []

    def spy(*args, **kwargs):
        reads.append(args)
        return da.load_csv(*args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", spy)
    out = tmp_path / "labels.txt"
    argv = [{"T": str(labels), "OUT": str(out)}.get(arg, arg) for arg in command]
    assert run_cli(*argv, "--data", str(points), "--standardize") == 2
    err = capsys.readouterr().err
    assert err == ("config error: --standardize applies only to a raw cube read "
                   "with --hsi-header\n")
    assert reads == []
    assert not out.exists()


def test_bad_flag_is_a_one_line_config_error(small_dataset, tmp_path, capsys):
    points, _, _, _ = small_dataset
    with pytest.raises(SystemExit) as exc:
        run_cli("land", "--data", str(points), "--budget", "x", "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "config error: diffal land: argument --budget: invalid int value: 'x'\n"
