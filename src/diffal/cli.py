"""Command-line interface and config-driven experiment runner.

Subcommands: gen-data, build-graph, lund, land, bench, scan-t, purity.
Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.

Config files are flat `key = value` text; any CLI flag overrides the
matching config key.  All randomness descends from a single root seed,
split deterministically per (method, trial).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .baselines import _check_cbal_args, cbal, cut_purity_curve, land_random, linkage
from .datagen import gen_bottleneck, gen_gaussians, gen_geometric, gen_hierarchical
from .dataset import (
    DataError,
    PointCloud,
    _check_count,
    _open_output,
    _read_lines,
    load_csv,
    load_hsi_cube,
    load_hsi_header,
    load_labels,
    save_csv,
    save_labels,
    validate_labels,
)
from .geometry import DiffusionEmbedding, ModeScores, save_mode_scores_csv
from .graph import NumericalError
from .land import BudgetExceededError, GroundTruthOracle, InteractiveOracle, land
from .lund import estimate_num_clusters, lund, lund_k, lund_purity_curve, separation_diagnostics
from .metrics import _labeled, accuracy_scores, align_labels
from .pipeline import DiffusionModel, build_model, log_t_grid


class ConfigError(Exception):
    """Bad configuration keys or values."""


GENERATORS = {"gaussians": gen_gaussians, "hierarchical": gen_hierarchical,
              "geometric": gen_geometric, "bottleneck": gen_bottleneck}
METHODS = ("land", "land-random", "cbal", "lund")

CONFIG_KEYS = {
    "dataset": str,          # generator name or points CSV path
    "truth": str,            # labels path (file datasets)
    "data_seed": int,
    "sizes": str,            # comma-separated component sizes
    "per_cluster": int,
    "stddev": float,
    "means": str,            # semicolon-separated vectors for gaussians
    "k": int,
    "sigma": float,
    "sigma0": float,
    "num_eigs": int,
    "t": str,                # diffusion time or "auto"
    "budgets": str,          # comma-separated budgets
    "methods": str,          # comma-separated subset of METHODS
    "trials": int,           # number of trial seeds for randomized methods
    "root_seed": int,
    "cbal_theta": float,
    "cbal_sample_size": int,
    "out": str,
    "cache": str,
}
GENERATOR_KEYS = ("sizes", "per_cluster", "stddev", "means")
GRAPH_KEYS = {  # each graph key with its flag's help
    "k": "graph neighbors",
    "sigma": "kernel bandwidth",
    "sigma0": "density bandwidth",
    "num_eigs": "retained eigenpairs",
    "cache": "cache of neighbor lists, spectra and per-t rho_* entries",
}

DEFAULT_CONFIG = {
    "dataset": "gaussians",
    "data_seed": 0,
    "t": "auto",
    "budgets": "10",
    "methods": "land",
    "trials": 1,
    "root_seed": 0,
    "cbal_theta": 0.9,
    "cbal_sample_size": 3,
}

AUTO_T_GRID = (0.0, 6.0, 0.5)  # log10 bounds and step for the automatic t scan


def parse_config(path) -> dict:
    cfg: dict = {}
    for lineno, line in _read_lines(path, ConfigError, comments=True):
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno} is not `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg[key] = value
    return coerce_config(cfg)


def coerce_config(raw: dict) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    for key, value in raw.items():
        if value is None:
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        caster = CONFIG_KEYS[key]
        try:
            cfg[key] = caster(value)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r} has bad value {value!r}") from None
    return cfg


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad {what} list: {text!r}") from None


def _sha256_of(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _generate(cfg: dict) -> tuple[tuple, dict]:
    """(what the generator named by cfg["dataset"] returns, the arguments it
    ran with).  Hierarchical adds the coarse truth.  The generator keys set
    in cfg are bound to the generator's own parameters, so a key it does
    not take is a config error and the library holds the defaults;
    gen_gaussians has none, so they are here."""
    name = cfg["dataset"]
    generator = GENERATORS[name]
    signature = inspect.signature(generator)
    given = {key: cfg[key] for key in GENERATOR_KEYS if key in cfg}
    unused = [key for key in given if key not in signature.parameters]
    if unused:
        raise ConfigError(f"dataset {name} takes no {', '.join(unused)}")
    if "sizes" in given:
        given["sizes"] = _parse_int_list(given["sizes"], "sizes")
    if "means" in given:
        given["means"] = [[float(v) for v in vec.split(",")] for vec in given["means"].split(";")]
    if name == "gaussians":
        given.setdefault("means", [[0.0, 0.0], [5.0, 0.0], [2.5, 4.33]])
        given = {"stddev": 0.5, "sizes": [500] * len(given["means"]), **given}
    bound = signature.bind(seed=cfg["data_seed"], **given)
    bound.apply_defaults()
    return generator(*bound.args, **bound.kwargs), bound.arguments


def resolve_dataset(cfg: dict,
                    args=None) -> tuple[PointCloud, np.ndarray | None, str, dict | None]:
    """The one reader of inputs: (cloud, truth, name, generator arguments).

    Points come from the --data flag when given (a CSV file, or a raw cube
    with --hsi-header), else from cfg["dataset"] (a generator name or a CSV
    path).  Generators bring their own truth; file inputs take it from
    cfg["truth"], None when absent, checked against the point count and
    for a positive label, so a truth with nothing to score fails before
    any graph work.  The generator arguments are None for file inputs, and
    a generator key set for one is a config error.
    """
    data = getattr(args, "data", None)
    header = getattr(args, "hsi_header", None)
    if getattr(args, "standardize", False) and not header:
        raise ConfigError("--standardize applies only to a raw cube read with --hsi-header")
    if data is None and cfg["dataset"] in GENERATORS:
        generated, arguments = _generate(cfg)
        return (*generated[:2], cfg["dataset"], arguments)
    path = cfg["dataset"] if data is None else data
    unused = [key for key in GENERATOR_KEYS if key in cfg]
    if unused:
        raise ConfigError(f"dataset {path} is a file and takes no {', '.join(unused)}")
    if header:
        cloud = load_hsi_cube(path, load_hsi_header(header), standardize=args.standardize)
    else:
        cloud = load_csv(path)
    truth = _labeled(load_labels(cfg["truth"]), n=cloud.n)[0] if "truth" in cfg else None
    return cloud, truth, os.path.basename(str(path)), None


def _check_outputs(files=(), directory=None) -> None:
    """Raise ConfigError, before any input is read and creating nothing, for a
    file output (None: not asked for) that is a directory, lies in no directory
    or is named twice, or an output directory that is or lies under a file."""
    paths = [path for path in files if path]
    for i, path in enumerate(paths):
        if os.path.realpath(path) in map(os.path.realpath, paths[:i]):
            raise ConfigError(f"two outputs name one file: {path}")
        if os.path.isdir(path):
            raise ConfigError(f"output file {path} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"the directory of output file {path} does not exist")
    if directory is not None:
        existing = os.path.abspath(directory)
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ConfigError(f"output directory {directory}: {existing} is not a directory")


def build_model_from_config(cfg: dict, cloud: PointCloud) -> DiffusionModel:
    if cfg.get("num_eigs") is not None:  # a count flag, like --budget, fails before any build
        _check_count("num_eigs", cfg["num_eigs"], cloud.n)
    return build_model(
        cloud,
        k=cfg.get("k"),
        sigma=cfg.get("sigma"),
        sigma0=cfg.get("sigma0"),
        num_eigs=cfg.get("num_eigs"),
        cache_dir=cfg.get("cache"),
    )


def _num_classes(truth: np.ndarray) -> int:
    return int(np.unique(truth[truth > 0]).size)


def _scan(model: DiffusionModel, grid):
    """Yield (t, scored, k̂) for each t of grid, in order: scored is
    (embedding, scores) and k̂ the estimated cluster count, or each the
    NumericalError that computing it raised (both the same one when the
    scoring raised)."""
    for t in grid:
        try:
            scored = model.scores_at(t)
        except NumericalError as exc:
            yield t, exc, exc
            continue
        try:
            k_hat = estimate_num_clusters(scored[1])
        except NumericalError as exc:
            k_hat = exc
        yield t, scored, k_hat


def choose_time(model: DiffusionModel,
                truth: np.ndarray) -> tuple[float, DiffusionEmbedding, ModeScores]:
    """The K-matching scan behind --t auto: (t, embedding, scores).

    Scans a log10 grid and picks the median time whose estimated cluster
    count equals the number of classes in truth (only that count is read
    from the labels), with the scan's embedding and scores at it.  When no
    grid time matches, it takes the scan's scores at the scored grid time
    nearest the middle one (the earlier of two as near), or raises the
    NumericalError of the middle time when no time could be scored.
    """
    num_classes = _num_classes(truth)
    grid = log_t_grid(*AUTO_T_GRID)
    middle = len(grid) // 2
    matches = []
    nearest = None  # (grid steps from the middle, (t, embedding, scores))
    for i, (t, scored, k_hat) in enumerate(_scan(model, grid)):
        if isinstance(scored, NumericalError):
            if i == middle:
                error = scored
        elif nearest is None or abs(i - middle) < nearest[0]:
            nearest = abs(i - middle), (float(t), *scored)
        if not isinstance(k_hat, NumericalError) and k_hat == num_classes:
            matches.append((float(t), *scored))
    if matches:
        return matches[len(matches) // 2]
    if nearest is None:
        raise error
    return nearest[1]


def _prepare_scores(cfg: dict, cloud: PointCloud, truth: np.ndarray | None):
    """(model, t, embedding, scores): --t is checked before any graph work,
    then the model is built once and scored at t, or at the time that
    choose_time picks for "auto"."""
    raw = str(cfg["t"])
    if raw.lower() == "auto":
        if truth is None:
            raise ConfigError("--t auto needs --truth to count classes")
        model = build_model_from_config(cfg, cloud)
        return (model, *choose_time(model, truth))
    try:
        t = float(raw)
    except ValueError:
        raise ConfigError(f"bad diffusion time {raw!r}") from None
    if not 0 <= t < np.inf:
        raise ConfigError(f"diffusion time must be finite and non-negative, got {raw!r}")
    model = build_model_from_config(cfg, cloud)
    return (model, t, *model.scores_at(t))


def _trial_seed(root_seed: int, method: str, trial: int) -> int:
    ss = np.random.SeedSequence([int(root_seed), METHODS.index(method), int(trial)])
    return int(ss.generate_state(1)[0])


def run_experiment(cfg: dict, out_dir) -> tuple[str, str]:
    """Run the configured methods over the budget grid; emit CSV + manifest.

    Returns (results_csv_path, manifest_path).  Rows are sorted before
    writing and contain no timestamps, so reruns are byte-identical.
    """
    methods = [m.strip() for m in str(cfg["methods"]).split(",") if m.strip()]
    if not methods:
        raise ConfigError("no methods to run: the methods list is empty")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; known: {METHODS}")
    budgets = _parse_int_list(cfg["budgets"], "budgets")
    for what, values in (("method", methods), ("budget", budgets)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:  # it would write the same rows again
            raise ConfigError(f"{what} {repeated[0]!r} is listed more than once")
    if not budgets and set(methods) - {"lund"}:
        raise ConfigError("the budgets list is empty; only lund runs without budgets")
    trials = int(cfg["trials"])
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    _check_outputs(directory=out_dir)
    cloud, truth, dataset_name, generator_args = resolve_dataset(cfg)
    if truth is None:
        raise ConfigError("file datasets need a `truth` labels path")
    if set(methods) - {"lund"}:
        validate_labels(truth, complete=True)  # the oracle's rule
    # each method's own argument checks, in run order, before any graph work
    for method in methods:
        for budget in budgets:
            if method == "cbal":
                _check_cbal_args(budget, cfg["cbal_theta"], cfg["cbal_sample_size"])
            elif method != "lund":
                _check_count("budget", budget, cloud.n)
    model, t, emb, scores = _prepare_scores(cfg, cloud, truth)

    dend = None
    if "cbal" in methods:
        dend = linkage(cloud, "average")

    rows: list[tuple] = []

    def add_row(method: str, budget_or_level, trial: int, pred: np.ndarray) -> None:
        rows.append((dataset_name, method, int(budget_or_level), int(trial),
                     *accuracy_scores(pred, truth)))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in methods:
            if method == "lund":
                result = lund(scores, model.density, emb)
                add_row("lund", result.num_clusters, 0, align_labels(result.labels, truth))
                continue
            # land is deterministic: one trial, recorded as seed 0
            for budget in budgets:
                for trial in range(1 if method == "land" else trials):
                    oracle = GroundTruthOracle(truth, budget)
                    seed = _trial_seed(cfg["root_seed"], method, trial)
                    if method == "land":
                        result = land(scores, model.density, emb, budget, oracle)
                    elif method == "land-random":
                        result = land_random(model.density, emb, budget, oracle, seed=seed,
                                             nearest_higher=scores.nearest_higher)
                    else:
                        result = cbal(dend, budget, oracle, purity_threshold=cfg["cbal_theta"],
                                      sample_size=cfg["cbal_sample_size"], seed=seed)
                    add_row(method, budget, trial, result.labels)

    rows.sort()
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    with _open_output(results_path) as fh:
        fh.write("dataset,method,budget_or_level,seed,oa,aa,kappa\n")
        for row in rows:
            fh.write(
                f"{row[0]},{row[1]},{row[2]},{row[3]},{row[4]!r},{row[5]!r},{row[6]!r}\n"
            )

    manifest = {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {k: cfg[k] for k in sorted(cfg)},
        "resolved": {
            "n": cloud.n,
            "dim": cloud.dim,
            "k": model.neighbors.k,
            "sigma": model.sigma,
            "num_eigs": model.spectrum.num_eigs,
            "t": t,
            "num_classes": _num_classes(truth),
            "points_sha256": _sha256_of(cloud.points),
            "truth_sha256": _sha256_of(truth),
        },
    }
    if generator_args is not None:
        manifest["resolved"]["generator_args"] = generator_args
    manifest_path = os.path.join(out_dir, "manifest.json")
    with _open_output(manifest_path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return results_path, manifest_path


def scan_t(cfg: dict, cloud: PointCloud, truth: np.ndarray | None,
           grid_log10: tuple[float, float, float], out_path) -> str:
    """Per-t cluster-count estimates (plus separation stats when truth given)."""
    grid = log_t_grid(*grid_log10)
    model = build_model_from_config(cfg, cloud)
    with _open_output(out_path) as fh:
        top_cols = ",".join(f"score_{i}" for i in range(1, 11))
        fh.write(f"t_log10,k_hat,d_in,d_btw,{top_cols}\n")
        for t, scored, k_hat in _scan(model, grid):
            log10_t = float(np.log10(t))
            if isinstance(k_hat, NumericalError):
                warnings.warn(f"scan skipped t=10^{log10_t:g}: {k_hat}", stacklevel=2)
                fh.write(f"{log10_t!r},,,," + "," * 9 + "\n")
                continue
            emb, scores = scored
            d_in = d_btw = ""
            if truth is not None:
                diag = separation_diagnostics(emb, model.density, truth)
                d_in, d_btw = repr(diag.d_in), repr(diag.d_btw)
            top = scores.score[scores.order[:10]]
            top_txt = ",".join(repr(float(v)) for v in top)
            if top.shape[0] < 10:
                top_txt += "," * (10 - top.shape[0])
            fh.write(f"{log10_t!r},{k_hat},{d_in},{d_btw},{top_txt}\n")
    return str(out_path)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cfg_from_args(args) -> dict:
    """Config file (or defaults) with any provided CLI flags layered on top.

    Each flag's argparse type is its config key's caster, so flag values
    are already cast.
    """
    cfg = parse_config(args.config) if getattr(args, "config", None) else dict(DEFAULT_CONFIG)
    cfg.update({key: value for key, value in vars(args).items()
                if key in CONFIG_KEYS and value is not None})
    return cfg


def _read_inputs(args, *outputs) -> tuple[dict, PointCloud, np.ndarray | None]:
    """(cfg, cloud, truth) of a command whose output files pass _check_outputs."""
    _check_outputs(outputs)
    cfg = _cfg_from_args(args)
    return (cfg, *resolve_dataset(cfg, args)[:2])


def _add_keys(sub, *keys, **kwargs) -> None:
    """One flag per config key: `--key-with-dashes`, or the flag of a
    (flag, key) alias, with the key as its dest and its caster as its type."""
    for key in keys:
        flag, key = key if isinstance(key, tuple) else ("--" + key.replace("_", "-"), key)
        sub.add_argument(flag, dest=key, type=CONFIG_KEYS[key], help=GRAPH_KEYS.get(key), **kwargs)


def _add_input_flags(sub) -> None:
    sub.add_argument("--data", required=True)
    sub.add_argument("--hsi-header", help="treat --data as a raw cube with this header")
    sub.add_argument("--standardize", action="store_true")


def cmd_gen_data(args) -> int:
    _check_outputs(directory=args.out)
    cfg = _cfg_from_args(args)
    (cloud, truth, *coarse), arguments = _generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    if coarse:
        save_labels(os.path.join(args.out, "truth_coarse.txt"), coarse[0])
    save_csv(os.path.join(args.out, "points.csv"), cloud)
    save_labels(os.path.join(args.out, "truth.txt"), truth)
    manifest = {
        "dataset": cfg["dataset"],
        "params": arguments,
        "n": cloud.n,
        "dim": cloud.dim,
        "points_sha256": _sha256_of(cloud.points),
    }
    with _open_output(os.path.join(args.out, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {cloud.n} points to {args.out}")
    return 0


def cmd_build_graph(args) -> int:
    cfg, cloud, _ = _read_inputs(args)
    model = build_model_from_config(cfg, cloud)
    lam = model.spectrum.eigenvalues
    print(f"n={model.n} dim={cloud.dim} k={model.neighbors.k} sigma={model.sigma:.6g}")
    print(f"eigenvalues ({model.spectrum.num_eigs}): "
          + " ".join(f"{v:.6f}" for v in lam[: min(10, lam.size)]))
    return 0


def _print_accuracy(pred: np.ndarray, truth: np.ndarray) -> None:
    oa, aa, kappa = accuracy_scores(pred, truth)
    print(f"OA={oa:.4f} AA={aa:.4f} kappa={kappa:.4f}")


def cmd_lund(args) -> int:
    cfg, cloud, truth = _read_inputs(args, args.out, args.scores_out)
    if args.num_clusters is not None:
        _check_count("num_clusters", args.num_clusters, cloud.n)
    model, t, emb, scores = _prepare_scores(cfg, cloud, truth)
    result = (
        lund(scores, model.density, emb)
        if args.num_clusters is None
        else lund_k(scores, model.density, emb, args.num_clusters)
    )
    save_labels(args.out, result.labels)
    if args.scores_out:
        save_mode_scores_csv(args.scores_out, scores, model.density)
    print(f"t={t:.6g} clusters={result.num_clusters} wrote {args.out}")
    if truth is not None:
        _print_accuracy(align_labels(result.labels, truth), truth)
    return 0


def cmd_land(args) -> int:
    cfg, cloud, truth = _read_inputs(args, args.out)
    _check_count("budget", args.budget, cloud.n)
    if truth is None and not args.interactive:
        raise ConfigError("batch mode needs --truth (or use --interactive)")
    oracle = (InteractiveOracle(args.budget, points=cloud.points) if args.interactive
              else GroundTruthOracle(truth, args.budget))
    model, t, emb, scores = _prepare_scores(cfg, cloud, truth)
    result = land(scores, model.density, emb, args.budget, oracle)
    save_labels(args.out, result.labels)
    print(f"t={t:.6g} queried={result.queries_used} wrote {args.out}")
    if truth is not None:
        _print_accuracy(result.labels, truth)
        missing = np.setdiff1d(np.unique(truth[truth > 0]), result.observed_classes())
        if missing.size:
            print(f"classes never observed by the oracle: {missing.tolist()}")
    return 0


def cmd_bench(args) -> int:
    cfg = _cfg_from_args(args)
    out_dir = cfg.get("out") or "bench_out"
    results, manifest = run_experiment(cfg, out_dir)
    print(f"wrote {results} and {manifest}")
    return 0


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step in log10, got {text!r}")
    try:
        grid = float(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise ConfigError(f"bad grid {text!r}") from None
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"bad grid {text!r}: start, stop and step must be finite")
    return grid


def cmd_scan_t(args) -> int:
    cfg, cloud, truth = _read_inputs(args, args.out)
    path = scan_t(cfg, cloud, truth, _parse_grid(args.t_grid), args.out)
    print(f"wrote {path}")
    return 0


def cmd_purity(args) -> int:
    cfg, cloud, truth = _read_inputs(args, args.out)
    _check_count("--levels", args.levels, cloud.n)
    model, t, emb, scores = _prepare_scores(cfg, cloud, truth)
    levels = list(range(1, args.levels + 1))
    with _open_output(args.out) as fh:
        fh.write("level,purity,method\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = lund_purity_curve(scores, model.density, emb, levels, truth)
        for ell, value in zip(levels, curve):
            fh.write(f"{ell},{value!r},lund\n")
        for method in ("single", "average"):
            curve = cut_purity_curve(linkage(cloud, method), levels, truth)
            for ell, value in zip(levels, curve):
                fh.write(f"{ell},{value!r},{method}\n")
    print(f"wrote {args.out}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # one line on stderr, like every other config error
        self.exit(2, f"config error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="diffal",
        description="Diffusion-geometry active learning and clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    _add_keys(p, "dataset", choices=GENERATORS, required=True)
    _add_keys(p, "data_seed", ("--seed", "data_seed"), *GENERATOR_KEYS)
    _add_keys(p, "out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("build-graph", help="build and summarize the diffusion graph")
    _add_input_flags(p)
    _add_keys(p, *GRAPH_KEYS)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("lund", help="unsupervised labeling")
    _add_input_flags(p)
    _add_keys(p, "truth", "t")
    p.add_argument("--num-clusters", type=int)
    p.add_argument("--scores-out")
    _add_keys(p, "out", required=True)
    _add_keys(p, *GRAPH_KEYS)
    p.set_defaults(func=cmd_lund)

    p = sub.add_parser("land", help="active labeling with an oracle")
    _add_input_flags(p)
    _add_keys(p, "truth", "t")
    p.add_argument("--interactive", action="store_true")
    p.add_argument("--budget", type=int, required=True)
    _add_keys(p, "out", required=True)
    _add_keys(p, *GRAPH_KEYS)
    p.set_defaults(func=cmd_land)

    p = sub.add_parser("bench", help="config-driven experiment over budgets/methods")
    p.add_argument("--config")
    _add_keys(p, "dataset", "truth", "budgets", "methods", ("--method", "methods"), "trials",
              "root_seed", ("--seed", "root_seed"), "data_seed", "t", "out", *GRAPH_KEYS)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("scan-t", help="cluster-count estimates over a log10 time grid")
    p.add_argument("--config")
    p.add_argument("--data")
    _add_keys(p, "dataset", "truth", "data_seed")
    p.add_argument("--t-grid", default="0:8:0.5")
    _add_keys(p, "out", required=True)
    _add_keys(p, *GRAPH_KEYS)
    p.set_defaults(func=cmd_scan_t)

    p = sub.add_parser("purity", help="purity curves for lund and linkage cuts")
    p.add_argument("--data", required=True)
    _add_keys(p, "truth", required=True)
    _add_keys(p, "t")
    p.add_argument("--levels", type=int, default=40)
    _add_keys(p, "out", required=True)
    _add_keys(p, *GRAPH_KEYS)
    p.set_defaults(func=cmd_purity)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # each library warning as one stderr line, without the file path and the
    # source line of Python's default display
    shown, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except NumericalError as exc:  # a ValueError, so it is caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    # in the CLI an oracle's budget runs out only when --interactive input closes
    except (DataError, BudgetExceededError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:  # OSError: a write or --cache failed
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
