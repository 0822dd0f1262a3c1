"""diffal benchmark: one workload in one process, one JSON result line.

    python3 perfbench/run.py --workload blobs2d --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; diffal is imported from its ``src``
directory.  The load is batch and closed-loop with one caller: the
workload's steps (see workloads.py) run back to back, interleaved, until
``--seconds`` is used up and every step has run.  With ``--trace 0`` the
last line carries the end-to-end metrics; with ``--trace 1`` every second
visit of a step is traced, the last line carries the per-layer metrics,
and the spans go to ``perfbench/out/<workload>-seed<seed>.trace.jsonl``.
"""

import os
import sys
import time

_START = time.perf_counter()

# Pin BLAS/OpenMP pools before numpy loads.  One thread: on a shared 2-vCPU
# machine two threads built no faster, and small eigensolves became erratic
# (0.04 s to 0.27 s for the same input) with the second vCPU's load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("blobs2d", "cube200", "paper-suite")
SETUP_REPEATS = 3  # this process plus two fresh child processes

END_TO_END = {
    "setup_s": "s", "build_s": "s", "rebuild_p50_ms": "ms", "scan_s": "s",
    "label_p50_ms": "ms", "label_p90_ms": "ms", "cli_s": "s", "total_s": "s",
    "peak_rss_mb": "MB", "land_oa": "fraction",
}

# Spans reported as <name>.self_s and <name>.calls.  The end-to-end metric
# each should move, and on which workload, is listed in README.md.
LAYER_SPANS = (
    "graph.knn_search", "graph.kernel_matrix", "graph.markov_normalize",
    "graph.spectral_decompose", "geometry.nearest_denser_points", "geometry.kde",
    "cache.load", "cache.save", "lund.propagate_labels", "land.land",
    "metrics.cohens_kappa", "metrics.align_labels", "metrics.purity",
    "baselines.linkage", "baselines.cut_sequence", "baselines.cbal",
    "baselines.land_random", "dataset.load_hsi_cube", "dataset.load_csv",
    "pipeline.build_model", "pipeline.scores_at", "cli.choose_time",
    "cli.run_experiment", "cli.cmd_purity",
)
LAYER_COUNTS = {
    "graph.kernel_nnz": "count", "graph.eig_residual_max": "norm",
    "geometry.scan_skipped": "count", "cache.hits": "count", "cache.misses": "count",
    "cache.bytes_loaded": "B", "cache.bytes_saved": "B", "baselines.merges": "count",
    "dataset.bytes_read": "B", "bench_s": "s", "purity_s": "s", "trace_overhead_s": "s",
    "trace.spans": "count", "calib.reference_ms": "ms",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for smoke runs")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_diffal() -> None:
    """Import diffal from this checkout's sources, never from elsewhere."""
    if not (SRC / "diffal" / "__init__.py").is_file():
        sys.exit(f"perfbench: no diffal sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import diffal

    if Path(diffal.__file__).resolve().parent != SRC / "diffal":
        sys.exit(f"perfbench: imported diffal from {diffal.__file__}, not {SRC}")


def child_setup_seconds(args, directory: Path) -> float:
    """Wall time of one complete set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(directory)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(args, plan, work: Path):
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    runner = workloads.Runner(plan, str(work), args.seed, workloads.SHARES[args.workload], tracer)
    # a traced run needs a plain and a traced visit of every step
    runner.run(args.seconds, min_visits=2 if args.trace else 1)
    return runner


def end_to_end(runner, setup_samples):
    """Per-step medians, so a step slowed by a neighbor barely counts.
    Step times are scaled to the baseline machine's speed (see
    workloads.REFERENCE_SECONDS); set-up time is not."""
    speed = runner.speed()
    rebuild_ms = [1e3 * s / speed for s in runner.pooled("rebuild")]
    label_ms = [1e3 * s / speed for s in runner.pooled("label")]
    oas = [oa for run in runner.datasets for oa in run.land_oa.values()]
    values = {
        "setup_s": statistics.median(setup_samples),
        "build_s": runner.pass_seconds("build") / speed,
        "rebuild_p50_ms": statistics.median(rebuild_ms),
        "scan_s": runner.pass_seconds("scan") / speed,
        "label_p50_ms": statistics.median(label_ms),
        "label_p90_ms": statistics.quantiles(label_ms, n=10, method="inclusive")[8],
        "cli_s": runner.pass_seconds("cli") / speed,
        "total_s": runner.pass_seconds() / speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "land_oa": sum(oas) / len(oas),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(runner):
    """Per-layer figures for one pass: each step's mean over its traced
    visits, times the number of times the step runs in a pass.  These are
    wall times as measured, not scaled to the baseline machine."""

    def per_pass(of):
        return sum(times * statistics.fmean(of(s) for s in runner.traced[key])
                   for key, times in runner.per_pass.items() if runner.traced[key])

    traced_total = sum(times * statistics.median(s.seconds for s in runner.traced[key])
                       for key, times in runner.per_pass.items() if runner.traced[key])
    tracer = runner.tracer
    values = {}
    for name in LAYER_SPANS:
        values[f"{name}.self_s"] = per_pass(lambda s: s.self_s.get(name, 0.0))
        values[f"{name}.calls"] = per_pass(lambda s: s.calls.get(name, 0))
    for name in ("cache.hits", "cache.misses", "cache.bytes_loaded", "cache.bytes_saved",
                 "baselines.merges", "dataset.bytes_read"):
        values[name] = per_pass(lambda s: s.counts.get(name, 0))
    values.update({
        "graph.kernel_nnz": tracer.counts.get("graph.kernel_nnz", 0),
        "graph.eig_residual_max": max(run.eig_residual for run in runner.datasets),
        "geometry.scan_skipped": sum(len(run.scan_skipped) for run in runner.datasets),
        "bench_s": runner.pass_seconds("cli", "bench"),
        "purity_s": runner.pass_seconds("cli", "purity"),
        "trace_overhead_s": traced_total - runner.pass_seconds(),
        "trace.spans": per_pass(lambda s: s.spans),
        "calib.reference_ms": 1e3 * statistics.median(runner.plain[runner.CALIB]),
    })
    units = {**{f"{n}.self_s": "s" for n in LAYER_SPANS},
             **{f"{n}.calls": "count" for n in LAYER_SPANS}, **LAYER_COUNTS}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_diffal()
    import warnings

    import workloads

    # expected on these inputs: well-separated blobs disconnect the kNN
    # graph, and sparse LAND seeds can leave the density peak unseeded
    warnings.filterwarnings("ignore", message=".*appears disconnected.*")
    warnings.filterwarnings("ignore", message=".*maximizer is unseeded.*")

    if args.setup_only:
        workloads.setup(args.workload, args.seed, args.setup_only, args.tiny)
        return 0

    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        plan = workloads.setup(args.workload, args.seed, str(work), args.tiny)
        setup_samples = [time.perf_counter() - _START]
        for i in range(SETUP_REPEATS - 1):
            child = work / f"setup-{i}"
            setup_samples.append(child_setup_seconds(args, child))
            shutil.rmtree(child)
        runner = measure(args, plan, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("digest " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  **runner.digest()}, sort_keys=True))
    if runner.tracer is not None:
        runner.tracer.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.trace.jsonl")
        metrics = per_layer(runner)
    else:
        metrics = end_to_end(runner, setup_samples)
    visits = {kind: sum(n for key, n in runner.visits.items() if key[1] == kind)
              for kind in runner.spent}
    print("steps " + json.dumps({kind: [visits[kind], round(runner.spent[kind], 3)]
                                 for kind in visits}), file=sys.stderr)
    ops = runner.ops
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
