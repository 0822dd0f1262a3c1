"""Workload inputs and the scheduler that drives diffal on them.

A workload is a list of datasets written to files during set-up.  One
*pass* over a dataset is the work a user does with it: ingest it, build its
model cold (cache miss and write), rebuild it from the warm cache REBUILDS
times, run the auto-t scan, serve labeling requests at a fixed t, and make
the workload's CLI calls.  Each of these is a *step*.  A run does not go
through passes in order: `Runner` interleaves steps of every kind through
the whole run, so each metric gets many samples spread over the run, and
reports per-step medians.  Only diffal's public API and ``diffal.cli.main``
are called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from scipy.spatial import cKDTree

import diffal as da
import diffal.cli

import checks

SCAN_GRID = (0.0, 6.0, 0.5)  # log10 start, stop, step: the CLI's auto-t grid
REBUILDS = 5                 # warm rebuilds per dataset in one pass
LABEL_REQUESTS = 100         # labeling requests per pass, split over datasets
CHECK_ROWS = 64              # rows sampled per brute-force check
PAPER_DATA_SEED = 11         # data seed of the paper-suite tables

# cube200: six endmembers from a fixed library (the scene's materials), so
# the seed varies abundances and noise but not what the materials are.
# Noise 0.5 x the endmember peak keeps LAND's accuracy well above one class
# (about 0.7 at t = 10, against 0.17) while the noisy 200-D kNN graph makes
# the shift-invert eigensolve as costly as the kNN search; at 0.25 (on
# 60 x 60 pixels) the eigensolve dropped to about 1 s and kNN dominated
# alone.  52 x 52 pixels keep a cold build near 6 s, so a run holds
# several of them.
CUBE_ENDMEMBER_SEED = 12345
CUBE_CLASSES = 6
CUBE_NOISE = 0.5
CUBE_SIDE = 52

KINDS = ("ingest", "build", "rebuild", "scan", "label", "cli", "calib")

# The speed of a shared machine drifts by 15-25 % between runs of the same
# input, and every step of a run moves with it.  So a run also times a
# fixed reference computation (`reference`, a "calib" step) all through
# itself, and end-to-end times are scaled to the speed at which that
# computation took REFERENCE_SECONDS, its median on the baseline machine.
REFERENCE_SECONDS = 0.025
_REFERENCE_POINTS = np.random.default_rng(0).standard_normal((2000, 2))

# Share of a run's measured time that each kind of step gets.  The scheduler
# always runs the kind furthest below its share, so every kind is sampled
# all through the run: a slow spell of a shared machine then hits a few
# samples of each kind, not every sample of one.
SHARES = {
    "blobs2d": {"ingest": 0.04, "build": 0.32, "rebuild": 0.04,
                "scan": 0.30, "label": 0.10, "cli": 0.20, "calib": 0.05},
    "cube200": {"ingest": 0.03, "build": 0.60, "rebuild": 0.03,
                "scan": 0.26, "label": 0.05, "cli": 0.05, "calib": 0.05},
    "paper-suite": {"ingest": 0.03, "build": 0.12, "rebuild": 0.03,
                    "scan": 0.12, "label": 0.10, "cli": 0.60, "calib": 0.05},
}


@dataclass
class Dataset:
    name: str
    data: str
    truth: str
    t_log10: float             # grid point used for labeling requests
    header: str | None = None  # raw cube header; None means a points CSV
    cli: tuple = ()            # CLI calls: "land", "lund", "bench", "purity"
    levels: int = 400          # purity levels
    trials: int = 20           # bench trials
    budgets: str = "1,2,3,4,5,6,7,8,9,10,15,20"


@dataclass
class Ops:
    """Attempted and failed operations; a failed check fails its operation."""

    attempted: int = 0
    failed: int = 0

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAILED: {problem}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def linear_mixing_cube(seed: int, rows: int, cols: int, bands: int = 200):
    """Seeded linear-mixing hyperspectral scene.

    Six smooth endmember spectra (sums of three Gaussian bumps, peak 1),
    Dirichlet abundances whose dominant endmember is set per block of a
    3 x 2 block grid, and Gaussian band noise of CUBE_NOISE.  Truth is each
    pixel's largest abundance.  Returns (pixels x bands array, truth).
    """
    lib = np.random.default_rng(CUBE_ENDMEMBER_SEED)
    lam = np.linspace(0.0, 1.0, bands)
    ends = np.zeros((CUBE_CLASSES, bands))
    for j in range(CUBE_CLASSES):
        for _ in range(3):
            amp, center, width = lib.uniform(0.3, 1.0), lib.uniform(0, 1), lib.uniform(0.05, 0.2)
            ends[j] += amp * np.exp(-((lam - center) ** 2) / (2 * width * width))
    ends /= ends.max()

    rng = np.random.default_rng(seed)
    r, c = np.divmod(np.arange(rows * cols), cols)
    dominant = (r * 3 // rows) * 2 + (c * 2 // cols)
    alpha = np.ones((rows * cols, CUBE_CLASSES))
    alpha[np.arange(rows * cols), dominant] = 10.0
    abundances = np.array([rng.dirichlet(a) for a in alpha])
    pixels = abundances @ ends + CUBE_NOISE * rng.standard_normal((rows * cols, bands))
    return pixels, abundances.argmax(axis=1) + 1


def _write_csv(directory, name, cloud, truth, **fields) -> Dataset:
    data = os.path.join(directory, f"{name}.csv")
    labels = os.path.join(directory, f"{name}_truth.txt")
    da.save_csv(data, cloud)
    da.save_labels(labels, truth)
    return Dataset(name=name, data=data, truth=labels, **fields)


def _write_cube(directory, name, seed, side, **fields) -> Dataset:
    pixels, truth = linear_mixing_cube(seed, side, side)
    header = da.HsiCubeHeader(rows=side, cols=side, bands=pixels.shape[1], dtype="float32")
    data = os.path.join(directory, f"{name}.bsq")
    head = os.path.join(directory, f"{name}.hdr")
    labels = os.path.join(directory, f"{name}_truth.txt")
    da.save_hsi_cube(data, da.PointCloud(pixels), header)
    da.save_hsi_header(head, header)
    da.save_labels(labels, truth)
    return Dataset(name=name, data=data, truth=labels, header=head, **fields)


def _blobs(seed, per_blob):
    means = [[0.0, 0.0], [5.0, 0.0], [2.5, 4.33]]  # the CLI's default layout
    return da.gen_gaussians(means, 1.0, [per_blob] * 3, seed)


def make_inputs(workload: str, seed: int, directory, tiny: bool) -> list[Dataset]:
    """Write the workload's input files; the same seed gives the same files."""
    if workload == "blobs2d":
        cloud, truth = _blobs(seed, 200 if tiny else 3000)
        return [_write_csv(directory, "blobs", cloud, truth, t_log10=3.0, cli=("land", "lund"))]
    if workload == "cube200":
        return [_write_cube(directory, "cube", seed, 24 if tiny else CUBE_SIDE,
                            t_log10=1.0, cli=("land", "lund"))]
    if workload == "paper-suite":
        suite = []
        for name, gen, sizes in (
            ("geometric", da.gen_geometric, (150, 150, 150) if tiny else (500, 500, 500)),
            ("bottleneck", da.gen_bottleneck, (200, 200, 20) if tiny else (700, 700, 60)),
        ):
            cloud, truth = gen(PAPER_DATA_SEED, sizes)
            suite.append(_write_csv(
                directory, name, cloud, truth, t_log10=4.0, cli=("bench", "purity"),
                levels=40 if tiny else 400, trials=2 if tiny else 20,
                budgets="1,2,3,5" if tiny else Dataset.budgets,
            ))
        return suite
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, directory) -> None:
    """One untimed visit of every step the workload makes, on a tiny input."""
    if workload == "cube200":
        plan = [_write_cube(directory, "warm", 0, 20, t_log10=1.0, cli=("land", "lund"))]
    else:
        cloud, truth = _blobs(0, 134)
        cli = ("bench", "purity") if workload == "paper-suite" else ("land", "lund")
        plan = [_write_csv(directory, "warm", cloud, truth, t_log10=3.0, cli=cli,
                           levels=10, trials=1, budgets="3")]
    with contextlib.redirect_stdout(io.StringIO()):
        Runner(plan, directory, 0, SHARES[workload], label_requests=6).run(0.0)


def setup(workload: str, seed: int, directory, tiny: bool) -> list[Dataset]:
    os.makedirs(directory, exist_ok=True)
    plan = make_inputs(workload, seed, directory, tiny)
    warm = os.path.join(directory, "warm-up")
    os.makedirs(warm, exist_ok=True)
    warm_up(workload, warm)
    shutil.rmtree(warm)
    return plan


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def reference(_=None):
    """The calib step: fixed numpy/scipy work of the kinds diffal does (a
    kd-tree kNN query, sparse products, a sparse LU solve, a Python loop),
    on fixed data and without diffal.  Returns (seconds, None)."""
    start = perf_counter()
    points = _REFERENCE_POINTS
    n, k = points.shape[0], 10
    dist, idx = cKDTree(points).query(points, k=k)
    W = sparse.csr_matrix((np.exp(-dist.ravel() ** 2), (np.repeat(np.arange(n), k), idx.ravel())),
                          shape=(n, n))
    W = W + W.T
    v = np.ones(n)
    for _ in range(20):
        v = W @ v
        v /= v.sum()
    splinalg.splu((W + 10 * sparse.identity(n)).tocsc()).solve(v)
    total = 0
    for i in range(20000):
        total += i % 7
    return perf_counter() - start, None


def _cli(argv) -> int:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return diffal.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code


def _same_model(a, b) -> bool:
    return (np.array_equal(a.neighbors.indices, b.neighbors.indices)
            and np.array_equal(a.neighbors.distances, b.neighbors.distances)
            and np.array_equal(a.spectrum.eigenvalues, b.spectrum.eigenvalues)
            and np.array_equal(a.spectrum.basis, b.spectrum.basis)
            and np.array_equal(a.density.p, b.density.p))


class _DatasetRun:
    """One dataset's steps.

    A step times only the diffal calls, then checks the output against an
    independent computation (first visit) or against its first visit
    (later visits).  It returns (seconds, problem): seconds is None when
    the step raised, problem is None when the output is right.
    """

    def __init__(self, ds: Dataset, directory, seed: int, requests: int):
        self.ds, self.seed, self.requests = ds, seed, requests
        self.cache = os.path.join(directory, f"cache-{ds.name}")
        self.out = os.path.join(directory, f"out-{ds.name}")
        os.makedirs(self.out, exist_ok=True)
        self.truth = da.load_labels(ds.truth)
        self.num_classes = int(self.truth.max())
        self.grid = da.log_t_grid(*SCAN_GRID)
        self.first: dict = {}       # (kind, sub) -> sha256 of its first output
        self.land_oa: dict = {}     # request index -> OA of that land request
        self.scan_skipped: set = set()
        self.eig_residual = 0.0
        self.cloud = self.model = None
        self.t = self.emb = self.scores = None

    @property
    def label_index(self) -> int:
        return int(round((self.ds.t_log10 - SCAN_GRID[0]) / SCAN_GRID[2]))

    def steps(self):
        """(kind, sub, times in one pass) for every step of a pass."""
        yield "ingest", None, 1
        yield "build", None, 1
        yield "rebuild", None, REBUILDS
        first = self.label_index
        for index in [first] + [i for i in range(self.grid.size) if i != first]:
            yield "scan", index, 1
        for i in range(self.requests):
            yield "label", i, 1
        for command in self.ds.cli:
            yield "cli", command, 1

    def _same(self, step, output: bytes, what: str):
        digest = hashlib.sha256(output).hexdigest()
        if self.first.setdefault(step, digest) != digest:
            return f"{self.ds.name}: {what} differs from its first run"
        return None

    def ingest(self, _):
        start = perf_counter()
        if self.ds.header is None:
            cloud = da.load_csv(self.ds.data)
        else:
            cloud = da.load_hsi_cube(self.ds.data, da.load_hsi_header(self.ds.header))
        seconds = perf_counter() - start
        if self.cloud is None:
            self.cloud = cloud
            self.rows = np.random.default_rng(self.seed).choice(
                cloud.n, size=min(CHECK_ROWS, cloud.n), replace=False)
            return seconds, None
        same = np.array_equal(cloud.points, self.cloud.points)
        return seconds, None if same else f"{self.ds.name}: ingest differs from its first run"

    def build(self, _):
        shutil.rmtree(self.cache, ignore_errors=True)
        start = perf_counter()
        model = da.build_model(self.cloud, cache_dir=self.cache)
        seconds = perf_counter() - start
        if self.model is not None:
            same = _same_model(model, self.model)
            return seconds, None if same else f"{self.ds.name}: cold build differs from the first"
        self.model = model
        nb = model.neighbors
        k = da.default_num_neighbors(self.cloud.n)
        self.eig_residual = checks.eig_residual(nb.indices[:, :k], nb.distances[:, :k],
                                                model.sigma, model.spectrum)
        if not self.eig_residual <= checks.EIG_RESIDUAL_BOUND:
            return seconds, (f"eigen-residual {self.eig_residual:.3g} above "
                             f"{checks.EIG_RESIDUAL_BOUND:g}")
        return seconds, checks.knn_rows(self.cloud.points, nb.indices, nb.distances, self.rows)

    def rebuild(self, _):
        start = perf_counter()
        warm = da.build_model(self.cloud, cache_dir=self.cache)
        seconds = perf_counter() - start
        if not _same_model(warm, self.model):
            return seconds, f"{self.ds.name}: cached rebuild differs from the cold build"
        return seconds, None

    def scan(self, index: int):
        t = float(self.grid[index])
        start = perf_counter()
        try:
            emb, scores = self.model.scores_at(t)
            k_hat = da.estimate_num_clusters(scores)
        except ValueError:
            # documented: zero mode scores in the searched range
            emb = scores = k_hat = None
            self.scan_skipped.add(index)
        seconds = perf_counter() - start
        problem = self._same(("scan", index), repr(k_hat).encode(), f"k-hat at t={t!r}")
        if index == self.label_index and self.scores is None:
            if scores is None:
                raise RuntimeError(f"{self.ds.name}: no mode scores at t={t!r}")
            self.t, self.emb, self.scores = t, emb, scores
            problem = problem or checks.nearest_denser_rows(
                emb.coords, self.model.density.p, scores.rho, scores.nearest_higher, self.rows)
        return seconds, problem

    def label(self, i: int):
        """Request i: land, land_random or lund, then OA, AA and kappa."""
        kind = ("land", "land_random", "lund")[i % 3]
        budget = 10 + (i // 3) % 20
        model, scores, emb, truth = self.model, self.scores, self.emb, self.truth
        try:
            start = perf_counter()
            if kind == "land":
                result = da.land(scores, model.density, emb, budget,
                                 da.GroundTruthOracle(truth, budget))
                pred = result.labels
            elif kind == "land_random":
                result = da.land_random(model.density, emb, budget,
                                        da.GroundTruthOracle(truth, budget),
                                        seed=self.seed * 1000 + i,
                                        nearest_higher=scores.nearest_higher)
                pred = result.labels
            else:
                result = da.lund_k(scores, model.density, emb, self.num_classes)
                pred = da.align_labels(result.labels, truth)
            oa = da.overall_accuracy(pred, truth)
            da.average_accuracy(pred, truth)
            da.cohens_kappa(pred, truth)
            seconds = perf_counter() - start
        except Exception:
            return None, (f"{self.ds.name}: {kind}(budget={budget}) raised\n"
                          f"{traceback.format_exc()}")
        if kind == "land":
            self.land_oa.setdefault(i, oa)
            problem = checks.land_queries(result.queried_indices, scores.order, budget)
        elif kind == "land_random":
            problem = checks.random_queries(result.queried_indices, budget)
        elif not np.array_equal(result.mode_indices, scores.order[:self.num_classes]):
            problem = f"{self.ds.name}: lund modes are not the top-K prefix of order"
        else:
            problem = None
        return seconds, (problem
                         or checks.complete_labels(result.labels, self.num_classes)
                         or self._same(("label", i), result.labels.tobytes(), f"request {i}"))

    def cli(self, command: str):
        ds = self.ds
        source = ["--data", ds.data, "--truth", ds.truth, "--cache", self.cache]
        if command in ("land", "lund"):
            if ds.header is not None:
                source += ["--hsi-header", ds.header]
            path = os.path.join(self.out, f"{command}.txt")
            extra = (["--budget", "20"] if command == "land"
                     else ["--num-clusters", str(self.num_classes)])
            argv = [command, *source, "--t", repr(self.t), *extra, "--out", path]
        elif command == "bench":
            path = os.path.join(self.out, "results.csv")
            argv = ["bench", "--dataset", ds.data, "--truth", ds.truth, "--cache", self.cache,
                    "--methods", "land,land-random,cbal,lund", "--budgets", ds.budgets,
                    "--trials", str(ds.trials), "--t", "auto", "--root-seed", str(self.seed),
                    "--out", self.out]
        else:
            path = os.path.join(self.out, "purity.csv")
            argv = ["purity", *source, "--t", "auto", "--levels", str(ds.levels), "--out", path]
        start = perf_counter()
        code = _cli(argv)
        seconds = perf_counter() - start
        if code != 0:
            return seconds, f"{ds.name}: CLI {command} exited with code {code}"
        with open(path, "rb") as fh:
            output = fh.read()
        problem = self._same(("cli", command), output, f"CLI {command} output")
        if problem is not None:
            return seconds, problem
        if command not in ("bench", "purity"):
            want = (da.land(self.scores, self.model.density, self.emb, 20,
                            da.GroundTruthOracle(self.truth, 20))
                    if command == "land"
                    else da.lund_k(self.scores, self.model.density, self.emb, self.num_classes))
            if not np.array_equal(da.load_labels(path), want.labels):
                return seconds, f"{ds.name}: CLI {command} labels differ from the API"
            return seconds, None
        if command == "bench":
            rows = len(ds.budgets.split(",")) * (1 + 2 * ds.trials) + 1
            return seconds, checks.results_csv(output.decode(), rows)
        return seconds, checks.purity_csv(output.decode(), ds.levels)


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------

# digest part that each step's first output goes into
_DIGEST_PART = {"scan": "scan", "label": "labels", "land": "cli", "lund": "cli",
                "bench": "results_csv", "purity": "purity_csv"}


class Runner:
    """Runs a workload's steps, interleaved, until its time is used up.

    After one calib step, each dataset gets ingest, a cold build and the
    scan point at its labeling t, which later steps need.  After that the next step is of the
    kind furthest below its share of the measured time, and within the
    kind it is the step visited least (ties in pass order).  The run stops
    before the first step that would end past ``seconds``, but not before
    every step of a pass has been visited ``min_visits`` times.  With a
    tracer, every second visit of a step is traced; the other visits are
    the plain samples the end-to-end metrics come from.  The calib step
    (`reference`) is not part of a pass and is never traced.
    """

    CALIB = (None, "calib", None)

    def __init__(self, plan, directory, seed: int, shares: dict, tracer=None,
                 label_requests: int = LABEL_REQUESTS):
        requests = max(1, label_requests // len(plan))
        self.datasets = [_DatasetRun(ds, directory, seed, requests) for ds in plan]
        self.shares, self.tracer = shares, tracer
        self.ops = Ops()
        # (dataset index, kind, sub) -> times that step runs in one pass
        self.per_pass = {(d, kind, sub): times for d, run in enumerate(self.datasets)
                         for kind, sub, times in run.steps()}
        self.plain = defaultdict(list)    # step -> seconds of untraced visits
        self.traced = defaultdict(list)   # step -> spans.Sample of traced visits
        self.visits = Counter()
        self.spent = dict.fromkeys(KINDS, 0.0)
        self.durations = defaultdict(list)  # kind -> seconds of every visit

    def step(self, key) -> None:
        d, kind, sub = key
        traced = self.tracer is not None and kind != "calib" and self.visits[key] % 2 == 1
        self.visits[key] += 1
        if traced:
            self.tracer.start()
        try:
            run = reference if kind == "calib" else getattr(self.datasets[d], kind)
            seconds, problem = run(sub)
        finally:
            if traced:
                sample = self.tracer.stop()
        if kind != "calib":
            self.ops.record(problem)
        if seconds is None:
            return
        self.spent[kind] += seconds
        self.durations[kind].append(seconds)
        if traced:
            sample.seconds = seconds
            self.traced[key].append(sample)
        else:
            self.plain[key].append(seconds)

    def run(self, seconds: float, min_visits: int = 1) -> None:
        start = perf_counter()
        self.step(self.CALIB)
        for d, run in enumerate(self.datasets):
            for kind, sub in (("ingest", None), ("build", None), ("scan", run.label_index)):
                self.step((d, kind, sub))
        by_kind = {kind: [key for key in self.per_pass if key[1] == kind] for kind in KINDS}
        by_kind["calib"] = [self.CALIB]
        while True:
            elapsed = perf_counter() - start
            todo = [key for key in self.per_pass if self.visits[key] < min_visits]
            if todo and elapsed >= seconds:
                key = todo[0]  # overtime: only finish the steps still short of visits
            else:
                kind = min(KINDS, key=lambda k: self.spent[k] / self.shares[k])
                typical = statistics.median(self.durations[kind] or [0.0])
                if not todo and elapsed + typical > seconds:
                    break
                key = min(by_kind[kind], key=self.visits.__getitem__)
            self.step(key)

    def pass_seconds(self, kind: str | None = None, command: str | None = None) -> float:
        """Time of one pass (or of its steps of one kind or CLI command),
        summed from the median of each step's plain visits."""
        return sum(times * statistics.median(self.plain[key])
                   for key, times in self.per_pass.items()
                   if self.plain[key] and kind in (None, key[1]) and command in (None, key[2]))

    def speed(self) -> float:
        """How much slower than the baseline machine this run's machine
        was: the calib step's median over REFERENCE_SECONDS."""
        return statistics.median(self.plain[self.CALIB]) / REFERENCE_SECONDS

    def pooled(self, kind: str) -> list[float]:
        return [s for key, values in self.plain.items() if key[1] == kind for s in values]

    def digest(self) -> dict:
        """sha256 over the first output of every step of a pass, in pass order."""
        parts: dict = {}
        for d, kind, sub in self.per_pass:
            step = self.datasets[d].first.get((kind, sub))
            if step is not None:
                part = _DIGEST_PART[sub if kind == "cli" else kind]
                parts.setdefault(part, hashlib.sha256()).update(step.encode())
        return {part: h.hexdigest() for part, h in sorted(parts.items())}
