"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them all).

Thresholds are fixed here, not tuned at runtime; dataset seeds are frozen
so every run checks the same instances.
"""

import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import diffal as da

from conftest import brute_force_nearest_denser
from reference import transition_matrix


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. perfect recovery on separated Gaussian mixtures
# ---------------------------------------------------------------------------

def test_criterion_1_perfect_recovery_on_separated_gaussians():
    failures = []
    max_elapsed = 0.0
    for seed in range(20):
        start = time.perf_counter()
        rng = np.random.default_rng(1000 + seed)
        sd = 0.5
        means = [
            [0.0, 0.0],
            [10 * sd + rng.uniform(0, 3), 0.0],
            [rng.uniform(0, 3), 10 * sd + rng.uniform(0, 3)],
        ]
        cloud, truth = da.gen_gaussians(means, sd, [200, 200, 200], seed=seed)
        assert cloud.n == 600 and cloud.dim == 2
        model = da.build_model(cloud)
        eligible = 0
        for t in da.log_t_grid(0.0, 6.0, 0.5):
            try:
                emb, scores = model.scores_at(t)
            except ValueError:
                continue
            diag = da.separation_diagnostics(emb, model.density, truth)
            top3 = set(int(i) for i in scores.order[:3])
            peaks = set(int(i) for i in diag.maximizer_indices)
            if diag.land_condition_holds and peaks <= top3:
                eligible += 1
                result = da.land(
                    scores, model.density, emb, 3, da.GroundTruthOracle(truth, 3)
                )
                oa = da.overall_accuracy(result.labels, truth)
                if oa != 1.0:
                    failures.append((seed, float(t), oa))
        elapsed = time.perf_counter() - start
        max_elapsed = max(max_elapsed, elapsed)
        if eligible == 0:
            failures.append((seed, None, "no eligible t in scan"))
        if elapsed >= 10.0:
            failures.append((seed, None, f"runtime {elapsed:.1f}s"))
    _report(
        "separated-gaussians-perfect-recovery",
        not failures,
        f"(20 datasets, max {max_elapsed:.1f}s each){' ' + repr(failures) if failures else ''}",
    )


# ---------------------------------------------------------------------------
# 2. truncated distances equal the transition-profile definition
# ---------------------------------------------------------------------------

def test_criterion_2_spectral_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(30, 101))
        pts = rng.normal(size=(n, int(rng.integers(2, 6))))
        cloud = da.PointCloud(pts)
        nb = da.knn_search(cloud, min(8, n - 1))
        W = da.kernel_matrix(nb, da.default_sigma(nb))
        spec = da.spectral_decompose(W, n)
        P, pi = transition_matrix(W)
        P = P.toarray()
        inv_sqrt_pi = 1.0 / np.sqrt(pi)
        for t in (1, 2, 5):
            Pt = np.linalg.matrix_power(P, t)
            direct = pdist(Pt * inv_sqrt_pi[None, :])
            emb = da.diffusion_embed(spec, float(t))
            trunc = pdist(emb.coords)
            denom = np.maximum(direct, 1e-12)
            worst = max(worst, float(np.max(np.abs(direct - trunc) / denom)))
    _report(
        "diffusion-distance-matches-transition-profiles",
        worst <= 1e-8,
        f"(10 graphs, worst relative error {worst:.2e})",
    )


# ---------------------------------------------------------------------------
# 3. expanding-neighbor search equals the quadratic scan exactly
# ---------------------------------------------------------------------------

def test_criterion_3_nearest_denser_matches_quadratic_scan():
    rng = np.random.default_rng(78)
    checked = 0
    for trial in range(20):
        n = int(rng.integers(50, 501))
        dim = int(rng.integers(1, 10))
        coords = rng.normal(size=(n, dim))
        p = rng.uniform(0.5, 2.0, size=n)
        if trial % 4 == 1:  # exact ties in both density and geometry
            coords = np.round(coords, 1)
            p = np.round(p, 1)
        if trial % 4 == 2:  # duplicates
            coords[: n // 10] = coords[0]
        if trial % 4 == 3:  # a real pipeline embedding and density
            cloud, _ = da.gen_gaussians(
                [[0.0, 0.0], [6.0, 0.0]], 0.6, [n // 2, n - n // 2], seed=trial
            )
            model = da.build_model(cloud, k=min(10, n - 1))
            emb, _ = model.scores_at(100.0)
            coords, p = emb.coords, model.density.p
        emb = da.DiffusionEmbedding(coords=np.asarray(coords, dtype=float), t=1.0)
        dens = da.DensityEstimate(p=np.asarray(p, dtype=float))
        got_rho, got_nh = da.nearest_denser_points(emb, dens)
        exp_rho, exp_nh = brute_force_nearest_denser(coords, p)
        assert np.array_equal(got_rho, exp_rho), f"trial {trial}: rho values differ"
        assert np.array_equal(got_nh, exp_nh), f"trial {trial}: argmin points differ"
        checked += n
    _report(
        "nearest-denser-search-exact",
        True,
        f"(20 datasets, {checked} points, bitwise equal)",
    )


# ---------------------------------------------------------------------------
# 4. two-scale data shows both granularities; four queries label either one
# ---------------------------------------------------------------------------

def test_criterion_4_two_scale_ambiguity_and_active_disambiguation():
    cloud, truth4, truth2 = da.gen_hierarchical(seed=5, per_cluster=500)
    model = da.build_model(cloud)
    regimes = {}
    for t in da.log_t_grid(0.0, 8.0, 0.5):
        try:
            emb, scores = model.scores_at(t)
            k_hat = da.estimate_num_clusters(scores)
        except ValueError:
            continue
        regimes.setdefault(k_hat, []).append(float(t))
    _report(
        "two-scale-cluster-count-regimes",
        4 in regimes and 2 in regimes,
        f"(K=4 at {len(regimes.get(4, []))} grid points, "
        f"K=2 at {len(regimes.get(2, []))})",
    )

    def best_oa(times, truth):
        best = 0.0
        for t in times:
            emb, scores = model.scores_at(t)
            result = da.land(
                scores, model.density, emb, 4, da.GroundTruthOracle(truth, 4)
            )
            best = max(best, da.overall_accuracy(result.labels, truth))
        return best

    oa_fine = best_oa(regimes[4], truth4)
    oa_coarse = best_oa(regimes[2], truth2)
    _report(
        "four-queries-label-either-granularity",
        oa_fine >= 0.99 and oa_coarse >= 0.99,
        f"(OA fine {oa_fine:.4f}, OA coarse {oa_coarse:.4f})",
    )


# ---------------------------------------------------------------------------
# 5. budget curves: LAND beats random queries and CBAL at ten labels
# ---------------------------------------------------------------------------

def _dataset_family(name):
    if name == "geometric":
        return da.gen_geometric(seed=11)
    if name == "bottleneck":
        return da.gen_bottleneck(seed=11)
    return da.gen_gaussians(
        [[0.0, 0.0], [5.0, 0.0], [2.5, 4.33]], 0.5, [500, 500, 500], seed=11
    )


def _unsupervised_time(model, num_classes):
    matches = [
        t
        for t in da.log_t_grid(0.0, 6.0, 0.5)
        if da.estimate_num_clusters(model.scores_at(t)[1]) == num_classes
    ]
    assert matches, "no scan point matches the class count"
    return matches[len(matches) // 2]


def test_criterion_5_budget_curves_beat_baselines():
    summaries = []
    ok = True
    for name in ("geometric", "bottleneck", "gaussians"):
        cloud, truth = _dataset_family(name)
        model = da.build_model(cloud)
        t = _unsupervised_time(model, len(np.unique(truth)))
        emb, scores = model.scores_at(t)

        land_curve = {
            budget: da.overall_accuracy(
                da.land(
                    scores, model.density, emb, budget,
                    da.GroundTruthOracle(truth, budget),
                ).labels,
                truth,
            )
            for budget in range(1, 11)
        }
        land_best = max(land_curve.values())
        land_at_10 = land_curve[10]

        random_mean = float(
            np.mean(
                [
                    da.overall_accuracy(
                        da.land_random(
                            model.density, emb, 10,
                            da.GroundTruthOracle(truth, 10), seed=s,
                            nearest_higher=scores.nearest_higher,
                        ).labels,
                        truth,
                    )
                    for s in range(20)
                ]
            )
        )
        dend = da.linkage(cloud, "average")
        cbal_mean = float(
            np.mean(
                [
                    da.overall_accuracy(
                        da.cbal(
                            dend, 10, da.GroundTruthOracle(truth, 10), seed=s
                        ).labels,
                        truth,
                    )
                    for s in range(20)
                ]
            )
        )
        ok = ok and land_best >= 0.95 and random_mean < land_at_10 and cbal_mean < land_at_10
        summaries.append(
            f"{name}: land {land_at_10:.3f}, random {random_mean:.3f}, cbal {cbal_mean:.3f}"
        )
    _report("ten-label-budget-beats-baselines", ok, "(" + "; ".join(summaries) + ")")


# ---------------------------------------------------------------------------
# 6. purity reaches 0.99 with fewer clusters than linkage baselines
# ---------------------------------------------------------------------------

def _min_level(purities, threshold=0.99):
    hits = np.flatnonzero(np.asarray(purities) >= threshold)
    return int(hits[0]) + 1 if hits.size else None


def test_criterion_6_purity_levels_beat_linkage():
    results = []
    ok = True
    for name, linkage_method in (("geometric", "average"), ("bottleneck", "single")):
        cloud, truth = _dataset_family(name)
        model = da.build_model(cloud)
        t = _unsupervised_time(model, len(np.unique(truth)))
        emb, scores = model.scores_at(t)
        lund_purities = [
            da.purity(da.lund_k(scores, model.density, emb, k).labels, truth)
            for k in range(1, 41)
        ]
        lund_level = _min_level(lund_purities)

        dend = da.linkage(cloud, linkage_method)
        curve = da.cut_purity_curve(dend, range(1, cloud.n + 1), truth)
        linkage_level = _min_level(curve)

        monotone = bool(np.all(np.diff(curve) >= -1e-15))
        final_exact = curve[-1] == 1.0
        ok = ok and lund_level is not None and lund_level < linkage_level
        ok = ok and monotone and final_exact
        results.append(
            f"{name}: lund level {lund_level} vs {linkage_method} {linkage_level}, "
            f"monotone={monotone}, final={curve[-1]}"
        )
    _report("purity-levels-beat-linkage", ok, "(" + "; ".join(results) + ")")


# ---------------------------------------------------------------------------
# 7. metric identities
# ---------------------------------------------------------------------------

def test_criterion_7_metric_identities():
    checks = []
    checks.append(da.cohens_kappa([1, 2, 1, 2], [1, 2, 1, 2]) == 1.0)
    checks.append(abs(da.cohens_kappa([1, 1, 1, 1], [1, 1, 2, 2])) <= 1e-15)
    truth = [1] * 50 + [2] * 50
    pred = [1] * 45 + [2] * 5 + [1] * 10 + [2] * 40
    checks.append(abs(da.cohens_kappa(pred, truth) - 0.70) <= 1e-12)
    checks.append(da.overall_accuracy([1, 1, 2, 2], [1, 1, 2, 1]) == 0.75)
    aa = da.average_accuracy([1] * 9 + [1], [1] * 9 + [2])
    checks.append(abs(aa - 0.5) <= 1e-12)
    checks.append(abs(da.purity([1, 1, 1, 2, 2], [1, 1, 2, 2, 2]) - 0.8) <= 1e-12)
    checks.append(da.purity([1, 1, 1, 1], [1, 1, 2, 2]) == 0.5)
    checks.append(da.purity([1, 2, 3, 4], [1, 1, 2, 2]) == 1.0)
    _report("metric-identities", all(checks), f"({sum(checks)}/{len(checks)} hand cases)")


# ---------------------------------------------------------------------------
# 8. runtime grows quasilinearly from 5k to 10k points
# ---------------------------------------------------------------------------

def test_criterion_8_runtime_scaling_gate():
    def run_once(cloud, truth):
        start = time.perf_counter()
        model = da.build_model(cloud)
        emb, scores = model.scores_at(1000.0)
        result = da.land(
            scores, model.density, emb, 3, da.GroundTruthOracle(truth, 3)
        )
        elapsed = time.perf_counter() - start
        assert np.all(result.labels == 1)
        return elapsed

    medians = {}
    for n in (5000, 10000):
        cloud, truth = da.gen_gaussians([[0.0, 0.0]], 1.0, [n], seed=0)
        medians[n] = float(np.median([run_once(cloud, truth) for _ in range(5)]))
    ratio = medians[10000] / medians[5000]
    _report(
        "doubling-runtime-gate",
        ratio <= 2.8,
        f"(5k {medians[5000]:.2f}s, 10k {medians[10000]:.2f}s, ratio {ratio:.2f})",
    )


# ---------------------------------------------------------------------------
# 9. hyperspectral cube ingestion
# ---------------------------------------------------------------------------

def test_criterion_9_hsi_ingestion(tmp_path):
    rng = np.random.default_rng(79)
    header = da.HsiCubeHeader(rows=5, cols=7, bands=11, dtype="float32")
    cube = rng.normal(size=(11, 5, 7)).astype(np.float32)
    raw = tmp_path / "cube.raw"
    np.ascontiguousarray(cube).tofile(raw)
    cloud = da.load_hsi_cube(raw, header)
    roundtrip = tmp_path / "cube2.raw"
    da.save_hsi_cube(roundtrip, cloud, header)
    bit_exact = roundtrip.read_bytes() == raw.read_bytes()
    pixel_ok = all(
        np.array_equal(cloud.points[r * 7 + c], cube[:, r, c].astype(np.float64))
        for r in range(5)
        for c in range(7)
    )

    salinas = da.HsiCubeHeader(rows=83, cols=86, bands=224, dtype="int16")
    sal_raw = tmp_path / "salinas.raw"
    np.zeros(83 * 86 * 224, dtype=np.int16).tofile(sal_raw)
    sal_cloud = da.load_hsi_cube(sal_raw, salinas)

    hdr_path = tmp_path / "pavia.hdr"
    hdr_path.write_text("rows 270\ncols 50\nbands 8\ndtype uint16\nbyteorder little\n")
    pavia = da.load_hsi_header(hdr_path)
    pav_raw = tmp_path / "pavia.raw"
    np.zeros(270 * 50 * 8, dtype=np.uint16).tofile(pav_raw)
    pav_cloud = da.load_hsi_cube(pav_raw, pavia)

    ok = (
        bit_exact
        and pixel_ok
        and sal_cloud.n == 7138
        and sal_cloud.dim == 224
        and pav_cloud.n == 13500
    )
    _report(
        "hsi-ingestion",
        ok,
        f"(roundtrip bit-exact={bit_exact}, salinas n={sal_cloud.n}, pavia n={pav_cloud.n})",
    )
