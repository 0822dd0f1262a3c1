"""Deterministic synthetic dataset generators with ground truth.

All generators are pure functions of (seed, parameters): they draw from
numpy's PCG64 generator seeded explicitly, so outputs are bitwise
reproducible across runs and platforms for a fixed numpy version.  Shape
constants below are frozen so downstream thresholds stay stable.
"""

from __future__ import annotations

import numpy as np

from .dataset import PointCloud

# Four-blob layout with a two-scale structure: horizontal gaps are smaller
# than vertical ones, so the left/right pairs merge first at coarse scales.
HIERARCHICAL_MEANS = ((0.0, 0.0), (0.0, 2.0), (1.5, 0.0), (1.5, 2.0))
# bottom pair and top pair form the two coarse classes
HIERARCHICAL_COARSE = (1, 2, 1, 2)

# geometric dataset: annulus + elongated strip + compact blob
ANNULUS_CENTER = (0.0, 0.0)
ANNULUS_RADIUS = 3.0
ANNULUS_RADIAL_NOISE = 0.12
STRIP_Y = -5.5
STRIP_HALF_LENGTH = 5.0
STRIP_NOISE = 0.15
BLOB_CENTER = (6.5, 2.5)
BLOB_STDDEV = 0.3

# bottleneck dataset: two blobs joined by a thin chain of bridge points
BOTTLENECK_CENTERS = ((-3.0, 0.0), (3.0, 0.0))
BOTTLENECK_STDDEV = 0.5
BRIDGE_SPAN = 2.0    # bridge x ranges over [-span, span]
BRIDGE_NOISE = 0.05


def gen_gaussians(means, stddev: float, sizes, seed: int) -> tuple[PointCloud, np.ndarray]:
    """Isotropic Gaussian blobs; truth is the component index 1..K."""
    if not 0 < stddev < np.inf:
        raise ValueError(f"stddev must be positive and finite, got {stddev}")
    means = [np.asarray(m, dtype=np.float64) for m in means]
    if len(means) != len(sizes):
        raise ValueError(f"{len(means)} means but {len(sizes)} sizes")
    dim = means[0].shape[0]
    for m in means:
        if m.shape != (dim,):
            raise ValueError("all means must have the same dimension")
    if not np.all(np.isfinite(means)):
        raise ValueError("all means must be finite")
    if any(s < 1 for s in sizes):
        raise ValueError("all component sizes must be positive")
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    with np.errstate(over="ignore"):
        for k, (mean, size) in enumerate(zip(means, sizes), start=1):
            blocks.append(mean + stddev * rng.standard_normal((int(size), dim)))
            labels.append(np.full(int(size), k, dtype=np.int64))
    points = np.vstack(blocks)
    if not np.all(np.isfinite(points)):
        raise ValueError(f"stddev {stddev:g} with means {[m.tolist() for m in means]} "
                         "overflows to a non-finite point")
    return PointCloud(points), np.concatenate(labels)


def gen_hierarchical(
    seed: int, per_cluster: int = 500, stddev: float = 0.3
) -> tuple[PointCloud, np.ndarray, np.ndarray]:
    """Four Gaussians with two-scale structure.

    Returns (cloud, fine truth with 4 classes, coarse truth with 2 classes);
    the coarse classes are the bottom pair and the top pair.  The default
    spread keeps neighboring blobs kNN-connected, which is what lets coarse
    and fine groupings emerge at different diffusion times.
    """
    if per_cluster < 10:
        raise ValueError(f"per_cluster must be at least 10, got {per_cluster}")
    cloud, truth4 = gen_gaussians(
        HIERARCHICAL_MEANS, stddev, [per_cluster] * 4, seed
    )
    truth2 = np.array(
        [HIERARCHICAL_COARSE[k - 1] for k in truth4], dtype=np.int64
    )
    return cloud, truth4, truth2


def gen_geometric(seed: int, sizes=(500, 500, 500)) -> tuple[PointCloud, np.ndarray]:
    """Annulus, elongated strip, and compact blob (three classes).

    The annulus and strip are far from round, so centroid-based clustering
    splits them; the radial noise is clipped at four standard deviations so
    the ring never degenerates.
    """
    if len(sizes) != 3 or any(s < 1 for s in sizes):
        raise ValueError("sizes must be three positive counts")
    rng = np.random.default_rng(seed)
    n_ring, n_strip, n_blob = (int(s) for s in sizes)

    angles = rng.uniform(0.0, 2.0 * np.pi, n_ring)
    radii = ANNULUS_RADIUS + np.clip(
        ANNULUS_RADIAL_NOISE * rng.standard_normal(n_ring),
        -4.0 * ANNULUS_RADIAL_NOISE,
        4.0 * ANNULUS_RADIAL_NOISE,
    )
    ring = np.column_stack(
        (
            ANNULUS_CENTER[0] + radii * np.cos(angles),
            ANNULUS_CENTER[1] + radii * np.sin(angles),
        )
    )

    xs = rng.uniform(-STRIP_HALF_LENGTH, STRIP_HALF_LENGTH, n_strip)
    ys = STRIP_Y + STRIP_NOISE * rng.standard_normal(n_strip)
    strip = np.column_stack((xs, ys))

    blob = np.array(BLOB_CENTER) + BLOB_STDDEV * rng.standard_normal((n_blob, 2))

    cloud = PointCloud(np.vstack((ring, strip, blob)))
    truth = np.concatenate(
        (
            np.full(n_ring, 1, dtype=np.int64),
            np.full(n_strip, 2, dtype=np.int64),
            np.full(n_blob, 3, dtype=np.int64),
        )
    )
    return cloud, truth


def gen_bottleneck(seed: int, sizes=(700, 700, 60)) -> tuple[PointCloud, np.ndarray]:
    """Two dense blobs joined by a sparse chain of bridge points.

    sizes = (blob1, blob2, bridge).  Bridge points are evenly spaced along
    the connecting segment with small transverse noise and are assigned to
    the nearer blob's class.
    """
    if len(sizes) != 3 or sizes[0] < 1 or sizes[1] < 1 or sizes[2] < 0:
        raise ValueError("sizes must be (blob1 >= 1, blob2 >= 1, bridge >= 0)")
    rng = np.random.default_rng(seed)
    n1, n2, nb = (int(s) for s in sizes)
    c1 = np.asarray(BOTTLENECK_CENTERS[0])
    c2 = np.asarray(BOTTLENECK_CENTERS[1])

    blob1 = c1 + BOTTLENECK_STDDEV * rng.standard_normal((n1, 2))
    blob2 = c2 + BOTTLENECK_STDDEV * rng.standard_normal((n2, 2))
    parts = [blob1, blob2]
    labels = [np.full(n1, 1, dtype=np.int64), np.full(n2, 2, dtype=np.int64)]
    if nb > 0:
        xs = np.linspace(-BRIDGE_SPAN, BRIDGE_SPAN, nb)
        ys = BRIDGE_NOISE * rng.standard_normal(nb)
        bridge = np.column_stack((xs, ys))
        d1 = np.linalg.norm(bridge - c1, axis=1)
        d2 = np.linalg.norm(bridge - c2, axis=1)
        parts.append(bridge)
        labels.append(np.where(d1 <= d2, 1, 2).astype(np.int64))
    cloud = PointCloud(np.vstack(parts))
    return cloud, np.concatenate(labels)
