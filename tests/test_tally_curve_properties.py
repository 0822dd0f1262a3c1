"""Property tests: accuracy from class counts and purity curves from replayed
merges agree bit for bit with the per-row and per-level paths.

`reference_average_accuracy` is the per-class recall loop and
`reference_kappa` reads the marginals of its own confusion matrix.  The
dendrogram curve is checked against `purity` of every `reference_cuts` cut,
the LUND curve against `purity` of every `lund_k` labeling, on hand-built
forests whose roots may sit anywhere in the mode-score order.  Values are
compared through repr(float(x)).
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diffal as da
from diffal.metrics import _evaluable, _kappa

from reference import reference_cuts
from test_cbal_purity_properties import LABEL_IDS
from test_linkage_properties import grid_points

SETTINGS = settings(max_examples=80, deadline=None)


def same(got, want):
    assert [repr(float(x)) for x in got] == [repr(float(x)) for x in want]


def reference_average_accuracy(pred, truth):
    p, t = _evaluable(pred, truth)
    return float(np.mean([float(np.mean(p[t == c] == c)) for c in np.unique(t)]))


def reference_kappa(pred, truth):
    p, t = _evaluable(pred, truth)
    ids = np.union1d(p, t)
    counts = np.zeros((ids.size, ids.size), dtype=np.int64)  # truth x prediction
    np.add.at(counts, (np.searchsorted(ids, t), np.searchsorted(ids, p)), 1)
    n = t.size
    p_o = float(np.trace(counts)) / n
    p_e = float(counts.sum(axis=1) @ counts.sum(axis=0)) / (n * n)
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise ValueError("kappa undefined")
    return (p_o - p_e) / (1.0 - p_e)


@st.composite
def predictions(draw):
    """Truth with zeros and ids near 2**62 and 2**63 - 1, and predictions
    that keep some truth labels and draw the others."""
    n = draw(st.integers(1, 40))
    truth = draw(st.lists(LABEL_IDS, min_size=n, max_size=n))
    if not any(truth):
        truth[draw(st.integers(0, n - 1))] = draw(st.integers(1, 4))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    other = draw(st.lists(LABEL_IDS, min_size=n, max_size=n))
    pred = [t if k else o for t, k, o in zip(truth, keep, other)]
    return np.array(pred, dtype=np.int64), np.array(truth, dtype=np.int64)


def as_case(pred, truth):
    return np.array(pred, dtype=np.int64), np.array(truth, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(predictions())
# p_e = 1: one class, predicted everywhere, with unlabeled points around it
@example(as_case([5, 5, 5], [5, 5, 5]))
@example(as_case([3, 2**63 - 1, 2**63 - 1], [0, 2**63 - 1, 2**63 - 1]))
# one class but not predicted everywhere, and no predicted id a class
@example(as_case([5, 5, 6], [5, 5, 5]))
@example(as_case([2, 2, 2**62], [1, 1, 1]))
# every prediction a distinct id
@example(as_case([9, 8, 7, 6], [1, 1, 2, 0]))
def test_accuracy_scores_equal_the_per_metric_paths(case):
    pred, truth = case
    oa, aa, kappa = da.accuracy_scores(pred, truth)
    want_aa = reference_average_accuracy(pred, truth)
    want_kappa = reference_kappa(pred, truth)
    same([oa, aa, kappa], [da.overall_accuracy(pred, truth), want_aa, want_kappa])
    same([da.average_accuracy(pred, truth), da.cohens_kappa(pred, truth)], [want_aa, want_kappa])
    assert all(type(v) is float for v in (oa, aa, kappa))


def test_kappa_rejects_chance_agreement_that_rounds_to_one():
    # p_e = (n^2 - 1) / n^2 rounds to 1.0 at n = 2**27 while p_o < 1: the
    # error branch, which exact counts of a real labeling never reach
    n = 2**27
    with pytest.raises(ValueError, match="kappa undefined"):
        _kappa(n, n - 1, n * n - 1)
    assert _kappa(n, n, n * n) == 1.0


@st.composite
def dendrogram_cases(draw):
    points = draw(grid_points())
    n = points.shape[0]
    truth = draw(st.lists(LABEL_IDS, min_size=n, max_size=n))
    if not any(truth):
        truth[draw(st.integers(0, n - 1))] = draw(st.integers(1, 4))
    levels = draw(st.one_of(
        st.just(list(range(1, n + 1))),
        st.lists(st.integers(1, n), min_size=1, max_size=2 * n),  # unsorted, repeated
    ))
    method = draw(st.sampled_from(["single", "average"]))
    return points, np.array(truth, dtype=np.int64), levels, method


@SETTINGS
@given(dendrogram_cases())
def test_cut_purity_curve_equals_purity_of_each_cut(case):
    points, truth, levels, method = case
    dend = da.linkage(da.PointCloud(points), method)
    want = [da.purity(labels, truth) for labels in reference_cuts(dend, levels)]
    same(da.cut_purity_curve(dend, levels, truth), want)


def mode_scores(order, nearest_higher):
    n = len(order)
    return da.ModeScores(rho=np.zeros(n), score=np.zeros(n),
                         order=np.asarray(order, dtype=np.int64),
                         nearest_higher=np.asarray(nearest_higher, dtype=np.int64))


@st.composite
def forest_cases(draw):
    """A nearest-denser map over a random density ranking (1 to 3 roots,
    or a few arbitrary links that may close cycles), an independent
    mode-score order, tie-heavy grid coordinates, and truth with zeros."""
    n = draw(st.integers(1, 30))
    by_density = draw(st.permutations(range(n)))
    num_roots = draw(st.integers(1, min(3, n)))
    up = np.empty(n, dtype=np.int64)
    for j, i in enumerate(by_density):
        up[i] = i if j < num_roots else by_density[draw(st.integers(0, j - 1))]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        up[i] = draw(st.integers(0, n - 1))
    order = draw(st.permutations(range(n)))
    dim = draw(st.integers(1, 2))
    coords = np.array(draw(st.lists(
        st.lists(st.integers(0, 3), min_size=dim, max_size=dim), min_size=n, max_size=n,
    )), dtype=float)
    truth = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if not any(truth):
        truth[draw(st.integers(0, n - 1))] = draw(st.integers(1, 3))
    levels = draw(st.one_of(
        st.just(list(range(1, n + 1))),
        st.lists(st.integers(1, n), min_size=1, max_size=2 * n),
    ))
    return mode_scores(order, up), coords, np.array(truth, dtype=np.int64), levels


def check_lund_curve(scores, coords, truth, levels):
    n = scores.n
    emb = da.DiffusionEmbedding(coords=coords, t=1.0)
    dens = da.DensityEstimate(p=np.ones(n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            want = [da.purity(da.lund_k(scores, dens, emb, ell).labels, truth) for ell in levels]
        except ValueError:
            with pytest.raises(ValueError, match="cycle that no seed breaks"):
                da.lund_purity_curve(scores, dens, emb, levels, truth)
            return
        same(da.lund_purity_curve(scores, dens, emb, levels, truth), want)


@settings(max_examples=150, deadline=None)
@given(forest_cases())
def test_lund_purity_curve_equals_purity_of_each_labeling(case):
    check_lund_curve(*case)


@pytest.mark.parametrize("order", [
    [0, 1, 2, 3, 4, 5],  # root first: every level replays
    [1, 4, 0, 2, 3, 5],  # root third: levels 1 and 2 give the root its nearest seed
    [5, 4, 3, 2, 1, 0],  # root last: only level 6 replays
])
def test_lund_purity_curve_where_the_root_ranks_anywhere(order):
    # one chain 0 <- 1 <- ... <- 5 on a line; the unseeded root 0 is nearest
    # to seed 1 at levels where it is unseeded, which joins no cluster of
    # the level above
    coords = np.array([[0.0], [1.0], [5.0], [6.0], [10.0], [11.0]])
    truth = np.array([1, 1, 2, 2, 3, 3])
    scores = mode_scores(order, [0, 0, 1, 2, 3, 4])
    check_lund_curve(scores, coords, truth, list(range(1, 7)))
    check_lund_curve(scores, coords, truth, [4, 1, 6, 2, 2])
