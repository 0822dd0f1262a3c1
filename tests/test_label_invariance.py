"""Property tests: class ids are names only.  LAND queries the same points
whatever ids the oracle answers with, and the metrics stay in range and do
not change when ids are renamed consistently in prediction and truth."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffal as da

SETTINGS = settings(max_examples=40, deadline=None)


@functools.cache
def scored_model():
    cloud, truth = da.gen_gaussians(
        [[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]], 0.6, [30, 30, 20], seed=7
    )
    model = da.build_model(cloud)
    emb, scores = model.scores_at(100.0)
    return model, emb, scores, truth


def renaming(data, ids):
    """A random injective map from the given positive ids to positive ids."""
    new = data.draw(st.lists(st.integers(1, 50), min_size=len(ids), max_size=len(ids),
                             unique=True))
    table = np.zeros(max(ids) + 1, dtype=np.int64)
    table[list(ids)] = new
    return table


@SETTINGS
@given(st.integers(1, 80), st.data())
def test_land_queries_do_not_depend_on_the_oracle(budget, data):
    model, emb, scores, truth = scored_model()
    table = renaming(data, [1, 2, 3])
    plain = da.land(scores, model.density, emb, budget, da.GroundTruthOracle(truth, budget))
    renamed = da.land(scores, model.density, emb, budget,
                      da.GroundTruthOracle(table[truth], budget))
    assert np.array_equal(plain.queried_indices, renamed.queried_indices)
    assert np.array_equal(table[plain.queried_labels], renamed.queried_labels)
    assert np.array_equal(table[plain.labels], renamed.labels)


@st.composite
def labelings(draw):
    """A prediction in 1..5 and a truth in 0..4 with at least one point > 0."""
    n = draw(st.integers(1, 40))
    pred = np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    truth = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    truth[draw(st.integers(0, n - 1))] = draw(st.integers(1, 4))
    return pred, truth


def metric_values(pred, truth):
    return (
        da.overall_accuracy(pred, truth),
        da.average_accuracy(pred, truth),
        da.purity(pred, truth),
        da.cohens_kappa(pred, truth),
    )


@SETTINGS
@given(labelings(), st.data())
def test_metrics_in_range_and_invariant_to_renaming(labels, data):
    pred, truth = labels
    oa, aa, pur, kappa = before = metric_values(pred, truth)
    assert 0.0 <= oa <= 1.0 and 0.0 <= aa <= 1.0 and 0.0 <= pur <= 1.0
    assert -1.0 <= kappa <= 1.0
    table = renaming(data, range(1, 6))  # truth id 0 (unlabeled) stays 0
    after = metric_values(table[pred], table[truth])
    assert after == pytest.approx(before, rel=1e-12, abs=1e-12)
