"""Property test: align_labels, which counts (predicted id, true id) pairs
with one bincount over the ids' runs, returns exactly what the np.unique
and np.add.at implementation below returns, dtype included, or raises
the same error."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import diffal as da
from diffal.dataset import validate_labels

from test_cbal_purity_properties import LABEL_IDS


def reference_align_labels(pred, truth):
    pred = validate_labels(pred, complete=True)
    truth = validate_labels(truth, n=pred.shape[0])
    mask = truth > 0
    pred_ids = np.unique(pred)
    true_ids = np.unique(truth[mask]) if np.any(mask) else np.array([], dtype=np.int64)

    agree = np.zeros((pred_ids.size, true_ids.size), dtype=np.int64)
    np.add.at(
        agree,
        (np.searchsorted(pred_ids, pred[mask]), np.searchsorted(true_ids, truth[mask])),
        1,
    )

    side = max(pred_ids.size, true_ids.size)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[: pred_ids.size, : true_ids.size] = agree
    row_ind, col_ind = linear_sum_assignment(padded, maximize=True)

    new_ids = np.zeros(pred_ids.size, dtype=np.int64)
    matched = (row_ind < pred_ids.size) & (col_ind < true_ids.size)
    new_ids[row_ind[matched]] = true_ids[col_ind[matched]]
    unmatched = new_ids == 0
    fresh = int(true_ids.max()) + 1 if true_ids.size else 1
    new_ids[unmatched] = fresh + np.arange(np.count_nonzero(unmatched))
    return new_ids[np.searchsorted(pred_ids, pred)]


@st.composite
def alignments(draw):
    """Truth with zeros, from few to many classes, and complete predictions
    that keep some labeled points' class and draw the other ids, so some
    occur only at unlabeled points; ids reach 2**62 and 2**63 - 1."""
    n = draw(st.integers(1, 40))
    truth = draw(st.lists(LABEL_IDS, min_size=n, max_size=n))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    other = draw(st.lists(LABEL_IDS.filter(bool), min_size=n, max_size=n))
    pred = [t if k and t else o for t, k, o in zip(truth, keep, other)]
    return as_case(pred, truth)


def as_case(pred, truth):
    return np.array(pred, dtype=np.int64), np.array(truth, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(alignments())
# no evaluable point
@example(as_case([3, 5], [0, 0]))
# a predicted id that occurs only at an unlabeled point
@example(as_case([1, 1, 9], [1, 1, 0]))
# more predicted ids than classes, and the reverse
@example(as_case([1, 2, 3, 4], [1, 1, 2, 2]))
@example(as_case([7, 7, 7, 7], [1, 2, 3, 4]))
# ids near 2**62, and a truth id of 2**63 - 1, past which no fresh id fits
@example(as_case([2**63 - 1, 2**63 - 2, 5], [2**62, 2**62, 1]))
@example(as_case([2**62, 1, 3], [2**63 - 1, 0, 2]))
def test_align_labels_equals_the_unique_and_add_at_path(case):
    pred, truth = case
    try:
        want = reference_align_labels(pred, truth)
    except OverflowError:
        with pytest.raises(OverflowError):
            da.align_labels(pred, truth)
        return
    got = da.align_labels(pred, truth)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
