"""Evaluation metrics: overall/average accuracy, Cohen's kappa, optimal
label alignment for unsupervised outputs, and clustering purity.

Ground-truth label 0 means "unlabeled"; such points are excluded from every
metric (numerator and denominator alike).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dataset import validate_labels


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts over the evaluable (truth > 0) points.

    Rows and columns are indexed by the shared sorted alphabet of class ids
    appearing in either vector, so the matrix is square and marginals are
    directly comparable.
    """

    counts: np.ndarray
    class_ids: np.ndarray

    @property
    def n_eval(self) -> int:
        return int(self.counts.sum())


def _evaluable(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = validate_labels(pred)
    truth = validate_labels(truth, n=pred.shape[0])
    mask = truth > 0
    if not np.any(mask):
        raise ValueError("no evaluable points: every ground-truth label is 0")
    return pred[mask], truth[mask]


def confusion_matrix(pred, truth) -> ConfusionMatrix:
    p, t = _evaluable(pred, truth)
    ids = np.union1d(p, t)
    counts = np.zeros((ids.size, ids.size), dtype=np.int64)
    np.add.at(counts, (np.searchsorted(ids, t), np.searchsorted(ids, p)), 1)
    return ConfusionMatrix(counts=counts, class_ids=ids)


def overall_accuracy(pred, truth) -> float:
    """Fraction of evaluable points labeled correctly."""
    p, t = _evaluable(pred, truth)
    return float(np.mean(p == t))


def average_accuracy(pred, truth) -> float:
    """Unweighted mean of per-class recalls (small classes count equally)."""
    p, t = _evaluable(pred, truth)
    recalls = [float(np.mean(p[t == c] == c)) for c in np.unique(t)]
    return float(np.mean(recalls))


def cohens_kappa(pred, truth) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e).

    p_o is the overall accuracy; p_e comes from the confusion-matrix
    marginals.  The degenerate case p_e = 1 is defined as 1.0 when the
    labelings agree everywhere and is an error otherwise.
    """
    cm = confusion_matrix(pred, truth)
    n = cm.n_eval
    p_o = float(np.trace(cm.counts)) / n
    rows = cm.counts.sum(axis=1)
    cols = cm.counts.sum(axis=0)
    p_e = float(rows @ cols) / (n * n)
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise ValueError("kappa undefined: chance agreement is 1 but labelings differ")
    return (p_o - p_e) / (1.0 - p_e)


def align_labels(pred, truth) -> np.ndarray:
    """Rename predicted cluster ids to maximize agreement with the truth.

    Solves the optimal one-to-one assignment between predicted ids and true
    classes over the evaluable points; predicted ids left unmatched get
    fresh ids beyond the truth alphabet.  Returns the full-length renamed
    prediction.
    """
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

    # new_ids[r] is the renamed id of pred_ids[r]; true ids are >= 1, so 0
    # marks the unmatched ones, numbered upward past the truth alphabet in
    # order of their old id
    new_ids = np.zeros(pred_ids.size, dtype=np.int64)
    matched = (row_ind < pred_ids.size) & (col_ind < true_ids.size)
    new_ids[row_ind[matched]] = true_ids[col_ind[matched]]
    unmatched = new_ids == 0
    fresh = int(true_ids.max()) + 1 if true_ids.size else 1
    new_ids[unmatched] = fresh + np.arange(np.count_nonzero(unmatched))
    return new_ids[np.searchsorted(pred_ids, pred)]


def purity(clustering, truth) -> float:
    """Fraction of evaluable points whose label matches their cluster majority."""
    c, t = _evaluable(clustering, truth)
    # One sort by (cluster, class) turns every cell of the contingency table
    # into a run.  lexsort orders by the two keys separately, so ids near the
    # int64 limit cannot overflow a combined key.
    order = np.lexsort((t, c))
    c, t = c[order], t[order]
    new_cluster = np.empty(c.size, dtype=bool)
    new_cluster[0] = True
    np.not_equal(c[1:], c[:-1], out=new_cluster[1:])
    new_cell = new_cluster.copy()
    new_cell[1:] |= t[1:] != t[:-1]
    cell_starts = np.flatnonzero(new_cell)
    cell_sizes = np.diff(np.append(cell_starts, c.size))
    largest = np.maximum.reduceat(cell_sizes, np.flatnonzero(new_cluster[cell_starts]))
    return int(largest.sum()) / c.shape[0]


def purity_curve(family, truth) -> np.ndarray:
    """Purity of each clustering in an iterable family (e.g. dendrogram cuts)."""
    return np.array([purity(labels, truth) for labels in family], dtype=np.float64)

