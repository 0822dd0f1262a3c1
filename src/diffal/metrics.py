"""Evaluation metrics: overall/average accuracy, Cohen's kappa, optimal
label alignment for unsupervised outputs, and clustering purity.

Ground-truth label 0 means "unlabeled"; such points are excluded from every
metric (numerator and denominator alike).  A truth with no positive label
leaves nothing to score: a DataError that is also a ValueError.

Average accuracy and kappa read one tally of integer class counts: per
truth class its size and its correctly labeled points, and the chance
agreement numerator sum_c size_c * (predictions of id c).  Sorting each
vector and counting its runs (_runs) makes the tally in O(n log n) time
and O(n) memory, with no ids x ids matrix.  Purity reads the per-cluster
class counts of _ClassCounts: purity() builds one tally, and the LUND and
linkage purity curves merge clusters in one and read each level off it.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dataset import DataError, _DataValueError, validate_labels


class _DataOverflowError(DataError, OverflowError):
    """A data fault that the API raises as an OverflowError: exit 3 in the CLI."""


def _labeled(truth, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(validated truth, mask of its evaluable points); a truth with no
    positive label is a DataError that is also a ValueError."""
    truth = validate_labels(truth, n=n)
    mask = truth > 0
    if not np.any(mask):
        raise _DataValueError("no evaluable points: every ground-truth label is 0")
    return truth, mask


def _evaluable(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = validate_labels(pred)
    truth, mask = _labeled(truth, n=pred.shape[0])
    return pred[mask], truth[mask]


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, ascending, and how often each occurs."""
    values = np.sort(values)
    edge = np.empty(values.size + 1, dtype=bool)  # edge[i]: a run starts or ends at i
    edge[0] = edge[-1] = True
    np.not_equal(values[1:], values[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    return values[bounds[:-1]], bounds[1:] - bounds[:-1]


def _tally(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(sizes, hits, chance) of evaluable predictions p against truth t.

    sizes and hits hold, per truth class in ascending order, its points and
    its correctly labeled points; chance is sum_c sizes[c] * (predictions
    of id c), the numerator of chance agreement.
    """
    classes, sizes = _runs(t)
    hit_ids, hit_counts = _runs(t[p == t])
    hits = np.zeros_like(sizes)
    hits[np.searchsorted(classes, hit_ids)] = hit_counts
    pred_ids, pred_counts = _runs(p)
    at = np.minimum(np.searchsorted(classes, pred_ids), classes.size - 1)
    shared = classes[at] == pred_ids
    return sizes, hits, int(sizes[at[shared]] @ pred_counts[shared])


def _average_accuracy(sizes: np.ndarray, hits: np.ndarray) -> float:
    return float(np.mean(hits / sizes))


def _kappa(n: int, correct: int, chance: int) -> float:
    p_o = float(correct) / n
    p_e = float(chance) / (n * n)
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise ValueError("kappa undefined: chance agreement is 1 but labelings differ")
    return (p_o - p_e) / (1.0 - p_e)


def overall_accuracy(pred, truth) -> float:
    """Fraction of evaluable points labeled correctly."""
    p, t = _evaluable(pred, truth)
    return float(np.mean(p == t))


def average_accuracy(pred, truth) -> float:
    """Unweighted mean of per-class recalls (small classes count equally)."""
    sizes, hits, _ = _tally(*_evaluable(pred, truth))
    return _average_accuracy(sizes, hits)


def cohens_kappa(pred, truth) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e).

    p_o is the overall accuracy; p_e comes from the confusion-matrix
    marginals.  The degenerate case p_e = 1 is defined as 1.0 when the
    labelings agree everywhere and is an error otherwise.
    """
    p, t = _evaluable(pred, truth)
    _, hits, chance = _tally(p, t)
    return _kappa(t.shape[0], int(hits.sum()), chance)


def accuracy_scores(pred, truth) -> tuple[float, float, float]:
    """(overall accuracy, average accuracy, kappa) from one validation and
    one tally; each equals its own function's value bit for bit."""
    p, t = _evaluable(pred, truth)
    sizes, hits, chance = _tally(p, t)
    n, correct = t.shape[0], int(hits.sum())
    return correct / n, _average_accuracy(sizes, hits), _kappa(n, correct, chance)


def align_labels(pred, truth) -> np.ndarray:
    """Rename predicted cluster ids to maximize agreement with the truth.

    Solves the optimal one-to-one assignment between predicted ids and true
    classes over the evaluable points; predicted ids left unmatched get
    fresh ids beyond the truth alphabet.  Returns the full-length renamed
    prediction.  A truth id of 2**63 - 1 leaves no int64 id past the
    alphabet: a DataError that is also an OverflowError.
    """
    pred = validate_labels(pred, complete=True)
    truth = validate_labels(truth, n=pred.shape[0])
    mask = truth > 0
    pred_ids = _runs(pred)[0]
    true_ids = _runs(truth[mask])[0]

    # agreement counts of (pred id, true id) pairs, zero-padded to a square
    side = max(pred_ids.size, true_ids.size)
    cells = np.searchsorted(pred_ids, pred[mask]) * side + np.searchsorted(true_ids, truth[mask])
    padded = np.bincount(cells, minlength=side * side).reshape(side, side)
    row_ind, col_ind = linear_sum_assignment(padded, maximize=True)

    # new_ids[r] is the renamed id of pred_ids[r]; true ids are >= 1, so 0
    # marks the unmatched ones, numbered upward past the truth alphabet in
    # order of their old id
    new_ids = np.zeros(pred_ids.size, dtype=np.int64)
    matched = (row_ind < pred_ids.size) & (col_ind < true_ids.size)
    new_ids[row_ind[matched]] = true_ids[col_ind[matched]]
    unmatched = new_ids == 0
    fresh = int(true_ids.max()) + 1 if true_ids.size else 1
    if fresh > np.iinfo(np.int64).max:
        raise _DataOverflowError(
            f"truth id {fresh - 1} leaves no int64 id past the truth alphabet for "
            "fresh cluster ids; relabel the classes with smaller ids")
    new_ids[unmatched] = fresh + np.arange(np.count_nonzero(unmatched))
    return new_ids[np.searchsorted(pred_ids, pred)]


def purity(clustering, truth) -> float:
    """Fraction of evaluable points whose label matches their cluster majority."""
    clustering = validate_labels(clustering)
    truth, mask = _labeled(truth, n=clustering.shape[0])
    return _ClassCounts(clustering, truth, mask).purity()


class _ClassCounts:
    """Per cluster, its evaluable points' counts per class, kept under merges.

    top holds each cluster's largest count and total their sum, so
    total / n_eval is the purity of the current clusters: purity() reads
    it off a fresh tally, the purity curves after each level's merges.  A
    merge adds the smaller table into the larger, so any merge sequence
    makes O(n log n) additions.
    """

    def __init__(self, clusters: np.ndarray, truth: np.ndarray, mask: np.ndarray):
        self.tables: dict[int, dict[int, int]] = {}
        for c, t in zip(clusters[mask].tolist(), truth[mask].tolist()):
            table = self.tables.setdefault(c, {})
            table[t] = table.get(t, 0) + 1
        self.top = {c: max(table.values()) for c, table in self.tables.items()}
        self.total = sum(self.top.values())
        self.n_eval = int(np.count_nonzero(mask))

    def merge(self, a: int, b: int, into: int) -> None:
        """Replace clusters a and b by their union, with id into."""
        small, big = sorted((self.tables.pop(a, {}), self.tables.pop(b, {})), key=len)
        top_a, top_b = self.top.pop(a, 0), self.top.pop(b, 0)
        top = max(top_a, top_b)
        for t, count in small.items():
            count += big.get(t, 0)
            big[t] = count
            if count > top:
                top = count
        self.tables[into] = big
        self.top[into] = top
        self.total += top - top_a - top_b

    def purity(self) -> float:
        return self.total / self.n_eval
