"""Active labeling by nonlinear diffusion (LAND).

LAND spends a query budget on the top-B mode-score points, asks a labeling
oracle for their classes, and propagates the answers down the nearest-denser
forest.  Which points get queried depends only on the scores, never on the
oracle's answers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .dataset import _DataValueError, _check_count, validate_labels
from .geometry import DensityEstimate, DiffusionEmbedding, ModeScores
from .lund import propagate_labels


class BudgetExceededError(Exception):
    """A query was attempted beyond the oracle's budget."""


class _MemoOracle:
    """Budget and memo shared by the oracles.

    Distinct indices count against the budget once; repeated queries of the
    same index return the memoized answer for free.  Subclasses supply the
    answer for a new index in _ask.
    """

    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        self.budget = int(budget)
        self._answers: dict[int, int] = {}

    @property
    def queries_used(self) -> int:
        return len(self._answers)

    def query(self, index: int) -> int:
        index = int(index)
        if index in self._answers:
            return self._answers[index]
        if self.queries_used >= self.budget:
            raise BudgetExceededError(
                f"budget of {self.budget} distinct queries exhausted"
            )
        label = self._ask(index)
        self._answers[index] = label
        return label

    def _ask(self, index: int) -> int:
        raise NotImplementedError


class GroundTruthOracle(_MemoOracle):
    """Answers queries from a fully labeled ground-truth vector."""

    def __init__(self, truth: np.ndarray, budget: int):
        self.truth = validate_labels(truth, complete=True)
        super().__init__(budget)

    def _ask(self, index: int) -> int:
        return int(self.truth[index])


class InteractiveOracle(_MemoOracle):
    """Console oracle: one prompt line "QUERY <index>", one reply line "<label>".

    Coordinates of the queried point, when available, go to the info stream
    (stderr by default) so the prompt/reply protocol stays one line each way.
    """

    def __init__(self, budget, input_stream=None, output_stream=None,
                 info_stream=None, points=None):
        super().__init__(budget)
        self._in = input_stream if input_stream is not None else sys.stdin
        self._out = output_stream if output_stream is not None else sys.stdout
        self._info = info_stream if info_stream is not None else sys.stderr
        self._points = points

    def _ask(self, index: int) -> int:
        if self._points is not None:
            coords = ",".join(repr(float(v)) for v in self._points[index])
            print(f"point {index} at ({coords})", file=self._info)
        self._out.write(f"QUERY {index}\n")
        self._out.flush()
        line = self._in.readline()
        if not line:
            raise BudgetExceededError("oracle input stream closed")
        try:
            label = int(line.strip())
        except ValueError:
            raise _DataValueError(f"oracle reply {line.strip()!r} is not an integer") from None
        if label < 1:
            raise _DataValueError(f"oracle reply must be a class id >= 1, got {label}")
        return label


@dataclass(frozen=True)
class ActiveResult:
    """Full labeling plus the audit trail of oracle interaction."""

    labels: np.ndarray
    queried_indices: np.ndarray
    queries_used: int
    queried_labels: np.ndarray

    def observed_classes(self) -> np.ndarray:
        return np.unique(self.queried_labels)


def _query(oracle, point: int) -> int:
    """The oracle's answer for point; a class id below 1 is a ValueError."""
    label = int(oracle.query(point))
    if label < 1:
        raise ValueError(f"oracle returned invalid class id {label} for point {point}")
    return label


def _query_and_propagate(
    targets: np.ndarray,
    dens: DensityEstimate,
    emb: DiffusionEmbedding,
    oracle,
    nearest_higher: np.ndarray,
) -> ActiveResult:
    """Ask the oracle about each target in turn, then propagate the answers.

    If the oracle refuses a query mid-run the partial query trail is
    attached to the raised BudgetExceededError.
    """
    budget = targets.shape[0]
    seeds = np.zeros(dens.n, dtype=np.int64)
    answers = np.zeros(budget, dtype=np.int64)
    for pos, idx in enumerate(targets):
        try:
            label = _query(oracle, int(idx))
        except BudgetExceededError as exc:
            err = BudgetExceededError(
                f"oracle refused query {pos + 1} of {budget} (point {int(idx)}): {exc}"
            )
            err.queried_indices = targets[:pos].copy()
            err.partial_labels = seeds.copy()
            raise err from exc
        seeds[idx] = label
        answers[pos] = label
    labels = propagate_labels(seeds, dens, emb, nearest_higher=nearest_higher)
    return ActiveResult(
        labels=labels,
        queried_indices=targets,
        queries_used=int(getattr(oracle, "queries_used", budget)),
        queried_labels=answers,
    )


def land(
    scores: ModeScores,
    dens: DensityEstimate,
    emb: DiffusionEmbedding,
    budget: int,
    oracle,
) -> ActiveResult:
    """Query the oracle at the top-budget mode-score points, then propagate.

    The queried indices are a deterministic prefix of the descending-score
    order.  If the oracle refuses a query mid-run the partial query trail is
    attached to the raised BudgetExceededError.
    """
    _check_count("budget", budget, scores.n)
    targets = scores.order[:budget].copy()
    return _query_and_propagate(targets, dens, emb, oracle, scores.nearest_higher)
