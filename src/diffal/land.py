"""Active labeling by nonlinear diffusion (LAND).

LAND spends a query budget on the top-B mode-score points, asks a labeling
oracle for their classes, and propagates the answers in decreasing density
order.  Which points get queried depends only on the scores, never on the
oracle's answers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .dataset import validate_labels
from .geometry import DensityEstimate, DiffusionEmbedding, ModeScores
from .lund import propagate_labels


class BudgetExceededError(Exception):
    """A query was attempted beyond the oracle's budget."""


class GroundTruthOracle:
    """Answers queries from a fully labeled ground-truth vector.

    Distinct indices count against the budget once; repeated queries of the
    same index return the memoized answer for free.
    """

    def __init__(self, truth: np.ndarray, budget: int):
        self.truth = validate_labels(truth, complete=True)
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
        label = int(self.truth[index])
        self._answers[index] = label
        return label


def ground_truth_oracle(truth: np.ndarray, budget: int) -> GroundTruthOracle:
    return GroundTruthOracle(truth, budget)


class InteractiveOracle:
    """Console oracle: one prompt line "QUERY <index>", one reply line "<label>".

    Coordinates of the queried point, when available, go to the info stream
    (stderr by default) so the prompt/reply protocol stays one line each way.
    """

    def __init__(self, budget, input_stream=None, output_stream=None,
                 info_stream=None, points=None):
        self.budget = int(budget)
        self._in = input_stream if input_stream is not None else sys.stdin
        self._out = output_stream if output_stream is not None else sys.stdout
        self._info = info_stream if info_stream is not None else sys.stderr
        self._points = points
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
            raise ValueError(f"oracle reply {line.strip()!r} is not an integer") from None
        if label < 1:
            raise ValueError(f"oracle reply must be a class id >= 1, got {label}")
        self._answers[index] = label
        return label


@dataclass(frozen=True)
class ActiveResult:
    """Full labeling plus the audit trail of oracle interaction."""

    labels: np.ndarray
    queried_indices: np.ndarray
    queries_used: int
    queried_labels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def observed_classes(self) -> np.ndarray:
        return np.unique(self.queried_labels)


def _query_and_propagate(
    targets: np.ndarray,
    dens: DensityEstimate,
    emb: DiffusionEmbedding,
    oracle,
    nearest_higher: np.ndarray | None,
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
            label = int(oracle.query(int(idx)))
        except BudgetExceededError as exc:
            err = BudgetExceededError(
                f"oracle refused query {pos + 1} of {budget} (point {int(idx)})"
            )
            err.queried_indices = targets[:pos].copy()
            err.partial_labels = seeds.copy()
            raise err from exc
        if label < 1:
            raise ValueError(f"oracle returned invalid class id {label} for point {int(idx)}")
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
    n = scores.n
    if not 1 <= budget <= n:
        raise ValueError(f"need 1 <= budget <= n, got budget={budget}, n={n}")
    targets = scores.order[:budget].copy()
    return _query_and_propagate(targets, dens, emb, oracle, scores.nearest_higher)
