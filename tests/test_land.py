import io

import numpy as np
import pytest

import diffal as da
from diffal.land import BudgetExceededError, InteractiveOracle


def model_and_truth(seed=70, n_per=120):
    cloud, truth = da.gen_gaussians(
        [[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]], 0.5, [n_per] * 3, seed=seed
    )
    model = da.build_model(cloud)
    emb, scores = model.scores_at(100.0)
    return model, emb, scores, truth


class TestGroundTruthOracle:
    def test_repeat_query_counts_once(self):
        oracle = da.GroundTruthOracle(np.array([1, 2, 3]), budget=2)
        assert oracle.query(1) == 2
        assert oracle.query(1) == 2
        assert oracle.queries_used == 1

    def test_zero_budget_refuses_first_query(self):
        oracle = da.GroundTruthOracle(np.array([1, 2]), budget=0)
        with pytest.raises(BudgetExceededError):
            oracle.query(0)

    def test_budget_cap(self):
        oracle = da.GroundTruthOracle(np.array([1, 2, 3, 1]), budget=3)
        for i in range(3):
            oracle.query(i)
        with pytest.raises(BudgetExceededError):
            oracle.query(3)
        assert oracle.queries_used == 3

    def test_requires_complete_truth(self):
        with pytest.raises(Exception):
            da.GroundTruthOracle(np.array([1, 0, 2]), budget=1)


class TestLand:
    def test_full_budget_reproduces_truth(self):
        model, emb, scores, truth = model_and_truth()
        n = len(truth)
        result = da.land(scores, model.density, emb, n, da.GroundTruthOracle(truth, n))
        assert np.array_equal(result.labels, truth)

    def test_two_clusters_budget_two(self):
        cloud, truth = da.gen_gaussians(
            [[0.0, 0.0], [12.0, 0.0]], 0.5, [100, 100], seed=71
        )
        model = da.build_model(cloud)
        emb, scores = model.scores_at(100.0)
        diag = da.separation_diagnostics(emb, model.density, truth)
        top2 = set(int(i) for i in scores.order[:2])
        assert diag.land_condition_holds
        assert set(int(i) for i in diag.maximizer_indices) <= top2
        result = da.land(scores, model.density, emb, 2, da.GroundTruthOracle(truth, 2))
        assert da.overall_accuracy(result.labels, truth) == 1.0

    def test_queried_indices_are_score_order_prefix(self):
        model, emb, scores, truth = model_and_truth(seed=72)
        result = da.land(scores, model.density, emb, 5, da.GroundTruthOracle(truth, 5))
        assert np.array_equal(result.queried_indices, scores.order[:5])
        assert np.array_equal(result.labels[result.queried_indices], result.queried_labels)

    def test_queries_independent_of_oracle_answers(self):
        model, emb, scores, truth = model_and_truth(seed=73)

        class AdversarialOracle:
            def __init__(self):
                self.queries_used = 0
                self.seen = []

            def query(self, index):
                self.queries_used += 1
                self.seen.append(index)
                return (index % 3) + 1  # junk labels

        a, b = AdversarialOracle(), da.GroundTruthOracle(truth, 4)
        r1 = da.land(scores, model.density, emb, 4, a)
        r2 = da.land(scores, model.density, emb, 4, b)
        assert np.array_equal(r1.queried_indices, r2.queried_indices)

    def test_budget_monotone_query_sets(self):
        model, emb, scores, truth = model_and_truth(seed=74)
        prev = set()
        for budget in range(1, 8):
            result = da.land(
                scores, model.density, emb, budget, da.GroundTruthOracle(truth, budget)
            )
            current = set(int(i) for i in result.queried_indices)
            assert prev <= current
            prev = current

    def test_land_with_lund_labels_reproduces_lund(self):
        model, emb, scores, truth = model_and_truth(seed=75)
        lund_result = da.lund(scores, model.density, emb)
        budget = lund_result.num_clusters + 3
        oracle = da.GroundTruthOracle(lund_result.labels, budget)
        land_result = da.land(scores, model.density, emb, budget, oracle)
        assert np.array_equal(land_result.labels, lund_result.labels)

    def test_budget_exhaustion_aborts_with_partial_trail(self):
        model, emb, scores, truth = model_and_truth(seed=76)
        oracle = da.GroundTruthOracle(truth, 2)
        with pytest.raises(BudgetExceededError) as excinfo:
            da.land(scores, model.density, emb, 5, oracle)
        assert len(excinfo.value.queried_indices) == 2

    def test_budget_out_of_range(self):
        model, emb, scores, truth = model_and_truth(seed=77)
        with pytest.raises(ValueError):
            da.land(scores, model.density, emb, 0, da.GroundTruthOracle(truth, 1))
        with pytest.raises(ValueError):
            da.land(
                scores, model.density, emb, len(truth) + 1,
                da.GroundTruthOracle(truth, len(truth) + 1),
            )

    def test_missing_classes_reported(self):
        model, emb, scores, truth = model_and_truth(seed=78)
        result = da.land(scores, model.density, emb, 2, da.GroundTruthOracle(truth, 2))
        observed = result.observed_classes()
        assert len(observed) <= 2
        assert set(result.labels.tolist()) == set(observed.tolist())


class TestInteractiveOracle:
    def test_wire_format(self):
        replies = io.StringIO("2\n1\n")
        prompts = io.StringIO()
        oracle = InteractiveOracle(
            budget=2, input_stream=replies, output_stream=prompts,
            info_stream=io.StringIO(),
        )
        assert oracle.query(5) == 2
        assert oracle.query(0) == 1
        assert prompts.getvalue() == "QUERY 5\nQUERY 0\n"

    def test_memoization_and_cap(self):
        replies = io.StringIO("3\n")
        oracle = InteractiveOracle(
            budget=1, input_stream=replies, output_stream=io.StringIO(),
            info_stream=io.StringIO(),
        )
        assert oracle.query(4) == 3
        assert oracle.query(4) == 3  # memoized, no extra read
        with pytest.raises(BudgetExceededError):
            oracle.query(9)

    def test_bad_reply(self):
        oracle = InteractiveOracle(
            budget=1, input_stream=io.StringIO("banana\n"),
            output_stream=io.StringIO(), info_stream=io.StringIO(),
        )
        with pytest.raises(ValueError, match="not an integer"):
            oracle.query(0)

    def test_coordinates_reported_out_of_band(self):
        info = io.StringIO()
        oracle = InteractiveOracle(
            budget=1, input_stream=io.StringIO("1\n"), output_stream=io.StringIO(),
            info_stream=info, points=np.array([[1.5, 2.5]]),
        )
        oracle.query(0)
        assert "1.5" in info.getvalue()


@pytest.mark.parametrize("make", [
    lambda budget: da.GroundTruthOracle(np.array([1, 2]), budget),
    lambda budget: InteractiveOracle(budget, input_stream=io.StringIO("1\n")),
], ids=["ground-truth", "interactive"])
def test_negative_budget_is_rejected_by_every_oracle(make):
    with pytest.raises(ValueError, match="budget must be non-negative"):
        make(-1)
    assert make(0).budget == 0
