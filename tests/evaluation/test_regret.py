"""Unit tests for rank-regret and regret-ratio measurement."""

import numpy as np
import pytest

from repro.datasets import independent, paper_example
from repro.evaluation import (
    rank_regret_exact_2d,
    rank_regret_for_function,
    rank_regret_sampled,
    regret_ratio_for_function,
    regret_ratio_sampled,
)
from repro.engine import ScoreEngine, score_engine
from repro.exceptions import ValidationError
from repro.ranking import ranks, sample_functions, weights_from_angles


class TestRankRegretForFunction:
    def test_definition1(self):
        values = paper_example().values
        # Under f = x1 + x2 the ranking is t7, t3, t5, t1, ... so the set
        # {t5, t1} has rank-regret 3 (t5's rank).
        assert rank_regret_for_function(values, {4, 0}, [1.0, 1.0]) == 3

    def test_full_set_has_regret_one(self):
        values = paper_example().values
        assert rank_regret_for_function(values, range(7), [1.0, 1.0]) == 1

    def test_validation(self):
        values = paper_example().values
        with pytest.raises(ValidationError):
            rank_regret_for_function(values, [], [1.0, 1.0])
        with pytest.raises(ValidationError):
            rank_regret_for_function(values, [99], [1.0, 1.0])


class TestExact2D:
    def test_full_dataset_is_one(self):
        values = independent(30, 2, seed=0).values
        assert rank_regret_exact_2d(values, range(30)) == 1

    def test_matches_dense_grid(self):
        values = independent(25, 2, seed=1).values
        subset = [0, 5, 9]
        exact = rank_regret_exact_2d(values, subset)
        grid_worst = 0
        for theta in np.linspace(0, np.pi / 2, 4000):
            w = weights_from_angles([theta])
            r = ranks(values, w)
            grid_worst = max(grid_worst, min(int(r[i]) for i in subset))
        # The grid is a lower bound on the true (exact) max.
        assert exact >= grid_worst
        assert exact <= grid_worst + 2  # grid granularity slack

    def test_single_worst_item(self):
        values = independent(40, 2, seed=2).values
        # The globally worst item under w=(1,1)-ish should give large regret.
        sums = values.sum(axis=1)
        worst = int(np.argmin(sums))
        assert rank_regret_exact_2d(values, [worst]) > 10

    def test_monotone_in_subset(self):
        """Adding items can only reduce rank-regret."""
        values = independent(35, 2, seed=3).values
        small = rank_regret_exact_2d(values, [1, 2])
        large = rank_regret_exact_2d(values, [1, 2, 3, 4, 5])
        assert large <= small

    def test_requires_2d(self):
        with pytest.raises(ValidationError):
            rank_regret_exact_2d(np.ones((5, 3)), [0])


class TestSampled:
    def test_never_exceeds_exact_in_2d(self):
        values = independent(40, 2, seed=4).values
        subset = [0, 3, 7]
        exact = rank_regret_exact_2d(values, subset)
        sampled = rank_regret_sampled(values, subset, 3000, rng=0)
        assert sampled <= exact

    def test_close_to_exact_with_many_samples(self):
        values = independent(30, 2, seed=5).values
        subset = [2, 11]
        exact = rank_regret_exact_2d(values, subset)
        sampled = rank_regret_sampled(values, subset, 20_000, rng=1)
        assert sampled >= exact * 0.5

    def test_distribution_mode(self):
        values = independent(30, 3, seed=6).values
        dist = rank_regret_sampled(values, [0, 1], 500, rng=2, return_distribution=True)
        assert dist.shape == (500,)
        assert dist.min() >= 1
        assert int(dist.max()) == rank_regret_sampled(values, [0, 1], 500, rng=2)

    def test_deterministic_given_seed(self):
        values = independent(30, 3, seed=7).values
        a = rank_regret_sampled(values, [0], 300, rng=3)
        assert a == rank_regret_sampled(values, [0], 300, rng=3)

    def test_validation(self):
        values = independent(10, 2, seed=8).values
        with pytest.raises(ValidationError):
            rank_regret_sampled(values, [0], 0)
        with pytest.raises(ValidationError):
            rank_regret_sampled(values, [], 10)


class TestRegretRatio:
    def test_zero_when_best_included(self):
        values = independent(30, 3, seed=9).values
        w = np.array([0.4, 0.3, 0.3])
        best = int(np.argmax(values @ w))
        assert regret_ratio_for_function(values, [best], w) == 0.0

    def test_ratio_formula(self):
        values = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 1.0]])
        # Under w=(1,0): best is 1.0, subset {1} achieves 0.5 -> ratio 0.5.
        assert regret_ratio_for_function(values, [1], [1.0, 0.0]) == pytest.approx(0.5)

    def test_sampled_bounded_by_one(self):
        values = independent(50, 3, seed=10).values
        ratio = regret_ratio_sampled(values, [0], 500, rng=4)
        assert 0.0 <= ratio <= 1.0

    def test_sampled_zero_for_full_set(self):
        values = independent(50, 3, seed=11).values
        assert regret_ratio_sampled(values, range(50), 500, rng=5) == 0.0


class TestBlockedEstimators:
    """The estimators draw, count and score in fixed blocks of functions
    and answer exactly what one unblocked pass would."""

    B = score_engine._RANK_BLOCK

    @pytest.mark.parametrize("m", [1, B - 1, B, B + 1, 3 * B + 17])
    def test_rank_distribution_matches_the_unblocked_count(self, m):
        values = independent(2_000, 4, seed=12).values
        subset = [3, 250, 1_999]
        got = rank_regret_sampled(values, subset, m, rng=m, return_distribution=True)
        raw = np.abs(np.random.default_rng(m).normal(size=(m, 4)))
        weights = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        expected = []
        for w in weights:
            exact = values @ w
            expected.append(int((exact > exact[subset].max()).sum()) + 1)
        assert got.tolist() == expected

    @pytest.mark.parametrize("chunk_functions", [None, 64])
    def test_regret_ratio_equals_the_whole_score_matrix(self, chunk_functions):
        values = independent(3_000, 4, seed=13).values
        subset = [7, 80, 2_500]
        chunk_bytes = None if chunk_functions is None else 8 * 3_000 * chunk_functions
        engine = ScoreEngine(values, chunk_bytes=chunk_bytes)
        # The formula before chunk-wise reduction, over score_batch's matrix.
        scores = engine.score_batch(sample_functions(4, 1_000, 14))
        top = scores.max(axis=0)
        achieved = scores[subset].max(axis=0)
        expected = float(np.clip((top - achieved) / np.where(top > 0, top, 1.0), 0.0, None).max())
        assert regret_ratio_sampled(values, subset, 1_000, rng=14, engine=engine) == expected
        if chunk_functions is None:
            assert regret_ratio_sampled(values, subset, 1_000, rng=14) == expected

    def test_regret_ratio_holds_one_score_chunk_at_a_time(self):
        import tracemalloc

        values = independent(3_000, 4, seed=15).values
        engine = ScoreEngine(values, chunk_bytes=8 * 3_000 * 64)  # 64 functions a chunk

        def traced_peak(m: int) -> int:
            tracemalloc.start()
            try:
                regret_ratio_sampled(values, [7, 80], m, rng=1, engine=engine)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, eight = traced_peak(64), traced_peak(8 * 64)
        assert eight <= 1.5 * one, (one, eight)
