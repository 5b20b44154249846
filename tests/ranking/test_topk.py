"""Unit tests for top-k evaluation and ranks."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ranking import (
    batch_top_k_sets,
    rank_of,
    ranking,
    ranks,
    scores,
    top_k,
    top_k_set,
)


@pytest.fixture
def tiny():
    # scores under w=(1,0): 3, 1, 2, 3 (rows 0 and 3 tie)
    return np.array([[3.0, 0.0], [1.0, 5.0], [2.0, 1.0], [3.0, 2.0]])


class TestScoresAndRanking:
    def test_scores(self, tiny):
        assert np.allclose(scores(tiny, [1.0, 0.0]), [3, 1, 2, 3])

    def test_ranking_breaks_ties_by_index(self, tiny):
        order = ranking(tiny, [1.0, 0.0])
        assert list(order) == [0, 3, 2, 1]

    def test_ranking_descending(self, tiny):
        order = ranking(tiny, [0.0, 1.0])
        assert list(order) == [1, 3, 2, 0]

    def test_shape_validation(self, tiny):
        with pytest.raises(ValidationError):
            scores(tiny, [1.0])
        with pytest.raises(ValidationError):
            ranking(tiny[0], [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights(self, tiny, bad):
        # top_k used to return an empty array for a NaN weight.
        for call in (scores, ranking, ranks):
            with pytest.raises(ValidationError):
                call(tiny, [bad, 0.5])
        with pytest.raises(ValidationError):
            top_k(tiny, [bad, 0.5], 2)
        with pytest.raises(ValidationError):
            rank_of(tiny, [bad, 0.5], 1)


class TestTopK:
    def test_top_1(self, tiny):
        assert list(top_k(tiny, [1.0, 0.0], 1)) == [0]

    def test_top_2_with_tie(self, tiny):
        assert list(top_k(tiny, [1.0, 0.0], 2)) == [0, 3]

    def test_top_n_is_full_ranking(self, tiny):
        assert list(top_k(tiny, [1.0, 0.0], 4)) == [0, 3, 2, 1]

    def test_top_k_set(self, tiny):
        assert top_k_set(tiny, [1.0, 0.0], 2) == frozenset({0, 3})

    def test_k_out_of_range(self, tiny):
        with pytest.raises(ValidationError):
            top_k(tiny, [1.0, 0.0], 0)
        with pytest.raises(ValidationError):
            top_k(tiny, [1.0, 0.0], 5)

    def test_matches_full_sort_on_random_data(self):
        rng = np.random.default_rng(2)
        values = rng.random((200, 4))
        for _ in range(20):
            w = rng.random(4)
            k = int(rng.integers(1, 200))
            fast = top_k(values, w, k)
            slow = ranking(values, w)[:k]
            assert np.array_equal(fast, slow)


class TestRanks:
    def test_ranks_are_a_permutation(self, tiny):
        r = ranks(tiny, [1.0, 0.0])
        assert sorted(r) == [1, 2, 3, 4]

    def test_ranks_match_ranking(self, tiny):
        order = ranking(tiny, [0.3, 0.7])
        r = ranks(tiny, [0.3, 0.7])
        for position, index in enumerate(order):
            assert r[index] == position + 1

    def test_rank_of_matches_ranks(self):
        rng = np.random.default_rng(3)
        values = rng.random((100, 3))
        w = rng.random(3)
        full = ranks(values, w)
        for i in (0, 17, 55, 99):
            assert rank_of(values, w, i) == full[i]

    def test_rank_of_tie_breaking(self, tiny):
        # Rows 0 and 3 tie under w=(1,0); the smaller index ranks better.
        assert rank_of(tiny, [1.0, 0.0], 0) == 1
        assert rank_of(tiny, [1.0, 0.0], 3) == 2

    def test_rank_of_bounds(self, tiny):
        with pytest.raises(ValidationError):
            rank_of(tiny, [1.0, 0.0], 4)
        with pytest.raises(ValidationError):
            rank_of(tiny, [1.0, 0.0], -1)


class TestBatch:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        values = rng.random((50, 3))
        weight_matrix = rng.random((10, 3))
        batched = batch_top_k_sets(values, weight_matrix, 5)
        singles = [top_k_set(values, w, 5) for w in weight_matrix]
        assert batched == singles

    def test_batch_validation(self):
        values = np.ones((5, 2))
        with pytest.raises(ValidationError):
            batch_top_k_sets(values, np.ones(2), 1)
        with pytest.raises(ValidationError):
            batch_top_k_sets(values, np.ones((3, 4)), 1)
