"""Unit tests for the skyline operators."""

import numpy as np
import pytest

from repro.datasets import anticorrelated, correlated, paper_example
from repro.exceptions import ValidationError
from repro.geometry import (
    dominance_count,
    dominates,
    skyline,
    skyline_bnl,
    skyline_sfs,
)
from repro.ranking import sample_functions, top_k


def brute_force_skyline(values):
    n = values.shape[0]
    result = []
    for i in range(n):
        if not any(
            np.all(values[j] >= values[i]) and np.any(values[j] > values[i])
            for j in range(n)
            if j != i
        ):
            result.append(i)
    # Deduplicate identical points keeping the smallest index, matching the
    # library convention.
    seen = set()
    deduped = []
    for i in result:
        key = values[i].tobytes()
        if key not in seen:
            seen.add(key)
            deduped.append(i)
    return deduped


class TestDominates:
    def test_strict(self):
        assert dominates([1.0, 1.0], [0.5, 0.5])

    def test_weak(self):
        assert dominates([1.0, 0.5], [0.5, 0.5])

    def test_equal_points_do_not_dominate(self):
        assert not dominates([0.5, 0.5], [0.5, 0.5])

    def test_incomparable(self):
        assert not dominates([1.0, 0.0], [0.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            dominates([1.0], [1.0, 2.0])


class TestSkylineAlgorithms:
    @pytest.mark.parametrize("algorithm", [skyline_bnl, skyline_sfs])
    def test_matches_brute_force(self, algorithm):
        rng = np.random.default_rng(0)
        for trial in range(5):
            values = rng.random((60, 3))
            assert list(algorithm(values)) == sorted(brute_force_skyline(values))
        # Tie-dense with values far below an ulp of 1, where attribute
        # sums round to ties between a row and one that dominates it.
        levels = np.array([0.0, 1.0, 0.5, 1e-58, 5e-324])
        values = np.random.default_rng(0).choice(levels, size=(40, 4))
        assert list(algorithm(values)) == sorted(brute_force_skyline(values))

    def test_bnl_and_sfs_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            values = rng.random((80, 2))
            assert np.array_equal(skyline_bnl(values), skyline_sfs(values))

    def test_duplicates_keep_first_index(self):
        values = np.array([[0.9, 0.9], [0.9, 0.9], [0.1, 0.1]])
        assert list(skyline_bnl(values)) == [0]
        assert list(skyline_sfs(values)) == [0]

    def test_paper_example_skyline(self):
        # t7 and t3 and t5 are pairwise incomparable and undominated;
        # t1 is dominated by t7 (0.91 > 0.80, 0.43 > 0.28).
        sky = set(int(i) for i in skyline(paper_example().values))
        assert sky == {2, 4, 6}

    def test_single_point(self):
        assert list(skyline(np.array([[0.5, 0.5]]))) == [0]

    def test_contains_top1_of_every_monotone_linear_function(self):
        rng = np.random.default_rng(2)
        values = rng.random((100, 3))
        sky = set(int(i) for i in skyline(values))
        for w in sample_functions(3, 100, rng=3):
            assert int(top_k(values, w, 1)[0]) in sky

    def test_anticorrelated_skyline_bigger_than_correlated(self):
        anti = anticorrelated(400, 3, seed=0).values
        corr = correlated(400, 3, seed=0).values
        assert len(skyline(anti)) > 3 * len(skyline(corr))


class TestDominanceCount:
    def test_zero_for_skyline_points(self):
        rng = np.random.default_rng(3)
        values = rng.random((50, 2))
        counts = dominance_count(values)
        sky = set(int(i) for i in skyline(values))
        for i in range(50):
            if counts[i] == 0:
                # Either on the skyline or a duplicate of a skyline point.
                assert i in sky or any(
                    np.array_equal(values[i], values[j]) for j in sky
                )
            else:
                assert i not in sky

    def test_chain(self):
        values = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
        assert list(dominance_count(values)) == [2, 1, 0]
