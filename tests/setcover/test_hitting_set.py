"""Unit tests for greedy and exact hitting sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleError
from repro.setcover import exact_hitting_set, greedy_hitting_set, is_hitting_set


def _greedy_loop(sets):
    """The original element-by-element greedy loop: the oracle."""
    family = [frozenset(int(i) for i in s) for s in sets]
    alive = set(range(len(family)))
    containing: dict[int, set[int]] = {}
    for set_index, members in enumerate(family):
        for element in members:
            containing.setdefault(element, set()).add(set_index)
    chosen = []
    while alive:
        best_element = -1
        best_hits = 0
        for element, where in containing.items():
            hits = len(where & alive)
            if hits > best_hits or (
                hits == best_hits and hits > 0 and element < best_element
            ):
                best_hits = hits
                best_element = element
        chosen.append(best_element)
        alive -= containing[best_element]
    return chosen


# Few distinct elements and many small sets: most picks are ties.
_tie_heavy = st.lists(
    st.lists(st.integers(-3, 8), min_size=1, max_size=4), min_size=1, max_size=40
)


class TestIsHittingSet:
    def test_positive(self):
        assert is_hitting_set([{1, 2}, {2, 3}], [2])

    def test_negative(self):
        assert not is_hitting_set([{1, 2}, {3, 4}], [1])

    def test_empty_family(self):
        assert is_hitting_set([], [])


class TestGreedy:
    def test_empty_family(self):
        assert greedy_hitting_set([]) == []

    def test_single_common_element(self):
        sets = [{0, 1}, {1, 2}, {1, 9}]
        assert greedy_hitting_set(sets) == [1]

    def test_disjoint_sets_need_one_each(self):
        sets = [{0}, {1}, {2}]
        assert sorted(greedy_hitting_set(sets)) == [0, 1, 2]

    def test_result_is_always_a_hitting_set(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            family = [
                set(rng.choice(30, size=rng.integers(1, 6), replace=False))
                for _ in range(rng.integers(1, 20))
            ]
            chosen = greedy_hitting_set(family)
            assert is_hitting_set(family, chosen)

    def test_rejects_empty_member_set(self):
        with pytest.raises(InfeasibleError):
            greedy_hitting_set([set()])

    def test_deterministic_tie_break(self):
        # Both 0 and 5 hit two sets; the smaller element must win.
        sets = [{0, 9}, {0, 8}, {5, 7}, {5, 6}]
        chosen = greedy_hitting_set(sets)
        assert chosen[0] == 0

    def test_log_approximation_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            family = [
                set(rng.choice(12, size=rng.integers(1, 5), replace=False))
                for _ in range(rng.integers(2, 10))
            ]
            greedy = greedy_hitting_set(family)
            optimal = exact_hitting_set(family)
            harmonic = sum(1.0 / i for i in range(1, len(family) + 1))
            assert len(greedy) <= np.ceil(harmonic * len(optimal))


    @given(_tie_heavy)
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_oracle_on_tie_heavy_families(self, family):
        # Lists may repeat members; frozensets and sets are read as-is.
        assert greedy_hitting_set(family) == _greedy_loop(family)
        as_sets = [frozenset(s) for s in family]
        assert greedy_hitting_set(as_sets) == _greedy_loop(as_sets)

    def test_matches_loop_oracle_on_kset_family(self):
        # greedy_hitting_set reads a KSetCollection's (K, k) rows; the
        # frozensets of the same K-SETr run must give the same picks.
        from repro.geometry.ksets import sample_ksets

        values = np.random.default_rng(3).random((400, 3))
        collection = sample_ksets(values, 6, rng=3).ksets
        family = list(collection)
        picks = greedy_hitting_set(collection)
        assert picks == greedy_hitting_set(family) == _greedy_loop(family)
        assert is_hitting_set(family, picks)

    def test_rejects_empty_member_set_among_others(self):
        with pytest.raises(InfeasibleError):
            greedy_hitting_set([{1, 2}, [], {3}])


class TestExact:
    def test_simple_instance(self):
        sets = [{0, 1}, {1, 2}, {0, 2}]
        assert len(exact_hitting_set(sets)) == 2

    def test_single_element(self):
        assert exact_hitting_set([{4}]) == [4]

    def test_max_size_too_small(self):
        with pytest.raises(InfeasibleError):
            exact_hitting_set([{0}, {1}, {2}], max_size=2)

    def test_never_larger_than_greedy(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            family = [
                set(rng.choice(10, size=rng.integers(1, 4), replace=False))
                for _ in range(rng.integers(1, 8))
            ]
            assert len(exact_hitting_set(family)) <= len(greedy_hitting_set(family))
