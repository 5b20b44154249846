"""Unit tests for the onion (layered maxima) index."""

import numpy as np
import pytest

from repro.datasets import anticorrelated, correlated, independent
from repro.exceptions import ValidationError
from repro.geometry import skyline, skyline_bnl
from repro.ranking import OnionIndex, sample_functions, top_k


class TestConstruction:
    def test_first_layer_is_skyline(self):
        values = independent(60, 3, seed=0).values
        index = OnionIndex(values)
        assert np.array_equal(np.sort(index.layers[0]), skyline(values))

    def test_layers_match_bnl_peeling_on_ties_and_denormals(self):
        # Sums round to ties between a row and one that dominates it.
        levels = np.array([0.0, 1.0, 0.5, 1e-58, 5e-324])
        for seed in range(4):
            values = np.random.default_rng(seed).choice(levels, size=(40, 4))
            remaining, expected = np.arange(40), []
            while remaining.size:
                local = skyline_bnl(values[remaining])
                expected.append(remaining[local])
                remaining = np.delete(remaining, local)
            layers = OnionIndex(values).layers
            assert len(layers) == len(expected)
            for got, want in zip(layers, expected):
                assert np.array_equal(got, want)

    def test_layers_partition_dataset(self):
        values = independent(80, 3, seed=1).values
        index = OnionIndex(values)
        combined = np.concatenate(index.layers)
        assert sorted(combined) == list(range(80))

    def test_max_layers_cap(self):
        values = anticorrelated(100, 2, seed=2).values
        index = OnionIndex(values, max_layers=2)
        assert index.num_layers <= 3  # 2 peeled + rest layer

    def test_layer_of(self):
        values = independent(40, 2, seed=3).values
        index = OnionIndex(values)
        for item in index.layers[1]:
            assert index.layer_of(int(item)) == 1
        with pytest.raises(ValidationError):
            index.layer_of(999)

    def test_validation(self):
        with pytest.raises(ValidationError):
            OnionIndex(np.ones(5))
        with pytest.raises(ValidationError):
            OnionIndex(np.ones((4, 2)), max_layers=0)


class TestCorrectness:
    def test_topk_matches_bruteforce(self):
        values = independent(120, 3, seed=4).values
        index = OnionIndex(values)
        for w in sample_functions(3, 40, rng=5):
            for k in (1, 3, 10):
                assert np.array_equal(index.top_k(w, k), top_k(values, w, k))

    def test_topk_with_capped_layers_still_exact(self):
        values = anticorrelated(100, 3, seed=6).values
        index = OnionIndex(values, max_layers=2)
        for w in sample_functions(3, 20, rng=7):
            assert np.array_equal(index.top_k(w, 5), top_k(values, w, 5))

    def test_topk_with_heavy_ties(self):
        rng = np.random.default_rng(8)
        values = np.round(rng.random((80, 2)), 1)  # many exact ties
        index = OnionIndex(values)
        for w in sample_functions(2, 30, rng=9):
            assert np.array_equal(index.top_k(w, 7), top_k(values, w, 7))

    def test_candidates_contain_topk(self):
        values = independent(90, 4, seed=10).values
        index = OnionIndex(values)
        for k in (1, 5, 15):
            candidates = set(int(i) for i in index.candidates(k))
            for w in sample_functions(4, 15, rng=11):
                assert set(int(i) for i in top_k(values, w, k)) <= candidates

    def test_candidates_validation(self):
        values = independent(10, 2, seed=12).values
        index = OnionIndex(values)
        with pytest.raises(ValidationError):
            index.candidates(0)
        with pytest.raises(ValidationError):
            index.candidates(11)


class TestPruning:
    def test_candidates_much_smaller_than_n_on_correlated_data(self):
        values = correlated(1000, 3, seed=13).values
        index = OnionIndex(values, max_layers=20)
        assert index.candidates(3).size < 300
