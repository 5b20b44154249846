"""Unit tests for the three k-set enumerators and the k-set graph."""

import numpy as np
import pytest

from repro.datasets import independent, paper_example
from repro.exceptions import ValidationError
from repro.geometry import (
    KSetCollection,
    enumerate_ksets_2d,
    enumerate_ksets_bfs,
    is_separable,
    kset_graph_edges,
    sample_ksets,
)
from repro.ranking import sample_functions, top_k_set


class TestEnumerate2D:
    def test_paper_figure6(self):
        """Figure 6: the 2-sets are {t1,t7}, {t7,t3}, {t3,t5}."""
        ksets = enumerate_ksets_2d(paper_example().values, 2)
        assert [set(s) for s in ksets] == [{0, 6}, {6, 2}, {2, 4}]

    def test_k1_gives_maxima_chain(self):
        ksets = enumerate_ksets_2d(paper_example().values, 1)
        assert [set(s) for s in ksets] == [{6}, {2}, {4}]

    def test_all_members_have_size_k(self, small_2d):
        for kset in enumerate_ksets_2d(small_2d, 5):
            assert len(kset) == 5

    def test_every_enumerated_set_is_separable(self):
        values = independent(20, 2, seed=0).values
        for kset in enumerate_ksets_2d(values, 3):
            assert is_separable(values, kset)

    def test_covers_every_sampled_topk(self, small_2d):
        collection = set(enumerate_ksets_2d(small_2d, 4))
        for w in sample_functions(2, 300, rng=0):
            assert top_k_set(small_2d, w, 4) in collection

    def test_consecutive_ksets_differ_by_one(self, small_2d):
        ksets = enumerate_ksets_2d(small_2d, 5)
        for a, b in zip(ksets, ksets[1:]):
            assert len(a & b) == 4

    def test_k_equals_n(self):
        values = independent(6, 2, seed=1).values
        ksets = enumerate_ksets_2d(values, 6)
        assert ksets == [frozenset(range(6))]

    def test_validation(self):
        with pytest.raises(ValidationError):
            enumerate_ksets_2d(np.ones((5, 3)), 2)
        with pytest.raises(ValidationError):
            enumerate_ksets_2d(np.ones((5, 2)), 0)


class TestSampleKsets:
    def test_finds_all_2d_ksets_of_small_instance(self):
        values = independent(25, 2, seed=2).values
        exact = set(enumerate_ksets_2d(values, 3))
        sampled = set(sample_ksets(values, 3, patience=300, rng=0).ksets)
        assert sampled == exact

    def test_subset_of_exact_in_2d(self, small_2d):
        exact = set(enumerate_ksets_2d(small_2d, 5))
        outcome = sample_ksets(small_2d, 5, patience=50, rng=1)
        assert set(outcome.ksets) <= exact

    def test_every_sample_is_separable_3d(self):
        values = independent(20, 3, seed=3).values
        outcome = sample_ksets(values, 3, patience=60, rng=2)
        for kset in outcome.ksets:
            assert is_separable(values, kset)

    def test_deterministic_given_seed(self):
        values = independent(30, 3, seed=4).values
        a = sample_ksets(values, 3, patience=50, rng=9)
        b = sample_ksets(values, 3, patience=50, rng=9)
        assert a.ksets == b.ksets
        assert a.draws == b.draws

    def test_witness_functions_reproduce_ksets(self):
        values = independent(30, 3, seed=5).values
        outcome = sample_ksets(values, 4, patience=50, rng=3)
        for kset, w in zip(outcome.ksets, outcome.functions):
            assert top_k_set(values, w, 4) == kset

    def test_max_draws_termination(self):
        values = independent(200, 4, seed=6).values
        outcome = sample_ksets(values, 20, patience=10_000, rng=4, max_draws=50)
        assert outcome.exhausted
        assert outcome.draws == 50

    def test_validation(self):
        values = independent(10, 2, seed=0).values
        with pytest.raises(ValidationError):
            sample_ksets(values, 2, patience=0)
        with pytest.raises(ValidationError):
            sample_ksets(values, 2, max_draws=0)


class TestEnumerateBFS:
    def test_matches_2d_sweep(self):
        values = independent(15, 2, seed=7).values
        sweep = set(enumerate_ksets_2d(values, 3))
        bfs = set(enumerate_ksets_bfs(values, 3))
        assert bfs == sweep

    def test_3d_covers_sampled(self):
        values = independent(12, 3, seed=8).values
        bfs = set(enumerate_ksets_bfs(values, 2))
        sampled = set(sample_ksets(values, 2, patience=200, rng=5).ksets)
        assert sampled <= bfs

    def test_all_valid_k_sets(self):
        values = independent(10, 3, seed=9).values
        for kset in enumerate_ksets_bfs(values, 2):
            assert len(kset) == 2
            assert is_separable(values, kset)


class TestKsetGraph:
    def test_edges_definition(self):
        ksets = [frozenset({0, 1}), frozenset({1, 2}), frozenset({3, 4})]
        assert kset_graph_edges(ksets) == [(0, 1)]

    def test_complete_collection_is_connected(self):
        """Theorem 7: the k-set graph over the full collection is connected."""
        import networkx as nx

        values = independent(18, 2, seed=10).values
        ksets = enumerate_ksets_2d(values, 4)
        graph = nx.Graph()
        graph.add_nodes_from(range(len(ksets)))
        graph.add_edges_from(kset_graph_edges(ksets))
        assert nx.is_connected(graph)

    def test_connected_in_3d_bfs(self):
        import networkx as nx

        values = independent(12, 3, seed=11).values
        ksets = enumerate_ksets_bfs(values, 3)
        graph = nx.Graph()
        graph.add_nodes_from(range(len(ksets)))
        graph.add_edges_from(kset_graph_edges(ksets))
        assert nx.is_connected(graph)


class TestKSetCollection:
    """K-SETr's k-sets live in one (K, k) array and read as frozensets."""

    @pytest.fixture(scope="class")
    def outcome(self):
        values = independent(300, 3, seed=21).values
        return sample_ksets(values, 4, patience=80, rng=6, batch_size=64)

    def test_sequence_of_frozensets(self, outcome):
        ksets = outcome.ksets
        assert isinstance(ksets, KSetCollection)
        family = list(ksets)
        assert len(ksets) == len(family) == len(outcome.functions) > 64
        assert all(type(kset) is frozenset and len(kset) == 4 for kset in family)
        assert ksets[0] == family[0] and ksets[-1] == family[-1]
        assert ksets[3:7] == family[3:7]
        assert family.index(ksets[5]) == 5 and ksets[5] in ksets
        with pytest.raises(IndexError):
            ksets[len(ksets)]
        assert ksets.rows.shape == (len(ksets), 4)
        assert (np.diff(ksets.rows, axis=1) > 0).all()

    def test_equality_in_order(self, outcome):
        ksets = outcome.ksets
        family = list(ksets)
        assert ksets == ksets and not ksets != ksets
        assert ksets == family and family == ksets and not ksets != family
        assert ksets != family[::-1] and ksets != family[:-1]
        assert ksets != family[:-1] + [frozenset({0, 1, 2, 3})]
        assert ksets != set(family)
        values = independent(300, 3, seed=21).values
        again = sample_ksets(values, 4, patience=80, rng=6, batch_size=1024).ksets
        assert again == ksets and not again != ksets
        other = sample_ksets(values, 4, patience=80, rng=7).ksets
        assert other != ksets

    def test_empty(self):
        empty = KSetCollection(np.empty((0, 3), dtype=np.int64))
        assert len(empty) == 0 and list(empty) == [] and not empty
        assert empty == [] and empty == KSetCollection(np.empty((0, 3), dtype=np.int64))
