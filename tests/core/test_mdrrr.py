"""Unit tests for MDRRR (Algorithm 3) and k-set collection."""

import numpy as np
import pytest

from repro.core import collect_ksets, md_rrr
from repro.datasets import independent, paper_example
from repro.evaluation import rank_regret_exact_2d, rank_regret_sampled
from repro.exceptions import ValidationError
from repro.geometry import enumerate_ksets_2d
from repro.setcover import is_hitting_set


class TestCollectKsets:
    def test_auto_uses_exact_sweep_in_2d(self):
        values = paper_example().values
        ksets, used, draws = collect_ksets(values, 2)
        assert used == "exact-2d-sweep"
        assert draws == 0
        assert [set(s) for s in ksets] == [{0, 6}, {6, 2}, {2, 4}]

    def test_auto_samples_in_3d(self):
        values = independent(30, 3, seed=0).values
        ksets, used, draws = collect_ksets(values, 3, rng=0)
        assert used == "sample"
        assert draws > 0
        assert all(len(s) == 3 for s in ksets)

    def test_exact_bfs_in_3d(self):
        values = independent(12, 3, seed=1).values
        ksets, used, _ = collect_ksets(values, 2, enumerator="exact")
        assert used == "exact-bfs"
        sampled, _, _ = collect_ksets(values, 2, enumerator="sample", rng=0)
        assert set(sampled) <= set(ksets)

    def test_unknown_enumerator(self):
        with pytest.raises(ValidationError):
            collect_ksets(paper_example().values, 2, enumerator="nope")


class TestMDRRR:
    def test_output_hits_every_kset(self):
        values = independent(40, 3, seed=2).values
        result = md_rrr(values, 4, rng=0)
        assert is_hitting_set(result.ksets, result.indices)

    def test_guarantees_rank_regret_k_in_2d(self):
        """§5.2: MDRRR guarantees rank-regret of exactly <= k (2-D exact)."""
        for seed in range(4):
            values = independent(40, 2, seed=seed).values
            result = md_rrr(values, 5)
            assert rank_regret_exact_2d(values, result.indices) <= 5

    def test_sampled_rank_regret_k_in_3d(self):
        values = independent(100, 3, seed=3).values
        result = md_rrr(values, 10, rng=1)
        regret = rank_regret_sampled(values, result.indices, 3000, rng=2)
        assert regret <= 10

    def test_paper_example(self):
        result = md_rrr(paper_example().values, 2)
        # Must hit {t1,t7}, {t7,t3}, {t3,t5}: t3 plus one of t1/t7 suffices.
        assert is_hitting_set(result.ksets, result.indices)
        assert len(result.indices) == 2

    def test_epsnet_variant_valid(self):
        values = independent(30, 3, seed=4).values
        result = md_rrr(values, 3, hitting="epsnet", rng=5)
        assert is_hitting_set(result.ksets, result.indices)

    def test_greedy_not_larger_than_epsnet_usually(self):
        values = independent(50, 3, seed=5).values
        greedy = md_rrr(values, 5, rng=6)
        eps = md_rrr(values, 5, hitting="epsnet", rng=6, ksets=greedy.ksets)
        assert len(greedy.indices) <= len(eps.indices) + 2

    def test_provided_ksets_reused(self):
        values = paper_example().values
        ksets = enumerate_ksets_2d(values, 2)
        result = md_rrr(values, 2, ksets=ksets)
        assert result.enumerator == "provided"
        assert result.ksets == list(ksets)

    def test_deterministic_given_seed(self):
        values = independent(40, 3, seed=6).values
        a = md_rrr(values, 4, rng=7)
        b = md_rrr(values, 4, rng=7)
        assert a.indices == b.indices

    def test_validation(self):
        values = independent(10, 3, seed=7).values
        with pytest.raises(ValidationError):
            md_rrr(values, 0)
        with pytest.raises(ValidationError):
            md_rrr(values, 3, hitting="nope")
        with pytest.raises(ValidationError):
            md_rrr(np.ones(5), 1)

    def test_k_equals_n_single_item(self):
        values = independent(8, 3, seed=8).values
        result = md_rrr(values, 8, rng=0)
        assert len(result.indices) == 1


class TestVerification:
    """The repair pass counts each panel function's rank with the engine's
    exact, blocked count: no ``(n, N)`` score matrix."""

    def test_repaired_output_meets_k_on_the_panel(self):
        from repro.engine import ScoreEngine
        from repro.ranking import sample_functions

        values = independent(2_000, 3, seed=4).values
        # Too few k-sets: the hitting set misses panel functions, and the
        # repair adds their k-sets until none is missed.
        sparse, _, _ = collect_ksets(values, 10, enumerator="sample", patience=5, rng=0)
        result = md_rrr(values, 10, ksets=sparse, verify_functions=500, rng=1)
        assert len(result.ksets) > len(sparse)
        with ScoreEngine(values) as engine:
            ranks = engine.rank_of_best_batch(sample_functions(3, 500, 1), result.indices)
        assert ranks.max() <= 10

    def test_a_passed_engine_counts_the_panel(self):
        from repro.engine import ScoreEngine

        values = independent(1_500, 4, seed=6).values
        ksets = md_rrr(values, 10, rng=0).ksets
        own = md_rrr(values, 10, ksets=ksets, verify_functions=3_000, rng=2)
        with ScoreEngine(values) as engine:
            shared = md_rrr(values, 10, ksets=ksets, verify_functions=3_000, rng=2, engine=engine)
            assert engine.stats["rank_prefix_rows"] > 0
        assert shared.indices == own.indices
        assert list(shared.ksets) == list(own.ksets)
        with pytest.raises(ValidationError):
            md_rrr(values, 10, ksets=ksets, verify_functions=10, engine=ScoreEngine(values[:-1]))

    def test_peak_memory_is_flat_in_the_panel_size(self):
        import tracemalloc

        from repro.engine import ScoreEngine, score_engine

        B = score_engine._RANK_BLOCK
        values = independent(1_000, 4, seed=5).values
        ksets = md_rrr(values, 10, rng=0).ksets
        engine = ScoreEngine(values)
        md_rrr(values, 10, ksets=ksets, verify_functions=B, rng=1, engine=engine)  # warm

        def traced_peak(panel: int) -> int:
            tracemalloc.start()
            try:
                md_rrr(values, 10, ksets=ksets, verify_functions=panel, rng=1, engine=engine)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = traced_peak(B), traced_peak(4 * B)
        assert four <= 1.5 * one, (one, four)
