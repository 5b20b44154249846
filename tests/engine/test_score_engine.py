"""Unit and property tests for :class:`repro.engine.ScoreEngine`.

The load-bearing property: the batched engine is *bit-identical* to the
scalar ``top_k`` path — same indices, same tie-breaking — over seeded
random instance grids spanning n, d, and k, including duplicate-score
and duplicate-row degeneracies that trip blocked-BLAS kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.engine import ScoreEngine, bands, unpack_indices
from repro.exceptions import ValidationError
from repro.ranking import rank_of, sample_functions
from repro.ranking.topk import ranking, top_k


def _instances():
    """Seeded (values, weights, k) grid over n, d, k — the equivalence lattice."""
    rng = np.random.default_rng(20260731)
    cases = []
    for n in (3, 17, 64, 65, 300):
        for d in (2, 3, 6):
            values = rng.random((n, d))
            weights = sample_functions(d, 23, rng)
            for k in {1, 2, n // 2 or 1, n - 1 or 1, n}:
                cases.append((values, weights, int(k)))
    return cases


class TestTopKBatchEquivalence:
    @pytest.mark.parametrize("case", range(len(_instances())))
    def test_bit_identical_to_scalar_top_k(self, case):
        values, weights, k = _instances()[case]
        engine = ScoreEngine(values)
        batch = engine.topk_batch(weights, k)
        for i, w in enumerate(weights):
            expected = top_k(values, w, k)
            assert np.array_equal(batch.order[i], expected)
            assert np.array_equal(
                unpack_indices(batch.members[i], values.shape[0]),
                np.sort(expected),
            )

    def test_tie_breaking_matches_scalar(self):
        # Quantized values force massive score ties; the engine must
        # break them by smaller row index exactly like the scalar path.
        rng = np.random.default_rng(7)
        values = np.round(rng.random((60, 3)), 1)
        weights = np.round(sample_functions(3, 40, rng), 1)
        weights[weights.sum(axis=1) == 0] = 1.0
        engine = ScoreEngine(values)
        for k in (1, 5, 30, 60):
            batch = engine.topk_batch(weights, k)
            for i, w in enumerate(weights):
                assert np.array_equal(batch.order[i], top_k(values, w, k))

    def test_duplicate_rows_resolve_by_index(self):
        # Identical rows can receive non-bit-identical GEMM scores
        # (blocked-kernel remainder lanes); the verified tie band must
        # hide that and always pick the smallest indices.
        values = np.full((15, 3), 0.873046875)
        engine = ScoreEngine(values)
        weights = sample_functions(3, 500, 0)
        batch = engine.topk_batch(weights, 2)
        assert np.array_equal(
            batch.order, np.tile(np.array([0, 1]), (500, 1))
        )

    def test_chunking_invariant(self):
        values = np.random.default_rng(3).random((50, 4))
        weights = sample_functions(4, 64, 3)
        big = ScoreEngine(values).topk_batch(weights, 7)
        # Force many tiny GEMM chunks; results must not change.
        small = ScoreEngine(values, chunk_bytes=1).topk_batch(weights, 7)
        assert np.array_equal(big.order, small.order)
        assert np.array_equal(big.members, small.members)

    def test_float32_mode_matches_float64(self):
        rng = np.random.default_rng(4)
        values = rng.random((200, 4))
        weights = sample_functions(4, 100, 4)
        exact = ScoreEngine(values).topk_batch(weights, 9)
        fast = ScoreEngine(values, float32=True).topk_batch(weights, 9)
        assert np.array_equal(exact.order, fast.order)

    def test_full_ranking_when_k_equals_n(self):
        rng = np.random.default_rng(5)
        values = rng.random((30, 3))
        weights = sample_functions(3, 10, 5)
        batch = ScoreEngine(values).topk_batch(weights, 30)
        for i, w in enumerate(weights):
            assert np.array_equal(batch.order[i], ranking(values, w))


class TestScoreBatch:
    def test_matches_direct_gemm(self):
        rng = np.random.default_rng(6)
        values = rng.random((40, 3))
        weights = sample_functions(3, 17, 6)
        out = ScoreEngine(values).score_batch(weights)
        assert np.array_equal(out, values @ weights.T)

    def test_chunked_close_to_unchunked(self):
        # Raw GEMM output may differ in the last ulp across chunk layouts
        # (BLAS blocking); rank decisions are verified elsewhere.
        rng = np.random.default_rng(7)
        values = rng.random((40, 3))
        weights = sample_functions(3, 17, 7)
        a = ScoreEngine(values).score_batch(weights)
        b = ScoreEngine(values, chunk_bytes=1).score_batch(weights)
        assert np.allclose(a, b, rtol=1e-13, atol=0.0)


class TestMemo:
    def test_hit_returns_same_result(self):
        rng = np.random.default_rng(8)
        values = rng.random((50, 3))
        engine = ScoreEngine(values)
        w = sample_functions(3, 1, 8)[0]
        first = engine.top_k(w, 5)
        second = engine.top_k(w, 5)
        assert np.array_equal(first, second)
        assert engine.stats["memo_hits"] == 1
        assert engine.stats["memo_misses"] == 1

    def test_different_k_is_different_entry(self):
        values = np.random.default_rng(9).random((50, 3))
        engine = ScoreEngine(values)
        w = sample_functions(3, 1, 9)[0]
        engine.top_k(w, 5)
        engine.top_k(w, 6)
        assert engine.stats["memo_misses"] == 2

    def test_lru_eviction(self):
        values = np.random.default_rng(10).random((20, 3))
        engine = ScoreEngine(values, memo_size=2)
        ws = sample_functions(3, 3, 10)
        for w in ws:
            engine.top_k(w, 2)
        engine.top_k(ws[0], 2)  # evicted by ws[2]; must recompute
        assert engine.stats["memo_misses"] == 4


class TestRankOfBestBatch:
    def test_matches_scalar_rank_of(self):
        rng = np.random.default_rng(11)
        values = rng.random((80, 3))
        weights = sample_functions(3, 200, 11)
        subset = [4, 17, 60]
        got = ScoreEngine(values).rank_of_best_batch(weights, subset)
        for j, w in enumerate(weights):
            expected = min(rank_of(values, w, i) for i in subset)
            assert got[j] == expected

    def test_duplicate_rows_rank_one(self):
        # The regression the hypothesis suite found: GEMM noise between
        # identical rows must not inflate the rank above 1.
        values = np.full((15, 3), 0.873046875)
        weights = sample_functions(3, 500, 0)
        ranks = ScoreEngine(values).rank_of_best_batch(weights, [0])
        assert int(ranks.max()) == 1

    def test_float32_overflow_magnitudes_stay_exact(self):
        # Regression: scores beyond the float32 range turned the banded
        # count's thresholds into inf, and inf > inf is False — rows
        # strictly above the bound were dropped from both the above and
        # near counts, so the mismatch fallback never fired and the rank
        # was silently undercounted.  Such functions must take the exact
        # float64 kernel instead.
        values = np.array([[1e150, 0.0], [2e150, 0.0], [0.5e150, 0.1e150]])
        got = ScoreEngine(values, quantize=None).rank_of_best_batch(
            np.array([[1.0, 0.0]]), [0]
        )
        assert got[0] == 2
        # Mixed magnitudes: huge rows with tiny weights (finite score
        # bound, but the float32 copy of the matrix overflows).
        values = np.array([[1e39, 0.0], [0.5, 0.0], [0.2, 0.3]])
        got = ScoreEngine(values, quantize=None).rank_of_best_batch(
            np.array([[1e-40, 1e-40]]), [1]
        )
        assert got[0] == 2

    def test_float32_subnormal_weights_stay_exact(self):
        # Weights below float32's normal range keep only a few bits in
        # the float32 cast while ‖w‖·max‖x‖ looks in range; the range
        # guard must send them to float64 in both the rank and top-k paths.
        rng = np.random.default_rng(0)
        values = rng.random((500, 3)) * 1e20
        weights = rng.random((32, 3)) * 1e-42
        members = [3, 100, 400]
        engine = ScoreEngine(values, float32=True, quantize=None)
        ranks = engine.rank_of_best_batch(weights, members)
        orders = engine.topk_orders(weights, 5)
        for j, w in enumerate(weights):
            exact = values @ w
            assert ranks[j] == int((exact > exact[members].max()).sum()) + 1
            assert np.array_equal(orders[j], top_k(values, w, 5))

    def test_validation(self):
        engine = ScoreEngine(np.ones((5, 2)))
        with pytest.raises(ValidationError):
            engine.rank_of_best_batch(np.ones((3, 2)), [])
        with pytest.raises(ValidationError):
            engine.rank_of_best_batch(np.ones((3, 2)), [9])


class TestValidation:
    def test_bad_matrix(self):
        with pytest.raises(ValidationError):
            ScoreEngine(np.ones(4))
        with pytest.raises(ValidationError):
            ScoreEngine(np.array([[np.nan, 1.0]]))

    def test_bad_weights(self):
        engine = ScoreEngine(np.ones((4, 2)))
        with pytest.raises(ValidationError):
            engine.topk_batch(np.ones((3, 5)), 1)
        with pytest.raises(ValidationError):
            engine.topk_batch(np.ones(2), 1)

    def test_bad_k(self):
        engine = ScoreEngine(np.ones((4, 2)))
        with pytest.raises(ValidationError):
            engine.topk_batch(np.ones((1, 2)), 0)
        with pytest.raises(ValidationError):
            engine.topk_batch(np.ones((1, 2)), 5)


def _cancellation_case(seed, mirror, rho_exp, n, m=8):
    """Columns ``b`` and ``b + ρ·r`` under weights ``(a, −a, ε, ε′)``, or
    in the mirror case ``b`` and ``−b + ρ·r`` under ``(a, a, ε, ε′)``.

    The scores cancel down to ``±a·ρ·r + ε·x₃ + ε′·x₄``, far below their
    rounding error ``‖w‖·max‖x‖·eps``, and a float32 copy of the pair
    loses ``ρ·r`` entirely.
    """
    rng = np.random.default_rng(seed)
    b, r = rng.random(n), rng.random(n)
    pair = (-b if mirror else b) + 10.0**rho_exp * r
    values = np.column_stack([b, pair, rng.random(n), rng.random(n)])
    a = rng.uniform(0.5, 2.0, m)
    small = 10.0 ** rng.uniform(-16, -8, (m, 2)) * rng.choice([-1.0, 1.0], (m, 2))
    weights = np.column_stack([a, a if mirror else -a, small])
    return values, weights


def _cancellation_engines(values):
    """Every float32/quantize setting, plus a default Session whose
    adaptive quantizer has switched itself off."""
    for float32 in (False, True):
        for quantize in (None, "auto"):
            yield (
                f"float32={float32}, quantize={quantize}",
                ScoreEngine(values, float32=float32, quantize=quantize),
            )
    engine = Session(values).engine
    warm = np.random.default_rng(1)
    for _ in range(40):
        if engine._quantizer.level is None:
            break
        engine.topk_orders(warm.standard_normal((64, values.shape[1])), 5)
    assert engine._quantizer.level is None
    yield "warmed Session", engine


def _gemv_rank_of_best(values, w, members):
    """1 + rows strictly above the best member, by one float64 GEMV."""
    exact = values @ w
    return int((exact > exact[members].max()).sum()) + 1


class TestCancellation:
    @given(
        seed=st.integers(0, 2**32 - 1),
        mirror=st.booleans(),
        rho_exp=st.floats(-16.0, -8.0),
        n=st.integers(200, 500),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_tier_matches_the_scalar_path(self, seed, mirror, rho_exp, n):
        values, weights = _cancellation_case(seed, mirror, rho_exp, n)
        members = np.random.default_rng(seed).choice(n, 3, replace=False)
        expected = [top_k(values, w, 5) for w in weights]
        ranks = [_gemv_rank_of_best(values, w, members) for w in weights]
        for name, engine in _cancellation_engines(values):
            got = engine.topk_orders(weights, 5)
            for i in range(len(weights)):
                assert np.array_equal(got[i], expected[i]), (name, i)
            assert engine.rank_of_best_batch(weights, members).tolist() == ranks, name

    def test_band_is_load_bearing(self, monkeypatch):
        # The float32 copy rounds b + 1e-9·r to b, so float32 scores miss
        # the term that decides the order.  Only the band sends this
        # function on to float64; without it the float32 order stands.
        rng = np.random.default_rng(0)
        b = rng.random(1000)
        values = np.column_stack(
            [b, b + 1e-9 * rng.random(1000), rng.random(1000), rng.random(1000)]
        )
        w = np.array([1.0, -1.0, 1e-12, 0.0])
        expected = top_k(values, w, 5)
        engine = ScoreEngine(values, float32=True, quantize=None)
        assert np.array_equal(engine.topk_orders(w[None], 5)[0], expected)
        monkeypatch.setattr(bands, "ULPS", 0.0)
        narrow = ScoreEngine(values, float32=True, quantize=None)
        assert not np.array_equal(narrow.topk_orders(w[None], 5)[0], expected)
