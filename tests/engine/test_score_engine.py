"""Unit and property tests for :class:`repro.engine.ScoreEngine`.

The load-bearing property: the batched engine is *bit-identical* to the
scalar ``top_k`` path — same indices, same tie-breaking — over seeded
random instance grids spanning n, d, and k, including duplicate-score
and duplicate-row degeneracies that trip blocked-BLAS kernels.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.engine import ScoreEngine, TuningProfile, bands, score_engine, unpack_indices
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

    def test_out_of_range_data_builds_no_float32_copy(self):
        # The range guard flags every function on data near 1e300, so no
        # float32 copy may be built: the cast would overflow to inf.
        values = np.random.default_rng(5).random((500, 4)) * 1e300
        w = np.array([[0.2, 0.4, 0.1, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = ScoreEngine(values)
            order = engine.topk_orders(w, 5)
            ranks = engine.rank_of_best_batch(w, [7, 9])
        assert np.array_equal(order[0], top_k(values, w[0], 5))
        assert ranks.tolist() == [_gemv_rank_of_best(values, w[0], [7, 9])]
        assert all(ordering.V32 is None for ordering in engine._orderings)

    def test_float32_subnormal_weights_stay_exact(self):
        # Weights below float32's normal range keep only a few bits in
        # the float32 cast while ‖w‖·max‖x‖ looks in range; the range
        # guard must send them to the scalar kernel in the rank count.
        rng = np.random.default_rng(0)
        values = rng.random((500, 3)) * 1e20
        weights = rng.random((32, 3)) * 1e-42
        members = [3, 100, 400]
        engine = ScoreEngine(values, quantize=None)
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

    def test_ties_with_the_best_member_are_not_counted(self, kernel_paths):
        # Row 1 is identical to the member row 3 and has a smaller index:
        # the engine counts rows strictly above (rank 2), while rank_of
        # breaks the tie by index and puts row 3 behind row 1 (rank 3).
        values = np.array([[0.9, 0.9], [0.5, 0.5], [0.3, 0.3], [0.5, 0.5]])
        w = np.array([1.0, 1.0])
        assert rank_of(values, w, 3) == 3
        for _ in kernel_paths():
            engine = ScoreEngine(values)
            assert engine.rank_of_best_batch(w[None], [3]).tolist() == [2]
            assert engine._verified_rank(w, np.array([3])) == 2

    def test_subset_takes_integers_or_a_mask(self):
        # Nothing is cast: int(0.9) would silently read row 0.
        values = np.random.default_rng(3).random((8, 2))
        engine = ScoreEngine(values)
        w = np.array([[0.3, 0.7]])
        mask = np.zeros(8, dtype=bool)
        mask[[0, 5]] = True
        want = engine.rank_of_best_batch(w, np.array([5, 0, 5], dtype=np.uint8))
        assert engine.rank_of_best_batch(w, mask).tolist() == want.tolist()
        for bad in ([0.9, 5.5], [True, False, True], ["3"], [2**70], [[0, 1.5]]):
            with pytest.raises(ValidationError):
                engine.rank_of_best_batch(w, bad)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights(self, kernel_paths, bad):
        # One bad row in a single-function call (the small-call route)
        # and in a 300-function call (the tier ladder, candidate engine
        # included): every entry that takes weights refuses it.
        rng = np.random.default_rng(5)
        engine = ScoreEngine(rng.random((100, 3)))
        for m in (1, 300):
            W = rng.random((m, 3))
            W[m // 2, 0] = bad
            for _ in kernel_paths():
                for call in (
                    lambda: engine.topk_orders(W, 3),
                    lambda: engine.topk_batch(W, 3),
                    lambda: engine.rank_of_best_batch(W, [0, 1]),
                    lambda: engine.score_batch(W),
                    lambda: engine.top_k(W[m // 2], 3),
                ):
                    with pytest.raises(ValidationError):
                        call()

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
    (the rank count's) loses ``ρ·r`` entirely.
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
    """Every quantize setting, plus a default Session whose adaptive
    quantizer has switched itself off."""
    for quantize in (None, "auto"):
        yield f"quantize={quantize}", ScoreEngine(values, quantize=quantize)
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
    def test_every_tier_matches_the_scalar_path(
        self, kernel_paths, seed, mirror, rho_exp, n
    ):
        values, weights = _cancellation_case(seed, mirror, rho_exp, n)
        members = np.random.default_rng(seed).choice(n, 3, replace=False)
        expected = [top_k(values, w, 5) for w in weights]
        ranks = [_gemv_rank_of_best(values, w, members) for w in weights]
        # Built (and the Session warmed) on the ladder, then queried on
        # the ladder and on the small-call route.
        engines = list(_cancellation_engines(values))
        for _ in kernel_paths():
            for name, engine in engines:
                got = engine.topk_orders(weights, 5)
                for i in range(len(weights)):
                    assert np.array_equal(got[i], expected[i]), (name, i)
                assert engine.rank_of_best_batch(weights, members).tolist() == ranks, name

    def test_band_is_load_bearing(self, monkeypatch):
        # At ρ = 1e-15 the pair's scores cancel below their rounding
        # error, so the float64 GEMM and the scalar GEMV can order them
        # differently.  Only the band sends such functions on from the
        # float64 pass to the scalar kernel; without it the GEMM order
        # stands for some of them.
        cases = [
            _cancellation_case(seed, mirror, -15.0, 500)
            for seed in range(4)
            for mirror in (False, True)
        ]

        def all_exact():
            for values, weights in cases:
                got = ScoreEngine(values, quantize=None).topk_orders(weights, 5)
                for i, w in enumerate(weights):
                    if not np.array_equal(got[i], top_k(values, w, 5)):
                        return False
            return True

        assert all_exact()
        monkeypatch.setattr(bands, "ULPS", 0.0)
        assert not all_exact()

    def test_rank_band_is_load_bearing(self, monkeypatch):
        # The float32 count's copy rounds a + δ to a (δ < 2⁻²⁵, half an
        # ulp of a float32 in [0.5, 1)), so every row but the member
        # scores 0 > −2⁻³⁰ in float32, while exactly each scores −δ below
        # the member's −2⁻³⁰.  Only the band sends the function on to the
        # scalar kernel; without it the float32 count (rank n) stands.
        rng = np.random.default_rng(0)
        n = 1000
        a = rng.uniform(0.5, 1.0, n).astype(np.float32).astype(np.float64)
        delta = rng.uniform(2.0**-28, 2.0**-26, n)
        values = np.column_stack([a, a + delta, rng.random(n), rng.random(n)])
        values[0] = [0.0, 2.0**-30, 0.0, 0.0]
        w = np.array([[1.0, -1.0, 0.0, 0.0]])
        assert _gemv_rank_of_best(values, w[0], [0]) == 1
        assert ScoreEngine(values).rank_of_best_batch(w, [0]).tolist() == [1]
        monkeypatch.setattr(bands, "ULPS", 0.0)
        assert ScoreEngine(values).rank_of_best_batch(w, [0]).tolist() == [n]


    def test_band_covers_the_rounding_bound_at_every_d(self):
        # Two tier scores a band apart keep their order in the scalar
        # float64 kernel: each errs by γ_d·noise in its tier and again in
        # the scalar kernel, with γ_{d+2} in float32, whose casts of w and
        # x round once more.  Exact rationals.  A fixed 64-ulp width
        # falls short from d = 32 in float64 and d = 62 in float32.
        u64 = Fraction(float(np.finfo(np.float64).eps)) / 2
        u32 = Fraction(float(np.finfo(np.float32).eps)) / 2

        def gamma(n, u):
            return n * u / (1 - n * u)

        for d in range(1, 4097):
            assert Fraction(bands.tol(1.0, d)) >= 4 * gamma(d, u64), d
            f32_bound = 2 * (gamma(d + 2, u32) + gamma(d, u64))
            assert Fraction(bands.tol(1.0, d, f32=True)) >= f32_bound, d

    def test_near_equal_columns_at_d_48(self, kernel_paths):
        # Past the 31 attributes a fixed 64-ulp float64 band covers: the
        # pair b, b + 1e-9·r under (a, −a, tiny...) cancels as above.
        rng = np.random.default_rng(48)
        n, d, m = 400, 48, 8
        b, r = rng.random(n), rng.random(n)
        values = np.column_stack([b, b + 1e-9 * r, rng.random((n, d - 2))])
        a = rng.uniform(0.5, 2.0, m)
        tiny = 10.0 ** rng.uniform(-16, -8, (m, d - 2)) * rng.choice([-1.0, 1.0], (m, d - 2))
        weights = np.column_stack([a, -a, tiny])
        members = rng.choice(n, 3, replace=False)
        expected = [top_k(values, w, 5) for w in weights]
        ranks = [_gemv_rank_of_best(values, w, members) for w in weights]
        for _ in kernel_paths():
            for quantize in (None, "auto"):
                engine = ScoreEngine(values, quantize=quantize)
                got = engine.topk_orders(weights, 5)
                for i in range(m):
                    assert np.array_equal(got[i], expected[i]), (quantize, i)
                assert engine.rank_of_best_batch(weights, members).tolist() == ranks


class TestSmallCalls:
    """The small-call route at the shipped cutover."""

    @pytest.fixture(autouse=True)
    def ladder_only(self):
        """Overrides the suite's ladder pin: these tests check the route."""

    @pytest.fixture(scope="class")
    def values(self):
        return np.random.default_rng(19).random((20_000, 4))

    def test_one_function_topk_takes_the_scalar_kernel(self, values):
        engine = ScoreEngine(values)
        w = np.array([0.4, -0.3, 0.2, 0.1])
        batch = engine.topk_batch(w[None], 15)
        assert np.array_equal(batch.order[0], top_k(values, w, 15))
        assert np.array_equal(
            unpack_indices(batch.members[0], values.shape[0]), np.sort(batch.order[0])
        )
        assert engine.stats["scalar_columns"] == 1
        assert engine.stats["gemm_columns"] == 1
        assert engine.stats["verified_columns"] == 0
        assert engine._orderings is None  # the ladder never ran

    def test_one_function_rank_takes_the_scalar_kernel(self, values):
        engine = ScoreEngine(values)
        w = np.array([0.1, 0.5, -0.2, 0.3])
        members = [7, 1_234, 19_999]
        got = engine.rank_of_best_batch(w[None], members)
        assert got.tolist() == [_gemv_rank_of_best(values, w, members)]
        assert engine.stats["scalar_columns"] == 1
        assert engine.stats["gemm_columns"] == 1
        assert engine.stats["verified_columns"] == 0
        assert engine.stats["rank_prefix_rows"] == values.shape[0]

    def test_one_function_above_the_cutover_takes_the_ladder(self, values):
        routed = score_engine._SCALAR_MAX_WORK // values.shape[0]
        W = sample_functions(4, routed + 1, 19)
        members = [7, 1_234]
        engine = ScoreEngine(values)
        engine.topk_orders(W[:routed], 15)
        engine.rank_of_best_batch(W[:routed], members)
        assert engine.stats["scalar_columns"] == 2 * routed
        order = engine.topk_orders(W, 15)
        ranks = engine.rank_of_best_batch(W, members)
        assert engine.stats["scalar_columns"] == 2 * routed
        for j, w in enumerate(W):
            assert np.array_equal(order[j], top_k(values, w, 15))
            assert ranks[j] == _gemv_rank_of_best(values, w, members)

    def test_fan_out_keeps_the_ladder(self, values):
        # A zero-cutover fan-out splits calls of four or more functions
        # into function chunks, whose units never route; one function is
        # too few to split and takes the small-call route.
        profile = TuningProfile(parallel_min_work=0)
        w = np.array([[0.4, 0.3, 0.2, 0.1]])
        with ScoreEngine(values, n_jobs=2, tune=profile) as engine:
            order = engine.topk_orders(w, 15)
            assert engine.stats["parallel_calls"] == 0
            assert engine.stats["scalar_columns"] == 1
        assert np.array_equal(order[0], top_k(values, w[0], 15))
        small = values[:1_000]
        W = sample_functions(4, 4, 20)
        with ScoreEngine(small, n_jobs=2, tune=profile) as engine:
            ranks = engine.rank_of_best_batch(W, [3, 500])
            order = engine.topk_orders(W, 15)
            assert engine.stats["parallel_calls"] == 2
            assert engine.stats["scalar_columns"] == 0
        for j, w in enumerate(W):
            assert ranks[j] == _gemv_rank_of_best(small, w, [3, 500])
            assert np.array_equal(order[j], top_k(small, w, 15))

    def test_small_call_predicts_the_route_with_nothing_to_settle(self, values):
        routed = score_engine._SCALAR_MAX_WORK // values.shape[0]
        engine = ScoreEngine(values, tune=TuningProfile())
        assert engine.small_call(1) and engine.small_call(routed)
        assert not engine.small_call(routed + 1)  # above the cutover
        for m in (1, routed, routed + 1):
            W = sample_functions(4, m, 22)
            calls = (
                lambda: engine.topk_orders(W, 15),
                lambda: engine.rank_of_best_batch(W, [7, 1_234]),
            )
            for call in calls:  # both call sites route as the predicate says
                before = engine.stats["scalar_columns"]
                call()
                assert (engine.stats["scalar_columns"] > before) == engine.small_call(m)
        engine.insert_rows(values[:2])
        assert not engine.small_call(1)  # journaled rows to compact
        engine.compact()
        assert engine.small_call(1)
        with ScoreEngine(values, n_jobs=2, tune=TuningProfile()) as engine:
            assert engine.small_call(1)  # two workers, no fan-out at this size
        profile = TuningProfile(parallel_min_work=0)
        with ScoreEngine(values[:1_000], n_jobs=2, tune=profile) as engine:
            assert engine.small_call(1) and engine.small_call(3)  # too few to split
            assert not engine.small_call(4)  # a fan-out

    def test_candidate_child_never_routes(self, values):
        # The child answers 256 nonnegative functions over 222 band rows,
        # under the cutover, and still runs the ladder.
        small = values[:1_000]
        W = sample_functions(4, 256, 21)
        engine = ScoreEngine(small)
        order = engine.topk_orders(W, 5)
        assert engine.stats["candidate_columns"] == 256
        (child,) = engine._candidates.values()
        assert 256 * child.n <= score_engine._SCALAR_MAX_WORK
        assert engine.stats["scalar_columns"] == 0
        for j, w in enumerate(W):
            assert np.array_equal(order[j], top_k(small, w, 5))


def test_attribute_orderings_are_built_once():
    values = np.random.default_rng(23).random((500, 4))
    engine = ScoreEngine(values)
    W = sample_functions(4, 8, 24)
    order, ranks = engine.topk_orders(W, 5), engine.rank_of_best_batch(W, [3, 77])
    engine._build_attribute_orderings()
    engine._build_attribute_orderings()
    assert len(engine._orderings) == values.shape[1] + 1
    assert np.array_equal(engine.topk_orders(W, 5), order)
    assert np.array_equal(engine.rank_of_best_batch(W, [3, 77]), ranks)


def test_screen_and_float64_pass_read_one_plan(monkeypatch):
    """A chunk probes and plans once, whichever tiers then read the plan.

    Mixed-sign functions fit one chunk, and the int16 screen promotes
    most of them to the float64 pass.  The norm probe (the first
    ``max(4k, 64)`` rows) is still scored once, and the ordering demand
    charged is what an engine without the screen charges."""
    rng = np.random.default_rng(0)
    values = rng.random((5_000, 4))
    W = rng.standard_normal((32, 4))
    probes = []
    prefix_eval = ScoreEngine._prefix_eval

    def counted(self, ordering, Wc, k, c):
        if ordering is self._orderings[0] and c == 64:
            probes.append(Wc.shape[0])
        return prefix_eval(self, ordering, Wc, k, c)

    monkeypatch.setattr(ScoreEngine, "_prefix_eval", counted)
    screened, plain = ScoreEngine(values), ScoreEngine(values, quantize=None)
    order = screened.topk_orders(W, 10)
    assert screened.stats["quant_columns"] == 32
    assert screened.stats["quant_resolved"] < 16
    assert probes == [32]
    plain.topk_orders(W, 10)
    assert screened._excess_work == plain._excess_work > 0
    for j, w in enumerate(W):
        assert np.array_equal(order[j], top_k(values, w, 10))


class TestRankBlocks:
    """Rank counting runs ``_RANK_BLOCK`` functions at a time: the same
    ranks as one unblocked count, in memory that does not grow with m."""

    B = score_engine._RANK_BLOCK

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(31)
        values = rng.random((3_000, 4))
        # A copy of member 41 ties it inside the band wherever it is the
        # best member: about 60% of the functions take the exact
        # fallback and the rest the banded count.
        values = np.vstack([values, values[[41]]])
        return values, [5, 40, 41, 900, 2_999]

    @pytest.mark.parametrize("m", [1, B - 1, B, B + 1, 3 * B + 17])
    def test_block_edges_match_the_unblocked_count(self, case, m, monkeypatch):
        values, subset = case
        W = sample_functions(4, m, m)
        got = ScoreEngine(values).rank_of_best_batch(W, subset)
        monkeypatch.setattr(score_engine, "_RANK_BLOCK", m)
        assert np.array_equal(got, ScoreEngine(values).rank_of_best_batch(W, subset))
        exact = [_gemv_rank_of_best(values, w, subset) for w in W]
        assert got.tolist() == exact

    def test_peak_memory_is_flat_in_the_number_of_functions(self):
        import tracemalloc

        from repro.evaluation import rank_regret_sampled

        values = np.random.default_rng(32).random((20_000, 4))
        subset = np.argsort(-values.sum(axis=1))[:40]
        engine = ScoreEngine(values)
        rank_regret_sampled(values, subset, self.B, rng=0, engine=engine)  # builds orderings

        def traced_peak(m: int) -> int:
            tracemalloc.start()
            try:
                rank_regret_sampled(values, subset, m, rng=1, engine=engine)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, eight = traced_peak(self.B), traced_peak(8 * self.B)
        assert eight <= 1.5 * one, (one, eight)
