"""Bit-identity and lifecycle tests for the thread fan-out layer.

The contract under test: for every function-chunk split and any worker
count, the parallel engine returns *bit-identical* results to the
serial tiered path, including on tie-dense and duplicate-row data that
exercises the scalar fallback tier; calls too small to split run
serially.  Pool lifecycle (lazy creation, n_jobs=1 degradation, close)
is covered alongside.
"""

import numpy as np
import pytest

from repro import Session
from repro.engine import ScoreEngine, resolve_n_jobs
from repro.exceptions import ValidationError
from repro.ranking import sample_functions


def _engines(values, n_jobs=2, **kwargs):
    """(serial, parallel-with-zero-cutover) engine pair."""
    serial = ScoreEngine(values)
    fanout = ScoreEngine(values, n_jobs=n_jobs, parallel_min_work=0, **kwargs)
    return serial, fanout


def _instances():
    rng = np.random.default_rng(20260731)
    cases = []
    for n, d, m in ((31, 2, 17), (64, 3, 40), (300, 4, 65)):
        values = rng.random((n, d))
        cases.append((values, sample_functions(d, m, rng)))
    # Tie-dense: quantized scores hit the scalar verification tier.
    values = np.round(rng.random((60, 3)), 1)
    cases.append((values, np.round(sample_functions(3, 24, rng), 1) + 0.1))
    # Degenerate: identical rows provoke blocked-BLAS score noise.
    cases.append((np.full((40, 3), 0.873046875), sample_functions(3, 24, rng)))
    return cases


class TestFunctionChunkIdentity:
    @pytest.mark.parametrize("case", range(len(_instances())))
    def test_topk_bit_identical(self, case):
        values, weights = _instances()[case]
        serial, fanout = _engines(values)
        with fanout:
            k = max(1, values.shape[0] // 4)
            a = serial.topk_batch(weights, k)
            b = fanout.topk_batch(weights, k)
            assert np.array_equal(a.order, b.order)
            assert np.array_equal(a.members, b.members)

    @pytest.mark.parametrize("case", range(len(_instances())))
    def test_rank_bit_identical(self, case):
        values, weights = _instances()[case]
        serial, fanout = _engines(values)
        with fanout:
            subset = [0, values.shape[0] // 2, values.shape[0] - 1]
            assert np.array_equal(
                serial.rank_of_best_batch(weights, subset),
                fanout.rank_of_best_batch(weights, subset),
            )

    def test_score_batch_bit_identical(self):
        # Aligned function chunks replay the serial matmul calls, so raw
        # GEMM output matches bitwise, not just to an ulp.
        rng = np.random.default_rng(5)
        values = rng.random((50, 4))
        weights = sample_functions(4, 96, 5)
        serial = ScoreEngine(values, chunk_bytes=1)
        fanout = ScoreEngine(values, chunk_bytes=1, n_jobs=2, parallel_min_work=0)
        with fanout:
            assert np.array_equal(
                serial.score_batch(weights), fanout.score_batch(weights)
            )


class TestRowChunkIdentity:
    """Fewer than ``2·n_jobs`` functions over a larger matrix: too few to
    split into function chunks, so the fan-out engine answers them in
    the caller's thread, bit-identical to the serial engine."""

    def test_topk_bit_identical(self):
        rng = np.random.default_rng(6)
        values = rng.random((400, 3))
        weights = sample_functions(3, 3, 6)
        serial, fanout = _engines(values)
        with fanout:
            for k in (1, 7, 400):
                a = serial.topk_batch(weights, k)
                b = fanout.topk_batch(weights, k)
                assert np.array_equal(a.order, b.order)
            assert fanout.stats["parallel_calls"] == 0

    def test_topk_duplicate_rows(self):
        values = np.full((120, 3), 0.873046875)
        weights = sample_functions(3, 2, 0)
        serial, fanout = _engines(values)
        with fanout:
            a = serial.topk_batch(weights, 5)
            b = fanout.topk_batch(weights, 5)
            assert np.array_equal(a.order, b.order)
            assert fanout.stats["parallel_calls"] == 0

    def test_rank_bit_identical(self):
        rng = np.random.default_rng(7)
        values = rng.random((500, 3))
        weights = sample_functions(3, 3, 7)
        serial, fanout = _engines(values)
        with fanout:
            assert np.array_equal(
                serial.rank_of_best_batch(weights, [2, 250]),
                fanout.rank_of_best_batch(weights, [2, 250]),
            )
            assert fanout.stats["parallel_calls"] == 0


class TestPlanning:
    def test_forced_multi_chunk_small_matrix(self):
        # A matrix far below the default cutover still splits into many
        # work units once the cutover is forced to zero.
        rng = np.random.default_rng(8)
        values = rng.random((40, 3))
        weights = sample_functions(3, 64, 8)
        serial, fanout = _engines(values, n_jobs=3)
        with fanout:
            a = serial.topk_batch(weights, 7)
            b = fanout.topk_batch(weights, 7)
            assert np.array_equal(a.order, b.order)
            assert fanout.stats["parallel_calls"] == 1
            assert fanout._parallel.tasks_dispatched > 1

    def test_default_cutover_keeps_small_calls_serial(self):
        values = np.random.default_rng(9).random((40, 3))
        engine = ScoreEngine(values, n_jobs=2)  # default parallel_min_work
        engine.topk_batch(sample_functions(3, 10, 9), 5)
        assert engine._parallel is None
        assert engine.stats["parallel_calls"] == 0

    def test_n_jobs_one_degrades_to_serial(self):
        values = np.random.default_rng(10).random((40, 3))
        weights = sample_functions(3, 30, 10)
        serial = ScoreEngine(values)
        inline = ScoreEngine(values, n_jobs=1, parallel_min_work=0)
        a = serial.topk_batch(weights, 4)
        b = inline.topk_batch(weights, 4)
        assert np.array_equal(a.order, b.order)
        assert inline._parallel is None
        assert inline.stats["parallel_calls"] == 0

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ValueError):
            resolve_n_jobs(0)
        with pytest.raises(ValidationError):
            ScoreEngine(np.ones((3, 2)), n_jobs=-2)


class TestLifecycle:
    def test_close_is_idempotent(self):
        values = np.random.default_rng(11).random((64, 3))
        engine = ScoreEngine(values, n_jobs=2, parallel_min_work=0)
        engine.topk_batch(sample_functions(3, 20, 11), 3)
        assert engine._parallel is not None
        engine.close()
        assert engine._parallel is None
        engine.close()
        # The engine keeps working serially after close.
        engine.topk_order_batch(sample_functions(3, 4, 12), 3)


class TestPrunedRankCounting:
    def test_matches_full_scan_on_grid(self):
        rng = np.random.default_rng(14)
        for n, d in ((50, 2), (300, 4), (997, 3)):
            values = rng.random((n, d))
            weights = sample_functions(d, 60, rng)
            subset = [0, n // 3, n - 1]
            engine = ScoreEngine(values)
            got = engine.rank_of_best_batch(weights, subset)
            # The pre-pruning full scan: every row scored in float64.
            for j, w in enumerate(weights):
                exact = values @ w
                assert got[j] == int((exact > exact[subset].max()).sum()) + 1

    def test_cancellation_heavy_scores_stay_exact(self):
        # Float32 counting noise scales with ||w||*||x||, not with the
        # resulting score: near-opposite columns at large magnitude make
        # scores tiny relative to the rounding error, and every such row
        # must fall into the contested band and be recounted exactly.
        rng = np.random.default_rng(16)
        values = np.column_stack(
            [10000.0 + rng.random(400) * 0.002, np.full(400, 10000.0)]
        )
        weights = np.array([[1.0, -1.0], [0.5, -0.5], [1.0, -0.999]])
        subset = [int(np.argsort(values[:, 0])[200])]
        from repro.ranking import rank_of

        engine = ScoreEngine(values)
        got = engine.rank_of_best_batch(weights, subset)
        for j, w in enumerate(weights):
            assert got[j] == min(rank_of(values, w, i) for i in subset)
        assert engine.stats["verified_columns"] > 0  # band fallback fired

    def test_pruning_actually_prunes(self):
        # A heavy-tailed norm profile lets the orderings cut the scanned
        # prefix far below n x m.
        rng = np.random.default_rng(15)
        n, m = 4000, 300
        values = rng.random((n, 3)) * rng.random((n, 1)) ** 4
        top = np.argsort(-np.linalg.norm(values, axis=1))[:5]
        engine = ScoreEngine(values)
        weights = sample_functions(3, m, 15)
        engine.rank_of_best_batch(weights, top)
        assert engine.stats["rank_prefix_rows"] < 0.5 * n * m


class TestBackends:
    """Thread-vs-serial bit-identity; ``jobs`` alone picks the pool."""

    @pytest.mark.parametrize("jobs", [2], ids=["thread"])
    @pytest.mark.parametrize("case", range(len(_instances())))
    def test_topk_bit_identical_per_backend(self, jobs, case):
        values, weights = _instances()[case]
        serial = ScoreEngine(values)
        fanout = ScoreEngine(values, n_jobs=jobs, parallel_min_work=0)
        with fanout:
            k = max(1, values.shape[0] // 4)
            a = serial.topk_batch(weights, k)
            b = fanout.topk_batch(weights, k)
            assert np.array_equal(a.order, b.order)
            assert np.array_equal(a.members, b.members)

    @pytest.mark.parametrize("jobs", [2], ids=["thread"])
    def test_rank_and_score_bit_identical_per_backend(self, jobs):
        values, weights = _instances()[2]
        serial = ScoreEngine(values, chunk_bytes=1)
        fanout = ScoreEngine(values, chunk_bytes=1, n_jobs=jobs, parallel_min_work=0)
        with fanout:
            subset = [0, values.shape[0] // 2, values.shape[0] - 1]
            assert np.array_equal(
                serial.rank_of_best_batch(weights, subset),
                fanout.rank_of_best_batch(weights, subset),
            )
            assert np.array_equal(
                serial.score_batch(weights), fanout.score_batch(weights)
            )

    def test_serial_backend_never_pools(self):
        # Fewer than 2·n_jobs functions cannot be split, so they run
        # serially even at a zero cutover, and build no pool.
        values = np.random.default_rng(21).random((60, 3))
        serial = ScoreEngine(values)
        few = sample_functions(3, 7, 21)
        with ScoreEngine(values, n_jobs=4, parallel_min_work=0) as engine:
            assert np.array_equal(
                engine.topk_batch(few, 5).order, serial.topk_batch(few, 5).order
            )
            assert np.array_equal(
                engine.rank_of_best_batch(few, [0, 59]),
                serial.rank_of_best_batch(few, [0, 59]),
            )
            assert engine._parallel is None
            assert engine.stats["parallel_calls"] == 0
            engine.topk_batch(sample_functions(3, 8, 21), 5)
            assert engine.stats["parallel_calls"] == 1

    def test_auto_starts_with_threads(self):
        from repro.engine import ThreadExecutor

        values = np.random.default_rng(22).random((60, 3))
        engine = ScoreEngine(values, n_jobs=2, parallel_min_work=0)
        with engine:
            engine.topk_batch(sample_functions(3, 40, 22), 5)
            assert isinstance(engine._parallel, ThreadExecutor)

    def test_auto_stays_on_threads_when_gil_bound(self):
        from repro.engine import ThreadExecutor

        values = np.random.default_rng(23).random((60, 3))
        weights = sample_functions(3, 40, 23)
        serial = ScoreEngine(values)
        with ScoreEngine(values, n_jobs=2, parallel_min_work=0) as engine:
            # A scalar-fallback-heavy history does not move the engine
            # off the thread pool.
            engine.stats["gemm_columns"] = 100_000
            engine.stats["verified_columns"] = 50_000
            got = engine.topk_batch(weights, 5)
            assert isinstance(engine._parallel, ThreadExecutor)
        assert np.array_equal(got.order, serial.topk_batch(weights, 5).order)

    def test_invalid_backend_rejected(self):
        # ``jobs`` alone picks serial or threads: no backend keyword, and
        # no supervision policy for the fan-out either.
        for backend in ("thread", "process"):
            with pytest.raises(TypeError, match="backend"):
                ScoreEngine(np.ones((3, 2)), backend=backend)
            with pytest.raises(TypeError, match="backend"):
                Session(np.ones((3, 2)), backend=backend)
        with pytest.raises(TypeError, match="resilience"):
            ScoreEngine(np.ones((3, 2)), resilience=None)
        with pytest.raises(TypeError, match="policy"):
            Session(np.ones((3, 2)), policy=None)

    def test_thread_clone_shares_heavy_state(self):
        values = np.random.default_rng(24).random((200, 3))
        engine = ScoreEngine(values)
        engine.topk_batch(sample_functions(3, 30, 24), 9)
        engine._ensure_orderings()
        clone = engine._thread_clone()
        assert clone.values is engine.values
        assert clone._orderings is engine._orderings
        assert clone._quantizer is engine._quantizer
        assert clone.stats is not engine.stats
        assert clone._memo is not engine._memo
        assert clone.n_jobs == 1
        w = sample_functions(3, 6, 25)
        assert np.array_equal(
            clone.topk_order_batch(w, 9), engine.topk_order_batch(w, 9)
        )

    def test_thread_worker_stats_fold_back_into_parent(self):
        # The stats read the parent's counters, so fanned-out work must
        # land there, not die with the clones.
        values = np.random.default_rng(26).random((80, 3))
        engine = ScoreEngine(values, n_jobs=2, parallel_min_work=0)
        with engine:
            engine.topk_batch(sample_functions(3, 60, 26), 6)
            assert engine.stats["gemm_columns"] >= 60
