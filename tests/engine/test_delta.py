"""Property and unit tests for the incremental row-update layer.

The load-bearing property: after ANY sequence of ``insert_rows`` /
``delete_rows`` calls (interleaved with queries or not), a long-lived
engine answers every query **bit-identically** to a fresh engine built
on the mutated matrix — on clean data, tie-dense data, duplicate rows,
denormal scales, and inserts that escape the quantized tier's
per-attribute envelope.  Alongside: unit coverage for the journal
semantics (current-view delete indices, lazy compaction, id
assignment), the explicit cache invalidation (memo, grid gathers, noise
scale, pools), and validation errors.
"""

import copy
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine import ScoreEngine, TuningProfile, delta
from repro.engine.delta import MergePlan
from repro.engine.score_engine import robust_row_norms
from repro.exceptions import ValidationError
from repro.ranking import sample_functions
from repro.ranking.topk import rank_of, top_k


def _reference_apply(matrix, ops):
    """Replay a mutation sequence on a plain matrix."""
    for kind, payload in ops:
        if kind == "insert":
            matrix = np.vstack([matrix, payload])
        else:
            matrix = np.delete(matrix, payload, axis=0)
    return matrix


def _assert_engine_matches_fresh(engine, matrix, weights, k, subset, **kwargs):
    fresh = ScoreEngine(matrix, **kwargs)
    got = engine.topk_batch(weights, k)
    want = fresh.topk_batch(weights, k)
    assert np.array_equal(got.order, want.order), "top-k order diverged after mutation"
    assert np.array_equal(got.members, want.members), "bitsets diverged after mutation"
    assert np.array_equal(
        engine.rank_of_best_batch(weights, subset),
        fresh.rank_of_best_batch(weights, subset),
    ), "rank counting diverged after mutation"
    assert np.array_equal(engine.score_batch(weights), fresh.score_batch(weights))
    assert np.array_equal(engine.values, matrix)
    # Against the scalar contract directly, not just the fresh engine.
    for i, w in enumerate(weights[:4]):
        assert np.array_equal(got.order[i], top_k(matrix, w, k))


# ----------------------------------------------------------------------
# hypothesis: random mutation sequences stay bit-identical to a rebuild
@st.composite
def mutation_case(draw):
    n0 = draw(st.integers(min_value=4, max_value=28))
    d = draw(st.integers(min_value=2, max_value=4))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e150]))
    # Small integer grids force ties and duplicates through every tier.
    base = draw(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=d, max_size=d),
            min_size=n0,
            max_size=n0,
        )
    )
    matrix = np.asarray(base, dtype=np.float64) * scale
    n_ops = draw(st.integers(min_value=1, max_value=4))
    ops = []
    n = n0
    for _ in range(n_ops):
        if n <= 2 or draw(st.booleans()):
            m = draw(st.integers(min_value=1, max_value=6))
            rows = draw(
                st.lists(
                    st.lists(
                        st.integers(min_value=-3, max_value=3), min_size=d, max_size=d
                    ),
                    min_size=m,
                    max_size=m,
                )
            )
            ops.append(("insert", np.asarray(rows, dtype=np.float64) * scale))
            n += m
        else:
            count = draw(st.integers(min_value=1, max_value=min(4, n - 2)))
            idx = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
            ops.append(("delete", sorted(idx)))
            n -= len(idx)
    query_between = draw(st.booleans())
    k = draw(st.integers(min_value=1, max_value=3))
    return matrix, ops, query_between, k


# The ``cutover`` and ``copy_paths`` fixtures span all examples on purpose.
_CUTOVER_OK = [HealthCheck.function_scoped_fixture]


@settings(max_examples=60, deadline=None, suppress_health_check=_CUTOVER_OK)
@given(case=mutation_case(), quantize=st.sampled_from([None, "auto"]))
def test_mutation_sequence_bit_identical(copy_paths, case, quantize):
    matrix, ops, query_between, k = case
    weights = sample_functions(matrix.shape[1], 12, 3)
    for _ in copy_paths():
        engine = ScoreEngine(matrix, quantize=quantize)
        reference = matrix
        for op in ops:
            kind, payload = op
            if kind == "insert":
                engine.insert_rows(payload)
            else:
                engine.delete_rows(payload)
            reference = _reference_apply(reference, [op])
            if query_between:
                k_eff = min(k, reference.shape[0])
                assert np.array_equal(
                    engine.topk_batch(weights, k_eff).order,
                    ScoreEngine(reference, quantize=quantize).topk_batch(weights, k_eff).order,
                )
        k_eff = min(k, reference.shape[0])
        subset = [0, reference.shape[0] - 1]
        _assert_engine_matches_fresh(
            engine, reference, weights, k_eff, subset, quantize=quantize
        )


@settings(max_examples=25, deadline=None, suppress_health_check=_CUTOVER_OK)
@given(case=mutation_case())
def test_mutation_sequence_float32_engine(copy_paths, case):
    matrix, ops, _, k = case
    weights = sample_functions(matrix.shape[1], 8, 11)
    for _ in copy_paths():
        engine = ScoreEngine(matrix)
        engine.rank_of_best_batch(weights, [0])  # build the rank count's V32 state
        reference = matrix
        for op in ops:
            kind, payload = op
            if kind == "insert":
                engine.insert_rows(payload)
            else:
                engine.delete_rows(payload)
            reference = _reference_apply(reference, [op])
        k_eff = min(k, reference.shape[0])
        _assert_engine_matches_fresh(engine, reference, weights, k_eff, [0])


# ----------------------------------------------------------------------
# MergePlan: run slices and the bulk take both equal np.insert
@st.composite
def merge_plan_case(draw):
    keep = np.asarray(draw(st.lists(st.booleans(), max_size=60)), dtype=bool)
    kept = int(keep.sum())
    # Sorted insertion points with ties, at 0 and at ``kept``, or none.
    pos = np.asarray(
        sorted(draw(st.lists(st.integers(min_value=0, max_value=kept), max_size=8))),
        dtype=np.int64,
    )
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int8, np.int16, np.int64]))
    tail = draw(st.sampled_from([(), (3,)]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    old = rng.integers(-100, 100, (keep.size, *tail)).astype(dtype)
    new = rng.integers(-100, 100, (pos.size, *tail)).astype(dtype)
    return keep, pos, old, new


@settings(max_examples=300, deadline=None, suppress_health_check=_CUTOVER_OK)
@given(case=merge_plan_case())
def test_merge_plan_matches_np_insert(cutover, case):
    keep, pos, old, new = case
    plan = MergePlan(keep.size, np.flatnonzero(~keep), pos, new)
    assert (plan.runs is None) == (cutover > 0 and bool(keep.any()))
    got = plan.apply(old, new)
    want = np.insert(old[np.flatnonzero(keep)], pos, new, axis=0)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestMergePlanPath:
    n = 20_000
    no_drop = np.empty(0, dtype=np.int64)
    no_pos = np.empty(0, dtype=np.int64)

    def test_small_writes_copy_survivor_runs(self, rng):
        drop = np.sort(rng.choice(self.n, 20, replace=False))
        deleted = MergePlan(self.n, drop, self.no_pos, np.empty((0, 4)))
        assert deleted.runs is not None and deleted.take_idx is None
        pos = np.sort(rng.integers(0, self.n + 1, 20))
        inserted = MergePlan(self.n, self.no_drop, pos, np.zeros((20, 4)))
        assert inserted.runs is not None and inserted.take_idx is None

    def test_bulk_plans_scatter(self):
        # Distinct interior insertion points: cuts + 1 survivor runs.
        limit = self.n // delta._RUN_ROWS
        for cuts, bulk in ((limit - 1, False), (limit + 1, True)):
            pos = np.linspace(1, self.n - 1, cuts).astype(np.int64)
            assert np.unique(pos).size == cuts
            plan = MergePlan(self.n, self.no_drop, pos, np.zeros((cuts, 4)))
            assert (plan.runs is None) == bulk
            assert (plan.take_idx is not None) == bulk


# ----------------------------------------------------------------------
# targeted equivalence cases
class TestMutationEquivalence:
    def test_insert_then_query_matches_rebuild(self, rng):
        matrix = rng.random((300, 4))
        weights = sample_functions(4, 50, 0)
        engine = ScoreEngine(matrix)
        engine.topk_batch(weights, 9)  # warm orderings + memo
        extra = rng.random((40, 4))
        ids = engine.insert_rows(extra)
        assert np.array_equal(ids, np.arange(300, 340))
        reference = np.vstack([matrix, extra])
        _assert_engine_matches_fresh(engine, reference, weights, 9, [1, 5, 333])

    def test_delete_uses_current_view_indices(self, rng):
        matrix = rng.random((50, 3))
        engine = ScoreEngine(matrix)
        engine.delete_rows([0, 1])  # rows 0/1 gone; old row 2 is now row 0
        engine.delete_rows([0])  # deletes what was originally row 2
        reference = np.delete(matrix, [0, 1, 2], axis=0)
        engine.compact()  # .values reflects the journal only once settled
        assert np.array_equal(engine.values, reference)
        assert engine.n == 47

    def test_mixed_sequence_with_attribute_orderings(self, rng):
        matrix = rng.random((200, 3))
        engine = ScoreEngine(matrix)
        engine._ensure_orderings()
        engine._build_attribute_orderings()
        weights = sample_functions(3, 40, 2)
        engine.topk_batch(weights, 5)
        extra = rng.random((25, 3))
        engine.insert_rows(extra)
        doomed = rng.choice(225, size=30, replace=False)
        engine.delete_rows(doomed)
        reference = np.delete(np.vstack([matrix, extra]), doomed, axis=0)
        engine.compact()
        assert np.array_equal(engine.values, reference)
        fresh = ScoreEngine(reference)
        fresh._ensure_orderings()
        fresh._build_attribute_orderings()
        got = engine.topk_batch(weights, 5)
        want = fresh.topk_batch(weights, 5)
        assert np.array_equal(got.order, want.order)
        # Internal identity too: the stable merge reproduces the stable
        # argsort bit-for-bit (perm, u, v and the permuted matrix); the
        # norm ordering keeps no ``v`` at all.
        assert engine._orderings[0].v is None
        for o_got, o_want in zip(engine._orderings, fresh._orderings):
            assert np.array_equal(o_got.perm, o_want.perm)
            assert np.array_equal(o_got.u, o_want.u)
            if o_want.v is None:
                assert o_got.v is None
            else:
                assert np.array_equal(o_got.v, o_want.v)
            assert np.array_equal(o_got.V, o_want.V)

    def test_duplicate_and_tie_rows_survive_mutation(self):
        matrix = np.repeat(np.arange(12, dtype=np.float64).reshape(6, 2), 3, axis=0)
        weights = sample_functions(2, 20, 5)
        engine = ScoreEngine(matrix)
        engine.topk_batch(weights, 4)
        engine.insert_rows(matrix[:5])  # more duplicates of existing rows
        engine.delete_rows([0, 7, 17])
        reference = np.delete(np.vstack([matrix, matrix[:5]]), [0, 7, 17], axis=0)
        _assert_engine_matches_fresh(engine, reference, weights, 4, [2, 3])

    def test_denormal_scale_mutation(self):
        matrix = np.array(
            [[3e-310, 1e-310], [2e-310, 2e-310], [1e-310, 3e-310], [2.5e-310, 0.0]]
        )
        weights = sample_functions(2, 16, 7)
        engine = ScoreEngine(matrix)
        engine.topk_batch(weights, 2)
        engine.insert_rows(np.array([[2e-310, 2e-310], [4e-310, 1e-311]]))
        engine.delete_rows([1])
        reference = np.delete(
            np.vstack([matrix, [[2e-310, 2e-310], [4e-310, 1e-311]]]), [1], axis=0
        )
        _assert_engine_matches_fresh(engine, reference, weights, 2, [0, 1])

    def test_quantized_envelope_escape_rescales(self, rng):
        matrix = rng.random((400, 4))
        weights = sample_functions(4, 64, 0)
        engine = ScoreEngine(matrix)
        engine.topk_orders(weights, 5)  # builds int16 stores
        level_before = engine._quantizer._state
        big = rng.random((10, 4)) * 100.0  # far outside the [0,1) envelope
        engine.insert_rows(big)
        reference = np.vstack([matrix, big])
        got = engine.topk_orders(weights, 5)
        level_after = engine._quantizer._state
        assert level_after is not None and level_after is not level_before
        assert np.allclose(
            level_after.scales * level_after.qmax, np.abs(reference).max(axis=0)
        )
        fresh = ScoreEngine(reference)
        assert np.array_equal(got, fresh.topk_orders(weights, 5))
        for j in range(8):
            assert np.array_equal(got[j], top_k(reference, weights[j], 5))

    def test_in_envelope_insert_keeps_level_and_stores(self, rng):
        matrix = rng.random((400, 4))
        weights = sample_functions(4, 64, 0)
        engine = ScoreEngine(matrix)
        engine.topk_orders(weights, 5)
        level_before = engine._quantizer._state
        engine.insert_rows(rng.random((10, 4)) * 0.5)  # safely inside
        engine.delete_rows([0, 100])
        engine.compact()
        assert engine._quantizer._state is level_before, "level needlessly rebuilt"
        reference = np.delete(np.vstack([matrix, engine.values[-10:]]), [0, 100], axis=0)
        fresh = ScoreEngine(reference)
        assert np.array_equal(engine.topk_orders(weights, 5), fresh.topk_orders(weights, 5))
        assert np.array_equal(
            engine.rank_of_best_batch(weights, [3, 7]),
            fresh.rank_of_best_batch(weights, [3, 7]),
        )


# ----------------------------------------------------------------------
# journal mechanics, invalidation and validation
class TestJournalSemantics:
    def test_mutations_are_lazy_until_query(self, rng):
        matrix = rng.random((60, 3))
        engine = ScoreEngine(matrix)
        engine.insert_rows(rng.random((5, 3)))
        engine.delete_rows([2])
        assert engine._dirty_rows and engine.stats["compactions"] == 0
        assert engine.n == 64  # logical size updates eagerly
        engine.top_k(np.ones(3), 3)
        assert not engine._dirty_rows and engine.stats["compactions"] == 1

    def test_insert_then_delete_of_same_rows_is_noop(self, rng):
        matrix = rng.random((40, 3))
        engine = ScoreEngine(matrix)
        before = engine.values
        ids = engine.insert_rows(rng.random((4, 3)))
        engine.delete_rows(ids)
        engine.compact()
        assert engine.values is before  # untouched: journal cancelled out
        assert engine.n == 40

    def test_cancelled_journal_emits_no_delta_event(self, rng):
        # A journal that cancels out entirely must be invisible to delta
        # subscribers — no spurious delete + insert pair, no revision bump.
        matrix = rng.random((40, 3))
        engine = ScoreEngine(matrix)
        events = []
        engine.subscribe_delta(events.append)
        revision = engine.revision
        ids = engine.insert_rows(rng.random((3, 3)))
        engine.delete_rows(ids)
        engine.compact()
        assert events == []
        assert engine.revision == revision
        assert engine.stats["cancelled_inserts"] == 3

    def test_partial_cancellation_renumbers_surviving_pending(self, rng):
        # Deleting SOME pending inserts cancels exactly those; survivors
        # keep their data and land contiguously at the tail, and the
        # event shows only the net effect.
        matrix = rng.random((30, 3))
        engine = ScoreEngine(matrix)
        events = []
        engine.subscribe_delta(events.append)
        new = rng.random((5, 3))
        ids = engine.insert_rows(new)
        engine.delete_rows([ids[1], ids[3]])
        engine.compact()
        assert len(events) == 1
        event = events[0]
        assert event.deleted_ids.size == 0  # no committed row was touched
        assert np.array_equal(event.inserted_rows, new[[0, 2, 4]])
        assert event.old_n == 30 and event.new_n == 33
        assert np.array_equal(engine.values[30:], new[[0, 2, 4]])
        assert engine.stats["cancelled_inserts"] == 2
        fresh = ScoreEngine(np.vstack([matrix, new[[0, 2, 4]]]))
        w = rng.random(3)
        assert np.array_equal(engine.top_k(w, 6), fresh.top_k(w, 6))

    def test_cancellation_mixed_with_committed_delete(self, rng):
        # One journal holding a committed delete AND a pending-insert
        # cancellation: the event carries only the committed delete and
        # the surviving insert, with a consistent idmap.
        matrix = rng.random((25, 3))
        engine = ScoreEngine(matrix)
        events = []
        engine.subscribe_delta(events.append)
        new = rng.random((2, 3))
        ids = engine.insert_rows(new)
        engine.delete_rows([4, ids[0]])
        engine.compact()
        assert len(events) == 1
        event = events[0]
        assert np.array_equal(event.deleted_ids, [4])
        assert np.array_equal(event.deleted_rows, matrix[[4]])
        assert np.array_equal(event.inserted_rows, new[[1]])
        assert event.old_n == 25 and event.new_n == 25
        survivors = np.setdiff1d(np.arange(25), [4])
        assert np.array_equal(event.idmap[survivors], np.arange(24))
        assert np.array_equal(
            engine.values, np.vstack([np.delete(matrix, [4], axis=0), new[[1]]])
        )

    def test_memo_invalidation_is_explicit(self, rng):
        matrix = rng.random((80, 3))
        engine = ScoreEngine(matrix)
        w = rng.random(3)
        first = engine.top_k(w, 5).copy()
        assert engine.stats["memo_misses"] == 1
        engine.delete_rows([int(first[0])])
        second = engine.top_k(w, 5)
        assert engine.stats["memo_misses"] == 2  # stale entry was dropped
        fresh = ScoreEngine(np.delete(matrix, [int(first[0])], axis=0))
        assert np.array_equal(second, fresh.top_k(w, 5))
        assert not np.array_equal(first, second)

    def test_grid_cache_and_noise_scale_invalidated(self, rng):
        matrix = rng.random((150, 3))
        engine = ScoreEngine(matrix)
        engine._ensure_orderings()
        engine._build_attribute_orderings()
        weights = sample_functions(3, 32, 1)
        engine.rank_of_best_batch(weights, [1, 2])
        engine._max_abs()
        assert engine._grid_cache and engine._max_row_norm is not None
        assert engine._max_abs_value is not None
        engine.insert_rows(rng.random((3, 3)) * 10.0)
        engine.compact()
        # The max row norm is read back from the merged norm ordering; the
        # x10 inserts raise it, so a stale value would fail here.
        assert not engine._grid_cache
        assert engine._max_row_norm == float(robust_row_norms(engine.values).max())
        assert engine._max_abs_value is None
        reference = engine.values.copy()
        assert np.array_equal(
            engine.rank_of_best_batch(weights, [1, 2]),
            ScoreEngine(reference).rank_of_best_batch(weights, [1, 2]),
        )

    def test_mutation_closes_worker_pools(self, rng):
        matrix = rng.random((64, 3))
        engine = ScoreEngine(matrix, n_jobs=2, parallel_min_work=0)
        weights = sample_functions(3, 40, 0)
        engine.topk_batch(weights, 5)
        assert engine._parallel is not None
        engine.insert_rows(rng.random((4, 3)))
        got = engine.topk_batch(weights, 5)  # compacts, rebuilds the pool
        reference = engine.values.copy()
        assert np.array_equal(got.order, ScoreEngine(reference).topk_batch(weights, 5).order)
        engine.close()

    def test_rank_of_agrees_with_scalar_after_mutation(self, rng):
        matrix = rng.random((100, 3))
        engine = ScoreEngine(matrix)
        engine.insert_rows(matrix[:7])  # duplicates
        engine.delete_rows([0, 50])
        reference = np.delete(np.vstack([matrix, matrix[:7]]), [0, 50], axis=0)
        weights = sample_functions(3, 16, 9)
        subset = [2, 30]
        got = engine.rank_of_best_batch(weights, subset)
        for j, w in enumerate(weights):
            best_member = max(subset, key=lambda i: reference[i] @ w)
            assert got[j] <= rank_of(reference, w, best_member)
            best = (reference[subset] @ w).max()
            assert got[j] == int((reference @ w > best).sum()) + 1

    def test_validation_errors(self, rng):
        engine = ScoreEngine(rng.random((10, 3)))
        with pytest.raises(ValidationError):
            engine.insert_rows(rng.random((2, 4)))  # wrong width
        with pytest.raises(ValidationError):
            engine.insert_rows(np.array([[np.nan, 0.0, 1.0]]))
        with pytest.raises(ValidationError):
            engine.delete_rows([10])
        with pytest.raises(ValidationError):
            engine.delete_rows(np.arange(10))  # cannot empty the engine
        assert engine.insert_rows(np.empty((0, 3))).size == 0
        assert engine.delete_rows([]) == 0
        assert not engine._dirty_rows

    def test_delete_accepts_boolean_mask(self, rng):
        matrix = rng.random((12, 3))
        engine = ScoreEngine(matrix)
        mask = np.zeros(12, dtype=bool)
        mask[[7, 8, 9]] = True
        assert engine.delete_rows(mask) == 3
        engine.compact()
        assert np.array_equal(engine.values, np.delete(matrix, mask, axis=0))
        with pytest.raises(ValidationError):
            engine.delete_rows(np.array([True, False]))  # wrong-length mask
        with pytest.raises(ValidationError):
            engine.delete_rows(np.array([1.5, 2.0]))  # float indices

    def test_single_row_insert_accepts_1d(self, rng):
        matrix = rng.random((10, 3))
        engine = ScoreEngine(matrix)
        ids = engine.insert_rows(np.array([0.5, 0.25, 0.125]))
        assert list(ids) == [10]
        engine.compact()
        assert engine.values.shape == (11, 3)

    def test_pending_bound_compacts_without_query(self, rng, monkeypatch):
        monkeypatch.setattr(delta, "_MAX_PENDING_ROWS", 8)
        matrix = rng.random((30, 3))
        engine = ScoreEngine(matrix)
        first, second = rng.random((5, 3)), rng.random((3, 3))
        engine.insert_rows(first)
        engine.insert_rows(second)  # 8 pending: at the bound, not over
        assert engine._dirty_rows and engine.stats["compactions"] == 0
        third = rng.random((1, 3))
        engine.insert_rows(third)
        assert not engine._dirty_rows and engine.stats["compactions"] == 1
        assert np.array_equal(engine.values, np.vstack([matrix, first, second, third]))

    def test_cancelled_inserts_do_not_count_toward_bound(self, rng, monkeypatch):
        monkeypatch.setattr(delta, "_MAX_PENDING_ROWS", 8)
        matrix = rng.random((30, 3))
        engine = ScoreEngine(matrix)
        first = rng.random((6, 3))
        ids = engine.insert_rows(first)
        engine.delete_rows(ids[1:5])  # cancels four: two stay pending
        second = rng.random((6, 3))
        engine.insert_rows(second)  # 8 pending
        assert engine._dirty_rows and engine.stats["compactions"] == 0
        third = rng.random((1, 3))
        engine.insert_rows(third)
        assert not engine._dirty_rows and engine.stats["compactions"] == 1
        assert np.array_equal(
            engine.values, np.vstack([matrix, first[[0, 5]], second, third])
        )

    def test_stats_counters(self, rng):
        engine = ScoreEngine(rng.random((20, 3)))
        engine.insert_rows(rng.random((4, 3)))
        engine.delete_rows([1, 2])
        engine.compact()
        assert engine.stats["row_inserts"] == 4
        assert engine.stats["row_deletes"] == 2
        assert engine.stats["compactions"] == 1


# ----------------------------------------------------------------------
# deferred ordering sync: writes fold into one keep mask, the next ladder
# read merges every ordering and its quantized store once
_ORDERING_ARRAYS = ("perm", "u", "v", "rest", "V", "V32")


def _warm(engine):
    """Every derived structure a write could leave stale: all orderings,
    their float32 copies (where the data fit float32) and, with a
    quantizer, their stores."""
    if not engine._attr_orderings_built:
        engine._build_attribute_orderings()
    fits = np.abs(engine.values).max() < np.finfo(np.float32).max
    state = engine._quantizer.state if engine._quantizer is not None else None
    for o, ordering in enumerate(engine._orderings):
        if fits:
            engine._ordering_v32(ordering)
        if state is not None:
            state.store(o, ordering.V)


def _fresh_store(level, matrix):
    """``matrix`` quantized from scratch at ``level``'s scales."""
    probe = copy.copy(level)
    probe._stores, probe._lock = {}, threading.Lock()
    return probe.store(0, matrix)


def _assert_orderings_match_fresh(engine, matrix):
    assert engine._max_norm() == float(robust_row_norms(matrix).max())
    assert engine._ordering_edit is None and engine._orderings is not None
    fresh = ScoreEngine(matrix)
    fresh._build_attribute_orderings()
    assert len(engine._orderings) == len(fresh._orderings)
    for got, want in zip(engine._orderings, fresh._orderings):
        for name in _ORDERING_ARRAYS[:-1]:
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), name
            assert a is None or (a.dtype == b.dtype and a.tobytes() == b.tobytes()), name
        if got.V32 is not None:
            assert got.V32.tobytes() == want.V.astype(np.float32).tobytes()
    level = engine._quantizer._state if engine._quantizer is not None else None
    for o, store in (level._stores.items() if level is not None else ()):
        want = _fresh_store(level, fresh._orderings[o].V)
        assert (store is None) == (want is None)
        if store is not None:
            assert store.Q.tobytes() == want.Q.tobytes()


@st.composite
def deferred_sync_case(draw):
    n0 = draw(st.integers(min_value=8, max_value=32))
    d = draw(st.integers(min_value=2, max_value=4))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e150, 1e-310]))
    grid = st.lists(st.integers(min_value=-3, max_value=3), min_size=d, max_size=d)
    matrix = np.asarray(draw(st.lists(grid, min_size=n0, max_size=n0)), np.float64) * scale
    n, held, events = n0, n0, []  # ``held``: rows the orderings still hold
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        ops = []
        if n > 4 and draw(st.booleans()):
            # Rows inserted since the last read sit at ids [held, n).
            recent = held < n and draw(st.booleans())
            pool = range(held, n) if recent else range(n)
            count = draw(st.integers(min_value=1, max_value=min(3, len(pool), n - 3)))
            idx = sorted(draw(st.lists(st.sampled_from(pool), min_size=count,
                                       max_size=count, unique=True)))
            ops.append(("delete", idx))
            held -= sum(i < held for i in idx)
            n -= count
        if not ops or draw(st.booleans()):
            m = draw(st.integers(min_value=1, max_value=5))
            # x8 lifts rows past the quantized envelope: the level is replaced.
            grow = draw(st.sampled_from([1.0, 1.0, 8.0]))
            rows = np.asarray(draw(st.lists(grid, min_size=m, max_size=m)), np.float64)
            ops.append(("insert", rows * scale * grow))
            n += m
        read = draw(st.booleans())
        events.append((ops, read))
        if read:
            held = n
    return matrix, events, draw(st.integers(min_value=1, max_value=3))


@settings(max_examples=60, deadline=None, suppress_health_check=_CUTOVER_OK)
@given(
    case=deferred_sync_case(),
    quantize=st.sampled_from([None, "auto"]),
)
# Every read of this case is answered by the scalar kernel (4k >= n with
# few promoted top-k functions; every rank function past the float32
# range guard), so no read reaches the ladder and the merge stays pending.
@example(
    case=(
        np.vstack([np.zeros((7, 2)), [[0.0, 1e150]]]),
        [([("insert", np.zeros((1, 2)))], False)],
        3,
    ),
    quantize="auto",
)
def test_deferred_sync_matches_fresh(copy_paths, case, quantize):
    matrix, events, k = case
    weights = sample_functions(matrix.shape[1], 6, 4)
    kwargs = {"quantize": quantize}
    for _ in copy_paths():
        engine = ScoreEngine(matrix, **kwargs)
        _warm(engine)
        reference = matrix
        for ops, read in events + [([], True)]:
            for op in ops:
                kind, payload = op
                if kind == "insert":
                    engine.insert_rows(payload)
                else:
                    engine.delete_rows(payload)
                reference = _reference_apply(reference, [op])
            engine.compact()
            if not read:
                continue
            k_eff, subset = min(k, reference.shape[0]), [0, reference.shape[0] - 1]
            fresh = ScoreEngine(reference, **kwargs)
            got = engine.topk_orders(weights, k_eff)
            assert np.array_equal(got, fresh.topk_orders(weights, k_eff))
            for i, w in enumerate(weights[:3]):
                assert np.array_equal(got[i], top_k(reference, w, k_eff))
            assert np.array_equal(
                engine.rank_of_best_batch(weights, subset),
                fresh.rank_of_best_batch(weights, subset),
            )
            # A read the scalar kernel answered whole leaves the merge to
            # the next ladder read; take it now to check what it builds.
            engine._ensure_orderings()
            _assert_orderings_match_fresh(engine, reference)


class TestDeferredSync:
    @pytest.fixture
    def warmed(self, rng):
        engine = ScoreEngine(rng.random((500, 4)))
        _warm(engine)
        return engine

    def test_compact_touches_no_ordering_or_store(self, warmed, rng):
        engine = warmed
        orderings = engine._orderings
        level = engine._quantizer._state
        arrays = [getattr(o, name) for o in orderings for name in _ORDERING_ARRAYS]
        snapshot = [None if a is None else a.copy() for a in arrays]
        stores = [s.Q for s in level._stores.values()]
        syncs = engine.stats["ordering_syncs"]
        for step in range(3):
            engine.insert_rows(rng.random((7, 4)) * 0.5)
            engine.delete_rows([step, 100 + step, engine.n - 1])
            engine.compact()
        assert engine._orderings is None and engine._ordering_edit[0] is orderings
        assert engine.stats["ordering_syncs"] == syncs
        assert engine.stats["compactions"] == 3
        after = [getattr(o, name) for o in orderings for name in _ORDERING_ARRAYS]
        assert all(a is b for a, b in zip(after, arrays))
        for a, saved in zip(after, snapshot):
            assert a is None or a.tobytes() == saved.tobytes()
        assert engine._quantizer._state is level
        assert [s.Q for s in level._stores.values()] == stores
        # One ladder read merges all three writes at once.
        engine.topk_orders(rng.random((3, 4)), 5)
        assert engine.stats["ordering_syncs"] == syncs + 1
        _assert_orderings_match_fresh(engine, engine.values.copy())

    def test_max_norm_follows_writes_without_a_pass(self, rng):
        matrix = rng.random((200, 3))
        engine = ScoreEngine(matrix)
        norms = robust_row_norms(matrix)
        top = int(np.argmax(norms))
        engine._max_norm()
        engine.delete_rows([top])  # held the max: recomputed at next use
        engine.compact()
        assert engine._max_row_norm is None
        assert engine._max_norm() == float(np.delete(norms, top).max())
        engine.insert_rows(rng.random((4, 3)) * 0.1)  # below the max: carried
        engine.delete_rows([int(np.argmin(robust_row_norms(engine.values)))])
        engine.compact()
        assert engine._max_row_norm == float(robust_row_norms(engine.values).max())
        engine.insert_rows(rng.random((2, 3)) + 5.0)  # above it
        engine.compact()
        assert engine._max_row_norm == float(robust_row_norms(engine.values).max())

    def test_build_attribute_orderings_syncs_first(self, rng):
        matrix = rng.random((300, 3))
        engine = ScoreEngine(matrix)
        engine.topk_orders(sample_functions(3, 8, 1), 5)  # norm ordering only
        assert not engine._attr_orderings_built
        engine.insert_rows(rng.random((9, 3)))
        engine.delete_rows([4, 250, 301])
        engine.compact()
        assert engine._ordering_edit is not None
        engine._build_attribute_orderings()
        assert engine.stats["ordering_syncs"] == 1
        _assert_orderings_match_fresh(engine, engine.values.copy())

    def test_thread_fan_out_after_unsynced_writes(self, rng):
        matrix = rng.random((400, 4))
        weights = sample_functions(4, 48, 3)
        threaded = ScoreEngine(matrix, n_jobs=2, parallel_min_work=0)
        serial = ScoreEngine(matrix)
        for engine in (threaded, serial):
            engine.topk_batch(weights, 7)
            _warm(engine)
        for step in range(4):
            rows, doomed = rng.random((6, 4)), [step, 200 + step]
            for engine in (threaded, serial):
                engine.delete_rows(doomed)
                engine.insert_rows(rows)
                engine.compact()
        assert threaded._ordering_edit is not None
        try:
            got = threaded.topk_batch(weights, 7)
            assert threaded.stats["parallel_calls"] >= 1
            want = serial.topk_batch(weights, 7)
            assert np.array_equal(got.order, want.order)
            assert np.array_equal(got.members, want.members)
            subset = [1, 50, 300]
            assert np.array_equal(
                threaded.rank_of_best_batch(weights, subset),
                serial.rank_of_best_batch(weights, subset),
            )
        finally:
            threaded.close()
        _assert_orderings_match_fresh(threaded, threaded.values.copy())


class TestShippedCutover:
    @pytest.fixture(autouse=True)
    def ladder_only(self):
        """Overrides the suite's ladder pin: these tests check the route."""

    def test_one_function_reads_never_sync(self, rng):
        matrix = rng.random((20_000, 4))
        engine = ScoreEngine(matrix, tune=TuningProfile())
        engine.topk_orders(rng.random((64, 4)), 15)  # a ladder read builds them
        members = [3, 999, 15_000]
        for step in range(20):
            engine.delete_rows(np.sort(rng.choice(engine.n, 20, replace=False)))
            engine.insert_rows(rng.random((20, 4)))
            engine.compact()
            w = rng.random((1, 4))
            assert np.array_equal(engine.topk_orders(w, 15)[0], top_k(engine.values, w[0], 15))
            best = (engine.values[members] @ w[0]).max()
            assert engine.rank_of_best_batch(w, members)[0] == int(
                (engine.values @ w[0] > best).sum()
            ) + 1
        assert engine.stats["ordering_syncs"] == 0
        assert engine.stats["scalar_columns"] == 40
        engine.topk_orders(rng.random((64, 4)), 15)
        assert engine.stats["ordering_syncs"] == 1
