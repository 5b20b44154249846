"""Bit-identity tests for the materialized-view layer (repro.engine.views).

The contract under test: after ANY committed mutation sequence, a
maintained view's ``refresh()`` returns exactly what a from-scratch
recompute over the mutated matrix would — field-for-field for MDRC
(``indices``, ``cells``, ``max_depth_reached``, ``capped_cells``),
draw-for-draw for K-SETr and MDRRR (same seed ⇒ same stream), and
count-for-count for the sampled rank-regret estimator.  On clean data,
tie-dense duplicates, denormal scales, envelope-escaping inserts,
oversized insert bursts, and deletions that hit the current
representative itself.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import mdrc
from repro.core.mdrrr import md_rrr
from repro.datasets import independent
from repro.engine import (
    KSetView,
    MDRCView,
    MDRRRView,
    RankRegretView,
    ScoreEngine,
)
from repro.evaluation.regret import rank_regret_sampled
from repro.exceptions import ValidationError
from repro.geometry.ksets import sample_ksets
from repro.ranking.functions import weights_from_angles_batch
from repro.ranking.sampling import sample_functions
from repro.ranking.topk import top_k


def _assert_mdrc_identical(view, engine):
    """view.refresh() must equal a from-scratch mdrc() on the current matrix."""
    res = view.refresh()
    fresh = mdrc(
        engine.values,
        view.k,
        max_depth=view.max_depth,
        max_cells=view.max_cells,
        choice=view.choice,
        engine=engine,
    )
    assert res.indices == fresh.indices
    assert res.cells == fresh.cells
    assert res.max_depth_reached == fresh.max_depth_reached
    assert res.capped_cells == fresh.capped_cells
    return res


# ----------------------------------------------------------------------
# hypothesis: random mutation sequences against the maintained MDRC view
@st.composite
def view_mutation_case(draw):
    d = draw(st.integers(min_value=2, max_value=3))
    n0 = draw(st.integers(min_value=14, max_value=28))
    # Denormal scale exercises the robust-norm path end to end; the small
    # integer grid forces exact ties and duplicate rows through every
    # screen and merge.
    scale = draw(st.sampled_from([1.0, 1e-300]))
    base = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=4), min_size=d, max_size=d),
            min_size=n0,
            max_size=n0,
        )
    )
    matrix = np.asarray(base, dtype=np.float64) * scale
    k = draw(st.integers(min_value=2, max_value=4))
    policy = draw(st.sampled_from(["first", "best-rank"]))
    ops = []
    n = n0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if n <= k + 5 or draw(st.booleans()):
            m = draw(st.integers(min_value=1, max_value=5))
            rows = draw(
                st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=4), min_size=d, max_size=d
                    ),
                    min_size=m,
                    max_size=m,
                )
            )
            # ×50 inserts escape the quantized tier's per-attribute
            # envelope, forcing the rescale path under the view.
            ins_scale = draw(st.sampled_from([1.0, 50.0]))
            ops.append(("insert", np.asarray(rows, dtype=np.float64) * scale * ins_scale))
            n += m
        else:
            count = draw(st.integers(min_value=1, max_value=min(4, n - k - 3)))
            idx = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
            ops.append(("delete", sorted(idx)))
            n -= count
    return matrix, ops, k, policy


# The ``copy_paths`` fixture spans all examples on purpose.
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=view_mutation_case())
def test_maintained_mdrc_bit_identical(copy_paths, case):
    matrix, ops, k, policy = case
    for _ in copy_paths():
        with ScoreEngine(matrix) as engine:
            with MDRCView(engine, k, choice=policy) as view:
                _assert_mdrc_identical(view, engine)
                for kind, payload in ops:
                    if kind == "insert":
                        engine.insert_rows(payload)
                    else:
                        engine.delete_rows(payload)
                    _assert_mdrc_identical(view, engine)


# ----------------------------------------------------------------------
# deterministic MDRC edge cases
class TestMDRCViewEdgeCases:
    def test_delete_of_current_representative(self, rng):
        values = rng.random((600, 3))
        with ScoreEngine(values) as engine, MDRCView(engine, 6) as view:
            res = view.refresh()
            for rev in range(4):
                doomed = rng.choice(engine.n, size=8, replace=False)
                if rev == 1:
                    reps = np.asarray(sorted(res.indices), dtype=np.int64)
                    doomed = np.unique(np.concatenate([doomed, reps[: len(reps) // 2]]))
                engine.delete_rows(doomed)
                engine.insert_rows(rng.random((8, 3)))
                res = _assert_mdrc_identical(view, engine)
            assert view.stats["maintains"] >= 1

    def test_shallow_depth_cap_fallback_cells(self, rng):
        values = rng.random((500, 3))
        with ScoreEngine(values) as engine, MDRCView(engine, 5, max_depth=3) as view:
            assert view.refresh().capped_cells > 0  # fallback path is live
            for _ in range(3):
                engine.delete_rows(rng.choice(engine.n, size=6, replace=False))
                engine.insert_rows(rng.random((6, 3)))
                _assert_mdrc_identical(view, engine)

    def test_tight_cell_budget(self, rng):
        values = rng.random((800, 3))
        with ScoreEngine(values) as engine, MDRCView(engine, 8, max_cells=20) as view:
            view.refresh()
            for _ in range(3):
                engine.delete_rows(rng.choice(engine.n, size=10, replace=False))
                engine.insert_rows(rng.random((10, 3)))
                _assert_mdrc_identical(view, engine)

    def test_over_budget_tree_bails_before_growing_deeper(self):
        # Integer grid at denormal scale: after this insert the repaired
        # tree keeps splitting, its cell count doubling every two levels.
        # The fresh run takes the budget path; the view must bail at the
        # first over-budget level, not grow toward max_depth.
        grid = [
            [3, 3, 2], [2, 1, 3], [3, 0, 2], [0, 4, 4], [3, 4, 3], [0, 3, 2],
            [1, 2, 2], [1, 2, 4], [3, 2, 2], [4, 3, 1], [4, 3, 0], [1, 0, 4],
            [4, 1, 1], [1, 0, 2], [4, 3, 2], [2, 1, 2], [0, 1, 2], [1, 0, 1],
            [2, 2, 4], [4, 2, 3], [1, 4, 2], [1, 0, 3],
        ]
        values = np.asarray(grid, dtype=np.float64) * 1e-300
        with ScoreEngine(values) as engine, MDRCView(engine, 3) as view:
            view.refresh()
            engine.delete_rows([11, 21])
            engine.insert_rows(np.array([[2.0, 1.0, 3.0], [4.0, 1.0, 2.0]]) * 1e-300)
            res = _assert_mdrc_identical(view, engine)
            assert res.capped_cells > 0
            assert view.stats["bails"] == 1

    def test_exact_duplicates_and_tie_rows(self, rng):
        values = rng.random((400, 3))
        values[50] = values[10]
        values[51] = values[10]
        with ScoreEngine(values) as engine, MDRCView(engine, 5) as view:
            view.refresh()
            dup = engine.values[20].copy()
            engine.delete_rows([10])
            engine.insert_rows(np.vstack([dup, dup]))
            _assert_mdrc_identical(view, engine)
            engine.insert_rows(engine.values[0].copy()[None, :])
            _assert_mdrc_identical(view, engine)

    def test_denormal_scale_matrix(self, rng):
        values = rng.random((300, 3)) * 1e-300
        with ScoreEngine(values) as engine, MDRCView(engine, 4) as view:
            view.refresh()
            for _ in range(3):
                engine.delete_rows(rng.choice(engine.n, size=5, replace=False))
                engine.insert_rows(rng.random((5, 3)) * 1e-300)
                _assert_mdrc_identical(view, engine)
            # The engine itself must agree with the scalar contract at
            # this scale (naive squared-norm sums underflow to zero —
            # the robust-norm path keeps ordering and pruning honest).
            weights = sample_functions(3, 6, rng=0)
            orders = engine.topk_orders(weights, 4)
            for i, w in enumerate(weights):
                assert np.array_equal(orders[i], top_k(engine.values, w, 4))

    def test_insert_burst_beyond_candidate_cap(self, rng):
        values = rng.random((500, 3))
        with ScoreEngine(values) as engine, MDRCView(engine, 5) as view:
            view.refresh()
            engine.delete_rows(rng.choice(450, size=3, replace=False))
            engine.insert_rows(rng.random((60, 3)))  # > per-corner merge cap
            _assert_mdrc_identical(view, engine)
            engine.insert_rows(rng.random((1, 3)))
            _assert_mdrc_identical(view, engine)

    def test_matrix_shrinks_below_repair_buffer(self, rng):
        values = rng.random((200, 3))
        with ScoreEngine(values) as engine, MDRCView(engine, 4) as view:
            view.refresh()
            # Drop below the corner buffer width (k + reserve): the cache
            # must reset and the next refresh recompute, still identical.
            engine.delete_rows(np.arange(185))
            _assert_mdrc_identical(view, engine)
            assert view.stats["computes"] >= 2

    def test_refresh_without_mutation_serves_cached_result(self, rng):
        values = rng.random((300, 3))
        with ScoreEngine(values) as engine, MDRCView(engine, 5) as view:
            first = view.refresh()
            assert view.refresh() is first
            assert view.stats["computes"] == 1

    def test_serving_shape_carries_untouched_levels(self):
        # The shape the server maintains: 20-row deletes and inserts
        # against independent 4-d data at k=15.  Most such events change
        # no corner's top-k set and carry the whole tree; the others
        # re-walk from the first touched level.  Both must match mdrc.
        values = independent(n=3000, d=4, seed=5).normalized().values
        rng = np.random.default_rng(11)
        with ScoreEngine(values) as engine, MDRCView(engine, 15) as view:
            _assert_mdrc_identical(view, engine)
            quiet = busy = 0
            for step in range(60):
                if step % 2 == 0:
                    engine.delete_rows(np.sort(rng.choice(engine.n, 20, replace=False)))
                else:
                    engine.insert_rows(rng.random((20, 4)))
                before = view.stats["cells_redecided"]
                _assert_mdrc_identical(view, engine)
                if view.stats["cells_redecided"] == before:
                    quiet += 1
                else:
                    busy += 1
                # Every repaired buffer is still an exact prefix of its
                # corner's ranking, reserve columns included.
                cache = view._cache
                exact = engine.topk_orders(cache.weights, cache.k_eval)
                buffered = np.arange(cache.k_eval) < cache.lengths[:, None]
                assert np.array_equal(cache.orders[buffered], exact[buffered])
            assert quiet and busy, (quiet, busy)
            assert view.stats["maintains"] == 60 and view.stats["computes"] == 1
            assert view.stats["levels_carried"] > 0
            assert view.stats["cells_redecided"] > 0
            assert np.array_equal(cache.weights, weights_from_angles_batch(cache.angles))

    def test_pruned_subtree_below_a_clean_level(self):
        # At k=3 this delete flips a split cell to resolved.  Its subtree
        # runs deeper than the branch holding the changed corner, so two
        # levels further down hold dead cells of that subtree and no
        # changed corner: they must be rebuilt without them, not carried.
        rng = np.random.default_rng(1)
        values = rng.random((600, 4))
        with ScoreEngine(values) as engine, MDRCView(engine, 3) as view:
            view.refresh()
            engine.delete_rows(np.sort(rng.choice(engine.n, 15, replace=False)))
            _assert_mdrc_identical(view, engine)
            assert view.stats["levels_carried"] > 0

    def test_budget_check_on_carried_levels(self):
        # The last write grows leaves above levels it leaves untouched;
        # with them, a fresh run's budget check fails at one of those
        # carried levels, so the view must bail there.
        rng = np.random.default_rng(1)
        values = rng.random((300, 3))
        events = np.random.default_rng(1001)
        with ScoreEngine(values) as engine, MDRCView(engine, 4, max_cells=54) as view:
            view.refresh()
            for step in range(5):
                if step % 2 == 0:
                    engine.delete_rows(np.sort(events.choice(engine.n, 6, replace=False)))
                else:
                    engine.insert_rows(events.random((6, 3)))
                res = _assert_mdrc_identical(view, engine)
            assert res.capped_cells > 0 and view.stats["bails"] == 1

    def test_closed_view_rejects_refresh(self, rng):
        engine = ScoreEngine(rng.random((50, 3)))
        view = MDRCView(engine, 3)
        view.close()
        with pytest.raises(ValidationError):
            view.refresh()
        engine.close()


# ----------------------------------------------------------------------
# K-SETr and MDRRR maintained draw state
class TestKSetAndMDRRRViews:
    def test_kset_view_matches_fresh_seeded_run(self, rng):
        values = rng.random((300, 3))
        with ScoreEngine(values) as engine:
            with KSetView(engine, 4, patience=40, rng=7) as view:
                view.refresh()
                for _ in range(3):
                    engine.delete_rows(rng.choice(engine.n, size=5, replace=False))
                    engine.insert_rows(rng.random((5, 3)))
                    res = view.refresh()
                    fresh = sample_ksets(
                        engine.values, 4, patience=40, rng=7, engine=engine
                    )
                    assert res.ksets == fresh.ksets
                    assert res.draws == fresh.draws
                    assert res.exhausted == fresh.exhausted
                assert view.stats["draws_kept"] > 0

    def test_mdrrr_view_matches_fresh_seeded_run(self, rng):
        values = rng.random((250, 3))
        with ScoreEngine(values) as engine:
            with MDRRRView(engine, 4, patience=40, rng=11) as view:
                view.refresh()
                for _ in range(2):
                    engine.delete_rows(rng.choice(engine.n, size=5, replace=False))
                    engine.insert_rows(rng.random((5, 3)))
                    res = view.refresh()
                    fresh = md_rrr(
                        engine.values,
                        4,
                        enumerator="sample",
                        patience=40,
                        rng=11,
                        engine=engine,
                    )
                    assert res.indices == fresh.indices
                    assert res.ksets == fresh.ksets
                    assert res.sample_draws == fresh.sample_draws

    @pytest.mark.parametrize("cls", [KSetView, MDRRRView])
    def test_seeded_views_reject_live_generators(self, rng, cls):
        with ScoreEngine(rng.random((60, 3))) as engine:
            with pytest.raises(ValidationError):
                cls(engine, 3, rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
# maintained rank-regret estimator
class TestRankRegretView:
    def test_patch_counting_matches_fresh_estimate(self, rng):
        values = rng.random((500, 4))
        with ScoreEngine(values) as engine:
            rep = mdrc(values, 8, engine=engine).indices
            with RankRegretView(engine, rep, num_functions=256, rng=3) as view:
                got = view.refresh()
                want = rank_regret_sampled(
                    engine.values, rep, num_functions=256, rng=3, engine=engine
                )
                assert got == want
                for _ in range(3):
                    # Spare the members so the exact ±counting patch path
                    # (not the subset-loss reset) is what's exercised.
                    alive = np.setdiff1d(np.arange(engine.n), view._members)
                    engine.delete_rows(rng.choice(alive, size=10, replace=False))
                    engine.insert_rows(rng.random((10, 4)))
                    got = view.refresh()
                    want = rank_regret_sampled(
                        engine.values,
                        view._members,
                        num_functions=256,
                        rng=3,
                        engine=engine,
                    )
                    assert got == want
                assert view.stats["functions_patched"] > 0

    def test_subset_member_deletion_resets_to_survivors(self, rng):
        values = rng.random((300, 3))
        with ScoreEngine(values) as engine:
            rep = mdrc(values, 6, engine=engine).indices
            with RankRegretView(engine, rep, num_functions=128, rng=5) as view:
                view.refresh()
                engine.delete_rows([rep[0]])
                got = view.refresh()
                assert view.stats["subset_losses"] == 1
                want = rank_regret_sampled(
                    engine.values,
                    view._members,
                    num_functions=128,
                    rng=5,
                    engine=engine,
                )
                assert got == want

    def test_set_subset_follows_upstream_representative(self, rng):
        values = rng.random((400, 3))
        with ScoreEngine(values) as engine, MDRCView(engine, 6) as mview:
            rep = mview.refresh().indices
            with RankRegretView(engine, rep, num_functions=128, rng=9) as view:
                view.refresh()
                for _ in range(3):
                    engine.delete_rows(rng.choice(engine.n, size=8, replace=False))
                    engine.insert_rows(rng.random((8, 3)))
                    rep = _assert_mdrc_identical(mview, engine).indices
                    view.set_subset(rep)
                    got = view.refresh()
                    want = rank_regret_sampled(
                        engine.values, rep, num_functions=128, rng=9, engine=engine
                    )
                    assert got == want

    def test_total_subset_loss_raises(self, rng):
        values = rng.random((100, 3))
        with ScoreEngine(values) as engine:
            with RankRegretView(engine, [2, 5], num_functions=32, rng=1) as view:
                view.refresh()
                engine.delete_rows([2, 5])
                with pytest.raises(ValidationError):
                    view.refresh()

    def test_rejects_live_generator_and_empty_subset(self, rng):
        with ScoreEngine(rng.random((50, 3))) as engine:
            with pytest.raises(ValidationError):
                RankRegretView(engine, [0], num_functions=8, rng=np.random.default_rng(0))
            with pytest.raises(ValidationError):
                RankRegretView(engine, [], num_functions=8, rng=0)
