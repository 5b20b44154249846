"""Property and unit tests for the quantized screening tier.

The load-bearing property is the exactness contract: with the int8/int16
tier enabled (any level, any adaptive state), ``topk_batch`` and
``rank_of_best_batch`` stay *bit-identical* to the scalar
``top_k``/``rank_of`` path — on clean data, tie-dense data, duplicate
rows, denormal scales, and adversarially near-boundary instances whose
gaps sit inside (or just outside) the quantization envelope.  Alongside:
unit coverage for the level machinery itself — rigorous per-row bounds,
the dynamic-range probe, the adaptive promote policy, degenerate-scale
handling, and pickling.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.engine import Quantizer, ScoreEngine
from repro.engine.quantize import _LEVELS, _PROMOTE_WINDOW
from repro.exceptions import ValidationError
from repro.ranking import sample_functions
from repro.ranking.topk import top_k

QUANT_MODES = ("auto", "int8", "int16")


def _assert_topk_identical(values, weights, k, **engine_kwargs):
    engine = ScoreEngine(values, **engine_kwargs)
    batch = engine.topk_batch(weights, k)
    for i, w in enumerate(weights):
        assert np.array_equal(batch.order[i], top_k(values, w, k)), (
            f"quantized top-k diverged from scalar (function {i}, "
            f"quantize={engine_kwargs.get('quantize')})"
        )
    return engine


def _scalar_rank_of_best(values, w, members):
    """The engine's contract: 1 + rows *strictly* above the best member,
    counted with the exact scalar float64 GEMV kernel."""
    exact = values @ w
    return int((exact > exact[members].max()).sum()) + 1


def _assert_ranks_identical(values, weights, subset, **engine_kwargs):
    engine = ScoreEngine(values, **engine_kwargs)
    # Force the adaptive rank policy to engage the quantized screen so
    # the tier itself — not just the float path — is what gets checked.
    engine._rank_float_columns = 10_000
    engine._rank_float_fallbacks = 10_000
    got = engine.rank_of_best_batch(weights, subset)
    untiered = ScoreEngine(values, quantize=None).rank_of_best_batch(weights, subset)
    assert np.array_equal(got, untiered), "quantized rank diverged from float tiers"
    for j, w in enumerate(weights):
        assert got[j] == _scalar_rank_of_best(values, w, subset)
    return engine


# ----------------------------------------------------------------------
# hypothesis: bit-identity across adversarial data shapes
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(30, 300),
    d=st.integers(2, 5),
    k=st.integers(1, 20),
    mode=st.sampled_from(QUANT_MODES),
)
@settings(max_examples=40, deadline=None)
def test_topk_bit_identity_random(seed, n, d, k, mode):
    rng = np.random.default_rng(seed)
    values = rng.random((n, d))
    weights = sample_functions(d, 17, rng)
    _assert_topk_identical(values, weights, min(k, n), quantize=mode)


@given(
    seed=st.integers(0, 2**31 - 1),
    decimals=st.integers(1, 2),
    k=st.integers(1, 12),
    mode=st.sampled_from(QUANT_MODES),
)
@settings(max_examples=30, deadline=None)
def test_topk_bit_identity_on_ties(seed, decimals, k, mode):
    # Rounded values create massive exact score ties; every tie at a
    # decision boundary must resolve by the scalar index tie-break.
    rng = np.random.default_rng(seed)
    values = np.round(rng.random((80, 3)), decimals)
    weights = np.round(sample_functions(3, 12, rng), decimals)
    weights[weights.sum(axis=1) == 0] = 1.0
    _assert_topk_identical(values, weights, k, quantize=mode)


@given(seed=st.integers(0, 2**31 - 1), mode=st.sampled_from(QUANT_MODES))
@settings(max_examples=20, deadline=None)
def test_topk_bit_identity_duplicate_rows(seed, mode):
    # Identical rows: GEMM noise must never reorder them past the index
    # tie-break, and the quantized envelope sees them as exact equals.
    rng = np.random.default_rng(seed)
    base = rng.random((12, 3))
    values = np.repeat(base, 5, axis=0)
    weights = sample_functions(3, 10, rng)
    _assert_topk_identical(values, weights, 7, quantize=mode)


@given(
    seed=st.integers(0, 2**31 - 1),
    scale_exp=st.sampled_from([-320, -308, -200, 200, 300]),
    mode=st.sampled_from(QUANT_MODES),
)
@settings(max_examples=20, deadline=None)
def test_topk_bit_identity_extreme_scales(seed, scale_exp, mode):
    # Denormal-range (1e-320) and huge-range data: the quantizer must
    # either stay rigorous or disable itself — never lose exactness.
    rng = np.random.default_rng(seed)
    values = rng.random((60, 3)) * (10.0**scale_exp)
    weights = sample_functions(3, 8, rng)
    _assert_topk_identical(values, weights, 5, quantize=mode)


@given(
    seed=st.integers(0, 2**31 - 1),
    gap_exp=st.integers(-16, -2),
    mode=st.sampled_from(QUANT_MODES),
)
@settings(max_examples=30, deadline=None)
def test_topk_adversarial_near_boundary(seed, gap_exp, mode):
    # Rows engineered to straddle the k boundary by ~10**gap_exp —
    # spanning gaps far inside the int8 envelope up to clearly outside
    # it — must resolve exactly whichever tier ends up deciding.
    rng = np.random.default_rng(seed)
    n, d, k = 120, 3, 9
    values = rng.random((n, d))
    w = sample_functions(d, 1, rng)[0]
    scores = values @ w
    boundary = np.sort(scores)[-k]
    # Push a handful of extra rows to within ~10**gap_exp of the boundary.
    push = rng.choice(n, size=6, replace=False)
    values[push] *= (boundary + 10.0**gap_exp * rng.standard_normal(6)[:, None]) / np.maximum(
        scores[push][:, None], 1e-9
    )
    weights = np.vstack([w, sample_functions(d, 6, rng)])
    _assert_topk_identical(np.abs(values), weights, k, quantize=mode)


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(40, 250),
    d=st.integers(2, 4),
    mode=st.sampled_from(QUANT_MODES),
)
@settings(max_examples=30, deadline=None)
def test_rank_bit_identity_random(seed, n, d, mode):
    rng = np.random.default_rng(seed)
    values = rng.random((n, d))
    weights = sample_functions(d, 15, rng)
    subset = sorted({0, int(n // 3), n - 1})
    _assert_ranks_identical(values, weights, subset, quantize=mode)


@given(seed=st.integers(0, 2**31 - 1), mode=st.sampled_from(QUANT_MODES))
@settings(max_examples=20, deadline=None)
def test_rank_bit_identity_ties_and_duplicates(seed, mode):
    rng = np.random.default_rng(seed)
    values = np.repeat(np.round(rng.random((20, 3)), 1), 4, axis=0)
    weights = np.round(sample_functions(3, 10, rng), 1)
    weights[weights.sum(axis=1) == 0] = 1.0
    subset = [0, 40, 79]
    _assert_ranks_identical(values, weights, subset, quantize=mode)


def _structured_unique_rows(matrix):
    """Oracle: the probe's former count, np.unique over a structured row view."""
    contiguous = np.ascontiguousarray(matrix)
    as_bytes = contiguous.view([("", contiguous.dtype)] * contiguous.shape[1])
    return int(np.unique(as_bytes).size)


_SHAPES = st.tuples(st.integers(1, 30), st.integers(1, 4))
_FLOATS = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 5e-324]) | st.floats(
    allow_nan=False, allow_infinity=False
)
_INT16S = st.integers(-2, 2) | st.integers(-(2**15), 2**15 - 1)


@given(
    matrix=arrays(np.float64, _SHAPES, elements=_FLOATS)
    | arrays(np.int16, _SHAPES, elements=_INT16S),
    copies=st.integers(1, 3),
)
@example(matrix=np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, -0.0], [0.0, 0.0]]), copies=1)
@example(matrix=np.array([[7.0, -0.0, 7.0]]), copies=1)
@example(matrix=np.array([[1], [1], [-1]], dtype=np.int16), copies=2)
@settings(max_examples=80, deadline=None)
def test_distinct_rows_matches_structured_unique(matrix, copies):
    # Tiling adds duplicate rows that are not adjacent in input order.
    matrix = np.tile(matrix, (copies, 1))
    assert Quantizer._distinct_rows(matrix) == _structured_unique_rows(matrix)


# ----------------------------------------------------------------------
# unit coverage: tier mechanics
class TestQuantizerLevels:
    def test_bounds_are_rigorous(self):
        # |x - a*q| <= a/2 per entry, the invariant every screen rests on.
        rng = np.random.default_rng(0)
        values = rng.random((500, 4)) * [1.0, 10.0, 0.01, 100.0]
        for mode in ("int8", "int16"):
            qz = Quantizer(values, mode)
            state = qz.state
            store = state.store(0, values)
            d = values.shape[1]
            recon = store.Q[:, :d].astype(np.float64) * state.scales
            assert np.all(np.abs(values - recon) <= 0.5 * state.scales + 1e-30)
            assert np.array_equal(
                store.absq.astype(np.float64),
                np.abs(store.Q[:, :d]).sum(axis=1, dtype=np.float64),
            )

    def test_carrier_choice(self):
        values = np.random.default_rng(1).random((50, 4))
        assert Quantizer(values, "int8").state.carrier is np.float32
        assert Quantizer(values, "int16").state.carrier is np.float64

    def test_dynamic_range_probe_collapses_to_int16(self):
        # Rows distinct only below int8 resolution: the probe must see
        # the collapse and start at int16.
        rng = np.random.default_rng(2)
        values = 1.0 + rng.random((200, 3)) * 1e-6
        assert Quantizer(values, "auto").level == "int16"
        assert Quantizer(rng.random((200, 3)), "auto").level == "int8"

    def test_adaptive_upgrade_and_disable(self):
        values = np.random.default_rng(3).random((100, 3))
        qz = Quantizer(values, "auto")
        assert qz.level == "int8"
        qz.observe(_PROMOTE_WINDOW, _PROMOTE_WINDOW)  # everything promoted
        assert qz.level == "int16"
        qz.observe(_PROMOTE_WINDOW, _PROMOTE_WINDOW)
        assert qz.level is None and not qz.active
        # Pinned modes never adapt.
        pinned = Quantizer(values, "int8")
        pinned.observe(_PROMOTE_WINDOW, _PROMOTE_WINDOW)
        assert pinned.level == "int8"

    def test_low_promote_rate_keeps_level(self):
        values = np.random.default_rng(4).random((100, 3))
        qz = Quantizer(values, "auto")
        qz.observe(_PROMOTE_WINDOW, _PROMOTE_WINDOW // 100)
        assert qz.level == "int8"

    def test_degenerate_weights_are_flagged(self):
        values = np.random.default_rng(5).random((50, 3))
        state = Quantizer(values, "int8").state
        W = np.array([[0.2, 0.3, 0.5], [0.0, 0.0, 0.0], [1e-300, 0.0, 0.0]])
        Wq, b, usum, degenerate = state.quantize_weights(W)
        assert not degenerate[0] and degenerate[1] and degenerate[2]
        assert np.all(Wq[:, -1] == 1.0)
        assert np.abs(Wq[0, :-1]).max() <= _LEVELS["int8"]

    def test_nonfinite_and_subnormal_data_disable(self):
        subnormal = np.full((20, 2), 5e-323)
        assert Quantizer(subnormal, "auto").level is None
        # Engine still answers exactly through the float tiers.
        weights = sample_functions(2, 5, 0)
        _assert_topk_identical(subnormal, weights, 3, quantize="auto")

    def test_invalid_mode_rejected(self):
        values = np.ones((3, 2))
        with pytest.raises(ValueError):
            Quantizer(values, "int4")
        with pytest.raises(ValidationError):
            ScoreEngine(values, quantize="int4")

    def test_pickle_roundtrip_keeps_level(self):
        values = np.random.default_rng(6).random((80, 3))
        engine = ScoreEngine(values, quantize="auto")
        engine.topk_batch(sample_functions(3, 8, 6), 5)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._quantizer.level == engine._quantizer.level
        weights = sample_functions(3, 6, 7)
        assert np.array_equal(
            clone.topk_batch(weights, 5).order, engine.topk_batch(weights, 5).order
        )


class TestTierIntegration:
    def test_quant_tier_resolves_clean_data(self):
        # The hit-rate contract the perf gate reports: on clean data at
        # bench-like shape, the bottom tier decides nearly every column.
        rng = np.random.default_rng(7)
        values = rng.random((2000, 4))
        engine = ScoreEngine(values, float32=True)
        engine.topk_batch(sample_functions(4, 512, 7), 25)
        assert engine.stats["quant_columns"] == 512
        assert engine.stats["quant_resolved"] >= 0.8 * 512

    def test_quantize_none_disables_tier(self):
        values = np.random.default_rng(8).random((500, 3))
        engine = ScoreEngine(values, quantize=None)
        engine.topk_batch(sample_functions(3, 64, 8), 10)
        assert engine.stats["quant_columns"] == 0
        assert engine._quantizer is None

    def test_rank_policy_engages_on_fallback_heavy_data(self):
        # Tie-dense data drives the float path's wholesale fallbacks up;
        # the next call must switch to the quantized screen and agree.
        rng = np.random.default_rng(9)
        values = np.round(rng.random((400, 3)), 1)
        weights = np.round(sample_functions(3, 80, rng), 1)
        weights[weights.sum(axis=1) == 0] = 1.0
        subset = [0, 200, 399]
        engine = ScoreEngine(values)
        first = engine.rank_of_best_batch(weights, subset)
        assert engine._rank_float_fallbacks > 0
        engaged = engine.rank_of_best_batch(weights, subset)
        assert engine.stats["quant_columns"] > 0
        assert np.array_equal(first, engaged)
        for j, w in enumerate(weights):
            assert first[j] == _scalar_rank_of_best(values, w, subset)

    def test_rank_policy_stays_float_on_clean_data(self):
        # A representative-grade subset on clean data produces (almost)
        # no scalar fallbacks, so the float path keeps the job.
        rng = np.random.default_rng(10)
        values = rng.random((800, 3))
        subset = [int(i) for i in np.argsort(-values.sum(axis=1))[:5]]
        engine = ScoreEngine(values)
        for _ in range(3):
            engine.rank_of_best_batch(sample_functions(3, 100, rng), subset)
        assert engine.stats["quant_columns"] == 0
