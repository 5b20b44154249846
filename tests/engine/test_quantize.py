"""Property and unit tests for the quantized screening tier.

The load-bearing property is the exactness contract: with the int16
tier enabled (in any adaptive state), ``topk_batch`` stays
*bit-identical* to the scalar ``top_k`` path — on clean data, tie-dense
data, duplicate rows, denormal scales, and adversarially near-boundary
instances whose gaps sit inside (or just outside) the quantization
envelope — and ``rank_of_best_batch`` on an engine with the tier
enabled stays bit-identical to the scalar GEMV count.  Alongside:
unit coverage for the level machinery itself — rigorous per-row bounds,
the adaptive switch-off and degenerate-scale handling.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Quantizer, ScoreEngine
from repro.engine.quantize import _PROMOTE_WINDOW, QMAX
from repro.exceptions import ValidationError
from repro.ranking import sample_functions
from repro.ranking.topk import top_k


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
    got = engine.rank_of_best_batch(weights, subset)
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
)
@settings(max_examples=40, deadline=None)
def test_topk_bit_identity_random(seed, n, d, k):
    rng = np.random.default_rng(seed)
    values = rng.random((n, d))
    weights = sample_functions(d, 17, rng)
    _assert_topk_identical(values, weights, min(k, n), quantize="auto")


@given(
    seed=st.integers(0, 2**31 - 1),
    decimals=st.integers(1, 2),
    k=st.integers(1, 12),
)
@settings(max_examples=30, deadline=None)
def test_topk_bit_identity_on_ties(seed, decimals, k):
    # Rounded values create massive exact score ties; every tie at a
    # decision boundary must resolve by the scalar index tie-break.
    rng = np.random.default_rng(seed)
    values = np.round(rng.random((80, 3)), decimals)
    weights = np.round(sample_functions(3, 12, rng), decimals)
    weights[weights.sum(axis=1) == 0] = 1.0
    _assert_topk_identical(values, weights, k, quantize="auto")


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_topk_bit_identity_duplicate_rows(seed):
    # Identical rows: GEMM noise must never reorder them past the index
    # tie-break, and the quantized envelope sees them as exact equals.
    rng = np.random.default_rng(seed)
    base = rng.random((12, 3))
    values = np.repeat(base, 5, axis=0)
    weights = sample_functions(3, 10, rng)
    _assert_topk_identical(values, weights, 7, quantize="auto")


@given(
    seed=st.integers(0, 2**31 - 1),
    scale_exp=st.sampled_from([-320, -308, -200, 200, 300]),
    signed=st.booleans(),
)
# Scores near -1e-202 underflowed a float32 top-k probe to 0, which is
# no lower bound on a negative k-th score.
@example(seed=14, scale_exp=-200, signed=True)
@settings(max_examples=20, deadline=None)
def test_topk_bit_identity_extreme_scales(kernel_paths, seed, scale_exp, signed):
    # Denormal-range (1e-320) and huge-range data: the quantizer and the
    # float tiers must either stay rigorous or step aside — never lose
    # exactness.
    rng = np.random.default_rng(seed)
    values = rng.random((60, 3)) * (10.0**scale_exp)
    weights = sample_functions(3, 8, rng)
    if signed:
        weights = rng.standard_normal((8, 3))
    for _ in kernel_paths():
        _assert_topk_identical(values, weights, 5, quantize="auto")


@given(
    seed=st.integers(0, 2**31 - 1),
    gap_exp=st.integers(-16, -2),
)
@settings(max_examples=30, deadline=None)
def test_topk_adversarial_near_boundary(seed, gap_exp):
    # Rows engineered to straddle the k boundary by ~10**gap_exp —
    # spanning gaps far inside the int16 envelope up to clearly outside
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
    _assert_topk_identical(np.abs(values), weights, k, quantize="auto")


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(40, 250),
    d=st.integers(2, 4),
)
@settings(max_examples=30, deadline=None)
def test_rank_bit_identity_random(seed, n, d):
    rng = np.random.default_rng(seed)
    values = rng.random((n, d))
    weights = sample_functions(d, 15, rng)
    subset = sorted({0, int(n // 3), n - 1})
    _assert_ranks_identical(values, weights, subset, quantize="auto")


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_rank_bit_identity_ties_and_duplicates(seed):
    rng = np.random.default_rng(seed)
    values = np.repeat(np.round(rng.random((20, 3)), 1), 4, axis=0)
    weights = np.round(sample_functions(3, 10, rng), 1)
    weights[weights.sum(axis=1) == 0] = 1.0
    subset = [0, 40, 79]
    _assert_ranks_identical(values, weights, subset, quantize="auto")


# ----------------------------------------------------------------------
# unit coverage: tier mechanics
class TestQuantizerLevels:
    def test_bounds_are_rigorous(self):
        # |x - a*q| <= a/2 per entry, the invariant every screen rests on.
        rng = np.random.default_rng(0)
        values = rng.random((500, 4)) * [1.0, 10.0, 0.01, 100.0]
        state = Quantizer(values, "auto").state
        store = state.store(0, values)
        d = values.shape[1]
        recon = store.Q[:, :d].astype(np.float64) * state.scales
        assert np.all(np.abs(values - recon) <= 0.5 * state.scales + 1e-30)
        assert np.array_equal(
            2.0 * store.Q[:, d].astype(np.float64),
            np.abs(store.Q[:, :d]).sum(axis=1, dtype=np.float64),
        )

    def test_carrier_choice(self):
        values = np.random.default_rng(1).random((50, 4))
        assert Quantizer(values, "auto").state.carrier is np.float64

    def test_adaptive_upgrade_and_disable(self):
        # The screen starts at int16 and a high promote rate switches it
        # off for good.
        values = np.random.default_rng(3).random((100, 3))
        qz = Quantizer(values, "auto")
        assert qz.level == "int16"
        qz.observe(_PROMOTE_WINDOW, _PROMOTE_WINDOW)  # everything promoted
        assert qz.level is None and not qz.active
        qz.observe(_PROMOTE_WINDOW, 0)
        assert qz.level is None

    def test_low_promote_rate_keeps_level(self):
        values = np.random.default_rng(4).random((100, 3))
        qz = Quantizer(values, "auto")
        qz.observe(_PROMOTE_WINDOW, _PROMOTE_WINDOW // 100)
        assert qz.level == "int16"

    def test_degenerate_weights_are_flagged(self):
        values = np.random.default_rng(5).random((50, 3))
        state = Quantizer(values, "auto").state
        W = np.array([[0.2, 0.3, 0.5], [0.0, 0.0, 0.0], [1e-300, 0.0, 0.0]])
        Wq, b, usum, degenerate = state.quantize_weights(W)
        assert not degenerate[0] and degenerate[1] and degenerate[2]
        assert np.all(Wq[:, -1] == 1.0)
        assert np.abs(Wq[0, :-1]).max() <= QMAX

    def test_nonfinite_and_subnormal_data_disable(self):
        subnormal = np.full((20, 2), 5e-323)
        assert Quantizer(subnormal, "auto").level is None
        # Engine still answers exactly through the float tiers.
        weights = sample_functions(2, 5, 0)
        _assert_topk_identical(subnormal, weights, 3, quantize="auto")

    def test_carrier_thresholds_clip_without_overflow(self):
        # (thr ∓ usum/2)/b leaves float64 range for b near _SCALE_MIN;
        # clipped just past ``peak``, it decides every comparison with an
        # in-range carrier sum as the exact value does.
        state = Quantizer(np.ones((4, 4)), "auto").state
        b = np.full(6, 2.0**-900)
        thr = np.array([1e300, -1e300, 5.0, -7.25, 0.0, 3e-200]) * [1, 1, b[0], b[0], 1, 1]
        usum = np.array([1.0, 1.0, 2.0, 0.5, 4.0, 0.0]) * b
        with np.errstate(over="raise"):
            upper = state.upper_rhs(thr, b, usum)
        assert upper.dtype == state.carrier
        with np.errstate(over="ignore"):
            upper_exact = (thr - 0.5 * usum) / b - 2.0  # ±inf past float64
        assert np.isinf(upper_exact[0]) and np.isinf(upper_exact[1])
        peak = state.peak
        sums = np.concatenate(
            [[-peak, -peak + 0.5, peak - 0.5, peak],
             np.arange(-64, 65) / 2.0,
             np.rint(np.random.default_rng(0).uniform(-peak, peak, 4096))]
        )
        carrier = sums.astype(state.carrier)[:, None]
        assert np.array_equal(carrier >= upper, sums[:, None] >= upper_exact)

    def test_invalid_mode_rejected(self):
        # "auto" and None are the only modes; a level pin is refused.
        values = np.ones((3, 2))
        for mode in ("int4", "int8", "int16"):
            with pytest.raises(ValueError):
                Quantizer(values, mode)
            with pytest.raises(ValidationError):
                ScoreEngine(values, quantize=mode)


class TestTierIntegration:
    def test_quant_tier_resolves_clean_data(self):
        # The hit-rate contract the perf gate reports: on clean data at
        # bench-like shape, the bottom tier decides nearly every column.
        rng = np.random.default_rng(7)
        values = rng.random((2000, 4))
        engine = ScoreEngine(values)
        engine.topk_batch(sample_functions(4, 512, 7), 25)
        assert engine.stats["quant_columns"] == 512
        assert engine.stats["quant_resolved"] >= 0.8 * 512

    def test_batches_run_with_every_float_error_raising(self):
        # Only the carrier GEMM ignores the spurious "invalid" flag that
        # OpenBLAS can leave on finite inputs; every other step of a
        # quantized top-k and of a rank count runs under the caller's
        # error state, here one that raises on any floating-point error.
        rng = np.random.default_rng(11)
        values = rng.random((3000, 4))
        members = [5, 17, 400]
        engine = ScoreEngine(values)
        for seed in range(4):
            weights = sample_functions(4, 128, seed)
            with np.errstate(all="raise"):
                order = engine.topk_orders(weights, 15)
                ranks = engine.rank_of_best_batch(weights, members)
            for j, w in enumerate(weights):
                assert np.array_equal(order[j], top_k(values, w, 15))
                assert ranks[j] == _scalar_rank_of_best(values, w, members)
        assert engine.stats["quant_resolved"] > 0

    def test_quantize_none_disables_tier(self):
        values = np.random.default_rng(8).random((500, 3))
        engine = ScoreEngine(values, quantize=None)
        engine.topk_batch(sample_functions(3, 64, 8), 10)
        assert engine.stats["quant_columns"] == 0
        assert engine._quantizer is None

    def test_misaligned_scales_do_not_overflow_the_carrier(self):
        # A column ~1e60 weighted ~1e-60 beside unit columns: the ulp band
        # (‖w‖·max‖x‖) over b's quantum passed float32's range, which made
        # a float32 carrier's threshold cast overflow.
        rng = np.random.default_rng(0)
        values = np.column_stack([rng.random(400) * 1e60, rng.random(400), rng.random(400)])
        weights = np.column_stack([rng.random(8) * 1e-60, rng.random(8), rng.random(8)])
        engine = ScoreEngine(values)
        with np.errstate(over="raise"):
            order = engine.topk_orders(weights, 5)
            ranks = engine.rank_of_best_batch(weights, [3, 7])
        assert engine.stats["quant_columns"] == len(weights)
        for j, w in enumerate(weights):
            assert np.array_equal(order[j], top_k(values, w, 5))
            assert ranks[j] == _scalar_rank_of_best(values, w, [3, 7])
