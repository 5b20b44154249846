"""The k-skyband candidate path of ``ScoreEngine.topk_orders``.

Large batches of nonnegative-weight functions are answered by a child
engine over the robust k-skyband rows (see the ``ScoreEngine`` module
docstring).  These tests force that path on small inputs by lowering the
per-call engagement floor and lifting the stage-1 cut-off, and pin it
bit-identical to a candidate-free engine and to the scalar ``top_k``.
"""

import importlib
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.score_engine as score_engine
from repro.datasets import anticorrelated, independent
from repro.engine import ScoreEngine
from repro.geometry.skyline import robust_skyband
from repro.ranking.topk import top_k

# By module path: the package re-exports a function named ``skyline``.
skyline = importlib.import_module("repro.geometry.skyline")
EPS = float(np.finfo(np.float64).eps)


@pytest.fixture
def forced(monkeypatch):
    """Engage the candidate path on any call of at least one function."""
    monkeypatch.setattr(score_engine, "_CANDIDATE_MIN_FUNCTIONS", 1)
    monkeypatch.setattr(score_engine, "_CANDIDATE_MAX_SHARE", 1.0)


def _delta(values: np.ndarray) -> float:
    return score_engine._ROBUST_MARGIN * values.shape[1] * EPS * float(np.abs(values).max())


def _expected(values: np.ndarray, W: np.ndarray, k: int) -> np.ndarray:
    """Full-matrix answers: a candidate-free engine, checked against ``top_k``."""
    reference = ScoreEngine(values, quantize=None).topk_order_batch(W, k)
    for i, w in enumerate(W):
        assert np.array_equal(reference[i], top_k(values, w, k))
    return reference


def _matrix(kind: str, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "float":
        return rng.random((n, d))
    if kind == "grid":  # many exact ties and shared coordinates
        return rng.integers(0, 4, (n, d)).astype(np.float64)
    if kind == "duplicates":
        base = rng.random((max(2, n // 4), d))
        return base[rng.integers(0, base.shape[0], n)]
    # Pairs one ulp apart in every coordinate, the upper one listed later.
    base = rng.random(((n + 1) // 2, d))
    return np.vstack([base, np.nextafter(base, np.inf)])[:n]


def _weights(m: int, d: int, rng: np.random.Generator, zeros: bool) -> np.ndarray:
    W = rng.random((m, d))
    if zeros:
        W[rng.random((m, d)) < 0.4] = 0.0
        W[:, 0] = np.where(W.sum(axis=1) == 0.0, 1.0, W[:, 0])
        W[: min(m, d)] = np.eye(d)[: min(m, d)]  # axis functions: tie-heavy
    return W


@st.composite
def _cases(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(8, 48))
    k = draw(st.integers(1, max(1, (n - 1) // 4)))
    kind = draw(st.sampled_from(["float", "grid", "duplicates", "ulp"]))
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150, -1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = _matrix(kind, n, d, rng) * scale
    W = _weights(draw(st.integers(1, 24)), d, rng, zeros=draw(st.booleans()))
    return values, W, k


class TestBitIdentity:
    @given(case=_cases(), float32=st.booleans())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_scalar_path(self, forced, case, float32):
        values, W, k = case
        engine = ScoreEngine(values, float32=float32)
        got = engine.topk_orders(W, k)
        assert np.array_equal(got, _expected(values, W, k))
        assert engine.stats["candidate_columns"] == W.shape[0]
        assert engine.stats["gemm_columns"] == W.shape[0]

    @given(case=_cases())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mixed_sign_batch_splits(self, forced, case):
        values, W, k = case
        rng = np.random.default_rng(W.shape[0])
        signed = rng.standard_normal((W.shape[0], W.shape[1]))
        both = np.vstack([W, signed])[rng.permutation(2 * W.shape[0])]
        engine = ScoreEngine(values, float32=True)
        assert np.array_equal(engine.topk_orders(both, k), _expected(values, both, k))
        eligible = int((both >= 0.0).all(axis=1).sum())
        assert engine.stats["candidate_columns"] == eligible
        assert engine.stats["gemm_columns"] == both.shape[0]

    @pytest.mark.parametrize(
        "scale,weight_scale",
        [(1e-310, 1.0), (1.0, 1e-300), (1e308, 1.0), (1.0, 1e308)],
        ids=["subnormal-data", "subnormal-weights", "overflow-data", "overflow-weights"],
    )
    def test_guards_switch_the_path_off(self, forced, scale, weight_scale):
        rng = np.random.default_rng(5)
        values = rng.random((40, 3)) * scale
        W = (0.5 + 0.5 * rng.random((30, 3))) * weight_scale
        engine = ScoreEngine(values)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = ScoreEngine(values, quantize=None).topk_order_batch(W, 4)
            got = engine.topk_orders(W, 4)
        assert np.array_equal(got, expected)
        assert engine.stats["candidate_columns"] == 0

    def test_large_k_stays_on_full_path(self, forced):
        values = independent(40, 3, seed=1).values
        W = np.random.default_rng(1).random((20, 3))
        engine = ScoreEngine(values)
        assert np.array_equal(engine.topk_orders(W, 10), _expected(values, W, 10))
        assert engine.stats["candidate_builds"] == 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_fanout_backends(self, forced, backend):
        values = _matrix("duplicates", 400, 4, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        W = np.vstack([rng.random((60, 4)), rng.standard_normal((60, 4))])
        with ScoreEngine(
            values, n_jobs=2, backend=backend, parallel_min_work=0, chunk_bytes=1
        ) as engine:
            assert np.array_equal(engine.topk_orders(W, 7), _expected(values, W, 7))
            eligible = int((W >= 0.0).all(axis=1).sum())
            assert engine.stats["candidate_columns"] == eligible


class TestLifecycle:
    def test_cached_per_k_and_dropped_on_mutation(self, forced):
        rng = np.random.default_rng(4)
        values = rng.random((60, 3))
        W = rng.random((25, 3))
        engine = ScoreEngine(values, float32=True)
        engine.topk_orders(W, 3)
        engine.topk_orders(W, 3)
        engine.topk_orders(W, 2)
        assert engine.stats["candidate_builds"] == 2
        # Remove the rows that are top-1 somewhere (all in the band), then
        # add a duplicated row dominating everything, checking each step.
        tops = np.unique(engine.topk_orders(W, 1)[:, 0])
        engine.delete_rows(tops)
        values = np.delete(values, tops, axis=0)
        assert np.array_equal(engine.topk_orders(W, 3), _expected(values, W, 3))
        assert engine.stats["candidate_builds"] == 4
        top = values.max(axis=0) + 1.0
        engine.insert_rows(np.vstack([top, top]))
        values = np.vstack([values, top, top])
        assert np.array_equal(engine.topk_orders(W, 3), _expected(values, W, 3))
        assert engine.stats["candidate_builds"] == 5

    def test_cache_stays_out_of_clones_and_pickles(self, forced):
        values = np.random.default_rng(6).random((50, 3))
        engine = ScoreEngine(values)
        engine.topk_orders(np.random.default_rng(7).random((10, 3)), 2)
        assert engine._candidates
        assert not engine._thread_clone()._candidates
        assert not pickle.loads(pickle.dumps(engine))._candidates

    def test_unpruned_k_is_remembered(self, monkeypatch):
        monkeypatch.setattr(score_engine, "_CANDIDATE_MIN_FUNCTIONS", 1)
        values = anticorrelated(200, 4, seed=0).values
        W = np.random.default_rng(8).random((20, 4))
        engine = ScoreEngine(values)
        for _ in range(3):
            assert np.array_equal(engine.topk_orders(W, 40), _expected(values, W, 40))
        assert engine.stats["candidate_builds"] == 1
        assert engine.stats["candidate_columns"] == 0

    def test_serving_batches_never_engage(self):
        values = independent(2000, 4, seed=2).values
        engine = ScoreEngine(values, float32=True)
        W = np.random.default_rng(9).random((64, 4))
        engine.topk_orders(W, 15)
        assert engine.stats["candidate_builds"] == 0
        engine.topk_orders(np.random.default_rng(9).random((1024, 4)), 15)
        assert engine.stats["candidate_columns"] == 1024


class TestMargin:
    def test_plain_dominance_breaks_the_restricted_path(self, forced, monkeypatch):
        # Rows q = nextafter(p) strictly dominate p by one ulp, yet their
        # float64 scores often tie, and the tie goes to p (lower index).
        # Plain dominance (delta = 0) drops p from the candidates.
        rng = np.random.default_rng(11)
        base = rng.random((30, 3))
        values = np.vstack([base, np.nextafter(base, np.inf)])
        W = rng.random((200, 3))
        expected = _expected(values, W, 1)
        assert np.array_equal(ScoreEngine(values).topk_orders(W, 1), expected)

        original = skyline.robust_skyband
        monkeypatch.setattr(
            skyline,
            "robust_skyband",
            lambda points, k, delta, **kw: original(points, k, 0.0, **kw),
        )
        plain = ScoreEngine(values)
        got = plain.topk_orders(W, 1)
        assert plain.stats["candidate_columns"] == W.shape[0]
        assert not np.array_equal(got, expected)
        # Every disagreement is a lower-index row the band dropped.
        wrong = np.flatnonzero(got[:, 0] != expected[:, 0])
        assert (expected[wrong, 0] < 30).all()

    @pytest.mark.parametrize("kind", ["float", "grid", "duplicates", "ulp"])
    @pytest.mark.parametrize("k", [1, 2, 5, 13])
    def test_skyband_matches_brute_force(self, kind, k):
        # More rows than stage 1 takes pivots, so stage 2 does real work.
        rng = np.random.default_rng(k)
        values = _matrix(kind, 1500, 3, rng)
        delta = _delta(values)
        counts = np.array([(values > row + delta).all(axis=1).sum() for row in values])
        got = robust_skyband(values, k, delta)
        assert np.array_equal(got, np.flatnonzero(counts < k))

    def test_skyband_limit(self):
        values = anticorrelated(300, 4, seed=1).values
        assert robust_skyband(values, 30, _delta(values), limit=10) is None
        band = robust_skyband(values, 30, _delta(values))
        assert np.array_equal(robust_skyband(values, 30, _delta(values), limit=300), band)
