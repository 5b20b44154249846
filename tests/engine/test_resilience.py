"""Chaos tests for the supervision layer (repro.engine.resilience).

The contract under test: under every injected failure mode — worker
crash, hang past the per-unit timeout — a supervised engine recovers
without process death and returns results *bit-identical* to a
fault-free serial run, on the thread pool and on the serial fall-back.
The fault harness (repro.engine.faults) is deterministic and seeded, so
every scenario here replays exactly.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    FaultInjector,
    RetryPolicy,
    ScoreEngine,
    TuningProfile,
    get_default_policy,
    set_default_policy,
)
from repro.engine import faults
from repro.exceptions import (
    CorruptStateError,
    ExecutionTimeoutError,
    InvalidDataError,
    ValidationError,
    WorkerCrashError,
)
from repro.ranking import sample_functions

# Backoff disabled in most scenarios: the retry *logic* is under test,
# not the sleeping, and CI minutes are precious.
FAST = RetryPolicy(timeout_s=5.0, max_retries=2, backoff_base_s=0.0)


def _data(n=300, d=4, m=48, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, d)), sample_functions(d, m, rng)


def _pair(values, n_jobs=2, policy=FAST, **kwargs):
    serial = ScoreEngine(values)
    fanout = ScoreEngine(
        values, n_jobs=n_jobs, parallel_min_work=0, resilience=policy, **kwargs
    )
    return serial, fanout


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    faults.uninstall()


# ----------------------------------------------------------------------
# the harness itself
class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        a = FaultInjector(seed=7, crash=0.3, hang=0.2)
        b = FaultInjector(seed=7, crash=0.3, hang=0.2)
        assert [a.draw_unit() for _ in range(64)] == [
            b.draw_unit() for _ in range(64)
        ]

    def test_plan_targets_exact_submissions(self):
        inj = FaultInjector(plan={0: "crash", 2: "hang"})
        assert inj.draw_unit() == "crash"
        assert inj.draw_unit() is None
        assert inj.draw_unit() == ("hang", 0.25)
        assert inj.draw_unit() is None
        assert inj.injected == {"crash": 1, "hang": 1}

    def test_max_faults_bounds_injection(self):
        inj = FaultInjector(seed=0, crash=1.0, max_faults=3)
        tokens = [inj.draw_unit() for _ in range(50)]
        assert tokens.count("crash") == 3
        assert all(t is None for t in tokens[3:])

    def test_hang_token_carries_duration(self):
        inj = FaultInjector(plan={0: "hang"}, hang_s=1.5)
        assert inj.draw_unit() == ("hang", 1.5)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(crash=1.5)
        with pytest.raises(ValueError):
            FaultInjector(crash=0.6, hang=0.6)
        with pytest.raises(ValueError):
            FaultInjector(plan={0: "lunch"})
        with pytest.raises(ValueError):
            FaultInjector(plan={0: "corrupt"})

    def test_module_install_scope(self):
        assert faults.active() is None
        with faults.injected(FaultInjector()) as inj:
            assert faults.active() is inj
        assert faults.active() is None


# ----------------------------------------------------------------------
# bit-identity under every failure mode
class TestRecoveryBitIdentity:
    @pytest.mark.parametrize("jobs", [2], ids=["thread"])
    @pytest.mark.parametrize("kind", ["crash", "hang"])
    def test_topk_and_rank_recover(self, jobs, kind):
        values, weights = _data()
        serial, fanout = _pair(values, jobs)
        injector = FaultInjector(seed=1, **{kind: 0.5}, max_faults=3, hang_s=20.0)
        with fanout, faults.injected(injector):
            a = serial.topk_batch(weights, 7)
            b = fanout.topk_batch(weights, 7)
            ra = serial.rank_of_best_batch(weights, [0, 150, 299])
            rb = fanout.rank_of_best_batch(weights, [0, 150, 299])
        assert injector.total_injected > 0
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(ra, rb)
        counter = {"crash": "worker_crashes", "hang": "timeouts"}[kind]
        assert fanout._supervisor.stats[counter] > 0

    @pytest.mark.parametrize("jobs", [2], ids=["thread"])
    def test_score_batch_recovers(self, jobs):
        values, weights = _data()
        serial = ScoreEngine(values, chunk_bytes=1)
        fanout = ScoreEngine(
            values, n_jobs=jobs, parallel_min_work=0, chunk_bytes=1, resilience=FAST
        )
        injector = FaultInjector(seed=2, crash=0.5, max_faults=3)
        with fanout, faults.injected(injector):
            assert np.array_equal(
                serial.score_batch(weights), fanout.score_batch(weights)
            )
        assert injector.injected["crash"] > 0


# ----------------------------------------------------------------------
# retry bounds, backoff bounds, fail-fast mode
class TestRetryAndBackoff:
    def test_fail_fast_raises_typed_crash_error(self):
        values, weights = _data()
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0, degrade=False)
        _, fanout = _pair(values, policy=policy)
        with fanout, faults.injected(FaultInjector(crash=1.0)):
            with pytest.raises(WorkerCrashError):
                fanout.topk_batch(weights, 7)
        # max_retries=1 -> exactly 2 attempts before raising.
        assert fanout._supervisor.stats["worker_crashes"] >= 2

    def test_fail_fast_raises_typed_timeout_error(self):
        values, weights = _data()
        policy = RetryPolicy(
            timeout_s=0.2, max_retries=0, backoff_base_s=0.0, degrade=False
        )
        _, fanout = _pair(values, policy=policy)
        with fanout, faults.injected(FaultInjector(hang=1.0, hang_s=30.0)):
            with pytest.raises(ExecutionTimeoutError):
                fanout.topk_batch(weights, 7)
        assert fanout._supervisor.stats["timeouts"] >= 1

    def test_backoff_is_bounded_and_recorded(self):
        values, weights = _data()
        policy = RetryPolicy(
            max_retries=2, backoff_base_s=0.01, backoff_max_s=0.04,
            backoff_jitter=0.5, seed=3,
        )
        _, fanout = _pair(values, policy=policy)
        with fanout, faults.injected(FaultInjector(seed=4, crash=0.5, max_faults=4)):
            fanout.topk_batch(weights, 7)
        sup = fanout._supervisor
        assert sup.stats["retries"] > 0
        assert sup.stats["backoff_s"] > 0.0
        # Every sleep is capped at backoff_max_s * (1 + jitter); far
        # fewer sleeps than retries can occur, so this bound is loose.
        cap = policy.backoff_max_s * (1.0 + policy.backoff_jitter)
        assert sup.stats["backoff_s"] <= sup.stats["retries"] * cap

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_jitter=1.5)
        with pytest.raises(ValidationError):
            ScoreEngine(np.eye(3), resilience="retry hard")

    def test_default_policy_install(self):
        previous = get_default_policy()
        try:
            set_default_policy(RetryPolicy(timeout_s=9.0, max_retries=5))
            engine = ScoreEngine(np.eye(3))
            assert engine._resilience_policy.timeout_s == 9.0
            assert engine._resilience_policy.max_retries == 5
            with pytest.raises(ValidationError):
                set_default_policy("nope")
        finally:
            set_default_policy(previous)


# ----------------------------------------------------------------------
# the fall-back to serial
class TestDegradation:
    def test_thread_backend_degrades_straight_to_serial(self):
        values, weights = _data()
        serial, fanout = _pair(values, policy=FAST)
        with fanout, faults.injected(FaultInjector(crash=1.0)):
            # Unbounded crashes: the thread pool fails out and the
            # serial rung — never injected — finishes the call.
            a = fanout.topk_batch(weights, 7)
            assert np.array_equal(serial.topk_batch(weights, 7).order, a.order)
            assert fanout._degraded == "serial"
            assert fanout._supervisor.stats["degradations"] == 1
            assert fanout._supervisor.stats["serial_units"] > 0
            # Sticky: the next call must not touch a pool.
            b = fanout.topk_batch(weights, 7)
        assert np.array_equal(a.order, b.order)
        assert fanout._parallel is None

    def test_degradation_survives_close(self):
        values, weights = _data()
        _, fanout = _pair(values, policy=FAST)
        with fanout, faults.injected(FaultInjector(crash=1.0)):
            fanout.topk_batch(weights, 7)
        fanout.close()
        assert fanout._degraded == "serial"
        assert not fanout._fans_out(weights.shape[0])

    def test_n_jobs_1_is_a_noop(self):
        values, weights = _data()
        engine = ScoreEngine(values, parallel_min_work=0, resilience=FAST)
        injector = FaultInjector(crash=1.0)
        with faults.injected(injector):
            engine.topk_batch(weights, 7)
        # Serial engines never fan out, so the harness never fires.
        assert injector.draws == 0
        assert engine._supervisor is None
        assert engine.stats["parallel_calls"] == 0


# ----------------------------------------------------------------------
# seeded-fault hypothesis sweep: any schedule, still bit-identical
class TestSeededFaultSweep:
    @given(seed=st.integers(0, 2**16), crash=st.floats(0.0, 0.8))
    @settings(max_examples=15, deadline=None)
    def test_any_fault_schedule_is_bit_identical(self, seed, crash):
        values, weights = _data(n=120, d=3, m=24, seed=11)
        serial, fanout = _pair(values, policy=FAST)
        injector = FaultInjector(seed=seed, crash=crash, max_faults=4)
        try:
            with faults.injected(injector):
                a = serial.topk_batch(weights, 5)
                b = fanout.topk_batch(weights, 5)
            assert np.array_equal(a.order, b.order)
            assert np.array_equal(a.members, b.members)
        finally:
            fanout.close()


# ----------------------------------------------------------------------
# persisted tuning profiles: checksums, atomicity, recovery
class TestProfileIntegrity:
    def test_round_trip_with_checksum(self, tmp_path):
        profile = TuningProfile()
        path = tmp_path / "profile.json"
        profile.save(path)
        payload = json.loads(path.read_text())
        assert "checksum" in payload
        assert TuningProfile.load(path) == profile

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "profile.json"
        TuningProfile().save(path)
        TuningProfile().save(path)  # overwrite goes through os.replace too
        assert os.listdir(tmp_path) == ["profile.json"]

    def test_torn_json_raises_typed_error(self, tmp_path):
        path = tmp_path / "profile.json"
        text = TuningProfile().to_json()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CorruptStateError):
            TuningProfile.load(path)

    def test_checksum_mismatch_raises_typed_error(self, tmp_path):
        path = tmp_path / "profile.json"
        TuningProfile().save(path)
        payload = json.loads(path.read_text())
        payload["chunk_bytes"] = int(payload["chunk_bytes"]) * 2
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptStateError):
            TuningProfile.load(path)

    def test_legacy_profile_without_checksum_loads(self, tmp_path):
        path = tmp_path / "profile.json"
        profile = TuningProfile()
        payload = json.loads(profile.to_json())
        payload.pop("checksum")
        path.write_text(json.dumps(payload))
        assert TuningProfile.load(path) == profile

    def test_cli_runs_on_defaults_with_torn_profile(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["represent", "--n", "200", "--d", "3", "--k", "0.05"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        path = tmp_path / "profile.json"
        text = TuningProfile().to_json()
        path.write_bytes(text[: len(text) // 2].encode())
        torn = path.read_bytes()
        assert main([*argv, "--tuning-profile", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # the defaults, same answer
        assert captured.err.count("failed its integrity check") == 1
        # The torn file is left as it was: nothing recalibrates or rewrites it.
        assert path.read_bytes() == torn
        assert os.listdir(tmp_path) == ["profile.json"]


# ----------------------------------------------------------------------
# journal invariants
class TestJournalIntegrity:
    def test_corrupted_live_array_fails_typed(self):
        engine = ScoreEngine(np.random.default_rng(0).random((50, 3)))
        engine.insert_rows(np.full((2, 3), 0.5))
        # Simulate internal corruption: a live slot beyond the journal.
        engine._live = np.array([0, 1, 999], dtype=np.int64)
        engine.n = 3
        with pytest.raises(CorruptStateError):
            engine.compact()

    def test_unsorted_live_array_fails_typed(self):
        engine = ScoreEngine(np.random.default_rng(0).random((50, 3)))
        engine.delete_rows([4])
        engine._live = engine._live[::-1].copy()
        with pytest.raises(CorruptStateError):
            engine.compact()


# ----------------------------------------------------------------------
# typed input validation at the public boundary
class TestInvalidDataError:
    def test_score_engine_rejects_nan_and_inf(self):
        bad = np.random.default_rng(0).random((10, 3))
        bad[3, 1] = np.nan
        with pytest.raises(InvalidDataError):
            ScoreEngine(bad)
        bad[3, 1] = np.inf
        with pytest.raises(InvalidDataError):
            ScoreEngine(bad)

    def test_score_engine_rejects_non_numeric(self):
        with pytest.raises(InvalidDataError):
            ScoreEngine(np.array([["a", "b"], ["c", "d"]]))

    def test_mdrc_rejects_nan(self):
        from repro.core.mdrc import mdrc

        bad = np.random.default_rng(0).random((20, 3))
        bad[0, 0] = np.nan
        with pytest.raises(InvalidDataError):
            mdrc(bad, 3)

    def test_sample_ksets_rejects_nan(self):
        from repro.geometry.ksets import sample_ksets

        bad = np.random.default_rng(0).random((20, 3))
        bad[5, 2] = np.inf
        with pytest.raises(InvalidDataError):
            sample_ksets(bad, 3, max_draws=5)

    def test_dataset_load_rejects_nan(self, tmp_path):
        from repro.datasets.io import load_csv

        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\nnan,4.0\n")
        with pytest.raises(InvalidDataError):
            load_csv(path)

    def test_insert_rows_rejects_nan(self):
        engine = ScoreEngine(np.random.default_rng(0).random((10, 3)))
        with pytest.raises(InvalidDataError):
            engine.insert_rows(np.array([[0.1, np.nan, 0.3]]))

    def test_invalid_data_error_is_a_validation_error(self):
        # Back-compat: callers catching ValidationError keep working.
        assert issubclass(InvalidDataError, ValidationError)


# ----------------------------------------------------------------------
# CLI flags
class TestCliResilienceFlags:
    def test_flags_parse_and_install_policy(self):
        from repro.cli import _apply_resilience_flags, build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["represent", "--n", "50", "--timeout", "3.5", "--max-retries", "4"]
        )
        previous = get_default_policy()
        try:
            _apply_resilience_flags(args)
            policy = get_default_policy()
            assert policy.timeout_s == 3.5
            assert policy.max_retries == 4
        finally:
            set_default_policy(previous)

    def test_flags_default_to_noop(self):
        from repro.cli import _apply_resilience_flags, build_parser

        args = build_parser().parse_args(["represent", "--n", "50"])
        previous = get_default_policy()
        _apply_resilience_flags(args)
        assert get_default_policy() is previous
