"""Failure behaviour at the engine's boundaries.

A fanned-out work unit that raises fails its call with its own
exception once every unit of the call has finished; nothing retries
it, the engine does not fall back to serial, and its next call is
bit-identical to a serial engine's.  A slow unit delays the call, not
the merge order.  Alongside: persisted tuning profiles are checksummed
and saved atomically, the mutation journal's invariants fail typed,
and unusable input data raises ``InvalidDataError`` at every public
boundary.  Units are failed or delayed through the ``unit_hook``
fixture (``tests/conftest.py``).
"""

import json
import os
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.engine import ScoreEngine, TuningProfile
from repro.engine.parallel import _chunk_bounds
from repro.exceptions import CorruptStateError, InvalidDataError, ValidationError
from repro.ranking import sample_functions
from repro.serve import ServerConfig


class UnitFailure(RuntimeError):
    """What a work unit failed by ``_Units`` raises."""


def _data(n=300, d=4, m=48, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, d)), sample_functions(d, m, rng)


def _pair(values, n_jobs=2, **kwargs):
    serial = ScoreEngine(values)
    fanout = ScoreEngine(values, n_jobs=n_jobs, parallel_min_work=0, **kwargs)
    return serial, fanout


class _Units:
    """A ``unit_hook`` that fails or delays chosen work units.

    A unit is named by the row of ``W`` its function chunk starts at;
    ``runs`` counts how often each one ran.
    """

    def __init__(self, W, fail=(), delay=()):
        self.W, self.fail, self.delay = W, set(fail), set(delay)
        self.runs = Counter()
        self._lock = threading.Lock()

    def __call__(self, kind, weights):
        start = int(np.flatnonzero((self.W == weights[0]).all(axis=1))[0])
        with self._lock:
            self.runs[start] += 1
        if start in self.delay:
            time.sleep(0.2)
        if start in self.fail:
            raise UnitFailure(f"{kind} unit at row {start}")


# ----------------------------------------------------------------------
# a failed or slow unit, then the next call
class TestRecoveryBitIdentity:
    @pytest.mark.parametrize("jobs", [2], ids=["thread"])
    @pytest.mark.parametrize("kind", ["crash", "hang"])
    def test_topk_and_rank_recover(self, jobs, kind, unit_hook):
        """``crash``: a raising unit fails top-k and rank with its own
        exception, and the engine's next calls still fan out and match
        the serial engine.  ``hang``: the first unit is held back while
        later ones finish, and the merge still puts its functions
        first."""
        values, weights = _data()
        serial, fanout = _pair(values, jobs)
        members = [0, 150, 299]
        units = _Units(weights, **{"fail" if kind == "crash" else "delay": {0}})
        with fanout, unit_hook(units):
            if kind == "crash":
                with pytest.raises(UnitFailure, match="topk unit at row 0"):
                    fanout.topk_batch(weights, 7)
                with pytest.raises(UnitFailure, match="rank unit at row 0"):
                    fanout.rank_of_best_batch(weights, members)
                units.fail.clear()
            b = fanout.topk_batch(weights, 7)
            rb = fanout.rank_of_best_batch(weights, members)
        a = serial.topk_batch(weights, 7)
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(serial.rank_of_best_batch(weights, members), rb)
        assert fanout.stats["parallel_calls"] == (4 if kind == "crash" else 2)
        assert units.runs[0] == fanout.stats["parallel_calls"]

    @pytest.mark.parametrize("jobs", [2], ids=["thread"])
    def test_score_batch_recovers(self, jobs, unit_hook):
        values, weights = _data()
        serial = ScoreEngine(values, chunk_bytes=1)
        fanout = ScoreEngine(values, n_jobs=jobs, parallel_min_work=0, chunk_bytes=1)
        units = _Units(weights, fail={0})
        with fanout, unit_hook(units):
            with pytest.raises(UnitFailure, match="score unit at row 0"):
                fanout.score_batch(weights)
            units.fail.clear()
            assert np.array_equal(serial.score_batch(weights), fanout.score_batch(weights))
        assert fanout.stats["parallel_calls"] == 2


# ----------------------------------------------------------------------
# no retry, no backoff, no policy
class TestRetryAndBackoff:
    def test_fail_fast_raises_typed_crash_error(self, unit_hook):
        """Every unit fails: each ran once, none was retried, and the
        call raises the first failure in chunk order, unwrapped."""
        values, weights = _data()
        _, fanout = _pair(values)
        starts = [lo for lo, _ in _chunk_bounds(len(weights), 2)]
        units = _Units(weights, fail=starts)
        with fanout, unit_hook(units):
            with pytest.raises(UnitFailure, match="topk unit at row 0$"):
                fanout.topk_batch(weights, 7)
        assert units.runs == Counter(dict.fromkeys(starts, 1))

    def test_policy_validation(self):
        """The fan-out takes no supervision policy: every function that
        used to accept ``policy=`` refuses it."""
        values = np.random.default_rng(1).random((30, 3))
        subset = [0, 1, 2]
        calls = [
            lambda: repro.mdrc(values, 3, policy=None),
            lambda: repro.md_rrr(values, 3, rng=0, policy=None),
            lambda: repro.collect_ksets(values, 3, rng=0, policy=None),
            lambda: repro.sample_ksets(values, 3, rng=0, policy=None),
            lambda: repro.rank_regret_sampled(values, subset, policy=None),
            lambda: repro.regret_ratio_sampled(values, subset, policy=None),
            lambda: repro.evaluate_representative(values, subset, 3, policy=None),
            lambda: repro.rank_regret_representative(values, 3, policy=None),
            lambda: ServerConfig(policy=None),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="policy"):
                call()


# ----------------------------------------------------------------------
# a serial engine stays serial
class TestDegradation:
    def test_n_jobs_1_is_a_noop(self, unit_hook):
        values, weights = _data()
        engine = ScoreEngine(values, parallel_min_work=0)
        units = _Units(weights, fail={0})
        with unit_hook(units):
            engine.topk_batch(weights, 7)
        # Serial engines never fan out, so no unit runs.
        assert not units.runs
        assert engine._parallel is None
        assert engine.stats["parallel_calls"] == 0


# ----------------------------------------------------------------------
# seeded sweep: any set of failing units, then an exact next call
class TestSeededFaultSweep:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_any_fault_schedule_is_bit_identical(self, data, unit_hook):
        values, weights = _data(n=120, d=3, m=24, seed=11)
        serial, fanout = _pair(values)
        starts = [lo for lo, _ in _chunk_bounds(len(weights), 2)]
        fail = data.draw(st.sets(st.sampled_from(starts)))
        units = _Units(weights, fail=fail)
        a = serial.topk_batch(weights, 5)
        with fanout, unit_hook(units):
            if fail:
                with pytest.raises(UnitFailure, match=f"row {min(fail)}$"):
                    fanout.topk_batch(weights, 5)
                units.fail.clear()
            b = fanout.topk_batch(weights, 5)
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.members, b.members)
        assert all(units.runs[lo] == (2 if fail else 1) for lo in starts)


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
