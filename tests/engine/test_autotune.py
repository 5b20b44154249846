"""Tests for the calibration-based autotuner.

The load-bearing property mirrors the engine-wide exactness contract:
a :class:`TuningProfile` only moves work between tiers, chunk layouts
and pools — ANY profile, including pathological ones (1-byte chunks,
1-row caps, always-on or never-on policies), must leave every query
bit-identical to the default-profile engine and to the scalar path.
Alongside: JSON round-trips, validation, the calibration probe's
output ranges, and the plumbing (engine adoption, worker configs,
consumer ``tune=`` forwarding).
"""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ScoreEngine, TuningProfile, calibrate_engine
from repro.engine.autotune import _payload_checksum
from repro.exceptions import CorruptStateError, ValidationError
from repro.ranking import sample_functions
from repro.ranking.topk import top_k

PATHOLOGICAL_PROFILES = [
    # Everything minimal: 1-byte chunks, tiny buffers, immediate policies.
    TuningProfile(
        chunk_bytes=1,
        parallel_min_work=0,
        units_per_worker=1,
        rank_buffer_bytes=1,
        rank_grid_base=1,
        quant_rank_cap=1,
        quant_scalar_promote=1,
        rank_quant_fallback_ratio=0.0,
        rank_quant_min_sample=0,
    ),
    # Everything maximal: huge chunks, never-engage policies.
    TuningProfile(
        chunk_bytes=1 << 40,
        parallel_min_work=1 << 60,
        units_per_worker=64,
        rank_buffer_bytes=1 << 34,
        rank_grid_base=4096,
        quant_rank_cap=10**9,
        quant_scalar_promote=10**9,
        rank_quant_fallback_ratio=1.0,
        rank_quant_min_sample=10**9,
        quant_promote_window=1,
        quant_promote_limit=0.0,
    ),
    # Skewed middle ground.
    TuningProfile(
        chunk_bytes=1 << 10,
        rank_grid_base=2,
        quant_rank_cap=3,
        quant_scalar_promote=2,
        quant_promote_window=2,
        quant_promote_limit=0.5,
    ),
]


def _assert_profile_exact(values, weights, k, subset, profile, **kwargs):
    tuned = ScoreEngine(values, tune=profile, **kwargs)
    default = ScoreEngine(values, **kwargs)
    got = tuned.topk_batch(weights, k)
    want = default.topk_batch(weights, k)
    assert np.array_equal(got.order, want.order), "profile changed top-k results"
    assert np.array_equal(got.members, want.members)
    assert np.array_equal(
        tuned.rank_of_best_batch(weights, subset),
        default.rank_of_best_batch(weights, subset),
    ), "profile changed rank counts"
    for i, w in enumerate(weights[:4]):
        assert np.array_equal(got.order[i], top_k(values, w, k))
    tuned.close()
    default.close()


class TestProfileExactness:
    @pytest.mark.parametrize("profile", PATHOLOGICAL_PROFILES)
    @pytest.mark.parametrize("quantize", [None, "int8"])
    def test_pathological_profiles_bit_identical(self, rng, profile, quantize):
        values = rng.random((150, 3))
        weights = sample_functions(3, 60, 0)
        _assert_profile_exact(values, weights, 7, [2, 9, 100], profile, quantize=quantize)

    @pytest.mark.parametrize("profile", PATHOLOGICAL_PROFILES)
    def test_pathological_profiles_on_degenerate_data(self, profile):
        # Ties, duplicates and denormal scales through every tier.
        values = np.repeat(np.arange(10, dtype=np.float64).reshape(5, 2), 4, axis=0)
        values = values * 1e-310
        weights = sample_functions(2, 40, 1)
        _assert_profile_exact(values, weights, 3, [0, 19], profile)

    @settings(max_examples=20, deadline=None)
    @given(
        chunk_bytes=st.integers(min_value=1, max_value=1 << 30),
        grid=st.integers(min_value=1, max_value=512),
        cap=st.integers(min_value=1, max_value=1 << 20),
        promote=st.integers(min_value=1, max_value=256),
        ratio=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_random_profiles_bit_identical(self, chunk_bytes, grid, cap, promote, ratio):
        profile = TuningProfile(
            chunk_bytes=chunk_bytes,
            rank_grid_base=grid,
            quant_rank_cap=cap,
            quant_scalar_promote=promote,
            rank_quant_fallback_ratio=ratio,
            rank_quant_min_sample=0,
        )
        rng = np.random.default_rng(7)
        values = rng.integers(0, 3, size=(60, 3)).astype(np.float64)
        weights = sample_functions(3, 24, 2)
        _assert_profile_exact(values, weights, 4, [1, 30], profile)

    def test_parallel_backends_with_profile(self, rng):
        values = rng.random((200, 3))
        weights = sample_functions(3, 80, 3)
        profile = TuningProfile(parallel_min_work=0, units_per_worker=2)
        serial = ScoreEngine(values)
        for backend in ("auto", "thread"):
            with ScoreEngine(
                values, tune=profile, n_jobs=2, backend=backend
            ) as fanout:
                assert np.array_equal(
                    serial.topk_batch(weights, 6).order,
                    fanout.topk_batch(weights, 6).order,
                ), f"{backend} with profile diverged"


class TestTuningProfile:
    def test_defaults_match_legacy_constants(self):
        profile = TuningProfile()
        assert profile.chunk_bytes == 1 << 26
        assert profile.parallel_min_work == 1 << 23
        assert profile.units_per_worker == 4
        assert profile.rank_buffer_bytes == 1 << 23
        assert profile.rank_grid_base == 128
        assert profile.quant_rank_cap == 256
        assert profile.quant_scalar_promote == 16
        assert profile.rank_quant_fallback_ratio == 0.02

    def test_json_roundtrip(self, tmp_path):
        profile = TuningProfile(
            chunk_bytes=123456, rank_grid_base=99, meta={"note": "hi"}
        )
        path = tmp_path / "profile.json"
        profile.save(path)
        loaded = TuningProfile.load(path)
        assert loaded == profile
        assert loaded.meta == {"note": "hi"}
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1

    def test_rejects_unknown_fields_and_bad_values(self):
        with pytest.raises(ValueError):
            TuningProfile.from_json('{"nonsense": 1}')
        with pytest.raises(ValueError):
            TuningProfile(chunk_bytes=0)
        with pytest.raises(ValueError):
            TuningProfile(rank_quant_fallback_ratio=1.5)
        with pytest.raises(ValidationError):
            ScoreEngine(np.ones((3, 2)), tune="nonsense")

    def test_loads_profile_with_retired_backend_fields(self):
        # A profile as the process-pool versions saved it: 14 fields,
        # three of them for that backend, all covered by the checksum.
        payload = {
            "schema": 1,
            "chunk_bytes": 1 << 24,
            "parallel_min_work": 1 << 20,
            "units_per_worker": 3,
            "rank_buffer_bytes": 1 << 21,
            "rank_grid_base": 64,
            "quant_rank_cap": 512,
            "quant_scalar_promote": 8,
            "rank_quant_fallback_ratio": 0.03,
            "rank_quant_min_sample": 32,
            "backend_escalate_ratio": 0.05,
            "backend_min_sample": 4096,
            "initial_backend": "thread",
            "quant_promote_window": 256,
            "quant_promote_limit": 0.5,
            "meta": {"calibrated": True, "n": 300},
        }
        payload["checksum"] = _payload_checksum(payload)
        profile = TuningProfile.from_json(json.dumps(payload, indent=2))
        assert profile == TuningProfile(
            chunk_bytes=1 << 24,
            parallel_min_work=1 << 20,
            units_per_worker=3,
            rank_buffer_bytes=1 << 21,
            rank_grid_base=64,
            quant_rank_cap=512,
            quant_scalar_promote=8,
            rank_quant_fallback_ratio=0.03,
            rank_quant_min_sample=32,
            quant_promote_window=256,
            quant_promote_limit=0.5,
        )
        assert profile.meta == {"calibrated": True, "n": 300}
        assert [f.name for f in fields(TuningProfile)][-1] == "meta"
        assert len(fields(TuningProfile)) == 11 + 1  # constants + meta
        # The checksum still guards the retired fields, and any other
        # unknown field is still an error.
        payload["initial_backend"] = "process"
        with pytest.raises(CorruptStateError):
            TuningProfile.from_json(json.dumps(payload))
        del payload["checksum"]
        payload["nonsense"] = 1
        payload["checksum"] = _payload_checksum(payload)
        with pytest.raises(ValueError, match="nonsense"):
            TuningProfile.from_json(json.dumps(payload))

    def test_engine_adopts_profile_knobs(self, rng):
        values = rng.random((50, 3))
        profile = TuningProfile(
            chunk_bytes=8 * 50 * 3,  # 3 columns per chunk
            parallel_min_work=12345,
            quant_promote_window=77,
            quant_promote_limit=0.125,
        )
        engine = ScoreEngine(values, tune=profile)
        assert engine._chunk_cols == 3
        assert engine._parallel_min_work == 12345
        assert engine._quantizer.promote_window == 77
        assert engine._quantizer.promote_limit == 0.125
        # Explicit constructor overrides beat the profile.
        engine = ScoreEngine(values, tune=profile, chunk_bytes=1, parallel_min_work=0)
        assert engine._chunk_cols == 1
        assert engine._parallel_min_work == 0

    def test_worker_config_carries_profile(self, rng):
        profile = TuningProfile(rank_grid_base=64)
        engine = ScoreEngine(rng.random((20, 3)), tune=profile)
        assert engine._worker_config()["tune"] is profile


class TestCalibration:
    def test_calibrate_returns_sane_profile(self, rng):
        values = rng.random((300, 4))
        engine = ScoreEngine(values)
        profile = engine.calibrate(budget_s=0.02)
        assert engine.tuning is profile
        assert profile.meta["calibrated"] and profile.meta["n"] == 300
        assert profile.parallel_min_work >= 1 << 18
        assert 2 <= profile.units_per_worker <= 8
        assert 0.005 <= profile.rank_quant_fallback_ratio <= 0.10
        assert 4 <= profile.quant_scalar_promote <= 64
        assert 64 <= profile.quant_rank_cap <= 2048
        # The profile survives a JSON round-trip with meta intact.
        assert TuningProfile.from_json(profile.to_json()) == profile

    def test_tune_auto_calibrates_on_first_call(self, rng):
        values = rng.random((100, 3))
        weights = sample_functions(3, 30, 0)
        engine = ScoreEngine(values, tune="auto")
        assert engine._tune_pending
        got = engine.topk_batch(weights, 5)
        assert not engine._tune_pending
        assert engine.tuning.meta.get("calibrated")
        want = ScoreEngine(values).topk_batch(weights, 5)
        assert np.array_equal(got.order, want.order)

    def test_calibrated_profile_is_exact(self, rng):
        values = rng.random((120, 3))
        weights = sample_functions(3, 48, 4)
        engine = ScoreEngine(values)
        profile = calibrate_engine(engine, budget_s=0.02)
        _assert_profile_exact(values, weights, 5, [0, 60], profile)

    def test_calibrate_after_mutation_probes_current_matrix(self, rng):
        values = rng.random((80, 3))
        engine = ScoreEngine(values)
        engine.insert_rows(rng.random((20, 3)))
        profile = engine.calibrate(budget_s=0.02)
        assert profile.meta["n"] == 100  # probe saw the mutated matrix


class TestConsumerPlumbing:
    def test_mdrc_accepts_tune(self, rng):
        from repro.core import mdrc

        values = rng.random((120, 3))
        default = mdrc(values, 4)
        tuned = mdrc(values, 4, tune=PATHOLOGICAL_PROFILES[0])
        assert tuned.indices == default.indices

    def test_sample_ksets_accepts_tune(self, rng):
        from repro.geometry.ksets import sample_ksets

        values = rng.random((100, 3))
        default = sample_ksets(values, 5, patience=20, rng=0)
        tuned = sample_ksets(
            values, 5, patience=20, rng=0, tune=PATHOLOGICAL_PROFILES[0]
        )
        assert tuned.ksets == default.ksets and tuned.draws == default.draws

    def test_rank_regret_sampled_accepts_tune(self, rng):
        from repro.evaluation import rank_regret_sampled

        values = rng.random((90, 3))
        default = rank_regret_sampled(values, [1, 2], 200, rng=0)
        tuned = rank_regret_sampled(
            values, [1, 2], 200, rng=0, tune=PATHOLOGICAL_PROFILES[2]
        )
        assert tuned == default

    def test_cli_tuning_profile_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "tuning.json"
        assert main(
            [
                "represent",
                "--dataset",
                "dot",
                "--n",
                "200",
                "--d",
                "3",
                "--k",
                "0.05",
                "--tuning-profile",
                str(path),
            ]
        ) == 0
        first = capsys.readouterr().out
        assert path.exists()
        loaded = TuningProfile.load(path)
        assert loaded.meta.get("calibrated")
        # Second run loads the file and produces identical output.
        assert main(
            [
                "represent",
                "--dataset",
                "dot",
                "--n",
                "200",
                "--d",
                "3",
                "--k",
                "0.05",
                "--tuning-profile",
                str(path),
            ]
        ) == 0
        assert capsys.readouterr().out == first
