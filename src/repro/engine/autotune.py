"""Calibration-based autotuning for :class:`~repro.engine.ScoreEngine`.

Every perf-relevant constant the engine used to hard-code — GEMM chunk
sizes, the serial/parallel cutover, fan-out granularity, the quantized
and scalar routing caps, the adaptive-policy thresholds — was hand-tuned
on one sandbox and silently wrong everywhere else: a laptop with a small
L3, a 64-core server, a container pinned to one CPU and a BLAS that
spawns its own threads all want different numbers.  This module replaces
those module constants with a per-engine :class:`TuningProfile` and
derives one from a **calibration probe**: a sub-second micro-benchmark
run against *this* machine and *this* matrix that measures

* GEMM throughput (seconds per score-matrix entry) and per-call
  overhead, which set the column chunk size and the score-buffer size of
  the fused rank-counting loop;
* pool-dispatch latency, which sets the serial cutover (a call only
  fans out once its serial GEMM time dwarfs the cost of shipping work
  units) and the work-unit granularity;
* the scalar-fallback kernel's cost relative to a GEMM column, which
  sets how eagerly the rank path engages the quantized screen (the
  screen pays by eliminating full-matrix rescans — its trigger should
  track how expensive those rescans actually are);
* integer-carrier vs float GEMM throughput, which prices the quantized
  tier's extra passes.

Exactness is never at stake: every knob in a profile changes *who does
the work* — chunk layout, routing, which tier attempts a decision first
— while the engine's ulp-band / exact-fallback machinery keeps results
bit-identical to the scalar path for **any** profile, however
pathological (the test suite pins this).  The truly semantic constants
are deliberately *not* tunable: the band widths and the float32 range
guard live in :mod:`repro.engine.bands`, the quantization slack in
:mod:`repro.engine.quantize`.

The small-call cutover (``score_engine._SCALAR_MAX_WORK``) is a module
constant too, though it only routes work.  It compares two per-call
costs that are both mostly numpy dispatch on the same host — the
ladder's fixed overhead against one GEMV per function — so the probe's
throughput and latency figures would not move it much, and its measured
break-evens (about m = 8 at 20k rows, 90k rows at m = 1) sit well
above it.  A field would add a knob to every saved profile for no
measured gain; re-measure it by timing small calls on both kernels.

Profiles serialize to JSON (:meth:`TuningProfile.save` /
:meth:`TuningProfile.load`), so a service calibrates once and restarts
with ``--tuning-profile profile.json`` instead of re-probing.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.engine.parallel import DEFAULT_MIN_PARALLEL_WORK
from repro.exceptions import CorruptStateError


def _payload_checksum(payload: dict) -> str:
    """sha256 over the canonical (sorted, JSON-native) profile payload.

    The payload is round-tripped through JSON before hashing so the
    write-time hash (computed on Python objects) and the load-time hash
    (computed on reparsed JSON values) see byte-identical input.
    """
    canonical = json.loads(json.dumps(payload, default=str))
    body = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()

__all__ = ["TuningProfile", "calibrate_engine"]

# Fields that earlier versions wrote for a process-pool backend that no
# longer exists.  ``from_json`` drops them after the checksum check, so
# profiles saved before (and snapshots that pin one) still load.
_RETIRED_FIELDS = ("backend_escalate_ratio", "backend_min_sample", "initial_backend")

# Probe workload caps: the calibration GEMMs never exceed this many data
# rows / weight columns, so the probe stays sub-second on any matrix.
_PROBE_ROWS = 8192
_PROBE_COLS = 64

# Chunk-size candidates tried by the probe (bytes of one float64 score
# chunk).  The hand-tuned legacy value sits in the middle.
_CHUNK_CANDIDATES = (1 << 24, 1 << 26, 1 << 28)
_RANK_BUFFER_CANDIDATES = (1 << 21, 1 << 23, 1 << 25)


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


@dataclass(frozen=True)
class TuningProfile:
    """Every tunable runtime constant of one :class:`ScoreEngine`.

    The defaults reproduce the legacy hand-tuned module constants
    exactly, so ``ScoreEngine(values)`` (``tune=None``) behaves as it
    always did; :func:`calibrate_engine` derives machine- and
    matrix-specific values.  All fields are performance knobs only —
    any profile yields bit-identical results.

    Attributes
    ----------
    chunk_bytes:
        Target byte size of one float64 score chunk; the weight batch is
        processed ``chunk_bytes / (8n)`` columns at a time.
    parallel_min_work:
        Serial fast-path cutover in score-matrix entries (``n * m``);
        bulk calls below it never touch a worker pool.
    units_per_worker:
        Work units per worker per parallel call — slack for the pool to
        balance uneven chunks against dispatch overhead.
    rank_buffer_bytes:
        Target float32 score-buffer size of one fused rank-count chunk
        (sized to sit in cache so threshold passes read hot data).
    rank_grid_base:
        Base of the doubling prefix-size grid used to group rank-count
        functions onto shared GEMMs.
    quant_rank_cap:
        Rank counting: a function whose integer-envelope band exceeds
        this many rows is promoted to the float tiers.
    quant_scalar_promote:
        Top-k: promoted sets at or below this size skip the batch tiers
        for the scalar kernel directly.
    rank_quant_fallback_ratio / rank_quant_min_sample:
        The rank path engages the quantized screen once the float path
        has dropped more than this fraction of at least ``min_sample``
        counted functions to the exact scalar kernel.
    quant_promote_window / quant_promote_limit:
        The quantizer's adaptive level policy: after ``window`` screened
        columns, a promote rate above ``limit`` upgrades
        int8 → int16 → off.
    meta:
        Free-form provenance (probe measurements, machine info).  Never
        read by the engine; survives JSON round-trips.
    """

    chunk_bytes: int = 1 << 26
    parallel_min_work: int = DEFAULT_MIN_PARALLEL_WORK
    units_per_worker: int = 4
    rank_buffer_bytes: int = 1 << 23
    rank_grid_base: int = 128
    quant_rank_cap: int = 256
    quant_scalar_promote: int = 16
    rank_quant_fallback_ratio: float = 0.02
    rank_quant_min_sample: int = 64
    quant_promote_window: int = 512
    quant_promote_limit: float = 0.25
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        # Coerce and store: a JSON profile (the hand-editable restart
        # surface) can carry 8388608.0 where an int is meant — validated
        # -but-uncoerced floats would crash much later inside range()/
        # slicing in the hot kernels.  Non-integral values are rejected.
        for name, floor in (
            ("chunk_bytes", 1),
            ("units_per_worker", 1),
            ("rank_buffer_bytes", 1),
            ("rank_grid_base", 1),
            ("quant_rank_cap", 1),
            ("quant_scalar_promote", 1),
            ("quant_promote_window", 1),
            ("parallel_min_work", 0),
            ("rank_quant_min_sample", 0),
        ):
            raw = getattr(self, name)
            value = int(raw)
            if value != raw:
                raise ValueError(f"TuningProfile.{name} must be an integer, got {raw!r}")
            if value < floor:
                raise ValueError(f"TuningProfile.{name} must be >= {floor}")
            object.__setattr__(self, name, value)
        for name in ("rank_quant_fallback_ratio", "quant_promote_limit"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"TuningProfile.{name} must be in [0, 1]")
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # JSON persistence
    def to_json(self) -> str:
        payload = {"schema": 1, **asdict(self)}
        payload["checksum"] = _payload_checksum(payload)
        return json.dumps(payload, indent=2, default=str) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TuningProfile":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CorruptStateError(
                f"tuning profile is not valid JSON (torn write?): {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise CorruptStateError(
                f"tuning profile must be a JSON object, got {type(payload).__name__}"
            )
        stored = payload.pop("checksum", None)
        if stored is not None and stored != _payload_checksum(payload):
            raise CorruptStateError(
                "tuning profile failed its checksum (corrupted or hand-edited); "
                "delete the file or recalibrate to regenerate it"
            )
        payload.pop("schema", None)
        for name in _RETIRED_FIELDS:
            payload.pop(name, None)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown TuningProfile fields: {sorted(unknown)}")
        return cls(**payload)

    def save(self, path) -> None:
        """Atomically persist the profile (temp file + ``os.replace``).

        A crash mid-write can therefore never leave a torn file behind:
        readers see either the previous profile or the complete new one.
        """
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".tuning-", suffix=".json.tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(self.to_json())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            # Durable-rename discipline: fsync the directory too, or a
            # machine-level crash can undo the replace (losing the rename
            # even though the file's bytes were synced).
            from repro.engine.wal import _fsync_dir

            _fsync_dir(directory)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - already replaced/removed
                pass
            raise

    @classmethod
    def load(cls, path) -> "TuningProfile":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def with_meta(self, **entries) -> "TuningProfile":
        return replace(self, meta={**self.meta, **entries})


# ----------------------------------------------------------------------
# Probe primitives.  Each measurement repeats within a small budget and
# keeps the *minimum* wall time — the least-interfered-with run is the
# best estimate of the machine's actual cost.
def _min_time(fn, budget_s: float, min_repeats: int = 3) -> float:
    best = np.inf
    deadline = time.perf_counter() + budget_s
    repeats = 0
    while repeats < min_repeats or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        repeats += 1
        if repeats >= 64:
            break
    return max(best, 1e-9)


def _probe_gemm(V: np.ndarray, W: np.ndarray, budget_s: float) -> tuple[float, float]:
    """(seconds per score entry, seconds of per-call overhead)."""
    out = np.empty((V.shape[0], W.shape[0]))
    t_full = _min_time(lambda: np.matmul(V, W.T, out=out), budget_s)
    tiny_out = np.empty((min(V.shape[0], 64), 1))
    tiny_V = V[: tiny_out.shape[0]]
    tiny_W = W[:1]
    t_call = _min_time(lambda: np.matmul(tiny_V, tiny_W.T, out=tiny_out), budget_s / 2)
    per_entry = max(t_full - t_call, t_full * 0.5) / (V.shape[0] * W.shape[0])
    return per_entry, t_call


def _probe_dispatch(budget_s: float) -> float:
    """Round-trip latency of one thread-pool work unit."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(int).result()  # warm the worker thread

        def roundtrip() -> None:
            pool.submit(int).result()

        return _min_time(roundtrip, budget_s)


def _probe_chunk_bytes(V: np.ndarray, d: int, n: int, budget_s: float) -> int:
    """The chunk-size candidate with the best measured GEMM throughput.

    Chunk width only differentiates once ``chunk_bytes / (8n)`` changes
    across candidates; on small matrices every candidate collapses to
    the same width and the legacy default wins by the hysteresis rule.
    """
    rows = V.shape[0]
    timings: list[tuple[float, int]] = []
    rng = np.random.default_rng(0)
    for candidate in _CHUNK_CANDIDATES:
        cols = max(1, candidate // (8 * n))
        cols = min(cols, 4 * _PROBE_COLS)  # keep the probe GEMM bounded
        W = rng.standard_normal((cols, d))
        out = np.empty((rows, cols))
        t = _min_time(
            lambda V=V, W=W, out=out: np.matmul(V, W.T, out=out),
            budget_s / len(_CHUNK_CANDIDATES),
        )
        timings.append((t / (rows * cols), candidate))
    best_per_entry = min(t for t, _ in timings)
    default_entry = next(t for t, c in timings if c == 1 << 26)
    # 5% hysteresis toward the legacy default: only move for a real win.
    if default_entry <= best_per_entry * 1.05:
        return 1 << 26
    return min(c for t, c in timings if t <= best_per_entry * 1.02)


def _probe_rank_buffer(budget_s: float) -> int:
    """Largest buffer whose threshold-scan throughput is near the best.

    The fused rank loop wants the biggest buffer that still scans at
    cache speed: bigger buffers amortize Python loop overhead, but past
    the cache the scan drops to memory bandwidth.
    """
    rng = np.random.default_rng(0)
    timings: list[tuple[float, int]] = []
    for candidate in _RANK_BUFFER_CANDIDATES:
        buf = rng.standard_normal(candidate // 4).astype(np.float32)
        t = _min_time(
            lambda buf=buf: (buf > 0.5).sum(), budget_s / len(_RANK_BUFFER_CANDIDATES)
        )
        timings.append((t / buf.size, candidate))
    best = min(t for t, _ in timings)
    eligible = [c for t, c in timings if t <= best * 1.10]
    return max(eligible)


def _probe_scalar_column(values: np.ndarray, budget_s: float) -> float:
    """Cost of one scalar-fallback column: float64 GEMV + over-select."""
    rng = np.random.default_rng(0)
    w = rng.random(values.shape[1])
    n = values.shape[0]
    k = min(16, n)

    def fallback() -> None:
        score = values @ w
        if k >= n:
            candidates = np.arange(n)
        else:
            kth = np.partition(score, n - k)[n - k]
            candidates = np.flatnonzero(score >= kth)
        np.lexsort((candidates, -score[candidates]))

    return _min_time(fallback, budget_s)


def _probe_quant_ratio(V: np.ndarray, d: int, budget_s: float) -> float:
    """Integer-carrier GEMM time relative to the float32 GEMM."""
    rng = np.random.default_rng(0)
    rows = V.shape[0]
    Q = np.rint(rng.uniform(-127, 127, size=(rows, d + 1))).astype(np.float32)
    Wq = np.rint(rng.uniform(-127, 127, size=(_PROBE_COLS, d + 1))).astype(np.float32)
    V32 = V.astype(np.float32)
    W32 = rng.standard_normal((_PROBE_COLS, d)).astype(np.float32)
    t_int = _min_time(lambda: Wq @ Q.T, budget_s / 2)
    t_f32 = _min_time(lambda: W32 @ V32.T, budget_s / 2)
    return t_int / max(t_f32, 1e-9)


def calibrate_engine(engine, budget_s: float = 0.25) -> TuningProfile:
    """Measure this machine + matrix and derive a :class:`TuningProfile`.

    ``budget_s`` bounds the *per-measurement* probe budget; the whole
    calibration stays within a small multiple of it.  The derivations:

    * ``chunk_bytes`` — the candidate chunk size with the best measured
      GEMM throughput on the engine's own rows (5% hysteresis toward
      the legacy default);
    * ``parallel_min_work`` — fan-out only pays once the serial GEMM
      time is ≥ ~16 pool round-trips per worker, so the cutover is
      ``16 · n_jobs · t_dispatch / sec_per_entry``;
    * ``units_per_worker`` — as many balancing units as keep one unit's
      GEMM ≥ ~20 dispatches;
    * ``rank_buffer_bytes`` — the largest buffer that still threshold-
      scans at near-peak (cache) speed;
    * ``rank_quant_fallback_ratio`` — the quantized screen's trigger
      tracks its price: the cheaper the integer GEMM relative to
      float32, the earlier it engages;
    * ``quant_rank_cap`` / ``quant_scalar_promote`` — sized from the
      measured per-call overhead vs per-entry throughput (how many
      gathered rows cost as much as the batch-tier setup they avoid).

    The profile is returned, not applied — callers use
    :meth:`ScoreEngine.calibrate` (which applies it) or persist it via
    :meth:`TuningProfile.save`.
    """
    values = engine.values
    n, d = values.shape
    rng = np.random.default_rng(0)
    V = np.ascontiguousarray(values[: min(n, _PROBE_ROWS)])
    W = rng.standard_normal((_PROBE_COLS, d))

    sec_per_entry, t_call = _probe_gemm(V, W, budget_s)
    t_dispatch = _probe_dispatch(budget_s / 2)
    chunk_bytes = _probe_chunk_bytes(V, d, n, budget_s)
    rank_buffer_bytes = _probe_rank_buffer(budget_s / 2)
    t_scalar = _probe_scalar_column(values if n <= _PROBE_ROWS else V, budget_s / 2)
    quant_ratio = _probe_quant_ratio(V, d, budget_s / 2)

    n_jobs = max(1, getattr(engine, "n_jobs", 1))
    t_gemm_col = n * sec_per_entry

    parallel_min_work = int(
        _clamp(16.0 * n_jobs * t_dispatch / sec_per_entry, 1 << 18, 1 << 27)
    )
    units_per_worker = int(
        _clamp(
            parallel_min_work * sec_per_entry / (20.0 * t_dispatch * n_jobs),
            2,
            8,
        )
    )
    # The screen's extra cost per function is roughly (quant_ratio - 1)
    # float32-GEMM equivalents plus two threshold passes; each avoided
    # fallback saves one full scalar rescan.  Engage once the measured
    # fallback rate covers that price (never below 0.5%, never above 10%).
    screen_extra = max(quant_ratio - 1.0, 0.0) + 0.5
    rank_quant_fallback_ratio = _clamp(
        screen_extra * t_gemm_col / max(t_scalar, 1e-9) * 0.01, 0.005, 0.10
    )
    # How many exactly-rescored rows cost as much as one batch-tier setup
    # (a per-call overhead plus a probe GEMM): route small candidate sets
    # straight to the gather/scalar finishes.
    rows_per_call = t_call / max(sec_per_entry * max(d, 1), 1e-12)
    quant_scalar_promote = int(_clamp(rows_per_call / 8.0, 4, 64))
    quant_rank_cap = int(_clamp(rows_per_call * 2.0, 64, 2048))

    profile = TuningProfile(
        chunk_bytes=chunk_bytes,
        parallel_min_work=parallel_min_work,
        units_per_worker=units_per_worker,
        rank_buffer_bytes=rank_buffer_bytes,
        quant_rank_cap=quant_rank_cap,
        quant_scalar_promote=quant_scalar_promote,
        rank_quant_fallback_ratio=rank_quant_fallback_ratio,
        meta={
            "calibrated": True,
            "n": int(n),
            "d": int(d),
            "float32": bool(engine.float32),
            "n_jobs": int(n_jobs),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "sec_per_entry": float(sec_per_entry),
            "t_call_s": float(t_call),
            "t_dispatch_s": float(t_dispatch),
            "t_scalar_column_s": float(t_scalar),
            "quant_gemm_ratio": float(quant_ratio),
        },
    )
    return profile
