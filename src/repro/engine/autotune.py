"""Runtime tuning for :class:`~repro.engine.ScoreEngine`.

Every perf-relevant constant of the engine — GEMM chunk sizes, the
serial/parallel cutover, fan-out granularity, the rank-count buffer and
grid, the top-k scalar promotion cap, the quantizer's adaptive
switch-off — lives in one per-engine :class:`TuningProfile`.  Its defaults
are the hand-tuned values the engine has always used; a caller who
wants other numbers sets them by hand or loads a saved profile
(``tune=profile``).

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
ladder's fixed overhead against one GEMV per function — and its
measured break-evens (about m = 8 at 20k rows, 90k rows at m = 1) sit
well above it.  A field would add a knob to every saved profile for no
measured gain; re-measure it by timing small calls on both kernels.

Profiles serialize to checksummed JSON (:meth:`TuningProfile.save` /
:meth:`TuningProfile.load`); :func:`load_profile` is the one loader the
CLI's ``--tuning-profile`` and the server share.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field

from repro.engine.parallel import DEFAULT_MIN_PARALLEL_WORK
from repro.exceptions import CorruptStateError, ValidationError


def _payload_checksum(payload: dict) -> str:
    """sha256 over the canonical (sorted, JSON-native) profile payload.

    The payload is round-tripped through JSON before hashing so the
    write-time hash (computed on Python objects) and the load-time hash
    (computed on reparsed JSON values) see byte-identical input.
    """
    canonical = json.loads(json.dumps(payload, default=str))
    body = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()

__all__ = ["TuningProfile", "load_profile"]

# Fields that earlier versions wrote for a process-pool backend and for a
# quantized rank screen, neither of which exists any more.  ``from_json``
# drops them after the checksum check, so profiles saved before (and
# snapshots that pin one) still load.  The numeric ones must still hold a
# finite number, as a live field must: a hand-edit that breaks one is
# rejected, not silently dropped.
_RETIRED_NUMBERS = (
    "backend_escalate_ratio",
    "backend_min_sample",
    "quant_rank_cap",
    "rank_quant_fallback_ratio",
    "rank_quant_min_sample",
)
_RETIRED_FIELDS = _RETIRED_NUMBERS + ("initial_backend",)


def _finite_number(name: str, raw):
    """``raw`` if it is a finite real number (bools excluded)."""
    if (
        isinstance(raw, bool)
        or not isinstance(raw, numbers.Real)
        or not (isinstance(raw, numbers.Integral) or math.isfinite(raw))
    ):
        raise ValueError(f"TuningProfile.{name} must be a finite number, got {raw!r}")
    return raw


@dataclass(frozen=True)
class TuningProfile:
    """Every tunable runtime constant of one :class:`ScoreEngine`.

    The defaults reproduce the legacy hand-tuned module constants
    exactly, so ``ScoreEngine(values)`` (``tune=None``) behaves as it
    always did.  All fields are performance knobs only — any profile
    yields bit-identical results.

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
    quant_scalar_promote:
        Top-k: promoted sets at or below this size skip the float64
        batch tier for the scalar kernel directly.
    quant_promote_window / quant_promote_limit:
        The quantizer's adaptive switch-off: after ``window`` screened
        columns, a promote rate above ``limit`` turns the int16 screen
        off for the engine's lifetime.
    meta:
        Free-form provenance (a dict: who set the values, on which
        machine).  Never read by the engine; survives JSON round-trips.
    """

    chunk_bytes: int = 1 << 26
    parallel_min_work: int = DEFAULT_MIN_PARALLEL_WORK
    units_per_worker: int = 4
    rank_buffer_bytes: int = 1 << 23
    rank_grid_base: int = 128
    quant_scalar_promote: int = 16
    quant_promote_window: int = 512
    quant_promote_limit: float = 0.25
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        # Coerce and store: a JSON profile (the hand-editable restart
        # surface) can carry 8388608.0 where an int is meant —
        # validated-but-uncoerced floats would crash much later inside
        # range()/slicing in the hot kernels.  Non-integral values, and
        # anything JSON holds that is not a finite number (null, a bool,
        # a string, a list, 1e400), are rejected here, naming the field.
        for name, floor in (
            ("chunk_bytes", 1),
            ("units_per_worker", 1),
            ("rank_buffer_bytes", 1),
            ("rank_grid_base", 1),
            ("quant_scalar_promote", 1),
            ("quant_promote_window", 1),
            ("parallel_min_work", 0),
        ):
            raw = _finite_number(name, getattr(self, name))
            value = int(raw)
            if value != raw:
                raise ValueError(f"TuningProfile.{name} must be an integer, got {raw!r}")
            if value < floor:
                raise ValueError(f"TuningProfile.{name} must be >= {floor}")
            object.__setattr__(self, name, value)
        value = _finite_number("quant_promote_limit", self.quant_promote_limit)
        if not 0 <= value <= 1:
            raise ValueError("TuningProfile.quant_promote_limit must be in [0, 1]")
        object.__setattr__(self, "quant_promote_limit", float(value))
        if not isinstance(self.meta, dict):
            raise ValueError(
                f"TuningProfile.meta must be a dict, got {type(self.meta).__name__}"
            )

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
                "save a new profile over it (TuningProfile.save)"
            )
        payload.pop("schema", None)
        for name in _RETIRED_FIELDS:
            if name in payload:
                raw = payload.pop(name)
                if name in _RETIRED_NUMBERS:
                    _finite_number(name, raw)
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


def load_profile(path) -> TuningProfile | None:
    """The profile saved at ``path``, or ``None`` for the engine defaults.

    ``None`` gives ``None``.  A missing file, or one that fails its
    integrity check (a torn write or a checksum mismatch), prints one
    warning to stderr and gives ``None``; the file is neither created
    nor changed.  Anything else — an unknown field, a bad value, a path
    that cannot be read — raises :class:`ValidationError`.
    """
    if path is None:
        return None
    try:
        return TuningProfile.load(path)
    except FileNotFoundError:
        reason = "does not exist"
    except CorruptStateError as exc:
        reason = f"failed its integrity check ({exc})"
    except (ValueError, OSError) as exc:
        raise ValidationError(f"could not load tuning profile {path!r}: {exc}") from None
    print(
        f"warning: tuning profile {path!r} {reason}; using the default tuning",
        file=sys.stderr,
    )
    return None
