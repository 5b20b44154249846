"""repro.engine — the vectorized batch-scoring subsystem.

One :class:`ScoreEngine` per data matrix answers every top-k / scoring
question the algorithms ask, batched: a single chunked GEMM plus one
``argpartition`` over all query functions replaces per-function GEMV
probes, and packed bitsets (:mod:`repro.engine.bitset`) replace Python
``frozenset`` churn for k-set dedup and intersection.

Consumers (all refactored onto this engine):

* :func:`repro.core.mdrc` — frontier-batched corner evaluation;
* :func:`repro.geometry.ksets.sample_ksets` — K-SETr with bitset dedup;
* :func:`repro.ranking.topk.batch_top_k_sets` and
  :func:`repro.core.workload_rrr` — workload scoring;
* :func:`repro.evaluation.regret.rank_regret_sampled` — batched,
  ulp-verified rank counting;
* the :mod:`repro.baselines` regret-ratio algorithms — shared chunked
  scoring.

Decisions climb a four-tier exactness ladder — int8/int16 quantized
screening (:mod:`repro.engine.quantize`), float32 batch, float64 batch,
scalar GEMV fallback — each tier resolving only what it can prove, so
results are always bit-identical to the scalar ``top_k``/``rank_of``
path.

:mod:`repro.engine.parallel` is the fan-out layer: with
``ScoreEngine(..., n_jobs=N, backend=...)`` every bulk call above a
calibrated work cutover is split into function-chunk or row-chunk work
units, run over a persistent thread pool (zero-copy clones, GIL-free
GEMM) or shared-memory process pool, and merged deterministically —
bit-identical to the serial path.  ``backend="auto"`` picks
serial/thread/process from problem size and the measured scalar-fallback
ratio.

:mod:`repro.engine.autotune` is the self-tuning layer: every perf
constant lives in a per-engine :class:`TuningProfile` (defaults = the
legacy hand-tuned values), and a sub-second calibration probe
(``ScoreEngine(..., tune="auto")`` / :meth:`ScoreEngine.calibrate`)
derives machine- and matrix-specific values, persistable to JSON.
:mod:`repro.engine.delta` gives long-lived engines incremental
:meth:`ScoreEngine.insert_rows` / :meth:`ScoreEngine.delete_rows`:
journaled mutations compact lazily by merge-repairing the orderings and
quantized stores instead of rebuilding them, bit-identical to a fresh
engine on the mutated matrix.

:mod:`repro.engine.resilience` is the supervision layer around the
fan-out: dead workers are detected and their work units re-executed
under bounded retry with backoff, hung units are reaped on a per-unit
timeout, corrupted payloads are rejected structurally, and a backend
that keeps failing degrades process → thread → serial (sticky) — always
bit-identical, because merges key on unit index, not completion.
:mod:`repro.engine.faults` is the matching deterministic fault-injection
harness the chaos tests and ``perf_gate.py --faults`` drive.

:mod:`repro.engine.views` is the materialized-view layer on top of the
delta journal: :class:`MDRCView` / :class:`KSetView` / :class:`MDRRRView`
/ :class:`RankRegretView` cache a consumer's intermediate state
(corner memo, draw state, rank counts), subscribe to the engine's
delta events, invalidate only what a mutation's score bounds can touch,
and replay the real algorithm over the surviving cache — maintained
results bit-identical to a from-scratch recompute.

:mod:`repro.engine.wal` is the durability layer for the serving tier:
a CRC-framed, fsync'd write-ahead log of committed mutations (torn
tails truncated, bit flips rejected), atomic checksummed snapshots, and
:class:`DurableStore` — one locked data directory whose recovery path
(newest valid snapshot + WAL-suffix replay through
:func:`repro.engine.delta.replay_event`) restarts an engine
bit-identical to one that never crashed, idempotency table included.

:mod:`repro.engine.reference` keeps the frozen pre-engine
implementations that the equivalence tests and the perf-regression gate
(``benchmarks/perf_gate.py``) compare against.
"""

from repro.engine.autotune import TuningProfile, calibrate_engine
from repro.engine.faults import FaultInjector
from repro.engine.bitset import (
    BitsetTable,
    intersect_all,
    pack_indices,
    pack_membership,
    packed_width,
    popcount,
    unpack_indices,
)
from repro.engine.parallel import (
    BACKENDS,
    ParallelExecutor,
    SharedMatrix,
    ThreadExecutor,
    resolve_backend,
    resolve_n_jobs,
)
from repro.engine.quantize import Quantizer
from repro.engine.resilience import (
    RetryPolicy,
    Supervisor,
    get_default_policy,
    set_default_policy,
)
from repro.engine.score_engine import ScoreEngine, TopKBatch
from repro.engine.wal import (
    Commit,
    DurableStore,
    Snapshot,
    WriteAheadLog,
    load_snapshot,
    replay_commits,
    write_snapshot,
)
from repro.engine.views import (
    KSetView,
    MaterializedView,
    MDRCView,
    MDRRRView,
    RankRegretView,
)

__all__ = [
    "ScoreEngine",
    "TopKBatch",
    "MaterializedView",
    "MDRCView",
    "KSetView",
    "MDRRRView",
    "RankRegretView",
    "TuningProfile",
    "calibrate_engine",
    "RetryPolicy",
    "Supervisor",
    "get_default_policy",
    "set_default_policy",
    "FaultInjector",
    "Commit",
    "DurableStore",
    "Snapshot",
    "WriteAheadLog",
    "load_snapshot",
    "replay_commits",
    "write_snapshot",
    "BACKENDS",
    "ParallelExecutor",
    "SharedMatrix",
    "ThreadExecutor",
    "Quantizer",
    "resolve_backend",
    "resolve_n_jobs",
    "BitsetTable",
    "pack_indices",
    "pack_membership",
    "unpack_indices",
    "packed_width",
    "popcount",
    "intersect_all",
]
