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

Top-k decisions climb a three-tier exactness ladder — int16 quantized
screening (:mod:`repro.engine.quantize`), float64 batch, scalar GEMV
fallback — each tier resolving only what it can prove; rank counting
is one float32 banded count with the scalar GEMV as its fallback.
Results are always bit-identical to the scalar ``top_k``/``rank_of``
path.

:mod:`repro.engine.parallel` is the fan-out layer: with
``ScoreEngine(..., n_jobs=N)``, ``N > 1``, every bulk call of at least
``2·N`` functions above a work cutover is split into function-chunk
work units, run over a persistent thread pool (zero-copy clones,
GIL-free GEMM), and merged deterministically — bit-identical to the
serial path.  A work unit's exception reaches the caller as it was
raised.  Every other call, and every call with ``N = 1``, runs
serially.

:mod:`repro.engine.autotune` holds the tuning: every perf constant
lives in a per-engine :class:`TuningProfile` (defaults = the legacy
hand-tuned values), set by hand or loaded from checksummed JSON
(:func:`load_profile`).
:mod:`repro.engine.delta` gives long-lived engines incremental
:meth:`ScoreEngine.insert_rows` / :meth:`ScoreEngine.delete_rows`:
journaled mutations compact lazily by merge-repairing the orderings and
quantized stores instead of rebuilding them, bit-identical to a fresh
engine on the mutated matrix.

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

Each export loads its module on first use (:mod:`repro._lazy`): a
:class:`ScoreEngine` loads the scoring modules, and the views, the delta
journal, the WAL and the references load when first used.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.engine.autotune import TuningProfile, load_profile
    from repro.engine.bitset import (
        BitsetTable,
        intersect_all,
        pack_indices,
        pack_membership,
        packed_width,
        popcount,
        unpack_indices,
    )
    from repro.engine.parallel import ThreadExecutor, resolve_n_jobs
    from repro.engine.quantize import Quantizer
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
    "load_profile",
    "Commit",
    "DurableStore",
    "Snapshot",
    "WriteAheadLog",
    "load_snapshot",
    "replay_commits",
    "write_snapshot",
    "ThreadExecutor",
    "Quantizer",
    "resolve_n_jobs",
    "BitsetTable",
    "pack_indices",
    "pack_membership",
    "unpack_indices",
    "packed_width",
    "popcount",
    "intersect_all",
]

lazy_exports(__name__)
