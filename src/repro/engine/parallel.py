"""Thread fan-out for :class:`ScoreEngine`'s bulk calls.

The engine's three bulk entry points — ``topk_batch``, ``score_batch`` and
``rank_of_best_batch`` — are embarrassingly parallel once the data matrix
is visible to every worker: a call of at least ``2·n_jobs`` functions
above the engine's work cutover splits into *function-chunk* work units
(slices of the weight batch, the natural cut for MDRC frontiers and the
10k-function Monte-Carlo estimator), and the partial results
concatenate.  Every other call runs in the caller's thread.

``ScoreEngine(..., n_jobs=N)`` with ``N > 1`` runs those units on a
:class:`ThreadExecutor`: an in-process
:class:`~concurrent.futures.ThreadPoolExecutor` whose workers run serial
*clones* of the parent engine sharing the matrix, the pruning orderings
(the rank count's float32 copies included) and the quantized stores by
reference.  NumPy
releases the GIL inside BLAS and the large ufunc/selection kernels, so
the GEMM-dominated tiers scale across threads; only the scalar fallback
tier serializes on the GIL.

Merging is pure bookkeeping: function-chunk results concatenate in
submission order.  Because every work unit honours the engine's
exactness contract (results bit-identical to the scalar
``top_k``/``rank_of`` path), the merged output is bit-identical to the
serial tiered path for any split.

Determinism note: worker scheduling order never matters — futures are
collected in submission order and every merge is order-preserving.
A unit that raises fails the call with its own exception, once every
unit of the call has finished; nothing retries it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "DEFAULT_MIN_PARALLEL_WORK",
    "DEFAULT_UNITS_PER_WORKER",
    "ThreadExecutor",
    "resolve_n_jobs",
]

# Serial fast-path cutover: calls with fewer than this many score-matrix
# entries (n rows x m functions) stay in the caller's thread, so small
# problems never pay pool dispatch.  This is the *default profile* value
# (one GEMM >~10 ms on the original sandbox); a TuningProfile overrides it.
DEFAULT_MIN_PARALLEL_WORK = 1 << 23

# Default work units per worker and parallel call: more units than
# workers gives the pool slack to balance uneven chunks (tie-heavy
# columns fall back to scalar probes and can be 10x slower than clean
# ones).  Per-engine values come from the TuningProfile.
DEFAULT_UNITS_PER_WORKER = 4


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` knob: None/1 -> serial, -1 -> all cores.

    Any other non-positive value is rejected rather than guessed at.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


def _chunk_bounds(
    total: int, n_jobs: int, align: int = 1, units_per_worker: int = DEFAULT_UNITS_PER_WORKER
) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` work-unit slices of ``total`` items.

    ``align`` forces boundaries onto multiples of the engine's serial
    GEMM chunk so ``score_batch`` work units replay the exact serial
    matmul calls (bit-identical raw scores).
    """
    units = min(total, n_jobs * max(1, units_per_worker))
    size = -(-total // units)  # ceil
    if align > 1:
        size = -(-size // align) * align
    return [(lo, min(total, lo + size)) for lo in range(0, total, size)]


def _dispatch(engine, kind: str, *args):
    """Run one work unit against a (serial) engine."""
    if kind == "topk":
        weights, k = args
        return engine.topk_order_batch(weights, k)
    if kind == "rank":
        weights, members = args
        return engine._rank_functions(weights, members)
    if kind == "score":
        (weights,) = args
        return engine.score_batch(weights)
    raise ValueError(f"unknown work-unit kind {kind!r}")  # pragma: no cover


class ThreadExecutor:
    """In-process thread pool over serial clones of one engine.

    Owns no scoring semantics: the parent engine decides which calls fan
    out, computes the chunk bounds and submits one work unit per chunk;
    this class only runs units and hands back futures.  A work unit
    crosses a queue as a tuple of references — nothing is copied or
    pickled.  Each pool thread lazily builds one serial clone of the
    parent engine (:meth:`ScoreEngine._thread_clone`) sharing the
    matrix, orderings and quantized stores by reference and owning its
    mutable small state, so concurrent units never write to shared
    objects.  The parent's orderings are completed eagerly up front —
    clones only ever read them.
    """

    # Eager attribute-ordering build cap: clones never extend the shared
    # orderings list (racy), so for matrices whose per-attribute copies
    # stay modest the executor completes them up front; larger matrices
    # keep norm-only routing until the parent's own serial calls justify
    # the build adaptively.
    _EAGER_ORDERINGS_BYTES = 1 << 26

    def __init__(self, engine, n_jobs: int) -> None:
        self.n_jobs = int(n_jobs)
        engine._ensure_orderings()
        if (
            not engine._attr_orderings_built
            and engine.n * engine.d * (engine.d + 1) * 8 <= self._EAGER_ORDERINGS_BYTES
        ):
            engine._build_attribute_orderings()
        self._engine = engine
        self._local = threading.local()
        self._stats_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_jobs, thread_name_prefix="repro-engine"
        )
        self.tasks_dispatched = 0

    def _run(self, kind: str, *args):
        """Run one work unit on this thread's clone.

        The unit's counter deltas fold back into the parent, so the
        stats keep seeing fanned-out work, not just serial calls.
        """
        clone = getattr(self._local, "engine", None)
        if clone is None:
            clone = self._engine._thread_clone()
            self._local.engine = clone
        before = dict(clone.stats)
        try:
            return _dispatch(clone, kind, *args)
        finally:
            with self._stats_lock:
                for key, value in clone.stats.items():
                    self._engine.stats[key] += value - before[key]

    def _submit(self, kind: str, *args):
        self.tasks_dispatched += 1
        return self._pool.submit(self._run, kind, *args)

    def close(self) -> None:
        """Shut the thread pool down (clones die with their threads)."""
        self._pool.shutdown(wait=False, cancel_futures=True)
