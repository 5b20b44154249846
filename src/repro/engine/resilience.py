"""Supervision layer for :class:`ScoreEngine`'s parallel fan-out.

:mod:`repro.engine.parallel` assumes a happy sandbox: every work unit
finishes promptly and returns what it computed.  A long-lived service
cannot count on that — a unit can wedge behind a stuck call or die with
its worker.  This module wraps the thread pool in a :class:`Supervisor`
that owns the failure handling so the engine's call sites (and its
exactness contract) stay untouched:

* **Crash recovery.**  A unit whose worker failed
  (:class:`~repro.exceptions.WorkerCrashError`, or a broken pool)
  retires the pool and re-executes *only the failed work units* against
  a fresh one, under bounded retry with exponential backoff + jitter.
* **Timeouts.**  With ``RetryPolicy.timeout_s`` set, each work unit must
  produce its result within the budget; a hung pool is abandoned and
  the unit retried, so one stuck chunk cannot stall a query forever.
* **Graceful degradation.**  A pool that keeps failing is abandoned —
  thread → serial, sticky per engine.  The serial rung runs the work
  units in-process on a serial clone and is the trusted bottom: the
  fault harness (:mod:`repro.engine.faults`) never injects there, which
  is why every chaos run terminates.

Correctness is free by construction: work units honour the engine's
exactness contract (bit-identical to the scalar path for any split), and
merges are order-preserving on the *unit index*, not on completion
order — so a result computed on retry attempt 3 of the serial rung
merges into exactly the slot its crashed thread-pool ancestor would have
filled, and the output of any supervised call is bit-identical to a
fault-free serial run.

The default policy (:func:`get_default_policy`) applies to every engine
that is not given an explicit :class:`RetryPolicy`; the CLI's
``--timeout`` / ``--max-retries`` flags install one process-wide via
:func:`set_default_policy` so the knobs reach every engine the
algorithms build internally.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass

from repro.engine import faults
from repro.engine.parallel import _chunk_bounds, _run_on_clone
from repro.exceptions import ExecutionTimeoutError, ValidationError, WorkerCrashError

__all__ = [
    "RetryPolicy",
    "Supervisor",
    "get_default_policy",
    "set_default_policy",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Failure-handling knobs for one engine's supervised fan-out.

    Parameters
    ----------
    timeout_s:
        Per-work-unit result deadline.  ``None`` (default) disables the
        deadline — a legitimate unit on a loaded machine can take
        arbitrarily long, so timeouts are opt-in (CLI ``--timeout``).
    max_retries:
        Failed attempts a work unit may accumulate on the thread pool
        beyond its first, before the supervisor gives up on the pool and
        degrades.  ``2`` means up to three attempts on the thread pool,
        then serial.
    backoff_base_s / backoff_max_s / backoff_jitter:
        Retry ``i`` sleeps ``min(backoff_max_s, backoff_base_s *
        2**(i-1))``, stretched by up to ``backoff_jitter`` (fraction,
        seeded — deterministic for tests) so rebuilt pools don't
        stampede a machine that is failing *because* it is overloaded.
    degrade:
        When False, exhausting ``max_retries`` raises the typed error
        (:class:`~repro.exceptions.WorkerCrashError` /
        :class:`~repro.exceptions.ExecutionTimeoutError`) instead of
        degrading to serial — for callers that prefer fail-fast over
        fail-slow.
    seed:
        Seeds the jitter stream.
    """

    timeout_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    backoff_jitter: float = 0.25
    degrade: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValidationError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValidationError("backoff durations must be >= 0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValidationError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )


_DEFAULT_POLICY = RetryPolicy()


def get_default_policy() -> RetryPolicy:
    """The policy engines adopt when built without an explicit one."""
    return _DEFAULT_POLICY


def set_default_policy(policy: RetryPolicy) -> RetryPolicy:
    """Install a process-wide default policy; returns the previous one.

    Only affects engines built *afterwards* (each engine snapshots the
    default at construction).  This is how the CLI's ``--timeout`` /
    ``--max-retries`` reach the engines that ``mdrc`` / ``sample_ksets``
    / the estimators construct internally.
    """
    global _DEFAULT_POLICY
    if not isinstance(policy, RetryPolicy):
        raise ValidationError(f"expected a RetryPolicy, got {type(policy).__name__}")
    previous = _DEFAULT_POLICY
    _DEFAULT_POLICY = policy
    return previous


class Supervisor:
    """Failure-handling executor facade for one :class:`ScoreEngine`.

    Exposes ``run_function_chunks``, the engine's only fan-out call.
    Chunk bounds are computed **once** per call and
    the per-unit result slots are keyed on the unit index, so retries
    and the fall-back to serial re-execute only failed units and merge
    order never depends on scheduling.
    """

    def __init__(self, engine, policy: RetryPolicy | None = None) -> None:
        self._engine = engine
        self.policy = policy if policy is not None else get_default_policy()
        self._rng = random.Random(self.policy.seed)
        self._serial_clone = None
        self._last_failure: str | None = None
        # Recovery counters, read by the chaos tests and perf_gate --faults.
        self.stats = {
            "retries": 0,
            "worker_crashes": 0,
            "timeouts": 0,
            "pool_rebuilds": 0,
            "degradations": 0,
            "serial_units": 0,
            "backoff_s": 0.0,
        }

    # ------------------------------------------------------------------
    # the engine-facing API
    def run_function_chunks(self, kind: str, weights, args=(), align: int = 1):
        engine = self._engine
        engine.stats["parallel_calls"] += 1
        bounds = _chunk_bounds(
            weights.shape[0], engine.n_jobs, align, engine._tuning.units_per_worker
        )
        units = [(weights[lo:hi], *args) for lo, hi in bounds]
        return self._run_units(kind, units)

    def reset(self) -> None:
        """Drop state bound to the engine's current matrix (on close)."""
        self._serial_clone = None

    # ------------------------------------------------------------------
    # core retry loop
    def _run_units(self, kind: str, units: list[tuple]) -> list:
        engine = self._engine
        results: list = [None] * len(units)
        done = [False] * len(units)
        attempts = [0] * len(units)
        while True:
            pending = [i for i in range(len(units)) if not done[i]]
            if not pending:
                return results
            if engine._degraded == "serial":
                for i in pending:
                    results[i] = self._run_serial(kind, units[i])
                    done[i] = True
                continue
            executor = engine._parallel or engine._build_executor()
            self._round(executor, kind, units, results, done, attempts, pending)
            still = [i for i in pending if not done[i]]
            if still:
                self._after_failures(attempts, still, self._last_failure)

    def _round(self, executor, kind, units, results, done, attempts, pending) -> None:
        """Submit every pending unit once; harvest in unit order."""
        injector = faults.active()
        submitted = []
        for i in pending:
            fault = injector.draw_unit() if injector is not None else None
            submitted.append((i, executor._submit(kind, *units[i], fault=fault)))
        executor.tasks_dispatched += len(submitted)
        self._last_failure = None
        executor_down = False
        for i, future in submitted:
            if executor_down:
                # The pool was retired mid-round.  Units that finished
                # before it went down are harvested (re-running them
                # would only waste work); the rest fail this attempt.
                if not self._harvest_completed(future, results, done, i):
                    attempts[i] += 1
                continue
            try:
                payload = future.result(timeout=self.policy.timeout_s)
            except (_FutureTimeout, TimeoutError):
                self.stats["timeouts"] += 1
                self._last_failure = "timeout"
                attempts[i] += 1
                executor_down = True
                self._retire(executor)
            except (BrokenExecutor, WorkerCrashError):
                self.stats["worker_crashes"] += 1
                self._last_failure = "crash"
                attempts[i] += 1
                executor_down = True
                self._retire(executor)
            else:
                results[i] = payload
                done[i] = True

    def _harvest_completed(self, future, results, done, i) -> bool:
        """Salvage an already-finished future after the pool went down."""
        if not future.done():
            return False
        try:
            payload = future.result(timeout=0)
        except Exception:
            # Cancelled or crashed: genuinely failed, retry it.  A real
            # bug in the work unit re-raises on the serial rung.
            return False
        results[i] = payload
        done[i] = True
        return True

    def _after_failures(self, attempts, still, cause) -> None:
        self.stats["retries"] += len(still)
        worst = max(attempts[i] for i in still)
        if worst > self.policy.max_retries:
            self._degrade(cause or "crash")
            for i in still:
                attempts[i] = 0  # fresh retry budget on the serial rung
        else:
            self._backoff(worst)

    def _degrade(self, cause: str) -> None:
        policy = self.policy
        if not policy.degrade:
            if cause == "timeout":
                raise ExecutionTimeoutError(
                    f"work unit exceeded the {policy.timeout_s}s timeout "
                    f"{policy.max_retries + 1} times on the thread pool"
                )
            raise WorkerCrashError(
                f"workers kept dying ({policy.max_retries + 1} attempts) "
                "on the thread pool"
            )
        engine = self._engine
        engine._degraded = "serial"
        self.stats["degradations"] += 1
        if engine._parallel is not None:
            self._retire(engine._parallel)

    def _retire(self, executor) -> None:
        """Detach ``executor`` from the engine and shut it down.

        A thread stuck in a hung unit cannot be killed; shutting the
        pool down without waiting abandons it, and the next round
        builds a fresh pool.
        """
        engine = self._engine
        if engine._parallel is executor:
            engine._parallel = None
        self.stats["pool_rebuilds"] += 1
        executor.close()

    def _backoff(self, failed_attempts: int) -> None:
        policy = self.policy
        if policy.backoff_base_s <= 0:
            return
        delay = min(
            policy.backoff_max_s,
            policy.backoff_base_s * (2.0 ** max(0, failed_attempts - 1)),
        )
        delay *= 1.0 + policy.backoff_jitter * self._rng.random()
        self.stats["backoff_s"] += delay
        time.sleep(delay)

    # ------------------------------------------------------------------
    # the serial rung
    def _run_serial(self, kind: str, unit: tuple):
        """Run one work unit in-process on a cached serial clone.

        Not ``_dispatch(engine, ...)``: the parent's bulk methods would
        re-enter the parallel planner and recurse.  The clone is the
        same zero-copy serial view the thread pool uses, and its counter
        deltas fold back into the parent so the stats keep seeing the
        work.
        """
        engine = self._engine
        clone = self._serial_clone
        if clone is None or clone.values is not engine.values:
            clone = engine._thread_clone()
            self._serial_clone = clone
        result = _run_on_clone(engine, clone, kind, *unit)
        self.stats["serial_units"] += 1
        return result
