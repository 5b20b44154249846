"""Deterministic, seedable fault injection for the execution layer.

Testing a supervision layer against *real* worker deaths and hangs is
hopeless — they are timing-dependent and unreproducible.  This module
makes those failures into scheduled, replayable events: a
:class:`FaultInjector` decides — as a pure function of its seed and a
monotone draw counter — whether each submitted work unit should crash
its worker or hang past the timeout.  The same seed and the same call
sequence inject the same faults, so the chaos suite
(``tests/engine/test_resilience.py``) and the ``perf_gate.py --faults``
smoke can assert *bit-identical recovery* rather than "it usually
works".

The injection point is the work-unit submission: the supervision layer
(:mod:`repro.engine.resilience`) draws once per submitted unit and ships
the token with the task.  ``"crash"`` makes the thread worker raise
:class:`~repro.exceptions.WorkerCrashError` (the error a dead worker
maps to — threads cannot be killed); ``("hang", s)`` sleeps ``s``
seconds before computing.

Faults are only drawn for *pool* submissions: the serial fall-back is the
trusted bottom and never injected, which is what guarantees every chaos
run terminates with a correct answer.

Usage::

    with injected(FaultInjector(seed=0, crash=0.2, max_faults=3)):
        engine.topk_batch(weights, k)   # survives 3 injected crashes

The active injector is process-global (installed via :func:`install` /
the :func:`injected` context manager) so it reaches every engine built
inside the scope without plumbing.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager

__all__ = ["FaultInjector", "active", "injected", "install", "uninstall"]


class FaultInjector:
    """A seeded, deterministic schedule of injected execution faults.

    Parameters
    ----------
    seed:
        Seeds the draw stream; identical seeds + identical call
        sequences inject identical faults.
    crash / hang:
        Per-work-unit probabilities of each fault kind (at most one
        fires per unit; they are drawn from a single uniform sample in
        that priority order).
    plan:
        Explicit schedule overriding the probabilistic draw: maps the
        global submission counter (0-based, across retries) to a fault
        kind (``"crash"`` | ``"hang"``).  Lets tests target exactly the
        Nth submitted unit.
    max_faults:
        Cap on probabilistically injected faults (plan entries are
        exempt: they are finite by construction).  ``None`` = unlimited;
        every recovery test should set it so bounded retry converges.
    hang_s:
        Sleep duration carried by hang tokens; pick it comfortably above
        the supervisor's timeout under test.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        crash: float = 0.0,
        hang: float = 0.0,
        plan: dict[int, str] | None = None,
        max_faults: int | None = None,
        hang_s: float = 0.25,
    ) -> None:
        for name, rate in (("crash", crash), ("hang", hang)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1], got {rate}")
        if crash + hang > 1.0:
            raise ValueError("crash + hang rates must not exceed 1")
        if plan is not None:
            bad = {v for v in plan.values()} - {"crash", "hang"}
            if bad:
                raise ValueError(f"unknown fault kinds in plan: {sorted(bad)}")
        self._rates = (crash, hang)
        self._plan = dict(plan or {})
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._max_faults = max_faults
        self.hang_s = float(hang_s)
        self.draws = 0
        # What actually fired, for assertions: every chaos test checks
        # the schedule it asked for really exercised the recovery path.
        self.injected = {"crash": 0, "hang": 0}

    def _token(self, kind: str):
        self.injected[kind] += 1
        return ("hang", self.hang_s) if kind == "hang" else kind

    def draw_unit(self):
        """The fault token (or None) for the next submitted work unit."""
        with self._lock:
            index = self.draws
            self.draws += 1
            planned = self._plan.pop(index, None)
            if planned is not None:
                return self._token(planned)
            crash, hang = self._rates
            if crash + hang == 0.0:
                return None
            budget_left = (
                self._max_faults is None
                or sum(self.injected.values()) < self._max_faults
            )
            sample = self._rng.random()  # always consumed: keeps draws aligned
            if not budget_left:
                return None
            if sample < crash:
                return self._token("crash")
            if sample < crash + hang:
                return self._token("hang")
            return None

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


# ----------------------------------------------------------------------
# Process-global installation.  One injector at a time; install/uninstall
# are explicit so a leaked injector cannot silently chaos an unrelated
# computation.
_ACTIVE: FaultInjector | None = None


def install(injector: FaultInjector) -> None:
    global _ACTIVE
    _ACTIVE = injector


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultInjector | None:
    return _ACTIVE


@contextmanager
def injected(injector: FaultInjector):
    """Install ``injector`` for the scope of the ``with`` block."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()
