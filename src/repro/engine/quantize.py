"""Quantized integer screening tier for :class:`~repro.engine.ScoreEngine`.

The engine's exactness ladder resolves every top-k / rank decision with
the cheapest arithmetic that can *prove* its answer.  This module adds
the bottom rung: scores are screened with small-integer arithmetic —
int8 by default, int16 when the data's dynamic range demands it — whose
error envelope is rigorous, so a candidate set provably containing every
row that can matter drops out of one integer GEMM plus one vectorized
threshold pass.  Only the candidates are re-scored exactly; only
functions whose decision boundary falls *inside* the quantization
envelope are promoted to the float32 / float64 / scalar tiers above.
Results therefore stay bit-identical to the scalar ``top_k``/``rank_of``
path — quantization changes who does the work, never the answer.

Representation
--------------
Per attribute ``j`` a scale ``a_j = max_i |x_ij| / qmax`` maps data to
integers ``q_ij = rint(x_ij / a_j)`` with ``|x_ij − a_j q_ij| ≤ a_j/2``.
Per weight vector ``w`` the *scaled* weights ``u_j = w_j a_j`` are
quantized as ``u_j = b (U_j + δ_j)``, ``|δ_j| ≤ 1/2``, with one scale
``b = max_j |u_j| / qmax`` per function.  Writing ``A_i = Σ_j |q_ij|``,
the exact score decomposes as::

    w · x_i  =  b Σ_j U_j q_ij  +  b Σ_j δ_j q_ij  +  Σ_j w_j (x_ij − a_j q_ij)
             ∈  b S_i  ±  ( b A_i / 2  +  Σ_j |u_j| / 2 )

The integer GEMM actually computes the *shifted* sum ``S'_i = S_i +
A_i/2`` (the half-``A`` column rides along as a ``d+1``-th attribute
against a constant weight of 1), so the two bounds are single
broadcasts::

    upper_i = b S'_i + usum/2          lower_i = b (S'_i − A_i) − usum/2

with ``usum = Σ_j |u_j|``.  Everything above is *exact* in the carrier
dtype: products and partial sums are multiples of 1/2 and stay below
2**23 (float32 carrier) resp. 2**52 (float64 carrier) — the ranges where
the carrier still represents half-integers exactly — both checked at
construction, so the GEMM result is the true value, not an
approximation of it.
The only inexactness is the float64 arithmetic *forming* the thresholds
the carriers are compared against; every comparison therefore concedes
``_QUANT_SLACK`` integer quanta — orders of magnitude more than any such
rounding — on top of the envelope, and the engine's usual ulp-band
margins sit above that again.

Level selection
---------------
``mode="auto"`` starts at int8 and adapts to the data twice over:

* a one-off *dynamic-range probe* at first use counts how many distinct
  rows collapse onto the same int8 vector; when quantization destroys
  most of the data's resolution, int8 envelopes would pass everything
  and the tier starts at int16 directly;
* at runtime the engine reports how many screened columns had to be
  promoted; a sustained promote rate above ``_PROMOTE_LIMIT`` upgrades
  int8 → int16, and int16 → disabled, each at most once per engine.

Explicit ``mode="int8"``/``"int16"`` pins the level; ``mode=None``
disables the tier.

Each level is one immutable :class:`QuantLevel` — scales, carrier dtype
and per-ordering stores live together, so a reader (the engine itself,
or a thread-backend clone sharing the quantizer) grabs one
:meth:`Quantizer.state` snapshot per call and can never pair old stores
with new scales; level changes swap the snapshot wholesale under a
lock.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["QuantLevel", "QuantStore", "Quantizer"]

_LEVELS = {"int8": 127, "int16": 32767}

# Integer quanta conceded per comparison, covering float64 threshold
# rounding and the float32 cast of a float64 right-hand side.
_QUANT_SLACK = 2.0

# Adaptive upgrade defaults: once this many columns have been screened,
# a promote rate above the limit means the envelope is too wide for the
# data.  Per-engine values come from the TuningProfile
# (:mod:`repro.engine.autotune`).
_PROMOTE_WINDOW = 512
_PROMOTE_LIMIT = 0.25

# Scales outside this (normal, comfortably bounded) range put products or
# divisions at risk of subnormal rounding, where the ±1/2 quantum bound
# stops being airtight; such data is left to the exact tiers.
_SCALE_MIN = 2.0**-950
_SCALE_MAX = 2.0**950

# Dynamic-range probe: fraction of distinct rows that must survive int8
# quantization as distinct vectors, else start at int16.
_COLLAPSE_LIMIT = 0.5


class QuantStore:
    """Immutable quantized copy of one (permuted) data matrix.

    ``Q`` is ``(n, d + 1)`` in the carrier dtype: columns ``0..d-1`` hold
    the integer rows ``q_ij``, column ``d`` holds ``A_i / 2`` so the GEMM
    against a weight row padded with 1.0 yields the shifted sum ``S'``
    directly.  ``absq`` keeps ``A_i`` for the lower-bound broadcast.
    """

    __slots__ = ("Q", "absq", "qmax")

    def __init__(self, Q: np.ndarray, absq: np.ndarray, qmax: int) -> None:
        self.Q = Q
        self.absq = absq
        self.qmax = qmax


class QuantLevel:
    """One quantization level: scales, carrier, and its ordering stores.

    Immutable except for the internally-locked store cache, so any
    reference to a level is self-consistent forever — weight scales and
    data stores always belong to the same level.
    """

    def __init__(self, name: str, maxabs: np.ndarray) -> None:
        self.name = name
        self.qmax = _LEVELS[name]
        self.scales = np.where(maxabs > 0.0, maxabs / self.qmax, 1.0)
        d = maxabs.size
        # Worst-case |S'| with every partial sum below it.  S' and its
        # partial sums are multiples of 1/2 (the A/2 column), and the
        # carrier represents half-integers exactly only while ulp <= 1/2
        # — below 2**23 for float32, 2**52 for float64 — so exactness of
        # the carrier GEMM requires the peak to fit THOSE ranges, not
        # the integer ones.
        peak = (self.qmax * self.qmax + self.qmax) * d
        if peak <= 2**23:
            self.carrier: type | None = np.float32
        elif peak <= 2**52:
            self.carrier = np.float64
        else:  # pragma: no cover - needs d > ~4e6
            self.carrier = None
        self._stores: dict[int, QuantStore | None] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def store(self, ordering_index: int, matrix: np.ndarray) -> QuantStore | None:
        """The quantized copy of ``matrix`` for one pruning ordering.

        ``matrix`` must be the ordering's permuted float64 view; stores
        are cached per ordering index for the level's lifetime.
        """
        store = self._stores.get(ordering_index, self)  # self = "absent"
        if store is not self:
            return store
        with self._lock:
            store = self._stores.get(ordering_index, self)
            if store is not self:
                return store
            q = np.rint(matrix / self.scales)
            if np.abs(q).max(initial=0.0) > self.qmax:  # pragma: no cover
                store = None  # guard: scale arithmetic went subnormal
            else:
                n, d = matrix.shape
                absq = np.abs(q).sum(axis=1)
                Q = np.empty((n, d + 1), dtype=self.carrier)
                Q[:, :d] = q
                Q[:, d] = 0.5 * absq
                store = QuantStore(Q, absq.astype(self.carrier), self.qmax)
            self._stores[ordering_index] = store
            return store

    def in_envelope(self, rows: np.ndarray) -> bool:
        """Whether every entry of ``rows`` fits this level's scales.

        The error decomposition is valid for *any* positive scale; the
        only hard requirement is ``|rint(x/a)| <= qmax``, i.e. the data
        stays inside the representable integer range.  New rows within
        the existing per-attribute envelope can therefore be quantized
        against the old scales with full rigor — no re-scaling needed.
        """
        if rows.size == 0:
            return True
        return bool(np.all(np.abs(rows).max(axis=0) <= self.scales * self.qmax))

    def mutate_store(self, ordering_index: int, plan) -> None:
        """Maintain one cached store across a row mutation.

        ``plan`` is the owning ordering's
        :class:`~repro.engine.delta.MergePlan`: the store's parallel
        arrays undergo the exact structural edit the ordering did.  The
        surviving rows' carrier integers are reused verbatim and the
        inserted rows (``plan.rows``) are quantized with the level's
        (unchanged) scales, so the result is bit-identical to a
        from-scratch quantization of the mutated, re-permuted matrix.
        Absent (or disabled) stores are dropped and rebuild lazily.
        """
        with self._lock:
            store = self._stores.get(ordering_index, self)
            if store is self or store is None:
                self._stores.pop(ordering_index, None)
                return
            new_rows = plan.rows
            q_new = np.rint(new_rows / self.scales) if new_rows.size else np.empty(
                (0, self.scales.size)
            )
            if q_new.size and np.abs(q_new).max(initial=0.0) > self.qmax:
                # Defensive: the caller's envelope check should prevent
                # this; rebuild from scratch rather than store bad bits.
                self._stores.pop(ordering_index, None)
                return
            absq_new = np.abs(q_new).sum(axis=1)
            inserted = np.empty((q_new.shape[0], store.Q.shape[1]), dtype=store.Q.dtype)
            inserted[:, :-1] = q_new
            inserted[:, -1] = 0.5 * absq_new
            Q = plan.apply(store.Q, inserted)
            absq = plan.apply(store.absq, absq_new.astype(store.absq.dtype))
            self._stores[ordering_index] = QuantStore(Q, absq, self.qmax)

    def drop_stores(self) -> None:
        """Forget every cached store (they rebuild lazily)."""
        with self._lock:
            self._stores.clear()

    def quantize_weights(
        self, W: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Quantize a weight batch against this level.

        Returns ``(Wq, b, usum, degenerate)``: the padded carrier weight
        matrix (ones in the last column, so ``Wq @ Q.T`` is the shifted
        integer sum ``S'``), the per-function scale, ``Σ_j |u_j|``, and a
        mask of functions whose scale left the safe range (their rows in
        ``Wq`` are zeroed; the caller must promote them past this tier).
        """
        U = W * self.scales
        usum = np.abs(U).sum(axis=1)
        b = np.abs(U).max(axis=1) / self.qmax
        degenerate = ~((b > _SCALE_MIN) & (b < _SCALE_MAX))
        safe_b = np.where(degenerate, 1.0, b)
        Wq = np.empty((W.shape[0], W.shape[1] + 1), dtype=self.carrier)
        Wq[:, :-1] = np.rint(U / safe_b[:, None])
        Wq[:, -1] = 1.0
        if degenerate.any():
            Wq[degenerate, :-1] = 0.0
        return Wq, safe_b, usum, degenerate

    # ------------------------------------------------------------------
    # Threshold helpers (all conceding _QUANT_SLACK quanta, see module
    # docstring).  Each returns a per-function value the carrier-dtype
    # shifted sums are compared against directly.
    @staticmethod
    def upper_rhs(thr: np.ndarray, b: np.ndarray, usum: np.ndarray) -> np.ndarray:
        """``S' >= rhs``  ⇔  upper bound can reach ``thr``."""
        return (thr - 0.5 * usum) / b - _QUANT_SLACK

    @staticmethod
    def lower_rhs(thr: np.ndarray, b: np.ndarray, usum: np.ndarray) -> np.ndarray:
        """``S' − A > rhs``  ⇔  lower bound provably exceeds ``thr``."""
        return (thr + 0.5 * usum) / b + _QUANT_SLACK


class Quantizer:
    """Per-matrix quantization state shared by an engine and its clones.

    Holds the adaptive level policy; all screening arithmetic lives on
    the immutable :class:`QuantLevel` snapshots it hands out.
    """

    def __init__(
        self,
        values: np.ndarray,
        mode: str | None = "auto",
        promote_window: int = _PROMOTE_WINDOW,
        promote_limit: float = _PROMOTE_LIMIT,
    ) -> None:
        if mode is not None and mode not in ("auto", "int8", "int16"):
            raise ValueError(f"quantize must be 'auto', 'int8', 'int16' or None, got {mode!r}")
        self.mode = mode
        self.promote_window = int(promote_window)
        self.promote_limit = float(promote_limit)
        self._maxabs = np.abs(values).max(axis=0) if mode is not None else None
        self._probed = mode is None
        self._state: QuantLevel | None = None
        self._screened = 0
        self._promoted = 0
        self._lock = threading.Lock()
        self._probe_values = values if mode == "auto" else None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def state(self) -> QuantLevel | None:
        """The current level snapshot (``None`` = tier disabled).

        Callers must grab this once per bulk call and use it for both
        weight quantization and store lookups, so a concurrent level
        change can never mix scales and stores.
        """
        if not self._probed:
            with self._lock:
                if not self._probed:
                    self._set_level(self._initial_level())
                    self._probed = True
        return self._state

    @property
    def active(self) -> bool:
        """Whether the quantized tier should be attempted at all."""
        return self.state is not None

    @property
    def level(self) -> str | None:
        """The current level name (``None`` when disabled)."""
        state = self.state
        return state.name if state is not None else None

    def _initial_level(self) -> str | None:
        """Pick the starting level from the data's dynamic range."""
        maxabs = self._maxabs
        if not np.all(np.isfinite(maxabs)):
            return None
        nonzero = maxabs[maxabs > 0.0]
        if nonzero.size and (nonzero.min() < _SCALE_MIN or nonzero.max() > _SCALE_MAX):
            return None
        if self.mode in ("int8", "int16"):
            return self.mode
        values = self._probe_values
        if values is not None and values.shape[0] > 1:
            distinct = self._distinct_rows(values)
            scales = np.where(maxabs > 0.0, maxabs / _LEVELS["int8"], 1.0)
            q = np.rint(values / scales)
            if self._distinct_rows(q.astype(np.int16)) < _COLLAPSE_LIMIT * distinct:
                return "int16"
        return "int8"

    @staticmethod
    def _distinct_rows(matrix: np.ndarray) -> int:
        """Rows distinct under ``==`` (so ``-0.0`` equals ``0.0``).

        A lexsort groups equal rows next to each other; counting the
        boundaries is several times cheaper than ``np.unique`` over a
        structured view, which also imports ``numpy.ma`` on first use.
        """
        ordered = matrix[np.lexsort(matrix.T[::-1])]
        return 1 + int(np.count_nonzero((ordered[1:] != ordered[:-1]).any(axis=1)))

    def _set_level(self, name: str | None) -> None:
        """Swap to level ``name`` (caller holds the lock)."""
        self._probe_values = None
        if name is None:
            self._state = None
            return
        level = QuantLevel(name, self._maxabs)
        self._state = level if level.carrier is not None else None

    # ------------------------------------------------------------------
    def apply_mutation(self, values: np.ndarray, new_rows: np.ndarray, store_updates):
        """Maintain quantization state across an engine row mutation.

        ``values`` is the post-mutation matrix, ``new_rows`` the inserted
        rows (possibly empty), and ``store_updates`` a callable invoked
        with the current :class:`QuantLevel` to apply the per-ordering
        store edits.  Returns the quantizer to use afterwards — usually
        ``self``, or a fresh replacement when no derived state exists yet
        (nothing to maintain, so restarting the probe is cheapest).

        The re-scale rule: a level's stores survive as long as the new
        rows' dynamic range stays inside the existing per-attribute
        envelope (``|x| <= scale * qmax`` — rigorous for any scale).  An
        escape swaps in a fresh level at the same name with widened
        scales; its stores requantize lazily on next use.  Deletions
        never escape — the old (now possibly wider-than-necessary)
        scales remain valid, and the exactness contract makes the
        difference unobservable.
        """
        if self.mode is None:
            return self
        with self._lock:
            if not self._probed:
                # Level never chosen: no scales, no stores — restart over
                # the mutated matrix; the probe runs at first use.
                return Quantizer(
                    values, self.mode, self.promote_window, self.promote_limit
                )
            if new_rows.size:
                self._maxabs = np.maximum(
                    self._maxabs, np.abs(new_rows).max(axis=0)
                )
            level = self._state
            if level is None:
                return self  # tier disabled (adaptively or by range); stays off
            if not level.in_envelope(new_rows):
                nonzero = self._maxabs[self._maxabs > 0.0]
                if nonzero.size and (
                    nonzero.min() < _SCALE_MIN or nonzero.max() > _SCALE_MAX
                ):
                    self._state = None  # widened range left the safe zone
                    return self
                fresh = QuantLevel(level.name, self._maxabs)
                self._state = fresh if fresh.carrier is not None else None
                return self
            store_updates(level)
            return self

    def observe(self, screened: int, promoted: int) -> None:
        """Feed the adaptive level policy one call's screen/promote counts."""
        if self.mode != "auto":
            return
        with self._lock:
            self._screened += screened
            self._promoted += promoted
            if self._screened < self.promote_window:
                return
            if self._promoted > self.promote_limit * self._screened:
                current = self._state.name if self._state is not None else None
                self._set_level("int16" if current == "int8" else None)
            self._screened = 0
            self._promoted = 0
