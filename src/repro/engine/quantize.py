"""Quantized integer screening tier for :class:`~repro.engine.ScoreEngine`.

The engine's top-k ladder resolves every decision with the cheapest
arithmetic that can *prove* its answer.  This module adds the bottom
rung: scores are screened with int16 arithmetic whose error envelope is
rigorous, so a candidate set provably containing every row that can
matter drops out of one integer GEMM plus one vectorized threshold
pass.  Only the candidates are re-scored exactly; only functions whose
decision boundary falls *inside* the quantization envelope are promoted
to the float64 and scalar tiers above.  Results therefore stay
bit-identical to the scalar ``top_k`` path — quantization changes who
does the work, never the answer.  Rank counting does not use this tier.

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
against a constant weight of 1), so the upper bound the screen reads
is a single broadcast::

    upper_i = b S'_i + usum/2

with ``usum = Σ_j |u_j|``.  Everything above is *exact* in the float64
carrier: products and partial sums are multiples of 1/2 and stay below
2**52, the range where the carrier still represents half-integers
exactly — checked at construction — so the GEMM result is the true
value, not an approximation of it.
The only inexactness is the float64 arithmetic *forming* the thresholds
the carrier sums are compared against; every comparison therefore
concedes ``_QUANT_SLACK`` integer quanta — orders of magnitude more
than any such rounding — on top of the envelope, and the engine's usual
ulp-band margins sit above that again.

Level selection
---------------
``mode="auto"`` screens at int16 from the first call.  The engine
reports how many screened columns had to be promoted; a sustained
promote rate above ``_PROMOTE_LIMIT`` switches the tier off for the
engine's lifetime, since the float64 tier then does the work anyway.
``mode=None`` disables the tier from the start.  Data whose
per-attribute scales leave ``[_SCALE_MIN, _SCALE_MAX]`` is never
screened.

The level is one immutable :class:`QuantLevel` — scales and
per-ordering stores live together, so a reader (the engine itself, or
a thread-pool clone sharing the quantizer) grabs one
:attr:`Quantizer.state` snapshot per call and can never pair old stores
with new scales; a re-scale or the switch-off swaps the snapshot
wholesale under a lock.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["QuantLevel", "QuantStore", "Quantizer"]

# The int16 range: data and weights quantize to integers in [-QMAX, QMAX].
QMAX = 32767

# Integer quanta conceded per comparison, covering float64 threshold
# rounding.
_QUANT_SLACK = 2.0

# Adaptive switch-off defaults: once this many columns have been
# screened, a promote rate above the limit means the envelope is too
# wide for the data.  Per-engine values come from the TuningProfile
# (:mod:`repro.engine.autotune`).
_PROMOTE_WINDOW = 512
_PROMOTE_LIMIT = 0.25

# Scales outside this (normal, comfortably bounded) range put products or
# divisions at risk of subnormal rounding, where the ±1/2 quantum bound
# stops being airtight; such data is left to the exact tiers.
_SCALE_MIN = 2.0**-950
_SCALE_MAX = 2.0**950


class QuantStore:
    """Immutable quantized copy of one (permuted) data matrix.

    ``Q`` is ``(n, d + 1)`` in the carrier dtype: columns ``0..d-1`` hold
    the integer rows ``q_ij``, column ``d`` holds ``A_i / 2`` so the GEMM
    against a weight row padded with 1.0 yields the shifted sum ``S'``
    directly.
    """

    __slots__ = ("Q",)

    def __init__(self, Q: np.ndarray) -> None:
        self.Q = Q


class QuantLevel:
    """The int16 level: scales, the float64 carrier and its ordering stores.

    Immutable except for the internally-locked store cache, so any
    reference to a level is self-consistent forever — weight scales and
    data stores always belong to the same level.
    """

    name = "int16"
    qmax = QMAX
    carrier = np.float64

    def __init__(self, maxabs: np.ndarray) -> None:
        self.scales = np.where(maxabs > 0.0, maxabs / QMAX, 1.0)
        # Worst-case |S'| with every partial sum below it.  S' and its
        # partial sums are multiples of 1/2 (the A/2 column), and the
        # float64 carrier represents half-integers exactly only while
        # ulp <= 1/2, below 2**52 (``Quantizer`` checks the fit).
        self.peak = float((QMAX * QMAX + QMAX) * maxabs.size)
        self._stores: dict[int, QuantStore | None] = {}
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
                Q = np.empty((n, d + 1), dtype=self.carrier)
                Q[:, :d] = q
                Q[:, d] = 0.5 * np.abs(q).sum(axis=1)
                store = QuantStore(Q)
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
            inserted = np.empty((q_new.shape[0], store.Q.shape[1]), dtype=store.Q.dtype)
            inserted[:, :-1] = q_new
            inserted[:, -1] = 0.5 * np.abs(q_new).sum(axis=1)
            Q = plan.apply(store.Q, inserted)
            self._stores[ordering_index] = QuantStore(Q)

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
    def upper_rhs(self, thr: np.ndarray, b: np.ndarray, usum: np.ndarray) -> np.ndarray:
        """``S' >= rhs``  ⇔  the upper bound can reach ``thr``.

        A per-function value in the carrier dtype that the shifted sums
        are compared against directly: ``(thr − usum/2)/b`` less
        ``_QUANT_SLACK`` quanta (see the module docstring), clipped just
        past ``peak``.  Every carrier sum lies in ``[−peak, peak]``, so a
        right-hand side past ``peak + 1`` either way decides every
        comparison as the clipped one does.  Clipping before the
        division keeps both the division and the carrier cast in range
        however small ``b`` is (down to ``_SCALE_MIN``).
        """
        lim = (self.peak + 1.0 + _QUANT_SLACK) * b
        t = np.clip(thr - 0.5 * usum, -lim, lim)
        return (t / b - _QUANT_SLACK).astype(self.carrier)


class Quantizer:
    """Per-matrix quantization state shared by an engine and its clones.

    Holds the adaptive switch-off; all screening arithmetic lives on the
    immutable :class:`QuantLevel` snapshots it hands out.
    """

    def __init__(
        self,
        values: np.ndarray,
        mode: str = "auto",
        promote_window: int = _PROMOTE_WINDOW,
        promote_limit: float = _PROMOTE_LIMIT,
    ) -> None:
        if mode != "auto":
            raise ValueError(f"quantize must be 'auto' or None, got {mode!r}")
        self.mode = mode
        self.promote_window = int(promote_window)
        self.promote_limit = float(promote_limit)
        self._maxabs = np.abs(values).max(axis=0)
        self._screened = 0
        self._promoted = 0
        self._lock = threading.Lock()
        self._state = self._new_level()

    # ------------------------------------------------------------------
    @property
    def state(self) -> QuantLevel | None:
        """The current level snapshot (``None`` = tier disabled).

        Callers must grab this once per bulk call and use it for both
        weight quantization and store lookups, so a concurrent re-scale
        can never mix scales and stores.
        """
        return self._state

    @property
    def active(self) -> bool:
        """Whether the quantized tier should be attempted at all."""
        return self._state is not None

    @property
    def level(self) -> str | None:
        """The current level name (``None`` when disabled)."""
        return self._state.name if self._state is not None else None

    def _new_level(self) -> QuantLevel | None:
        """A level over the current scales, or ``None`` when the data's
        range leaves the safe scales or the carrier's exact range."""
        maxabs = self._maxabs
        if not np.all(np.isfinite(maxabs)):
            return None
        nonzero = maxabs[maxabs > 0.0]
        if nonzero.size and (nonzero.min() < _SCALE_MIN or nonzero.max() > _SCALE_MAX):
            return None
        level = QuantLevel(maxabs)
        return level if level.peak <= 2**52 else None  # d past ~4e6 does not fit

    # ------------------------------------------------------------------
    def apply_mutation(self, new_rows: np.ndarray) -> None:
        """Maintain quantization state across an engine row mutation.

        ``new_rows`` are the inserted rows (possibly empty).  The
        re-scale rule: a level's stores survive as long as the new rows'
        dynamic range stays inside the existing per-attribute envelope
        (``|x| <= scale * qmax`` — rigorous for any scale); they take the
        write at the engine's next ordering sync
        (:func:`repro.engine.delta.sync_orderings`, through
        :meth:`QuantLevel.mutate_store`).  An escape swaps in a fresh
        level with widened scales; its stores requantize lazily on next
        use.  Deletions never escape — the old (now possibly
        wider-than-necessary) scales remain valid, and the exactness
        contract makes the difference unobservable.
        """
        with self._lock:
            if new_rows.size:
                self._maxabs = np.maximum(self._maxabs, np.abs(new_rows).max(axis=0))
            level = self._state
            if level is not None and not level.in_envelope(new_rows):
                self._state = self._new_level()
            # A disabled tier (adaptively or by range) stays off.

    def observe(self, screened: int, promoted: int) -> None:
        """Feed the adaptive switch-off one call's screen/promote counts."""
        with self._lock:
            self._screened += screened
            self._promoted += promoted
            if self._screened < self.promote_window:
                return
            if self._promoted > self.promote_limit * self._screened:
                self._state = None
            self._screened = 0
            self._promoted = 0
