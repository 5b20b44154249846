"""ScoreEngine: batched top-k scoring over one owned data matrix.

Every algorithm in this reproduction — MDRC corner probes, K-SETr draws,
the Monte-Carlo rank-regret estimator, workload RRR, the regret-ratio
baselines — bottoms out in ``values @ weights`` top-k probes.  Issued one
weight vector at a time those probes pay per-call numpy overhead and run
BLAS level-2; issued as a *batch* they become a single chunked GEMM plus
one ``argpartition`` over all columns at once.  :class:`ScoreEngine` owns
the ``(n, d)`` matrix and serves that batched path to every caller:

* :meth:`topk_batch` — top-k of many functions in one call, returning
  both an ``(m, k)`` best-first index matrix and the members as packed
  bitsets (:mod:`repro.engine.bitset`) so set dedup/intersection are
  byte ops;
* :meth:`top_k` / :meth:`top_k_packed` — single-function probes behind
  an LRU memo keyed on the weight bytes (MDRC's shared cell corners,
  repeated workload functions);
* :meth:`rank_of_best_batch` — the rank-regret estimator's inner
  counting loop, batched, ulp-verified and *pruned*: each function is
  routed through the norm/attribute orderings with the subset's best
  score as a lower bound, so counting stops at a provably sufficient
  prefix instead of scanning all n rows.

With ``n_jobs > 1`` every bulk call above a calibrated work cutover is
split into function-chunk or row-chunk work units and fanned out over a
worker pool — an in-process thread pool of zero-copy engine clones, the
PR-3 shared-memory process pool, or whichever the ``backend="auto"``
policy picks from problem size and the measured scalar-fallback ratio
(:mod:`repro.engine.parallel`); the exactness contract makes any split
bit-identical to the serial path.

Exactness
---------
Tie-breaking follows the library-wide rule (score descending, row index
ascending), and the contract is *bit-identical results to the scalar*
``top_k``/``rank_of`` *path*.  Decisions climb a four-tier ladder —
``int8 → float32 → float64 → scalar`` — in which each tier resolves
only the columns it can prove and promotes the rest:

* the **quantized tier** (:mod:`repro.engine.quantize`) bounds every
  score from both sides with exact small-integer arithmetic; functions
  whose candidate set (or rank band) it isolates are finished from a
  tiny exact rescore, and functions whose decision boundary falls
  inside the quantization envelope are promoted;
* the **float batch tiers** trust the GEMM scores except where an ulp
  band at the k boundary or between adjacent ranked scores says a
  blocked-BLAS deviation could flip the decision (possible even for
  identical rows);
* contested columns fall back to the **scalar algorithm verbatim** (one
  float64 GEMV plus the seed's over-select / lexsort), so they match
  the scalar path by construction, and uncontested columns match it
  because their gaps exceed any GEMM↔GEMV deviation.

With ``float32=True`` the batch tier runs in single precision (≈2× GEMM
throughput, half the memory traffic), block ordering is recomputed in
float64, and the same fallback applies with a float32-wide band.

**The k-skyband candidate set.**  For weights ``w ≥ 0`` only rows with
fewer than k dominators can reach a top-k, and K-SETr's batches are all
such functions.  Row ``q`` *robustly dominates* row ``p`` when ``q_j >
fl(p_j + δ)`` in every coordinate, with ``δ = 4·d·eps·max|x|``.  Then
``q_j − p_j ≥ δ − eps·max|x|`` exactly, so the exact gap ``w·q − w·p``
is at least ``(4d − 1)·eps·max|x|·Σw``.  Any summation order of a
d-term dot product (GEMV, blocked GEMM, FMA) errs by at most
``γ_d·Σw·max|x|`` with ``γ_d = d·u/(1 − d·u) ≈ d·eps/2``, so two such
errors stay below the gap and ``fl(w·q) > fl(w·p)`` strictly — as long
as no partial sum overflows and the gap sits far above the subnormal
range, where absolute underflow errors would swamp it.  A row with k or
more robust dominators therefore has k rows strictly above it in the
scalar order (score descending, then index ascending) and is never in
the scalar top-k; any superset of the robust k-skyband holds every
answer.  :meth:`topk_orders` uses this for a call with at least
``_CANDIDATE_MIN_FUNCTIONS`` functions passing four guards: every
``w_j ≥ 0``; ``δ`` is a normal float; ``δ·Σw ≥ tiny/eps`` and
``max|x|·Σw ≤ max/4``; and ``4k < n``.  Those functions are answered
by a serial child engine over the band rows
(:func:`repro.geometry.skyline.robust_skyband`, built lazily per k and
dropped on every compaction) that runs the ladder above verbatim except
that a contested column falls back to *this* engine's full-matrix scalar
kernel.  Contested columns thus equal the scalar path by construction;
uncontested ones equal it by the ulp-band argument, since every
non-candidate row scores strictly below the k-th answer; and the child
keeps row order, so index tie-breaks carry over.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from repro.engine.autotune import TuningProfile
from repro.engine.bitset import pack_membership, packed_width
from repro.engine.parallel import resolve_backend, resolve_n_jobs
from repro.engine.quantize import Quantizer
from repro.exceptions import InvalidDataError, ValidationError

__all__ = ["ScoreEngine", "TopKBatch"]

# Width of the ulp band (in units of eps * max|score| per column) inside
# which GEMM scores are treated as potentially tied and re-verified.
# Deliberately NOT part of the tuning profile: this constant is
# load-bearing for exactness, not performance.
_TIE_BAND_ULPS = 64.0

# Candidate-set routing (see ``_candidate_split``).  A k-skyband build
# costs ~20 ms at 20k x 4 and saves ~19 µs per function answered from it,
# so it pays for itself after ~1,000 functions at one k; the cache keeps
# it until the next compaction.  The per-call floor keeps every K-SETr
# batch (1,024 draws) on the path and every coalesced serving batch (at
# most 64 functions) off it.
_CANDIDATE_MIN_FUNCTIONS = 256
# Stage-1 survivors above this share of n: the band would barely prune,
# so that k stays on the full path until the next compaction.
_CANDIDATE_MAX_SHARE = 0.5
# Robust-dominance margin δ in units of d·eps·max|x| (module docstring).
_ROBUST_MARGIN = 4.0
# Candidate engines kept, one per k.
_CANDIDATE_CACHE_SIZE = 4
# Per-function guards on Σw·max|x|: the exact gap δ·Σw must sit far
# above the subnormal range, and no score or partial sum may overflow.
_ROBUST_FLOOR = float(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)
_ROBUST_CEILING = float(np.finfo(np.float64).max) / 4.0

# Every performance constant that used to live here — chunk sizes, the
# fan-out cutover, the quantized/scalar routing caps, the adaptive
# policy thresholds — is now a field of
# :class:`repro.engine.autotune.TuningProfile` (whose defaults reproduce
# the legacy values) and is read per-engine via ``self._tuning``.


def robust_row_norms(matrix: np.ndarray) -> np.ndarray:
    """Row 2-norms immune to under/overflow of the naive squared sum.

    ``sqrt(sum(x**2))`` silently returns 0 for rows whose squared entries
    are subnormal (all |x| below ~1e-154) and inf past ~1e154.  Every
    pruning bound built on an underflowed norm claims the row scores at
    most 0, so the prefix tiers prune rows that actually belong in the
    top-k and the engine diverges from the scalar kernel it is pinned
    to.  Rows whose naive squared sum is a normal float keep the naive
    (bitwise-unchanged) value; only at-risk rows pay the rescale pass.
    """
    with np.errstate(over="ignore", under="ignore"):
        sq = (matrix * matrix).sum(axis=1)
    norms = np.sqrt(sq)
    risky = np.flatnonzero(
        (sq < np.finfo(np.float64).tiny) | ~np.isfinite(sq)
    )
    if risky.size:
        rows = matrix[risky]
        scale = np.abs(rows).max(axis=1)
        safe = np.where(scale > 0.0, scale, 1.0)
        scaled = rows / safe[:, None]
        norms[risky] = scale * np.sqrt((scaled * scaled).sum(axis=1))
    return norms


def robust_rest_norms(matrix: np.ndarray, attribute: int) -> np.ndarray:
    """Residual row norms with attribute ``attribute`` zeroed out.

    The attribute orderings bound a score by ``w_j·x_j + ‖w_{−j}‖·rest``;
    deriving ``rest`` as ``sqrt(norm² − x_j²)`` squares the norm and
    underflows for tiny rows exactly like the naive norm does, so the
    residual is normed directly from a column-masked copy instead.
    """
    masked = matrix.copy()
    masked[:, attribute] = 0.0
    return robust_row_norms(masked)


class _Ordering:
    """One pruning order over the data rows (see _build_orderings).

    ``perm`` maps prefix-local positions to global row ids; ``V`` is the
    matrix reordered accordingly; every row at position ≥ p scores at
    most ``a(w)·u[p] + b(w)·v[p]`` for the ordering's coefficients.
    ``V32`` and ``inv`` (the inverse permutation) are filled lazily by
    the consumers that need them and survive pickling with the rest.
    ``rest`` keeps the per-row residual norms behind an attribute
    ordering's ``v`` (``v`` is their suffix-max), so the incremental
    update path (:mod:`repro.engine.delta`) can filter/merge them like
    ``u`` and re-derive ``v`` with one cummax instead of re-norming the
    whole matrix.
    """

    __slots__ = ("perm", "V", "V32", "u", "v", "attribute", "inv", "rest")

    def __init__(self, perm, V, V32, u, v, attribute, inv=None, rest=None) -> None:
        self.perm = perm
        self.V = V
        self.V32 = V32
        self.u = u
        self.v = v
        self.attribute = attribute
        self.inv = inv
        self.rest = rest


def _geometric_grid(k: int, n: int) -> np.ndarray:
    """Doubling prefix sizes between ~2k and n (exclusive)."""
    sizes = []
    c = max(2 * k, 32)
    while c < n:
        sizes.append(c)
        c *= 2
    return np.asarray(sizes, dtype=np.int64)


class TopKBatch(NamedTuple):
    """Result of :meth:`ScoreEngine.topk_batch`.

    Attributes
    ----------
    members:
        ``(m, packed_width(n))`` uint8 — row ``i`` is the packed bitset of
        function ``i``'s top-k members (see :mod:`repro.engine.bitset`).
    order:
        ``(m, k)`` int64 — row ``i`` lists function ``i``'s top-k indices
        best first, ties broken by smaller row index.
    """

    members: np.ndarray
    order: np.ndarray


class ScoreEngine:
    """Vectorized batch-scoring engine over one ``(n, d)`` matrix.

    Parameters
    ----------
    values:
        The data matrix; copied to a C-contiguous float64 array once.
        Long-lived engines can mutate it afterwards through
        :meth:`insert_rows` / :meth:`delete_rows`, which maintain every
        derived structure incrementally (see :mod:`repro.engine.delta`).
    float32:
        Score in single precision with float64 tie/order verification
        (see module docstring).  Off by default.
    chunk_bytes:
        Target size of one score chunk; the weight batch is processed in
        column chunks of ``chunk_bytes / (8n)`` so peak memory stays flat
        regardless of how many functions a caller throws at one call.
        ``None`` (default) takes the value from the tuning profile.
    memo_size:
        Capacity of the single-function LRU memo (entries, not bytes).
    n_jobs:
        Workers for the fan-out layer (:mod:`repro.engine.parallel`).
        ``None``/``1`` keeps every call in-process; ``-1`` uses all
        cores.  The pool (and, for the process backend, the shared copy
        of the matrix) is created lazily on the first call whose
        ``n x m`` work exceeds ``parallel_min_work`` and persists until
        :meth:`close` (or garbage collection).
    backend:
        Execution backend for above-cutover bulk calls: ``"serial"``
        never fans out, ``"thread"`` uses an in-process pool (zero
        spawn/pickle/shared-memory cost — NumPy releases the GIL inside
        BLAS, so GEMM-bound work scales), ``"process"`` the PR-3
        shared-memory process pool.  ``"auto"`` (default) stays serial
        below the work cutover, starts with threads above it, and
        escalates permanently to processes when the measured scalar-
        fallback ratio shows the workload is GIL-bound.  Results are
        bit-identical across backends.
    quantize:
        Quantized screening tier (:mod:`repro.engine.quantize`):
        ``"auto"`` (default) picks int8/int16 from the data's dynamic
        range and adapts to the observed promote rate, ``"int8"`` /
        ``"int16"`` pin the level, ``None`` disables the tier.  Results
        are bit-identical either way.
    mp_context:
        Multiprocessing start method for the process pool (``"fork"`` |
        ``"spawn"`` | ``"forkserver"``); default picks fork where
        available.
    parallel_min_work:
        Serial fast-path cutover in score-matrix entries (``n * m``);
        calls below it never touch a pool.  ``None`` (default) takes the
        value from the tuning profile.
    tune:
        Runtime tuning (:mod:`repro.engine.autotune`): ``None`` uses the
        default :class:`TuningProfile` (the legacy hand-tuned
        constants), a profile instance adopts it as-is (e.g. one loaded
        from JSON via :meth:`TuningProfile.load`), and ``"auto"`` runs
        the calibration probe lazily before the first bulk call —
        explicit :meth:`calibrate` does the same eagerly.  Any profile
        yields bit-identical results; only the speed changes.
    resilience:
        Failure handling for the fan-out layer
        (:mod:`repro.engine.resilience`): a :class:`RetryPolicy` sets
        the per-work-unit timeout, the retry budget and the backoff
        shape; ``None`` (default) snapshots the process-wide default
        policy (see :func:`repro.engine.resilience.set_default_policy`).
        Supervision never changes results — failed units re-execute
        bit-identically, possibly on a degraded backend.
    """

    def __init__(
        self,
        values: np.ndarray,
        *,
        float32: bool = False,
        chunk_bytes: int | None = None,
        memo_size: int = 4096,
        n_jobs: int | None = None,
        backend: str = "auto",
        quantize: str | None = "auto",
        mp_context: str | None = None,
        parallel_min_work: int | None = None,
        tune: TuningProfile | str | None = None,
        resilience: "RetryPolicy | None" = None,
    ) -> None:
        try:
            matrix = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        except (TypeError, ValueError) as exc:
            raise InvalidDataError(
                f"values are not numeric (cannot convert to float64): {exc}"
            ) from None
        if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ValidationError("values must be a non-empty (n, d) matrix")
        if not np.all(np.isfinite(matrix)):
            raise InvalidDataError(
                "values contain NaN or Inf entries; comparisons against NaN "
                "are silently False and would produce garbage ranks — clean "
                "or impute the data before building a ScoreEngine"
            )
        self.values = matrix
        self.n, self.d = matrix.shape
        self.float32 = bool(float32)
        self._values32 = matrix.astype(np.float32) if self.float32 else None
        self._tune_pending = False
        if tune is None:
            self._tuning = TuningProfile()
        elif isinstance(tune, TuningProfile):
            self._tuning = tune
        elif tune == "auto":
            self._tuning = TuningProfile()
            self._tune_pending = True
        else:
            raise ValidationError(
                "tune must be None, 'auto' or a TuningProfile, "
                f"got {tune!r} (load JSON profiles with TuningProfile.load)"
            )
        # Pruning orderings: candidate row orders with per-position upper
        # bounds on any remaining row's score (see _build_orderings).
        # All of them are built lazily: the norm ordering on the first
        # top-k probe (score_batch / rank_of_best_batch callers never
        # need it), the sharper per-attribute orderings once enough
        # probe work has accumulated to amortize their construction.
        self._orderings: list[_Ordering] | None = None
        self._attr_orderings_built = False
        self._excess_work = 0
        if chunk_bytes is None:
            chunk_bytes = self._tuning.chunk_bytes
        if chunk_bytes < 8 * self.n:
            chunk_bytes = 8 * self.n
        self._chunk_bytes = int(chunk_bytes)
        self._chunk_cols = max(1, int(chunk_bytes) // (8 * self.n))
        self._memo_size = int(memo_size)
        self._memo: OrderedDict[tuple[bytes, int], TopKBatch] = OrderedDict()
        try:
            self.n_jobs = resolve_n_jobs(n_jobs)
            self.backend = resolve_backend(backend)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        try:
            self._quantizer = (
                Quantizer(
                    matrix,
                    quantize,
                    promote_window=self._tuning.quant_promote_window,
                    promote_limit=self._tuning.quant_promote_limit,
                )
                if quantize
                else None
            )
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        self._mp_context = mp_context
        if parallel_min_work is None:
            parallel_min_work = self._tuning.parallel_min_work
        self._parallel_min_work = int(parallel_min_work)
        # Lazy executors, keyed "thread"/"process" (see repro.engine.parallel).
        self._executors: dict = {}
        self._backend_escalated = False
        # Supervision (see repro.engine.resilience): the retry/timeout/
        # degradation policy, the lazy Supervisor facade, and the sticky
        # degradation rung (None | "thread" | "serial") — the reverse of
        # the auto escalation above.
        from repro.engine.resilience import RetryPolicy, get_default_policy

        if resilience is None:
            resilience = get_default_policy()
        elif not isinstance(resilience, RetryPolicy):
            raise ValidationError(
                f"resilience must be a RetryPolicy or None, got {resilience!r}"
            )
        self._resilience_policy = resilience
        self._supervisor = None
        self._degraded: str | None = None
        # Async submission seam (see ``submit``): one lazily-created
        # dispatch thread that serializes queries and mutations so an
        # asyncio caller can await engine work without blocking its loop.
        self._submit_pool = None
        self._submit_lock = threading.Lock()
        # Adaptive rank-tier policy inputs (see _rank_functions).
        self._rank_float_columns = 0
        self._rank_float_fallbacks = 0
        # (k, ordering count) -> per-attribute-ordering grid gathers,
        # reused across batches by _prefix_needs.
        self._grid_cache: dict[tuple[int, int], list] = {}
        self._max_row_norm: float | None = None  # lazy, see _noise_scale
        # k -> serial child engine over the robust k-skyband, or None when
        # that k does not prune (see _candidate_engine); LRU order.
        self._candidates: OrderedDict[int, _CandidateEngine | None] = OrderedDict()
        # Row-mutation journal (see repro.engine.delta): pending inserted
        # rows, the sorted live-slot tombstone array (None = no pending
        # deletes since the last compaction), and the committed matrix
        # size.  ``self.n`` always reflects the *logical* size.
        self._pending_rows: list[np.ndarray] = []
        self._live: np.ndarray | None = None
        self._committed_n = self.n
        self._dirty_rows = False
        # Delta epoch API (see repro.engine.delta / repro.engine.views):
        # ``revision`` counts effective compactions (monotone, starts at
        # 0 for the construction matrix); subscribers are notified with
        # one DeltaEvent per bump.  Materialized views register here.
        self.revision = 0
        self._delta_subscribers: list = []
        # Introspection counters (read by tests and the perf gate).
        self.stats = {
            "gemm_columns": 0,
            "verified_columns": 0,
            "memo_hits": 0,
            "memo_misses": 0,
            "rank_prefix_rows": 0,
            "parallel_calls": 0,
            "quant_columns": 0,
            "quant_resolved": 0,
            "row_inserts": 0,
            "row_deletes": 0,
            "cancelled_inserts": 0,
            "compactions": 0,
            "candidate_columns": 0,
            "candidate_builds": 0,
        }

    # ------------------------------------------------------------------
    # validation helpers
    def _check_weights(self, weight_matrix: np.ndarray) -> np.ndarray:
        W = np.asarray(weight_matrix, dtype=np.float64)
        if W.ndim != 2:
            raise ValidationError("weight matrix must be 2-dimensional (m, d)")
        if W.shape[1] != self.d:
            raise ValidationError(
                f"weight vectors have {W.shape[1]} entries for {self.d} attributes"
            )
        return W

    def _check_k(self, k: int) -> int:
        k = int(k)
        if not 1 <= k <= self.n:
            raise ValidationError(f"k must be in [1, n]={self.n}, got {k}")
        return k

    @property
    def packed_width(self) -> int:
        """Bytes per packed member bitset row."""
        return packed_width(self.n)

    # ------------------------------------------------------------------
    # runtime tuning (see repro.engine.autotune)
    @property
    def tuning(self) -> TuningProfile:
        """The engine's current tuning profile (read-only snapshot)."""
        return self._tuning

    def calibrate(self, budget_s: float = 0.25) -> TuningProfile:
        """Run the calibration probe now and adopt the resulting profile.

        Measures GEMM throughput, per-call overhead, pool-dispatch
        latency and the scalar/quantized kernel costs on this machine
        and this matrix (:func:`repro.engine.autotune.calibrate_engine`),
        then applies the derived profile wholesale — including over any
        explicit ``chunk_bytes`` / ``parallel_min_work`` constructor
        overrides.  Returns the profile so callers can persist it
        (:meth:`TuningProfile.save`) and restart with ``tune=profile``
        instead of re-probing.  Results stay bit-identical.
        """
        from repro.engine.autotune import calibrate_engine

        self._tune_pending = False
        self.compact()  # probe the post-mutation matrix
        profile = calibrate_engine(self, budget_s=budget_s)
        self._apply_tuning(profile)
        return profile

    def _apply_tuning(self, profile: TuningProfile) -> None:
        """Adopt ``profile`` for every subsequent call."""
        self._tuning = profile
        self._tune_pending = False
        chunk_bytes = max(int(profile.chunk_bytes), 8 * self.n)
        self._chunk_bytes = chunk_bytes
        self._chunk_cols = max(1, chunk_bytes // (8 * self.n))
        self._parallel_min_work = int(profile.parallel_min_work)
        if self._quantizer is not None:
            self._quantizer.promote_window = int(profile.quant_promote_window)
            self._quantizer.promote_limit = float(profile.quant_promote_limit)
        self._grid_cache.clear()
        self._candidates.clear()
        # Live pools were built with the old granularity; rebuild lazily.
        self.close()

    def _sync(self) -> None:
        """Settle deferred state before serving a query.

        Applies any pending row mutations (compacting the journal into
        every derived structure, see :mod:`repro.engine.delta`) and runs
        the first-call calibration when the engine was constructed with
        ``tune="auto"``.  Every public query entry point calls this, so
        mutation and tuning latency is paid at a call boundary — never
        inside the tiered kernels.
        """
        self.compact()
        if self._tune_pending:
            self.calibrate()

    # ------------------------------------------------------------------
    # incremental row updates (see repro.engine.delta)
    def insert_rows(self, rows: np.ndarray) -> np.ndarray:
        """Append data rows; returns their new indices ``[n_old, n_new)``.

        The mutation is journaled and compacted lazily at the next query
        (or :meth:`compact`): pre-sorted orderings are merge-updated,
        quantized stores are re-scaled only when the new rows escape the
        per-attribute envelope, and the memo/caches are invalidated.
        Results afterwards are bit-identical to a fresh engine built on
        ``vstack([values, rows])``.
        """
        from repro.engine.delta import insert_rows

        return insert_rows(self, rows)

    def delete_rows(self, indices) -> int:
        """Delete the given row indices; returns how many were removed.

        Indices refer to the *current* matrix view; surviving rows are
        re-indexed compactly (exactly ``np.delete(values, indices,
        axis=0)`` semantics), so results afterwards are bit-identical to
        a fresh engine on the deleted matrix.  Tombstoned via the
        journal and compacted lazily, like :meth:`insert_rows`.
        """
        from repro.engine.delta import delete_rows

        return delete_rows(self, indices)

    def compact(self) -> None:
        """Apply any journaled row mutations now instead of lazily."""
        if self._dirty_rows:
            from repro.engine.delta import flush_mutations

            flush_mutations(self)

    def subscribe_delta(self, callback):
        """Register ``callback(event)`` for every effective compaction.

        The callback receives one :class:`repro.engine.delta.DeltaEvent`
        per :attr:`revision` bump, invoked after the engine has fully
        settled the journal (so it may read ``engine.values`` and even
        issue queries).  Materialized views
        (:mod:`repro.engine.views`) register their repair hooks here.
        Returns ``callback`` so it can be kept for
        :meth:`unsubscribe_delta`.  Subscribers are engine-local state:
        they do not travel through pickling or into worker clones.
        """
        self._delta_subscribers.append(callback)
        return callback

    def unsubscribe_delta(self, callback) -> None:
        """Remove a subscriber registered by :meth:`subscribe_delta`."""
        try:
            self._delta_subscribers.remove(callback)
        except ValueError:
            pass

    def _invalidate_derived(self) -> None:
        """Drop every cache whose contents depend on the data matrix.

        The explicit invalidation point for the mutation path: the
        single-probe LRU memo (keyed on weight bytes only — a mutated
        matrix would silently serve stale top-k sets), the per-(k,
        orderings) grid gathers, the cached max row norm behind the
        ulp noise bands, the k-skyband candidate engines, the chunk
        geometry, and the worker pools (whose clones/shared segments hold
        the pre-mutation matrix).
        """
        self._memo.clear()
        self._grid_cache.clear()
        self._candidates.clear()
        self._max_row_norm = None
        self._chunk_cols = max(1, self._chunk_bytes // (8 * self.n))
        self._close_pools()

    # ------------------------------------------------------------------
    # parallel execution layer (see repro.engine.parallel)
    def _worker_config(self) -> dict:
        """Constructor kwargs for the per-worker serial engine clones."""
        return {
            "float32": self.float32,
            "chunk_bytes": self._chunk_bytes,
            "memo_size": self._memo_size,
            "n_jobs": 1,
            "quantize": self._quantizer.mode if self._quantizer is not None else None,
            "tune": self._tuning,
        }

    def _parallel_plan(self, m: int) -> str | None:
        """How to split an m-function call: None (serial), "functions",
        or "rows".  Function chunks need enough columns to go around;
        row chunks cover the few-functions-huge-matrix shape."""
        if self.n_jobs <= 1 or self.backend == "serial":
            return None
        if self._degraded == "serial":
            # Every pool backend kept failing for this engine; the
            # supervisor pinned it serial (sticky for the engine's
            # lifetime — a host that killed two backends stays suspect).
            return None
        if m * self.n < self._parallel_min_work:
            return None
        if m >= 2 * self.n_jobs:
            return "functions"
        if self.n >= 16 * self.n_jobs:
            return "rows"
        return None

    def _select_backend(self) -> str:
        """The concrete pool kind for this above-cutover call.

        ``"auto"`` prefers the thread pool: workers share the matrix,
        orderings and quantized stores by reference (no spawn, no
        pickling, no shared-memory segment; each clone keeps its own
        memo and counters) and NumPy releases the GIL inside BLAS, so
        GEMM-bound work scales.  Columns that reach the
        scalar kernel run Python under the GIL, however — tie fallbacks
        and quantized-tier straggler promotes alike, which is why both
        count into ``verified_columns`` — so a measured scalar ratio
        above the profile's ``backend_escalate_ratio`` escalates — permanently, for
        this engine — to the process pool.  Thread work units fold their
        counters back into these stats, so fanned-out calls feed the
        measurement too.
        """
        if self.backend != "auto":
            return self.backend
        if not self._backend_escalated:
            decided = self.stats["gemm_columns"]
            verified = self.stats["verified_columns"]
            if (
                decided >= self._tuning.backend_min_sample
                and verified > self._tuning.backend_escalate_ratio * decided
            ):
                self._backend_escalated = True
                # The thread pool is dead weight from here on; free its
                # OS threads and per-thread clones now, not at close().
                stale = self._executors.pop("thread", None)
                if stale is not None:
                    stale.close()
        return "process" if self._backend_escalated else self._tuning.initial_backend

    def _build_executor(self, kind: str):
        """Construct (and cache) the raw pool executor for ``kind``."""
        if kind == "process":
            from repro.engine.parallel import ParallelExecutor

            executor = ParallelExecutor(
                self.values,
                self._worker_config(),
                self.n_jobs,
                self._mp_context,
                units_per_worker=self._tuning.units_per_worker,
            )
        else:
            from repro.engine.parallel import ThreadExecutor

            executor = ThreadExecutor(
                self, self.n_jobs, units_per_worker=self._tuning.units_per_worker
            )
        self._executors[kind] = executor
        return executor

    def _supervised(self):
        """The supervision facade every fan-out call site goes through.

        Same ``run_function_chunks`` / ``run_row_chunks`` API as the raw
        executors, plus crash recovery, timeouts, payload validation and
        the degradation ladder (see :mod:`repro.engine.resilience`).
        """
        if self._supervisor is None:
            from repro.engine.resilience import Supervisor

            self._supervisor = Supervisor(self, self._resilience_policy)
        return self._supervisor

    @property
    def _parallel(self):
        """The most capable live executor, if any (introspection only)."""
        return self._executors.get("process") or self._executors.get("thread")

    def submit(self, method: str, /, *args, **kwargs):
        """Run ``self.<method>(*args, **kwargs)`` (or a bare callable)
        off-thread; return a :class:`concurrent.futures.Future`.

        The async submission seam used by :mod:`repro.serve`: all
        submitted work — batched queries and row mutations alike — runs
        on ONE lazily-created dispatch thread, so submissions execute in
        submission order and never interleave.  That serialization is
        what makes coalesced serving deterministic: a query submitted
        before a mutation sees the pre-mutation revision, one submitted
        after sees the post-mutation revision, with no third outcome.
        An asyncio caller bridges the returned
        :class:`concurrent.futures.Future` with
        :func:`asyncio.wrap_future`; synchronous callers just
        ``.result()`` it.

        The dispatch thread is torn down by :meth:`close` (pending work
        is cancelled, the in-flight call finishes first) and — like the
        worker pools — rebuilt lazily if the engine is used again.
        """
        if callable(method):
            # A composite operation (e.g. a view refresh) that must
            # serialize with engine work; runs on the dispatch thread.
            fn = method
        else:
            fn = getattr(self, method, None)
            if fn is None or not callable(fn) or method.startswith("_"):
                raise ValidationError(
                    f"submit() target must be a public engine method or a "
                    f"callable, got {method!r}"
                )
        if self._submit_pool is None:
            with self._submit_lock:
                if self._submit_pool is None:
                    from concurrent.futures import ThreadPoolExecutor

                    self._submit_pool = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix="engine-submit"
                    )
        return self._submit_pool.submit(fn, *args, **kwargs)

    def _close_pools(self) -> None:
        """Tear down the worker pools only (rebuilt lazily on next use)."""
        executors, self._executors = self._executors, {}
        for executor in executors.values():
            executor.close()
        if self._supervisor is not None:
            self._supervisor.reset()

    def close(self) -> None:
        """Shut down the worker pools, shared segment and dispatch thread.

        Degradation state (``_degraded``) survives close(): pools are
        rebuilt routinely (tuning changes, row mutations), but a host
        that killed two backends stays suspect for this engine's life.
        """
        pool, self._submit_pool = self._submit_pool, None
        if pool is not None:
            # A submitted call may itself close the engine; the dispatch
            # thread cannot join itself, so skip the wait in that case.
            on_pool = threading.current_thread() in getattr(pool, "_threads", ())
            pool.shutdown(wait=not on_pool, cancel_futures=True)
        self._close_pools()

    def __enter__(self) -> "ScoreEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getstate__(self) -> dict:
        """Pickle everything except the worker pools.

        Lazily-built state — the pruning orderings, the quantized
        stores and the top-k memo — travels with the engine, so an
        unpickled copy (or a worker rebuilt from one) does not re-sort
        or re-probe what the original already paid for.  Journaled row
        mutations are compacted first, so the pickled engine is clean.
        """
        self.compact()
        state = self.__dict__.copy()
        state["_executors"] = {}
        state["_supervisor"] = None
        state["_submit_pool"] = None
        del state["_submit_lock"]  # locks don't pickle; restored in __setstate__
        # Subscribers are repair hooks of views living in THIS process;
        # a pickled copy must not invoke them (and they may be
        # unpicklable bound methods holding whole view states).
        state["_delta_subscribers"] = []
        # Candidate engines are a cache (and point back at this engine).
        state["_candidates"] = OrderedDict()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._submit_lock = threading.Lock()

    def _ensure_orderings(self) -> list["_Ordering"]:
        if self._orderings is None:
            self._orderings = self._build_orderings()
        return self._orderings

    def _thread_clone(self) -> "ScoreEngine":
        """A serial view of this engine for one thread-pool worker.

        Shares every heavy immutable structure — the matrix, its float32
        copy, the pruning orderings and the quantizer — by reference,
        and isolates the small mutable state (stats, memo, grid cache)
        so concurrent workers never write to shared objects.  The
        orderings list must be fully built before cloning; the clone
        never extends it (``_attr_orderings_built`` is pinned), it only
        reads whatever snapshot the parent maintains between calls.
        """
        clone = object.__new__(ScoreEngine)
        clone.__dict__.update(self.__dict__)
        clone.n_jobs = 1
        clone.backend = "serial"
        clone._executors = {}
        clone._supervisor = None
        clone._submit_pool = None
        clone._submit_lock = threading.Lock()
        clone._memo = OrderedDict()
        clone._grid_cache = {}
        clone._candidates = OrderedDict()
        clone._excess_work = 0
        clone._attr_orderings_built = True
        # Clones are created inside a bulk call, i.e. after _sync():
        # the journal is settled and no clone ever mutates rows.
        clone._pending_rows = []
        clone._live = None
        clone._dirty_rows = False
        clone._delta_subscribers = []
        clone._tune_pending = False
        clone.stats = dict.fromkeys(self.stats, 0)
        # The adaptive rank-quant counters are inherited as-is: the clone
        # starts from the parent's evidence and the executor folds only
        # the per-task deltas back, so nothing double-counts.
        return clone

    # ------------------------------------------------------------------
    # scoring
    def score_batch(self, weight_matrix: np.ndarray) -> np.ndarray:
        """All scores as an ``(n, m)`` float64 matrix, computed chunkwise.

        Raw GEMM output: values may differ in the last ulp across chunk
        layouts (BLAS blocking).  Consumers needing exact rank decisions
        should use :meth:`topk_batch` / :meth:`rank_of_best_batch`, which
        verify contested columns.
        """
        self._sync()
        W = self._check_weights(weight_matrix)
        m = W.shape[0]
        # Function-chunk fan-out, aligned to the serial chunk boundaries
        # so workers replay the exact serial matmul calls (raw GEMM
        # output stays bit-identical to the serial path, not merely
        # ulp-close).  Row-chunked GEMMs would not, so "rows" plans fall
        # through to the serial loop.
        if self._parallel_plan(m) == "functions" and m > self._chunk_cols:
            parts = self._supervised().run_function_chunks(
                "score", W, align=self._chunk_cols
            )
            return np.concatenate(parts, axis=1)
        out = np.empty((self.n, m), dtype=np.float64)
        for lo in range(0, m, self._chunk_cols):
            hi = min(m, lo + self._chunk_cols)
            np.matmul(self.values, W[lo:hi].T, out=out[:, lo:hi])
            self.stats["gemm_columns"] += hi - lo
        return out

    # ------------------------------------------------------------------
    # batched top-k
    def topk_batch(self, weight_matrix: np.ndarray, k: int) -> TopKBatch:
        """Top-k of every weight row: one chunked GEMM + per-column select.

        Returns best-first index rows and packed member bitsets; see
        :class:`TopKBatch`.  Semantics match ``m`` calls to
        :func:`repro.ranking.topk.top_k` (score desc, index asc), with
        contested k boundaries resolved by float64 re-verification.
        """
        order = self.topk_orders(weight_matrix, k)
        members = pack_membership(order, self.n)
        return TopKBatch(members=members, order=order)

    def topk_orders(self, weight_matrix: np.ndarray, k: int) -> np.ndarray:
        """The ``(m, k)`` best-first index rows of :meth:`topk_batch`
        without bitset packing, fan-out plan included.

        For callers that never touch the packed members (K-SETr dedups
        on the index rows directly) this skips the ``O(m · n)`` bit
        packing entirely.  A large enough batch of nonnegative-weight
        functions is answered from the k-skyband candidate engine (see
        the module docstring); the other functions of the call take the
        full path.
        """
        self._sync()
        W = self._check_weights(weight_matrix)
        k = self._check_k(k)
        split = self._candidate_split(W, k)
        if split is None:
            return self._topk_orders_full(W, k)
        eligible, child = split
        order = np.empty((W.shape[0], k), dtype=np.int64)
        order[eligible] = self._candidate_topk(child, W[eligible], k)
        rest = ~eligible
        if rest.any():
            order[rest] = self._topk_orders_full(np.ascontiguousarray(W[rest]), k)
        return order

    def _topk_orders_full(self, W: np.ndarray, k: int) -> np.ndarray:
        """:meth:`topk_orders` over the whole matrix, fan-out plan included."""
        plan = self._parallel_plan(W.shape[0])
        if plan == "functions":
            parts = self._supervised().run_function_chunks("topk", W, args=(k,))
            return np.concatenate(parts, axis=0)
        if plan == "rows":
            parts = self._supervised().run_row_chunks("topk_rows", W, self.n, args=(k,))
            return self._topk_merge_candidates(W, k, parts)
        return self.topk_order_batch(W, k)

    # ------------------------------------------------------------------
    # k-skyband candidate engines (see module docstring, "Exactness")
    def _candidate_split(
        self, W: np.ndarray, k: int
    ) -> tuple[np.ndarray, "_CandidateEngine"] | None:
        """The functions of this call a candidate engine answers, and it.

        ``None`` sends the whole call down the full path: too few
        functions pass the guards, or this k has no candidate set.
        """
        if W.shape[0] < _CANDIDATE_MIN_FUNCTIONS or 4 * k >= self.n:
            return None
        scale = float(np.abs(self.values).max())
        delta = _ROBUST_MARGIN * self.d * float(np.finfo(np.float64).eps) * scale
        if not delta >= np.finfo(np.float64).tiny:
            return None
        sums = W.sum(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            eligible = (
                (W >= 0.0).all(axis=1)
                & (delta * sums >= _ROBUST_FLOOR)
                & (scale * sums <= _ROBUST_CEILING)
            )
        if np.count_nonzero(eligible) < _CANDIDATE_MIN_FUNCTIONS:
            return None
        child = self._candidate_engine(k, delta)
        if child is None:
            return None
        return eligible, child

    def _candidate_engine(self, k: int, delta: float) -> "_CandidateEngine | None":
        """The cached candidate engine for ``k``, built on first use."""
        if k in self._candidates:
            self._candidates.move_to_end(k)
            return self._candidates[k]
        # Lazy: repro.geometry imports the engine (through ksets).
        from repro.geometry.skyline import robust_skyband

        self.stats["candidate_builds"] += 1
        rows = robust_skyband(
            self.values, k, delta, limit=int(_CANDIDATE_MAX_SHARE * self.n)
        )
        child = None if rows is None else _CandidateEngine(self, rows)
        self._candidates[k] = child
        if len(self._candidates) > _CANDIDATE_CACHE_SIZE:
            self._candidates.popitem(last=False)
        return child

    def _candidate_topk(
        self, child: "_CandidateEngine", W: np.ndarray, k: int
    ) -> np.ndarray:
        """Top-k of ``W`` from ``child``, in this engine's row ids.

        The child's counters are folded into ours, so the tier ratios
        keep counting every function, whichever engine answered it.
        """
        # The chunk loop, not a public entry point: the child never has
        # journaled rows or pending calibration to settle.
        local = child._topk_chunks(W, k)
        for key, value in child.stats.items():
            self.stats[key] += value
            child.stats[key] = 0
        self.stats["candidate_columns"] += W.shape[0]
        return child.rows[local]

    def topk_order_batch(self, weight_matrix: np.ndarray, k: int) -> np.ndarray:
        """The ``(m, k)`` best-first index rows of :meth:`topk_batch`,
        without bitset packing.

        This is the serial tiered evaluation — also the function-chunk
        work unit the parallel layer ships to workers (packing happens
        once, in the parent, over the merged order matrix).
        """
        self._sync()
        W = self._check_weights(weight_matrix)
        k = self._check_k(k)
        return self._topk_chunks(W, k)

    def _topk_chunks(self, W: np.ndarray, k: int) -> np.ndarray:
        """The serial chunk loop of :meth:`topk_order_batch`, unchecked."""
        m = W.shape[0]
        order = np.empty((m, k), dtype=np.int64)
        for lo in range(0, m, self._chunk_cols):
            hi = min(m, lo + self._chunk_cols)
            self._topk_chunk(W[lo:hi], k, order[lo:hi])
            self.stats["gemm_columns"] += hi - lo
        return order

    def _topk_chunk(self, Wc: np.ndarray, k: int, out_order: np.ndarray) -> None:
        """Fill ``out_order`` (mc, k) with the top-k of one column chunk.

        Tiered resolution, cheapest first:

        0. int8/int16 quantized screening (when enabled): one integer
           GEMM bounds every score rigorously; functions whose candidate
           set resolves inside the envelope are finished with one tiny
           exact rescore, the rest are promoted;
        1. float32 norm-pruned batch (when ``float32=True``);
        2. float64 norm-pruned batch for the rows tier 1 left contested;
        3. the scalar float64 GEMV algorithm, verbatim, for rows with
           genuine (near-)ties at a decision boundary.

        Each tier only sees the rows the previous tier could not decide,
        so clean data runs almost entirely in the bottom tier while
        degenerate data degrades gracefully to the seed's exact
        per-probe cost.
        """
        n = self.n
        if k >= n:
            self._topk_full_rank(Wc, k, out_order)
            return
        if self._quantizer is not None and self._quantizer.active:
            promoted = self._quant_topk_chunk(Wc, k, out_order)
            if promoted.size == 0:
                return
            if promoted.size <= self._tuning.quant_scalar_promote:
                # A handful of stragglers: the scalar kernel per function
                # is cheaper than spinning up the batch-tier machinery,
                # and identical by the exactness contract.
                for j in promoted:
                    out_order[j] = self._verified_topk_column(Wc[j], k)
                    self.stats["verified_columns"] += 1
                return
            if promoted.size < Wc.shape[0]:
                sub_order = np.empty((promoted.size, k), dtype=np.int64)
                self._float_tiers(np.ascontiguousarray(Wc[promoted]), k, sub_order)
                out_order[promoted] = sub_order
                return
        self._float_tiers(Wc, k, out_order)

    def _float_tiers(self, Wc: np.ndarray, k: int, out_order: np.ndarray) -> None:
        """Tiers 1-3: the float32/float64 batch passes + scalar fallback."""
        if self.float32:
            contested = self._topk_tier(Wc, k, out_order, use_f32=True)
            if contested.size:
                sub_order = np.empty((contested.size, k), dtype=np.int64)
                Wsub = np.ascontiguousarray(Wc[contested])
                still = self._topk_tier(Wsub, k, sub_order, use_f32=False)
                for j in still:
                    sub_order[j] = self._verified_topk_column(Wsub[j], k)
                    self.stats["verified_columns"] += 1
                out_order[contested] = sub_order
        else:
            contested = self._topk_tier(Wc, k, out_order, use_f32=False)
            for j in contested:
                out_order[j] = self._verified_topk_column(Wc[j], k)
                self.stats["verified_columns"] += 1

    def _quant_topk_chunk(self, Wc: np.ndarray, k: int, out_order: np.ndarray) -> np.ndarray:
        """Tier 0: integer-envelope top-k screening; returns promoted rows.

        One integer GEMM over a routed prefix bounds every score from
        both sides (:mod:`repro.engine.quantize`).  A probe over the top
        of the norm ordering yields a rigorous lower bound ``thr`` on
        each function's k-th score; every row whose upper bound reaches
        ``thr`` is a candidate, and the candidate set provably contains
        the whole top-k *including any boundary ties*.  Functions whose
        candidate count stays within the cap are finished here: the few
        candidates are re-scored exactly in float64 and ordered with the
        usual ulp-band checks (near-ties fall to the scalar kernel
        verbatim), so the result is bit-identical to the scalar path.
        Functions whose k-boundary sits inside the quantization envelope
        — candidate counts past the cap — are promoted to the float
        tiers, and the promote rate feeds the quantizer's adaptive
        int8 → int16 → off policy.
        """
        n = self.n
        mc = Wc.shape[0]
        if 4 * k >= n:
            # The probe would cover (most of) the matrix; the float tiers
            # resolve such shapes directly from their own probe.
            return np.arange(mc)
        state = self._quantizer.state
        if state is None:
            return np.arange(mc)
        Wq, b, usum, degenerate = state.quantize_weights(Wc)
        orderings = self._ensure_orderings()
        self.stats["quant_columns"] += mc
        # Probe: each function's k-th best *exact* score over the head of
        # the norm ordering cannot exceed its true k-th score, so (minus
        # the GEMM noise band) it is a rigorous screening threshold for
        # the whole matrix — and it is tighter than a quantized probe by
        # the width of the quantization envelope.
        c0 = min(n, max(4 * k, 64))
        use_f32 = self.float32
        _, _, block_scores = self._prefix_eval(orderings[0], Wc, k, c0, use_f32)
        L = block_scores.min(axis=1).astype(np.float64)
        eps = float(np.finfo(np.float64).eps)
        eps_probe = float(np.finfo(np.float32 if use_f32 else np.float64).eps)
        noise = self._noise_scale(Wc)
        tol = _TIE_BAND_ULPS * eps * noise
        thr = L - 4.0 * _TIE_BAND_ULPS * eps_probe * noise
        self._accumulate_probe_demand(Wc, thr)
        needs = self._prefix_needs(Wc, thr, k)
        best_o = np.argmin(needs, axis=1)
        cap = int(min(n, max(3 * k, 24)))
        # Candidate ids and exact scores for the whole chunk, scattered
        # into one rectangle (-1 / -inf pads): groups only screen and
        # gather, so the expensive finish — selection, ordering, band
        # checks — runs once per chunk, not once per (ordering, group).
        padded_ids = np.full((mc, cap), -1, dtype=np.int64)
        padded_scores = np.full((mc, cap), -np.inf)
        used_cap = k
        resolved_parts: list[np.ndarray] = []
        promoted_parts = [np.flatnonzero(degenerate)]
        rest = np.flatnonzero(~degenerate)
        for o, ordering in enumerate(self._orderings):
            rows = rest[best_o[rest] == o]
            if not rows.size:
                continue
            store = state.store(o, ordering.V)
            if store is None:
                promoted_parts.append(rows)
                continue
            c = min(n, max(int(needs[rows, o].max()), k))
            S = Wq[rows] @ store.Q[:c].T  # shifted integer sums, exact
            rhs = state.upper_rhs(thr[rows], b[rows], usum[rows]).astype(S.dtype)
            flat = np.flatnonzero((S >= rhs[:, None]).ravel())
            local = flat // c
            counts = np.bincount(local, minlength=rows.size)
            # The envelope must isolate at least k and at most cap rows,
            # else the boundary sits inside quantization noise: promote.
            good = (counts >= k) & (counts <= cap)
            if not good.all():
                promoted_parts.append(rows[~good])
                keep = good[local]
                flat = flat[keep]
                local = local[keep]
                if not flat.size:
                    continue
            kept = np.where(good, counts, 0)
            used_cap = max(used_cap, int(kept.max()))
            starts = np.cumsum(kept) - kept
            pos = np.arange(flat.size, dtype=np.int64) - starts[local]
            func = rows[local]
            gids = ordering.perm[flat % c]
            padded_ids[func, pos] = gids
            # Exact per-candidate float64 dots (the scalar kernel's
            # per-row accumulation), computed flat — no padding waste.
            padded_scores[func, pos] = np.einsum(
                "ij,ij->i", self.values[gids], Wc[func]
            )
            resolved_parts.append(rows[good])
        if resolved_parts:
            resolved = np.sort(np.concatenate(resolved_parts))
            self._quant_topk_finish(
                resolved,
                padded_ids[resolved, :used_cap],
                padded_scores[resolved, :used_cap],
                Wc,
                k,
                tol,
                out_order,
            )
        promoted = np.sort(np.concatenate(promoted_parts))
        self.stats["quant_resolved"] += mc - promoted.size
        self._quantizer.observe(mc, promoted.size)
        return promoted

    def _quant_topk_finish(
        self,
        rows: np.ndarray,
        gids: np.ndarray,
        scores: np.ndarray,
        Wc: np.ndarray,
        k: int,
        tol: np.ndarray,
        out_order: np.ndarray,
    ) -> None:
        """Order the screened candidates' k-blocks and write the top-k.

        ``gids``/``scores`` hold each function's candidate row ids and
        exact float64 scores (-1 / -inf pads).  The k-block is selected
        and ordered by score alone: for an uncontested function every
        boundary-deciding gap exceeds the ulp band, so score order *is*
        the scalar (score desc, index asc) order; any (near-)tie — which
        could make block content or internal order diverge from the
        scalar tie-break — lands in the banded checks and falls back to
        the scalar algorithm verbatim, exactly like the float tiers.
        """
        cap = scores.shape[1]
        if cap > k:
            blk = np.argpartition(scores, cap - k, axis=1)[:, cap - k :]
            blk_scores = np.take_along_axis(scores, blk, axis=1)
            blk_ids = np.take_along_axis(gids, blk, axis=1)
        else:
            blk_scores = scores
            blk_ids = gids
        order_in = np.argsort(-blk_scores, axis=1, kind="stable")
        sorted_scores = np.take_along_axis(blk_scores, order_in, axis=1)
        kth = sorted_scores[:, k - 1]
        tol_rows = tol[rows]
        contested = (scores >= (kth - tol_rows)[:, None]).sum(axis=1) != k
        if k > 1:
            tight = np.diff(sorted_scores, axis=1) > -tol_rows[:, None]
            contested |= tight.any(axis=1)
        out_order[rows] = np.take_along_axis(blk_ids, order_in, axis=1)
        for j in np.flatnonzero(contested):
            out_order[rows[j]] = self._verified_topk_column(Wc[rows[j]], k)
            self.stats["verified_columns"] += 1

    def _topk_full_rank(self, Wc: np.ndarray, k: int, out_order: np.ndarray) -> None:
        """k ≥ n: full ranking per function via one batched lexsort.

        Rows with (near-)tied neighbours still fall back, because tied
        reals need not be bit-identical between GEMM and the scalar GEMV
        path we promise to match.
        """
        n = self.n
        mc = Wc.shape[0]
        S = Wc @ self.values.T  # (mc, n)
        eps = float(np.finfo(np.float64).eps)
        tol = _TIE_BAND_ULPS * eps * np.max(np.abs(S), axis=1)
        keys_idx = np.broadcast_to(np.arange(n, dtype=np.int64), (mc, n))
        full_order = np.lexsort((keys_idx, -S), axis=-1)  # (mc, n)
        sorted_scores = np.take_along_axis(S, full_order, axis=1)
        tight = (np.diff(sorted_scores, axis=1) > -tol[:, None]).any(axis=1)
        out_order[:] = full_order
        for j in np.flatnonzero(tight):
            out_order[j] = self._verified_topk_column(Wc[j], k)
            self.stats["verified_columns"] += 1

    def _build_orderings(self) -> list["_Ordering"]:
        """Candidate row orders with per-position score upper bounds.

        Ordering 0 sorts rows by Euclidean norm descending: any row at
        position ≥ p scores at most ``‖row_p‖·‖w‖`` (Cauchy–Schwarz).
        Ordering j+1 sorts by attribute j descending with the two-term
        bound ``w_j·x_j(p) + ‖w_{−j}‖·maxrest_j(p)`` (valid when
        ``w_j ≥ 0``), which prunes sharply for axis-dominant functions —
        exactly the probes MDRC's cell corners generate — where the plain
        norm bound is loose.  Per-attribute orders are skipped when the
        extra copies would be large relative to the matrix itself.
        """
        row_norms = robust_row_norms(self.values)
        perm = np.argsort(-row_norms, kind="stable")
        norm_ordering = _Ordering(
            perm=perm,
            V=np.ascontiguousarray(self.values[perm]),
            V32=None,
            u=row_norms[perm],
            v=np.zeros(self.n),
            attribute=-1,
        )
        if self.float32:
            norm_ordering.V32 = norm_ordering.V.astype(np.float32)
        return [norm_ordering]

    def _build_attribute_orderings(self) -> None:
        """Add the per-attribute orderings (lazily, once justified)."""
        self._attr_orderings_built = True
        if self.n * self.d * (self.d + 1) * 8 > (1 << 29):
            return  # the extra copies would dwarf the matrix; skip
        for j in range(self.d):
            perm = np.argsort(-self.values[:, j], kind="stable")
            rest = robust_rest_norms(self.values, j)[perm]
            ordering = _Ordering(
                perm=perm,
                V=np.ascontiguousarray(self.values[perm]),
                V32=None,
                u=self.values[perm, j],
                v=np.maximum.accumulate(rest[::-1])[::-1],
                attribute=j,
                rest=rest,
            )
            if self.float32:
                ordering.V32 = ordering.V.astype(np.float32)
            self._orderings.append(ordering)

    def _bound_coeffs(self, Wc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per (function, ordering) bound coefficients ``a·u(p) + b·v(p)``.

        Entries are NaN for ineligible pairs (an attribute ordering's
        first term only bounds when that weight component is ≥ 0).
        """
        mc = Wc.shape[0]
        w_norms = np.linalg.norm(Wc, axis=1)
        A = np.empty((mc, len(self._orderings)))
        B = np.zeros((mc, len(self._orderings)))
        A[:, 0] = w_norms
        for o, ordering in enumerate(self._orderings[1:], start=1):
            wj = Wc[:, ordering.attribute]
            A[:, o] = np.where(wj >= 0.0, wj, np.nan)
            B[:, o] = np.sqrt(np.maximum(w_norms**2 - wj**2, 0.0))
        return A, B

    def _accumulate_probe_demand(self, Wc: np.ndarray, thr: np.ndarray) -> None:
        """Build the attribute orderings once probe volume justifies them.

        Charged with each batch's norm-ordering needs: when the
        accumulated prefix work exceeds a few full passes over the
        matrix, the sharper per-attribute orders pay for their argsorts
        and copies.
        """
        if self._attr_orderings_built:
            return
        norm_coeff = np.linalg.norm(Wc, axis=1)
        with np.errstate(divide="ignore"):
            first_need = np.searchsorted(
                -self._orderings[0].u,
                -(thr / np.where(norm_coeff > 0.0, norm_coeff, np.inf)),
                side="right",
            )
        self._excess_work += int(first_need.sum())
        if self._excess_work > 8 * self.n * (self.d + 1):
            self._build_attribute_orderings()

    def _prefix_needs(self, Wc: np.ndarray, thr: np.ndarray, k: int) -> np.ndarray:
        """Sufficient prefix sizes, one per (function, ordering).

        Every row beyond position ``needs[i, o]`` of ordering ``o``
        provably scores below ``thr[i]``.  Exact (searchsorted) under the
        norm ordering; quantized to a doubling grid under the attribute
        orderings, whose two-term bounds are only evaluated at grid
        positions.
        """
        n = self.n
        A, B = self._bound_coeffs(Wc)
        needs = np.empty((Wc.shape[0], len(self._orderings)), dtype=np.int64)
        needs[:, 0] = np.searchsorted(
            -self._orderings[0].u,
            -(thr / np.where(A[:, 0] > 0.0, A[:, 0], np.inf)),
            side="right",
        )
        grid = _geometric_grid(k, n)
        # The per-ordering grid gathers are probe-invariant; cache them
        # per (k, ordering count) so repeated batches skip the fancy
        # indexing (the cache is tiny: one grid-length pair per entry).
        cache_key = (int(k), len(self._orderings))
        cached = self._grid_cache.get(cache_key)
        if cached is None:
            cached = [
                (ordering.u[grid], ordering.v[grid])
                for ordering in self._orderings[1:]
            ]
            self._grid_cache[cache_key] = cached
        for o, (u_grid, v_grid) in enumerate(cached, start=1):
            bound = A[:, o, None] * u_grid[None, :] + B[:, o, None] * (
                v_grid[None, :]
            )
            # The bound is non-increasing along the grid, so the count of
            # still-live positions is the index of the first prunable one.
            with np.errstate(invalid="ignore"):
                first_dead = (bound >= thr[:, None]).sum(axis=1)
            needs[:, o] = np.append(grid, n)[first_dead]
            # Ineligible (negative-weight) pairs can never prune.
            needs[np.isnan(A[:, o]), o] = n
        return needs

    def _ordering_v32(self, ordering: "_Ordering") -> np.ndarray:
        """The ordering's float32 matrix copy, built once on demand."""
        if ordering.V32 is None:
            ordering.V32 = ordering.V.astype(np.float32)
        return ordering.V32

    def _ordering_inv(self, ordering: "_Ordering") -> np.ndarray:
        """The ordering's inverse permutation (row id -> prefix position)."""
        if ordering.inv is None:
            inv = np.empty(self.n, dtype=np.int64)
            inv[ordering.perm] = np.arange(self.n, dtype=np.int64)
            ordering.inv = inv
        return ordering.inv

    def _noise_scale(self, W: np.ndarray) -> np.ndarray:
        """Per-function magnitude bound for GEMM rounding noise.

        Floating-point dot-product error scales with ``sum_i |w_i x_i| <=
        ||w|| * max_row ||x||`` — NOT with the resulting score, which can
        be far smaller under cancellation (mixed-sign weights, or
        near-opposite columns).  Every ulp band in the counting paths
        must therefore be scaled by this bound rather than by ``|best|``,
        or rows can cross a threshold by more than the band and be
        miscounted without ever triggering the exact fallback.
        """
        if self._max_row_norm is None:
            self._max_row_norm = float(robust_row_norms(self.values).max())
        return np.linalg.norm(W, axis=1) * self._max_row_norm

    def _topk_tier(
        self, Wc: np.ndarray, k: int, out_order: np.ndarray, use_f32: bool
    ) -> np.ndarray:
        """One batched top-k attempt; returns the still-contested row ids.

        A small norm-ordered probe establishes each function's k-th-best
        score L; the per-ordering bounds then give a *sufficient* prefix
        size per (function, ordering) — every row outside that prefix
        provably scores below ``L − 4·tol``.  Each function is routed to
        its cheapest ordering and evaluated once at that size, so
        selection cost tracks the candidate count instead of n.
        Uncontested rows are written to ``out_order``; rows with any
        (near-)tie at the k boundary or between ranked neighbours are
        returned for the next tier.
        """
        n = self.n
        mc = Wc.shape[0]
        eps = float(np.finfo(np.float32 if use_f32 else np.float64).eps)
        if self._orderings is None:
            self._orderings = self._build_orderings()
        norm_ord = self._orderings[0]

        c0 = n if 4 * k >= n else min(n, max(4 * k, 64))
        S, blk, block_scores = self._prefix_eval(norm_ord, Wc, k, c0, use_f32)
        L = block_scores.min(axis=1)
        thr = L - 4.0 * _TIE_BAND_ULPS * eps * np.abs(L)

        contested_parts: list[np.ndarray] = []
        if c0 == n:
            # No pruning happened, so no pruning-threshold caveat applies.
            return self._finalize(
                np.arange(mc), S, blk, block_scores, norm_ord, Wc, k, use_f32,
                out_order, np.full(mc, -np.inf), eps,
            )

        # Exact need under the norm ordering, grid-quantized need under
        # the attribute orderings; route each function to the cheapest.
        # The attribute orderings are only constructed once enough probe
        # demand has accumulated to amortize their argsorts and copies.
        self._accumulate_probe_demand(Wc, thr)
        needs = self._prefix_needs(Wc, thr, k)
        best_o = np.argmin(needs, axis=1)

        # The probe already holds the full answer for functions whose
        # norm-ordering need fits inside it.
        done = np.flatnonzero(needs[:, 0] <= c0)
        if done.size:
            contested_parts.append(
                self._finalize(
                    done, S[done], blk[done], block_scores[done], norm_ord, Wc,
                    k, use_f32, out_order, thr, eps,
                )
            )
        rest = np.setdiff1d(np.arange(mc), done, assume_unique=True)
        for o, ordering in enumerate(self._orderings):
            rows = rest[best_o[rest] == o]
            if not rows.size:
                continue
            c = min(n, max(int(needs[rows, o].max()), k + 1))
            Wrows = np.ascontiguousarray(Wc[rows])
            So, blko, bso = self._prefix_eval(ordering, Wrows, k, c, use_f32)
            contested_parts.append(
                self._finalize(
                    rows, So, blko, bso, ordering, Wc, k, use_f32, out_order,
                    thr, eps,
                )
            )
        parts = [p for p in contested_parts if p.size]
        if not parts:
            return np.empty(0, dtype=np.intp)
        return np.sort(np.concatenate(parts))

    def _prefix_eval(
        self,
        ordering: "_Ordering",
        Wc: np.ndarray,
        k: int,
        c: int,
        use_f32: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score a prefix and select its top-k block (prefix-local ids)."""
        V = ordering.V32 if use_f32 else ordering.V
        Wgemm = Wc.astype(np.float32) if use_f32 else Wc
        S = Wgemm @ V[:c].T  # (mc, c)
        if c > k:
            blk = np.argpartition(S, c - k, axis=1)[:, c - k :]
        else:
            blk = np.broadcast_to(np.arange(c), (Wc.shape[0], c))
        return S, blk, np.take_along_axis(S, blk, axis=1)

    def _finalize(
        self,
        rows: np.ndarray,
        S: np.ndarray,
        blk: np.ndarray,
        block_scores: np.ndarray,
        ordering: "_Ordering",
        Wc: np.ndarray,
        k: int,
        use_f32: bool,
        out_order: np.ndarray,
        thr: np.ndarray,
        eps: float,
    ) -> np.ndarray:
        """Contest-check and write one evaluated group; return contested ids.

        ``rows`` are chunk-level function ids; ``S``/``blk``/``block_scores``
        are their prefix evaluation under ``ordering``.
        """
        kth = block_scores.min(axis=1)
        top = block_scores.max(axis=1)
        # Noise scale of the scores involved in boundary decisions.
        tol = _TIE_BAND_ULPS * eps * np.maximum(np.abs(top), np.abs(kth))
        # Exactly k prefix scores at-or-above the banded threshold ⇔ the
        # boundary is uncontested and the block is the unique answer —
        # provided the pruning threshold really cleared the band (it can
        # fail to when the probe's L underestimated the true k-th score
        # by more than the 4× margin; those rows go to the next tier).
        contested = ((S >= (kth - tol)[:, None]).sum(axis=1) != k) | (
            thr[rows] > kth - tol
        )

        fast = np.flatnonzero(~contested)
        if fast.size:
            fblk = ordering.perm[blk[fast]]  # global row ids
            if use_f32:
                # Order by float64 scores recomputed per row (batched
                # matvec: no einsum path search on the hot loop).
                scr = np.matmul(
                    self.values[fblk], Wc[rows[fast], :, None]
                )[:, :, 0]
            else:
                scr = block_scores[fast]
            if k > 1:
                order_in_blk = np.lexsort((fblk, -scr), axis=-1)  # (f, k)
                out_order[rows[fast]] = np.take_along_axis(
                    fblk, order_in_blk, axis=-1
                )
                # Intra-block (near-)ties are contested too: ordering by
                # batch scores could flip what the scalar kernel returns.
                sorted_scores = np.take_along_axis(scr, order_in_blk, axis=-1)
                tight = (np.diff(sorted_scores, axis=1) > -tol[fast, None]).any(axis=1)
                contested[fast[tight]] = True
            else:
                out_order[rows[fast]] = fblk
        return rows[np.flatnonzero(contested)]

    def _verified_topk_column(self, w: np.ndarray, k: int) -> np.ndarray:
        """Exact top-k of one contested column.

        Falls back to the scalar algorithm verbatim: one float64 GEMV —
        the same kernel :func:`repro.ranking.topk.top_k` uses, so the
        result is bit-identical to the scalar path by construction, and
        identical rows receive identical scores (per-row accumulation,
        unlike the blocked GEMM of the fast path) — then the seed's
        over-select / lexsort boundary handling.
        """
        n = self.n
        score = self.values @ w
        if k >= n:
            candidates = np.arange(n)
        else:
            kth = np.partition(score, n - k)[n - k]
            candidates = np.flatnonzero(score >= kth)
        ordering = np.lexsort((candidates, -score[candidates]))
        return candidates[ordering[:k]].astype(np.int64)

    # ------------------------------------------------------------------
    # memoized single probes
    def top_k_packed(self, weights: np.ndarray, k: int) -> TopKBatch:
        """Single-function top-k behind the LRU memo.

        Returns a :class:`TopKBatch` with ``m = 1``; treat the arrays as
        read-only — they are shared with the memo.
        """
        self._sync()
        w = np.ascontiguousarray(np.asarray(weights, dtype=np.float64).reshape(-1))
        if w.size != self.d:
            raise ValidationError(
                f"weight vector has {w.size} entries for {self.d} attributes"
            )
        k = self._check_k(k)
        key = (w.tobytes(), k)
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            self.stats["memo_hits"] += 1
            return hit
        self.stats["memo_misses"] += 1
        entry = self.topk_batch(w[None, :], k)
        self._memo[key] = entry
        if len(self._memo) > self._memo_size:
            self._memo.popitem(last=False)
        return entry

    def top_k(self, weights: np.ndarray, k: int) -> np.ndarray:
        """Best-first top-k indices of one function (memoized)."""
        return self.top_k_packed(weights, k).order[0]

    # ------------------------------------------------------------------
    # batched rank counting
    def _check_subset(self, subset: np.ndarray) -> np.ndarray:
        members = np.asarray(sorted({int(i) for i in np.asarray(subset).reshape(-1)}))
        if members.size == 0:
            raise ValidationError("subset must be non-empty")
        if members[0] < 0 or members[-1] >= self.n:
            raise ValidationError("subset indices out of range")
        return members

    def rank_of_best_batch(
        self, weight_matrix: np.ndarray, subset: np.ndarray
    ) -> np.ndarray:
        """Per function, the rank of the best ``subset`` member.

        Returns ``(m,)`` int64: ``1 +`` the number of rows scoring
        *strictly* above the subset's best score under each function —
        the quantity the Monte-Carlo rank-regret estimator maximizes.

        Counting is pruned and tiered: the subset's best score (one
        small float64 GEMM over the member rows) is a lower bound no
        counted row may miss, so each function is routed to the
        norm/attribute ordering with the smallest sufficient prefix and
        counted over that prefix only, in float32, in cache-sized fused
        chunks.  Any function with a non-member row inside the float32
        ulp band around the bound is recomputed with the deterministic
        scalar float64 kernel — so GEMM noise (e.g. between identical
        rows) can never inflate a rank, and the result is bit-identical
        to the pre-pruning full-scan path for every input.
        """
        self._sync()
        W = self._check_weights(weight_matrix)
        members = self._check_subset(subset)
        m = W.shape[0]
        plan = self._parallel_plan(m)
        if plan == "functions":
            parts = self._supervised().run_function_chunks("rank", W, args=(members,))
            return np.concatenate(parts)
        if plan == "rows":
            return self._rank_row_merge(W, members)
        return self._rank_functions(W, members)

    def _rank_functions(self, W: np.ndarray, members: np.ndarray) -> np.ndarray:
        """Serial pruned rank counting (also the function-chunk work unit).

        Tiered like :meth:`_topk_chunk`, with one twist: on clean data
        the float32 banded count and the quantized screen issue the same
        GEMM, but the screen pays extra threshold passes and a band
        gather, so quantization only *wins* when the float path keeps
        dropping whole functions to the exact scalar kernel (tie-dense
        or duplicate-heavy data, where each drop costs a full ``n·d``
        rescan).  The engine therefore measures the float path's
        fallback rate and engages the quantized screen — which resolves
        the same near-ties from a small exact gather instead — once that
        rate crosses the profile's ``rank_quant_fallback_ratio``.  Either route is
        bit-identical to ``rank_of``.
        """
        m = W.shape[0]
        ranks = np.empty(m, dtype=np.int64)
        if m == 0:
            return ranks
        # The exactness anchor: each function's best member score, from a
        # dedicated float64 GEMM over the s << n member rows.
        member_values = self.values[members]
        best = np.empty(m)
        for lo in range(0, m, self._chunk_cols):
            hi = min(m, lo + self._chunk_cols)
            best[lo:hi] = (W[lo:hi] @ member_values.T).max(axis=1)
        use_quant = (
            self._quantizer is not None
            and self._rank_float_columns >= self._tuning.rank_quant_min_sample
            and self._rank_float_fallbacks
            > self._tuning.rank_quant_fallback_ratio * self._rank_float_columns
            and self._quantizer.active
        )
        if use_quant:
            promoted = self._quant_rank(W, members, best, ranks)
            if promoted.size == 0:
                return ranks
            if promoted.size < m:
                ranks[promoted] = self._rank_functions_float(
                    np.ascontiguousarray(W[promoted]), members, best[promoted]
                )
                return ranks
        ranks[:] = self._rank_functions_float(W, members, best)
        return ranks

    def _rank_functions_float(
        self, W: np.ndarray, members: np.ndarray, best: np.ndarray
    ) -> np.ndarray:
        """Pruned float32 banded counting (tiers 1-3 of the rank ladder)."""
        n = self.n
        m = W.shape[0]
        ranks = np.empty(m, dtype=np.int64)
        # The banded count is only sound while every quantity it compares
        # is *finite* in float32: an overflowed threshold or score is inf
        # (or nan via inf * 0 in the GEMM), and inf > inf is False — rows
        # scoring strictly above the bound would be silently dropped from
        # BOTH the `above` and `near` counts, so the near-band mismatch
        # check that normally forces the exact fallback never fires and
        # the rank is undercounted.  The same silent escape happens at
        # the *bottom* of the range: when the score bound is subnormal
        # in float32 the band ``_TIE_BAND_ULPS * eps32 * nscale``
        # flushes to zero, every score collapses onto ``best`` exactly,
        # and the strict two-sided band test counts nothing on either
        # side — rows genuinely above the bound (e.g. 1e-300 vs 0.0)
        # are dropped without ever being flagged contested.  Functions
        # whose magnitude bounds (||w||, max ||row||, or their product
        # — the score bound) leave the float32 range in either
        # direction therefore skip the float32 tier entirely and count
        # with the exact float64 kernel.
        f32_lim = float(np.finfo(np.float32).max) / 8.0
        f32_sub = float(np.finfo(np.float32).tiny) / float(np.finfo(np.float32).eps)
        nscale = self._noise_scale(W)
        w_norms = np.linalg.norm(W, axis=1)
        unsafe = (
            (nscale >= f32_lim)
            | (w_norms >= f32_lim)
            | ((nscale > 0.0) & (nscale <= f32_sub))
        )
        if self._max_row_norm >= f32_lim:
            unsafe[:] = True
        if unsafe.any():
            for j in np.flatnonzero(unsafe):
                exact = self.values @ W[j]
                ranks[j] = int((exact > exact[members].max()).sum()) + 1
                self.stats["verified_columns"] += 1
            self._rank_float_columns += int(unsafe.sum())
            self._rank_float_fallbacks += int(unsafe.sum())
            safe = np.flatnonzero(~unsafe)
            if safe.size:
                ranks[safe] = self._rank_functions_float(
                    np.ascontiguousarray(W[safe]), members, best[safe]
                )
            return ranks
        fallbacks_before = self.stats["verified_columns"]
        eps32 = float(np.finfo(np.float32).eps)
        # Band scaled by the rounding-noise bound ||w|| * max ||row||, not
        # by |best|: under cancellation float32 scores can be off by far
        # more than any |best|-relative band, and rows must land in the
        # contested band (-> exact fallback) rather than be miscounted.
        tol = _TIE_BAND_ULPS * eps32 * nscale
        thr = best - 4.0 * tol
        if self._orderings is None:
            self._orderings = self._build_orderings()
        self._accumulate_probe_demand(W, thr)
        needs = self._prefix_needs(W, thr, self._tuning.rank_grid_base)
        best_o = np.argmin(needs, axis=1)
        need = np.clip(needs[np.arange(m), best_o], 1, n)
        # Quantize prefix sizes to a doubling grid so one GEMM serves a
        # whole group of similarly-needy functions.
        sizes = np.append(_geometric_grid(self._tuning.rank_grid_base, n), n)
        bucket = np.searchsorted(sizes, need)
        W32 = W.astype(np.float32)
        hi_t = (best + tol).astype(np.float32)
        lo_t = (best - tol).astype(np.float32)
        group_key = best_o * (len(sizes) + 1) + bucket
        order = np.argsort(group_key, kind="stable")
        starts = np.flatnonzero(np.diff(group_key[order])) + 1
        for group in np.split(order, starts):
            ordering = self._orderings[int(best_o[group[0]])]
            c = int(sizes[bucket[group[0]]])
            prefix32 = self._ordering_v32(ordering)[:c]
            positions = self._ordering_inv(ordering)[members]
            in_prefix = positions[positions < c]
            # Fused count chunks: size the float32 score buffer to sit in
            # cache so the threshold passes run on hot data.
            cols = max(16, min(1024, self._tuning.rank_buffer_bytes // (4 * c)))
            for glo in range(0, group.size, cols):
                rows = group[glo : glo + cols]
                S = W32[rows] @ prefix32.T  # (|rows|, c)
                above = (S > hi_t[rows][:, None]).sum(axis=1)
                near = (S > lo_t[rows][:, None]).sum(axis=1)
                if in_prefix.size:
                    member_near = (
                        S[:, in_prefix] > lo_t[rows][:, None]
                    ).sum(axis=1)
                else:
                    member_near = 0
                self.stats["gemm_columns"] += rows.size
                self.stats["rank_prefix_rows"] += rows.size * c
                # Members never clear best + tol, so `above` counts
                # non-members only; a non-member inside the band means
                # the float32 decision is contestable -> exact fallback.
                for j in np.flatnonzero(near - member_near != above):
                    exact = self.values @ W[rows[j]]
                    above[j] = int((exact > exact[members].max()).sum())
                    self.stats["verified_columns"] += 1
                ranks[rows] = above + 1
        # Feed the adaptive rank-tier policy (see _rank_functions).
        self._rank_float_columns += m
        self._rank_float_fallbacks += self.stats["verified_columns"] - fallbacks_before
        return ranks

    def _quant_rank(
        self,
        W: np.ndarray,
        members: np.ndarray,
        best: np.ndarray,
        ranks: np.ndarray,
    ) -> np.ndarray:
        """Tier 0 of rank counting: integer screening; returns promoted rows.

        Per function, one integer GEMM over the routed prefix splits the
        rows three ways with rigorous bounds: *surely above* the
        subset's best score (counted without ever computing an exact
        score), *surely below* (ignored), and an *envelope band* that is
        gathered and re-scored exactly.  Band rows within the ulp band
        of ``best`` drop the whole function to the exact scalar kernel;
        a band wider than the profile's ``quant_rank_cap`` promotes the function to
        the float32 banded count instead.  Counts written into ``ranks``
        are bit-identical to the full-scan scalar path.
        """
        n = self.n
        m = W.shape[0]
        state = self._quantizer.state
        if state is None:
            return np.arange(m)
        Wq, b, usum, degenerate = state.quantize_weights(W)
        self._ensure_orderings()
        self.stats["quant_columns"] += m
        eps = float(np.finfo(np.float64).eps)
        tol = _TIE_BAND_ULPS * eps * self._noise_scale(W)
        thr = best - 4.0 * tol
        self._accumulate_probe_demand(W, thr)
        needs = self._prefix_needs(W, thr, self._tuning.rank_grid_base)
        best_o = np.argmin(needs, axis=1)
        need = np.clip(needs[np.arange(m), best_o], 1, n)
        sizes = np.append(_geometric_grid(self._tuning.rank_grid_base, n), n)
        bucket = np.searchsorted(sizes, need)
        is_member = np.zeros(n, dtype=bool)
        is_member[members] = True
        promoted_parts = [np.flatnonzero(degenerate)]
        group_key = best_o * (len(sizes) + 1) + bucket
        rest = np.flatnonzero(~degenerate)
        order = rest[np.argsort(group_key[rest], kind="stable")]
        starts = np.flatnonzero(np.diff(group_key[order])) + 1
        for group in np.split(order, starts) if order.size else []:
            ordering = self._orderings[int(best_o[group[0]])]
            store = state.store(int(best_o[group[0]]), ordering.V)
            if store is None:
                promoted_parts.append(group)
                continue
            c = int(sizes[bucket[group[0]]])
            Qc = store.Q[:c]
            absq = store.absq[:c]
            itemsize = Qc.dtype.itemsize
            cols = max(16, min(1024, self._tuning.rank_buffer_bytes // (itemsize * c)))
            for glo in range(0, group.size, cols):
                rows = group[glo : glo + cols]
                S = Wq[rows] @ Qc.T  # shifted integer sums, exact in carrier
                rhs_hi = state.lower_rhs(
                    best[rows] + tol[rows], b[rows], usum[rows]
                ).astype(S.dtype)
                rhs_lo = state.upper_rhs(
                    best[rows] - tol[rows], b[rows], usum[rows]
                ).astype(S.dtype)
                sure_mask = (S - absq[None, :]) > rhs_hi[:, None]
                band_mask = (S >= rhs_lo[:, None]) & ~sure_mask
                sure = sure_mask.sum(axis=1, dtype=np.int64)
                band = band_mask.sum(axis=1, dtype=np.int64)
                self.stats["gemm_columns"] += rows.size
                self.stats["rank_prefix_rows"] += rows.size * c
                ok = band <= self._tuning.quant_rank_cap
                if not ok.all():
                    promoted_parts.append(rows[~ok])
                    rows = rows[ok]
                    if not rows.size:
                        continue
                    sure = sure[ok]
                    band_mask = band_mask[ok]
                    band = band[ok]
                ranks[rows] = sure + 1
                if not band.any():
                    continue
                # Gather and exactly re-score the envelope-band rows.
                flat = np.flatnonzero(band_mask.ravel())
                starts_b = np.cumsum(band) - band
                pos = np.arange(flat.size, dtype=np.int64) - np.repeat(starts_b, band)
                row_rep = np.repeat(np.arange(rows.size, dtype=np.int64), band)
                padded = np.full((rows.size, int(band.max())), -1, dtype=np.int64)
                padded[row_rep, pos] = flat % c
                pad = padded < 0
                gids = ordering.perm[np.where(pad, 0, padded)]
                # Members sit inside the band by construction (their
                # scores ARE near best); they are never counted, and must
                # not trigger the near-tie fallback either.
                drop = pad | is_member[gids]
                scores = np.matmul(self.values[gids], W[rows][:, :, None])[:, :, 0]
                scores[drop] = -np.inf
                best_r = best[rows][:, None]
                tol_r = tol[rows][:, None]
                ranks[rows] += (scores > best_r).sum(axis=1)
                near = np.abs(scores - best_r) <= tol_r
                for j in np.flatnonzero(near.any(axis=1)):
                    exact = self.values @ W[rows[j]]
                    ranks[rows[j]] = int((exact > exact[members].max()).sum()) + 1
                    self.stats["verified_columns"] += 1
        promoted = np.sort(np.concatenate(promoted_parts))
        self.stats["quant_resolved"] += m - promoted.size
        self._quantizer.observe(m, promoted.size)
        return promoted

    def rank_count_slice(
        self, weight_matrix: np.ndarray, subset: np.ndarray, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-chunk work unit: strictly-above counts over rows [lo, hi).

        Returns ``(above, contested)``: per function, the number of rows
        in the slice scoring above the subset's best + tolerance, and
        whether any non-member slice row landed inside the ulp band (the
        parent then resolves that function with the exact scalar
        kernel).  Summing ``above`` over a partition of the rows equals
        the full-scan count because every uncontested decision is exact.
        """
        self._sync()
        W = self._check_weights(weight_matrix)
        members = self._check_subset(subset)
        best = (W @ self.values[members].T).max(axis=1)
        eps = float(np.finfo(np.float64).eps)
        tol = _TIE_BAND_ULPS * eps * self._noise_scale(W)
        S = W @ self.values[lo:hi].T
        self.stats["gemm_columns"] += W.shape[0]
        above = (S > (best + tol)[:, None]).sum(axis=1)
        near = (S > (best - tol)[:, None]).sum(axis=1)
        inside = members[(members >= lo) & (members < hi)]
        if inside.size:
            member_near = (S[:, inside - lo] > (best - tol)[:, None]).sum(axis=1)
        else:
            member_near = np.zeros(W.shape[0], dtype=np.int64)
        return above.astype(np.int64), near - member_near != above

    def _rank_row_merge(self, W: np.ndarray, members: np.ndarray) -> np.ndarray:
        """Fan a small batch out over row chunks and merge the counts.

        Row chunks scan the full matrix, so they only pay off when the
        pruned serial path could not already cut the work: a cheap
        norm-ordering probe routes strongly-prunable calls back to
        :meth:`_rank_functions` instead of inflating total work across
        the pool.
        """
        if self._orderings is None:
            self._orderings = self._build_orderings()
        best = (W @ self.values[members].T).max(axis=1)
        eps32 = float(np.finfo(np.float32).eps)
        thr = best - 4.0 * _TIE_BAND_ULPS * eps32 * self._noise_scale(W)
        norms = np.linalg.norm(W, axis=1)
        need = np.searchsorted(
            -self._orderings[0].u,
            -(thr / np.where(norms > 0.0, norms, np.inf)),
            side="right",
        )
        if int(need.max(initial=0)) < self.n // 2:
            return self._rank_functions(W, members)
        parts = self._supervised().run_row_chunks(
            "rank_rows", W, self.n, args=(members,)
        )
        above = np.zeros(W.shape[0], dtype=np.int64)
        contested = np.zeros(W.shape[0], dtype=bool)
        for part_above, part_contested in parts:
            above += part_above
            contested |= part_contested
        for j in np.flatnonzero(contested):
            exact = self.values @ W[j]
            above[j] = int((exact > exact[members].max()).sum())
            self.stats["verified_columns"] += 1
        return above + 1

    # ------------------------------------------------------------------
    # row-chunked top-k (work unit + merge)
    def topk_candidates_slice(
        self, weight_matrix: np.ndarray, k: int, lo: int, hi: int
    ) -> list[np.ndarray]:
        """Row-chunk work unit: top-k *candidates* within rows [lo, hi).

        Per function, every slice row whose GEMM score reaches the
        slice's k-th best minus the ulp band — a superset of the rows
        that can appear in the global top-k, since a true top-k row
        ranks in the top-k of its own slice by exact scores and GEMM
        deviations are far smaller than the band.
        """
        self._sync()
        W = self._check_weights(weight_matrix)
        k = self._check_k(k)
        height = hi - lo
        S = W @ self.values[lo:hi].T  # (m, height)
        self.stats["gemm_columns"] += W.shape[0]
        if k >= height:
            full = np.arange(lo, hi, dtype=np.int64)
            return [full] * W.shape[0]
        eps = float(np.finfo(np.float64).eps)
        tol = _TIE_BAND_ULPS * eps * self._noise_scale(W)
        blk = np.argpartition(S, height - k, axis=1)[:, height - k :]
        kth = np.take_along_axis(S, blk, axis=1).min(axis=1)
        return [
            (lo + np.flatnonzero(S[i] >= kth[i] - tol[i])).astype(np.int64)
            for i in range(W.shape[0])
        ]

    def _topk_merge_candidates(
        self, W: np.ndarray, k: int, parts: list[list[np.ndarray]]
    ) -> np.ndarray:
        """Merge per-slice candidate lists into exact top-k rows.

        Candidates are re-scored with per-row float64 dots (the scalar
        kernel's accumulation) and ordered by (score desc, index asc);
        any (near-)tie within the band among the boundary-deciding
        scores falls back to the scalar algorithm verbatim, exactly like
        the tiered serial path.
        """
        m = W.shape[0]
        out = np.empty((m, k), dtype=np.int64)
        eps = float(np.finfo(np.float64).eps)
        scales = self._noise_scale(W)
        for i in range(m):
            cand = np.concatenate([part[i] for part in parts])
            scores = self.values[cand] @ W[i]
            order = np.lexsort((cand, -scores))
            boundary = scores[order[: min(cand.size, k + 1)]]
            tol = _TIE_BAND_ULPS * eps * scales[i]
            if (np.diff(boundary) > -tol).any():
                out[i] = self._verified_topk_column(W[i], k)
                self.stats["verified_columns"] += 1
            else:
                out[i] = cand[order[:k]]
        return out


class _CandidateEngine(ScoreEngine):
    """A serial engine over a parent's robust k-skyband rows.

    Runs the parent's tier ladder unchanged over ``parent.values[rows]``
    with the parent's float32/quantize/tuning settings.  The one
    difference is the scalar fallback: a contested column is resolved by
    the *parent's* full-matrix kernel and mapped to child row ids, so it
    equals the scalar path over the whole matrix by construction.
    """

    def __init__(self, parent: ScoreEngine, rows: np.ndarray) -> None:
        super().__init__(parent.values[rows], **parent._worker_config())
        self.parent = parent
        self.rows = rows

    def _verified_topk_column(self, w: np.ndarray, k: int) -> np.ndarray:
        # The parent's answer lies inside the band (module docstring), and
        # ``rows`` is sorted, so the position of each id is its child id.
        return np.searchsorted(self.rows, self.parent._verified_topk_column(w, k))
