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

With ``n_jobs > 1`` a bulk call of at least ``2·n_jobs`` functions
above a work cutover is split into function-chunk work units and fanned
out over an in-process thread pool of zero-copy engine clones
(:mod:`repro.engine.parallel`); the exactness contract makes any split
bit-identical to the serial path, and a unit's exception reaches the
caller as it was raised.  Every other call runs serially.

Exactness
---------
Tie-breaking follows the library-wide rule (score descending, row index
ascending), and the contract is *bit-identical results to the scalar*
``top_k``/``rank_of`` *path*.  Top-k decisions climb a four-tier
ladder — ``int8 → float32 → float64 → scalar`` — in which each tier
resolves only the columns it can prove and promotes the rest; rank
counting takes the float32 tier and the scalar fallback only:

* the **quantized tier** (:mod:`repro.engine.quantize`) bounds every
  score from above with exact small-integer arithmetic; functions
  whose candidate set it isolates are finished from a tiny exact
  rescore, and functions whose k boundary falls inside the
  quantization envelope are promoted;
* the **float batch tiers** trust the GEMM scores except where a score
  sits inside the contested band of a decision boundary or of a ranked
  neighbour (possible even for identical rows);
* contested columns fall back to the **scalar algorithm verbatim** (one
  float64 GEMV plus the seed's over-select / lexsort), so they match
  the scalar path by construction, and uncontested columns match it
  because their gaps exceed any GEMM↔GEMV deviation.

**Small calls skip the ladder.**  A serial call whose work ``m·n`` is at
most ``_SCALAR_MAX_WORK`` score entries — a served request is typically
one function — is answered by that scalar kernel directly, per function
(:meth:`_verified_topk_column` for top-k, :meth:`_verified_rank` for
rank).  The kernel *is* the definition every tier is checked against,
so the route needs no band; below the cutover it is cheaper than the
ladder's fixed cost of some fifty numpy calls.  Fan-out work units,
k-skyband children and large batches keep the ladder.  :meth:`small_call`
tells a caller in advance that a call will take this route with
nothing to settle first; the serving front-end answers such reads on
its event loop.

Every band — the contested width, the pruning floors, the float32 range
guard and the k-skyband margin — comes from one model in
:mod:`repro.engine.bands`: a width of ``64·eps(tier)·‖w‖·max‖x‖``
(widened in proportion to d past 31 attributes, 61 in float32), which
bounds the rounding error of any summation order however much the
scores cancel.  With ``float32=True`` the batch tier runs in single
precision (≈2× GEMM throughput, half the memory traffic) with the
float32 band, block ordering is recomputed in float64, and functions
whose magnitudes leave the float32 range are scored in float64.

**The k-skyband candidate set.**  For weights ``w ≥ 0`` only rows with
fewer than k dominators can reach a top-k, and K-SETr's batches are all
such functions.  A row with k or more *robust* dominators (``q_j >
fl(p_j + δ)`` in every coordinate, with the margin δ of
:func:`repro.engine.bands.robust_margin`) has k rows strictly above it
in the scalar order (score descending, then index ascending) and is
never in the scalar top-k; any superset of the robust k-skyband holds
every answer.  :meth:`topk_orders` uses this for a call with at least
``_CANDIDATE_MIN_FUNCTIONS`` functions that
:func:`~repro.engine.bands.robust_eligible` accepts (every ``w_j ≥ 0``,
no underflowing gap, no overflow) when ``4k < n``.  Those functions are
answered by a serial child engine over the band rows
(:func:`repro.geometry.skyline.robust_skyband`, built lazily per k and
dropped on every compaction) that runs the ladder above verbatim except
that a contested column falls back to *this* engine's full-matrix scalar
kernel.  Contested columns thus equal the scalar path by construction;
uncontested ones equal it by the band argument, since every
non-candidate row scores strictly below the k-th answer; and the child
keeps row order, so index tie-breaks carry over.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from repro.engine import bands
from repro.engine.autotune import TuningProfile
from repro.engine.bitset import pack_membership, packed_width
from repro.engine.parallel import _chunk_bounds, resolve_n_jobs
from repro.engine.quantize import Quantizer
from repro.exceptions import InvalidDataError, ValidationError

__all__ = ["ScoreEngine", "TopKBatch"]

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
# Candidate engines kept, one per k.
_CANDIDATE_CACHE_SIZE = 4

# Small-call route (see the module docstring): a serial call with at most
# this many score entries (m·n) is answered by the exact scalar kernel,
# one float64 GEMV per function.  Warm at 20k x 4 on a 2-vCPU host the
# kernel beats the ladder up to m ≈ 8 and loses beyond; at 200k it loses
# even at m = 1 (single functions break even near 90k rows), because the
# ladder prunes more as n grows.  2^16 routes m <= 3 at 20k rows and
# single functions up to 65,536 rows, inside both break-evens.
_SCALAR_MAX_WORK = 1 << 16

# Rank counting runs in blocks of this many functions, so its planning
# arrays (thresholds, prefix needs, bound temporaries, group keys) are
# block-sized however many functions one call counts.  At 20k x 4 with
# 100k functions, blocks of 2,048 to 16,384 all timed within noise.
_RANK_BLOCK = 8192

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
    most ``a(w)·u[p] + b(w)·v[p]`` for the ordering's coefficients
    (the norm ordering's bound is ``a(w)·u[p]`` alone; its ``v`` is
    ``None``).
    ``V32`` and ``inv`` (the inverse permutation) are filled lazily by
    the consumers that need them.
    ``rest`` keeps the per-row residual norms behind an attribute
    ordering's ``v`` (``v`` is their suffix-max), so the incremental
    update path (:mod:`repro.engine.delta`) can filter/merge them like
    ``u`` and re-derive ``v`` with one cummax instead of re-norming the
    whole matrix.  Writes leave every array alone; the next ladder read
    merges all of them at once (:func:`repro.engine.delta.sync_orderings`).
    """

    __slots__ = ("perm", "V", "V32", "u", "v", "attribute", "inv", "rest")

    def __init__(self, perm, V, u, v, attribute, rest=None) -> None:
        self.perm = perm
        self.V = V
        self.V32 = None
        self.u = u
        self.v = v
        self.attribute = attribute
        self.inv = None
        self.rest = rest


def _geometric_grid(k: int, n: int) -> np.ndarray:
    """Doubling prefix sizes between ~2k and n (exclusive)."""
    sizes = []
    c = max(2 * k, 32)
    while c < n:
        sizes.append(c)
        c *= 2
    return np.asarray(sizes, dtype=np.int64)


def _top_block(S: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``S``, the positions of its k largest entries (unordered)
    and those entries."""
    c = S.shape[1]
    if c > k:
        blk = np.argpartition(S, c - k, axis=1)[:, c - k :]
        return blk, np.take_along_axis(S, blk, axis=1)
    return np.broadcast_to(np.arange(c), S.shape), S


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
        ``None``/``1`` keeps every call in the caller's thread; ``-1``
        uses all cores.  With more than one, the in-process thread pool
        (NumPy releases the GIL inside BLAS, so GEMM-bound work scales)
        is created lazily on the first call of at least ``2·n_jobs``
        functions whose ``n x m`` work exceeds ``parallel_min_work``,
        and persists until :meth:`close` (or garbage collection).
        Results are bit-identical for any worker count.
    quantize:
        Quantized screening tier (:mod:`repro.engine.quantize`):
        ``"auto"`` (default) picks int8/int16 from the data's dynamic
        range and adapts to the observed promote rate, ``"int8"`` /
        ``"int16"`` pin the level, ``None`` disables the tier.  Results
        are bit-identical either way.
    parallel_min_work:
        Serial fast-path cutover in score-matrix entries (``n * m``);
        calls below it never touch a pool.  ``None`` (default) takes the
        value from the tuning profile.
    tune:
        Runtime tuning (:mod:`repro.engine.autotune`): ``None`` uses the
        default :class:`TuningProfile` (the legacy hand-tuned
        constants), and a profile instance is adopted as-is (e.g. one
        loaded from JSON via :meth:`TuningProfile.load`).  Any profile
        yields bit-identical results; only the speed changes.
    """

    def __init__(
        self,
        values: np.ndarray,
        *,
        float32: bool = False,
        chunk_bytes: int | None = None,
        memo_size: int = 4096,
        n_jobs: int | None = None,
        quantize: str | None = "auto",
        parallel_min_work: int | None = None,
        tune: TuningProfile | None = None,
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
        if tune is None:
            tune = TuningProfile()
        elif not isinstance(tune, TuningProfile):
            raise ValidationError(
                f"tune must be None or a TuningProfile, got {tune!r} "
                "(load a saved profile with TuningProfile.load)"
            )
        self._tuning = tune
        # Pruning orderings: candidate row orders with per-position upper
        # bounds on any remaining row's score (see _build_orderings).
        # All of them are built lazily: the norm ordering on the first
        # top-k probe (score_batch / rank_of_best_batch callers never
        # need it), the sharper per-attribute orderings once enough
        # probe work has accumulated to amortize their construction.
        self._orderings: list[_Ordering] | None = None
        # Orderings a write left behind, with the keep mask of the rows
        # they hold; ``_ensure_orderings`` merges them at the next ladder
        # read (repro.engine.delta.sync_orderings).  ``_orderings`` is
        # None meanwhile, so no reader can see stale arrays.
        self._ordering_edit: tuple[list[_Ordering], np.ndarray] | None = None
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
        if parallel_min_work is None:
            parallel_min_work = self._tuning.parallel_min_work
        self._parallel_min_work = int(parallel_min_work)
        # The lazy thread pool (see repro.engine.parallel).
        self._parallel = None
        # Async submission seam (see ``submit``): one lazily-created
        # dispatch thread that serializes queries and mutations so an
        # asyncio caller can await engine work without blocking its loop.
        self._submit_pool = None
        self._submit_lock = threading.Lock()
        # (k, ordering count) -> per-attribute-ordering grid gathers,
        # reused across batches by _prefix_needs.
        self._grid_cache: dict[tuple[int, int], list] = {}
        # The data magnitudes behind every band (see _max_norm/_max_abs).
        self._max_row_norm: float | None = None
        self._max_abs_value: float | None = None
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
            "scalar_columns": 0,
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
            "ordering_syncs": 0,
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
        if not np.isfinite(W).all():
            raise ValidationError("weight vectors must be finite (no NaN or inf)")
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

    @property
    def chunk_columns(self) -> int:
        """Functions per column chunk of :meth:`score_batch`."""
        return self._chunk_cols

    # ------------------------------------------------------------------
    # runtime tuning (see repro.engine.autotune)
    @property
    def tuning(self) -> TuningProfile:
        """The engine's current tuning profile (read-only snapshot)."""
        return self._tuning

    # ------------------------------------------------------------------
    # incremental row updates (see repro.engine.delta)
    def insert_rows(self, rows: np.ndarray) -> np.ndarray:
        """Append data rows; returns their new indices ``[n_old, n_new)``.

        The mutation is journaled and compacted lazily at the next query
        (or :meth:`compact`), which rewrites the matrix and invalidates
        the memo/caches; the pre-sorted orderings and their quantized
        stores are merge-updated at the next call that reads them, and
        re-scaled only when the new rows escape the per-attribute
        envelope.
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
        """Apply any journaled row mutations now instead of lazily.

        Every public query entry point calls this first, so mutation
        latency is paid at a call boundary, never inside the tiers.
        """
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
        they do not travel into worker clones.
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
        orderings) grid gathers, the cached data magnitudes behind the
        exactness bands, the k-skyband candidate engines, the chunk
        geometry, and the thread pool (whose clones hold the pre-mutation
        matrix).
        """
        self._memo.clear()
        self._grid_cache.clear()
        self._candidates.clear()
        self._max_row_norm = None
        self._max_abs_value = None
        self._chunk_cols = max(1, self._chunk_bytes // (8 * self.n))
        self._close_pools()

    # ------------------------------------------------------------------
    # parallel execution layer (see repro.engine.parallel)
    def _worker_config(self) -> dict:
        """Constructor kwargs for a serial engine with this engine's
        settings (the k-skyband child engines are built from it)."""
        return {
            "float32": self.float32,
            "chunk_bytes": self._chunk_bytes,
            "memo_size": self._memo_size,
            "n_jobs": 1,
            "quantize": self._quantizer.mode if self._quantizer is not None else None,
            "tune": self._tuning,
        }

    def _fans_out(self, m: int) -> bool:
        """Whether an m-function call is split into function chunks over
        the thread pool: enough functions to go around (``2·n_jobs``)
        and work above ``parallel_min_work``.  Every other call runs
        serially."""
        if self.n_jobs <= 1:
            return False
        return m >= 2 * self.n_jobs and m * self.n >= self._parallel_min_work

    def _scalar_route(self, m: int) -> bool:
        """Whether a serial m-function call takes the small-call route."""
        return m * self.n <= _SCALAR_MAX_WORK

    def small_call(self, m: int) -> bool:
        """Whether an m-function top-k or rank call would be answered by
        the small-call route with nothing to settle first: no journaled
        rows, no fan-out.

        Such a call costs one scalar kernel per function (at most
        ``_SCALAR_MAX_WORK`` score entries in all), which is what lets
        :mod:`repro.serve.coalesce` answer it on the event loop.
        """
        return (
            not self._dirty_rows
            and not self._fans_out(m)
            and self._scalar_route(m)
        )

    def _build_executor(self):
        """Construct (and keep) the thread pool executor."""
        from repro.engine.parallel import ThreadExecutor

        self._parallel = ThreadExecutor(self, self.n_jobs)
        return self._parallel

    def _fan_out(self, kind: str, W: np.ndarray, args=(), align: int = 1) -> list:
        """Run ``W`` as function-chunk work units on the thread pool;
        return the units' results in chunk order.

        Every unit runs to completion before this returns.  A unit that
        raised fails the call with its own exception (the first in
        chunk order), so no unit outlives the call that submitted it.
        """
        from concurrent.futures import wait

        executor = self._parallel or self._build_executor()
        self.stats["parallel_calls"] += 1
        bounds = _chunk_bounds(W.shape[0], self.n_jobs, align, self._tuning.units_per_worker)
        futures = [executor._submit(kind, W[lo:hi], *args) for lo, hi in bounds]
        wait(futures)
        return [future.result() for future in futures]

    def submit(self, method: str, /, *args, inline: bool = False, **kwargs):
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
        ``.result()`` it.  ``inline=True`` runs the call on the caller's
        thread instead, at once, and returns it completed: for a caller
        that knows nothing else is in flight, so that the order holds
        without the hop (the serving coalescer's lone small reads, see
        :mod:`repro.serve.coalesce`).

        The dispatch thread is torn down by :meth:`close` (pending work
        is cancelled, the in-flight call finishes first) and — like the
        thread pool — rebuilt lazily if the engine is used again.
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
        if inline:
            from concurrent.futures import Future

            done = Future()
            try:
                done.set_result(fn(*args, **kwargs))
            except Exception as exc:
                done.set_exception(exc)
            return done
        if self._submit_pool is None:
            with self._submit_lock:
                if self._submit_pool is None:
                    from concurrent.futures import ThreadPoolExecutor

                    self._submit_pool = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix="engine-submit"
                    )
        return self._submit_pool.submit(fn, *args, **kwargs)

    def _close_pools(self) -> None:
        """Tear down the thread pool only (rebuilt lazily on next use)."""
        executor, self._parallel = self._parallel, None
        if executor is not None:
            executor.close()

    def close(self) -> None:
        """Shut down the thread pool and the dispatch thread."""
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

    def _ensure_orderings(self) -> list["_Ordering"]:
        """The current pruning orderings: the one sync point after writes."""
        if self._orderings is None:
            if self._ordering_edit is not None:
                from repro.engine.delta import sync_orderings

                return sync_orderings(self)
            self._orderings = self._build_orderings()
        return self._orderings

    def _thread_clone(self) -> "ScoreEngine":
        """A serial view of this engine for one thread-pool worker.

        Shares every heavy immutable structure — the matrix, the pruning
        orderings (float32 copies included) and the quantizer — by
        reference, and isolates the small mutable state (stats, memo,
        grid cache) so concurrent workers never write to shared objects.  The
        orderings list must be fully built before cloning; the clone
        never extends it (``_attr_orderings_built`` is pinned), it only
        reads whatever snapshot the parent maintains between calls.
        """
        clone = object.__new__(ScoreEngine)
        clone.__dict__.update(self.__dict__)
        clone.n_jobs = 1
        clone._parallel = None
        clone._submit_pool = None
        clone._submit_lock = threading.Lock()
        clone._memo = OrderedDict()
        clone._grid_cache = {}
        clone._candidates = OrderedDict()
        clone._excess_work = 0
        clone._attr_orderings_built = True
        # Clones are created inside a bulk call, i.e. after compact():
        # the journal is settled and no clone ever mutates rows.
        clone._pending_rows = []
        clone._live = None
        clone._dirty_rows = False
        clone._delta_subscribers = []
        clone.stats = dict.fromkeys(self.stats, 0)
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
        self.compact()
        W = self._check_weights(weight_matrix)
        m = W.shape[0]
        # Function-chunk fan-out, aligned to the serial chunk boundaries
        # so workers replay the exact serial matmul calls (raw GEMM
        # output stays bit-identical to the serial path, not merely
        # ulp-close).
        if self._fans_out(m) and m > self._chunk_cols:
            parts = self._fan_out("score", W, align=self._chunk_cols)
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
        without bitset packing, fan-out included.

        For callers that never touch the packed members (K-SETr dedups
        on the index rows directly) this skips the ``O(m · n)`` bit
        packing entirely.  A large enough batch of nonnegative-weight
        functions is answered from the k-skyband candidate engine (see
        the module docstring); the other functions of the call take the
        full path.
        """
        self.compact()
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
        """:meth:`topk_orders` over the whole matrix, fan-out included."""
        if self._fans_out(W.shape[0]):
            parts = self._fan_out("topk", W, args=(k,))
            return np.concatenate(parts, axis=0)
        if self._scalar_route(W.shape[0]):
            # Small-call route (module docstring): scored, never contested.
            self.stats["scalar_columns"] += W.shape[0]
            self.stats["gemm_columns"] += W.shape[0]
            order = np.empty((W.shape[0], k), dtype=np.int64)
            for j, w in enumerate(W):
                order[j] = self._verified_topk_column(w, k)
            return order
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
        delta = bands.robust_margin(self.d, self._max_abs())
        eligible = bands.robust_eligible(W, delta, self._max_abs())
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
        # journaled rows to settle.
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
        self.compact()
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
        w_norms = np.linalg.norm(Wc, axis=1)
        if self._quantizer is not None and self._quantizer.active:
            promoted = self._quant_topk_chunk(Wc, k, out_order, w_norms)
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
                self._float_tiers(
                    np.ascontiguousarray(Wc[promoted]), k, sub_order, w_norms[promoted]
                )
                out_order[promoted] = sub_order
                return
        self._float_tiers(Wc, k, out_order, w_norms)

    def _f32_ok(self, w_norms: np.ndarray) -> bool:
        """Whether a chunk may be scored in float32: the engine runs a
        float32 tier and the range guard flags none of its functions."""
        return self.float32 and not bands.f32_unsafe(w_norms, self._max_norm()).any()

    def _float_tiers(
        self, Wc: np.ndarray, k: int, out_order: np.ndarray, w_norms: np.ndarray
    ) -> None:
        """Tiers 1-3: the float32/float64 batch passes + scalar fallback.

        A chunk holding any function the float32 range guard flags skips
        the float32 pass.
        """
        contested = None
        out = out_order
        if self._f32_ok(w_norms):
            contested = self._topk_tier(Wc, k, out_order, w_norms, use_f32=True)
            if not contested.size:
                return
            Wc, w_norms = np.ascontiguousarray(Wc[contested]), w_norms[contested]
            out = np.empty((contested.size, k), dtype=np.int64)
        for j in self._topk_tier(Wc, k, out, w_norms, use_f32=False):
            out[j] = self._verified_topk_column(Wc[j], k)
            self.stats["verified_columns"] += 1
        if contested is not None:
            out_order[contested] = out

    def _quant_topk_chunk(
        self, Wc: np.ndarray, k: int, out_order: np.ndarray, w_norms: np.ndarray
    ) -> np.ndarray:
        """Tier 0: integer-envelope top-k screening; returns promoted rows.

        One integer GEMM over a routed prefix bounds every score from
        above (:mod:`repro.engine.quantize`).  A probe over the top
        of the norm ordering yields a rigorous lower bound ``thr`` on
        each function's k-th score; every row whose upper bound reaches
        ``thr`` is a candidate, and the candidate set provably contains
        the whole top-k *including any boundary ties*.  Functions whose
        candidate count stays within the cap are finished here: the few
        candidates are re-scored exactly in float64 and accepted by
        :meth:`_finalize` (near-ties fall to the scalar kernel verbatim),
        so the result is bit-identical to the scalar path.
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
        # the norm ordering cannot exceed its true k-th score, so (one
        # pruning floor below it) it is a rigorous screening threshold
        # for the whole matrix — and it is tighter than a quantized probe
        # by the width of the quantization envelope.
        c0 = min(n, max(4 * k, 64))
        use_f32 = self._f32_ok(w_norms)
        noise = w_norms * self._max_norm()
        _, _, block_scores = self._prefix_eval(orderings[0], Wc, k, c0, use_f32)
        thr = bands.floor(block_scores.min(axis=1), noise, self.d, use_f32)
        self._accumulate_probe_demand(w_norms, thr)
        needs = self._prefix_needs(Wc, w_norms, thr, k)
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
            # OpenBLAS's float32 GEMM can leave a spurious "invalid" flag on
            # these finite integer carriers (2 of 4 warmed runs), which numpy
            # reports as a NaN that is not there.  Only the product ignores
            # it; the comparisons below keep the caller's error state.
            with np.errstate(invalid="ignore"):
                S = Wq[rows] @ store.Q[:c].T  # shifted integer sums, exact
            rhs = state.upper_rhs(thr[rows], b[rows], usum[rows])
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
            scores = padded_scores[resolved, :used_cap]
            for j in self._finalize(
                resolved, padded_ids[resolved, :used_cap], scores, *_top_block(scores, k),
                Wc, k, out_order, thr, bands.tol(noise, self.d),
            ):
                out_order[j] = self._verified_topk_column(Wc[j], k)
                self.stats["verified_columns"] += 1
        promoted = np.sort(np.concatenate(promoted_parts))
        self.stats["quant_resolved"] += mc - promoted.size
        self._quantizer.observe(mc, promoted.size)
        return promoted

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
            u=row_norms[perm],
            v=None,  # the norm bound has no second term
            attribute=-1,
        )
        return [norm_ordering]

    def _build_attribute_orderings(self) -> None:
        """Add the per-attribute orderings (lazily, once justified)."""
        self._ensure_orderings()
        if self._attr_orderings_built:
            return
        self._attr_orderings_built = True
        if self.n * self.d * (self.d + 1) * 8 > (1 << 29):
            return  # the extra copies would dwarf the matrix; skip
        for j in range(self.d):
            perm = np.argsort(-self.values[:, j], kind="stable")
            rest = robust_rest_norms(self.values, j)[perm]
            ordering = _Ordering(
                perm=perm,
                V=np.ascontiguousarray(self.values[perm]),
                u=self.values[perm, j],
                v=np.maximum.accumulate(rest[::-1])[::-1],
                attribute=j,
                rest=rest,
            )
            self._orderings.append(ordering)

    def _bound_coeffs(
        self, Wc: np.ndarray, w_norms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per (function, ordering) bound coefficients ``a·u(p) + b·v(p)``.

        Entries are NaN for ineligible pairs (an attribute ordering's
        first term only bounds when that weight component is ≥ 0).
        """
        mc = Wc.shape[0]
        A = np.empty((mc, len(self._orderings)))
        B = np.zeros((mc, len(self._orderings)))
        A[:, 0] = w_norms
        for o, ordering in enumerate(self._orderings[1:], start=1):
            wj = Wc[:, ordering.attribute]
            A[:, o] = np.where(wj >= 0.0, wj, np.nan)
            B[:, o] = np.sqrt(np.maximum(w_norms**2 - wj**2, 0.0))
        return A, B

    def _accumulate_probe_demand(self, w_norms: np.ndarray, thr: np.ndarray) -> None:
        """Build the attribute orderings once probe volume justifies them.

        Charged with each batch's norm-ordering needs: when the
        accumulated prefix work exceeds a few full passes over the
        matrix, the sharper per-attribute orders pay for their argsorts
        and copies.
        """
        if self._attr_orderings_built:
            return
        with np.errstate(divide="ignore"):
            first_need = np.searchsorted(
                -self._orderings[0].u,
                -(thr / np.where(w_norms > 0.0, w_norms, np.inf)),
                side="right",
            )
        self._excess_work += int(first_need.sum())
        if self._excess_work > 8 * self.n * (self.d + 1):
            self._build_attribute_orderings()

    def _prefix_needs(
        self, Wc: np.ndarray, w_norms: np.ndarray, thr: np.ndarray, k: int
    ) -> np.ndarray:
        """Sufficient prefix sizes, one per (function, ordering).

        Every row beyond position ``needs[i, o]`` of ordering ``o``
        provably scores below ``thr[i]``.  Exact (searchsorted) under the
        norm ordering; quantized to a doubling grid under the attribute
        orderings, whose two-term bounds are only evaluated at grid
        positions.
        """
        n = self.n
        A, B = self._bound_coeffs(Wc, w_norms)
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

    def _max_norm(self) -> float:
        """``max‖x‖`` over the rows, cached until the next compaction."""
        if self._max_row_norm is None:
            self._max_row_norm = float(robust_row_norms(self.values).max())
        return self._max_row_norm

    def _max_abs(self) -> float:
        """``max|x|`` over the matrix, cached until the next compaction."""
        if self._max_abs_value is None:
            self._max_abs_value = float(np.abs(self.values).max())
        return self._max_abs_value

    def _topk_tier(
        self,
        Wc: np.ndarray,
        k: int,
        out_order: np.ndarray,
        w_norms: np.ndarray,
        use_f32: bool,
    ) -> np.ndarray:
        """One batched top-k attempt; returns the still-contested row ids.

        A small norm-ordered probe establishes each function's k-th-best
        score L; the per-ordering bounds then give a *sufficient* prefix
        size per (function, ordering) — every row outside that prefix
        provably scores below the pruning floor under L.  ``w_norms``
        holds each function's ``‖w‖``.  Each function is routed to
        its cheapest ordering and evaluated once at that size, so
        selection cost tracks the candidate count instead of n.
        Uncontested rows are written to ``out_order``; rows with any
        (near-)tie at the k boundary or between ranked neighbours are
        returned for the next tier.
        """
        n = self.n
        mc = Wc.shape[0]
        norm_ord = self._ensure_orderings()[0]
        noise = w_norms * self._max_norm()
        tol = bands.tol(noise, self.d, use_f32)

        c0 = n if 4 * k >= n else min(n, max(4 * k, 64))
        S, blk, block_scores = self._prefix_eval(norm_ord, Wc, k, c0, use_f32)
        if c0 == n:
            # No pruning happened, so no pruning floor applies.
            return self._finalize(
                np.arange(mc), norm_ord.perm, S, blk, block_scores, Wc, k,
                out_order, np.full(mc, -np.inf), tol, use_f32,
            )
        thr = bands.floor(block_scores.min(axis=1), noise, self.d, use_f32)
        contested_parts: list[np.ndarray] = []

        # Exact need under the norm ordering, grid-quantized need under
        # the attribute orderings; route each function to the cheapest.
        # The attribute orderings are only constructed once enough probe
        # demand has accumulated to amortize their argsorts and copies.
        self._accumulate_probe_demand(w_norms, thr)
        needs = self._prefix_needs(Wc, w_norms, thr, k)
        best_o = np.argmin(needs, axis=1)

        # The probe already holds the full answer for functions whose
        # norm-ordering need fits inside it.
        done = np.flatnonzero(needs[:, 0] <= c0)
        if done.size:
            contested_parts.append(
                self._finalize(
                    done, norm_ord.perm, S[done], blk[done], block_scores[done],
                    Wc, k, out_order, thr, tol, use_f32,
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
                    rows, ordering.perm, So, blko, bso, Wc, k, out_order, thr,
                    tol, use_f32,
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
        V = self._ordering_v32(ordering) if use_f32 else ordering.V
        Wgemm = Wc.astype(np.float32) if use_f32 else Wc
        S = Wgemm @ V[:c].T  # (mc, c)
        return (S, *_top_block(S, k))

    def _finalize(
        self,
        rows: np.ndarray,
        ids: np.ndarray,
        S: np.ndarray,
        blk: np.ndarray,
        block_scores: np.ndarray,
        Wc: np.ndarray,
        k: int,
        out_order: np.ndarray,
        thr: np.ndarray,
        tol: np.ndarray,
        rescore: bool = False,
    ) -> np.ndarray:
        """Accept or contest one group's top-k blocks; return contested ids.

        The one place the serial ladder accepts a top-k block.  ``rows``
        are chunk-level function ids and ``S`` their candidates' scores;
        ``ids`` maps candidate positions to row ids, either one vector
        for the group (an ordering's ``perm``) or one row per function;
        ``blk`` and ``block_scores`` hold the positions and scores of
        each function's k best candidates.  ``thr`` and ``tol`` hold, per chunk function, the
        floor every non-candidate row scores below and the contested
        half-width (:mod:`repro.engine.bands`).  With ``rescore`` (float32
        scores) the block is ordered by float64 scores recomputed per row.
        """
        kth = block_scores.min(axis=1)
        tol = tol[rows]
        # Exactly k candidate scores at-or-above the banded threshold ⇔ the
        # boundary is uncontested and the block is the unique answer —
        # provided the floor sits a band below the k-th score (it need
        # not when the probe's anchor overestimated it; those rows go to
        # the next tier).
        contested = ((S >= (kth - tol)[:, None]).sum(axis=1) != k) | (
            thr[rows] > kth - tol
        )

        fast = np.flatnonzero(~contested)
        if fast.size:
            if ids.ndim == 1:
                fblk = ids[blk[fast]]  # global row ids
            else:
                fblk = np.take_along_axis(ids[fast], blk[fast], axis=1)
            if rescore:
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

    def _verified_rank(self, w: np.ndarray, members: np.ndarray) -> int:
        """Exact rank of the best ``members`` row under one function.

        The contract of every rank path in the engine: ``1 +`` the number
        of rows scoring *strictly* above the best member, all scored by
        one float64 GEMV (per-row accumulation, so identical rows score
        identically).  Rows tied with the best member are not counted,
        whatever their index.  ``min(rank_of(values, w, i) for i in
        members)`` differs exactly there: :func:`repro.ranking.rank_of`
        also counts equal-score rows with a smaller index, so on exact
        ties it can be larger (on 571 of 25,600 functions drawn like the
        cancellation tests' column pairs).  The engine keeps the
        strict count, which does not depend on how the rows are numbered:
        a row tied with the best member does not outrank it.
        """
        exact = self.values @ w
        return int((exact > exact[members].max()).sum()) + 1

    # ------------------------------------------------------------------
    # memoized single probes
    def top_k_packed(self, weights: np.ndarray, k: int) -> TopKBatch:
        """Single-function top-k behind the LRU memo.

        Returns a :class:`TopKBatch` with ``m = 1``; treat the arrays as
        read-only — they are shared with the memo.
        """
        self.compact()
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
    def _check_subset(self, subset) -> np.ndarray:
        """Sorted unique member ids of a non-empty ``subset``: integer
        indices or a boolean mask, like :meth:`delete_rows`."""
        from repro.engine.delta import row_ids

        members = row_ids(subset, self.n, "subset")
        if members.size == 0:
            raise ValidationError("subset must be non-empty")
        return members

    def rank_of_best_batch(
        self, weight_matrix: np.ndarray, subset: np.ndarray
    ) -> np.ndarray:
        """Per function, the rank of the best ``subset`` member.

        Returns ``(m,)`` int64: ``1 +`` the number of rows scoring
        *strictly* above the subset's best score under each function —
        the quantity the Monte-Carlo rank-regret estimator maximizes.
        :meth:`_verified_rank` states this contract once, including how
        it differs from :func:`repro.ranking.rank_of` on exact ties.
        Small calls are answered by that kernel directly (module
        docstring).

        Other calls count pruned (:meth:`_rank_functions`): the subset's
        best score (one small float64 GEMM over the member rows) is a
        lower bound no counted row may miss, so each function is routed
        to the norm/attribute ordering with the smallest sufficient
        prefix and counted over that prefix only, in float32, in
        cache-sized fused chunks, ``_RANK_BLOCK`` functions at a time (so
        peak memory beyond the ``(m,)`` result is flat in m).  Any
        function with a non-member row inside the float32 ulp band
        around the bound is recomputed with the deterministic scalar
        float64 kernel — so GEMM noise (e.g. between identical rows) can
        never inflate a rank, and the result is bit-identical to the
        pre-pruning full-scan path for every input.
        """
        self.compact()
        W = self._check_weights(weight_matrix)
        members = self._check_subset(subset)
        m = W.shape[0]
        if self._fans_out(m):
            parts = self._fan_out("rank", W, args=(members,))
            return np.concatenate(parts)
        if self._scalar_route(m):
            # Small-call route (module docstring): every row is read.
            self.stats["scalar_columns"] += m
            self.stats["gemm_columns"] += m
            self.stats["rank_prefix_rows"] += m * self.n
            return np.array([self._verified_rank(w, members) for w in W], np.int64)
        return self._rank_functions(W, members)

    def _rank_functions(self, W: np.ndarray, members: np.ndarray) -> np.ndarray:
        """Serial pruned rank counting (also the function-chunk work unit).

        Counts ``_RANK_BLOCK`` functions at a time (:meth:`_rank_block`),
        so the working set beyond the ``(m,)`` result does not grow with
        the number of functions.
        """
        m = W.shape[0]
        ranks = np.empty(m, dtype=np.int64)
        member_values = self.values[members]
        for lo in range(0, m, _RANK_BLOCK):
            Wb = W[lo : lo + _RANK_BLOCK]
            # The exactness anchor: each function's best member score,
            # from a dedicated float64 GEMM over the s << n member rows.
            best = np.empty(Wb.shape[0])
            for clo in range(0, Wb.shape[0], self._chunk_cols):
                chi = clo + self._chunk_cols
                best[clo:chi] = (Wb[clo:chi] @ member_values.T).max(axis=1)
            ranks[lo : lo + Wb.shape[0]] = self._rank_block(Wb, members, best)
        return ranks

    def _rank_block(self, W: np.ndarray, members: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Rank counting for one block of functions.

        One float32 banded count per function over its routed prefix,
        with the exact scalar kernel as the fallback: a non-member row
        inside the band around the subset's best score ``best``, or a
        function the float32 range guard flags, is counted by
        :meth:`_verified_rank` instead.
        """
        n = self.n
        m = W.shape[0]
        ranks = np.empty(m, dtype=np.int64)
        # Functions the float32 range guard flags count with the exact
        # float64 kernel (see repro.engine.bands).
        w_norms = np.linalg.norm(W, axis=1)
        unsafe = bands.f32_unsafe(w_norms, self._max_norm())
        if unsafe.any():
            for j in np.flatnonzero(unsafe):
                ranks[j] = self._verified_rank(W[j], members)
                self.stats["verified_columns"] += 1
            safe = np.flatnonzero(~unsafe)
            if safe.size:
                ranks[safe] = self._rank_block(
                    np.ascontiguousarray(W[safe]), members, best[safe]
                )
            return ranks
        noise = w_norms * self._max_norm()
        tol = bands.tol(noise, self.d, f32=True)
        thr = bands.floor(best, noise, self.d, f32=True)
        self._ensure_orderings()
        self._accumulate_probe_demand(w_norms, thr)
        needs = self._prefix_needs(W, w_norms, thr, self._tuning.rank_grid_base)
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
                    above[j] = self._verified_rank(W[rows[j]], members) - 1
                    self.stats["verified_columns"] += 1
                ranks[rows] = above + 1
        return ranks


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
