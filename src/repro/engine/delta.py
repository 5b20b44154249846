"""Incremental row updates for long-lived :class:`ScoreEngine` instances.

A deployed representative-serving engine lives with a matrix that
*changes*: listings appear and expire, flights land, rows are corrected.
Before this module, any change meant throwing the engine away — and with
it the pre-sorted norm/attribute orderings (one ``argsort`` per
ordering), the quantized integer stores (a full re-quantization each),
the dynamic-range probe and the accumulated adaptive-policy evidence.
Dynamic query answering under updates (Berkholz et al.) and incremental
view maintenance both rest on the same observation: point updates touch
derived structures in ways that are *linear*, not loglinear, to repair.

The public surface is :meth:`ScoreEngine.insert_rows` /
:meth:`ScoreEngine.delete_rows`; this module implements the journal they
write and the compaction that settles it:

* **Journal (merge + tombstone).**  Mutation calls defer all heavy
  structure repair: inserted rows queue in ``_pending_rows``; deletions
  tombstone entries of the sorted live-slot array ``_live`` (built
  lazily — ``None`` means "all committed rows live, nothing pending").
  A mutation call's own cost is one pass over that int64 id array —
  bookkeeping only, never the orderings/stores/matrix.
  ``engine.n`` always reflects the logical size, and delete indices are
  interpreted against the *current* view, exactly like a chain of
  ``np.delete`` / ``vstack`` calls on a plain matrix.  A delete that
  targets a row still sitting in the pending-insert buffer *cancels*
  the insert outright — the row data is dropped and the surviving
  pending slots renumbered — rather than tombstoning a slot that never
  materialized: the dead row would otherwise be carried through every
  journal pass, counted by the eager-flush trigger, and surface to
  delta subscribers as a spurious delete + insert pair.
* **Compaction.**  The first query after a mutation (or an explicit
  :meth:`ScoreEngine.compact`) settles the whole journal at once: the
  committed matrix is filtered and the surviving pending rows
  appended.  That is all a write pays for: the pruning orderings and
  their quantized stores are not touched.  The write folds its keep
  mask into the orderings' one pending edit, and the quantizer only
  widens its envelope — an insert that escapes it replaces the level,
  whose stores then re-quantize lazily.  An insert burst costs one
  compaction, not one per call.
* **Ordering sync.**  The first call that reads an ordering (a ladder
  read, not the small-call scalar route) merges the pending edit
  through :meth:`ScoreEngine._ensure_orderings`
  (:func:`sync_orderings`), however many writes came between: each
  ordering is repaired by *filter + merge* — the surviving permutation
  entries are re-indexed and kept in place (their relative, tie-stable
  order is already correct) and the new rows are merge-inserted at
  their ``searchsorted`` positions, never re-sorted — and each cached
  quantized store takes its ordering's edit, reusing the survivors'
  integer rows verbatim and quantizing only the inserted rows.  Every
  copy goes through a :class:`MergePlan`, so a small edit costs the
  rows it changed plus one memcpy per array.  While an edit is pending
  ``engine._orderings`` is ``None``: a path that skipped the sync point
  fails loudly instead of reading stale arrays.
* **Invalidation.**  Compaction ends with
  :meth:`ScoreEngine._invalidate_derived`: the single-probe LRU memo
  (keyed on weight bytes only — it would silently serve pre-mutation
  top-k sets), the grid-gather cache, the cached data magnitudes behind
  the ulp noise bands, the chunk geometry, and the thread pool (its
  clones hold the old matrix) are all dropped explicitly.  A known max
  row norm is then carried from the norms of the deleted and inserted
  rows instead of re-norming all n rows; it is recomputed at its next
  use only when a deleted row held it.

The contract is the engine-wide one: after any mutation sequence, every
query is **bit-identical** to a fresh engine built on the mutated
matrix.  Stability of the merge makes even the internal orderings match
a fresh ``argsort(kind="stable")`` once synced: surviving rows keep
their relative order and keep indices below every inserted row, and
``searchsorted`` with ``side="right"`` lands equal-valued new rows after
their old peers — exactly where the stable sort would put them.

**Epoch API.**  Every *effective* compaction (one that changed the
matrix) bumps ``engine.revision`` and notifies the subscribers
registered through :meth:`ScoreEngine.subscribe_delta` with one
:class:`DeltaEvent` describing the committed-state transition: which
old rows died (ids and data), how the survivors were renumbered
(``idmap``), and which rows were appended.  Inserted-then-deleted rows
never appear in any event — the journal cancelled them.  This is what
the materialized-view layer (:mod:`repro.engine.views`) subscribes to;
a journal that cancels out entirely emits nothing.

Mutations follow the engine's general threading rule: calls on one
engine are not synchronized against each other; a service mutating
while serving must serialize externally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import CorruptStateError, InvalidDataError, ValidationError

__all__ = [
    "DeltaEvent",
    "MergePlan",
    "delete_rows",
    "flush_mutations",
    "insert_rows",
    "replay_event",
    "sync_orderings",
]

# Compact eagerly once this many rows are queued in the journal: bounds
# journal memory and keeps the eventual compaction pass from ballooning.
_MAX_PENDING_ROWS = 65536

# MergePlan takes every row through one index when a plan has more than
# one survivor run per this many survivors.  An ordering's seven arrays
# break even near 400-500 (20k and 200k rows).
_RUN_ROWS = 512


@dataclass(frozen=True)
class DeltaEvent:
    """One effective compaction, as seen by a delta subscriber.

    Describes the committed-state transition ``old matrix (old_n rows)
    -> new matrix (new_n rows)``: the journal's net effect, with any
    inserted-then-deleted rows already cancelled out.  Surviving rows
    keep their data bit-for-bit and are renumbered monotonically, so a
    subscriber can remap cached row ids with one ``idmap`` gather.

    Attributes
    ----------
    revision:
        The engine's revision counter *after* this compaction.
    old_n / new_n:
        Committed matrix sizes before and after.
    deleted_ids:
        Sorted old-id positions of the rows that were removed.
    deleted_rows:
        The removed rows' float64 data, aligned with ``deleted_ids``
        (captured before the matrix was rewritten — a subscriber that
        screens deletions against cached score bounds needs the data of
        rows that no longer exist anywhere else).
    idmap:
        ``(old_n,)`` int64 old-id -> new-id map; meaningful only at
        surviving (non-deleted) positions.
    inserted_rows:
        The appended rows, occupying new ids ``[new_n - m, new_n)`` in
        insertion order.
    """

    revision: int
    old_n: int
    new_n: int
    deleted_ids: np.ndarray
    deleted_rows: np.ndarray
    idmap: np.ndarray
    inserted_rows: np.ndarray


class MergePlan:
    """One structural edit, replayed on every array that rides along it.

    The parallel arrays of a pruning ordering (``perm``, ``u``, ``V``,
    ``V32``, ``rest``, the quantized store's ``Q``) share one
    plan at each ordering sync, built from the keep mask of every write
    since the last one; the data matrix ``values`` takes a plan at each
    compaction, whose inserts all sit at the end.  The edit drops the
    rows at the sorted positions ``drop`` and inserts the new rows
    before survivor positions ``pos``.  A *survivor run* is a maximal
    stretch of rows with no dropped row and no insertion point inside
    it; the runs come from the cut points alone, and ``apply`` copies
    each with one slice, so a small edit costs the changed rows plus one
    memcpy per array.
    A bulk plan (more than one run per ``_RUN_ROWS`` survivors) instead
    takes each output row from ``concatenate([old, new])`` through one
    index, ``take_idx``, which only it builds (one ``take`` copies
    several times faster than a fancy-index gather plus a scatter).

    ``apply`` is equivalent to ``np.insert(np.delete(arr, drop, axis=0),
    pos, new, axis=0)`` for the plan's non-decreasing ``pos``; ties in
    ``pos`` keep the inserted order, matching the stable-merge contract.

    ``rows`` carries the inserted float64 data rows (already in merge
    order) for consumers that derive per-row values — the quantized
    store quantizes exactly these.
    """

    __slots__ = ("runs", "take_idx", "ins_dest", "rows", "size")

    def __init__(self, n: int, drop: np.ndarray, pos: np.ndarray, rows: np.ndarray) -> None:
        kept = n - drop.size
        m = rows.shape[0]
        self.rows = rows
        self.size = kept + m
        self.ins_dest = pos + np.arange(m, dtype=np.int64)
        # Dropped row j follows ``drop[j] - j`` survivors and insert i
        # precedes survivor ``pos[i]``: between adjacent cuts every
        # survivor moves by the same source and destination offsets.
        gaps = drop - np.arange(drop.size, dtype=np.int64)
        cuts = np.sort(np.concatenate(([0, kept], gaps, pos)))
        starts, lengths = cuts[:-1], np.diff(cuts)
        starts, lengths = starts[lengths > 0], lengths[lengths > 0]
        src = starts + np.searchsorted(gaps, starts, side="right")
        dst = starts + np.searchsorted(pos, starts, side="right")
        if starts.size * _RUN_ROWS > kept:
            self.runs = None
            idx = np.arange(kept, dtype=np.int64)
            self.take_idx = np.empty(self.size, dtype=np.int64)
            self.take_idx[idx + np.repeat(dst - starts, lengths)] = idx + np.repeat(
                src - starts, lengths
            )
            self.take_idx[self.ins_dest] = n + np.arange(m, dtype=np.int64)
        else:
            self.runs = list(zip(src.tolist(), (src + lengths).tolist(),
                                 dst.tolist(), (dst + lengths).tolist()))
            self.take_idx = None

    def apply(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        if self.runs is None:
            return np.concatenate((old, new), dtype=old.dtype).take(self.take_idx, axis=0)
        out = np.empty((self.size, *old.shape[1:]), dtype=old.dtype)
        for lo, hi, out_lo, out_hi in self.runs:
            out[out_lo:out_hi] = old[lo:hi]
        out[self.ins_dest] = new
        return out


def _live_view(engine) -> np.ndarray:
    if engine._live is None:
        engine._live = np.arange(engine._committed_n, dtype=np.int64)
    return engine._live


def insert_rows(engine, rows: np.ndarray) -> np.ndarray:
    """Journal an append of ``rows``; returns their new row indices."""
    rows = np.array(rows, dtype=np.float64, copy=True, order="C", ndmin=2)
    if rows.ndim != 2 or rows.shape[1] != engine.d:
        raise ValidationError(
            f"inserted rows must be (m, {engine.d}), got shape {rows.shape}"
        )
    if not np.all(np.isfinite(rows)):
        raise InvalidDataError(
            "inserted rows contain NaN or Inf entries; clean the rows "
            "before inserting (NaN comparisons would corrupt every rank)"
        )
    m = rows.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    live = _live_view(engine)
    cn = engine._committed_n
    # Every pending slot is live (a deleted pending row is cancelled and
    # the rest renumbered), so the live slots from ``cn`` on count them.
    pending = live.size - int(np.searchsorted(live, cn))
    engine._pending_rows.append(rows)
    engine._live = np.concatenate(
        [live, cn + pending + np.arange(m, dtype=np.int64)]
    )
    new_ids = np.arange(engine.n, engine.n + m, dtype=np.int64)
    engine.n += m
    engine._dirty_rows = True
    engine.stats["row_inserts"] += m
    if pending + m > _MAX_PENDING_ROWS:
        flush_mutations(engine)
    return new_ids


def row_ids(indices, n: int, what: str) -> np.ndarray:
    """The sorted unique row ids that ``indices`` names, among ``n`` rows.

    Accepts integer indices or a boolean mask of length ``n`` — the two
    forms ``np.delete`` accepts — and rejects anything else rather than
    silently casting (a float array or a wrong-length mask coerced to
    int64 would name the wrong rows).  ``what`` names the argument in
    error messages.
    """
    arr = np.asarray(indices)
    if arr.dtype == bool:
        if arr.ndim != 1 or arr.size != n:
            raise ValidationError(
                f"boolean {what} mask must have length n={n}, got shape {arr.shape}"
            )
        arr = np.flatnonzero(arr)
    elif not (arr.dtype.kind in "iu" or arr.size == 0):
        raise ValidationError(
            f"{what} indices must be integers or a boolean mask, got dtype {arr.dtype}"
        )
    idx = np.unique(arr.astype(np.int64))
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise ValidationError(
            f"{what} indices must be in [0, n)={n}, got [{idx[0]}, {idx[-1]}]"
        )
    return idx


def delete_rows(engine, indices) -> int:
    """Journal a deletion; indices refer to the current matrix view.

    Takes integer indices or a boolean mask of length ``n``
    (:func:`row_ids`).
    """
    idx = row_ids(indices, engine.n, "delete")
    if idx.size == 0:
        return 0
    if idx.size >= engine.n:
        raise ValidationError("cannot delete every row (engine must stay non-empty)")
    live = _live_view(engine)
    cn = engine._committed_n
    doomed = live[idx]
    survivors = np.delete(live, idx)
    cancelled = doomed[doomed >= cn] - cn
    if cancelled.size:
        # The deletion hit rows still sitting in the pending-insert
        # buffer: cancel those inserts outright instead of tombstoning
        # slots that never materialized.  The row data is dropped from
        # the buffers and the surviving pending slots renumbered down,
        # so cancelled rows are never copied through compaction, never
        # counted by the eager-flush trigger, and never surface to
        # delta subscribers as a delete + insert pair.
        total = sum(len(block) for block in engine._pending_rows)
        keep_pending = np.ones(total, dtype=bool)
        keep_pending[cancelled] = False
        buffers: list[np.ndarray] = []
        base = 0
        for block in engine._pending_rows:
            mask = keep_pending[base : base + len(block)]
            base += len(block)
            if mask.all():
                buffers.append(block)
            elif mask.any():
                buffers.append(block[mask])
        engine._pending_rows = buffers
        pending_mask = survivors >= cn
        if pending_mask.any():
            # Each surviving pending slot shifts down by the number of
            # cancelled slots below it (cancelled is sorted: it came
            # from a slice of the sorted live array).
            shift = np.searchsorted(cancelled, survivors[pending_mask] - cn)
            survivors[pending_mask] -= shift
        engine.stats["cancelled_inserts"] += int(cancelled.size)
    engine._live = survivors
    engine.n -= idx.size
    engine._dirty_rows = True
    engine.stats["row_deletes"] += idx.size
    if not engine._pending_rows and survivors.size == cn:
        # The journal cancelled out entirely (every mutation since the
        # last compaction was an insert later deleted): the committed
        # state is untouched, so forget the journal instead of paying a
        # no-op compaction at the next query.
        _reset_journal(engine, cn)
    return int(idx.size)


def flush_mutations(engine) -> None:
    """Compact the mutation journal into the matrix.

    Rewrites ``values``, folds the write into the orderings' pending
    edit (merged by :func:`sync_orderings`), maintains the quantizer's
    envelope, invalidates the caches, bumps the revision and notifies
    the delta subscribers.
    """
    if not engine._dirty_rows:
        return
    cn = engine._committed_n
    live = _live_view(engine)
    pending = (
        np.concatenate(engine._pending_rows)
        if engine._pending_rows
        else np.empty((0, engine.d))
    )
    _check_journal(engine, live, cn, pending.shape[0])
    split = int(np.searchsorted(live, cn))
    committed_live = live[:split]
    new_rows = np.ascontiguousarray(pending[live[split:] - cn])
    keep = np.zeros(cn, dtype=bool)
    keep[committed_live] = True
    kept = committed_live.size
    m = new_rows.shape[0]

    if kept == cn and m == 0:
        # The journal cancelled out (inserted rows deleted again before
        # any query): nothing changed, nothing to invalidate.
        _reset_journal(engine, cn)
        return

    deleted_ids = np.flatnonzero(~keep)
    new_n = kept + m

    deleted_rows = engine.values[deleted_ids]
    event = None
    if engine._delta_subscribers:
        # Capture the doomed rows' data before the matrix is rewritten:
        # subscribers screening deletions against cached score bounds
        # need values that are about to exist nowhere else.
        event = DeltaEvent(
            revision=engine.revision + 1,
            old_n=cn,
            new_n=new_n,
            deleted_ids=deleted_ids,
            deleted_rows=deleted_rows,
            idmap=np.cumsum(keep, dtype=np.int64) - 1,  # meaningful where kept
            inserted_rows=new_rows,
        )

    plan = MergePlan(cn, deleted_ids, np.full(m, kept, dtype=np.int64), new_rows)
    engine.values = plan.apply(engine.values, new_rows)
    # The orderings and their quantized stores wait for the next ladder
    # read (sync_orderings); the write only folds its keep mask in.
    if engine._orderings is not None:
        engine._ordering_edit = (engine._orderings, keep)
        engine._orderings = None
    elif engine._ordering_edit is not None:
        # The orderings' rows still alive are ``values[:held]`` before
        # this write, in order, so ``keep`` decides them positionally.
        mask = engine._ordering_edit[1]
        held = np.flatnonzero(mask)
        mask[held] = keep[: held.size]
    if engine._quantizer is not None:
        engine._quantizer.apply_mutation(new_rows)

    max_norm = _carried_max_norm(engine._max_row_norm, deleted_rows, new_rows)
    engine._invalidate_derived()
    engine._max_row_norm = max_norm
    # Restart the attribute-ordering demand accumulator: under sustained
    # churn every sync would also have to merge the d extra orderings
    # (and their quantized stores), so the sharper orderings must
    # re-justify that recurring cost against *post-mutation* probe
    # volume.  Orderings already built stay built (and maintained).
    if not engine._attr_orderings_built:
        engine._excess_work = 0
    engine.stats["compactions"] += 1
    _reset_journal(engine, new_n)
    # Bump the epoch and notify only after the engine is fully settled:
    # a subscriber's repair may read engine.values (and even issue
    # queries — the journal is clean, so no re-entrant compaction).
    engine.revision += 1
    for callback in list(engine._delta_subscribers):
        callback(event)


def sync_orderings(engine) -> list:
    """Merge the writes since the last sync into every pruning ordering.

    The pending edit is one keep mask over the rows the orderings hold.
    Compaction keeps survivors in order and appends inserts, so the
    mask's survivors are ``values[:kept]`` and every later row was
    inserted since: one :class:`MergePlan` per ordering covers any
    number of writes, and the same plan edits that ordering's quantized
    store at the current level.  A store is only built from a synced
    ordering, a level replaced since the last sync holds none, and a
    level that survived accepted every inserted row under its envelope,
    so the replay equals a fresh quantization.
    """
    from repro.engine.score_engine import robust_row_norms

    orderings, keep = engine._ordering_edit
    kept = int(np.count_nonzero(keep))
    new_rows = engine.values[kept:]
    new_ids = np.arange(kept, engine.values.shape[0], dtype=np.int64)
    new_norms = robust_row_norms(new_rows)
    remap = np.cumsum(keep, dtype=np.int64) - 1 if kept < keep.size else None
    level = engine._quantizer._state if engine._quantizer is not None else None
    for o, ordering in enumerate(orderings):
        plan = _merge_ordering(ordering, keep, remap, new_rows, new_norms, new_ids)
        if level is not None:
            level.mutate_store(o, plan)
    engine._orderings, engine._ordering_edit = orderings, None
    engine.stats["ordering_syncs"] += 1
    return orderings


def replay_event(engine, deleted_ids: np.ndarray, inserted_rows: np.ndarray) -> None:
    """Re-apply one logged :class:`DeltaEvent` through the mutation path.

    WAL recovery (:mod:`repro.engine.wal`) records each effective
    compaction as its net effect — ``deleted_ids`` in the pre-event id
    space plus the appended ``inserted_rows`` — and replays it here
    against an engine sitting at the pre-event state.  Because the
    engine's journal is clean at that point, the pre-event ids *are* the
    current view's indices, so one ``delete_rows`` + ``insert_rows`` +
    :func:`flush_mutations` reproduces exactly the original transition:
    same surviving permutation, same appended ids, same single revision
    bump.  Bit-identity of everything derived then follows from the
    compaction contract above.
    """
    deleted_ids = np.asarray(deleted_ids, dtype=np.int64).reshape(-1)
    inserted_rows = np.asarray(inserted_rows, dtype=np.float64)
    if inserted_rows.size == 0:
        inserted_rows = inserted_rows.reshape(0, engine.d)
    if engine._dirty_rows:
        raise CorruptStateError(
            "replay_event requires a settled engine (dirty journal found); "
            "recovery must replay onto the committed state only"
        )
    if deleted_ids.size:
        delete_rows(engine, deleted_ids)
    if inserted_rows.shape[0]:
        insert_rows(engine, inserted_rows)
    flush_mutations(engine)


def _check_journal(engine, live: np.ndarray, cn: int, pending_total: int) -> None:
    """Journal invariants, checked before any compaction touches state.

    The live-slot array must be a strictly increasing subset of the
    ``cn + pending_total`` journal slots and agree with the engine's
    logical size.  A violation means engine internals were corrupted
    (external mutation of ``_live``/``_pending_rows``, a partial failure
    mid-mutation) — compacting would silently build a wrong matrix, so
    fail with a typed error instead.
    """
    total = cn + pending_total
    ok = live.size == engine.n and (
        live.size == 0
        or (
            int(live[0]) >= 0
            and int(live[-1]) < total
            and bool(np.all(np.diff(live) > 0))
        )
    )
    if not ok:
        raise CorruptStateError(
            "row-mutation journal failed its invariants (live-slot array "
            f"size {live.size} vs logical n {engine.n}, slot range "
            f"[{int(live[0]) if live.size else 0}, "
            f"{int(live[-1]) if live.size else 0}] vs {total} journal "
            "slots); the engine's internal state was corrupted — rebuild "
            "it from the source matrix"
        )


def _carried_max_norm(old: float | None, deleted_rows, new_rows) -> float | None:
    """``max‖x‖`` after a write, from the rows it deleted and inserted.

    ``robust_row_norms`` norms each row on its own, so this equals a
    fresh pass bit for bit.  ``None`` (computed at the next use) when it
    was unknown or a deleted row held it.
    """
    from repro.engine.score_engine import robust_row_norms

    if old is None or (deleted_rows.size and robust_row_norms(deleted_rows).max() >= old):
        return None
    return float(robust_row_norms(new_rows).max(initial=old))


def _reset_journal(engine, committed_n: int) -> None:
    engine._committed_n = int(committed_n)
    engine._live = None
    engine._pending_rows = []
    engine._dirty_rows = False


def _merge_ordering(
    ordering, keep: np.ndarray, idmap: np.ndarray | None, new_rows, new_norms, new_ids
) -> MergePlan:
    """Filter + merge one pruning ordering in place.

    ``keep`` masks the rows the ordering holds and ``new_rows`` are the
    rows inserted since (ids ``new_ids``).  Returns the
    :class:`MergePlan` (dropped positions and insertion points in the
    ordering's permuted space), which the quantized store repair replays
    verbatim on its own parallel arrays.  ``idmap`` is ``None`` when no
    row was deleted.
    """
    if ordering.attribute < 0:
        u_new = new_norms
    else:
        u_new = new_rows[:, ordering.attribute]
    order_new = np.argsort(-u_new, kind="stable")
    rows_sorted = np.ascontiguousarray(new_rows[order_new])
    u_sorted = u_new[order_new]
    if idmap is None:
        drop, ids = np.empty(0, dtype=np.int64), ordering.perm
    else:
        drop, ids = np.flatnonzero(~keep[ordering.perm]), idmap[ordering.perm]
    # Search the unfiltered ordering, then discount the dropped rows
    # ahead of each hit: the survivors' insertion points.
    hit = np.searchsorted(-ordering.u, -u_sorted, side="right")
    pos = hit - np.searchsorted(drop, hit)
    plan = MergePlan(ordering.perm.size, drop, pos, rows_sorted)
    ordering.perm = plan.apply(ids, new_ids[order_new])
    ordering.u = plan.apply(ordering.u, u_sorted)
    ordering.V = plan.apply(ordering.V, rows_sorted)
    if ordering.V32 is not None:
        ordering.V32 = plan.apply(ordering.V32, rows_sorted.astype(np.float32))
    if ordering.attribute >= 0:
        # Surviving rows keep their residual norms bit-for-bit; only the
        # inserted rows' residuals are computed, and ``v`` is one cummax.
        from repro.engine.score_engine import robust_rest_norms

        if ordering.rest is None:
            ordering.rest = robust_rest_norms(ordering.V, ordering.attribute)
        else:
            rest_new = robust_rest_norms(rows_sorted, ordering.attribute)
            ordering.rest = plan.apply(ordering.rest, rest_new)
        ordering.v = np.maximum.accumulate(ordering.rest[::-1])[::-1]
    ordering.inv = None
    return plan
