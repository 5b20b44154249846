"""Materialized representative views: maintained under churn, bit-identical.

PR 5's delta journal made the *engine* incremental — inserts and deletes
repair the orderings and quantized stores instead of rebuilding them —
but every consumer (``mdrc``, ``sample_ksets``/``md_rrr``, the
Monte-Carlo rank-regret estimator) still recomputed its representative
from scratch after each revision.  This module closes that gap with
classic incremental view maintenance, the regime of dynamic query
answering under updates (Berkholz et al.): cache the consumer's
intermediate state, subscribe to the engine's delta journal, and on each
effective compaction re-validate **only** the cells / draws / candidates
whose score bounds the mutation can actually touch.

Every view upholds the repo-wide contract: its refreshed result is
**bit-identical to a from-scratch recompute** over the engine's current
matrix.  The argument has three legs, shared by all views:

* **Per-row score stability.**  A row's score ``w · x`` is a reduction
  over ``d`` only — independent of how many other rows the matrix holds —
  so a surviving row scores bit-for-bit the same before and after a
  compaction.  (The delta journal itself already leans on this: it keeps
  survivor norms verbatim and the test suite asserts they equal a fresh
  ``argsort``.)
* **Monotone renumbering.**  Compaction renumbers survivors with an
  order-preserving ``idmap`` and appends inserted rows at the end, so
  the index tie-breaks inside any cached top-k order are preserved under
  remapping, and an inserted row can enter a top-k only by scoring
  *strictly* above the cached k-th score (on an exact tie the incumbent's
  lower index wins).
* **Banded screening.**  Whether a mutation can touch a cached result is
  decided conservatively: any comparison within a pruning floor's width
  of :mod:`repro.engine.bands` (the band model the engine's own tiers
  use) counts as *touched*.  Outside the band the comparison outcome
  provably agrees with the engine's exact float64 arithmetic; inside
  it, the cached entry is invalidated and repaired through the real
  algorithm — never patched.

Repair then re-executes the *real* decision logic over the surviving
cache: :class:`MDRCView` maintains the recorded MDRC decision tree in a
:class:`~repro.core.mdrc.CornerCache` — repairing the corner memo,
re-deciding only cells that reference a corner whose top-k actually
changed, and growing/pruning subtrees locally (only invalidated or newly
split corners cost a GEMM) — :class:`KSetView` re-runs
:func:`repro.geometry.ksets.sample_ksets` against its
:class:`~repro.geometry.ksets.KSetDrawState` (cached draws replay from
the recorded RNG stream, stale draws are re-resolved lazily, new draws
extend the stream exactly where a fresh run would), and
:class:`RankRegretView` patches its per-function rank counts by exact
±counting of the mutated rows, recomputing only the functions whose
threshold the mutation grazed.  Because the replay *is* the fresh
algorithm, bit-identity holds by construction — there is no second
implementation to drift.

Views are event-driven: the engine invokes :meth:`MaterializedView._apply`
synchronously at the end of every effective compaction (cheap, array-level
invalidation only); the expensive re-evaluation is deferred to
:meth:`MaterializedView.refresh`, which first settles any pending journal
so no mutation is ever missed.

Usage::

    engine = ScoreEngine(values)
    view = MDRCView(engine, k=10)
    reps = view.refresh().indices      # full compute, cache primed
    engine.delete_rows([3, 17])
    engine.insert_rows(new_rows)
    reps = view.refresh().indices      # repairs only what the churn touched

Threading follows the engine's rule: calls on one engine (and its views)
are not synchronized against each other; a service mutating while
serving must serialize externally.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.engine import bands
from repro.engine.score_engine import ScoreEngine, robust_row_norms
from repro.exceptions import ValidationError
from repro.ranking.functions import weights_from_angles_batch
from repro.ranking.sampling import sample_functions

__all__ = [
    "MaterializedView",
    "MDRCView",
    "KSetView",
    "MDRRRView",
    "RankRegretView",
]


def _screen_band(weights: np.ndarray, engine: ScoreEngine, event) -> np.ndarray:
    """Per-function invalidation band of one event's screening GEMMs.

    A pruning floor's width (:func:`repro.engine.bands.floor`): the view's
    screening GEMM and the engine's scoring GEMM may each be off by a
    contested band.  ``max‖x‖`` covers the post-event matrix and the
    deleted rows, whose data exists only in the event payload but whose
    scores the rank-patching views still compare against cached bounds.
    """
    norm = engine._max_norm()
    if event.deleted_rows.size:
        norm = max(norm, float(robust_row_norms(event.deleted_rows).max()))
    return bands.PRUNE * bands.tol(np.linalg.norm(weights, axis=1) * norm, engine.d)


def _screen_topk_orders(
    orders: np.ndarray,
    weights: np.ndarray,
    valid: np.ndarray,
    event,
    engine: ScoreEngine,
) -> np.ndarray:
    """Invalidate cached top-k orders a committed mutation can touch.

    ``orders`` is an ``(m, k)`` array of cached top-k index rows in the
    event's *old* id space, ``weights`` the matching ``(m, d)`` functions,
    and ``valid`` the rows that are currently trustworthy (rows already
    stale from an earlier, unrepaired event are left alone).  Returns the
    boolean mask of rows invalidated by *this* event; every surviving
    valid row's order is remapped **in place** to the new id space.

    Sufficiency of the affected-set bound:

    * a cached order is certainly stale when any of its members was
      deleted (the member's slot must be re-filled);
    * deleting rows *outside* a top-k cannot change it — the survivors'
      scores are bit-identical and their relative index order (hence
      every tie-break) is preserved by the monotone ``idmap``;
    * an inserted row changes a top-k only by scoring strictly above its
      k-th score; any insert within the noise band of the k-th score
      conservatively invalidates the row.
    """
    stale = np.zeros(orders.shape[0], dtype=bool)
    if event.deleted_ids.size:
        hit = np.isin(orders, event.deleted_ids).any(axis=1)
        stale |= hit & valid
    fresh = valid & ~stale
    rows = np.flatnonzero(fresh)
    if rows.size:
        # Remap the surviving orders first: the k-th members' data lives
        # at the *new* ids in the post-event matrix.
        orders[rows] = event.idmap[orders[rows]]
        if event.inserted_rows.size:
            w = weights[rows]
            kth = np.einsum("ij,ij->i", w, engine.values[orders[rows, -1]])
            best_new = (w @ event.inserted_rows.T).max(axis=1)
            tol = _screen_band(w, engine, event)
            stale[rows[best_new >= kth - tol]] = True
    return stale


class MaterializedView:
    """Base class: delta subscription, deferred refresh, lifecycle.

    Subclasses implement :meth:`_apply` (cheap, synchronous cache
    invalidation/remapping — called from inside the engine's compaction,
    when the engine is fully settled) and :meth:`_compute` (the expensive
    re-evaluation, which replays the real algorithm against the repaired
    cache).  ``stats`` counts events, refreshes and recomputations so
    benches and tests can assert the maintenance actually short-circuits.
    """

    def __init__(self, engine: ScoreEngine) -> None:
        self._engine = engine
        self._result = None
        self._closed = False
        self.stats: dict[str, int] = {
            "events": 0,
            "refreshes": 0,
            "computes": 0,
        }
        self._callback = engine.subscribe_delta(self._on_event)

    # -- subclass hooks -------------------------------------------------
    def _apply(self, event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _compute(self):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------
    def _on_event(self, event) -> None:
        self.stats["events"] += 1
        self._result = None
        self._apply(event)

    def refresh(self):
        """The view's result for the engine's *current* matrix.

        Settles any pending journal first (which fires :meth:`_apply`
        for the outstanding mutations), then recomputes over the
        repaired cache only if a mutation actually landed since the last
        refresh — otherwise the cached result is returned verbatim.
        """
        if self._closed:
            raise ValidationError("view is closed")
        self._engine.compact()
        self.stats["refreshes"] += 1
        if self._result is None:
            self._result = self._compute()
            self.stats["computes"] += 1
        return self._result

    def close(self) -> None:
        """Unsubscribe from the engine; the view becomes inert."""
        if not self._closed:
            self._engine.unsubscribe_delta(self._callback)
            self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MDRCView(MaterializedView):
    """Maintained MDRC representative (Algorithm 5 under churn).

    Caches the full intermediate state of the MDRC recursion in a
    :class:`~repro.core.mdrc.CornerCache`: the corner top-k memo *and*
    the per-level decision tree (which cells resolved to which item,
    which split, which fell back).  On each delta event the view
    maintains that tree in place:

    1. **Corner repair.**  Every cached corner is screened (delete-hit
       membership + banded insert screening, the same provably
       sufficient bounds as :func:`_screen_topk_orders`); survivors are
       kept verbatim with remapped ids, stale corners are re-evaluated
       through the engine in one batch, and only corners whose top-k
       order *actually changed* are marked for propagation.
    2. **Cell re-decision.**  Only cells referencing a changed corner
       re-run the resolve/split/fallback decision — every untouched
       cell is kept verbatim.  A cell's decision is a pure function of
       its corner top-k sets, so an unchanged-corner cell provably
       decides identically in a fresh run.  A level with no touched or
       fallback cell, which no flip above it reshaped, is carried as it
       stands (its resolved items follow the renumbering, counted in
       ``stats["levels_carried"]``); an event that changed no corner
       carries the whole tree.
    3. **Local structure repair.**  A cell that flips resolved→split
       grows a fresh subtree (corner evaluations go through the same
       byte-keyed memo a fresh run would hit); a split→resolved flip
       prunes its subtree.  Deletes hitting a representative therefore
       trigger exactly this local repair.  If the maintained tree could
       engage :func:`~repro.core.mdrc.mdrc`'s global ``max_cells``
       budget path — whose sequential decisions are order-dependent —
       the view bails out and recomputes from scratch (the corner memo
       stays warm).

    The decision logic (exact set intersection of corner top-k sets,
    ``"first"``/``"best-rank"`` item choice, center + corner top-1
    fallback contributions) mirrors the recursion's definitions, and the
    result is asserted bit-identical to a fresh :func:`~repro.core.mdrc.mdrc`
    by the view test-suite and the perf gate on every revision.
    ``MDRCResult.indices``, ``cells``, ``max_depth_reached`` and
    ``capped_cells`` all match a from-scratch run; ``corner_evaluations``
    reports the maintenance work actually done instead.
    """

    def __init__(
        self,
        engine: ScoreEngine,
        k: int,
        max_depth: int = 48,
        max_cells: int = 10_000,
        choice: str = "first",
    ) -> None:
        from repro.core.mdrc import CornerCache

        super().__init__(engine)
        self.k = int(k)
        self.max_depth = max_depth
        self.max_cells = max_cells
        self.choice = choice
        self._cache = CornerCache()
        self.stats.update(
            corners_kept=0,
            corners_dropped=0,
            corner_evaluations=0,
            cells_kept=0,
            cells_redecided=0,
            cells_grown=0,
            levels_carried=0,
            maintains=0,
            bails=0,
        )

    # -- event handling -------------------------------------------------
    def _apply(self, event) -> None:
        cache = self._cache
        if cache.levels is None or cache.count == 0:
            # No tree to maintain (cold, budget-path run, or an earlier
            # bail already spent this event's repair).  The corner memo
            # is tied to the pre-event matrix and id space; without the
            # tree there is nothing to repair it against — drop it.
            if cache.count:
                cache.reset(event.new_n, self.k, self._engine.d,
                            (self.max_depth, self.max_cells, self.choice))
            return
        if (
            cache.n != event.old_n
            or cache.k != self.k
            or event.new_n < cache.k_eval
        ):
            # The cache predates an epoch this view never saw (external
            # cache surgery), or the matrix shrank below the repair
            # buffer's width — drop it.
            cache.reset(event.new_n, self.k, self._engine.d,
                        (self.max_depth, self.max_cells, self.choice))
            return
        if self._maintain(event):
            self.stats["maintains"] += 1
            self._result = self._result_from_tree()
        else:
            # Bail-out: the corner memo is already repaired for the new
            # matrix, so the fallback recompute replays it warm.
            self.stats["bails"] += 1
            cache.levels = None

    def _compute(self):
        from repro.core.mdrc import mdrc

        result = mdrc(
            self._engine.values,
            self.k,
            max_depth=self.max_depth,
            max_cells=self.max_cells,
            choice=self.choice,
            engine=self._engine,
            corner_cache=self._cache,
        )
        self.stats["corner_evaluations"] += result.corner_evaluations
        # Prune to the corners the recorded tree references: cells that
        # resolved coarser than last revision leave orphans behind.
        self._cache.prune()
        return result

    # -- incremental maintenance ----------------------------------------
    def _maintain(self, event) -> bool:
        """Repair the corners, then carry or re-walk each recorded level.

        Returns ``False`` (leaving the corner memo repaired but the tree
        dropped) when the maintained tree cannot be proven equivalent to
        a fresh run — i.e. when any level's projected leaf count could
        engage the budget path.
        """
        from repro.core.mdrc import CELL_FALLBACK, CELL_RESOLVED

        changed = self._repair_corners(event)
        levels = self._cache.levels
        # A level is dirty when it holds a cell to re-decide (one of its
        # corners changed) or to re-screen (a fallback center, which is
        # not a corner).
        starts = [0, *itertools.accumulate(level.state.size for level in levels[:-1])]
        state = np.concatenate([level.state for level in levels])
        dirty = state == CELL_FALLBACK
        if changed.any():
            corners = np.concatenate([level.corners for level in levels])
            dirty |= changed[corners].any(axis=1)
        return self._walk(
            event,
            changed,
            np.logical_or.reduceat(dirty, starts).tolist(),
            np.add.reduceat(state == CELL_RESOLVED, starts).tolist(),
        )

    def _repair_corners(self, event) -> np.ndarray:
        """Repair every cached corner; return the mask of changed ones.

        A corner is *changed* when its top-k order differs from the one
        the recorded tree decided on: a deleted member in the first k
        columns, an insert placed in the first k slots, or a
        re-evaluation whose first k columns came out different.
        """
        engine = self._engine
        cache = self._cache
        k = self.k

        # Each cached corner holds an exact top-``lengths[c]`` prefix of
        # width-``k_eval`` buffer rows.  Deletions compact the prefix in
        # place (survivors below the old k_eval-th bound stay below it,
        # so the compacted row is an exact shorter prefix); insertions
        # are placed by banded comparison against the buffered members'
        # scores.  The full matrix is touched only for corners whose
        # buffer runs below k members or whose comparisons land inside
        # the noise band — everything else repairs with corner-count
        # work, no n-scale GEMM.
        count = cache.count
        K = cache.k_eval
        orders = cache.orders  # mutable views into the cache buffers
        lengths = cache.lengths
        weights = cache.weights
        cols = np.arange(K)[None, :]
        changed = np.zeros(count, dtype=bool)
        reeval = lengths < k

        if event.deleted_ids.size:
            dead = np.zeros(event.old_n, dtype=bool)
            dead[event.deleted_ids] = True
            # One lookup per slot finds the deleted members.  Slots past a
            # row's length hold stale ids from older epochs: clipping
            # keeps their lookup in range, the length test drops them.
            rows, slots = np.divmod(
                np.flatnonzero(np.take(dead, orders, mode="clip")), K
            )
            member = slots < lengths[rows]
            rows, slots = rows[member], slots[member]
            if rows.size:
                # A deleted member inside the first k columns changes the
                # top-k set even though a reserve member refills the slot.
                changed[rows[slots < k]] = True
                hit_rows = np.unique(rows)
                dhit = np.zeros((hit_rows.size, K), dtype=bool)
                dhit[np.searchsorted(hit_rows, rows), slots] = True
                # Stable sort on the hit mask compacts survivors to the
                # front in cached (engine) order.
                perm = np.argsort(dhit, axis=1, kind="stable")
                orders[hit_rows] = np.take_along_axis(orders[hit_rows], perm, axis=1)
                lengths[hit_rows] -= dhit.sum(axis=1)
                reeval[hit_rows] |= lengths[hit_rows] < k
            # Remap into the new id space (an insert-only event renumbers
            # nothing).  Stale slots come out as other stale ids, which
            # nothing reads.
            orders[...] = np.take(event.idmap, orders, mode="clip")

        inserted = event.inserted_rows.shape[0]
        if inserted:
            tol = _screen_band(weights, engine, event)
            live = np.flatnonzero(~reeval)
            if live.size < count:
                w_live, tol_live = weights[live], tol[live]
            else:  # the common case: no gathers
                w_live, tol_live = weights, tol
            last_member = orders[live, lengths[live] - 1]
            boundary = np.einsum("ij,ij->i", w_live, engine.values[last_member])
            C_CAP = min(8, inserted)
            X = np.ascontiguousarray(event.inserted_rows.T)
            # One chunked GEMM + one comparison pass finds the "hot"
            # corners — those where some insert reaches the buffer
            # boundary's band.  Almost every corner is cold at 1% churn,
            # so the expensive band/placement analysis below runs on a
            # tiny subset instead of materializing (count × inserted)
            # gap/band temporaries.
            aff_parts: list[np.ndarray] = []
            pos_parts: list[np.ndarray] = []
            score_parts: list[np.ndarray] = []
            ncand_parts: list[np.ndarray] = []
            chunk = max(1, (1 << 21) // max(1, inserted))
            for lo in range(0, live.size, chunk):
                rows = live[lo : lo + chunk]
                S = w_live[lo : lo + chunk] @ X  # (chunk, inserted)
                b_rows = boundary[lo : lo + chunk]
                t_rows = tol_live[lo : lo + chunk]
                hot = S >= (b_rows - t_rows)[:, None]
                sub = np.flatnonzero(hot.any(axis=1))
                if not sub.size:
                    continue
                S_sub = S[sub]
                b_sub = b_rows[sub][:, None]
                t_sub = t_rows[sub][:, None]
                # Inside the band of the buffer's boundary the placement
                # is ambiguous — fall back to a real evaluation.
                enter = S_sub > b_sub + t_sub
                near = (hot[sub] & ~enter).any(axis=1)
                ncand = enter.sum(axis=1)
                ok = ~near & (ncand <= C_CAP)
                reeval[rows[sub[~ok]]] = True
                keep = np.flatnonzero(ok & (ncand > 0))
                if not keep.size:
                    continue
                aff_parts.append(rows[sub[keep]])
                # First-ncand candidate columns per row, in ascending
                # insert index (= ascending new id) order.
                pos_parts.append(
                    np.argsort(~enter[keep], axis=1, kind="stable")[:, :C_CAP]
                )
                score_parts.append(S_sub[keep])
                ncand_parts.append(ncand[keep])
            sel = sum(part.size for part in aff_parts)
            if sel:
                aff = np.concatenate(aff_parts)  # corners with placeable inserts
                L_aff = lengths[aff]
                cand_pos = np.concatenate(pos_parts)
                n_cand = np.concatenate(ncand_parts)
                cand_ok = np.arange(C_CAP)[None, :] < n_cand[:, None]
                cand_scores = np.take_along_axis(
                    np.concatenate(score_parts), cand_pos, axis=1
                )
                kept = int(event.new_n) - inserted
                cand_ids = kept + cand_pos
                member_ok = cols < L_aff[:, None]
                member_ids = np.where(member_ok, orders[aff], 0)
                member_scores = np.where(
                    member_ok,
                    np.einsum("acd,ad->ac", engine.values[member_ids], weights[aff]),
                    -np.inf,
                )
                tol_aff = tol[aff][:, None, None]
                # Any candidate within the band of any member (or of
                # another candidate) makes its relative order unprovable.
                pair_mc = cand_ok[:, :, None] & member_ok[:, None, :]
                ambiguous = (
                    (np.abs(member_scores[:, None, :] - cand_scores[:, :, None])
                     <= tol_aff)
                    & pair_mc
                ).any(axis=(1, 2))
                pair_cc = (
                    cand_ok[:, :, None]
                    & cand_ok[:, None, :]
                    & ~np.eye(C_CAP, dtype=bool)[None]
                )
                ambiguous |= (
                    (np.abs(cand_scores[:, :, None] - cand_scores[:, None, :])
                     <= tol_aff)
                    & pair_cc
                ).any(axis=(1, 2))
                if ambiguous.any():
                    reeval[aff[ambiguous]] = True
                    keep_rows = ~ambiguous
                    aff = aff[keep_rows]
                    L_aff = L_aff[keep_rows]
                    cand_pos = cand_pos[keep_rows]
                    n_cand = n_cand[keep_rows]
                    cand_ok = cand_ok[keep_rows]
                    cand_scores = cand_scores[keep_rows]
                    cand_ids = cand_ids[keep_rows]
                    member_ok = member_ok[keep_rows]
                    member_scores = member_scores[keep_rows]
                if aff.size:
                    # A candidate's slot is the number of members scoring
                    # above it (outside the band, this provably matches
                    # the engine's exact order; an exact tie would have
                    # bailed above, so "incumbent wins" is preserved).
                    slot = (
                        (member_scores[:, None, :] > cand_scores[:, :, None])
                        & member_ok[:, None, :]
                    ).sum(axis=2)
                    changed[aff] |= ((slot < k) & cand_ok).any(axis=1)
                    # Candidates in one row are ordered by (score desc,
                    # id asc); columns are already id-ascending, so a
                    # stable sort on -score finishes the job.
                    by_score = np.argsort(
                        np.where(cand_ok, -cand_scores, np.inf),
                        axis=1,
                        kind="stable",
                    )
                    rank = np.empty_like(by_score)
                    np.put_along_axis(
                        rank,
                        by_score,
                        np.broadcast_to(
                            np.arange(C_CAP)[None, :], by_score.shape
                        ).copy(),
                        axis=1,
                    )
                    # Merge by a composite key: members keep their slot
                    # order, each candidate lands just before the member
                    # it displaces, candidates at one slot follow their
                    # rank.  Invalid entries sort last.
                    minor_width = C_CAP + 2
                    key_members = np.where(member_ok, cols, K + 1) * minor_width + (
                        C_CAP + 1
                    )
                    key_cands = np.where(cand_ok, slot, K + 1) * minor_width + rank
                    keys = np.concatenate([key_members, key_cands], axis=1)
                    pool = np.concatenate(
                        [np.where(member_ok, orders[aff], -1),
                         np.where(cand_ok, cand_ids, -1)],
                        axis=1,
                    )
                    merge = np.argsort(keys, axis=1, kind="stable")
                    orders[aff] = np.take_along_axis(pool, merge, axis=1)[:, :K]
                    lengths[aff] = np.minimum(K, L_aff + n_cand)
                    self.stats["corners_merged"] = (
                        self.stats.get("corners_merged", 0) + int(aff.size)
                    )

        idx = np.flatnonzero(reeval)
        if idx.size:
            fresh = engine.topk_orders(np.ascontiguousarray(weights[idx]), K)
            # A row whose buffer ran below k already counts as changed
            # (a member in its first k columns was deleted).
            changed[idx] |= (fresh[:, :k] != orders[idx, :k]).any(axis=1)
            orders[idx] = fresh
            lengths[idx] = K
        cache.n = int(event.new_n)
        self.stats["corners_dropped"] += int(idx.size)
        self.stats["corners_kept"] += int(count - idx.size)
        self.stats["corner_evaluations"] += int(idx.size)
        return changed

    def _walk(self, event, changed, dirty, recorded) -> bool:
        """Maintain the recorded levels top down; ``False`` on a bail.

        A clean level (no changed corner, no fallback cell) whose cells
        are exactly the recorded ones is carried as it stands: its cells
        decide as they did, and since none flips, the next level keeps
        its cells and positions too, so the child pointers stay valid.
        Only its resolved items follow the renumbering.  Every other
        level is rebuilt: cells that reference no changed corner keep
        their decision verbatim, a resolved→split flip grows a fresh
        subtree, a split→resolved flip prunes one.  ``dirty`` and
        ``recorded`` hold each recorded level's flag and resolved count.
        """
        from repro.core.mdrc import (
            CELL_FALLBACK,
            CELL_RESOLVED,
            CELL_SPLIT,
            CellLevel,
        )

        engine = self._engine
        cache = self._cache
        d = engine.d
        corners_per_cell = 1 << (d - 1)
        patterns = np.array(
            list(itertools.product((False, True), repeat=d - 1)), dtype=bool
        )
        levels = cache.levels
        # An untouched resolved cell keeps its item verbatim — but the
        # item is a row id and must follow the renumbering.  (It cannot
        # have been deleted: deletion would have hit the cell's corners,
        # making the cell touched.)  The appended -1 keeps the -1 of a
        # cell that did not resolve.
        idmap = np.append(event.idmap, -1) if event.deleted_ids.size else None
        new_levels: list[CellLevel] = []
        alive = None  # every recorded cell of the level survives
        seeds_lo = np.empty((0, d - 1), dtype=np.float64)
        seeds_hi = np.empty((0, d - 1), dtype=np.float64)
        depth = 0
        cells_before = 0
        rebuilt = False
        while True:
            cached = levels[depth] if depth < len(levels) else None
            grown = seeds_lo.shape[0]
            if cached is not None and alive is None and not grown and not dirty[depth]:
                if idmap is not None:
                    cached.item = idmap[cached.item]
                size = cached.state.size
                # The budget check of step f), on the recorded counts.
                resolved = recorded[depth]
                if cells_before + resolved + 2 * (size - resolved) > self.max_cells:
                    return False
                cells_before += resolved
                new_levels.append(cached)
                self.stats["levels_carried"] += 1
                self.stats["cells_kept"] += size
                depth += 1
                continue
            if cached is None:
                apos = np.empty(0, dtype=np.intp)
            elif alive is None:
                apos = np.arange(cached.state.size)
            else:
                apos = np.flatnonzero(alive)
            if apos.size == 0 and grown == 0:
                break
            rebuilt = True

            # a) surviving cached cells: re-decide only the touched ones.
            state_a = cached.state[apos].copy() if apos.size else np.empty(0, np.int8)
            item_a = cached.item[apos] if apos.size else np.empty(0, np.int64)
            if idmap is not None:
                item_a = idmap[item_a]
            old_state_a = state_a.copy()
            if apos.size:
                touched = changed[cached.corners[apos]].any(axis=1)
                redo = np.flatnonzero(touched)
                self.stats["cells_kept"] += int(apos.size - redo.size)
                self.stats["cells_redecided"] += int(redo.size)
                if redo.size:
                    has_common, items = self._decide(cached.corners[apos[redo]])
                    state_a[redo] = np.where(
                        has_common,
                        CELL_RESOLVED,
                        CELL_SPLIT if depth < self.max_depth else CELL_FALLBACK,
                    ).astype(np.int8)
                    item_a[redo] = items
                item_a[state_a != CELL_RESOLVED] = -1

            # b) grown cells: evaluate corners through the memo, decide.
            if grown:
                corner_rows = np.where(
                    patterns[None, :, :], seeds_hi[:, None, :], seeds_lo[:, None, :]
                )
                corner_rows = np.ascontiguousarray(
                    corner_rows.reshape(grown * corners_per_cell, d - 1)
                )
                ids_b = self._eval_corners(corner_rows).reshape(grown, corners_per_cell)
                has_common_b, item_b = self._decide(ids_b)
                state_b = np.where(
                    has_common_b,
                    CELL_RESOLVED,
                    CELL_SPLIT if depth < self.max_depth else CELL_FALLBACK,
                ).astype(np.int8)
                item_b[state_b != CELL_RESOLVED] = -1
                self.stats["cells_grown"] += grown
            else:
                ids_b = np.empty((0, corners_per_cell), dtype=np.intp)
                state_b = np.empty(0, dtype=np.int8)
                item_b = np.empty(0, dtype=np.int64)

            # c) next level's surviving cached cells: the cached children
            # of cells that were split and stayed split.
            next_cached = levels[depth + 1] if depth + 1 < len(levels) else None
            next_count = next_cached.state.shape[0] if next_cached is not None else 0
            alive_next = np.zeros(next_count, dtype=bool)
            keep_split = (
                apos[(old_state_a == CELL_SPLIT) & (state_a == CELL_SPLIT)]
                if apos.size
                else np.empty(0, dtype=np.intp)
            )
            if keep_split.size:
                base = cached.children[keep_split]
                alive_next[base] = True
                alive_next[base + 1] = True
            next_remap = np.cumsum(alive_next) - 1
            surviving_next = int(alive_next.sum())

            # d) children pointers + seeds for the next level.  Newly
            # split cells (cached flips first, grown splits second) get
            # children appended after the surviving cached cells, in
            # exactly the order their seeds are queued.
            children_a = np.full(apos.size, -1, dtype=np.int64)
            if keep_split.size:
                children_a[
                    (old_state_a == CELL_SPLIT) & (state_a == CELL_SPLIT)
                ] = next_remap[cached.children[keep_split]]
            flip_mask = (state_a == CELL_SPLIT) & (old_state_a != CELL_SPLIT)
            split_b = state_b == CELL_SPLIT
            n_new_split = int(flip_mask.sum()) + int(split_b.sum())
            children_b = np.full(grown, -1, dtype=np.int64)
            if n_new_split:
                ranks = surviving_next + 2 * np.arange(n_new_split)
                children_a[flip_mask] = ranks[: int(flip_mask.sum())]
                children_b[split_b] = ranks[int(flip_mask.sum()) :]
                parents_lo = np.concatenate(
                    [
                        cached.los[apos[flip_mask]] if apos.size else seeds_lo[:0],
                        seeds_lo[split_b],
                    ]
                )
                parents_hi = np.concatenate(
                    [
                        cached.his[apos[flip_mask]] if apos.size else seeds_hi[:0],
                        seeds_hi[split_b],
                    ]
                )
                axis = depth % (d - 1)
                mids = (parents_lo[:, axis] + parents_hi[:, axis]) / 2.0
                next_lo = np.repeat(parents_lo, 2, axis=0)
                next_hi = np.repeat(parents_hi, 2, axis=0)
                next_hi[0::2, axis] = mids  # left child: [lo, mid]
                next_lo[1::2, axis] = mids  # right child: [mid, hi]
            else:
                next_lo = np.empty((0, d - 1), dtype=np.float64)
                next_hi = np.empty((0, d - 1), dtype=np.float64)

            # e) fallback centers: remap + screen survivors, evaluate
            # the stale and the newly fallen-back in one batch.
            center_a = np.full(apos.size, -1, dtype=np.int64)
            center_b = np.full(grown, -1, dtype=np.int64)
            los_level = np.concatenate(
                [cached.los[apos] if apos.size else seeds_lo[:0], seeds_lo]
            )
            his_level = np.concatenate(
                [cached.his[apos] if apos.size else seeds_hi[:0], seeds_hi]
            )
            center_level = np.concatenate([center_a, center_b])
            state_level = np.concatenate([state_a, state_b])
            fallback = np.flatnonzero(state_level == CELL_FALLBACK)
            if fallback.size:
                need = np.ones(fallback.size, dtype=bool)
                in_a = fallback[fallback < apos.size]
                surviving_fb = (
                    in_a[old_state_a[in_a] == CELL_FALLBACK]
                    if in_a.size
                    else np.empty(0, dtype=np.intp)
                )
                if surviving_fb.size:
                    kept_item = cached.center_item[apos[surviving_fb]].copy()
                    chit = (
                        np.isin(kept_item, event.deleted_ids)
                        if event.deleted_ids.size
                        else np.zeros(kept_item.size, dtype=bool)
                    )
                    kept_item[~chit] = event.idmap[kept_item[~chit]]
                    centers = (los_level[surviving_fb] + his_level[surviving_fb]) / 2.0
                    wc = weights_from_angles_batch(centers)
                    fb_stale = chit.copy()
                    live = np.flatnonzero(~chit)
                    if event.inserted_rows.size and live.size:
                        wl = wc[live]
                        top = np.einsum(
                            "ij,ij->i", wl, engine.values[kept_item[live]]
                        )
                        best_new = (wl @ event.inserted_rows.T).max(axis=1)
                        tol = _screen_band(wl, engine, event)
                        fb_stale[live[best_new >= top - tol]] = True
                    center_level[surviving_fb] = kept_item
                    fb_pos = np.searchsorted(fallback, surviving_fb)
                    need[fb_pos] = fb_stale
                evaluate = fallback[need]
                if evaluate.size:
                    centers = (los_level[evaluate] + his_level[evaluate]) / 2.0
                    top1 = engine.topk_orders(weights_from_angles_batch(centers), 1)
                    center_level[evaluate] = top1[:, 0]
                    self.stats["corner_evaluations"] += int(evaluate.size)

            new_levels.append(
                CellLevel(
                    los=los_level,
                    his=his_level,
                    corners=np.concatenate(
                        [
                            cached.corners[apos]
                            if apos.size
                            else np.empty((0, corners_per_cell), dtype=np.intp),
                            ids_b,
                        ]
                    ),
                    state=state_level,
                    item=np.concatenate([item_a, item_b]),
                    center_item=center_level,
                    children=np.concatenate([children_a, children_b]),
                )
            )

            # f) prove the budget path stays dormant.  A fresh run takes
            # the order-independent vectorized path at a level only while
            # its projected worst-case leaf count stays within max_cells;
            # mirror that check exactly and bail at the first level that
            # could engage the sequential path — before growing the next
            # one, since a tree that keeps splitting grows geometrically.
            resolved = int((state_level == CELL_RESOLVED).sum())
            if cells_before + resolved + 2 * (state_level.size - resolved) > self.max_cells:
                return False
            cells_before += resolved + int(fallback.size)

            alive = None if alive_next.all() else alive_next
            seeds_lo, seeds_hi = next_lo, next_hi
            depth += 1

        if rebuilt:
            cache.levels = new_levels
            # Cells that resolved coarser leave orphan corners behind.
            cache.prune()
        return True

    def _eval_corners(self, corner_rows: np.ndarray) -> np.ndarray:
        """Dense corner ids for angle rows, via the cache's byte-keyed memo.

        The registry lookup of :func:`~repro.core.mdrc.mdrc` phase A;
        misses are evaluated through the engine in a single batch and
        appended to the cache.
        """
        from repro.core.mdrc import _register_corners

        cache = self._cache
        ids, rows = _register_corners(cache.registry, corner_rows, cache.count)
        if rows.size:
            weights = weights_from_angles_batch(corner_rows[rows])
            fresh = self._engine.topk_orders(weights, cache.k_eval)
            cache.append(fresh, corner_rows[rows], weights)
            self.stats["corner_evaluations"] += int(rows.size)
        return ids

    def _decide(self, corner_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Resolve cells from their corners' current top-k sets.

        Returns ``(has_common, item)`` per cell.  An item is common iff
        it appears in all ``P`` corner sets, i.e. ``P`` times in the
        sorted concatenation (members are distinct within a corner) —
        detected with one sorted-window comparison.  ``"first"`` picks
        the smallest common item (what ``argmax`` over the unpacked
        intersection bitmap yields); ``"best-rank"`` applies the
        recursion's rule (:func:`repro.core.mdrc._best_rank_item`).
        """
        from repro.core.mdrc import _best_rank_item

        cache = self._cache
        num, P = corner_ids.shape
        sets = cache.orders[corner_ids][:, :, : self.k]  # (num, P, k)
        flat = np.sort(sets.reshape(num, -1), axis=1)
        window = flat[:, P - 1 :] == flat[:, : flat.shape[1] - P + 1]
        has_common = window.any(axis=1)
        item = np.full(num, -1, dtype=np.int64)
        rows = np.flatnonzero(has_common)
        if rows.size:
            first = np.argmax(window[rows], axis=1)
            item[rows] = flat[rows, first]
        if self.choice == "best-rank":
            for cell in rows:
                members = np.unique(flat[cell, : flat.shape[1] - P + 1][window[cell]])
                item[cell] = _best_rank_item(
                    members, cache.orders[corner_ids[cell]][:, : self.k]
                )
        return has_common, item

    def _result_from_tree(self):
        """Synthesize the fresh-run ``MDRCResult`` from the maintained tree."""
        from repro.core.mdrc import CELL_FALLBACK, CELL_RESOLVED, MDRCResult

        cache = self._cache
        levels = cache.levels
        state = np.concatenate([level.state for level in levels])
        item = np.concatenate([level.item for level in levels])
        resolved = state == CELL_RESOLVED
        fallback = state == CELL_FALLBACK
        picks = [item[resolved]]
        capped = int(fallback.sum())
        if capped:
            # A fallback cell contributes its center's top-1 and each of
            # its corners' top-1.
            center = np.concatenate([level.center_item for level in levels])
            corners = np.concatenate([level.corners for level in levels])
            picks += [center[fallback], cache.orders[corners[fallback], 0].ravel()]
        return MDRCResult(
            indices=np.unique(np.concatenate(picks)).tolist(),
            cells=int(resolved.sum()) + capped,
            max_depth_reached=len(levels) - 1,
            capped_cells=capped,
            corner_evaluations=0,
        )


class KSetView(MaterializedView):
    """Maintained K-SETr collection (Algorithm 4 under churn).

    Caches every batch of drawn functions with its resolved top-k orders
    in a :class:`~repro.geometry.ksets.KSetDrawState`.  Delta events mark
    the draws whose cached top-k the mutation can touch; the next
    :meth:`refresh` replays :func:`~repro.geometry.ksets.sample_ksets`
    over the state — cached draws are served (stale ones re-resolved
    lazily, per batch, through the engine's exact top-k), and if the
    patience walk runs past the cache, fresh draws continue the recorded
    RNG stream exactly where a from-scratch run with the same seed would.

    ``rng`` must be a seed (int or ``None``), not a shared generator:
    the bit-identity contract compares against a fresh run re-seeded
    identically, which a caller-mutated generator cannot provide.
    """

    def __init__(
        self,
        engine: ScoreEngine,
        k: int,
        patience: int = 100,
        rng: int | None = None,
        max_draws: int = 1_000_000,
        batch_size: int = 1024,
    ) -> None:
        from repro.geometry.ksets import KSetDrawState

        if isinstance(rng, np.random.Generator):
            raise ValidationError(
                "maintained views need a reproducible seed (int or None), "
                "not a live Generator"
            )
        super().__init__(engine)
        self.k = int(k)
        self.patience = patience
        self._state = KSetDrawState(
            engine.d, self.k, max_draws=max_draws, batch_size=batch_size, rng=rng
        )
        self.stats.update(draws_invalidated=0, draws_kept=0)

    def _apply(self, event) -> None:
        state = self._state
        for i in range(len(state.orders)):
            valid = ~state.stale[i]
            stale = _screen_topk_orders(
                state.orders[i], state.weights[i], valid, event, self._engine
            )
            rows = np.flatnonzero(stale)
            if rows.size:
                state.mark_stale(i, rows)
            self.stats["draws_invalidated"] += int(rows.size)
            self.stats["draws_kept"] += int((valid & ~stale).sum())

    def _compute(self):
        from repro.geometry.ksets import sample_ksets

        return sample_ksets(
            self._engine.values,
            self.k,
            patience=self.patience,
            engine=self._engine,
            state=self._state,
        )


class MDRRRView(KSetView):
    """Maintained MDRRR representative (hitting set over maintained k-sets).

    The expensive half of MDRRR is the K-SETr collection; the hitting
    set itself is a cheap deterministic solve over the collected sets.
    This view therefore maintains the :class:`KSetView` draw state (it
    is one, with another ``_compute``) and replays the *real*
    :func:`~repro.core.mdrrr.md_rrr` (sampled enumerator) against it on
    refresh — solver, optional verification panel and repair rounds all
    included, so the result is the one a fresh ``md_rrr`` call with the
    same seed would return.
    """

    def __init__(
        self,
        engine: ScoreEngine,
        k: int,
        hitting: str = "greedy",
        patience: int = 100,
        rng: int | None = None,
        max_draws: int = 1_000_000,
        batch_size: int = 1024,
        verify_functions: int = 0,
        max_repair_rounds: int = 10,
    ) -> None:
        super().__init__(
            engine, k, patience=patience, rng=rng, max_draws=max_draws, batch_size=batch_size
        )
        self.hitting = hitting
        self.rng = rng
        self.verify_functions = verify_functions
        self.max_repair_rounds = max_repair_rounds

    def _compute(self):
        from repro.core.mdrrr import md_rrr

        return md_rrr(
            self._engine.values,
            self.k,
            enumerator="sample",
            hitting=self.hitting,
            patience=self.patience,
            rng=self.rng,
            verify_functions=self.verify_functions,
            max_repair_rounds=self.max_repair_rounds,
            engine=self._engine,
            kset_state=self._state,
        )


class RankRegretView(MaterializedView):
    """Maintained Monte-Carlo rank-regret estimate of a representative.

    Caches the sampled function panel ``W`` (drawn once from the seed —
    the same panel every fresh :func:`~repro.evaluation.regret.rank_regret_sampled`
    call with that seed uses), each function's best-member score
    threshold, and each function's rank count.  The estimator's rank is
    ``1 +`` the number of rows scoring *strictly above* the threshold,
    so a committed mutation patches it by exact ±counting:

    * a surviving member's row data is unchanged, so every threshold is
      stable while the subset survives;
    * a deleted row strictly above the threshold decrements the count, an
      inserted row strictly above it increments it — rows strictly below
      contribute nothing;
    * any mutated row whose score lands inside the noise band of a
      function's threshold marks that function stale; stale functions are
      re-counted through the engine's exact
      :meth:`~repro.engine.ScoreEngine.rank_of_best_batch` at refresh.

    Deleting a subset member invalidates the whole cache (the subset
    itself changed); use :meth:`set_subset` when the representative the
    view evaluates is replaced (e.g. by an upstream :class:`MDRCView`).
    """

    def __init__(
        self,
        engine: ScoreEngine,
        subset,
        num_functions: int = 10_000,
        rng: int | None = None,
    ) -> None:
        if isinstance(rng, np.random.Generator):
            raise ValidationError(
                "maintained views need a reproducible seed (int or None), "
                "not a live Generator"
            )
        if num_functions < 1:
            raise ValidationError("num_functions must be >= 1")
        super().__init__(engine)
        self.num_functions = int(num_functions)
        self._weights = sample_functions(engine.d, self.num_functions, rng)
        self._members: np.ndarray = np.empty(0, dtype=np.int64)
        self._thr: np.ndarray | None = None
        self._ranks: np.ndarray | None = None
        self._stale: np.ndarray | None = None
        self.stats.update(functions_patched=0, functions_recounted=0, subset_losses=0)
        self.set_subset(subset)

    def set_subset(self, subset) -> None:
        """Evaluate this representative from now on (drops the cache)."""
        members = np.unique(np.asarray(list(subset), dtype=np.int64))
        if members.size == 0:
            raise ValidationError("subset must be non-empty")
        if members[0] < 0 or members[-1] >= self._engine.n:
            raise ValidationError("subset indices out of range")
        if self._ranks is not None and np.array_equal(members, self._members):
            return
        self._members = members
        self._thr = None
        self._ranks = None
        self._stale = None
        self._result = None

    def _apply(self, event) -> None:
        members = self._members
        if event.deleted_ids.size and np.isin(members, event.deleted_ids).any():
            # The representative itself lost a member: the estimate is
            # now over a different subset — nothing cached applies.  The
            # surviving members stay addressable (remapped) so a refresh
            # without set_subset evaluates the surviving representative.
            self._members = event.idmap[members[~np.isin(members, event.deleted_ids)]]
            self._thr = None
            self._ranks = None
            self._stale = None
            self.stats["subset_losses"] += 1
            return
        self._members = event.idmap[members]
        if self._ranks is None:
            return
        thr = self._thr
        stale = self._stale
        tol = _screen_band(self._weights, self._engine, event)
        for rows, sign in ((event.deleted_rows, -1), (event.inserted_rows, 1)):
            if not rows.size:
                continue
            # Chunk the (mutated-rows × functions) score screen so a
            # large churn burst against a 10k-function panel stays at a
            # bounded working set.
            chunk = max(1, (1 << 22) // max(1, rows.shape[0]))
            for lo in range(0, self.num_functions, chunk):
                hi = min(self.num_functions, lo + chunk)
                scores = rows @ self._weights[lo:hi].T  # (rows, f)
                above = scores > (thr[lo:hi] + tol[lo:hi])[None, :]
                near = np.abs(scores - thr[lo:hi][None, :]) <= tol[lo:hi][None, :]
                self._ranks[lo:hi] += sign * above.sum(axis=0)
                stale[lo:hi] |= near.any(axis=0)
        self.stats["functions_patched"] += int(self.num_functions - stale.sum())

    def _compute(self) -> int:
        if self._members.size == 0:
            raise ValidationError(
                "every subset member was deleted; call set_subset first"
            )
        engine = self._engine
        if self._ranks is None:
            self._ranks = engine.rank_of_best_batch(self._weights, self._members)
            # Thresholds in the engine's own arithmetic: per-row dot
            # products, exact float64 — stable for as long as the member
            # rows survive.
            self._thr = (engine.values[self._members] @ self._weights.T).max(axis=0)
            self._stale = np.zeros(self.num_functions, dtype=bool)
        elif self._stale.any():
            rows = np.flatnonzero(self._stale)
            self._ranks[rows] = engine.rank_of_best_batch(
                self._weights[rows], self._members
            )
            self.stats["functions_recounted"] += int(rows.size)
            self._stale[:] = False
        return int(self._ranks.max())
