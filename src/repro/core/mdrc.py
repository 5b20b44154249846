"""MDRC: function-space partitioning (Algorithm 5, §5.3).

MDRC covers the *continuous* function space instead of the discrete k-set
space.  The space of positive linear functions in R^d is the box
``[0, π/2]^{d−1}`` of ray angles.  The algorithm recursively halves the box
(round-robin over the d−1 angular dimensions, a quadtree-like scheme): at
each cell it computes the top-k of every corner function and, if the
corner top-k sets share an item, assigns that item to the whole cell and
stops — otherwise it splits.

Theorem 6: an item in the top-k of every corner has rank at most ``d·k``
for *every* function inside the cell, so the union of assigned items has
rank-regret at most ``d·k``.  In the paper's experiments the measured
rank-regret was ≤ k throughout, and output sizes stayed below 40.

Implementation notes beyond the pseudocode:

* the recursion is processed as a **batched frontier**, level by level.
  Per level: every unevaluated corner function is built in one
  :func:`repro.ranking.functions.weights_from_angles_batch` call and
  scored in one :meth:`repro.engine.ScoreEngine.topk_batch` call (a
  single chunked GEMM), corner results are memoized in a byte-keyed
  registry backed by growing packed-bitset/order buffers, and every
  cell's corner intersection is one gather + ``bitwise_and`` reduction
  over those buffers — no per-corner GEMV probes, no per-cell Python
  ``frozenset`` churn.  Which cells resolve, split, or cap is
  order-independent, so the output is identical to the original
  depth-first formulation except when the global ``max_cells`` budget
  fires mid-run (a pathological regime either way: the budget then tied
  off a depth-first fringe before and ties off a breadth-first fringe
  now, with the projected leaf count capped at ``max_cells`` so total
  work stays bounded exactly as the seed's O(depth) stack bounded it);
* corner top-k computations are memoized — sibling cells within and
  across levels share corners, so caching roughly halves the work;
* the common item assigned to a cell is chosen deterministically; two
  policies are exposed for the ablation bench (``first`` = paper's
  ``I[1]``, ``best-rank`` = smallest worst-case corner rank);
* recursion is bounded twice, because cells that straddle a boundary
  between top-k regions can refuse to intersect forever when k is very
  small relative to n: a per-cell depth cap (``max_depth``) and a global
  leaf budget (``max_cells``).  A cell resolved by either fallback
  contributes its center function's top-1 (all fallback centers of one
  level are likewise evaluated in a single batch) *and* each of its
  corners' top-1 (already evaluated — the corners sample every side of
  the unresolved boundary the cell straddles, which the center alone can
  miss entirely when one side's angular sliver is tiny), preserving
  coverage at a rank cost that vanishes with cell size;
  :attr:`MDRCResult.capped_cells` reports how often this happened (0 in
  ordinary runs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.engine import ScoreEngine, pack_membership, packed_width
from repro.exceptions import InvalidDataError, ValidationError
from repro.ranking.functions import weights_from_angles_batch

__all__ = ["CELL_FALLBACK", "CELL_RESOLVED", "CELL_SPLIT", "CornerCache", "MDRCResult", "mdrc"]

_HALF_PI = float(np.pi / 2)

# Cell states in a recorded decision tree (:class:`CornerCache.levels`).
CELL_RESOLVED = 0  # corner top-k sets share an item; leaf
CELL_SPLIT = 1  # no common item; two children at the next level
CELL_FALLBACK = 2  # no common item at the depth cap; center-top-1 leaf


@dataclass
class MDRCResult:
    """Output of :func:`mdrc`.

    Attributes
    ----------
    indices:
        The representative (sorted row indices).
    cells:
        Number of leaf cells (assigned an item, or resolved by a fallback).
    max_depth_reached:
        Deepest recursion level that occurred.
    capped_cells:
        Number of cells resolved by the depth-cap / cell-budget fallback
        (0 in ordinary runs; > 0 signals a pathological instance such as
        k = 1 with many incomparable maxima).
    corner_evaluations:
        Corner functions whose top-k was computed (cache misses when the
        memo is on; every corner visit when it is off).
    """

    indices: list[int]
    cells: int = 0
    max_depth_reached: int = 0
    capped_cells: int = 0
    corner_evaluations: int = 0


class _CornerStore:
    """Growing buffers of evaluated corners: packed top-k sets + orders.

    Rows are addressed by the dense ids the byte-keyed registry hands
    out, so a whole level's cell×corner id matrix can be resolved with
    one fancy-index gather per buffer.
    """

    def __init__(self, width: int, k: int) -> None:
        self._packed = np.empty((64, width), dtype=np.uint8)
        self._orders = np.empty((64, k), dtype=np.int64)
        self.count = 0

    def append(self, packed_rows: np.ndarray, order_rows: np.ndarray) -> None:
        need = self.count + packed_rows.shape[0]
        if need > self._packed.shape[0]:
            capacity = self._packed.shape[0]
            while capacity < need:
                capacity *= 2
            self._packed = np.resize(self._packed, (capacity, self._packed.shape[1]))
            self._orders = np.resize(self._orders, (capacity, self._orders.shape[1]))
        self._packed[self.count : need] = packed_rows
        self._orders[self.count : need] = order_rows
        self.count = need

    @property
    def packed(self) -> np.ndarray:
        return self._packed[: self.count]

    @property
    def orders(self) -> np.ndarray:
        return self._orders[: self.count]


class CellLevel:
    """One recorded frontier level of the MDRC recursion.

    ``children`` carries explicit links: a ``CELL_SPLIT`` cell's two
    children (left before right) sit at positions ``children[c]`` and
    ``children[c] + 1`` of the next level.  Decisions are order-
    independent on the vectorized path, so cell order within a level is
    arbitrary — maintenance is free to compact and append as long as the
    links stay consistent.
    """

    __slots__ = ("los", "his", "corners", "state", "item", "center_item", "children")

    def __init__(
        self,
        los: np.ndarray,
        his: np.ndarray,
        corners: np.ndarray,
        state: np.ndarray,
        item: np.ndarray,
        center_item: np.ndarray,
        children: np.ndarray,
    ) -> None:
        self.los = los  # (C, d-1) cell lower angle bounds
        self.his = his  # (C, d-1) cell upper angle bounds
        self.corners = corners  # (C, 2^(d-1)) dense corner ids
        self.state = state  # (C,) CELL_RESOLVED / CELL_SPLIT / CELL_FALLBACK
        self.item = item  # (C,) resolved cell's representative, else -1
        self.center_item = center_item  # (C,) fallback cell's center top-1, else -1
        self.children = children  # (C,) first-child position at next level, else -1


class CornerCache:
    """Cross-call MDRC memo + decision tree: the repairable state.

    Within one :func:`mdrc` call the byte-keyed registry already memoizes
    corner top-k evaluations.  A ``CornerCache`` makes that memo — and
    the full per-level decision tree of the recursion — outlive the call,
    so a maintained view (:mod:`repro.engine.views`) can repair it after
    a data mutation: re-evaluate only the corners the mutation's score
    bounds can touch, re-decide only the cells referencing a corner whose
    top-k actually changed, and keep every untouched cell verbatim.

    Attributes
    ----------
    registry:
        Angle-row bytes → dense corner id (the same keying as the
        per-call memo; angle floats are exact box midpoints, so byte
        equality is exact corner equality).
    orders / angles / lengths:
        Per-corner top-``k_eval`` index rows ``(count, k_eval)``, angle
        rows ``(count, d-1)``, and per-corner valid prefix lengths,
        addressed by dense id.  ``k_eval = k + reserve``: the extra
        tail is a repair buffer — a maintained view absorbs deletions by
        compacting the row and insertions by banded placement, touching
        the full matrix only when a buffer runs below ``k`` members.
        The recursion itself reads only the first ``k`` columns (always
        valid), so the reserve never changes an mdrc result.  Packed
        bitsets are *not* persisted — they are tied to the row count and
        cheap to rebuild for the corners a computation intersects.
    n, k, params:
        The (row count, k) the cached orders were evaluated against and
        the ``(max_depth, max_cells, choice)`` the tree was built under;
        any mismatch on the next :func:`mdrc` call resets the cache.
    levels:
        The recorded decision tree (list of :class:`CellLevel`), or
        ``None`` when no tree is available — never recorded, invalidated
        by a maintenance bail-out, or the run engaged the global
        ``max_cells`` budget path (whose sequential decisions are order-
        dependent and therefore not locally repairable).
    """

    RESERVE = 16  # repair-buffer columns beyond k

    __slots__ = (
        "registry",
        "n",
        "k",
        "k_eval",
        "d",
        "params",
        "levels",
        "count",
        "_orders",
        "_angles",
        "_lengths",
    )

    def __init__(self) -> None:
        self.registry: dict[bytes, int] = {}
        self.n: int | None = None
        self.k: int | None = None
        self.k_eval: int | None = None
        self.d: int | None = None
        self.params: tuple | None = None
        self.levels: list[CellLevel] | None = None
        self.count = 0
        self._orders: np.ndarray | None = None
        self._angles: np.ndarray | None = None
        self._lengths: np.ndarray | None = None

    @property
    def orders(self) -> np.ndarray:
        """The cached corners' top-``k_eval`` index rows ``(count, k_eval)``."""
        if self._orders is None:
            return np.empty((0, 0), dtype=np.int64)
        return self._orders[: self.count]

    @property
    def angles(self) -> np.ndarray:
        """The cached corners' angle rows ``(count, d-1)``."""
        if self._angles is None:
            return np.empty((0, 0), dtype=np.float64)
        return self._angles[: self.count]

    @property
    def lengths(self) -> np.ndarray:
        """Valid prefix length of each cached order row (always ≥ k)."""
        if self._lengths is None:
            return np.empty(0, dtype=np.int64)
        return self._lengths[: self.count]

    def ensure(self, n: int, k: int, d: int, params: tuple) -> None:
        """Reset unless the cache matches this (shape, k, parameters)."""
        if (
            self._orders is None
            or self.n != int(n)
            or self.k != int(k)
            or self.d != int(d)
            or self.params != params
        ):
            self.reset(n, k, d, params)

    def reset(self, n: int, k: int, d: int, params: tuple) -> None:
        self.registry = {}
        self.n = int(n)
        self.k = int(k)
        self.k_eval = min(int(n), int(k) + self.RESERVE)
        self.d = int(d)
        self.params = params
        self.levels = None
        self.count = 0
        self._orders = np.empty((64, self.k_eval), dtype=np.int64)
        self._angles = np.empty((64, int(d) - 1), dtype=np.float64)
        self._lengths = np.empty(64, dtype=np.int64)

    def append(self, order_rows: np.ndarray, angle_rows: np.ndarray) -> None:
        """Append freshly evaluated corners (full-width rows, dense ids)."""
        need = self.count + order_rows.shape[0]
        if need > self._orders.shape[0]:
            capacity = self._orders.shape[0]
            while capacity < need:
                capacity *= 2
            self._orders = np.resize(self._orders, (capacity, self._orders.shape[1]))
            self._angles = np.resize(self._angles, (capacity, self._angles.shape[1]))
            self._lengths = np.resize(self._lengths, capacity)
        self._orders[self.count : need] = order_rows
        self._angles[self.count : need] = angle_rows
        self._lengths[self.count : need] = order_rows.shape[1]
        self.count = need

    def corner_keys(self) -> list[bytes]:
        """Registry keys indexed by dense corner id."""
        keys: list[bytes] = [b""] * len(self.registry)
        for key, gid in self.registry.items():
            keys[gid] = key
        return keys

    def prune(self) -> None:
        """Compact to the corners the recorded tree references.

        Keeps the cache tracking the live recursion tree instead of
        growing monotonically with churn; a no-op when no tree is
        recorded (nothing says which corners are live).
        """
        if self.levels is None or self.count == 0:
            return
        live = np.zeros(self.count, dtype=bool)
        for level in self.levels:
            live[level.corners.ravel()] = True
        if live.all():
            return
        remap = np.cumsum(live) - 1
        keys = self.corner_keys()
        survivors = np.flatnonzero(live)
        self.registry = {keys[int(gid)]: new for new, gid in enumerate(survivors)}
        self._orders = np.ascontiguousarray(self._orders[survivors])
        self._angles = np.ascontiguousarray(self._angles[survivors])
        self._lengths = np.ascontiguousarray(self._lengths[survivors])
        self.count = int(survivors.size)
        for level in self.levels:
            level.corners = remap[level.corners]


def mdrc(
    values: np.ndarray,
    k: int,
    max_depth: int = 48,
    max_cells: int = 10_000,
    choice: str = "first",
    use_cache: bool = True,
    engine: ScoreEngine | None = None,
    jobs: int | None = None,
    backend: str = "auto",
    tune=None,
    policy=None,
    corner_cache: CornerCache | None = None,
) -> MDRCResult:
    """MDRC (Algorithm 5): frontier-batched function-space partitioning.

    Parameters
    ----------
    values:
        ``(n, d)`` normalized matrix with d ≥ 2.
    k:
        Rank-regret target; the output guarantees rank-regret ≤ d·k
        (Theorem 6) and empirically ≤ k.
    max_depth:
        Per-cell recursion cap.
    max_cells:
        Global leaf-cell budget; once exceeded, every remaining frontier
        cell resolves via the center-top-1 fallback.
    choice:
        How to pick from a non-empty corner intersection: ``"first"``
        (lowest row index — the paper's ``I[1]``) or ``"best-rank"``
        (the item with the smallest worst-case rank over the corners).
    use_cache:
        Memoize corner top-k computations (ablation toggle).
    engine:
        Optional pre-built :class:`~repro.engine.ScoreEngine` over
        ``values`` to share its GEMM chunking and memo across calls;
        built on the fly when omitted.
    jobs:
        Workers for the engine's fan-out layer when the engine is built
        here (``None``/``1`` = serial, ``-1`` = all cores); ignored when
        ``engine`` is passed — the caller's engine keeps its own
        configuration.
    backend:
        Execution backend for the fan-out (``"auto"`` | ``"serial"`` |
        ``"thread"`` | ``"process"``), as in :class:`ScoreEngine`;
        likewise ignored when ``engine`` is passed.
    tune:
        Runtime tuning for the engine built here (``None`` | ``"auto"``
        | a :class:`~repro.engine.TuningProfile`); ignored when
        ``engine`` is passed.  Results are bit-identical either way.
    policy:
        Failure handling for the engine built here (a
        :class:`~repro.engine.RetryPolicy`, or ``None`` for the
        process-wide default); likewise ignored when ``engine`` is
        passed.
    corner_cache:
        Optional :class:`CornerCache` carrying corner evaluations across
        calls (the maintained-view replay path).  Requires ``use_cache``;
        reset automatically when its ``(n, k)`` no longer match.  The
        caller is responsible for the cached orders being valid for the
        *current* ``values`` — :mod:`repro.engine.views` repairs the
        cache after each mutation before replaying.
    """
    try:
        matrix = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidDataError(
            f"values are not numeric (cannot convert to float64): {exc}"
        ) from None
    if matrix.ndim != 2:
        raise ValidationError("values must be an (n, d) matrix")
    if not np.all(np.isfinite(matrix)):
        raise InvalidDataError(
            "values contain NaN or Inf entries; mdrc's corner probes would "
            "return garbage ranks — clean or impute the data first"
        )
    n, d = matrix.shape
    if d < 2:
        raise ValidationError("mdrc needs d >= 2 (one angle dimension or more)")
    k = int(k)
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    if max_depth < 1:
        raise ValidationError("max_depth must be >= 1")
    if max_cells < 1:
        raise ValidationError("max_cells must be >= 1")
    if choice not in ("first", "best-rank"):
        raise ValidationError(f"unknown choice policy {choice!r}")
    own_engine = engine is None
    if engine is None:
        engine = ScoreEngine(
            matrix, n_jobs=jobs, backend=backend, tune=tune, resilience=policy
        )
    else:
        # Settle any journaled row mutations before reading the engine's
        # matrix: a caller who mutated and then passed ``engine.values``
        # gets a clean mismatch error instead of stale-shape corruption.
        engine.compact()
        if engine.values.shape != matrix.shape or not np.array_equal(
            engine.values, matrix
        ):
            raise ValidationError("engine was built over a different matrix")

    if corner_cache is not None and not use_cache:
        raise ValidationError("corner_cache requires use_cache=True")

    result = MDRCResult(indices=[])
    selected: set[int] = set()
    corners_per_cell = 1 << (d - 1)
    store = _CornerStore(packed_width(n), k)
    tree_valid = corner_cache is not None
    recorded: list[CellLevel] = []
    if corner_cache is not None:
        corner_cache.ensure(n, k, d, (max_depth, max_cells, choice))
        registry = corner_cache.registry
        if corner_cache.count:
            # Seed the working store from the memo: packed bitsets are
            # rebuilt at this matrix's width, orders are served verbatim.
            # Only the always-valid first k columns matter here — the
            # reserve tail is view-repair state.
            cached_orders = np.ascontiguousarray(
                corner_cache.orders[:, :k], dtype=np.int64
            )
            store.append(pack_membership(cached_orders, n), cached_orders)
    else:
        registry = {}
    # Corner patterns in itertools.product(*cell) order: axis 0 is the
    # most significant bit, low endpoint first.
    patterns = np.array(
        list(itertools.product((False, True), repeat=d - 1)), dtype=bool
    )
    # The frontier is a pair of (E, d-1) bound arrays; every frontier
    # cell sits at the same level (breadth-first by construction).
    los = np.zeros((1, d - 1), dtype=np.float64)
    his = np.full((1, d - 1), _HALF_PI, dtype=np.float64)
    level = 0

    try:
        while los.shape[0]:
            num_cells = los.shape[0]
            result.max_depth_reached = max(result.max_depth_reached, level)

            # ---- Phase A: build every corner of the frontier in one
            # broadcast, then batch-evaluate the registry misses.
            corner_rows = np.where(patterns[None, :, :], his[:, None, :], los[:, None, :])
            corner_rows = np.ascontiguousarray(
                corner_rows.reshape(num_cells * corners_per_cell, d - 1)
            )
            if use_cache:
                # Vectorized within-level dedup first (sibling cells share
                # faces), then a byte-keyed registry lookup per *unique*
                # corner for the cross-level memo (the angle floats are exact
                # box midpoints, so byte equality is exact corner equality).
                void_keys = corner_rows.view(
                    np.dtype((np.void, corner_rows.dtype.itemsize * (d - 1)))
                ).ravel()
                uniq_keys, first_rows, inverse = np.unique(
                    void_keys, return_index=True, return_inverse=True
                )
                uniq_ids = np.empty(len(uniq_keys), dtype=np.intp)
                next_id = store.count
                pending: list[int] = []
                # One bytes buffer sliced per key beats a np.void.tobytes()
                # call per corner, and setdefault folds lookup + insert into
                # a single dict operation.
                buffer = uniq_keys.tobytes()
                key_size = uniq_keys.dtype.itemsize
                for u in range(len(uniq_keys)):
                    gid = registry.setdefault(
                        buffer[u * key_size : (u + 1) * key_size], next_id
                    )
                    if gid == next_id:
                        next_id += 1
                        pending.append(u)
                    uniq_ids[u] = gid
                ids = uniq_ids[inverse]
                pending_rows = first_rows[pending]
            else:
                # Ablation mode mirrors the uncached recursion: every corner
                # visit is a fresh evaluation (duplicates included), but they
                # are still batched through one GEMM.
                pending_rows = np.arange(len(corner_rows))
                ids = store.count + pending_rows
            if pending_rows.size:
                weights = weights_from_angles_batch(corner_rows[pending_rows])
                if corner_cache is not None:
                    # Evaluate the wider repair buffer in the same pass;
                    # the recursion reads only the first k columns (the
                    # engine's exact total order makes any top-k a prefix
                    # of any longer top-k', so the result is unchanged).
                    full = engine.topk_orders(weights, corner_cache.k_eval)
                    top = np.ascontiguousarray(full[:, :k])
                    store.append(pack_membership(top, n), top)
                    corner_cache.append(full, corner_rows[pending_rows])
                else:
                    batch = engine.topk_batch(weights, k)
                    store.append(batch.members, batch.order)
                result.corner_evaluations += len(pending_rows)

            # ---- Phase B: intersect every cell's corner sets in one gather
            # + AND reduction over the packed buffers.
            id_matrix = ids.reshape(num_cells, corners_per_cell)
            common = np.bitwise_and.reduce(store.packed[id_matrix], axis=1)
            has_common = common.any(axis=1)
            resolved_count = int(has_common.sum())
            split_axis = level % (d - 1)

            fallback_mask = np.zeros(num_cells, dtype=bool)
            split_mask = np.zeros(num_cells, dtype=bool)
            # Worst-case leaves if every non-resolving cell splits: current
            # leaves + this level's resolutions + 2 children per
            # non-resolving cell.  This dominates the sequential pass's
            # projection at every position — there, the last non-resolved
            # cell sees at most ``cells + resolved + 2·(splits−1) + 2``
            # — so under this bound the sequential pass would allow every
            # one of those splits too and the vectorized fast path is
            # exactly equivalent.
            projected_worst = (
                result.cells + resolved_count + 2 * (num_cells - resolved_count)
            )
            level_item = np.full(num_cells, -1, dtype=np.int64)
            level_center = np.full(num_cells, -1, dtype=np.int64)
            if projected_worst <= max_cells:
                resolved = np.flatnonzero(has_common)
                if resolved.size:
                    items = _pick_batch(
                        common[resolved], id_matrix[resolved], store, choice
                    )
                    selected.update(int(i) for i in items)
                    level_item[resolved] = items
                    result.cells += resolved.size
                if level < max_depth:
                    split_mask = ~has_common
                else:
                    fallback_mask = ~has_common
                    count = int(fallback_mask.sum())
                    result.cells += count
                    result.capped_cells += count
            else:
                # Budget-risk path: sequential, with the projected leaf count
                # capped at max_cells so total work stays bounded.  Its
                # decisions depend on the traversal order, so no locally
                # repairable tree can be recorded from here on.
                tree_valid = False
                queued_children = 0
                for position in range(num_cells):
                    if result.cells < max_cells:
                        if has_common[position]:
                            selected.update(
                                int(i)
                                for i in _pick_batch(
                                    common[position : position + 1],
                                    id_matrix[position : position + 1],
                                    store,
                                    choice,
                                )
                            )
                            result.cells += 1
                            continue
                        projected = (
                            result.cells
                            + queued_children
                            + 2
                            + (num_cells - position - 1)
                        )
                        if level < max_depth and projected <= max_cells:
                            split_mask[position] = True
                            queued_children += 2
                            continue
                    fallback_mask[position] = True
                    result.cells += 1
                    result.capped_cells += 1

            # ---- Phase C: all fallback centers of this level in one batch.
            if fallback_mask.any():
                centers = (los[fallback_mask] + his[fallback_mask]) / 2.0
                top1 = engine.topk_batch(weights_from_angles_batch(centers), 1).order
                selected.update(int(i) for i in top1[:, 0])
                # A capped cell straddles an unresolved top-k boundary; its
                # center's top-1 covers only one side of it.  Each corner's
                # top-1 is already in the store (no extra scoring), and the
                # corners sample every side the cell touches — without them,
                # an item whose top-1 region is tiny (e.g. denormal-scale
                # coordinates pushing the boundary below the depth cap's
                # resolution) is silently dropped and the d·k guarantee can
                # break for functions inside that sliver.
                selected.update(
                    int(i) for i in store.orders[id_matrix[fallback_mask], 0].ravel()
                )
                level_center[fallback_mask] = top1[:, 0]

            if tree_valid:
                level_state = np.full(num_cells, CELL_SPLIT, dtype=np.int8)
                level_state[has_common] = CELL_RESOLVED
                level_state[fallback_mask] = CELL_FALLBACK
                children = np.full(num_cells, -1, dtype=np.int64)
                split_positions = np.flatnonzero(split_mask)
                children[split_positions] = 2 * np.arange(split_positions.size)
                recorded.append(
                    CellLevel(
                        los=los,
                        his=his,
                        corners=np.ascontiguousarray(id_matrix, dtype=np.intp),
                        state=level_state,
                        item=level_item,
                        center_item=level_center,
                        children=children,
                    )
                )

            # ---- Split the surviving cells along this level's axis, left
            # child before right child (matching the sequential order).
            if split_mask.any():
                parent_los = los[split_mask]
                parent_his = his[split_mask]
                mids = (parent_los[:, split_axis] + parent_his[:, split_axis]) / 2.0
                los = np.repeat(parent_los, 2, axis=0)
                his = np.repeat(parent_his, 2, axis=0)
                his[0::2, split_axis] = mids  # left child: [lo, mid]
                los[1::2, split_axis] = mids  # right child: [mid, hi]
            else:
                los = np.empty((0, d - 1))
                his = np.empty((0, d - 1))
            level += 1

            if not use_cache:
                registry.clear()
                store = _CornerStore(packed_width(n), k)

    finally:
        if own_engine:
            engine.close()  # release the fan-out pool, if one was spun up
    if corner_cache is not None:
        corner_cache.levels = recorded if tree_valid else None
    result.indices = sorted(selected)
    return result


def _pick_batch(
    common: np.ndarray,
    id_matrix: np.ndarray,
    store: _CornerStore,
    choice: str,
) -> np.ndarray:
    """Each resolved cell's representative item, as an int64 array.

    ``common`` holds one packed intersection bitmap per resolved cell.
    The ``"first"`` policy (the default and the paper's ``I[1]``) is one
    vectorized unpack + argmax; ``"best-rank"`` scans candidate positions
    in the stored corner orders per cell.
    """
    if choice == "first":
        bits = np.unpackbits(common, axis=1)
        return np.argmax(bits, axis=1).astype(np.int64)
    items = np.empty(common.shape[0], dtype=np.int64)
    n_bits = common.shape[1] * 8
    for row in range(common.shape[0]):
        members = np.flatnonzero(np.unpackbits(common[row], count=n_bits))
        orders = store.orders[id_matrix[row]]  # (corners, k)
        best_item = -1
        best_worst = None
        for item in members:
            worst = 0
            for ordered in orders:
                position = int(np.flatnonzero(ordered == item)[0])
                worst = max(worst, position)
            if best_worst is None or worst < best_worst:
                best_worst = worst
                best_item = int(item)
        items[row] = best_item
    return items
