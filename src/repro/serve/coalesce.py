"""Request coalescing for the serving front-end.

The engine is batch-native: ``topk_orders`` over 64 stacked weight
vectors costs barely more than over one (the GEMM, pruning-prefix and
quantized-screen machinery amortize across columns).  The serving hot
path exploits that: concurrent requests land in one bounded queue, and
a single dispatcher drains whatever has accumulated, stacks *adjacent
compatible* queries into one engine call, and de-interleaves the result
rows back to their requesters.

Correctness rests on two facts:

* **Per-function independence.**  The engine's result for weight row
  ``i`` depends only on ``w_i`` and the matrix — never on the other
  rows in the batch (the tier ladder resolves each column
  independently).  So the rows a coalesced call hands back are
  bit-identical to what a direct single-request call at the same
  revision would return.  The serving test-suite and the
  ``serving_load`` bench op assert exactly that.
* **Serialized order.**  Groups execute strictly in arrival order on
  the engine's single dispatch thread (:meth:`ScoreEngine.submit`), and
  mutations are barriers — never coalesced with queries, never
  reordered around them.  A query enqueued before an insert observes
  the pre-insert revision; one enqueued after observes the post-insert
  revision; no third outcome exists.

Admission control is the queue bound: :meth:`Coalescer.offer` raises
:class:`asyncio.QueueFull` when ``max_pending`` requests are already
waiting, which the HTTP layer maps to a typed 429.

The barrier ordering is also the durability ordering: a mutation
barrier's ``run`` executes apply → compact → WAL append+fsync → build
response as one unit on the engine thread, so the write-ahead commit is
serialized exactly where the mutation is — no query can observe a
revision whose WAL record might still be in flight, and a drain barrier
(:meth:`Coalescer.drain`) that resolves after a mutation proves that
mutation durable.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = ["Coalescer", "WorkItem"]


@dataclass
class WorkItem:
    """One queued request: a kind, its parsed payload, and its future."""

    kind: str  # "topk" | "rank" | "barrier"
    payload: dict
    future: asyncio.Future
    # Coalescing key: items in one adjacent run coalesce iff their keys
    # match ("topk" → k, "rank" → subset bytes).  Barriers never match.
    key: Any = None
    weights: np.ndarray | None = None
    run: Callable[[], Any] | None = None  # barrier body (engine thread)

    comparable = property(lambda self: self.kind in ("topk", "rank"))


@dataclass
class CoalesceStats:
    requests: int = 0
    batches: int = 0
    coalesced: int = 0  # requests that shared an engine call with others
    rejected: int = 0
    by_kind: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "by_kind": dict(self.by_kind),
        }


class Coalescer:
    """Bounded request queue + the dispatcher that drains it."""

    def __init__(self, engine, *, max_pending: int = 256, max_batch: int = 1024) -> None:
        self._engine = engine
        self._queue: asyncio.Queue[WorkItem] = asyncio.Queue(maxsize=max_pending)
        self._max_batch = max(1, int(max_batch))
        self._task: asyncio.Task | None = None
        self._paused = asyncio.Event()
        self._paused.set()  # set = running; cleared = paused (tests)
        self.stats = CoalesceStats()

    # -- admission ------------------------------------------------------
    def offer(self, item: WorkItem) -> asyncio.Future:
        """Enqueue; raises :class:`asyncio.QueueFull` when over capacity."""
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            raise
        self.stats.requests += 1
        self.stats.by_kind[item.kind] = self.stats.by_kind.get(item.kind, 0) + 1
        return item.future

    @property
    def depth(self) -> int:
        return self._queue.qsize()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while not self._queue.empty():  # fail whatever never ran
            item = self._queue.get_nowait()
            if not item.future.done():
                item.future.set_exception(ConnectionResetError("server stopped"))

    @property
    def running(self) -> bool:
        return self._task is not None

    def pause(self) -> None:
        """Hold the dispatcher between batches (overload testing)."""
        self._paused.clear()

    def resume(self) -> None:
        self._paused.set()

    async def drain(self) -> None:
        """Wait until everything enqueued before this call has executed.

        Enqueues a no-op barrier and awaits it: the dispatcher executes
        groups strictly in arrival order, so when the sentinel's future
        resolves every earlier item — including any mutation barrier and
        its write-ahead commit — has fully settled on the engine thread.
        Used by graceful shutdown (after admissions stop) so the final
        snapshot captures every acknowledged mutation.  Resumes a paused
        dispatcher: drain and pause are mutually exclusive states.
        """
        if self._task is None:
            return
        self.resume()
        sentinel = WorkItem(
            kind="barrier",
            payload={},
            future=asyncio.get_running_loop().create_future(),
            run=lambda: None,
        )
        # Blocking put, not offer(): the drain sentinel must get in even
        # when the queue is at the admission bound.
        await self._queue.put(sentinel)
        await sentinel.future

    # -- dispatch -------------------------------------------------------
    async def _run(self) -> None:
        while True:
            await self._paused.wait()
            first = await self._queue.get()
            # Re-check: a pause issued while parked in get() must hold
            # the already-dequeued item too, not slip one batch through.
            await self._paused.wait()
            batch = [first]
            # Snapshot everything already waiting, in arrival order.
            while len(batch) < self._max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            for group in _adjacent_groups(batch):
                await self._execute(group)

    async def _execute(self, group: list[WorkItem]) -> None:
        self.stats.batches += 1
        if len(group) > 1:
            self.stats.coalesced += len(group)
        item = group[0]
        try:
            if item.kind == "barrier":
                result = await self._submit(item.run)
                _resolve(item, result)
                return
            weights = np.concatenate([it.weights for it in group], axis=0)
            if item.kind == "topk":
                k = item.key
                # ``n`` is read beside ``revision``, after the call: the
                # row count the answer was computed over.
                order, n, revision = await self._submit(
                    lambda: (
                        self._engine.topk_orders(weights, k),
                        self._engine.n,
                        self._engine.revision,
                    )
                )
                offset = 0
                for it in group:
                    m = it.weights.shape[0]
                    _resolve(it, (order[offset : offset + m], n, revision))
                    offset += m
            else:  # "rank"
                subset = group[0].payload["subset"]
                ranks, revision = await self._submit(
                    lambda: (
                        self._engine.rank_of_best_batch(weights, subset),
                        self._engine.revision,
                    )
                )
                offset = 0
                for it in group:
                    m = it.weights.shape[0]
                    _resolve(it, (ranks[offset : offset + m], revision))
                    offset += m
        except Exception as exc:
            for it in group:
                if not it.future.done():
                    it.future.set_exception(exc)

    async def _submit(self, fn):
        return await asyncio.wrap_future(self._engine.submit(fn))


def _adjacent_groups(batch: list[WorkItem]) -> list[list[WorkItem]]:
    """Split the drained snapshot into adjacent coalescable runs.

    Only *adjacent* items with the same (kind, key) coalesce — grouping
    across a barrier (mutation, representative refresh) would reorder a
    query relative to a mutation the client observed as enqueued first.
    """
    groups: list[list[WorkItem]] = []
    for item in batch:
        if (
            groups
            and item.comparable
            and groups[-1][-1].comparable
            and groups[-1][-1].kind == item.kind
            and groups[-1][-1].key == item.key
        ):
            groups[-1].append(item)
        else:
            groups.append([item])
    return groups


def _resolve(item: WorkItem, result) -> None:
    if not item.future.done():
        item.future.set_result(result)
