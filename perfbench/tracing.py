"""Spans around the program's public functions, recorded from outside.

:func:`install_engine` and :func:`install_server` replace public
functions and methods of the ``repro`` package with wrappers that record one span per call: an id, a name, the
start and end (``time.perf_counter``), the id of the enclosing span on
the same thread, the id of the HTTP request that caused it (when one
did) and a small dict of details such as the number of weight rows.
Spans stay in memory; :meth:`Recorder.dump` writes them as JSON lines
when the traced process is done.  Nothing under ``src/`` is modified.

Coalescer queue wait is attributed without touching private state: an
item offered to the coalescer is settled in arrival order, and every
item whose future completed between two ``ScoreEngine.submit`` calls
was served by the job of the earlier call.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import importlib
import itertools
import json
import os
import threading
import time

_REQUEST = contextvars.ContextVar("perfbench_request", default=None)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.waits: list[tuple] = []  # (seconds, request id, kind)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, detail=None):
        """``fn`` wrapped to record a span; ``detail(args, result)`` adds fields."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            sid = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            request = _REQUEST.get()
            extra = detail(args, result) if detail is not None else None
            recorder.spans.append(
                (sid, name, t0, t1, parent, request[0] if request else None, extra)
            )
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, detail=None) -> None:
        setattr(owner, attr, self.timed(name, getattr(owner, attr), detail))

    def dump(self, path: str) -> None:
        """Write every span (atomically: temp file, then rename)."""
        with self._lock:
            tmp = f"{path}.tmp"
            with open(tmp, "w") as handle:
                for span in list(self.spans):
                    handle.write(json.dumps(span) + "\n")
                for wait in list(self.waits):
                    handle.write(json.dumps(["wait", *wait]) + "\n")
            os.replace(tmp, path)


def _rows(args, _result) -> dict:
    return {"m": int(len(args[1]))}


def install_engine(recorder: Recorder) -> None:
    """Engine and algorithm layers (every workload)."""
    from repro.engine import ScoreEngine

    # By module path: some package namespaces re-export a function under
    # its module's name (``repro.core.mdrc`` is also the function).
    mdrc_mod = importlib.import_module("repro.core.mdrc")
    mdrrr_mod = importlib.import_module("repro.core.mdrrr")
    regret_mod = importlib.import_module("repro.evaluation.regret")

    recorder.wrap(ScoreEngine, "topk_batch", "engine.topk", _rows)
    recorder.wrap(ScoreEngine, "topk_orders", "engine.topk_orders", _rows)
    recorder.wrap(ScoreEngine, "rank_of_best_batch", "engine.rank", _rows)
    recorder.wrap(
        mdrc_mod, "mdrc", "mdrc",
        lambda _a, r: {"corner_evaluations": int(r.corner_evaluations)},
    )
    recorder.wrap(
        mdrrr_mod, "sample_ksets", "ksets",
        lambda _a, r: {"draws": int(r.draws), "ksets": len(r.ksets)},
    )
    recorder.wrap(mdrrr_mod, "greedy_hitting_set", "setcover.hitting_set")
    recorder.wrap(regret_mod, "rank_regret_sampled", "regret")


def install_server(recorder: Recorder) -> None:
    """Serving, delta, view and WAL layers (the server process)."""
    from repro.engine import DurableStore, MaterializedView, ScoreEngine
    from repro.serve.coalesce import Coalescer

    cli_mod = importlib.import_module("repro.cli")
    app_mod = importlib.import_module("repro.serve.app")
    http_mod = importlib.import_module("repro.serve.http")
    install_engine(recorder)
    ids = itertools.count(1)

    read_request = http_mod.read_request

    async def traced_read_request(reader, max_body_bytes):
        request = await read_request(reader, max_body_bytes)
        if request is not None:
            # Awaited in the connection's own task, so the value is seen
            # by every later span of this request on the event loop.
            _REQUEST.set((next(ids), request.path))
        return request

    http_mod.read_request = traced_read_request
    recorder.wrap(http_mod.Request, "json", "http.parse")
    recorder.wrap(
        http_mod, "render_response", "http.render",
        lambda _a, r: {"bytes": len(r), "path": (_REQUEST.get() or (None, None))[1]},
    )
    recorder.wrap(cli_mod, "load_csv", "setup.load")

    # Queue wait: offer time per item; job start time per submit.
    pending: collections.deque = collections.deque()
    current = {"job": None}

    def settle() -> None:
        job = current["job"]
        if job is None or job["start"] is None:
            return
        while pending and pending[0][0].future.done():
            item, offered, request = pending.popleft()
            recorder.waits.append((job["start"] - offered, request, item.kind))

    offer = Coalescer.offer

    def traced_offer(self, item):
        offered = time.perf_counter()
        future = offer(self, item)
        request = _REQUEST.get()
        pending.append((item, offered, request[0] if request else None))
        return future

    Coalescer.offer = traced_offer

    submit = ScoreEngine.submit

    def traced_submit(self, method, /, *args, **kwargs):
        if not callable(method):
            return submit(self, method, *args, **kwargs)
        settle()
        job = {"start": None}
        current["job"] = job

        def run(*a, **kw):
            job["start"] = time.perf_counter()
            return method(*a, **kw)

        return submit(self, run, *args, **kwargs)

    ScoreEngine.submit = traced_submit

    dump = recorder.dump

    def dump_settled(path: str) -> None:
        settle()
        dump(path)

    recorder.dump = dump_settled

    recorder.wrap(ScoreEngine, "compact", "delta.compact")
    subscribe = ScoreEngine.subscribe_delta

    def traced_subscribe(self, callback):
        owner = getattr(callback, "__self__", None)
        name = "views.maintain" if isinstance(owner, MaterializedView) else "delta.subscriber"
        # The caller keeps the returned callable for unsubscribe_delta.
        return subscribe(self, recorder.timed(name, callback))

    ScoreEngine.subscribe_delta = traced_subscribe
    recorder.wrap(MaterializedView, "refresh", "views.refresh")

    commit = DurableStore.commit

    def traced_commit(self, *args, **kwargs):
        before = self.wal_bytes
        t0 = time.perf_counter()
        commit(self, *args, **kwargs)
        t1 = time.perf_counter()
        recorder.spans.append(
            (next(recorder._ids), "wal.commit", t0, t1, None, None,
             {"bytes": int(self.wal_bytes - before)})
        )

    DurableStore.commit = traced_commit
    recorder.wrap(DurableStore, "snapshot", "wal.snapshot")
    recorder.wrap(DurableStore, "load", "wal.load")
    recorder.wrap(app_mod, "replay_commits", "wal.replay", lambda _a, r: {"commits": int(r)})
