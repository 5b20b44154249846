"""The ``repro.serve`` server: a Session over asyncio HTTP.

One :class:`repro.Session` (long-lived engine + maintained views)
behind a coalescing request queue.  Endpoints:

============================  ======================================================
``GET  /health``              liveness + dataset shape + revision
``GET  /v1/stats``            engine counters, coalescing counters, queue depth
``POST /v1/topk``             ``{"weights": [[...]], "k": int}`` → order rows + ``n``
``POST /v1/rank``             ``{"weights": [[...]], "subset": [...]}`` → ranks
``POST /v1/representative``   ``{"k": int, "method": "mdrc"|"mdrrr"}`` → indices
``POST /v1/insert``           ``{"rows": [[...]]}`` → new indices (journaled)
``POST /v1/delete``           ``{"indices": [...]}`` → deleted count (journaled)
============================  ======================================================

Queries coalesce (see :mod:`repro.serve.coalesce`), and a lone small
read on an idle server is answered on the event loop as it arrives;
mutations and representative refreshes are barriers.  Mutations feed the engine's
delta journal, and every maintained representative view hears about
them through its delta subscription — the next ``/v1/representative``
pays only the incremental repair.  A top-k reply is ``{"order", "n",
"revision"}``: ``k`` ids per weight row and the row count at that
revision, so its size follows the answer, not the data; the client
(:meth:`~repro.serve.ServiceClient.topk`) rebuilds the packed member
bitset from them.  Admission control is typed: **429** (queue full,
``Retry-After`` hint) under overload, **503** while draining for
shutdown; any exception no handler maps, a fanned-out work unit's
included, answers **500** on a connection that stays open.

On boot the server loads a checksummed
:class:`~repro.engine.TuningProfile` if configured, through the CLI's
loader (:func:`~repro.engine.load_profile`): a missing or torn file
warns and boots on the defaults, and is never written.  A durable
restart does the same: snapshots carry no profile, so a data dir boots
on whatever profile its server is given.

**Durability** (``ServerConfig.data_dir``, :mod:`repro.engine.wal`):
with a data directory configured, boot recovers the newest valid
snapshot, replays the write-ahead-log suffix through the ordinary
mutation path, and restores the revision counter — so after a crash
(even SIGKILL mid-mutation) the restarted server answers every query
bit-identically to one that never died.  Each mutation barrier appends
one fsync'd WAL record *before its response leaves the engine thread*
(the barrier ordering is the write-ahead discipline: durable first,
acknowledged second), bundling the delta events with the request's
idempotency key and response body.  A client that retries an ambiguous
failure with the same ``idempotency_key`` gets the stored response back
and the engine is untouched — exactly-once, across restarts.  A commit
that raises (disk full, I/O error) leaves memory ahead of the log, so
the server fails stop: data requests answer 503 and ``/health`` reports
``failed`` until a restart recovers from the log.  Snapshots
are cut on a WAL size/age policy and on graceful drain (SIGTERM /
SIGINT in :func:`serve`: stop admissions with 503, drain the coalescer,
snapshot, exit 0).
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import signal
import sys
import threading
from dataclasses import dataclass

import numpy as np

from repro.engine import DurableStore, load_profile, replay_commits
from repro.exceptions import ReproError, ValidationError
from repro.serve import http
from repro.serve.coalesce import Coalescer, WorkItem
from repro.session import Session

__all__ = ["ServerConfig", "Server", "serve", "ServerThread"]

_log = logging.getLogger("repro.serve")

# In-memory idempotency keys kept without a data_dir (with one, the
# snapshot carries the table and this is just the live-table cap).
_MAX_IDEMPOTENCY_KEYS = 65536


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 8472
    jobs: int | None = None
    tuning_profile: str | None = None  # checksummed JSON path; None = defaults
    max_pending: int = 256  # admission bound: queued requests before 429
    max_batch: int = 1024  # coalescing cap per engine call
    max_body_bytes: int = 32 * 2**20
    representative_method: str = "mdrc"  # default for /v1/representative
    data_dir: str | None = None  # WAL + snapshots; None = memory-only
    snapshot_wal_bytes: int = 4 * 2**20  # snapshot once the WAL grows past this
    snapshot_interval_s: float | None = None  # and/or this old (None = size-only)


class Server:
    """The serving front-end; owns the Session, views, coalescer and
    (when configured) the durable store."""

    def __init__(self, values: np.ndarray, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self._store: DurableStore | None = None
        self._idempotency: dict[str, dict] = {}
        self.recovery = {"snapshot_revision": 0, "replayed_commits": 0}
        # Boot acquires resources in dependency order (lock + WAL handle,
        # then the Session's pools) under one ExitStack: if any later
        # step raises — a malformed tuning profile, an unrecoverable WAL,
        # a dead snapshot set — everything already acquired is unwound
        # and no stray lock file, WAL handle or half-built session
        # survives the wreck.
        with contextlib.ExitStack() as stack:
            self._boot(np.asarray(values, dtype=np.float64), stack)
            stack.pop_all()  # boot succeeded: resources now owned by stop()
        self._coalescer = Coalescer(
            self.session.engine,
            max_pending=self.config.max_pending,
            max_batch=self.config.max_batch,
        )
        self._views: dict[tuple[str, int], object] = {}
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        # Set when a WAL commit failed: memory is ahead of the log, so the
        # server answers no data request until a restart (fail-stop).
        self._failure: str | None = None
        self.port: int | None = None  # resolved at start (0 = ephemeral)

    def _boot(self, values: np.ndarray, stack: contextlib.ExitStack) -> None:
        snapshot, commits = None, []
        if self.config.data_dir is not None:
            self._store = DurableStore(
                self.config.data_dir,
                snapshot_wal_bytes=self.config.snapshot_wal_bytes,
                snapshot_interval_s=self.config.snapshot_interval_s,
                max_idempotency_keys=_MAX_IDEMPOTENCY_KEYS,
            ).open()
            stack.callback(self._store.close)
            snapshot, commits = self._store.load()
        if snapshot is not None:
            boot_values = snapshot.values
            self._idempotency.update(snapshot.idempotency)
        else:
            boot_values = values
        self.session = Session(
            boot_values, jobs=self.config.jobs, tune=load_profile(self.config.tuning_profile)
        )
        stack.callback(self.session.close)
        engine = self.session.engine
        if snapshot is not None:
            # Durable revision numbers continue across restarts: response
            # ``revision`` fields must match an uninterrupted run's.
            engine.revision = snapshot.revision
        if commits:
            replay_commits(engine, commits, idempotency=self._idempotency)
        self.recovery = {
            "snapshot_revision": snapshot.revision if snapshot else 0,
            "replayed_commits": len(commits),
        }
        if self._store is not None:
            # Attach only now: replayed events must not be re-logged.
            self._store.attach(engine)
            if snapshot is None and not commits:
                # First durable boot: persist the base state immediately,
                # so recovery never depends on the caller re-supplying
                # the exact boot matrix.
                self._snapshot_now()

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        self._coalescer.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop admissions, drain, snapshot, release.

        Every mutation acknowledged before the drain barrier is settled
        in the final snapshot; the WAL is left empty.  If the drain
        cannot complete (a hung engine call), shutdown proceeds without
        the snapshot — the WAL still holds everything acknowledged, so
        nothing durable is lost, only the next boot's replay is longer.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._coalescer.running:
            # Drain even without a store, so admitted requests finish
            # instead of dying with a reset.
            try:
                await asyncio.wait_for(self._coalescer.drain(), timeout=30.0)
                if self._store is not None:
                    await asyncio.wrap_future(
                        self.session.engine.submit(self._final_snapshot)
                    )
            except Exception as exc:  # noqa: BLE001 - shutdown must proceed
                print(
                    f"warning: drain snapshot skipped ({exc!r}); the WAL "
                    "covers all acknowledged mutations",
                    file=sys.stderr,
                )
        await self._coalescer.stop()
        for view in self._views.values():
            view.close()
        # Join the engine's dispatch thread before closing the WAL
        # handle: a commit still running there must not hit a closed fd.
        self.session.close()
        if self._store is not None:
            self._store.close()
            self._store = None

    async def abort(self) -> None:
        """Tear down as a crash would (tests' in-process kill -9 analog).

        No drain, no snapshot, no WAL truncation — and the lock file
        stays on disk exactly as SIGKILL would leave it (recovery
        reclaims it via the dead-pid probe).  Only the in-process
        resources (event loop task, thread pools, file handle) are
        released, since a real dead process cannot leak those.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._coalescer.stop()
        for view in self._views.values():
            view.close()
        # Join the engine thread before the WAL fd is dropped below.
        self.session.close()
        if self._store is not None:
            self._store.abandon()
            self._store = None

    def drain(self) -> None:
        """Stop admitting work; live requests finish, new ones get 503."""
        self._draining = True

    def pause(self) -> None:
        """Hold the dispatcher between batches (overload/backlog testing)."""
        self._coalescer.pause()

    def resume(self) -> None:
        self._coalescer.resume()

    # -- connection loop ------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await http.read_request(reader, self.config.max_body_bytes)
                except http.ProtocolError as exc:
                    writer.write(
                        http.render_response(
                            exc.status, {"error": str(exc)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                status, payload = await self._dispatch(request)
                writer.write(
                    http.render_response(status, payload, keep_alive=request.keep_alive)
                )
                await writer.drain()
                if not request.keep_alive:
                    return
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,  # server stopping mid-connection
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    # -- routing --------------------------------------------------------
    async def _dispatch(self, request: http.Request) -> tuple[int, dict]:
        route = (request.method, request.path)
        if request.path == "/health" and request.method == "GET":
            return 200, self._health()
        if route == ("GET", "/v1/stats"):
            return 200, self._stats()
        handlers = {
            ("POST", "/v1/topk"): self._handle_topk,
            ("POST", "/v1/rank"): self._handle_rank,
            ("POST", "/v1/representative"): self._handle_representative,
            ("POST", "/v1/insert"): self._handle_insert,
            ("POST", "/v1/delete"): self._handle_delete,
        }
        handler = handlers.get(route)
        if handler is None:
            known = {path for _method, path in handlers} | {"/health", "/v1/stats"}
            if request.path in known:
                return 405, {"error": f"wrong method for {request.path}"}
            return 404, {"error": f"unknown endpoint {request.path}"}
        if self._draining:
            return 503, {"error": "server is draining; retry against a peer"}
        if self._failure is not None:
            return 503, {"error": self._failure}
        try:
            body = request.json()
            status, payload = await handler(body)
        except http.ProtocolError as exc:
            return exc.status, {"error": str(exc)}
        except asyncio.QueueFull:
            return 429, {
                "error": "request queue is full",
                "queue_depth": self._coalescer.depth,
                "retry_after_ms": 50,
            }
        except (ValidationError, ReproError, ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}
        except ConnectionResetError:
            return 503, {"error": "server stopped while the request was queued"}
        except Exception:  # noqa: BLE001 - answer it; the connection stays usable
            _log.exception("internal error serving %s %s", request.method, request.path)
            return 500, {"error": "internal error"}
        if self._failure is not None:
            # Queued behind the failed commit: the answer may read (or a
            # write would extend) state the log does not hold.
            return 503, {"error": self._failure}
        return status, payload

    # -- endpoint bodies ------------------------------------------------
    def _health(self) -> dict:
        engine = self.session.engine
        out = {
            "status": "draining" if self._draining else "ok",
            "n": engine.n,
            "d": engine.d,
            "revision": engine.revision,
            "queue_depth": self._coalescer.depth,
            "durable": self._store is not None,
        }
        if self._failure is not None:
            out["status"], out["error"] = "failed", self._failure
        if self._store is not None:
            # Operators watch these two to see the snapshot cycle breathe:
            # bytes accumulate, a snapshot cuts, both drop to zero.
            out["durability"] = {
                "wal_bytes_since_snapshot": self._store.wal_bytes,
                "last_snapshot_age_s": self._store.last_snapshot_age_s,
            }
        return out

    def _stats(self) -> dict:
        out = {
            "engine": dict(self.session.engine.stats),
            "coalescing": self.stats(),
            "views": {
                f"{method}:{k}": dict(view.stats)
                for (method, k), view in self._views.items()
            },
        }
        if self._store is not None:
            out["durability"] = {
                **self._store.stats,
                "wal_bytes": self._store.wal_bytes,
                "wal_bytes_since_snapshot": self._store.wal_bytes,
                "last_snapshot_age_s": self._store.last_snapshot_age_s,
                "idempotency_keys": len(self._idempotency),
                "recovery": dict(self.recovery),
            }
        return out

    def stats(self) -> dict:
        return self._coalescer.stats.as_dict()

    async def _handle_topk(self, body: dict) -> tuple[int, dict]:
        weights = _parse_matrix(body, "weights", self.session.engine.d)
        k = _parse_int(body, "k", low=1)
        future = self._offer(
            WorkItem(
                kind="topk",
                payload=body,
                future=asyncio.get_running_loop().create_future(),
                key=k,
                weights=weights,
            )
        )
        order, n, revision = await future
        return 200, {"order": order.tolist(), "n": n, "revision": revision}

    async def _handle_rank(self, body: dict) -> tuple[int, dict]:
        weights = _parse_matrix(body, "weights", self.session.engine.d)
        subset = _parse_indices(body, "subset")
        item = WorkItem(
            kind="rank",
            payload={"subset": subset},
            future=asyncio.get_running_loop().create_future(),
            key=subset.tobytes(),
            weights=weights,
        )
        ranks, revision = await self._offer(item)
        return 200, {"ranks": ranks.tolist(), "revision": revision}

    async def _handle_representative(self, body: dict) -> tuple[int, dict]:
        k = _parse_int(body, "k", low=1)
        method = body.get("method", self.config.representative_method)
        if method not in ("mdrc", "mdrrr"):
            raise http.ProtocolError(
                400, f"method must be 'mdrc' or 'mdrrr', got {method!r}"
            )
        view = self._view(method, k)
        result, revision = await self._barrier(
            lambda: (view.refresh(), self.session.engine.revision)
        )
        return 200, {
            "method": method,
            "k": k,
            "indices": [int(i) for i in result.indices],
            "revision": revision,
        }

    async def _handle_insert(self, body: dict) -> tuple[int, dict]:
        rows = _parse_matrix(body, "rows", self.session.engine.d)
        engine = self.session.engine

        def apply():
            indices = engine.insert_rows(rows)
            engine.compact()  # settle now: views repair, revision bumps
            return {"indices": indices.tolist(), "revision": engine.revision}

        return await self._mutate(_parse_key(body), apply)

    async def _handle_delete(self, body: dict) -> tuple[int, dict]:
        indices = _parse_indices(body, "indices")
        engine = self.session.engine

        def apply():
            deleted = engine.delete_rows(indices)
            engine.compact()
            return {"deleted": int(deleted), "revision": engine.revision}

        return await self._mutate(_parse_key(body), apply)

    async def _mutate(self, key: str | None, apply) -> tuple[int, dict]:
        """One mutation barrier: a stored key answers from the table,
        anything else applies, commits, then acknowledges."""

        def run():
            if self._failure is not None:
                return None  # queued behind a failed commit: _dispatch answers 503
            stored = self._idempotency.get(key) if key is not None else None
            if stored is not None:
                return dict(stored)  # exactly-once: engine untouched
            response = apply()
            self._commit_mutation(key, response)
            return response

        return 200, await self._barrier(run)

    # -- durability -----------------------------------------------------
    def _commit_mutation(self, key: str | None, response: dict) -> None:
        """Make one applied mutation durable; engine dispatch thread only.

        Runs inside the mutation's barrier, after compact and before the
        response future resolves — the write-ahead discipline: the
        fsync'd record (delta events + key + response) is what makes the
        acknowledgment safe to send, so the key is stored only after it.
        A commit that raises leaves memory ahead of the log: the server
        fails stop (every later data request answers 503, ``/health``
        says why) until a restart recovers from the log; the commit is
        not retried and memory is not rolled back.  The size/age
        snapshot policy is checked here too, on the same thread, while
        the engine is settled.
        """
        if self._store is not None:
            try:
                self._store.commit(key, response if key is not None else None,
                                   self.session.engine.revision)
            except Exception as exc:
                self._failure = (
                    f"a write-ahead-log commit failed ({exc!r}); no data is "
                    "served until a restart recovers from the log"
                )
                raise
        if key is not None:
            self._idempotency[key] = response
            while len(self._idempotency) > _MAX_IDEMPOTENCY_KEYS:
                self._idempotency.pop(next(iter(self._idempotency)))
        if self._store is not None and self._store.should_snapshot():
            self._snapshot_now()

    def _snapshot_now(self) -> None:
        """Snapshot the settled engine state (engine thread / boot only)."""
        engine = self.session.engine
        self._store.snapshot(
            engine.values,
            engine.revision,
            idempotency=dict(self._idempotency),
        )

    def _final_snapshot(self) -> None:
        """The graceful-drain snapshot: only if the WAL holds anything,
        and never after a failed commit (memory is ahead of the log)."""
        if self._store is not None and self._store.wal_dirty and self._failure is None:
            self._snapshot_now()

    # -- helpers --------------------------------------------------------
    def _offer(self, item: WorkItem) -> asyncio.Future:
        return self._coalescer.offer(item)

    def _barrier(self, run) -> asyncio.Future:
        return self._offer(
            WorkItem(
                kind="barrier",
                payload={},
                future=asyncio.get_running_loop().create_future(),
                run=run,
            )
        )

    def _view(self, method: str, k: int):
        key = (method, k)
        view = self._views.get(key)
        if view is None:
            from repro.engine import MDRCView, MDRRRView

            if method == "mdrc":
                view = MDRCView(self.session.engine, k)
            else:
                view = MDRRRView(self.session.engine, k, rng=0)
            self._views[key] = view
        return view


def _parse_matrix(body: dict, name: str, d: int) -> np.ndarray:
    """A non-empty ``(m, d)`` matrix of finite JSON numbers, else a 400.

    A single row may come unnested.  Elements are type-checked before
    numpy sees them: ``np.asarray`` would cast ``"0.5"`` and ``true``
    to floats, and a bool or string beside a number would pass any
    dtype check on the result.
    """
    raw = body.get(name)
    if raw is None:
        raise http.ProtocolError(400, f"missing required field {name!r}")
    rows = raw if isinstance(raw, list) and raw and isinstance(raw[0], list) else [raw]
    if not all(
        isinstance(row, list) and all(type(x) in (float, int) for x in row)
        for row in rows
    ):
        raise http.ProtocolError(400, f"{name!r} must be a matrix of JSON numbers")
    try:
        matrix = np.array(rows, dtype=np.float64)
    except (ValueError, OverflowError):  # ragged rows; an integer past float64
        raise http.ProtocolError(400, f"{name!r} is not a numeric matrix") from None
    if matrix.shape[1] != d:
        raise http.ProtocolError(
            400, f"{name!r} must be a non-empty (m, {d}) matrix"
        )
    # ``json.loads`` accepts NaN and Infinity.  Rejected here, before the
    # coalescer, they cannot fail the requests batched with them.
    if not np.isfinite(matrix).all():
        raise http.ProtocolError(400, f"{name!r} must hold finite numbers only")
    return matrix


def _parse_indices(body: dict, name: str) -> np.ndarray:
    """A non-empty list of JSON integers inside int64, else a 400.

    Nothing is cast: ``1.5``, ``true`` and ``"3"`` would otherwise name
    rows the client never sent, and an integer past int64 would escape
    the handler as an ``OverflowError``.
    """
    raw = body.get(name)
    if raw is None:
        raise http.ProtocolError(400, f"missing required field {name!r}")
    if not isinstance(raw, list) or not all(
        type(i) is int and -(1 << 63) <= i < 1 << 63 for i in raw
    ):
        raise http.ProtocolError(400, f"{name!r} must be a list of int64 integers")
    if not raw:
        raise http.ProtocolError(400, f"{name!r} must not be empty")
    return np.array(raw, dtype=np.int64)


def _parse_int(body: dict, name: str, *, low: int) -> int:
    raw = body.get(name)
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < low:
        raise http.ProtocolError(400, f"{name!r} must be an integer >= {low}")
    return raw


def _parse_key(body: dict) -> str | None:
    raw = body.get("idempotency_key")
    if raw is None:
        return None
    if not isinstance(raw, str) or not raw or len(raw) > 256:
        raise http.ProtocolError(
            400, "'idempotency_key' must be a non-empty string of <= 256 chars"
        )
    return raw


def serve(values: np.ndarray, config: ServerConfig | None = None) -> None:
    """Run the server until SIGTERM/SIGINT (the ``repro serve`` entry).

    Both signals trigger the graceful path: admissions stop (503), the
    coalescer drains, a final snapshot is cut (when a ``data_dir`` is
    configured), and the process exits 0 — so an orchestrator's ordinary
    terminate never loses an acknowledged mutation and never pays WAL
    replay on the next boot.
    """

    async def _main() -> None:
        server = Server(values, config)
        loop = asyncio.get_running_loop()
        stop_signal = asyncio.Event()
        handled: list[int] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop_signal.set)
                handled.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix loop: KeyboardInterrupt fallback below
        await server.start()
        recovery = server.recovery
        print(
            f"repro.serve listening on http://{server.config.host}:{server.port} "
            f"(n={server.session.engine.n}, d={server.session.engine.d}, "
            f"revision={server.session.engine.revision}, "
            f"recovered_commits={recovery['replayed_commits']})",
            file=sys.stderr,
        )
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stop_signal.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if stop_signal.is_set():
                print(
                    "repro.serve: signal received — draining, snapshotting, "
                    "exiting",
                    file=sys.stderr,
                )
        finally:
            serve_task.cancel()
            stop_task.cancel()
            await asyncio.gather(serve_task, stop_task, return_exceptions=True)
            for sig in handled:
                loop.remove_signal_handler(sig)
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro.serve: interrupted, shutting down", file=sys.stderr)


class ServerThread:
    """Run a :class:`Server` on a background event loop (tests, benches,
    the example client's ``--local`` mode).

    ::

        with ServerThread(values, ServerConfig(port=0)) as url:
            client = ServiceClient(url)
    """

    def __init__(self, values: np.ndarray, config: ServerConfig | None = None) -> None:
        config = config or ServerConfig(port=0)
        self.server = Server(values, config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._aborted = False

    @property
    def url(self) -> str:
        return f"http://{self.server.config.host}:{self.server.port}"

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, name="repro-serve", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        finally:
            self._started.set()  # unblock start() even on boot failure

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._started.set()
        serve_task = asyncio.ensure_future(self.server.serve_forever())
        stop_task = asyncio.ensure_future(self._stop_event.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            serve_task.cancel()
            stop_task.cancel()
            await asyncio.gather(serve_task, stop_task, return_exceptions=True)
            if self._aborted:
                await self.server.abort()
            else:
                await self.server.stop()

    def call(self, fn, *args) -> None:
        """Run ``fn`` on the server's loop (pause/resume/drain from tests)."""
        if self._loop is None:
            raise RuntimeError("server is not running")
        self._loop.call_soon_threadsafe(fn, *args)

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=30)
        self._loop = None
        self._thread = None

    def kill(self) -> None:
        """Crash the server: no drain, no snapshot, stale lock left behind.

        The in-process analogue of ``kill -9`` for the durability tests:
        the on-disk state afterwards (untruncated WAL, lock file
        pointing at a "dead" holder) is exactly what a SIGKILLed server
        leaves, while the process-local resources a real crash cannot
        leak are still released.
        """
        self._aborted = True
        self.stop()

    def __enter__(self) -> str:
        self.start()
        return self.url

    def __exit__(self, *exc) -> None:
        self.stop()
