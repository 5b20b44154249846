"""Coalescing determinism: the exactness contract over the serving path.

The load-bearing claim of :mod:`repro.serve.coalesce`: any mix of
concurrent top-k / rank queries, coalesced into shared engine calls,
yields responses bit-identical to direct engine calls over the same
matrix at the same revision — under every backend, and with faults
firing inside the serving engine.  The fan-out tests pin
``parallel_min_work=0`` through the server's ``tuning_profile``: a
3000-row matrix under a few functions sits far below the default work
cutover, so without it the pool would never run.
"""

import asyncio
import concurrent.futures
import threading
import time

import numpy as np
import pytest

from repro.engine import FaultInjector, RetryPolicy, ScoreEngine, TuningProfile, faults
from repro.ranking.topk import top_k
from repro.serve import (
    ServerConfig,
    ServerThread,
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
)
from repro.serve.coalesce import Coalescer, WorkItem, _adjacent_groups


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(42).random((3000, 4))


@pytest.fixture
def fanout_profile(tmp_path):
    """A saved profile whose zero cutover makes every call fan out."""
    path = tmp_path / "profile.json"
    TuningProfile(parallel_min_work=0).save(path)
    return str(path)


def _storm(url, jobs, k=5, m=3, seed=0):
    """``jobs`` concurrent single-connection clients; returns results."""
    results = [None] * jobs

    def worker(i):
        with ServiceClient(url, timeout=60) as client:
            weights = np.random.default_rng(seed + i).random((m, 4))
            results[i] = (weights, client.topk(weights, k))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(jobs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_concurrent_distinct_queries_bit_identical(matrix, backend, fanout_profile):
    """Distinct concurrent queries coalesce; every response is exact."""
    jobs = 2 if backend != "serial" else None
    config = ServerConfig(
        port=0, jobs=jobs, backend=backend, tuning_profile=fanout_profile
    )
    server = ServerThread(matrix, config)
    with server as url:
        results = _storm(url, jobs=6, seed=100)
    parallel_calls = server.server.session.engine.stats["parallel_calls"]
    assert (parallel_calls > 0) == (backend != "serial")
    with ScoreEngine(matrix, float32=True) as direct:
        for weights, response in results:
            reference = direct.topk_batch(weights, 5)
            assert np.array_equal(response["members"], reference.members)
            assert np.array_equal(response["order"], reference.order)


def test_concurrent_identical_queries_bit_identical(matrix):
    """Many clients asking the same query get the same exact answer."""
    with ServerThread(matrix, ServerConfig(port=0)) as url:
        results = _storm(url, jobs=6, seed=7)  # same seed -> same weights?
        # distinct seeds per worker inside _storm; force identical:
        identical = [None] * 5
        weights = np.random.default_rng(1).random((2, 4))

        def worker(i):
            with ServiceClient(url, timeout=60) as client:
                identical[i] = client.topk(weights, 5)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    with ScoreEngine(matrix, float32=True) as direct:
        reference = direct.topk_batch(weights, 5)
        for response in identical:
            assert np.array_equal(response["members"], reference.members)
            assert np.array_equal(response["order"], reference.order)
        for w, response in results:
            ref = direct.topk_batch(w, 5)
            assert np.array_equal(response["members"], ref.members)


def test_non_finite_request_fails_alone(matrix):
    """A NaN top-k is refused at parse time: it gets its 400 while the
    dispatcher is paused, and the valid request queued before it, which
    the two would otherwise share an engine call with, still succeeds."""
    server = ServerThread(matrix, ServerConfig(port=0))
    w = np.random.default_rng(400).random((1, 4))
    answers = {}
    with server as url:
        ServiceClient(url, timeout=60).health()
        server.call(server.server.pause)
        time.sleep(0.1)

        def valid_worker():
            with ServiceClient(url, timeout=60) as client:
                answers["valid"] = client.topk(w, 5)

        thread = threading.Thread(target=valid_worker)
        thread.start()
        offered = server.server._coalescer.stats.by_kind
        deadline = time.time() + 10
        while time.time() < deadline and offered.get("topk", 0) < 1:
            time.sleep(0.02)
        with ServiceClient(url, timeout=10, max_retries=0) as client:
            with pytest.raises(ServiceError) as err:
                client.topk([[0.5, float("nan"), 0.5, 0.5]], 5)
        assert err.value.status == 400
        # The NaN request never reached the coalescer.
        assert thread.is_alive() and offered["topk"] == 1
        server.call(server.server.resume)
        thread.join()
    assert np.array_equal(answers["valid"]["order"][0], top_k(matrix, w[0], 5))


def test_backlogged_mixed_queries_coalesce_and_match(matrix):
    """A paused dispatcher accumulates a mixed backlog; on resume the
    adjacent compatible runs coalesce and every response stays exact."""
    subset = [1, 17, 123, 999]
    server = ServerThread(matrix, ServerConfig(port=0, max_pending=32))
    with server as url:
        probe = ServiceClient(url, timeout=60)
        probe.health()
        server.call(server.server.pause)
        time.sleep(0.1)
        outputs = {}

        def topk_worker(i):
            with ServiceClient(url, timeout=60) as client:
                w = np.random.default_rng(200 + i).random((2, 4))
                outputs[("topk", i)] = (w, client.topk(w, 5))

        def rank_worker(i):
            with ServiceClient(url, timeout=60) as client:
                w = np.random.default_rng(300 + i).random((2, 4))
                outputs[("rank", i)] = (w, client.rank(w, subset))

        threads = [threading.Thread(target=topk_worker, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=rank_worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        deadline = time.time() + 10
        while time.time() < deadline and server.server._coalescer.depth < 7:
            time.sleep(0.02)
        server.call(server.server.resume)
        for t in threads:
            t.join()
        stats = probe.stats()["coalescing"]
        probe.close()
    assert stats["coalesced"] >= 2, stats
    with ScoreEngine(matrix, float32=True) as direct:
        for (kind, i), (w, response) in outputs.items():
            if kind == "topk":
                ref = direct.topk_batch(w, 5)
                assert np.array_equal(response["members"], ref.members)
                assert np.array_equal(response["order"], ref.order)
            else:
                ref = direct.rank_of_best_batch(w, subset)
                assert np.array_equal(response["ranks"], ref)


def test_mutations_are_barriers_and_revisions_are_ordered(matrix):
    """A query enqueued before a mutation must not see its revision."""
    with ServerThread(matrix, ServerConfig(port=0)) as url:
        with ServiceClient(url, timeout=60) as client:
            r0 = client.topk(np.random.default_rng(0).random((1, 4)), 3)["revision"]
            ins = client.insert(np.random.default_rng(1).random((5, 4)))
            assert ins["revision"] > r0
            r1 = client.topk(np.random.default_rng(2).random((1, 4)), 3)["revision"]
            assert r1 == ins["revision"]
            dele = client.delete(ins["indices"][:2].tolist())
            assert dele["deleted"] == 2
            assert dele["revision"] > r1
            assert client.health()["n"] == matrix.shape[0] + 3


def test_topk_reply_n_is_the_row_count_at_its_revision(matrix):
    """Two top-k reads queued on either side of an insert barrier: each
    reply's ``n`` is the row count at its own revision, and the members
    rebuilt from it match a direct engine call at that revision."""
    rows = np.random.default_rng(600).random((5, 4))
    w = np.random.default_rng(601).random((2, 4))
    server = ServerThread(matrix, ServerConfig(port=0))
    out = {}
    with server as url:
        with ServiceClient(url, timeout=60) as client:
            client.health()
        server.call(server.server.pause)
        time.sleep(0.1)

        def send(name, call):
            with ServiceClient(url, timeout=60) as client:
                out[name] = call(client)

        steps = [
            ("before", lambda c: c.topk(w, 5)),
            ("insert", lambda c: c.insert(rows)),
            ("after", lambda c: c.topk(w, 5)),
        ]
        offered = server.server._coalescer.stats
        threads = []
        for count, (name, call) in enumerate(steps, start=1):
            threads.append(threading.Thread(target=send, args=(name, call)))
            threads[-1].start()
            deadline = time.time() + 10
            while time.time() < deadline and offered.requests < count:
                time.sleep(0.01)  # queue in this order: read, write, read
        assert offered.requests == 3 and "insert" not in out
        server.call(server.server.resume)
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    before, after = out["before"], out["after"]
    assert before["revision"] < out["insert"]["revision"] == after["revision"]
    assert (before["n"], after["n"]) == (3000, 3005)
    for reply, values in [(before, matrix), (after, np.vstack([matrix, rows]))]:
        with ScoreEngine(values, float32=True) as direct:
            reference = direct.topk_batch(w, 5)
        assert np.array_equal(reply["members"], reference.members)
        assert np.array_equal(reply["order"], reference.order)


def test_serving_with_fault_injection_stays_exact(matrix, fanout_profile):
    """Worker crashes inside the serving engine never corrupt a response."""
    injector = FaultInjector(seed=3, crash=0.2, max_faults=6)
    faults.install(injector)
    try:
        config = ServerConfig(
            port=0,
            jobs=2,
            backend="thread",
            tuning_profile=fanout_profile,
            policy=RetryPolicy(max_retries=3, backoff_base_s=0.0),
        )
        with ServerThread(matrix, config) as url:
            results = _storm(url, jobs=4, seed=500)
    finally:
        faults.uninstall()
    assert injector.total_injected > 0
    with ScoreEngine(matrix, float32=True) as direct:
        for weights, response in results:
            reference = direct.topk_batch(weights, 5)
            assert np.array_equal(response["members"], reference.members)
            assert np.array_equal(response["order"], reference.order)


def test_adjacent_grouping_respects_barriers_and_keys():
    loop = asyncio.new_event_loop()
    try:
        fut = loop.create_future
        t1 = WorkItem(kind="topk", payload={}, future=fut(), key=5)
        t2 = WorkItem(kind="topk", payload={}, future=fut(), key=5)
        t3 = WorkItem(kind="topk", payload={}, future=fut(), key=7)
        r1 = WorkItem(kind="rank", payload={}, future=fut(), key=b"a")
        r2 = WorkItem(kind="rank", payload={}, future=fut(), key=b"a")
        b = WorkItem(kind="barrier", payload={}, future=fut(), run=lambda: None)
        t4 = WorkItem(kind="topk", payload={}, future=fut(), key=5)
        groups = _adjacent_groups([t1, t2, t3, r1, r2, b, t4])
        assert [len(g) for g in groups] == [2, 1, 2, 1, 1]
        assert groups[0] == [t1, t2]
        assert groups[2] == [r1, r2]
        assert groups[3][0].kind == "barrier"
    finally:
        loop.close()


def test_queue_full_raises_and_counts():
    async def scenario():
        class _Engine:  # never dispatched: coalescer not started
            pass

        coalescer = Coalescer(_Engine(), max_pending=2)
        loop = asyncio.get_running_loop()
        for _ in range(2):
            coalescer.offer(
                WorkItem(kind="topk", payload={}, future=loop.create_future(), key=1)
            )
        with pytest.raises(asyncio.QueueFull):
            coalescer.offer(
                WorkItem(kind="topk", payload={}, future=loop.create_future(), key=1)
            )
        assert coalescer.stats.rejected == 1
        assert coalescer.stats.requests == 2

    asyncio.run(scenario())


def test_overload_returns_typed_429(matrix):
    server = ServerThread(matrix, ServerConfig(port=0, max_pending=2))
    with server as url:
        warm = ServiceClient(url, timeout=60)
        warm.topk(np.random.default_rng(0).random((1, 4)), 3)
        server.call(server.server.pause)
        time.sleep(0.1)
        outcomes = []

        def worker(i):
            try:
                with ServiceClient(url, timeout=60, max_retries=0) as client:
                    client.topk(np.random.default_rng(i).random((1, 4)), 3)
                outcomes.append("ok")
            except ServiceOverloadedError as exc:
                assert exc.status == 429
                assert exc.retry_after_ms > 0
                outcomes.append("429")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        deadline = time.time() + 10
        while time.time() < deadline and "429" not in outcomes:
            time.sleep(0.02)
        server.call(server.server.resume)
        for t in threads:
            t.join()
        warm.close()
    assert outcomes.count("429") >= 1
    assert outcomes.count("ok") >= 1


def _threads_of_reads(engine):
    """Record the thread every top-k and rank call runs on from now on."""
    threads = []
    for name in ("topk_orders", "rank_of_best_batch"):
        kernel = getattr(engine, name)

        def recorded(*args, kernel=kernel):
            threads.append(threading.current_thread().name)
            return kernel(*args)

        setattr(engine, name, recorded)
    return threads


def _dispatched(engine):
    """Count the calls sent to the engine's dispatch thread from now on."""
    calls = []
    submit = engine.submit

    def counted(fn, *args, inline=False, **kwargs):
        if not inline:
            calls.append(fn)
        return submit(fn, *args, inline=inline, **kwargs)

    engine.submit = counted
    return calls


def test_idle_server_answers_lone_reads_at_admission(matrix):
    """Lone small reads on an idle default server (no tuning profile),
    its first read included, never reach the engine thread; a write
    still does, and every answer equals a direct engine call at the
    revision it reports."""
    subset = [5, 77, 2048]
    rows = np.random.default_rng(700).random((3, 4))
    server = ServerThread(matrix, ServerConfig(port=0))
    replies = []
    with server as url, ServiceClient(url, timeout=60) as client:
        engine = server.server.session.engine
        calls, threads = _dispatched(engine), _threads_of_reads(engine)
        rng = np.random.default_rng(701)
        for step in range(12):
            if step == 6:
                client.insert(rows)
            w = rng.random((1 + step % 3, 4))
            reply = client.topk(w, 5) if step % 2 == 0 else client.rank(w, subset)
            replies.append((w, reply))
        stats = client.stats()["coalescing"]
        assert len(calls) == 1  # the insert barrier, nothing else
    assert threads == ["repro-serve"] * 12  # the event loop's thread
    assert stats["inline"] == 12 and stats["batches"] == 13
    assert stats["requests"] == 13 and stats["coalesced"] == 0
    for revision, values in [(0, matrix), (1, np.vstack([matrix, rows]))]:
        with ScoreEngine(values, float32=True) as direct:
            for w, reply in replies:
                if reply["revision"] != revision:
                    continue
                if "order" in reply:
                    assert reply["n"] == values.shape[0]
                    assert np.array_equal(reply["order"], direct.topk_orders(w, 5))
                else:
                    assert np.array_equal(reply["ranks"], direct.rank_of_best_batch(w, subset))
    assert [reply["revision"] for _, reply in replies] == [0] * 6 + [1] * 6


def test_read_offered_while_a_barrier_runs_waits_for_it(matrix):
    """A small read offered while a write runs on the engine thread is
    queued behind it and reports the post-write revision."""
    rows = np.random.default_rng(710).random((2, 4))
    w = np.random.default_rng(711).random((1, 4))
    release = threading.Event()
    server = ServerThread(matrix, ServerConfig(port=0))
    out = {}
    with server as url:
        engine = server.server.session.engine
        insert_rows = engine.insert_rows

        def held_insert(new_rows):
            release.wait(30)
            return insert_rows(new_rows)

        engine.insert_rows = held_insert

        def send(name, call):
            with ServiceClient(url, timeout=60) as client:
                out[name] = call(client)

        writer = threading.Thread(target=send, args=("insert", lambda c: c.insert(rows)))
        writer.start()
        coalescer = server.server._coalescer
        deadline = time.time() + 10
        while time.time() < deadline and not coalescer._busy:
            time.sleep(0.01)
        reader = threading.Thread(target=send, args=("read", lambda c: c.topk(w, 5)))
        reader.start()
        while time.time() < deadline and coalescer.depth < 1:
            time.sleep(0.01)
        time.sleep(0.2)
        assert coalescer.depth == 1 and "read" not in out
        release.set()
        for t in (writer, reader):
            t.join(timeout=60)
            assert not t.is_alive()
        stats = coalescer.stats.as_dict()
    assert out["read"]["revision"] == out["insert"]["revision"] == 1
    assert stats["inline"] == 0
    with ScoreEngine(np.vstack([matrix, rows]), float32=True) as direct:
        assert np.array_equal(out["read"]["order"], direct.topk_orders(w, 5))


def test_read_offered_as_a_paused_write_resumes_waits_for_it():
    """The dispatcher holds a dequeued write across a pause: a read
    offered in the loop tick that resumes it must run after the write."""

    class _Engine:
        n, revision = 10, 0

        def __init__(self):
            self.calls = []

        def small_call(self, m):
            return True

        def topk_orders(self, weights, k):
            self.calls.append(("read", self.revision))
            return np.zeros((weights.shape[0], k), dtype=np.int64)

        def submit(self, fn, inline=False):
            future = concurrent.futures.Future()
            future.set_result(fn())
            return future

    async def scenario():
        engine = _Engine()
        coalescer = Coalescer(engine)
        coalescer.start()
        loop = asyncio.get_running_loop()
        await asyncio.sleep(0)  # the dispatcher parks in get()
        coalescer.pause()

        def write():
            engine.calls.append(("write", engine.revision))
            engine.revision += 1

        write_item = WorkItem(
            kind="barrier", payload={}, future=loop.create_future(), run=write
        )
        coalescer.offer(write_item)
        for _ in range(3):
            await asyncio.sleep(0)  # dequeued, then held by the pause
        assert coalescer.depth == 0 and engine.calls == []
        coalescer.resume()
        read = coalescer.offer(
            WorkItem(
                kind="topk", payload={}, future=loop.create_future(), key=2,
                weights=np.ones((1, 3)),
            )
        )
        _, _, revision = await read
        await write_item.future
        await coalescer.stop()
        assert engine.calls == [("write", 0), ("read", 1)]
        assert revision == 1 and coalescer.stats.inline == 0

    asyncio.run(scenario())


def test_admission_path_keeps_error_statuses(matrix):
    """A read answered at admission maps its errors like a queued one:
    a subset index past n answers 400, an unexpected exception 500."""
    w = np.random.default_rng(720).random((1, 4))
    server = ServerThread(matrix, ServerConfig(port=0))
    calls = []

    def broken(*args):
        calls.append(args)
        raise RuntimeError("engine fault")

    with server as url, ServiceClient(url, timeout=30, max_retries=0) as client:
        with pytest.raises(ServiceError) as err:
            client.rank(w, [0, matrix.shape[0]])
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.topk(w, matrix.shape[0] + 1)
        assert err.value.status == 400
        server.server.session.engine.rank_of_best_batch = broken
        with pytest.raises(ServiceError) as err:
            client.rank(w, [0, 1])
        assert err.value.status == 500 and len(calls) == 1
        reply = client.topk(w, 5)
        stats = client.stats()["coalescing"]
    assert stats["inline"] == 4 and stats["batches"] == 4
    assert np.array_equal(reply["order"][0], top_k(matrix, w[0], 5))
