"""Durable serving: crash recovery, exactly-once mutations, shutdown.

End-to-end coverage of the WAL layer through the HTTP surface: a
durable server killed without warning (``ServerThread.kill()`` — the
in-process ``kill -9`` analogue, which leaves the untruncated WAL and a
stale lock exactly like SIGKILL) restarts into a state whose every
response is bit-identical to a server that never died; a mutation
retried with its idempotency key is applied exactly once, even when the
retry lands after the crash; SIGTERM on a real ``repro serve`` process
drains, snapshots and exits 0; the client's overload backoff honors
``retry_after_ms`` and gives up with a typed error; and a failed boot
(unrecoverable data dir) releases the lock it took.
"""

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.exceptions import CorruptStateError, DataDirLockedError
from repro.serve import (
    ServerConfig,
    ServerThread,
    ServiceClient,
    ServiceOverloadedError,
    ServiceRetryExhaustedError,
)
from repro.serve.app import Server


@pytest.fixture
def matrix():
    return np.random.default_rng(11).random((300, 3))


def _config(data_dir, **kw):
    return ServerConfig(port=0, data_dir=str(data_dir), jobs=1, **kw)


def _churn(client, rng, rounds, tag):
    for i in range(rounds):
        client.insert(rng.random((2, 3)), idempotency_key=f"{tag}-ins-{i}")
        client.delete(
            sorted(set(int(x) for x in rng.integers(0, 200, 2))),
            idempotency_key=f"{tag}-del-{i}",
        )


def test_kill_restart_bit_identical(matrix, tmp_path):
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
    oracle_thread = ServerThread(matrix, ServerConfig(port=0, jobs=1)).start()
    try:
        oracle = ServiceClient(oracle_thread.url)
        durable = ServerThread(matrix, _config(tmp_path)).start()
        client = ServiceClient(durable.url)
        _churn(client, rng_a, 3, "a")
        _churn(oracle, rng_b, 3, "a")
        pending = client.insert([[0.5, 0.25, 0.125]], idempotency_key="ambiguous")
        oracle.insert([[0.5, 0.25, 0.125]], idempotency_key="ambiguous")

        durable.kill()
        assert (tmp_path / "LOCK").exists()  # SIGKILL leaves the lock

        durable = ServerThread(matrix, _config(tmp_path)).start()
        client = ServiceClient(durable.url)
        try:
            health, oracle_health = client.health(), oracle.health()
            assert health["n"] == oracle_health["n"]
            assert health["revision"] == oracle_health["revision"]

            # The ambiguous mutation, retried with the same key after the
            # crash: the stored response comes back, nothing re-applies.
            retried = client.insert(
                [[0.5, 0.25, 0.125]], idempotency_key="ambiguous"
            )
            assert np.array_equal(retried["indices"], pending["indices"])
            assert retried["revision"] == pending["revision"]
            assert client.health()["n"] == oracle_health["n"]

            _churn(client, rng_a, 2, "b")
            _churn(oracle, rng_b, 2, "b")
            weights = np.random.default_rng(2).random((4, 3))
            got, want = client.topk(weights, 5), oracle.topk(weights, 5)
            assert np.array_equal(got["members"], want["members"])
            assert np.array_equal(got["order"], want["order"])
            assert got["revision"] == want["revision"]
            got, want = client.rank(weights, [0, 5, 9]), oracle.rank(weights, [0, 5, 9])
            assert np.array_equal(got["ranks"], want["ranks"])
            rep = client.representative(3, "mdrc")
            assert rep["indices"] == oracle.representative(3, "mdrc")["indices"]
        finally:
            durable.stop()
    finally:
        oracle_thread.stop()


def test_graceful_stop_snapshots_and_releases(matrix, tmp_path):
    durable = ServerThread(matrix, _config(tmp_path)).start()
    client = ServiceClient(durable.url)
    _churn(client, np.random.default_rng(0), 2, "x")
    revision = client.health()["revision"]
    durable.stop()

    assert not (tmp_path / "LOCK").exists()
    snapshots = [f for f in os.listdir(tmp_path) if f.startswith("snapshot-")]
    assert snapshots, "graceful stop must cut a snapshot"
    # The WAL is truncated: the next boot replays nothing.
    durable = ServerThread(matrix, _config(tmp_path)).start()
    try:
        client = ServiceClient(durable.url)
        recovery = client.stats()["durability"]["recovery"]
        assert recovery == {"snapshot_revision": revision, "replayed_commits": 0}
        assert client.health()["revision"] == revision
    finally:
        durable.stop()


def test_durable_health_reports_wal_state(matrix, tmp_path):
    with ServerThread(matrix.copy(), _config(tmp_path)) as url:
        client = ServiceClient(url)
        client.insert(np.zeros((1, 3)), idempotency_key="one")
        health = client.health()
        assert health["durable"] is True
        assert health["durability"]["wal_bytes_since_snapshot"] > 0
        assert health["durability"]["last_snapshot_age_s"] >= 0.0
        stats = client.stats()
        assert stats["durability"]["wal_bytes_since_snapshot"] > 0
        assert stats["durability"]["idempotency_keys"] == 1


def test_duplicate_key_without_data_dir(matrix):
    """Exactly-once holds in-memory too (no data_dir configured)."""
    with ServerThread(matrix, ServerConfig(port=0, jobs=1)) as url:
        client = ServiceClient(url)
        first = client.insert([[0.1, 0.2, 0.3]], idempotency_key="once")
        n_after = client.health()["n"]
        again = client.insert([[0.1, 0.2, 0.3]], idempotency_key="once")
        assert np.array_equal(first["indices"], again["indices"])
        assert client.health()["n"] == n_after


def test_second_server_on_locked_data_dir(matrix, tmp_path):
    durable = ServerThread(matrix, _config(tmp_path)).start()
    try:
        # The lock names a live pid (ours): a second server must refuse.
        with pytest.raises(DataDirLockedError):
            Server(matrix, _config(tmp_path))
    finally:
        durable.stop()


def test_failed_boot_releases_lock(matrix, tmp_path):
    """ExitStack unwind: an unrecoverable data dir (every snapshot
    corrupt, WAL not anchored at revision 1) fails boot — without
    leaving the lock or a WAL handle behind."""
    durable = ServerThread(matrix, _config(tmp_path)).start()
    ServiceClient(durable.url).insert([[0.1, 0.2, 0.3]], idempotency_key="k")
    durable.stop()
    for name in os.listdir(tmp_path):
        if name.startswith("snapshot-"):
            path = tmp_path / name
            raw = bytearray(path.read_bytes())
            raw[-1] ^= 0xFF
            path.write_bytes(bytes(raw))

    with pytest.raises(CorruptStateError):
        Server(matrix, _config(tmp_path))
    assert not (tmp_path / "LOCK").exists(), "failed boot leaked the lock"
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    # Starting over is an explicit act: after deleting the corrupt
    # snapshots (the WAL is empty — the graceful stop truncated it),
    # boot begins a fresh history from the supplied matrix.
    for name in os.listdir(tmp_path):
        if name.startswith("snapshot-"):
            os.unlink(tmp_path / name)
    server = ServerThread(matrix, _config(tmp_path)).start()
    try:
        health = ServiceClient(server.url).health()
        assert health["revision"] == 0 and health["n"] == matrix.shape[0]
    finally:
        server.stop()


def test_client_backoff_honors_hint_and_gives_up():
    client = ServiceClient("http://127.0.0.1:1", max_retries=3)
    sleeps: list[float] = []
    client._sleep = sleeps.append
    calls = {"n": 0}

    def scripted(method, path, body, headers):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise ServiceOverloadedError(429, {"retry_after_ms": 200})
        return {"ok": True}

    client._request_once = scripted
    assert client._request("GET", "/health") == {"ok": True}
    assert calls["n"] == 3
    assert len(sleeps) == 2
    assert all(s >= 0.2 for s in sleeps)  # the server hint is the floor

    calls["n"] = 0
    sleeps.clear()

    def always_full(method, path, body, headers):
        calls["n"] += 1
        raise ServiceOverloadedError(503, {})

    client._request_once = always_full
    with pytest.raises(ServiceRetryExhaustedError) as err:
        client._request("GET", "/health")
    assert calls["n"] == 4  # 1 initial + max_retries
    assert err.value.attempts == 4
    assert isinstance(err.value.last, ServiceOverloadedError)

    # max_retries=0 restores raw semantics for caller-driven backoff.
    sleeps.clear()
    raw = ServiceClient("http://127.0.0.1:1", max_retries=0)
    raw._request_once = always_full
    raw._sleep = sleeps.append
    with pytest.raises(ServiceOverloadedError):
        raw._request("GET", "/health")
    assert not sleeps


def test_backoff_delay_is_capped_exponential():
    client = ServiceClient(
        "http://127.0.0.1:1", max_retries=8, backoff_base_ms=25, backoff_cap_ms=100
    )
    overload = ServiceOverloadedError(429, {"retry_after_ms": 1})
    for attempt, ceiling in [(1, 25), (2, 50), (3, 100), (8, 100)]:
        delays = {client._backoff_ms(attempt, overload) for _ in range(32)}
        assert all(d <= ceiling * 1.5 + 1e-9 for d in delays)
        assert all(d >= ceiling * 0.5 - 1e-9 for d in delays)
        assert len(delays) > 1  # jitter actually varies


def test_sigterm_drains_snapshots_exits_zero(tmp_path):
    """A real ``repro serve`` process: SIGTERM → drain, snapshot, rc 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "dot", "--n", "200", "--d", "3",
            "--port", "0", "--jobs", "1",
            "--data-dir", str(tmp_path),
        ],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stderr.readline()
        assert "listening on http://" in line, line
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        with ServiceClient(f"http://127.0.0.1:{port}", timeout=30) as client:
            client.insert([[0.5, 0.5, 0.5]], idempotency_key="sig")
            revision = client.health()["revision"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    snapshots = [f for f in os.listdir(tmp_path) if f.startswith("snapshot-")]
    assert snapshots, "SIGTERM must leave a drain snapshot"
    assert not (tmp_path / "LOCK").exists()
    # The snapshot holds the acknowledged mutation: a fresh boot serves
    # the post-insert revision with nothing to replay.
    server = ServerThread(
        np.zeros((1, 3)),  # ignored: recovery uses the snapshot matrix
        _config(tmp_path),
    ).start()
    try:
        health = ServiceClient(server.url).health()
        assert health["revision"] == revision
        assert health["n"] == 201
    finally:
        server.stop()
