"""HTTP layer + server endpoints: parsing, routing, errors, lifecycle."""

import asyncio
import errno
import io
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.engine import DurableStore, ScoreEngine
from repro.serve import (
    ServerConfig,
    ServerThread,
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
)
from repro.serve.http import (
    ProtocolError,
    Request,
    read_request,
    read_response,
    render_request,
    render_response,
)


@pytest.fixture(scope="module")
def served():
    matrix = np.random.default_rng(11).random((800, 3))
    server = ServerThread(matrix, ServerConfig(port=0))
    server.start()
    yield matrix, server
    server.stop()


# -- request object ----------------------------------------------------


def test_request_json_rejects_non_object():
    with pytest.raises(ProtocolError) as err:
        Request(method="POST", path="/x", body=b"[1,2]").json()
    assert err.value.status == 400


def test_request_json_rejects_garbage():
    with pytest.raises(ProtocolError):
        Request(method="POST", path="/x", body=b"{nope").json()


def test_request_keep_alive_default_and_close():
    assert Request(method="GET", path="/").keep_alive
    assert not Request(
        method="GET", path="/", headers={"connection": "Close"}
    ).keep_alive


def test_render_response_roundtrip_floats():
    # JSON float serialization is shortest-round-trip: exact.
    import json

    value = 0.1 + 0.2
    raw = render_response(200, {"x": value})
    body = raw.split(b"\r\n\r\n", 1)[1]
    assert json.loads(body)["x"] == value


def test_render_request_roundtrips_through_read_request():
    body = json.dumps({"weights": [[0.1, 0.2, 0.3]], "k": 3}).encode()
    raw = render_request(
        "POST", "/v1/topk?x=1", body, {"Host": "h:1", "Content-Type": "application/json"}
    )

    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, 1 << 20), await read_request(reader, 1 << 20)

    request, after = asyncio.run(parse())
    assert (request.method, request.path, request.query) == ("POST", "/v1/topk", {"x": "1"})
    assert request.headers["host"] == "h:1"
    assert request.headers["content-length"] == str(len(body))
    assert request.body == body and request.keep_alive
    assert after is None  # exactly one request in the buffer
    empty = render_request("GET", "/health")
    assert empty.endswith(b"Content-Length: 0\r\n\r\n")


def test_render_response_roundtrips_through_read_response():
    payload = {"order": [[3, 1, 2]], "n": 803, "revision": 4, "x": 0.1 + 0.2}
    stream = io.BytesIO(
        render_response(200, payload) + render_response(429, {}, keep_alive=False)
    )
    status, headers, body = read_response(stream)
    assert status == 200 and json.loads(body) == payload
    assert headers["connection"] == "keep-alive"
    status, headers, body = read_response(stream)
    assert (status, headers["connection"], json.loads(body)) == (429, "close", {})
    with pytest.raises(ConnectionResetError):
        read_response(stream)  # EOF before a status line
    with pytest.raises(ConnectionResetError):
        read_response(io.BytesIO(render_response(200, payload)[:-3]))  # short body
    with pytest.raises(ProtocolError):
        read_response(io.BytesIO(b"garbage\r\n\r\n"))


def test_closed_connections_raise_after_the_retry_budget():
    # A listener that accepts each connection and closes it at once.  An
    # idempotent request reconnects at once, then backs off up to
    # max_retries; a non-idempotent one gives up on the first failure.
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    accepted = []
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            accepted.append(conn)  # counted before the close the client sees
            conn.close()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        url = "http://127.0.0.1:%d" % listener.getsockname()[1]
        client = ServiceClient(url, timeout=10, max_retries=2)
        sleeps = []
        client._sleep = sleeps.append
        with pytest.raises(ConnectionError):
            client.health()
        assert len(accepted) == 3 and len(sleeps) == 1
        with pytest.raises(ConnectionError):
            client._request("POST", "/v1/delete", {"indices": [1]}, idempotent=False)
        assert len(accepted) == 4 and len(sleeps) == 1
        client.close()
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def test_silent_server_raises_timeout():
    # The kernel completes each connection in the listen backlog; no
    # reply ever comes, so the read times out (after one reconnect).
    with socket.create_server(("127.0.0.1", 0)) as listener:
        url = "http://127.0.0.1:%d" % listener.getsockname()[1]
        with ServiceClient(url, timeout=0.2, max_retries=0) as client:
            with pytest.raises(TimeoutError):
                client.health()
            assert client._sock is None


def test_client_reconnects_after_a_framing_error():
    # The server answers a framing error (here an over-limit body) with
    # ``Connection: close`` and hangs up; the same client reconnects.
    matrix = np.random.default_rng(14).random((300, 3))
    with ServerThread(matrix, ServerConfig(port=0, max_body_bytes=1024)) as url:
        with ServiceClient(url, timeout=30, max_retries=0) as client:
            client.health()
            first = client._sock
            with pytest.raises(ServiceError) as err:
                client.topk(np.random.default_rng(0).random((200, 3)), 3)
            assert err.value.status == 413
            assert client._sock is None  # closed on the server's "close"
            w = np.random.default_rng(1).random((1, 3))
            assert client.topk(w, 3)["order"].shape == (1, 3)
            assert client._sock is not None and client._sock is not first


# -- endpoints ---------------------------------------------------------


def test_topk_reply_carries_order_and_n_only(served):
    # The wire reply is O(k·m): the client rebuilds ``members`` from
    # ``order`` and ``n``.
    matrix, server = served
    with ServiceClient(server.url, timeout=30) as client:
        raw = client._request("POST", "/v1/topk", {"weights": [[0.3, 0.2, 0.5]], "k": 4})
    assert set(raw) == {"order", "n", "revision"}
    assert raw["n"] == matrix.shape[0]


def test_client_members_match_topk_batch():
    # n not a multiple of 8, m > 1, and again after an insert and a delete.
    matrix = np.random.default_rng(15).random((803, 3))
    rows = np.random.default_rng(17).random((6, 3))
    weights = np.random.default_rng(16).random((3, 3))
    with ServerThread(matrix, ServerConfig(port=0)) as url:
        with ServiceClient(url, timeout=60) as client:
            replies = [client.topk(weights, 6)]
            client.insert(rows)
            replies.append(client.topk(weights, 6))
            client.delete([0, 5, 400])
            replies.append(client.topk(weights, 6))
    inserted = np.vstack([matrix, rows])
    states = [matrix, inserted, np.delete(inserted, [0, 5, 400], axis=0)]
    assert [r["n"] for r in replies] == [803, 809, 806]
    for reply, values in zip(replies, states):
        with ScoreEngine(values, float32=True) as engine:
            reference = engine.topk_batch(weights, 6)
        assert reply["members"].dtype == np.int64
        assert reply["members"].shape == reference.members.shape == (3, -(-reply["n"] // 8))
        assert np.array_equal(reply["members"], reference.members)
        assert np.array_equal(reply["order"], reference.order)


def test_topk_reply_is_small_at_100k_rows():
    matrix = np.random.default_rng(18).random((100_000, 4))
    with ServerThread(matrix, ServerConfig(port=0)) as url:
        host, port = url.split("://")[1].split(":")
        body = json.dumps({"weights": [[0.4, 0.3, 0.2, 0.1]], "k": 15}).encode()
        with socket.create_connection((host, int(port)), timeout=60) as sock:
            sock.sendall(render_request("POST", "/v1/topk", body))
            with sock.makefile("rb") as rfile:
                status, _headers, reply = read_response(rfile)
    assert status == 200 and json.loads(reply)["n"] == 100_000
    assert len(reply) < 1024, len(reply)


def test_matrices_take_json_numbers_only(served):
    # Nothing is cast: numpy would read "0.5" and true as numbers, and a
    # bool beside a float passes any dtype check on the cast result.
    _, server = served
    bad = [
        [["0.5", "0.2", "0.1"]],
        [[True, False, True]],
        [[True, 0.5, 0.25]],
        [[0.1, 0.2, "0.3"]],
        [0.1, None, 0.3],
        [[0.1, 0.2, 0.3], [0.1, 0.2]],
        [[0.1, 0.2, 10**400]],
        [[[0.1, 0.2, 0.3]]],
    ]
    with ServiceClient(server.url, timeout=30, max_retries=0) as client:
        revision = client.health()["revision"]
        for matrix in bad:
            for path, payload in [
                ("/v1/topk", {"weights": matrix, "k": 3}),
                ("/v1/rank", {"weights": matrix, "subset": [0, 5]}),
                ("/v1/insert", {"rows": matrix}),
            ]:
                with pytest.raises(ServiceError) as err:
                    client._request("POST", path, payload)
                assert err.value.status == 400, (path, matrix)
        assert client.health()["revision"] == revision
        # Integers and one unnested row are still numbers.
        assert client._request("POST", "/v1/topk", {"weights": [1, 0, 2], "k": 3})["order"]


def test_health_and_stats(served):
    matrix, server = served
    with ServiceClient(server.url, timeout=30) as client:
        health = client.health()
        assert health["status"] == "ok"
        assert health["d"] == 3
        stats = client.stats()
        assert "engine" in stats and "coalescing" in stats


def test_unknown_endpoint_404(served):
    _, server = served
    with ServiceClient(server.url, timeout=30) as client:
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404


def test_wrong_method_405(served):
    _, server = served
    with ServiceClient(server.url, timeout=30) as client:
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/topk")
        assert err.value.status == 405


def test_missing_fields_400(served):
    _, server = served
    with ServiceClient(server.url, timeout=30) as client:
        for path, payload in [
            ("/v1/topk", {"k": 3}),
            ("/v1/topk", {"weights": [[0.1, 0.2, 0.3]]}),
            ("/v1/rank", {"weights": [[0.1, 0.2, 0.3]]}),
            ("/v1/insert", {}),
            ("/v1/delete", {"indices": []}),
        ]:
            with pytest.raises(ServiceError) as err:
                client._request("POST", path, payload)
            assert err.value.status == 400, (path, payload)


def test_index_lists_take_json_integers_only(served):
    # Nothing is cast: a float, bool or string names rows the client
    # never sent, and an integer past int64 used to drop the connection.
    _, server = served
    weights = [[0.1, 0.2, 0.3]]
    with ServiceClient(server.url, timeout=30, max_retries=0) as client:
        revision = client.health()["revision"]
        for path, payload in [
            ("/v1/delete", {"indices": [1.5]}),
            ("/v1/delete", {"indices": [True]}),
            ("/v1/delete", {"indices": ["3"]}),
            ("/v1/delete", {"indices": [2**70]}),
            ("/v1/delete", {"indices": [[1, 2]]}),
            ("/v1/rank", {"weights": weights, "subset": [True, False, True]}),
            ("/v1/rank", {"weights": weights, "subset": ["3"]}),
            ("/v1/rank", {"weights": weights, "subset": [0.9, 5.5]}),
            ("/v1/rank", {"weights": weights, "subset": [2**70]}),
        ]:
            with pytest.raises(ServiceError) as err:
                client._request("POST", path, payload)
            assert err.value.status == 400, (path, payload)
        assert client.health()["revision"] == revision


def test_non_finite_weights_400(served):
    # ``json.loads`` accepts NaN and Infinity; the server refuses them
    # before the coalescer, as it refuses any malformed matrix.
    _, server = served
    with ServiceClient(server.url, timeout=30, max_retries=0) as client:
        revision = client.health()["revision"]
        for bad in (float("nan"), float("inf"), float("-inf")):
            weights = [[0.2, bad, 0.3]]
            for path, payload in [
                ("/v1/topk", {"weights": weights, "k": 3}),
                ("/v1/rank", {"weights": weights, "subset": [0, 5]}),
            ]:
                with pytest.raises(ServiceError) as err:
                    client._request("POST", path, payload)
                assert err.value.status == 400, (path, bad)
        assert client.health()["revision"] == revision


def test_dimension_mismatch_400(served):
    _, server = served
    with ServiceClient(server.url, timeout=30) as client:
        with pytest.raises(ServiceError) as err:
            client.topk([[0.5, 0.5]], 3)  # d=2 against a d=3 dataset
        assert err.value.status == 400


def test_bad_k_400(served):
    _, server = served
    with ServiceClient(server.url, timeout=30) as client:
        for bad_k in (0, -1, "five", True):
            with pytest.raises(ServiceError) as err:
                client._request(
                    "POST", "/v1/topk", {"weights": [[0.1, 0.2, 0.3]], "k": bad_k}
                )
            assert err.value.status == 400, bad_k


def test_representative_endpoint_matches_direct_mdrc(served):
    matrix, server = served
    from repro.core.mdrc import mdrc

    with ServiceClient(server.url, timeout=120) as client:
        response = client.representative(5, method="mdrc")
    direct = mdrc(matrix, 5)
    assert response["indices"] == [int(i) for i in direct.indices]
    assert response["method"] == "mdrc"


def test_representative_rejects_unknown_method(served):
    _, server = served
    with ServiceClient(server.url, timeout=30) as client:
        with pytest.raises(ServiceError) as err:
            client.representative(5, method="2drrr")
        assert err.value.status == 400


def test_mutations_update_views_and_queries():
    matrix = np.random.default_rng(5).random((600, 3))
    from repro.core.mdrc import mdrc
    from repro.engine import DurableStore, ScoreEngine

    with ServerThread(matrix, ServerConfig(port=0)) as url:
        with ServiceClient(url, timeout=120) as client:
            before = client.representative(4)
            rows = np.random.default_rng(6).random((6, 3))
            inserted = client.insert(rows)
            assert inserted["indices"].tolist() == list(range(600, 606))
            client.delete([0, 1])
            after = client.representative(4)
            assert after["revision"] > before["revision"]
            health = client.health()
            assert health["n"] == 604
            # Served representative == fresh mdrc over the mutated matrix.
            mutated = np.vstack([matrix, rows])[2:]
            direct = mdrc(mutated, 4)
            assert after["indices"] == [int(i) for i in direct.indices]
            # Served top-k == direct engine over the mutated matrix.
            weights = np.random.default_rng(7).random((4, 3))
            served = client.topk(weights, 5)
            with ScoreEngine(mutated, float32=True) as engine:
                reference = engine.topk_batch(weights, 5)
            assert np.array_equal(served["members"], reference.members)
            assert np.array_equal(served["order"], reference.order)


def test_rank_endpoint_matches_direct(served):
    matrix, server = served
    from repro.engine import DurableStore, ScoreEngine

    weights = np.random.default_rng(8).random((6, 3))
    subset = [3, 44, 199]
    with ServiceClient(server.url, timeout=30) as client:
        served_ranks = client.rank(weights, subset)["ranks"]
    with ScoreEngine(matrix, float32=True) as engine:
        reference = engine.rank_of_best_batch(weights, subset)
    assert np.array_equal(served_ranks, reference)


def test_unexpected_error_answers_500(caplog):
    # An exception no handler maps answers 500 on a connection that stays
    # open, instead of dropping it and being resent by the client.
    matrix = np.random.default_rng(20).random((300, 3))
    weights = np.random.default_rng(21).random((1, 3))
    server = ServerThread(matrix, ServerConfig(port=0))
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("engine fault")

    with server as url, ServiceClient(url, timeout=30, max_retries=2) as client:
        server.server.session.engine.rank_of_best_batch = broken
        with pytest.raises(ServiceError) as err:
            client.rank(weights, [0, 1])
        assert err.value.status == 500
        assert err.value.payload == {"error": "internal error"}
        assert len(calls) == 1
        assert client._sock is not None  # kept alive
        reply = client.topk(weights, 4)
    with ScoreEngine(matrix, float32=True) as engine:
        assert np.array_equal(reply["order"], engine.topk_batch(weights, 4).order)
    logged = [r for r in caplog.records if r.name == "repro.serve" and r.exc_info]
    assert logged and "engine fault" in str(logged[0].exc_info[1])


def test_failed_commit_is_not_acknowledged(tmp_path, monkeypatch):
    # A WAL commit that raises leaves memory ahead of the log: the write
    # answers 500, its keyed retry is not acknowledged, and a restart
    # recovers the pre-write state, where the retry applies exactly once.
    matrix = np.random.default_rng(30).random((300, 3))
    rows = np.random.default_rng(31).random((2, 3))
    config = ServerConfig(port=0, jobs=1, data_dir=str(tmp_path))
    commit, failed = DurableStore.commit, []

    def full_disk(self, *args):
        if not failed:
            failed.append(args)
            raise OSError(errno.ENOSPC, "No space left on device")
        return commit(self, *args)

    monkeypatch.setattr(DurableStore, "commit", full_disk)
    server = ServerThread(matrix, config)
    with server as url, ServiceClient(url, timeout=30, max_retries=0) as client:
        with pytest.raises(ServiceError) as err:
            client.insert(rows, idempotency_key="once")
        assert err.value.status == 500
        with pytest.raises(ServiceError) as err:
            client.insert(rows, idempotency_key="once")
        assert err.value.status == 503
        with pytest.raises(ServiceError) as err:
            client.topk(rows[:1], 3)
        assert err.value.status == 503 and "commit failed" in err.value.payload["error"]
        health = client.health()
        assert health["status"] == "failed" and health["n"] == 302
    with ServerThread(matrix, config) as url:
        with ServiceClient(url, timeout=30, max_retries=0) as client:
            assert client.health()["n"] == 300
            first = client.insert(rows, idempotency_key="once")
            again = client.insert(rows, idempotency_key="once")
            assert first["indices"].tolist() == again["indices"].tolist() == [300, 301]
            assert first["revision"] == again["revision"] == 1
            assert client.health()["n"] == 302


def test_draining_returns_503():
    matrix = np.random.default_rng(9).random((300, 3))
    server = ServerThread(matrix, ServerConfig(port=0))
    with server as url:
        client = ServiceClient(url, timeout=30, max_retries=0)
        client.health()
        server.call(server.server.drain)
        time.sleep(0.1)
        assert client.health()["status"] == "draining"
        with pytest.raises(ServiceOverloadedError) as err:
            client.topk(np.random.default_rng(0).random((1, 3)), 3)
        assert err.value.status == 503
        client.close()


def test_payload_too_large_413():
    matrix = np.random.default_rng(10).random((300, 3))
    with ServerThread(matrix, ServerConfig(port=0, max_body_bytes=1024)) as url:
        with ServiceClient(url, timeout=30) as client:
            with pytest.raises(ServiceError) as err:
                client.topk(np.random.default_rng(0).random((200, 3)), 3)
            assert err.value.status == 413


def test_malformed_http_gets_400():
    import socket

    matrix = np.random.default_rng(12).random((300, 3))
    with ServerThread(matrix, ServerConfig(port=0)) as url:
        host, port = url.split("://")[1].split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b"NOT-HTTP\r\n\r\n")
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]


def test_server_thread_context_manager_cleans_up():
    matrix = np.random.default_rng(13).random((300, 3))
    server = ServerThread(matrix, ServerConfig(port=0))
    with server as url:
        with ServiceClient(url, timeout=30) as client:
            client.health()
    # After stop, the port is closed: a new connection must fail.
    import socket

    host, port = url.split("://")[1].split(":")
    with pytest.raises(OSError):
        socket.create_connection((host, int(port)), timeout=2).close()


def test_cli_serve_parser_wiring():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--dataset", "dot", "--n", "500", "--port", "0", "--max-pending", "9"]
    )
    assert args.command == "serve"
    assert args.max_pending == 9
    assert args.port == 0
