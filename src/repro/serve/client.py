"""Blocking HTTP client for a :mod:`repro.serve` server.

Stdlib-only, one keep-alive socket per instance — the shape every
consumer in this repo needs (the example client, the CI smoke, the
``serving_load`` bench op and the serving test-suite).  Framing is
:mod:`repro.serve.http`'s: each request leaves in one ``sendall``
(``TCP_NODELAY`` set), and a reply is parsed from its status line and
``Content-Length``.  The socket connects lazily and reconnects after
the server closes it (a ``Connection: close`` reply, a reset).
Responses come back as numpy arrays so bit-identity against direct
engine calls can be asserted with ``array_equal``.

Retry policy (all stdlib, no caller-side loops needed):

* **Overload** (429 queue-full / 503 draining) backs off with capped
  exponential delay plus jitter, honoring the server's
  ``retry_after_ms`` hint as the floor; after ``max_retries`` attempts
  it gives up with a typed :class:`ServiceRetryExhaustedError`.
  ``max_retries=0`` restores the raw behavior — the first 429/503
  raises :class:`ServiceOverloadedError` immediately — for callers that
  drive their own backoff (the overload tests do).
* **Ambiguous transport failures** (connection reset mid-request, a
  died-and-restarted server) retry only requests that are safe to
  repeat: reads always, mutations only when they carry an idempotency
  key.  :meth:`insert` / :meth:`delete` generate a key automatically
  (``uuid4``) unless given one, so by default every mutation is
  exactly-once end to end — the durable server replays the stored
  response instead of re-applying, even across a crash and restart.
"""

from __future__ import annotations

import json
import random
import socket
import time
import uuid

import numpy as np

from repro.engine.bitset import pack_membership
from repro.serve import http

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceRetryExhaustedError",
]


class ServiceError(Exception):
    """Non-2xx response from the server."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServiceOverloadedError(ServiceError):
    """429 (queue full) or 503 (draining) — retry later, elsewhere."""

    @property
    def retry_after_ms(self) -> int:
        return int(self.payload.get("retry_after_ms", 50))


class ServiceRetryExhaustedError(ServiceError):
    """The retry budget ran out; ``last`` holds the final failure."""

    def __init__(self, attempts: int, last: Exception) -> None:
        status = getattr(last, "status", 0)
        payload = getattr(last, "payload", {"error": str(last)})
        Exception.__init__(
            self, f"gave up after {attempts} attempts: {last}"
        )
        self.status = status
        self.payload = payload
        self.attempts = attempts
        self.last = last


class ServiceClient:
    """One keep-alive connection to a serving front-end.

    ::

        client = ServiceClient("http://127.0.0.1:8472")
        batch = client.topk(weights, k=10)  # {"order", "n", "revision", "members"}
    """

    def __init__(
        self,
        url: str,
        timeout: float = 60.0,
        *,
        max_retries: int = 4,
        backoff_base_ms: float = 25.0,
        backoff_cap_ms: float = 1000.0,
    ) -> None:
        if "://" in url:
            url = url.split("://", 1)[1]
        host, _, port = url.strip("/").partition(":")
        self._address = (host, int(port or 80))
        self._timeout = timeout
        self._sock: socket.socket | None = None
        self._rfile = None
        self._max_retries = int(max_retries)
        self._backoff_base_ms = float(backoff_base_ms)
        self._backoff_cap_ms = float(backoff_cap_ms)
        self._rng = random.Random()
        self._sleep = time.sleep  # overridable in tests

    # -- transport ------------------------------------------------------
    def _request(
        self, method: str, path: str, payload: dict | None = None, *,
        idempotent: bool = True,
    ) -> dict:
        body = b""
        headers = {"Host": "{}:{}".format(*self._address)}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        overload_attempts = 0
        conn_failures = 0
        while True:
            try:
                return self._request_once(method, path, body, headers)
            except ServiceOverloadedError as exc:
                overload_attempts += 1
                if overload_attempts > self._max_retries:
                    if self._max_retries == 0:
                        raise  # raw semantics for caller-driven backoff
                    raise ServiceRetryExhaustedError(overload_attempts, exc) from exc
                self._sleep(self._backoff_ms(overload_attempts, exc) / 1000.0)
            except (ConnectionError, TimeoutError):
                # The server closed the keep-alive connection — routine
                # after an error response, ambiguous mid-request.
                # ``_request_once`` has already dropped the socket.
                conn_failures += 1
                if conn_failures == 1 and idempotent:
                    continue  # immediate reconnect, as before
                if not idempotent or conn_failures > self._max_retries:
                    # Repeating a non-idempotent request could apply the
                    # mutation twice; surface the ambiguity instead.
                    raise
                self._sleep(self._backoff_ms(conn_failures, None) / 1000.0)

    def _request_once(self, method: str, path: str, body: bytes, headers) -> dict:
        if self._sock is None:
            self._connect()
        try:
            self._sock.sendall(http.render_request(method, path, body, headers))
            status, reply_headers, data = http.read_response(self._rfile)
        except BaseException:
            self.close()  # mid-exchange: the stream's position is unknown
            raise
        if reply_headers.get("connection", "").lower() == "close":
            self.close()
        decoded = json.loads(data) if data else {}
        if status in (429, 503):
            raise ServiceOverloadedError(status, decoded)
        if not 200 <= status < 300:
            raise ServiceError(status, decoded)
        return decoded

    def _connect(self) -> None:
        sock = socket.create_connection(self._address, self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._rfile = sock, sock.makefile("rb")

    def _backoff_ms(self, attempt: int, exc: ServiceOverloadedError | None) -> float:
        """Capped exponential with jitter, floored at the server's hint."""
        delay = min(self._backoff_cap_ms, self._backoff_base_ms * 2 ** (attempt - 1))
        delay *= self._rng.uniform(0.5, 1.5)
        if exc is not None:
            delay = max(delay, float(exc.retry_after_ms))
        return delay

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- endpoints ------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/health")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def topk(self, weights, k: int) -> dict:
        """Batched top-k; ``order`` and ``members`` come back as int64 arrays.

        The reply carries ``order`` and the row count ``n`` at its
        revision; ``members`` is rebuilt here with the packing
        :meth:`~repro.engine.ScoreEngine.topk_batch` itself applies.
        """
        out = self._request(
            "POST", "/v1/topk", {"weights": np.asarray(weights).tolist(), "k": int(k)}
        )
        out["order"] = np.asarray(out["order"], dtype=np.int64)
        out["members"] = pack_membership(out["order"], out["n"]).astype(np.int64)
        return out

    def rank(self, weights, subset) -> dict:
        out = self._request(
            "POST",
            "/v1/rank",
            {
                "weights": np.asarray(weights).tolist(),
                "subset": [int(i) for i in subset],
            },
        )
        out["ranks"] = np.asarray(out["ranks"], dtype=np.int64)
        return out

    def representative(self, k: int, method: str | None = None) -> dict:
        payload: dict = {"k": int(k)}
        if method is not None:
            payload["method"] = method
        return self._request("POST", "/v1/representative", payload)

    def insert(self, rows, *, idempotency_key: str | None = None) -> dict:
        """Insert rows, exactly once: a key is generated when not given,
        so a retried/reconnected request can never double-apply against
        a durable server."""
        key = idempotency_key or uuid.uuid4().hex
        out = self._request(
            "POST",
            "/v1/insert",
            {"rows": np.asarray(rows).tolist(), "idempotency_key": key},
        )
        out["indices"] = np.asarray(out["indices"], dtype=np.int64)
        return out

    def delete(self, indices, *, idempotency_key: str | None = None) -> dict:
        key = idempotency_key or uuid.uuid4().hex
        return self._request(
            "POST",
            "/v1/delete",
            {"indices": [int(i) for i in indices], "idempotency_key": key},
        )
