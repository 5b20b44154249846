"""``repro.serve`` — the asyncio serving front-end.

One long-lived :class:`repro.Session` (engine + maintained
representative views) behind an HTTP interface with request coalescing:
concurrent top-k / rank queries are stacked into single
``topk_orders`` / ``rank_of_best_batch`` engine calls and de-interleaved
per requester, bit-identical to direct engine calls (the exactness
contract extends to the serving path).  A top-k reply carries ``order``
and the row count ``n`` at its revision; :class:`ServiceClient` rebuilds
the packed ``members`` bitset from them, so the wire carries the answer
and not an ``n``-bit set per function.  Mutations feed the delta
journal and act as ordering barriers; admission control is a bounded
queue with typed 429/503 overload responses.

Pieces:

* :class:`Server` / :class:`ServerConfig` — the asyncio server
  (:mod:`repro.serve.app`); ``repro serve`` on the command line.
* :class:`ServerThread` — the same server on a background event loop,
  for tests, benches and in-process demos.
* :class:`ServiceClient` — blocking socket client used by the example,
  the CI smoke and the ``serving_load`` perf-gate op; retries overload
  with capped jittered backoff and ambiguous transport failures with
  idempotency keys (exactly-once against a durable server).
* :mod:`repro.serve.coalesce` — the queue + dispatcher; see its
  docstring for the determinism argument.
* :mod:`repro.serve.http` — the minimal HTTP/1.1 framing (stdlib only),
  server and client halves.

With ``ServerConfig(data_dir=...)`` (CLI: ``repro serve --data-dir``)
the server is durable: every acknowledged mutation is in a fsync'd
write-ahead log before its response is sent, snapshots are cut on a
size/age policy and on graceful drain, and a restart — even after
SIGKILL — recovers a bit-identical serving state
(:mod:`repro.engine.wal`).
"""

from repro.serve.app import Server, ServerConfig, ServerThread, serve
from repro.serve.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
    ServiceRetryExhaustedError,
)

__all__ = [
    "Server",
    "ServerConfig",
    "ServerThread",
    "serve",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceRetryExhaustedError",
]
