"""Streaming service demo: a thin client of the real ``repro.serve``.

Earlier revisions of this example hand-rolled the serving loop — engine
lifecycle, churn absorption, view refreshes — in ~200 lines of bespoke
plumbing.  All of that now lives in the service itself
(:mod:`repro.serve`, ``repro serve`` on the command line): one
long-lived engine, request coalescing, journaled mutations feeding the
maintained views and admission control.  What remains here is what a
*user* of that service writes: an HTTP client.

The demo spins up a local server in-process (or targets ``--url``),
then exercises the full serving surface:

1. **Coalesced queries.**  Concurrent top-k requests from client
   threads land in one ``topk_orders`` engine call; every response is
   checked bit-identical to a direct :class:`ScoreEngine` call over the
   same matrix — the exactness contract, extended over HTTP.  An idle
   server answers a lone small read as it arrives, on its event loop,
   so the local demo holds the dispatcher until the whole storm is
   queued; a few lone reads then show the ``inline`` counter.
2. **Churn.**  Each tick inserts and deletes ~1% of rows through the
   mutation endpoints (the delta journal), then re-queries and fetches
   the maintained representative — the view repairs incrementally
   server-side, and each tick checks it against a fresh ``mdrc`` over
   the mirrored matrix.
3. **Overload.**  A request burst against a paused dispatcher shows
   typed 429 admission control.
4. **Durability.**  With ``--durability`` a second server boots on a
   ``data_dir``, acknowledges a keyed mutation, dies without warning
   (the in-process ``kill -9``), restarts from its write-ahead log, and
   answers the retried mutation from the stored response — exactly
   once, bit-identical after the crash.

Run:  python examples/streaming_service.py
      python examples/streaming_service.py --smoke   # bounded CI run
      python examples/streaming_service.py --smoke --durability
      python examples/streaming_service.py --url http://127.0.0.1:8472
"""

import argparse
import tempfile
import threading
import time

import numpy as np

from repro import mdrc, synthetic_dot
from repro.engine import ScoreEngine
from repro.serve import (
    ServerConfig,
    ServerThread,
    ServiceClient,
    ServiceOverloadedError,
)


def check_bit_identity(client, reference: ScoreEngine, weights, k: int) -> None:
    """One served response must equal a direct engine call exactly."""
    served = client.topk(weights, k)
    direct = reference.topk_batch(weights, k)
    assert np.array_equal(served["members"], direct.members), "members diverged"
    assert np.array_equal(served["order"], direct.order), "order diverged"


def query_storm(url: str, k: int, d: int, threads: int, seed: int, local=None):
    """Concurrent clients; returns [(weights, response), ...].

    With a ``local`` server the dispatcher is paused until every request
    is queued, so the storm coalesces instead of being answered one read
    at a time as each arrives.
    """
    results = [None] * threads

    def worker(i):
        with ServiceClient(url, timeout=60) as client:
            weights = np.random.default_rng(seed + i).random((4, d))
            results[i] = (weights, client.topk(weights, k))

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    if local is not None:
        local.call(local.server.pause)
        time.sleep(0.1)
        queued = local.server.stats()["requests"] + threads
    for t in pool:
        t.start()
    if local is not None:
        deadline = time.time() + 30
        while time.time() < deadline and local.server.stats()["requests"] < queued:
            time.sleep(0.02)
        local.call(local.server.resume)
    for t in pool:
        t.join()
    return results


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="bounded CI run: small matrix, 2 ticks, smaller storm",
    )
    parser.add_argument(
        "--url", default=None,
        help="target an already-running repro serve (default: start one "
        "in-process)",
    )
    parser.add_argument(
        "--durability", action="store_true",
        help="run the crash-recovery drill: kill a durable server "
        "without warning, restart it from its WAL, retry the in-flight "
        "keyed mutation (applied exactly once)",
    )
    args = parser.parse_args(argv)
    if args.durability and args.url is not None:
        raise SystemExit("--durability needs the in-process server (no --url)")
    n = 4_000 if args.smoke else 20_000
    ticks = 2 if args.smoke else 5
    storm = 6 if args.smoke else 16
    d, k, seed = 4, 10, 7

    data = synthetic_dot(n=n, d=d, seed=seed)
    rng = np.random.default_rng(seed)

    local = None
    if args.url is None:
        config = ServerConfig(port=0, jobs=2, max_pending=8 if args.smoke else 32)
        local = ServerThread(data.values, config).start()
        url = local.url
        print(f"started local server at {url}")
    else:
        url = args.url
        print(f"targeting external server at {url}")

    client = ServiceClient(url, timeout=120)
    try:
        health = client.health()
        print(f"health: n={health['n']} d={health['d']} rev={health['revision']}")

        # The client-side oracle mirrors the server's matrix so every
        # response can be checked bit-identical to a direct engine call.
        reference = ScoreEngine(data.values)

        print(f"\n[1] coalescing: {storm} concurrent top-{k} clients")
        stormed = query_storm(url, k, d, threads=storm, seed=100, local=local)
        for weights, response in stormed:
            direct = reference.topk_batch(weights, k)
            assert np.array_equal(response["members"], direct.members)
            assert np.array_equal(response["order"], direct.order)
        stats = client.stats()["coalescing"]
        print(
            f"    {stats['requests']} requests -> {stats['batches']} engine "
            f"batches ({stats['coalesced']} coalesced); all bit-identical"
        )
        lone = 4
        for _ in range(lone):
            check_bit_identity(client, reference, rng.random((1, d)), k)
        inline = client.stats()["coalescing"]["inline"]
        print(f"    {lone} lone reads; {inline} reads answered at admission so far")
        if local is not None:
            assert stats["coalesced"] >= 2, "the storm never coalesced"
            # An idle server answers a lone one-function read at admission.
            assert inline > 0, "no lone read was answered at admission"

        print(f"\n[2] churn: {ticks} ticks of ~1% insert+delete")
        matrix = data.values.copy()
        for tick in range(ticks):
            m = max(1, matrix.shape[0] // 100)
            fresh = rng.random((m, d))
            inserted = client.insert(fresh)
            doomed = rng.choice(matrix.shape[0], size=m, replace=False)
            client.delete(doomed.tolist())
            # Mirror the mutations into the client-side oracle.  The
            # engine compacts deletes against the *post-insert* matrix.
            matrix = np.vstack([matrix, fresh])
            keep = np.ones(matrix.shape[0], dtype=bool)
            keep[doomed] = False
            matrix = matrix[keep]
            reference.close()
            reference = ScoreEngine(matrix)
            check_bit_identity(client, reference, rng.random((3, d)), k)
            rep = client.representative(k)
            # The maintained view shares mdrc's defaults (max_depth 48,
            # max_cells 10,000, "first"), so it must equal a fresh run.
            expected = mdrc(matrix, k).indices
            assert rep["indices"] == expected, "representative diverged from mdrc"
            print(
                f"    tick {tick}: +{m}/-{m} rows -> rev {rep['revision']}, "
                f"|representative| = {len(rep['indices'])} (= fresh mdrc) "
                f"(inserted at {inserted['indices'][0]}..)"
            )

        if local is not None:
            print("\n[3] overload: burst against a paused dispatcher")
            local.call(local.server.pause)
            time.sleep(0.2)
            total = local.server.config.max_pending + 8
            outcomes: list[str] = []
            burst_weights = [rng.random((1, d)) for _ in range(total)]

            def burst_worker(i):
                try:
                    with ServiceClient(url, timeout=60, max_retries=0) as one:
                        one.topk(burst_weights[i], k)
                    outcomes.append("ok")
                except ServiceOverloadedError as exc:
                    assert exc.status == 429
                    outcomes.append("429")

            pool = [
                threading.Thread(target=burst_worker, args=(i,)) for i in range(total)
            ]
            for t in pool:
                t.start()
            deadline = time.time() + 30
            while time.time() < deadline and "429" not in outcomes:
                time.sleep(0.05)
            local.call(local.server.resume)
            for t in pool:
                t.join()
            rejected = outcomes.count("429")
            assert rejected > 0, "burst never hit admission control"
            print(
                f"    {total} bursted: {outcomes.count('ok')} served after "
                f"resume, {rejected} answered 429 (typed, with retry hint)"
            )

        if args.durability:
            print("\n[4] durability: kill -9 a durable server, restart, same answers")
            with tempfile.TemporaryDirectory() as data_dir:
                dconfig = ServerConfig(port=0, jobs=1, data_dir=data_dir)
                durable = ServerThread(matrix, dconfig).start()
                dclient = ServiceClient(durable.url, timeout=60)
                fresh = rng.random((2, d))
                acked = dclient.insert(fresh, idempotency_key="demo-ambiguous")
                durable.kill()  # no drain, no snapshot: SIGKILL semantics

                durable = ServerThread(matrix, dconfig).start()
                dclient = ServiceClient(durable.url, timeout=60)
                try:
                    # The ambiguous retry: same key, stored response,
                    # nothing re-applied.
                    retried = dclient.insert(fresh, idempotency_key="demo-ambiguous")
                    assert np.array_equal(retried["indices"], acked["indices"])
                    assert retried["revision"] == acked["revision"]
                    oracle = ScoreEngine(np.vstack([matrix, fresh]))
                    check_bit_identity(dclient, oracle, rng.random((3, d)), k)
                    oracle.close()
                    recovered = dclient.stats()["durability"]["recovery"]
                    print(
                        f"    restarted from the WAL "
                        f"({recovered['replayed_commits']} commits replayed); "
                        "keyed retry applied exactly once; responses "
                        "bit-identical after the crash"
                    )
                finally:
                    dclient.close()
                    durable.stop()

        check_bit_identity(client, reference, rng.random((5, d)), k)
        final = client.health()
        print(
            f"\nfinal: n={final['n']} rev={final['revision']} — every served "
            f"response bit-identical to a direct engine call"
        )
        reference.close()
    finally:
        client.close()
        if local is not None:
            local.stop()
    print("OK")


if __name__ == "__main__":
    main()
