"""Load from the benchmark process: at most two threads, two connections.

Open loop: requests are due on a fixed schedule whatever the server
does; each one is timed from its due time, so a stall also charges the
requests it delayed, and the generator's own lateness (send time minus
due time) is recorded beside it.  Closed loop: each client sends its
next read when the previous one is answered, and a read is timed from
send to reply.  (The closed-loop writer of ``serve_churn`` lives with
that workload.)

Every request goes through ``ServiceClient(max_retries=0)``: a 429 or
503 surfaces as a failed request instead of hidden backoff.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from common import K


@dataclass
class Read:
    """One open-loop read and what came back."""

    kind: str  # "topk" | "rank"
    weights: np.ndarray
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    revision: int = -1
    answer: tuple = field(default=(), repr=False)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def make_reads(rng: np.random.Generator, count: int, d: int) -> list[Read]:
    """Fresh weights per request, half top-k and half rank, interleaved."""
    weights = rng.random((count, d))
    return [Read("topk" if (j // 2) % 2 == 0 else "rank", weights[j]) for j in range(count)]


def send_read(client, read: Read, subset) -> None:
    try:
        if read.kind == "topk":
            out = client.topk(read.weights[None, :], K)
            read.answer = (out["order"], out["members"])
        else:
            out = client.rank(read.weights[None, :], subset)
            read.answer = (out["ranks"],)
        read.revision = int(out["revision"])
        read.ok = True
    except Exception as exc:  # noqa: BLE001 - a failed request is a counted outcome
        read.answer = (repr(exc),)
        read.ok = False


def _run_schedule(client, reads: list[Read], subset) -> None:
    for read in reads:
        pause = read.due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        read.sent = time.perf_counter()
        send_read(client, read, subset)
        read.done = time.perf_counter()


def open_loop(clients, reads: list[Read], rate: float, subset, start: float | None = None) -> None:
    """Send ``reads`` at ``rate`` per second, alternating over ``clients``.

    With two clients the second runs on one extra thread; each client
    keeps its own keep-alive connection.
    """
    start = (time.perf_counter() + 0.01) if start is None else start
    for j, read in enumerate(reads):
        read.due = start + j / rate
    lanes = [reads[i :: len(clients)] for i in range(len(clients))]
    threads = [
        threading.Thread(target=_run_schedule, args=(client, lane, subset), daemon=True)
        for client, lane in zip(clients[1:], lanes[1:])
    ]
    for thread in threads:
        thread.start()
    try:
        _run_schedule(clients[0], lanes[0], subset)
    finally:
        for thread in threads:
            thread.join()


def closed_loop(clients, rng: np.random.Generator, d: int, seconds: float, subset) -> list[Read]:
    """Each client sends reads back to back for ``seconds``; return the reads sent.

    Weights are drawn before the loop starts (the generator is not
    shared between threads), more than a client can send in the time.
    """
    end = time.perf_counter() + seconds
    lanes = [make_reads(rng, int(seconds * 2000), d) for _ in clients]

    def lane(client, reads: list[Read]) -> None:
        for read in reads:
            read.due = read.sent = time.perf_counter()
            if read.sent >= end:
                return
            send_read(client, read, subset)
            read.done = time.perf_counter()

    threads = [
        threading.Thread(target=lane, args=(client, reads), daemon=True)
        for client, reads in zip(clients[1:], lanes[1:])
    ]
    for thread in threads:
        thread.start()
    try:
        lane(clients[0], lanes[0])
    finally:
        for thread in threads:
            thread.join()
    return [read for reads in lanes for read in reads if read.done]


def backlog_grew(reads: list[Read]) -> bool:
    """Did the generator fall further behind over the phase?"""
    quarter = max(1, len(reads) // 4)
    first = np.mean([r.late_ms for r in reads[:quarter]])
    last = np.mean([r.late_ms for r in reads[-quarter:]])
    return bool(last - first > 2.0)
