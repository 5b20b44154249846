"""The three workloads: ``represent``, ``serve_read`` and ``serve_churn``.

Each takes a :class:`Run` and returns ``{name: (value, unit)}``: the
end-to-end metrics every workload reports (``setup_s``, ``op_p50_ms``,
``peak_rss_mb``; see ``run.py`` for what each means per workload) and
the ``op.*`` timings of the phases it runs.  A traced run also fills
``run.layers`` with the per-layer metrics derived from the recorded
spans.  The program side always runs in its own process; this process
only generates inputs, sends load, and checks every answer after the
timed region.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from common import (
    BENCH_DIR, K, N_DIMS, N_ROWS, REGRET_FUNCTIONS, ROOT, HostSpeed, Tally, child_env,
    file_digest, make_matrix, median, percentile, pin_tuning, write_csv,
)
from loadgen import Read, backlog_grew, closed_loop, make_reads, open_loop
from procs import ServerProc, cpu_seconds, peak_rss_mb

WORKER = os.path.join(BENCH_DIR, "represent_worker.py")

# represent: seconds of a run per input (three calls, three Session
# builds, the checks), the worker processes sharing the inputs, and the
# functions in the MDRRR check.
REPRESENT_INPUT_S = 3.5
REPRESENT_WORKERS = 3
MDRRR_CHECK_FUNCTIONS = 5_000

# serve_read: a fixed nominal rate, then a rate ladder.  The ladder's
# limit is a read p99 of 10 ms with no growing generator backlog.  The
# host's CPU is shared and bursts of outside load last seconds, so a p99
# is taken per window of reads and reported as the median over windows,
# and a ladder rung gets up to three tries.
NOMINAL_RATE = 250.0
LADDER = (300.0, 350.0, 400.0, 450.0, 500.0, 550.0, 600.0, 650.0, 700.0, 800.0, 900.0, 1000.0)
P99_LIMIT_MS = 10.0
WINDOW_READS = 500
RUNG_TRIES = 3

# serve_churn: one closed-loop writer, one open-loop reader.
CHURN_ROWS = 20
CHURN_READ_RATE = 40.0  # reads wait behind the busy writer; 100 req/s backlogged one connection
SNAPSHOT_WAL_BYTES = 65536
KILL_WAL_SHARE = 0.75  # SIGKILL once the WAL holds this share of a snapshot cycle
REFRESH_CHECKS = 3  # /v1/representative answers per server checked against a fresh mdrc

BOOTS = 3  # servers per serving run, each on its own input; medians over them
WARM_READS = 200  # reads before timing, so lazy structures settle
CLIENT_TIMEOUT_S = 10.0  # a reply slower than this fails the request


@dataclass
class Run:
    seed: int
    seconds: float
    traced: bool
    tmp: str
    tally: Tally = field(default_factory=Tally)
    n: int = N_ROWS
    boots: int = BOOTS
    ladder: tuple = LADDER
    layers: dict = field(default_factory=dict)
    speed: HostSpeed = field(default_factory=HostSpeed)  # sampled between phases

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def layer(self, name: str, value, unit: str) -> None:
        self.layers[name] = (float(value), unit)


# ----------------------------------------------------------------------
# span files


def load_spans(path: str):
    """Spans and queue waits of one process; span ids are made unique per file."""
    spans, waits = [], []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record[0] == "wait":
                waits.append(record[1:])
            else:
                record[0] = (path, record[0])
                record[4] = None if record[4] is None else (path, record[4])
                spans.append(record)
    return spans, waits


def durations(spans, name: str) -> list[float]:
    return [s[3] - s[2] for s in spans if s[1] == name]


def self_times(spans, name: str) -> list[float]:
    """Span duration minus the time its direct child spans cover."""
    covered: dict = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            covered[s[4]] += s[3] - s[2]
    return [s[3] - s[2] - covered[s[0]] for s in spans if s[1] == name]


def engine_layers(run: Run, spans, counters: dict, units: int = 1) -> None:
    """Per-layer metrics of the engine, from spans and summed counters.

    ``units`` divides the total ``topk_orders`` time: inputs in
    ``represent``, servers in the serving workloads.
    """
    topk = durations(spans, "engine.topk")
    rank = [s for s in spans if s[1] == "engine.rank"]
    if topk:
        run.layer("engine.topk_ms", median(topk) * 1e3, "ms")
    run.layer("engine.topk_orders_s", sum(durations(spans, "engine.topk_orders")) / units, "s")
    if rank:
        run.layer("engine.rank_ms", median([s[3] - s[2] for s in rank]) * 1e3, "ms")
        functions = sum(s[6]["m"] for s in rank)
        run.layer(
            "engine.rank_prefix_rows_per_fn", counters["rank_prefix_rows"] / functions, "rows"
        )
    if counters["gemm_columns"]:
        run.layer(
            "engine.verified_ratio",
            counters["verified_columns"] / counters["gemm_columns"], "ratio",
        )
    if counters["quant_columns"]:
        run.layer(
            "quant.resolved_ratio", counters["quant_resolved"] / counters["quant_columns"], "ratio"
        )


def algorithm_layers(run: Run, spans) -> None:
    """MDRC, K-SETr, set cover, regret and view refresh, where their spans exist.

    ``represent`` runs all but the view; a server runs MDRC through its
    k=15 view on the first ``/v1/representative``.
    """
    mdrc_spans = [s for s in spans if s[1] == "mdrc"]
    if mdrc_spans:
        run.layer("mdrc.self_s", median(self_times(spans, "mdrc")), "s")
        run.layer(
            "mdrc.corner_evaluations", median([s[6]["corner_evaluations"] for s in mdrc_spans]),
            "count",
        )
    ksets = [s for s in spans if s[1] == "ksets"]
    if ksets:
        run.layer("ksets.self_s", median(self_times(spans, "ksets")), "s")
        run.layer("ksets.draws", median([s[6]["draws"] for s in ksets]), "count")
        run.layer(
            "ksets.new_per_draw",
            sum(s[6]["ksets"] for s in ksets) / sum(s[6]["draws"] for s in ksets), "ratio",
        )
    hitting_set = durations(spans, "setcover.hitting_set")
    if hitting_set:
        run.layer("setcover.hitting_set_s", median(hitting_set), "s")
    if durations(spans, "regret"):
        run.layer("regret.self_s", median(self_times(spans, "regret")), "s")
    refresh = durations(spans, "views.refresh")
    if refresh:
        run.layer("views.refresh_ms", median(refresh) * 1e3, "ms")


# ----------------------------------------------------------------------
# represent


def represent(run: Run) -> dict:
    """The paper's task: MDRC, MDRRR and the rank-regret estimate, on fresh Sessions.

    The work of MDRC and K-SETr depends on the data (cells) and on
    K-SETr's random stream (its draw count, and MDRRR's time with it,
    moves by a fifth between streams on one matrix).  So every run with
    the same ``--seconds`` does the same work: matrices
    ``common.make_matrix(j)``, K-SETr seeded with ``j``, one input
    per ``REPRESENT_INPUT_S`` of the run.  The run's seed orders the
    inputs and seeds the rank-regret functions.  ``REPRESENT_WORKERS``
    processes each take a share of the inputs; each one's start is a
    ``setup_s`` sample.
    """
    from repro import mdrc
    from repro.engine import ScoreEngine
    from repro.evaluation.regret import rank_regret_sampled

    count = max(REPRESENT_WORKERS, int(run.seconds / REPRESENT_INPUT_S))
    inputs = []  # (matrix file, K-SETr seed, rank-regret seed)
    for i in range(count):
        j = (run.seed + i) % count
        path = run.path(f"matrix-{j}.npy")
        np.save(path, make_matrix(j, run.n))
        inputs.append((path, j, int(np.random.SeedSequence([run.seed, j]).generate_state(1)[0])))
    shares = np.array_split(np.arange(count), REPRESENT_WORKERS)
    workers, results = [], []
    for w, share in enumerate(shares):
        run.speed.sample()
        trace_out = run.path(f"spans-worker{w}.jsonl") if run.traced else "-"
        out = run.path(f"worker{w}.jsonl")
        items = [":".join(map(str, inputs[i])) for i in share]
        with open(run.path(f"worker{w}.log"), "w") as log:
            proc = subprocess.Popen(
                [sys.executable, WORKER, repr(time.time()), trace_out, out, *items],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=child_env(),
            )
            try:
                code = proc.wait(timeout=150)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            run.tally.add("represent", 3, 3)
            with open(run.path(f"worker{w}.log")) as handle:
                raise RuntimeError(f"represent worker failed:\n{handle.read()[-2000:]}")
        with open(out) as handle:
            lines = [json.loads(line) for line in handle]
        workers.append(lines[-1])
        for record in lines[:-1]:
            record["input"] = int(share[record["input"]])
            results.append(record)
        run.tally.add("represent", 3 * (len(lines) - 1))
    run.speed.sample()

    # Checks, outside every timed region.
    for r in results:
        path, kset_seed, regret_seed = inputs[r["input"]]
        values = np.load(path)
        run.tally.check(
            "check", r["mdrc_indices"] == [int(i) for i in mdrc(values, K).indices],
            f"input {r['input']}: Session.mdrc differs from a fresh repro.mdrc",
        )
        run.tally.check("check", r["regret"] <= K, f"MDRC rank-regret {r['regret']} > {K}")
        oracle = ScoreEngine(values, quantize=None)
        if r is results[0]:
            expected = rank_regret_sampled(
                values, r["mdrc_indices"], num_functions=REGRET_FUNCTIONS, rng=regret_seed,
                engine=oracle,
            )
            run.tally.check(
                "check", r["regret"] == int(expected),
                f"rank_regret {r['regret']} != float64 oracle {expected}",
            )
        # MDRRR covers the top-k sets of the functions its K-SETr sample
        # drew (rng=kset_seed), so over that stream its rank-regret is at
        # most k; on fresh functions it can exceed k without a fault.
        mdrrr_regret = rank_regret_sampled(
            values, r["mdrrr_indices"], num_functions=min(MDRRR_CHECK_FUNCTIONS, r["mdrrr_draws"]),
            rng=kset_seed, engine=oracle,
        )
        oracle.close()
        run.tally.check(
            "check", mdrrr_regret <= K, f"MDRRR sampled rank-regret {mdrrr_regret} > {K}"
        )

    metrics = {
        "setup_s": (median([w["setup_s"] for w in workers]), "s"),
        # One operation: the three calls on one input, as a user of the paper's method runs them.
        "op_p50_ms": (median([r["mdrc_s"] + r["mdrrr_s"] + r["regret_s"] for r in results]) * 1e3,
                      "ms"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in results]), "MB"),
        "op.mdrc_s": (median([r["mdrc_s"] for r in results]), "s"),
        "op.mdrrr_s": (median([r["mdrrr_s"] for r in results]), "s"),
        "op.regret_s": (median([r["regret_s"] for r in results]), "s"),
    }
    if run.traced:
        spans = []
        for w in range(REPRESENT_WORKERS):
            spans.extend(load_spans(run.path(f"spans-worker{w}.jsonl"))[0])
        counters: dict = defaultdict(int)
        for r in results:
            for call in r["stats"].values():
                for key, value in call.items():
                    counters[key] += value
        engine_layers(run, spans, counters, units=len(results))
        algorithm_layers(run, spans)
        run.layer("setup.import_s", median([w["import_s"] for w in workers]), "s")
    return metrics


# ----------------------------------------------------------------------
# serving helpers


class Input:
    """One server's input: matrix ``cycle``, its CSV, the oracle, a probe.

    ``rng`` (request weights, churn rows) follows the run's own seed.
    """

    def __init__(self, run: Run, cycle: int) -> None:
        from repro.engine import ScoreEngine

        self.values = make_matrix(cycle, run.n)
        self.csv = run.path(f"data-{cycle}.csv")
        write_csv(self.values, self.csv)
        self.rng = np.random.default_rng([run.seed, cycle, 1])
        self.probe = self.rng.random((1, N_DIMS))
        self.oracle = ScoreEngine(self.values, quantize=None)
        self.probe_answer = self.oracle.topk_batch(self.probe, K)

    def close(self) -> None:
        self.oracle.close()


def probe_matches(out: dict, revision: int, answer) -> bool:
    return (
        out["revision"] == revision
        and np.array_equal(out["order"].reshape(-1), answer.order[0])
        and np.array_equal(out["members"].reshape(-1), answer.members[0].astype(np.int64))
    )


class Serving:
    """A serving workload's run-wide state: pinned tuning, samples, spans."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.profile = run.path("tuning.json")
        self.digest = pin_tuning(self.profile)
        self.setup_s: list[float] = []
        self.first_query_ms: list[float] = []
        self.import_s: list[float] = []
        self.rss: list[float] = []
        self.spans: list = []
        self.waits: list = []
        self.engine: dict = defaultdict(int)
        self.coalescing: dict = defaultdict(int)

    def args(self, inp: Input, extra=()) -> list[str]:
        return ["--csv", inp.csv, "--tuning-profile", self.profile, *extra]

    def start(self, inp: Input, label: str, extra=(), trace_out=None):
        """Start a server; time process start to its first correct answer."""
        from repro.serve import ServiceClient

        server = ServerProc(self.run.tmp, label, self.args(inp, extra), trace_out)
        try:
            client = ServiceClient(server.wait_listening(), timeout=CLIENT_TIMEOUT_S, max_retries=0)
            t0 = time.perf_counter()
            out = client.topk(inp.probe, K)
            ready = time.perf_counter()
        except BaseException:
            server.kill()
            raise
        self.run.tally.check(
            "setup", probe_matches(out, 0, inp.probe_answer),
            f"{label}: first answer differs from the oracle",
        )
        self.setup_s.append(ready - server.spawn_t)
        self.first_query_ms.append((ready - t0) * 1e3)
        if server.import_s is not None:
            self.import_s.append(server.import_s)
        return server, client

    def absorb(self, stats: dict, trace_out: str | None) -> None:
        """Fold one server's counters and spans into the run's."""
        for key, value in stats["engine"].items():
            self.engine[key] += value
        for key in ("requests", "batches"):
            self.coalescing[key] += stats["coalescing"][key]
        if trace_out is not None:
            spans, waits = load_spans(trace_out)
            self.spans.extend(spans)
            self.waits.extend(waits)

    def stop(self, server: ServerProc, label: str) -> None:
        code = server.stop()
        self.run.tally.check("check", code == 0, f"{label} exited with {code}")

    def check_profile(self) -> None:
        self.run.tally.check(
            "check", file_digest(self.profile) == self.digest,
            "the pinned tuning profile was rewritten (the server recalibrated)",
        )

    def check_representative(self, rep: dict, values: np.ndarray, revision: int) -> None:
        from repro import mdrc

        self.run.tally.check(
            "check",
            rep["revision"] == revision and rep["indices"] == [int(i) for i in mdrc(values, K).indices],
            f"/v1/representative at revision {revision} differs from a fresh repro.mdrc",
        )

    def check_reads(self, phase: str, reads: list[Read], oracle, subset) -> None:
        """Reads answered at one revision, against the float64 oracle at it.

        Failed reads are counted by the caller; only answered ones come here.
        """
        tally = self.run.tally
        tally.add(phase, len(reads))
        topk = [r for r in reads if r.kind == "topk"]
        if topk:
            ref = oracle.topk_batch(np.stack([r.weights for r in topk]), K)
            for i, r in enumerate(topk):
                tally.check(
                    "check",
                    np.array_equal(r.answer[0].reshape(-1), ref.order[i])
                    and np.array_equal(r.answer[1].reshape(-1), ref.members[i].astype(np.int64)),
                    "served top-k differs from the float64 oracle",
                )
        ranks = [r for r in reads if r.kind == "rank"]
        if ranks:
            ref = oracle.rank_of_best_batch(np.stack([r.weights for r in ranks]), subset)
            for i, r in enumerate(ranks):
                tally.check(
                    "check", int(r.answer[0][0]) == int(ref[i]),
                    "served rank differs from the float64 oracle",
                )

    def count_failed(self, phase: str, reads: list[Read]) -> list[Read]:
        """Count failed reads as failed operations; return the answered ones."""
        failed = sum(not r.ok for r in reads)
        self.run.tally.add(phase, failed, failed)
        return [r for r in reads if r.ok]

    def layers(self, reads: list[Read]) -> None:
        run, spans = self.run, self.spans
        engine_layers(run, spans, self.engine, units=len(self.setup_s))
        algorithm_layers(run, spans)
        run.layer("http.parse_ms", median(durations(spans, "http.parse")) * 1e3, "ms")
        run.layer("http.render_ms", median(durations(spans, "http.render")) * 1e3, "ms")
        sizes = defaultdict(list)
        for s in spans:
            if s[1] == "http.render" and s[6]["path"]:
                sizes[s[6]["path"].rsplit("/", 1)[-1]].append(s[6]["bytes"])
        for endpoint in ("topk", "rank", "representative", "insert", "delete"):
            if sizes[endpoint]:
                run.layer(f"http.response_bytes.{endpoint}", median(sizes[endpoint]), "B")
        read_waits = [w[0] * 1e3 for w in self.waits if w[2] in ("topk", "rank")]
        run.layer("coalesce.queue_wait_p50_ms", percentile(read_waits, 50), "ms")
        run.layer("coalesce.queue_wait_p99_ms", percentile(read_waits, 99), "ms")
        run.layer(
            "coalesce.requests_per_call",
            self.coalescing["requests"] / self.coalescing["batches"], "ratio",
        )
        run.layer("setup.import_s", median(self.import_s), "s")
        run.layer("setup.load_s", median(durations(spans, "setup.load")), "s")
        run.layer("setup.first_query_ms", median(self.first_query_ms), "ms")
        late = [r.late_ms for r in reads]
        run.layer("loadgen.late_p99_ms", percentile(late, 99), "ms")
        run.layer("loadgen.late_max_ms", max(late), "ms")


def windowed(latencies: list[float], q: float) -> float:
    """Median over consecutive windows of ``WINDOW_READS`` reads of each window's percentile."""
    windows = max(1, len(latencies) // WINDOW_READS)
    size = len(latencies) // windows
    return median(
        [percentile(latencies[i * size : (i + 1) * size], q) for i in range(windows)]
    )


def meets_limit(reads: list[Read]) -> bool:
    return (
        all(r.ok for r in reads)
        and windowed([r.latency_ms for r in reads], 99) <= P99_LIMIT_MS
        and not backlog_grew(reads)
    )


def climb(run: Run, clients, rng, subset, nominal_reads, phases, deadline: float) -> float:
    """Highest rung meeting the limit, climbing from the nominal rate.

    The fixed-rate phase decides the nominal rung.  Every higher rung
    passes when one of ``RUNG_TRIES`` tries of ``WINDOW_READS`` reads
    meets the limit.  The climb stops at the first rung that fails, or
    when ``deadline`` (``time.perf_counter``) has passed.  If even the
    nominal rate misses, the result is half of it.
    """
    if not meets_limit(nominal_reads):
        return NOMINAL_RATE / 2
    best = NOMINAL_RATE
    for rate in run.ladder:
        for _ in range(RUNG_TRIES):
            if time.perf_counter() > deadline:
                return best
            rung = make_reads(rng, WINDOW_READS, N_DIMS)
            open_loop(clients, rung, rate, subset)
            phases.append((f"ladder_{int(rate)}", rung))
            if meets_limit(rung):
                break
        else:
            return best
        best = rate
    return best


# ----------------------------------------------------------------------
# serve_read


def serve_read(run: Run) -> dict:
    """Top-k and rank reads over two keep-alive connections; no writes.

    ``run.boots`` servers in turn, each on its own input: boot, fetch the
    k=15 representative (the rank subset), warm up, then closed-loop
    reads (``op_p50_ms``) and open-loop reads at the nominal rate
    (``op.read_*``).  The last server then climbs the rate ladder.  The
    end-to-end latency is the closed loop's: on a shared 2-vCPU host the
    open loop's p50, whose reads wake idle processors, spread 0.18-0.27
    (IQR over median) across runs, against 0.07 for back-to-back reads.
    """
    from repro.serve import ServiceClient

    sv = Serving(run)
    closed_s = run.seconds * 0.25 / run.boots
    fixed_s = run.seconds * 0.3 / run.boots
    all_closed: list[Read] = []
    all_reads: list[Read] = []
    cpu_ms: list[float] = []
    best = None
    for cycle in range(run.boots):
        run.speed.sample()
        inp = Input(run, cycle)
        label = f"read-{cycle}"
        trace_out = run.path(f"spans-{label}.jsonl") if run.traced else None
        server, client = sv.start(inp, label, trace_out=trace_out)
        try:
            clients = [client, ServiceClient(server.url, timeout=CLIENT_TIMEOUT_S, max_retries=0)]
            rep = client.representative(K)
            subset = rep["indices"]
            warm = make_reads(inp.rng, WARM_READS, N_DIMS)
            open_loop(clients, warm, NOMINAL_RATE, subset)
            closed = closed_loop(clients, inp.rng, N_DIMS, closed_s, subset)
            reads = make_reads(inp.rng, int(NOMINAL_RATE * fixed_s), N_DIMS)
            cpu0, served0 = cpu_seconds(server.pid), client.stats()["coalescing"]["requests"]
            open_loop(clients, reads, NOMINAL_RATE, subset)
            cpu1, served1 = cpu_seconds(server.pid), client.stats()["coalescing"]["requests"]
            cpu_ms.append((cpu1 - cpu0) * 1e3 / (served1 - served0))
            sv.rss.append(peak_rss_mb(server.pid))  # before the ladder, whose depth varies
            phases = [("warmup", warm), ("closed_loop", closed), ("fixed_rate", reads)]
            if cycle == run.boots - 1:
                deadline = time.perf_counter() + run.seconds * 0.3
                best = climb(run, clients, inp.rng, subset, reads, phases, deadline)
            stats = client.stats()
            for c in clients:
                c.close()
        except BaseException:
            server.kill()
            raise
        sv.stop(server, label)
        sv.absorb(stats, trace_out)
        sv.check_representative(rep, inp.values, 0)
        for phase, phase_reads in phases:
            answered = sv.count_failed(phase, phase_reads)
            run.tally.check(
                "check", all(r.revision == 0 for r in answered), "read at a nonzero revision"
            )
            sv.check_reads(phase, answered, inp.oracle, subset)
        inp.close()
        all_closed.extend(closed)
        all_reads.extend(reads)
    run.speed.sample()
    sv.check_profile()
    latencies = [r.latency_ms for r in all_reads]
    metrics = {
        "setup_s": (median(sv.setup_s), "s"),
        "op_p50_ms": (percentile([r.latency_ms for r in all_closed], 50), "ms"),
        "peak_rss_mb": (median(sv.rss), "MB"),
        "op.read_p50_ms": (percentile(latencies, 50), "ms"),
        "op.read_p99_ms": (windowed(latencies, 99), "ms"),
        "op.max_read_qps": (best, "req/s"),
    }
    if run.traced:
        sv.layers(all_reads)
        run.layer("server.cpu_ms_per_req", median(cpu_ms), "ms")
    return metrics


# ----------------------------------------------------------------------
# serve_churn


class Model:
    """The matrix at every revision, rebuilt from the acknowledged writes."""

    def __init__(self, values: np.ndarray) -> None:
        self.base = values
        self.writes: list[tuple[str, np.ndarray]] = []

    def at(self):
        """Yield ``(revision, matrix)`` for revision 0, 1, 2, ..."""
        values = self.base
        yield 0, values
        for revision, (kind, arg) in enumerate(self.writes, start=1):
            if kind == "delete":
                values = np.delete(values, arg, axis=0)
            else:
                values = np.vstack([values, arg])
            yield revision, values


class Churn:
    """One durable server under churn: writes, reads, kill -9 and recovery."""

    def __init__(self, run: Run, sv: Serving, cycle: int) -> None:
        self.run, self.sv, self.cycle = run, sv, cycle
        self.inp = Input(run, cycle)
        self.model = Model(self.inp.values)
        self.wrng = np.random.default_rng([run.seed, cycle, 2])
        self.n = run.n
        self.writes: list[float] = []  # acknowledged write latency, ms
        self.refreshes: list[tuple[int, list, float]] = []  # (revision, indices, ms)
        self.durable = [
            "--data-dir", run.path(f"data-{cycle}"),
            "--snapshot-wal-bytes", str(SNAPSHOT_WAL_BYTES),
        ]

    def write(self, writer, timed: bool) -> None:
        """One keyed delete or insert of ``CHURN_ROWS`` rows, then a refresh."""
        revision = len(self.model.writes)
        key = f"churn-{self.cycle}-{revision}"
        t0 = time.perf_counter()
        if revision % 2 == 0:
            arg = np.sort(self.wrng.choice(self.n, CHURN_ROWS, replace=False))
            out = writer.delete(arg, idempotency_key=key)
            ok = out["deleted"] == CHURN_ROWS
            kind = "delete"
        else:
            arg = self.wrng.random((CHURN_ROWS, N_DIMS))
            out = writer.insert(arg, idempotency_key=key)
            ok = np.array_equal(out["indices"], np.arange(self.n, self.n + CHURN_ROWS))
            kind = "insert"
        latency = (time.perf_counter() - t0) * 1e3
        if not ok or out["revision"] != revision + 1:
            self.run.tally.add("writes", 1, 1)
            raise RuntimeError(f"write {revision + 1} was not applied as sent: {out}")
        self.model.writes.append((kind, arg))
        self.n += CHURN_ROWS if kind == "insert" else -CHURN_ROWS
        t0 = time.perf_counter()
        rep = writer.representative(K)
        refresh_ms = (time.perf_counter() - t0) * 1e3
        if timed:
            self.writes.append(latency)
            self.refreshes.append((rep["revision"], rep["indices"], refresh_ms))
        self.run.tally.add("writes" if timed else "fill_writes", 2)

    def run_cycle(self, churn_s: float) -> None:
        from repro.serve import ServiceClient

        run, sv, inp = self.run, self.sv, self.inp
        label = f"churn-{self.cycle}"
        self.trace_out = run.path(f"spans-{label}.jsonl") if run.traced else None
        server, client = sv.start(inp, label, self.durable, self.trace_out)
        try:
            writer = ServiceClient(server.url, timeout=CLIENT_TIMEOUT_S, max_retries=0)
            self.rep0 = writer.representative(K)  # creates the k=15 MDRC view
            # Rows below n - CHURN_ROWS exist at every revision of the churn.
            self.subset = [i for i in self.rep0["indices"] if i < run.n - CHURN_ROWS]
            self.warm = make_reads(inp.rng, WARM_READS // 10, N_DIMS)
            open_loop([client], self.warm, CHURN_READ_RATE, self.subset)
            self.reads = make_reads(inp.rng, int(CHURN_READ_RATE * churn_s), N_DIMS)
            stop, failure = threading.Event(), []

            def writer_loop() -> None:
                try:
                    while not stop.is_set():
                        self.write(writer, True)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failure.append(exc)

            thread = threading.Thread(target=writer_loop, daemon=True)
            thread.start()
            try:
                open_loop([client], self.reads, CHURN_READ_RATE, self.subset)
            finally:
                stop.set()
                thread.join()
            if failure:
                raise failure[0]
            # Fill the WAL to most of a snapshot cycle, then kill -9 right
            # after an acknowledged write.
            while (client.health()["durability"]["wal_bytes_since_snapshot"]
                   < KILL_WAL_SHARE * SNAPSHOT_WAL_BYTES):
                self.write(writer, False)
            self.last_revision = len(self.model.writes)
            self.before = client.topk(inp.probe, K)
            self.rep_before = writer.representative(K)
            sv.rss.append(peak_rss_mb(server.pid))
            self.stats = client.stats()
            for c in (client, writer):
                c.close()
            if self.trace_out is not None:
                server.signal_and_wait_file(self.trace_out)
            killed = time.perf_counter()
            server.kill()
        except BaseException:
            server.kill()
            raise
        self.recover(killed)

    def recover(self, killed: float) -> None:
        from repro.serve import ServiceClient

        run, sv, inp = self.run, self.sv, self.inp
        label = f"restart-{self.cycle}"
        self.restart_trace = run.path(f"spans-{label}.jsonl") if run.traced else None
        server = ServerProc(run.tmp, label, sv.args(inp, self.durable), self.restart_trace)
        try:
            client = ServiceClient(server.wait_listening(), timeout=CLIENT_TIMEOUT_S, max_retries=0)
            self.after = client.topk(inp.probe, K)
            self.recovery_s = time.perf_counter() - killed
            self.rep_after = client.representative(K)
            self.recovery = client.stats()["durability"]["recovery"]
            client.close()
        except BaseException:
            server.kill()
            raise
        sv.stop(server, label)
        run.tally.add("recovery", 2)

    def check(self) -> None:
        """Every answer, outside the timed region."""
        from repro.engine import ScoreEngine

        tally, sv = self.run.tally, self.sv
        sv.check_representative(self.rep0, self.inp.values, 0)
        tally.check("check", self.after["revision"] == self.last_revision,
                    f"recovered revision {self.after['revision']} != {self.last_revision}")
        tally.check("check", np.array_equal(self.after["order"], self.before["order"])
                    and np.array_equal(self.after["members"], self.before["members"]),
                    "top-k probe differs after recovery")
        tally.check("check", self.rep_after["indices"] == self.rep_before["indices"]
                    and self.rep_after["revision"] == self.last_revision,
                    "representative probe differs after recovery")
        by_revision = defaultdict(list)
        for r in sv.count_failed("reads", self.warm + self.reads):
            by_revision[r.revision].append(r)
        picks = np.linspace(0, len(self.refreshes) - 1, min(REFRESH_CHECKS, len(self.refreshes)))
        checked = {self.refreshes[int(i)][0]: self.refreshes[int(i)] for i in picks}
        for revision, values in self.model.at():
            group = by_revision.pop(revision, None)
            last = revision == self.last_revision
            if not (group or last or revision in checked):
                continue
            oracle = ScoreEngine(values, quantize=None)
            if group:
                sv.check_reads("reads", group, oracle, self.subset)
            if revision in checked:
                _, indices, _ = checked[revision]
                sv.check_representative({"revision": revision, "indices": indices}, values, revision)
            if last:
                tally.check("check", probe_matches(self.after, revision,
                                                   oracle.topk_batch(self.inp.probe, K)),
                            "recovered top-k differs from the oracle")
            oracle.close()
        for revision, group in by_revision.items():
            tally.add("reads", len(group), len(group))
            tally.problems.append(f"reads: {len(group)} answered at unknown revision {revision}")
        self.inp.close()


def serve_churn(run: Run) -> dict:
    """Durable churn: keyed writes and refreshes beside open-loop reads, then kill -9.

    ``run.boots`` cycles, each a fresh server on its own input and data
    directory: boot, create the k=15 MDRC view, churn, fill the WAL to
    most of a snapshot cycle, SIGKILL right after an acknowledged write,
    restart on the same directory.
    """
    sv = Serving(run)
    churn_s = run.seconds * 0.75 / run.boots
    cycles = []
    for cycle in range(run.boots):
        run.speed.sample()
        churn = Churn(run, sv, cycle)
        churn.run_cycle(churn_s)
        sv.absorb(churn.stats, churn.trace_out)
        churn.check()
        cycles.append(churn)
    run.speed.sample()
    sv.check_profile()
    reads = [r for c in cycles for r in c.reads]
    latencies = [r.latency_ms for r in reads]
    writes = [w for c in cycles for w in c.writes]
    refreshes = [r[2] for c in cycles for r in c.refreshes]
    # One operation: the writer's step, a keyed write and the refresh after it.
    steps = [w + r[2] for c in cycles for w, r in zip(c.writes, c.refreshes)]
    metrics = {
        "setup_s": (median(sv.setup_s), "s"),
        "op_p50_ms": (percentile(steps, 50), "ms"),
        "peak_rss_mb": (median(sv.rss), "MB"),
        "op.read_p50_ms": (percentile(latencies, 50), "ms"),
        "op.read_p99_ms": (windowed(latencies, 99), "ms"),
        "op.write_p50_ms": (percentile(writes, 50), "ms"),
        "op.write_p99_ms": (percentile(writes, 99), "ms"),
        "op.refresh_p50_ms": (percentile(refreshes, 50), "ms"),
        "op.recovery_s": (median([c.recovery_s for c in cycles]), "s"),
    }
    if run.traced:
        spans = sv.spans
        sv.layers(reads)
        writes_total = sum(len(c.model.writes) for c in cycles)
        compact = sum(self_times(spans, "delta.compact"))
        run.layer("delta.compact_ms", compact / writes_total * 1e3, "ms")
        run.layer("views.maintain_ms", median(durations(spans, "views.maintain")) * 1e3, "ms")
        views = [c.stats["views"][f"mdrc:{K}"] for c in cycles]
        run.layer(
            "views.maintain_ratio",
            sum(v.get("maintains", 0) for v in views) / max(1, sum(v["events"] for v in views)),
            "ratio",
        )
        commits = [s for s in spans if s[1] == "wal.commit"]
        commit_ms = [(s[3] - s[2]) * 1e3 for s in commits]
        run.layer("wal.commit_p50_ms", percentile(commit_ms, 50), "ms")
        run.layer("wal.commit_p99_ms", percentile(commit_ms, 99), "ms")
        run.layer("wal.bytes_per_write", median([s[6]["bytes"] for s in commits]), "B")
        run.layer("wal.snapshot_ms", median(durations(spans, "wal.snapshot")) * 1e3, "ms")
        run.layer(
            "wal.snapshots",
            median([c.stats["durability"]["snapshots"] for c in cycles]), "count",
        )
        restart = []
        for c in cycles:
            restart.extend(load_spans(c.restart_trace)[0])
        run.layer("wal.load_ms", median(durations(restart, "wal.load")) * 1e3, "ms")
        run.layer("wal.replay_ms", median(durations(restart, "wal.replay")) * 1e3, "ms")
        run.layer(
            "wal.replayed_commits",
            median([c.recovery["replayed_commits"] for c in cycles]), "count",
        )
    return metrics


WORKLOADS = {"represent": represent, "serve_read": serve_read, "serve_churn": serve_churn}
