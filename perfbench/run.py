"""The benchmark's one command.

Usage::

    python3 perfbench/run.py --workload {represent,serve_read,serve_churn}
        --seed N --seconds S --trace {0,1} [--smoke]

Generates the workload's input from ``--seed``, runs the program side in
its own process(es), checks every answer outside the timed regions, and
prints each metric by name with its unit, the operations attempted and
failed per phase, and, as the last line of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every workload reports the same end-to-end metrics (``END_TO_END``):

``setup_s``
    Process start to ready: ``represent``, a ``Session`` built on the
    loaded matrix; serving, the first correct answer of a fresh server.
``op_p50_ms``
    Median latency of the workload's operation: ``represent``, one input's
    ``mdrc(15)``, ``md_rrr(15)`` and ``rank_regret`` over 100,000
    functions, each on a fresh ``Session``; ``serve_read``, one top-k or
    rank read from two callers that each wait for their reply, send to
    reply; ``serve_churn``, one writer step, a keyed fsync'd write of 20
    rows and the ``/v1/representative`` after it.
``peak_rss_mb``
    Peak RSS of the process doing the work.

``--trace 1`` runs the workload untraced and then traced, and reports
the per-layer metrics (``PER_LAYER``): the traced run's layers, the
untraced run's phase timings (``op.*``: each kind of call, the latency
tails and the rate ladder's ``max_read_qps``), and ``overhead.<metric>``,
traced minus untraced for each end-to-end metric.  A layer or phase the
workload never reaches reads 0 and is marked so in the listing.
``--smoke`` shrinks the input to 2,000 rows, boots one server and climbs
one ladder rung: a quick check of every workload, every check and the
metric listing.

Run it from the root of a checkout; it reads and writes only there
(scratch files go to ``.perfbench_tmp/`` and are removed afterwards).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

# Serial BLAS here too, set before numpy loads: the checks' own GEMMs
# must not spin threads beside the program (see common.child_env).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import common  # noqa: E402 - after the BLAS setting

SMOKE_ROWS = 2000

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "engine.topk_ms": "ms",
    "engine.topk_orders_s": "s",
    "engine.rank_ms": "ms",
    "engine.rank_prefix_rows_per_fn": "rows",
    "engine.verified_ratio": "ratio",
    "quant.resolved_ratio": "ratio",
    "mdrc.self_s": "s",
    "mdrc.corner_evaluations": "count",
    "ksets.self_s": "s",
    "ksets.draws": "count",
    "ksets.new_per_draw": "ratio",
    "setcover.hitting_set_s": "s",
    "regret.self_s": "s",
    "http.parse_ms": "ms",
    "http.render_ms": "ms",
    "http.response_bytes.topk": "B",
    "http.response_bytes.rank": "B",
    "http.response_bytes.representative": "B",
    "http.response_bytes.insert": "B",
    "http.response_bytes.delete": "B",
    "coalesce.queue_wait_p50_ms": "ms",
    "coalesce.queue_wait_p99_ms": "ms",
    "coalesce.requests_per_call": "ratio",
    "server.cpu_ms_per_req": "ms",
    "delta.compact_ms": "ms",
    "views.maintain_ms": "ms",
    "views.refresh_ms": "ms",
    "views.maintain_ratio": "ratio",
    "wal.commit_p50_ms": "ms",
    "wal.commit_p99_ms": "ms",
    "wal.bytes_per_write": "B",
    "wal.snapshot_ms": "ms",
    "wal.snapshots": "count",
    "wal.load_ms": "ms",
    "wal.replay_ms": "ms",
    "wal.replayed_commits": "count",
    "setup.import_s": "s",
    "setup.load_s": "s",
    "setup.first_query_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "op.mdrc_s": "s",
    "op.mdrrr_s": "s",
    "op.regret_s": "s",
    "op.read_p50_ms": "ms",
    "op.read_p99_ms": "ms",
    "op.max_read_qps": "req/s",
    "op.write_p50_ms": "ms",
    "op.write_p99_ms": "ms",
    "op.refresh_p50_ms": "ms",
    "op.recovery_s": "s",
    "host.reference_s": "s",
    **{f"overhead.{name}": unit for name, unit in END_TO_END.items()},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("represent", "serve_read", "serve_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def measure(args, traced: bool, tally):
    """One pass of the workload: its end-to-end and phase metrics, and its layers."""
    from workloads import WORKLOADS, Run

    tmp = common.make_tmpdir(f"{args.workload}-{'traced' if traced else 'plain'}")
    try:
        run = Run(seed=args.seed, seconds=args.seconds, traced=traced, tmp=tmp, tally=tally)
        if args.smoke:
            run.n, run.boots, run.ladder = SMOKE_ROWS, 1, run.ladder[:1]
        metrics = WORKLOADS[args.workload](run)
        metrics["host.reference_s"] = (run.speed.reference_s, "s")
        return metrics, run.layers
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def select(catalogue: dict, *sources: dict) -> tuple[dict, list[str]]:
    """Every catalogue metric, from the first source that has it, else 0.

    Returns the metrics and the names no source had.  A source metric
    outside the catalogue, or in another unit, is a bug in the benchmark.
    """
    known = {**END_TO_END, **PER_LAYER}
    for source in sources:
        for name, (_, unit) in source.items():
            if known.get(name) != unit:
                raise ValueError(f"metric {name} in {unit} is not in the catalogue")
    chosen, absent = {}, []
    for name, unit in catalogue.items():
        found = next((s[name] for s in sources if name in s), None)
        if found is None:
            absent.append(name)
            found = (0.0, unit)
        chosen[name] = found
    return chosen, absent


def main(argv) -> int:
    args = parse_args(argv)
    try:
        common.require_program()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tally = common.Tally()
    try:
        plain, _ = measure(args, False, tally)
        if args.trace:
            traced, layers = measure(args, True, tally)
            for name, unit in END_TO_END.items():
                layers[f"overhead.{name}"] = (traced[name][0] - plain[name][0], unit)
            metrics, absent = select(PER_LAYER, layers, plain)
            extra = {}
        else:
            metrics, absent = select(END_TO_END, plain)
            extra = {name: plain[name] for name in PER_LAYER if name in plain}
    except Exception:  # noqa: BLE001 - report and fail the run without a result
        traceback.print_exc()
        return 1
    finally:
        common.remove_tmp_root()
    if absent and not args.trace:
        print(f"error: the workload did not measure {absent}", file=sys.stderr)
        return 1
    out = sys.stdout
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}", file=out)
    for name, (value, unit) in metrics.items():
        note = " (not reached by this workload)" if name in absent else ""
        print(f"  {name} = {value:.6g} {unit}{note}", file=out)
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value:.6g} {unit} (per-layer; reported with --trace 1)", file=out)
    tally.report(out)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), file=out, flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
