"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``represent``
    Compute a rank-regret representative of a CSV dataset (or a built-in
    synthetic one) and print the selected tuples plus measured quality.
``experiment``
    Run one of the paper's experiments (fig09_10 … fig27_28) at bench or
    paper scale and print the reproduction table.
``ksets``
    Count the k-sets of a dataset with K-SETr (or exactly in 2-D).
``serve``
    Host a dataset behind the asyncio serving front-end
    (:mod:`repro.serve`): coalesced top-k/rank/representative queries,
    journaled mutations, typed overload responses.

Examples
--------
::

    python -m repro represent --dataset dot --n 2000 --d 3 --k 0.01
    python -m repro represent --csv flights.csv --k 25 --method mdrrr
    python -m repro represent --dataset dot --n 20000 --k 10 --maintain 5
    python -m repro experiment fig17_18 --scale bench
    python -m repro ksets --dataset bn --n 500 --d 3 --k 0.05
    python -m repro ksets --dataset dot --n 5000 --k 10 --maintain 3
    python -m repro serve --dataset dot --n 20000 --d 4 --port 8472 --jobs -1

``--maintain TICKS`` (on ``represent`` and ``ksets``) serves the result
through the materialized-view layer (:mod:`repro.engine.views`) under
``--churn`` row turnover per tick, verifying every revision bit-identical
to a from-scratch recompute and reporting the measured speedup.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.api import rank_regret_representative
from repro.datasets.io import load_csv
from repro.engine import load_profile
from repro.evaluation.metrics import evaluate_representative
from repro.exceptions import ReproError
from repro.experiments.config import BENCH_EXPERIMENTS, PAPER_EXPERIMENTS, KSetCountConfig
from repro.experiments.report import (
    format_experiment_table,
    format_kset_table,
    summarize_shapes,
)
from repro.experiments.runner import make_dataset, run_experiment, run_kset_count
from repro.geometry.ksets import enumerate_ksets_2d, sample_ksets

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RRR: Rank-Regret Representative (SIGMOD 2019) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Shared by every subcommand: the engine's fan-out knobs.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="workers for engine-backed scoring "
        "(default: serial; -1 = all cores); results are bit-identical",
    )
    common.add_argument(
        "--backend", choices=("auto", "serial", "thread"),
        default="auto",
        help="execution backend for the fan-out: serial never fans out; "
        "thread and auto use a thread pool above the work cutover "
        "(default: auto)",
    )
    common.add_argument(
        "--tuning-profile", default=None, metavar="PATH",
        help="checksummed JSON engine tuning profile (repro.engine.autotune), "
        "loaded if the file is present; a missing or torn file prints a "
        "warning and the command runs on the default tuning, leaving the "
        "file as it is; results are bit-identical either way",
    )
    common.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-work-unit deadline for parallel execution: a unit "
        "that exceeds it is retried on a fresh thread pool, and serially "
        "once retries run out (repro.engine.resilience; default: no "
        "deadline)",
    )
    common.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="failed attempts per work unit on the thread pool before the "
        "engine falls back to serial (default: 2); results stay "
        "bit-identical either way",
    )

    rep = sub.add_parser(
        "represent", help="compute a rank-regret representative", parents=[common]
    )
    source = rep.add_mutually_exclusive_group()
    source.add_argument("--csv", help="path to a CSV dataset (see datasets.io)")
    source.add_argument(
        "--dataset", choices=("dot", "bn"), default="dot",
        help="built-in synthetic dataset (default: dot)",
    )
    rep.add_argument("--n", type=int, default=2000, help="synthetic rows")
    rep.add_argument("--d", type=int, default=3, help="synthetic attributes")
    rep.add_argument(
        "--k", type=float, default=0.01,
        help="rank-regret level: int = absolute, float in (0,1) = fraction",
    )
    rep.add_argument(
        "--method", choices=("auto", "2drrr", "mdrrr", "mdrc"), default="auto"
    )
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument(
        "--eval-functions", type=int, default=10_000,
        help="Monte-Carlo functions for quality measurement",
    )
    rep.add_argument(
        "--maintain", type=int, default=0, metavar="TICKS",
        help="serve the representative under churn for TICKS revisions "
        "via the materialized-view layer (repro.engine.views), verifying "
        "each revision bit-identical to a from-scratch recompute and "
        "reporting the maintain-vs-recompute speedup",
    )
    rep.add_argument(
        "--churn", type=float, default=0.01, metavar="FRAC",
        help="fraction of rows deleted + inserted per --maintain tick "
        "(default: 0.01)",
    )

    exp = sub.add_parser("experiment", help="run a paper experiment", parents=[common])
    exp.add_argument("figure", choices=sorted(PAPER_EXPERIMENTS))
    exp.add_argument("--scale", choices=("bench", "paper"), default="bench")

    rall = sub.add_parser(
        "reproduce", help="run every experiment and write EXPERIMENTS.md",
        parents=[common],
    )
    rall.add_argument("--scale", choices=("bench", "paper"), default="bench")
    rall.add_argument("--out", default=None, help="write the report here")

    ks = sub.add_parser(
        "ksets", help="count k-sets (K-SETr / exact 2-D)", parents=[common]
    )
    ks.add_argument("--dataset", choices=("dot", "bn"), default="dot")
    ks.add_argument("--n", type=int, default=500)
    ks.add_argument("--d", type=int, default=3)
    ks.add_argument("--k", type=float, default=0.01)
    ks.add_argument("--patience", type=int, default=100)
    ks.add_argument("--seed", type=int, default=0)
    ks.add_argument(
        "--maintain", type=int, default=0, metavar="TICKS",
        help="maintain the k-set collection under churn for TICKS "
        "revisions via KSetView, verifying each revision against a "
        "fresh K-SETr run",
    )
    ks.add_argument(
        "--churn", type=float, default=0.01, metavar="FRAC",
        help="fraction of rows deleted + inserted per --maintain tick "
        "(default: 0.01)",
    )

    srv = sub.add_parser(
        "serve", help="host a dataset over asyncio HTTP (repro.serve)",
        parents=[common],
    )
    srv_source = srv.add_mutually_exclusive_group()
    srv_source.add_argument("--csv", help="path to a CSV dataset (see datasets.io)")
    srv_source.add_argument(
        "--dataset", choices=("dot", "bn"), default="dot",
        help="built-in synthetic dataset (default: dot)",
    )
    srv.add_argument("--n", type=int, default=20_000, help="synthetic rows")
    srv.add_argument("--d", type=int, default=4, help="synthetic attributes")
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8472, help="0 = ephemeral")
    srv.add_argument(
        "--max-pending", type=int, default=256, metavar="N",
        help="admission bound: queued requests before the server answers "
        "429 (default: 256)",
    )
    srv.add_argument(
        "--max-batch", type=int, default=1024, metavar="N",
        help="coalescing cap: queries stacked into one engine call "
        "(default: 1024)",
    )
    srv.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="durable serving state: write-ahead log + snapshots under "
        "DIR; restart (even after kill -9) recovers bit-identical state "
        "(default: memory-only)",
    )
    srv.add_argument(
        "--snapshot-wal-bytes", type=int, default=4 * 2**20, metavar="BYTES",
        help="cut a snapshot (and truncate the WAL) once the log grows "
        "past BYTES (default: 4 MiB)",
    )
    srv.add_argument(
        "--snapshot-interval", type=float, default=None, metavar="SECONDS",
        help="also snapshot when the oldest unsnapshotted mutation is "
        "older than SECONDS (default: size policy only)",
    )
    return parser


def _resolve_level(k: float, n: int) -> int | float:
    return k if 0 < k < 1 else int(k)


def _cmd_represent(args: argparse.Namespace, out) -> int:
    if args.csv:
        data = load_csv(args.csv).normalized()
    else:
        data = make_dataset(args.dataset, args.n, args.d, seed=args.seed)
    tune = load_profile(args.tuning_profile)
    if args.maintain > 0:
        return _maintain_represent(args, data, tune, out)
    result = rank_regret_representative(
        data, _resolve_level(args.k, data.n), method=args.method, rng=args.seed,
        jobs=args.jobs, backend=args.backend, tune=tune,
    )
    report = evaluate_representative(
        data.values, result.indices, result.k,
        num_functions=args.eval_functions, rng=args.seed, jobs=args.jobs,
        backend=args.backend, tune=tune,
    )
    print(f"dataset      : {data.name} (n={data.n}, d={data.d})", file=out)
    print(f"method       : {result.method}", file=out)
    print(f"k            : {result.k}", file=out)
    print(f"guarantee    : rank-regret <= {result.guarantee}", file=out)
    print(f"output size  : {result.size}", file=out)
    print(f"measured     : rank-regret={report.rank_regret} "
          f"({'exact' if report.exact else 'sampled'}), "
          f"regret-ratio={report.regret_ratio:.4f}", file=out)
    print(f"meets k      : {'yes' if report.meets_k else 'no'}", file=out)
    print(f"indices      : {list(result.indices)}", file=out)
    return 0


def _cmd_experiment(args: argparse.Namespace, out) -> int:
    configs = BENCH_EXPERIMENTS if args.scale == "bench" else PAPER_EXPERIMENTS
    config = configs[args.figure]
    tune = load_profile(args.tuning_profile)
    if isinstance(config, KSetCountConfig):
        rows = run_kset_count(
            config, progress=lambda m: print(m, file=sys.stderr),
            jobs=args.jobs, backend=args.backend, tune=tune,
        )
        print(format_kset_table(rows), file=out)
    else:
        rows = run_experiment(
            config, progress=lambda m: print(m, file=sys.stderr),
            jobs=args.jobs, backend=args.backend, tune=tune,
        )
        print(format_experiment_table(rows), file=out)
        shapes = summarize_shapes(rows)
        print("", file=out)
        for claim, holds in shapes.items():
            print(f"shape check {claim}: {'PASS' if holds else 'FAIL'}", file=out)
    return 0


def _maintain_represent(args: argparse.Namespace, data, tune, out) -> int:
    """``represent --maintain``: serve maintained representatives per tick."""
    from repro.core.api import resolve_k
    from repro.experiments.runner import run_maintenance

    method = args.method
    if method == "auto":
        method = "mdrc"
    if method not in ("mdrc", "mdrrr"):
        raise ReproError(
            f"--maintain supports methods mdrc/mdrrr, not {method!r} "
            "(2drrr has no maintained view)"
        )
    k = resolve_k(_resolve_level(args.k, data.n), data.n)
    rows = run_maintenance(
        data.values, k, ticks=args.maintain, churn=args.churn, seed=args.seed,
        algorithm=method, num_functions=args.eval_functions,
        jobs=args.jobs, backend=args.backend, tune=tune,
        progress=lambda m: print(m, file=sys.stderr),
    )
    print(
        f"maintained {method} over {data.name} (n={data.n}, d={data.d}, "
        f"k={k}, churn={args.churn:.2%}/tick)", file=out,
    )
    print(
        f"{'tick':>4} {'n':>8} {'±rows':>6} {'maintained':>11} "
        f"{'recompute':>10} {'size':>5} {'regret':>6} {'identical':>9}",
        file=out,
    )
    for row in rows:
        print(
            f"{row.tick:>4} {row.n:>8} {row.deletes:>6} "
            f"{row.maintained_sec:>10.3f}s {row.recompute_sec:>9.3f}s "
            f"{row.output_size:>5} {row.rank_regret:>6} "
            f"{'yes' if row.identical else 'NO':>9}",
            file=out,
        )
    maintained = sum(row.maintained_sec for row in rows)
    recompute = sum(row.recompute_sec for row in rows)
    if maintained > 0:
        print(
            f"speedup      : {recompute / maintained:.1f}x "
            f"({recompute:.3f}s recompute vs {maintained:.3f}s maintained)",
            file=out,
        )
    return 0


def _cmd_ksets(args: argparse.Namespace, out) -> int:
    data = make_dataset(args.dataset, args.n, args.d, seed=args.seed)
    k = max(1, round(args.k * data.n)) if 0 < args.k < 1 else int(args.k)
    tune = load_profile(args.tuning_profile)
    if args.maintain > 0:
        return _maintain_ksets(args, data, k, tune, out)
    if data.d == 2:
        ksets = enumerate_ksets_2d(data.values, k)
        print(f"exact 2-D enumeration: {len(ksets)} k-sets (k={k})", file=out)
    else:
        outcome = sample_ksets(
            data.values, k, patience=args.patience, rng=args.seed,
            jobs=args.jobs, backend=args.backend, tune=tune,
        )
        print(
            f"K-SETr: {len(outcome.ksets)} k-sets (k={k}) in "
            f"{outcome.draws} draws"
            f"{' [exhausted]' if outcome.exhausted else ''}",
            file=out,
        )
    return 0


def _maintain_ksets(args: argparse.Namespace, data, k: int, tune, out) -> int:
    """``ksets --maintain``: keep the k-set collection live under churn."""
    import time

    import numpy as np

    from repro.engine import KSetView, ScoreEngine

    if data.d == 2:
        raise ReproError("--maintain uses K-SETr; 2-D exact enumeration has no view")
    rng = np.random.default_rng(args.seed)
    with ScoreEngine(
        data.values, n_jobs=args.jobs, backend=args.backend, tune=tune
    ) as engine:
        with KSetView(engine, k, patience=args.patience, rng=args.seed) as view:
            base = view.refresh()
            print(
                f"K-SETr: {len(base.ksets)} k-sets (k={k}) in {base.draws} draws",
                file=out,
            )
            maintained = recomputed = 0.0
            for tick in range(args.maintain):
                m = max(1, int(round(engine.n * args.churn)))
                engine.delete_rows(rng.choice(engine.n, size=m, replace=False))
                engine.insert_rows(rng.random((m, engine.d)))
                start = time.perf_counter()
                outcome = view.refresh()
                maintained += time.perf_counter() - start
                start = time.perf_counter()
                fresh = sample_ksets(
                    engine.values, k, patience=args.patience, rng=args.seed
                )
                recomputed += time.perf_counter() - start
                if outcome.ksets != fresh.ksets or outcome.draws != fresh.draws:
                    raise ReproError(
                        f"maintained k-sets diverged from recompute at tick {tick}"
                    )
                print(
                    f"tick {tick}: ±{m} rows, {len(outcome.ksets)} k-sets in "
                    f"{outcome.draws} draws (verified identical)",
                    file=out,
                )
            if maintained > 0:
                print(
                    f"speedup: {recomputed / maintained:.1f}x "
                    f"({recomputed:.3f}s recompute vs {maintained:.3f}s maintained)",
                    file=out,
                )
    return 0


def _apply_resilience_flags(args: argparse.Namespace) -> None:
    """Install ``--timeout`` / ``--max-retries`` as the default policy.

    The algorithms build engines internally (mdrc corner batches, K-SETr
    samplers, the Monte-Carlo evaluator), so the knobs go through
    :func:`repro.engine.resilience.set_default_policy` rather than being
    threaded through every constructor signature.
    """
    timeout = getattr(args, "timeout", None)
    max_retries = getattr(args, "max_retries", None)
    if timeout is None and max_retries is None:
        return
    from dataclasses import replace

    from repro.engine.resilience import get_default_policy, set_default_policy

    policy = get_default_policy()
    if timeout is not None:
        policy = replace(policy, timeout_s=timeout)
    if max_retries is not None:
        policy = replace(policy, max_retries=max_retries)
    set_default_policy(policy)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServerConfig, serve

    if args.csv:
        data = load_csv(args.csv).normalized()
    else:
        data = make_dataset(args.dataset, args.n, args.d, seed=args.seed)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        backend=args.backend,
        tuning_profile=args.tuning_profile,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        data_dir=args.data_dir,
        snapshot_wal_bytes=args.snapshot_wal_bytes,
        snapshot_interval_s=args.snapshot_interval,
    )
    serve(data.values, config)
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_resilience_flags(args)
        if args.command == "represent":
            return _cmd_represent(args, out)
        if args.command == "experiment":
            return _cmd_experiment(args, out)
        if args.command == "ksets":
            return _cmd_ksets(args, out)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "reproduce":
            from repro.experiments.reproduce import reproduce_all

            report = reproduce_all(
                scale=args.scale,
                progress=lambda m: print(m, file=sys.stderr),
                jobs=args.jobs,
                backend=args.backend,
                tune=load_profile(args.tuning_profile),
            )
            if args.out:
                with open(args.out, "w") as handle:
                    handle.write(report)
                print(f"wrote {args.out}", file=out)
            else:
                print(report, file=out)
            return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # pragma: no cover - unreachable with required subparsers


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
