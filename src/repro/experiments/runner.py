"""Experiment execution: build datasets, time algorithms, measure outputs.

The runner reproduces the paper's protocol (§6.1): build the dataset, fix
all-but-one parameter at the defaults, sweep the remaining one, time each
algorithm, and measure output size and rank-regret (exact in 2-D, 10,000
sampled functions otherwise).  HD-RRMS receives MDRC's output size as its
size budget, exactly as the paper does to keep the comparison fair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.hd_rrms import hd_rrms
from repro.core.api import resolve_k
from repro.core.mdrc import mdrc
from repro.core.mdrrr import md_rrr
from repro.core.rrr2d import two_d_rrr
from repro.datasets.base import Dataset
from repro.datasets.bluenile import synthetic_bluenile
from repro.datasets.dot import synthetic_dot
from repro.evaluation.metrics import evaluate_representative
from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentConfig, KSetCountConfig
from repro.geometry.ksets import enumerate_ksets_2d, sample_ksets
from repro.evaluation.bounds import kset_upper_bound

__all__ = [
    "ExperimentRow",
    "KSetCountRow",
    "MaintenanceRow",
    "make_dataset",
    "run_experiment",
    "run_kset_count",
    "run_maintenance",
]


@dataclass(frozen=True)
class ExperimentRow:
    """One (algorithm, sweep-point) measurement."""

    experiment_id: str
    dataset: str
    algorithm: str
    n: int
    d: int
    k: int
    time_sec: float
    output_size: int
    rank_regret: int
    meets_k: bool


@dataclass(frozen=True)
class KSetCountRow:
    """One sweep point of a k-set count experiment (Figures 13–16)."""

    experiment_id: str
    dataset: str
    n: int
    d: int
    k: int
    num_ksets: int
    upper_bound: float
    draws: int
    time_sec: float


def make_dataset(name: str, n: int, d: int, seed: int = 0) -> Dataset:
    """Build the named synthetic stand-in at the requested shape."""
    if name == "dot":
        return synthetic_dot(n=n, d=d, seed=seed)
    if name == "bn":
        return synthetic_bluenile(n=n, d=d, seed=seed)
    raise ValidationError(f"unknown dataset {name!r}")


def _run_algorithm(
    name: str,
    values: np.ndarray,
    k: int,
    seed: int,
    mdrc_size_hint: int | None,
    verify_functions: int = 2000,
    jobs: int | None = None,
    backend: str = "auto",
    tune=None,
) -> tuple[list[int], float]:
    """Run one algorithm, returning (indices, wall seconds)."""
    start = time.perf_counter()
    if name == "2drrr":
        indices = two_d_rrr(values, k)
    elif name == "mdrrr":
        indices = md_rrr(
            values, k, rng=seed, verify_functions=verify_functions,
            jobs=jobs, backend=backend, tune=tune,
        ).indices
    elif name == "mdrc":
        indices = mdrc(values, k, jobs=jobs, backend=backend, tune=tune).indices
    elif name == "hd_rrms":
        budget = mdrc_size_hint if mdrc_size_hint else max(1, min(20, values.shape[0]))
        indices = list(hd_rrms(values, budget, rng=seed).indices)
    else:
        raise ValidationError(f"unknown algorithm {name!r}")
    elapsed = time.perf_counter() - start
    return list(indices), elapsed


def run_experiment(
    config: ExperimentConfig,
    progress: Callable[[str], None] | None = None,
    jobs: int | None = None,
    backend: str = "auto",
    tune=None,
) -> list[ExperimentRow]:
    """Execute a comparison experiment and return its measurement rows.

    ``jobs``/``backend`` fan the engine-backed algorithms and the
    Monte-Carlo quality measurement out over the engine's worker pool;
    measured outputs are bit-identical to the serial run.
    """
    rows: list[ExperimentRow] = []
    for value in config.values:
        n = int(value) if config.vary == "n" else config.n
        d = int(value) if config.vary == "d" else config.d
        k_fraction = float(value) if config.vary == "k" else config.k_fraction
        dataset = make_dataset(config.dataset, n=n, d=d, seed=config.seed)
        values = dataset.values
        k = resolve_k(k_fraction if 0 < k_fraction < 1 else int(k_fraction), n)

        # MDRC first: the paper feeds its output size to HD-RRMS (§6.1).
        mdrc_size: int | None = None
        ordered = sorted(
            config.algorithms, key=lambda a: (a != "mdrc",)
        )
        for algorithm in ordered:
            if progress:
                progress(f"{config.experiment_id}: {algorithm} @ {config.vary}={value}")
            indices, elapsed = _run_algorithm(
                algorithm, values, k, config.seed, mdrc_size,
                verify_functions=config.eval_functions,
                jobs=jobs, backend=backend, tune=tune,
            )
            if algorithm == "mdrc":
                mdrc_size = len(indices)
            report = evaluate_representative(
                values,
                indices,
                k,
                num_functions=config.eval_functions,
                rng=config.seed,
                jobs=jobs,
                backend=backend,
                tune=tune,
            )
            rows.append(
                ExperimentRow(
                    experiment_id=config.experiment_id,
                    dataset=config.dataset,
                    algorithm=algorithm,
                    n=n,
                    d=d,
                    k=k,
                    time_sec=elapsed,
                    output_size=report.size,
                    rank_regret=report.rank_regret,
                    meets_k=report.meets_k,
                )
            )
    return rows


@dataclass(frozen=True)
class MaintenanceRow:
    """One churn tick of a maintained-representative run."""

    tick: int
    n: int
    deletes: int
    inserts: int
    maintained_sec: float
    recompute_sec: float
    output_size: int
    rank_regret: int
    identical: bool


def run_maintenance(
    values: np.ndarray,
    k: int,
    ticks: int = 5,
    churn: float = 0.01,
    seed: int = 0,
    algorithm: str = "mdrc",
    num_functions: int = 2000,
    verify: bool = True,
    jobs: int | None = None,
    backend: str = "auto",
    tune=None,
    progress: Callable[[str], None] | None = None,
) -> list[MaintenanceRow]:
    """Serve a maintained representative under churn, one row per tick.

    Builds one long-lived engine over ``values``, attaches the
    materialized views (:mod:`repro.engine.views`) for the requested
    ``algorithm`` (``"mdrc"`` or ``"mdrrr"``) plus a maintained
    rank-regret estimator, then per tick deletes/inserts ``churn · n``
    rows and refreshes the views.  With ``verify`` each tick also runs
    the from-scratch recompute and asserts the maintained result is
    bit-identical — the contract the views guarantee — while timing
    both sides, so the returned rows double as a maintenance-vs-
    recompute measurement.
    """
    from repro.engine import MDRCView, MDRRRView, RankRegretView, ScoreEngine
    from repro.evaluation.regret import rank_regret_sampled

    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("values must be an (n, d) matrix")
    if ticks < 1:
        raise ValidationError("ticks must be >= 1")
    if not 0.0 < churn < 1.0:
        raise ValidationError("churn must be in (0, 1)")
    if algorithm not in ("mdrc", "mdrrr"):
        raise ValidationError(f"unknown maintained algorithm {algorithm!r}")
    rng = np.random.default_rng(seed)
    rows: list[MaintenanceRow] = []
    with ScoreEngine(matrix, n_jobs=jobs, backend=backend, tune=tune) as engine:
        if algorithm == "mdrc":
            view = MDRCView(engine, k)
        else:
            view = MDRRRView(engine, k, rng=seed)
        initial = view.refresh()
        regret_view = RankRegretView(
            engine, initial.indices, num_functions=num_functions, rng=seed
        )
        regret_view.refresh()
        for tick in range(ticks):
            m = max(1, int(round(engine.n * churn)))
            dead = rng.choice(engine.n, size=m, replace=False)
            fresh_rows = rng.random((m, engine.d))
            engine.delete_rows(dead)
            engine.insert_rows(fresh_rows)
            if progress:
                progress(f"maintain tick {tick + 1}/{ticks}: ±{m} rows")
            start = time.perf_counter()
            result = view.refresh()
            regret_view.set_subset(result.indices)
            regret = regret_view.refresh()
            maintained_sec = time.perf_counter() - start
            recompute_sec = 0.0
            identical = True
            if verify:
                start = time.perf_counter()
                if algorithm == "mdrc":
                    fresh = mdrc(engine.values, k).indices
                else:
                    fresh = md_rrr(
                        engine.values, k, enumerator="sample", rng=seed
                    ).indices
                fresh_regret = rank_regret_sampled(
                    engine.values, fresh, num_functions, rng=seed, engine=engine
                )
                recompute_sec = time.perf_counter() - start
                identical = list(result.indices) == list(fresh) and regret == fresh_regret
                if not identical:
                    raise ValidationError(
                        f"maintained result diverged from recompute at tick {tick}"
                    )
            rows.append(
                MaintenanceRow(
                    tick=tick,
                    n=engine.n,
                    deletes=m,
                    inserts=m,
                    maintained_sec=maintained_sec,
                    recompute_sec=recompute_sec,
                    output_size=len(result.indices),
                    rank_regret=regret,
                    identical=identical,
                )
            )
        view.close()
        regret_view.close()
    return rows


def run_kset_count(
    config: KSetCountConfig,
    progress: Callable[[str], None] | None = None,
    jobs: int | None = None,
    backend: str = "auto",
    tune=None,
) -> list[KSetCountRow]:
    """Execute a k-set count experiment (Figures 13–16)."""
    rows: list[KSetCountRow] = []
    for value in config.values:
        d = int(value) if config.vary == "d" else config.d
        k_fraction = float(value) if config.vary == "k" else config.k_fraction
        n = config.n
        dataset = make_dataset(config.dataset, n=n, d=d, seed=config.seed)
        values = dataset.values
        k = resolve_k(k_fraction if 0 < k_fraction < 1 else int(k_fraction), n)
        if progress:
            progress(f"{config.experiment_id}: {config.vary}={value}")
        start = time.perf_counter()
        if d == 2:
            ksets = enumerate_ksets_2d(values, k)
            draws = 0
        else:
            outcome = sample_ksets(
                values, k, patience=config.patience, rng=config.seed,
                jobs=jobs, backend=backend, tune=tune,
            )
            ksets = outcome.ksets
            draws = outcome.draws
        elapsed = time.perf_counter() - start
        rows.append(
            KSetCountRow(
                experiment_id=config.experiment_id,
                dataset=config.dataset,
                n=n,
                d=d,
                k=k,
                num_ksets=len(ksets),
                upper_bound=kset_upper_bound(n, k, d),
                draws=draws,
                time_sec=elapsed,
            )
        )
    return rows
