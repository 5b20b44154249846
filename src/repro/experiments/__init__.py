"""Experiment harness reproducing the paper's evaluation (§6).

Each export loads its module on first use (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.config import (
        BENCH_EXPERIMENTS,
        PAPER_EXPERIMENTS,
        ExperimentConfig,
        KSetCountConfig,
        bench_scale,
        paper_scale,
    )
    from repro.experiments.reproduce import PAPER_CLAIMS, reproduce_all
    from repro.experiments.report import (
        format_experiment_table,
        format_kset_table,
        summarize_shapes,
    )
    from repro.experiments.runner import (
        ExperimentRow,
        KSetCountRow,
        make_dataset,
        run_experiment,
        run_kset_count,
    )

__all__ = [
    "ExperimentConfig",
    "KSetCountConfig",
    "paper_scale",
    "bench_scale",
    "PAPER_EXPERIMENTS",
    "BENCH_EXPERIMENTS",
    "ExperimentRow",
    "KSetCountRow",
    "make_dataset",
    "run_experiment",
    "run_kset_count",
    "format_experiment_table",
    "format_kset_table",
    "summarize_shapes",
    "reproduce_all",
    "PAPER_CLAIMS",
]

lazy_exports(__name__)
