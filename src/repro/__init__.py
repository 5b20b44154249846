"""repro — a full reproduction of *RRR: Rank-Regret Representative*
(Asudeh, Nazi, Zhang, Das, Jagadish; SIGMOD 2019).

The **order-k rank-regret representative** of a dataset is the smallest
subset guaranteed to contain at least one of the top-k tuples of *every*
linear ranking function.  This package implements the paper end to end:

* the three proposed algorithms — :func:`~repro.core.two_d_rrr` (2-D,
  optimal size / 2k regret), :func:`~repro.core.md_rrr` (hitting set over
  k-sets, exact k guarantee), :func:`~repro.core.mdrc` (function-space
  partitioning, fast and near-optimal in practice);
* every substrate they need — the dual-space angular sweep, k-set
  enumeration (exact sweep, LP-validated BFS, randomized K-SETr),
  hitting-set solvers (greedy and Brönnimann–Goodrich ε-nets), interval
  covering, convex hull / skyline maxima, and linear-ranking evaluation;
* the baselines and metrics of the paper's evaluation, plus an experiment
  harness regenerating every figure.

Quickstart::

    from repro import synthetic_dot, rank_regret_representative

    data = synthetic_dot(n=2000, d=3, seed=7)
    result = rank_regret_representative(data, k=0.01)   # top-1%
    print(result.indices, result.guarantee)

For long-lived use (many calls over one dataset, mutations, serving),
:class:`repro.Session` owns a single engine behind the same
algorithms::

    with repro.Session(data.values, jobs=-1) as session:
        result = session.mdrc(k=0.01)
        report = session.evaluate(result.indices, k=0.01)

and ``repro.serve`` (``repro serve`` on the command line) exposes a
Session over asyncio HTTP with request coalescing.

Every public free function shares one keyword vocabulary: ``jobs``
(worker count; more than one fans large calls out over a thread pool)
and ``tune`` (a :class:`~repro.engine.TuningProfile` or ``None``).

Exports load on first use (:mod:`repro._lazy`): ``import repro`` runs
this file and nothing else of the package, and the first read of a name
such as ``repro.mdrc`` or ``repro.geometry`` imports the modules behind
it.  A :class:`Session` loads the engine alone; the algorithms, the
evaluation and the datasets load when first called.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines import (
        convex_hull_representative,
        cube,
        greedy_regret,
        hd_rrms,
        skyline_representative,
    )
    from repro.core import (
        MDRCResult,
        MDRRRResult,
        RRRResult,
        SizeBudgetResult,
        collect_ksets,
        find_ranges,
        md_rrr,
        mdrc,
        min_rank_regret_of_size,
        rank_regret_representative,
        resolve_k,
        two_d_rrr,
    )
    from repro.engine import BitsetTable, ScoreEngine, TuningProfile
    from repro.datasets import (
        Dataset,
        anticorrelated,
        clustered,
        correlated,
        independent,
        load_csv,
        on_sphere,
        paper_example,
        save_csv,
        synthetic_bluenile,
        synthetic_dot,
    )
    from repro.evaluation import (
        evaluate_representative,
        kset_upper_bound,
        rank_regret_exact_2d,
        rank_regret_sampled,
        regret_ratio_sampled,
    )
    from repro.exceptions import (
        ConvergenceError,
        CorruptStateError,
        DatasetError,
        GeometryError,
        InfeasibleError,
        InvalidDataError,
        ReproError,
        ValidationError,
    )
    from repro.geometry import (
        convex_hull,
        enumerate_ksets_2d,
        enumerate_ksets_bfs,
        sample_ksets,
        skyline,
    )
    from repro.ranking import LinearFunction, sample_functions, top_k, top_k_set
    from repro.session import Session

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # session facade
    "Session",
    # core
    "rank_regret_representative",
    "RRRResult",
    "resolve_k",
    "two_d_rrr",
    "find_ranges",
    "md_rrr",
    "MDRRRResult",
    "collect_ksets",
    "mdrc",
    "MDRCResult",
    "min_rank_regret_of_size",
    "SizeBudgetResult",
    # datasets
    "Dataset",
    "paper_example",
    "independent",
    "correlated",
    "anticorrelated",
    "clustered",
    "on_sphere",
    "synthetic_dot",
    "synthetic_bluenile",
    "save_csv",
    "load_csv",
    # engine
    "ScoreEngine",
    "TuningProfile",
    "BitsetTable",
    # ranking / geometry
    "LinearFunction",
    "sample_functions",
    "top_k",
    "top_k_set",
    "convex_hull",
    "skyline",
    "enumerate_ksets_2d",
    "enumerate_ksets_bfs",
    "sample_ksets",
    # evaluation
    "evaluate_representative",
    "rank_regret_exact_2d",
    "rank_regret_sampled",
    "regret_ratio_sampled",
    "kset_upper_bound",
    # baselines
    "hd_rrms",
    "cube",
    "greedy_regret",
    "convex_hull_representative",
    "skyline_representative",
    # errors
    "ReproError",
    "ValidationError",
    "InvalidDataError",
    "DatasetError",
    "GeometryError",
    "InfeasibleError",
    "ConvergenceError",
    "CorruptStateError",
]

lazy_exports(__name__)
