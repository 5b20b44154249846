"""Effectiveness measurement: rank-regret, regret-ratio, k-set bounds.

Each export loads its module on first use (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.evaluation.bounds import kset_upper_bound, trivial_kset_bound
    from repro.evaluation.distribution import (
        RegretDistribution,
        rank_regret_distribution,
        worst_functions,
    )
    from repro.evaluation.metrics import RepresentativeReport, evaluate_representative
    from repro.evaluation.regret import (
        DEFAULT_NUM_FUNCTIONS,
        rank_regret_exact_2d,
        rank_regret_for_function,
        rank_regret_sampled,
        regret_ratio_for_function,
        regret_ratio_sampled,
    )

__all__ = [
    "rank_regret_for_function",
    "rank_regret_exact_2d",
    "rank_regret_sampled",
    "regret_ratio_for_function",
    "regret_ratio_sampled",
    "DEFAULT_NUM_FUNCTIONS",
    "evaluate_representative",
    "RepresentativeReport",
    "kset_upper_bound",
    "trivial_kset_bound",
    "RegretDistribution",
    "rank_regret_distribution",
    "worst_functions",
]

lazy_exports(__name__)
