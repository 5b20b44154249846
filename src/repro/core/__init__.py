"""Core RRR algorithms: 2DRRR, MDRRR, MDRC, and the unified API.

Each export loads its module on first use (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.api import RRRResult, rank_regret_representative
    from repro.core.dual_problem import SizeBudgetResult, min_rank_regret_of_size
    from repro.core.exact import exact_rrr_2d, exact_rrr_via_ksets
    from repro.core.generic import WorkloadRRRResult, workload_rrr
    from repro.core.levels import resolve_k
    from repro.core.mdrc import CornerCache, MDRCResult, mdrc
    from repro.core.mdrrr import MDRRRResult, collect_ksets, md_rrr
    from repro.core.rrr2d import TopKRanges, find_ranges, two_d_rrr

__all__ = [
    "rank_regret_representative",
    "RRRResult",
    "resolve_k",
    "min_rank_regret_of_size",
    "SizeBudgetResult",
    "find_ranges",
    "TopKRanges",
    "two_d_rrr",
    "md_rrr",
    "MDRRRResult",
    "collect_ksets",
    "mdrc",
    "MDRCResult",
    "CornerCache",
    "exact_rrr_2d",
    "exact_rrr_via_ksets",
    "workload_rrr",
    "WorkloadRRRResult",
]

lazy_exports(__name__)
