"""Covering substrate: 1-D interval covering and hitting-set solvers.

Each export loads its module on first use (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.setcover.epsnet import epsnet_hitting_set
    from repro.setcover.hitting_set import (
        exact_hitting_set,
        greedy_hitting_set,
        is_hitting_set,
    )
    from repro.setcover.intervals import cover_segment, cover_segment_max_coverage

__all__ = [
    "cover_segment",
    "cover_segment_max_coverage",
    "greedy_hitting_set",
    "exact_hitting_set",
    "is_hitting_set",
    "epsnet_hitting_set",
]

lazy_exports(__name__)
