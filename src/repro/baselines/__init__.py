"""Baselines the paper compares against: HD-RRMS, Cube, greedy regret,
and the order-1 maxima representations.

Each export loads its module on first use (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.cube import cube
    from repro.baselines.greedy_regret import greedy_regret
    from repro.baselines.hd_rrms import HDRRMSResult, hd_rrms
    from repro.baselines.maxima import convex_hull_representative, skyline_representative

__all__ = [
    "hd_rrms",
    "HDRRMSResult",
    "cube",
    "greedy_regret",
    "convex_hull_representative",
    "skyline_representative",
]

lazy_exports(__name__)
