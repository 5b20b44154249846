"""Linear ranking substrate: functions, top-k evaluation, sampling.

Each export loads its module on first use (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.ranking.functions import (
        LinearFunction,
        angles_from_weights,
        weights_from_angles,
    )
    from repro.ranking.onion import OnionIndex
    from repro.ranking.sampling import FunctionStream, grid_functions, sample_functions
    from repro.ranking.topk import (
        batch_top_k_sets,
        rank_of,
        ranking,
        ranks,
        scores,
        top_k,
        top_k_set,
    )

__all__ = [
    "LinearFunction",
    "weights_from_angles",
    "angles_from_weights",
    "sample_functions",
    "FunctionStream",
    "grid_functions",
    "scores",
    "ranking",
    "top_k",
    "top_k_set",
    "ranks",
    "rank_of",
    "batch_top_k_sets",
    "OnionIndex",
]

lazy_exports(__name__)
