"""Geometric substrate: dual space, sweeps, hulls, skylines, k-sets.

Each export loads its module on first use (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.geometry.arrangement import (
        BorderSegment,
        exact_topk_intervals,
        k_border_segments,
        rank_at_angle_profile,
        topk_region_measure,
    )
    from repro.geometry.dual import (
        crossing_angle_2d,
        dual_hyperplane,
        order_along_ray,
        ray_intersection_distance,
    )
    from repro.geometry.halfspace import (
        best_for_some_function,
        is_k_set,
        is_separable,
        separating_function,
    )
    from repro.geometry.hull import convex_hull, convex_hull_2d, maxima_representation
    from repro.geometry.ksets import (
        KSetCollection,
        KSetDrawState,
        KSetSampleResult,
        enumerate_ksets_2d,
        enumerate_ksets_bfs,
        kset_graph_edges,
        sample_ksets,
    )
    from repro.geometry.skyline import (
        dominance_count,
        dominates,
        skyline,
        skyline_bnl,
        skyline_sfs,
    )
    from repro.geometry.sweep import AngularSweep, SweepEvent, initial_order_2d

__all__ = [
    "BorderSegment",
    "k_border_segments",
    "exact_topk_intervals",
    "topk_region_measure",
    "rank_at_angle_profile",
    "dual_hyperplane",
    "ray_intersection_distance",
    "order_along_ray",
    "crossing_angle_2d",
    "AngularSweep",
    "SweepEvent",
    "initial_order_2d",
    "convex_hull",
    "convex_hull_2d",
    "maxima_representation",
    "separating_function",
    "is_separable",
    "is_k_set",
    "best_for_some_function",
    "skyline",
    "skyline_bnl",
    "skyline_sfs",
    "dominates",
    "dominance_count",
    "enumerate_ksets_2d",
    "sample_ksets",
    "KSetCollection",
    "KSetDrawState",
    "KSetSampleResult",
    "enumerate_ksets_bfs",
    "kset_graph_edges",
]

lazy_exports(__name__)
