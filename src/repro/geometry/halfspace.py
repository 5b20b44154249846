"""Halfspace separability via linear programming.

Appendix B of the paper validates candidate k-sets with an LP (Eq. 4):
``S`` is a k-set iff some hyperplane ``h(ρ, v)`` with non-negative normal
``v`` has exactly the points of ``S`` strictly above it.  Equivalently —
and this is the form we solve — there is a weight vector ``v ≥ 0`` whose
score separates ``S`` from the rest with a positive margin.

We solve the *maximum-margin* variant so that feasibility is decided by
the sign of the optimum rather than by an arbitrary hard-coded epsilon:

    maximize    δ
    subject to  v·t ≥ s          for every t ∈ S
                v·t ≤ s − δ      for every t ∉ S
                Σ v_i = 1,  v ≥ 0,  δ ≤ 1

``S`` is strictly separable iff the optimal δ is positive.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import GeometryError, ValidationError

__all__ = [
    "separating_function",
    "is_separable",
    "is_k_set",
    "best_for_some_function",
]

_MARGIN_TOL = 1e-9


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first solve.

    scipy.optimize is the package's heaviest import by far, and only the
    exact LP tools reach this solver, so it is paid on their first call
    rather than at ``import repro``.  Kept as a module global so tests
    can patch the solver.
    """
    from scipy.optimize import linprog as solve  # deferred: heavy import

    return solve(*args, **kwargs)


def separating_function(
    values: np.ndarray, subset: Iterable[int]
) -> np.ndarray | None:
    """Weight vector putting ``subset`` strictly above the rest, or None.

    Returns a non-negative vector ``v`` with ``Σ v_i = 1`` such that
    ``min_{t∈S} v·t > max_{t∉S} v·t``, when one exists.  This is the LP of
    Eq. 4 in max-margin form (see module docstring).
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("values must be an (n, d) matrix")
    n, d = matrix.shape
    inside = sorted({int(i) for i in subset})
    if any(i < 0 or i >= n for i in inside):
        raise ValidationError("subset indices out of range")
    if not inside or len(inside) == n:
        # The empty set (0-set) and the full set are trivially separable.
        return np.full(d, 1.0 / d)
    inside_mask = np.zeros(n, dtype=bool)
    inside_mask[inside] = True
    points_in = matrix[inside_mask]
    points_out = matrix[~inside_mask]

    # Variables: v (d entries), s (threshold), delta (margin).
    num_vars = d + 2
    cost = np.zeros(num_vars)
    cost[-1] = -1.0  # maximize delta

    # Inequalities in A_ub @ x <= b_ub form.
    # For t in S:   s - v.t            <= 0
    # For t not S:  v.t - s + delta    <= 0
    rows_in = np.hstack(
        [-points_in, np.ones((points_in.shape[0], 1)), np.zeros((points_in.shape[0], 1))]
    )
    rows_out = np.hstack(
        [points_out, -np.ones((points_out.shape[0], 1)), np.ones((points_out.shape[0], 1))]
    )
    a_ub = np.vstack([rows_in, rows_out])
    b_ub = np.zeros(a_ub.shape[0])

    a_eq = np.zeros((1, num_vars))
    a_eq[0, :d] = 1.0
    b_eq = np.array([1.0])

    bounds = [(0.0, None)] * d + [(None, None), (None, 1.0)]
    result = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise GeometryError(f"separability LP failed: {result.message}")
    delta = -result.fun
    if delta <= _MARGIN_TOL:
        return None
    return np.asarray(result.x[:d], dtype=np.float64)


def is_separable(values: np.ndarray, subset: Iterable[int]) -> bool:
    """True when some non-negative linear function strictly separates ``subset``."""
    return separating_function(values, subset) is not None


def is_k_set(values: np.ndarray, subset: Iterable[int], k: int) -> bool:
    """True when ``subset`` is a k-set of ``values`` (|subset| = k and separable)."""
    members = {int(i) for i in subset}
    if len(members) != int(k):
        return False
    return is_separable(values, members)


def best_for_some_function(values: np.ndarray, index: int) -> bool:
    """True when tuple ``index`` is the unique top-1 of some function in L.

    Convenience wrapper: asks whether ``{index}`` is a 1-set.
    """
    return is_separable(values, [index])
