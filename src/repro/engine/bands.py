"""Exactness bands: when a floating-point score comparison can be trusted.

Every tier of :class:`~repro.engine.ScoreEngine` and every maintained view
promises the scalar ``top_k``/``rank_of`` answer, so each decides a
comparison from its own scores only when no rounding could flip it.  One
bound serves them all.  Any summation order of a d-term dot product
(GEMV, blocked GEMM, FMA) in a precision with unit roundoff ``u =
eps/2`` errs by at most ``γ_d·Σ|w_i x_i|`` with ``γ_d = d·u/(1 − d·u)``,
and by Cauchy–Schwarz ``Σ|w_i x_i| ≤ ‖w‖·max‖x‖ =: noise``.  The bound
scales with the function and the largest row, never with the score,
which cancellation (mixed-sign weights, near-equal or near-opposite
columns) can shrink far below it.  A band scaled by the scores misses
exactly those cases.

* :func:`tol` is the contested half-width ``ULPS·eps(tier)·noise``,
  widened by ``d/31`` past 31 attributes (``d/61`` past 61 in float32).
  Two tier scores further apart than it are ordered the same way by the
  scalar float64 kernel: each side errs by at most ``γ_d·noise`` in the
  tier and again in the scalar kernel, ``4·γ_d·noise`` in all in
  float64 and ``2·(γ_{d+2} + γ_d^{64})·noise`` in float32 (casting ``w``
  and ``x`` adds one rounding each).  ``ULPS = 64`` covers that up to
  d = 31 (d = 61 in float32), and the widening keeps it covered for any
  d.  Closer pairs fall to the next tier.
* :func:`floor` puts a pruning threshold ``PRUNE`` bands below an anchor
  (a k-th score, a subset's best score), so the float upper bounds that
  prune rows cannot drop a row the exact order keeps.
* :func:`f32_unsafe` is the float32 range guard.  The bound above holds
  only while ``‖w‖``, ``max‖x‖`` and their product are normal and finite
  in float32.  Below that range a cast or product underflows by more
  than the band (which may itself flush to zero); above it a score
  overflows to inf, and ``inf > inf`` is False.  The rank count is the
  one float32 tier; it counts flagged functions with the scalar kernel.
* :func:`robust_margin` and :func:`robust_eligible` serve the k-skyband.
  Row q robustly dominates p when ``q_j > fl(p_j + δ)`` in every
  coordinate, ``δ = ROBUST_MARGIN·d·eps·max|x|``.  For ``w ≥ 0`` the
  exact gap ``w·q − w·p`` is then at least ``(4d − 1)·eps·max|x|·Σw``,
  more than twice ``γ_d·Σw·max|x|``, so q scores strictly above p in any
  summation order, provided δ is normal, ``δ·Σw`` sits far above the
  subnormal range and no partial sum overflows.

The quantizer's integer envelope is a separate derivation and stays in
:mod:`repro.engine.quantize`.  None of these constants is tunable.
"""

from __future__ import annotations

import numpy as np

ULPS = 64.0
PRUNE = 4.0
# The largest d whose bound ULPS alone covers, in float64 and float32.
_ULPS_D64 = 31
_ULPS_D32 = 61
ROBUST_MARGIN = 4.0

_EPS64 = float(np.finfo(np.float64).eps)
_EPS32 = float(np.finfo(np.float32).eps)
_F32_MIN = float(np.finfo(np.float32).tiny) / _EPS32
_F32_MAX = float(np.finfo(np.float32).max) / 8.0
_ROBUST_FLOOR = float(np.finfo(np.float64).tiny) / _EPS64
_ROBUST_CEILING = float(np.finfo(np.float64).max) / 4.0


def tol(noise, d: int, f32: bool = False):
    """Contested half-width for d-term scores of the given ``‖w‖·max‖x‖``."""
    if f32:
        return ULPS * max(1.0, d / _ULPS_D32) * _EPS32 * noise
    return ULPS * max(1.0, d / _ULPS_D64) * _EPS64 * noise


def floor(anchor, noise, d: int, f32: bool = False):
    """A pruning threshold ``PRUNE`` contested bands below ``anchor``."""
    return anchor - PRUNE * tol(noise, d, f32)


def f32_unsafe(w_norms: np.ndarray, max_norm: float) -> np.ndarray:
    """Per function: whether ``‖w‖``, ``max‖x‖`` or their product leaves
    ``(tiny32/eps32, max32/8)``.  Exact zeros are exact and stay allowed."""
    lo, hi = _F32_MIN, _F32_MAX
    if max_norm >= hi or 0.0 < max_norm <= lo:
        return np.ones(w_norms.shape, dtype=bool)
    if max_norm > 0.0:
        # ‖w‖·max‖x‖ lies in (lo, hi) when ‖w‖ lies in (lo, hi)/max‖x‖.
        lo, hi = max(lo, lo / max_norm), min(hi, hi / max_norm)
    return (w_norms >= hi) | ((w_norms > 0.0) & (w_norms <= lo))


def robust_margin(d: int, max_abs: float) -> float:
    """The k-skyband's dominance margin δ for data with this ``max|x|``."""
    return ROBUST_MARGIN * d * _EPS64 * max_abs


def robust_eligible(W: np.ndarray, delta: float, max_abs: float) -> np.ndarray:
    """Per function: whether the robust k-skyband holds its top-k."""
    if not delta >= np.finfo(np.float64).tiny:
        return np.zeros(W.shape[0], dtype=bool)
    sums = W.sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            (W >= 0.0).all(axis=1)
            & (delta * sums >= _ROBUST_FLOOR)
            & (max_abs * sums <= _ROBUST_CEILING)
        )
