"""Rank-regret and regret-ratio measurement.

The paper measures effectiveness as the *rank-regret* of an output set
(Definitions 1–2).  Computing it exactly requires the dual arrangement,
which "is not scalable to large settings", so §6.1 estimates it with
10,000 uniformly sampled functions; in 2-D the ray sweep gives the exact
value.  Both are implemented here, plus the score-based regret-ratio used
to evaluate the HD-RRMS baseline on its own terms.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.engine import ScoreEngine
from repro.exceptions import ValidationError
from repro.geometry.sweep import AngularSweep
from repro.ranking.sampling import sample_functions
from repro.ranking.topk import rank_of

__all__ = [
    "rank_regret_for_function",
    "rank_regret_exact_2d",
    "rank_regret_sampled",
    "regret_ratio_for_function",
    "regret_ratio_sampled",
]

DEFAULT_NUM_FUNCTIONS = 10_000  # paper §6.1


def _validate_subset(n: int, subset: Iterable[int]) -> list[int]:
    members = sorted({int(i) for i in subset})
    if not members:
        raise ValidationError("subset must be non-empty")
    if members[0] < 0 or members[-1] >= n:
        raise ValidationError("subset indices out of range")
    return members


def rank_regret_for_function(
    values: np.ndarray, subset: Iterable[int], weights: np.ndarray
) -> int:
    """RR_f(X): the best (minimum) rank any member of ``subset`` achieves
    under the function ``weights`` (Definition 1)."""
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("values must be an (n, d) matrix")
    members = _validate_subset(matrix.shape[0], subset)
    return min(rank_of(matrix, weights, i) for i in members)


def rank_regret_exact_2d(values: np.ndarray, subset: Iterable[int]) -> int:
    """Exact RR_L(X) for 2-D data via the angular sweep (§6.2, "we use the
    ray sweeping to find out the (exact) rank regret of a set in 2D").

    Maintains the best (minimum) subset position *incrementally* across
    sweep events instead of re-scanning the whole subset each time a
    member is touched.  Each event is an adjacent transposition at
    position ``p`` (``upper`` drops to ``p + 1``, ``lower`` rises to
    ``p``), so the best member position changes in O(1):

    * both endpoints are members — positions ``p``/``p + 1`` stay
      member-occupied, the minimum is unchanged;
    * only ``upper`` is a member — the minimum can only degrade when
      ``upper`` *was* the best member (at ``p``); the non-member
      ``lower`` now holds ``p`` and every other member sits at
      ``≥ p + 2``, so the new best is exactly ``p + 1``;
    * only ``lower`` is a member — it rose to ``p``, so the best is
      ``min(best, p)``.

    Returns the worst value attained over the whole sweep, 1-indexed.
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != 2:
        raise ValidationError("rank_regret_exact_2d expects an (n, 2) matrix")
    members = _validate_subset(matrix.shape[0], subset)
    member_set = set(members)
    sweep = AngularSweep(matrix)
    current = min(int(sweep.position[i]) for i in members)
    worst = current
    for event in sweep.events():
        upper_in = event.upper in member_set
        lower_in = event.lower in member_set
        if upper_in and not lower_in:
            if event.position == current:
                current += 1
                if current > worst:
                    worst = current
        elif lower_in and not upper_in:
            if event.position < current:
                current = event.position
    return worst + 1


def rank_regret_sampled(
    values: np.ndarray,
    subset: Iterable[int],
    num_functions: int = DEFAULT_NUM_FUNCTIONS,
    rng: int | np.random.Generator | None = None,
    return_distribution: bool = False,
    jobs: int | None = None,
    backend: str = "auto",
    tune=None,
    policy=None,
    engine: ScoreEngine | None = None,
) -> int | np.ndarray:
    """Monte-Carlo estimate of RR_L(X) over uniformly sampled functions.

    Mirrors the paper's §6.1 estimator (default 10,000 draws).  With
    ``return_distribution`` the per-function rank-regrets are returned
    instead of their maximum — useful for percentile reporting.

    Counting runs through
    :meth:`repro.engine.ScoreEngine.rank_of_best_batch`: pruned float32
    counting over a provably sufficient prefix of the norm/attribute
    orderings (flat peak memory however many functions are requested)
    with an ulp band around the subset's best score that is re-verified
    in exact float64, so blocked-BLAS noise between (near-)identical
    rows cannot inflate a rank — the estimator agrees with the scalar
    :func:`repro.ranking.topk.rank_of` even on degenerate data.
    ``jobs``/``backend`` fan the counting out over the engine's
    worker pool (``None``/``1`` = serial, ``-1`` = all cores; thread,
    process or auto backend) with bit-identical results.  Pass a
    pre-built ``engine`` over the same matrix to reuse its
    pool/orderings across calls (``jobs``/``backend`` are then ignored
    — the engine keeps its own configuration).
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("values must be an (n, d) matrix")
    if num_functions < 1:
        raise ValidationError("num_functions must be >= 1")
    members = _validate_subset(matrix.shape[0], subset)
    weights = sample_functions(matrix.shape[1], num_functions, rng)
    if engine is not None:
        engine.compact()  # settle journaled row mutations before validating
        if engine.n != matrix.shape[0]:
            raise ValidationError("engine was built over a different matrix")
        regrets = engine.rank_of_best_batch(weights, members)
    else:
        with ScoreEngine(
            matrix, n_jobs=jobs, backend=backend, tune=tune, resilience=policy
        ) as own:
            regrets = own.rank_of_best_batch(weights, members)
    if return_distribution:
        return regrets
    return int(regrets.max())


def regret_ratio_for_function(
    values: np.ndarray, subset: Iterable[int], weights: np.ndarray
) -> float:
    """Score-based regret-ratio of ``subset`` for one function:
    ``(max_D f − max_X f) / max_D f`` (§1)."""
    matrix = np.asarray(values, dtype=np.float64)
    members = _validate_subset(matrix.shape[0], subset)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    scores = matrix @ w
    top = float(scores.max())
    if top <= 0:
        return 0.0
    return max(0.0, (top - float(scores[members].max())) / top)


def regret_ratio_sampled(
    values: np.ndarray,
    subset: Iterable[int],
    num_functions: int = 1000,
    rng: int | np.random.Generator | None = None,
    jobs: int | None = None,
    backend: str = "auto",
    tune=None,
    policy=None,
    engine: ScoreEngine | None = None,
) -> float:
    """Monte-Carlo maximum regret-ratio of ``subset`` over sampled functions.

    ``engine`` as in :func:`rank_regret_sampled`.
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("values must be an (n, d) matrix")
    if num_functions < 1:
        raise ValidationError("num_functions must be >= 1")
    members = _validate_subset(matrix.shape[0], subset)
    weights = sample_functions(matrix.shape[1], num_functions, rng)
    if engine is not None:
        engine.compact()  # settle journaled row mutations before validating
        if engine.n != matrix.shape[0]:
            raise ValidationError("engine was built over a different matrix")
        score_matrix = engine.score_batch(weights)
    else:
        with ScoreEngine(
            matrix, n_jobs=jobs, backend=backend, tune=tune, resilience=policy
        ) as own:
            score_matrix = own.score_batch(weights)
    top = score_matrix.max(axis=0)
    achieved = score_matrix[members].max(axis=0)
    safe_top = np.where(top > 0, top, 1.0)
    ratios = np.clip((top - achieved) / safe_top, 0.0, None)
    return float(ratios.max())
