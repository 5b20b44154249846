"""Top-k evaluation and rank computation under linear ranking functions.

The paper assumes a total order: "through applying any arbitrary
tie-breaker, no two tuples in the database have the same score" (§2).
We realize that tie-breaker deterministically: ties in score are broken by
smaller row index first.  Every function here honors it, so ranks are
always unique and reproducible.

This module is the *scalar* (one-function-at-a-time) interface.  Anything
that scores many functions against the same matrix — MDRC corners, K-SETr
batches, workload logs, Monte-Carlo estimators — should go through
:class:`repro.engine.ScoreEngine` instead, which serves the identical
semantics via one chunked GEMM per batch plus packed-bitset set
operations; :func:`batch_top_k_sets` below is a thin wrapper over it.
The engine's equivalence to these scalar functions is pinned by the
property tests in ``tests/engine/``.
"""

from __future__ import annotations

import numpy as np

from repro.engine import ScoreEngine
from repro.exceptions import ValidationError

__all__ = [
    "scores",
    "ranking",
    "top_k",
    "top_k_set",
    "ranks",
    "rank_of",
    "batch_top_k_sets",
]


def _validate(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if values.ndim != 2:
        raise ValidationError(f"values must be an (n, d) matrix, got {values.shape}")
    if weights.size != values.shape[1]:
        raise ValidationError(
            f"weight vector has {weights.size} entries for {values.shape[1]} attributes"
        )
    if not np.isfinite(weights).all():
        raise ValidationError("weights must be finite (no NaN or inf)")
    return values, weights


def _validate_k(k: int, n: int) -> int:
    k = int(k)
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, n]={n}, got {k}")
    return k


def scores(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Score every tuple: ``values @ weights``."""
    values, weights = _validate(values, weights)
    return values @ weights


def ranking(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Return all row indices ordered best-first (score desc, index asc)."""
    values, weights = _validate(values, weights)
    score = values @ weights
    n = score.size
    # lexsort's last key is primary: sort by -score, break ties by index.
    return np.lexsort((np.arange(n), -score))


def top_k(values: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-k tuples, best first.

    Uses ``argpartition`` for large ``n`` so a single top-k probe is
    ``O(n + k log k)`` — this is the inner loop of K-SETr and MDRC.
    """
    values, weights = _validate(values, weights)
    n = values.shape[0]
    k = _validate_k(k, n)
    score = values @ weights
    if k >= n:
        candidates = np.arange(n)
    else:
        # Over-select to make index tie-breaking exact at the k boundary:
        # take everything scoring >= the k-th largest score, then order.
        kth = np.partition(score, n - k)[n - k]
        candidates = np.flatnonzero(score >= kth)
    order = np.lexsort((candidates, -score[candidates]))
    return candidates[order[:k]]


def top_k_set(values: np.ndarray, weights: np.ndarray, k: int) -> frozenset[int]:
    """The top-k as a frozenset of row indices (the k-set of the function)."""
    return frozenset(int(i) for i in top_k(values, weights, k))


def ranks(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """1-indexed rank of every tuple under ``weights`` (paper's ∇_f).

    ``ranks(...)[i] == r`` means exactly ``r − 1`` tuples outrank tuple ``i``.
    """
    order = ranking(values, weights)
    result = np.empty(order.size, dtype=np.int64)
    result[order] = np.arange(1, order.size + 1)
    return result


def rank_of(values: np.ndarray, weights: np.ndarray, index: int) -> int:
    """1-indexed rank ∇_f(t) of the tuple at ``index``.

    Computed in O(n) without sorting: count strictly-better tuples plus
    equal-score tuples with a smaller index (the deterministic tie-breaker).
    The engine's rank of a subset's best member counts strictly-better
    rows only, so on exact ties it can be smaller than the minimum of
    this rank over the members; see
    :meth:`repro.engine.ScoreEngine._verified_rank`.
    """
    values, weights = _validate(values, weights)
    n = values.shape[0]
    if not 0 <= index < n:
        raise ValidationError(f"index must be in [0, {n}), got {index}")
    score = values @ weights
    mine = score[index]
    better = int(np.count_nonzero(score > mine))
    tied_before = int(np.count_nonzero(score[:index] == mine))
    return better + tied_before + 1


def batch_top_k_sets(
    values: np.ndarray, weight_matrix: np.ndarray, k: int
) -> list[frozenset[int]]:
    """Top-k sets for many functions at once.

    ``weight_matrix`` has one weight vector per row.  Delegates to
    :meth:`repro.engine.ScoreEngine.topk_batch` — one chunked GEMM plus a
    per-column ``argpartition`` — and materializes the rows as frozensets
    for hitting-set consumers.  Callers that can work on packed bitsets
    (dedup, intersection) should use the engine directly and skip the
    frozenset conversion entirely.
    """
    values = np.asarray(values, dtype=np.float64)
    weight_matrix = np.asarray(weight_matrix, dtype=np.float64)
    if weight_matrix.ndim != 2:
        raise ValidationError("weight_matrix must be 2-dimensional")
    if weight_matrix.shape[1] != values.shape[1]:
        raise ValidationError(
            f"weight vectors have {weight_matrix.shape[1]} entries for "
            f"{values.shape[1]} attributes"
        )
    n = values.shape[0]
    k = _validate_k(k, n)
    order = ScoreEngine(values).topk_batch(weight_matrix, k).order
    return [frozenset(int(i) for i in row) for row in order]
