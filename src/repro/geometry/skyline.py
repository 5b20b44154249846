"""Skyline (Pareto-optimal set) operators.

The skyline is the maxima representation for the class of all *monotonic*
ranking functions (§1–2): no tuple outside it can be top-1 for any
monotone preference.  The paper uses it as the motivating "too big"
representative; we implement the two classic algorithms so the examples
and benchmarks can contrast skyline size against RRR output size.

All operators assume higher-is-better on every attribute (normalize first).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "dominates",
    "skyline_bnl",
    "skyline_sfs",
    "skyline",
    "dominance_count",
    "robust_skyband",
]

# Set bits of every byte value (``np.bitwise_count`` needs NumPy >= 2.0).
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
# robust_skyband: stage-1 pivots (the largest-sum rows), and the rows and
# dominators handled per block, which bounds the bitset tables' memory.
_PIVOTS = 1024
_BLOCK = 1024


def _as_points(values: np.ndarray) -> np.ndarray:
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("expected an (n, d) matrix")
    return matrix


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` dominates ``b``: ≥ everywhere and > somewhere."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ValidationError("points must have the same dimension")
    return bool(np.all(a >= b) and np.any(a > b))


def skyline_bnl(values: np.ndarray) -> np.ndarray:
    """Skyline via Block-Nested-Loop (Borzsony et al.), returned sorted.

    Maintains a window of currently undominated tuples; each incoming tuple
    is compared against the window.  O(n²) worst case but fast when the
    skyline is small.  Duplicate points: the smallest row index is kept.
    """
    points = _as_points(values)
    window: list[int] = []
    for i in range(points.shape[0]):
        candidate = points[i]
        dominated = False
        survivors: list[int] = []
        for j in window:
            if dominated:
                survivors.append(j)
                continue
            other = points[j]
            if np.all(other >= candidate):
                # `other` dominates or duplicates `candidate`; earlier index wins.
                dominated = True
                survivors.append(j)
            elif np.all(candidate >= other) and np.any(candidate > other):
                continue  # candidate dominates `other`: drop it
            else:
                survivors.append(j)
        if not dominated:
            survivors.append(i)
        window = survivors
    return np.asarray(sorted(window), dtype=np.intp)


def skyline_sfs(values: np.ndarray) -> np.ndarray:
    """Skyline via Sort-Filter-Skyline, returned sorted.

    Pre-sorts by descending attribute sum so that a tuple can only be
    dominated by tuples seen earlier; each survivor needs one pass over the
    current skyline.  Same output as :func:`skyline_bnl`.
    """
    points = _as_points(values)
    n = points.shape[0]
    order = np.lexsort((np.arange(n), -points.sum(axis=1)))
    result: list[int] = []
    for idx in order:
        candidate = points[idx]
        dominated = False
        for j in result:
            other = points[j]
            if np.all(other >= candidate) and (
                np.any(other > candidate) or j < idx
            ):
                dominated = True
                break
        if not dominated:
            result.append(int(idx))
    return np.asarray(sorted(result), dtype=np.intp)


def skyline(values: np.ndarray) -> np.ndarray:
    """Default skyline operator (SFS)."""
    return skyline_sfs(values)


def dominance_count(values: np.ndarray) -> np.ndarray:
    """For each tuple, the number of tuples that dominate it.

    Useful diagnostic: tuples with count 0 form the skyline.
    """
    points = _as_points(values)
    n = points.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        ge = np.all(points >= points[i], axis=1)
        gt = np.any(points > points[i], axis=1)
        counts[i] = int(np.count_nonzero(ge & gt))
    return counts


def _robust_dominator_counts(
    points: np.ndarray, dominators: np.ndarray, delta: float
) -> np.ndarray:
    """Per row of ``points``, how many ``dominators`` rows robustly dominate it.

    A dominator ``q`` counts for row ``p`` when ``q_j > p_j + delta`` in
    every coordinate.  Per coordinate and block of dominators, sorting
    the block turns "dominators above ``p_j + delta``" into a suffix of
    the sorted column, and every suffix's membership bitset comes from
    one ``bitwise_or.accumulate``; one ``searchsorted`` finds each row's
    suffix, and the AND of its ``d`` suffix bitsets, popcounted, is its
    count within the block.  Rows are processed in blocks as well, so
    extra memory stays ``O(_BLOCK² / 8)`` bytes per coordinate.
    """
    n, d = points.shape
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, dominators.shape[0], _BLOCK):
        piv = dominators[lo : lo + _BLOCK]
        size = piv.shape[0]
        width = (size + 7) // 8
        ids = np.arange(size)
        columns, suffixes = [], []
        for j in range(d):
            order = np.argsort(piv[:, j], kind="stable")
            onehot = np.zeros((size + 1, width), dtype=np.uint8)
            onehot[ids, order >> 3] = np.left_shift(1, order & 7).astype(np.uint8)
            # suffixes[t] holds the dominators at sorted positions >= t;
            # the all-zero last row is the empty suffix.
            suffixes.append(np.bitwise_or.accumulate(onehot[::-1], axis=0)[::-1])
            columns.append(piv[order, j])
        for rlo in range(0, n, _BLOCK):
            rows = points[rlo : rlo + _BLOCK]
            acc = None
            for j in range(d):
                start = np.searchsorted(columns[j], rows[:, j] + delta, side="right")
                bits = suffixes[j][start]
                acc = bits if acc is None else np.bitwise_and(acc, bits, out=acc)
            counts[rlo : rlo + _BLOCK] += _POPCOUNT[acc].sum(axis=1, dtype=np.int64)
    return counts


def robust_skyband(
    values: np.ndarray,
    k: int,
    delta: float,
    *,
    limit: int | None = None,
) -> np.ndarray | None:
    """Rows robustly dominated by fewer than ``k`` rows, sorted ascending.

    Row ``q`` *robustly dominates* row ``p`` when ``q_j > p_j + delta``
    (the sum rounded to float64) in every coordinate.  The relation is a
    strict partial order for any ``delta >= 0``, so it is transitive and
    every row outside the k-skyband has at least ``k`` dominators inside
    it.  That makes two counting passes exact:

    1. count each row's dominators among the ~1,024 largest-sum rows
       and keep the rows with fewer than ``k`` (a superset of the band);
    2. count again among the survivors only.  A survivor in the band has
       fewer than ``k`` dominators anywhere; one outside it has ``k`` of
       them in the band, hence among the survivors.

    ``limit`` caps stage 1: when more than ``limit`` rows survive it,
    the band is too large to be worth finishing and ``None`` is
    returned.  With ``delta = 0`` the relation is plain strict
    dominance, which :class:`repro.engine.ScoreEngine` must not use for
    top-k candidates (see its module docstring for the margin).
    """
    points = _as_points(values)
    n = points.shape[0]
    k = int(k)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not delta >= 0.0:
        raise ValidationError(f"delta must be >= 0, got {delta!r}")
    sums = points.sum(axis=1)
    if n > _PIVOTS:
        head = np.argpartition(-sums, _PIVOTS)[:_PIVOTS]
    else:
        head = np.arange(n)
    survivors = np.flatnonzero(
        _robust_dominator_counts(points, points[head], delta) < k
    )
    if limit is not None and survivors.size > limit:
        return None
    if head.size < n:
        kept = points[survivors]
        survivors = survivors[_robust_dominator_counts(kept, kept, delta) < k]
    return survivors.astype(np.int64)
