"""Hitting-set solvers over finite set systems.

MDRRR (§5.2) reduces RRR to the *minimum hitting set* problem over the
collection of k-sets: pick the fewest tuples intersecting every k-set.
The problem is NP-complete [Karp 1972]; we provide:

* :func:`greedy_hitting_set` — the classic ln-approximation: repeatedly
  pick the element hitting the most unhit sets;
* :func:`exact_hitting_set` — exhaustive search by increasing size, for
  cross-checking approximation ratios on small instances in tests.

The ε-net based Brönnimann–Goodrich solver (what Algorithm 3 literally
runs) lives in :mod:`repro.setcover.epsnet`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import InfeasibleError, ValidationError

__all__ = ["greedy_hitting_set", "exact_hitting_set", "is_hitting_set"]


def _normalize(sets: Iterable[Iterable[int]]) -> list[frozenset[int]]:
    family = [frozenset(int(i) for i in s) for s in sets]
    for members in family:
        if not members:
            raise InfeasibleError("an empty set can never be hit")
    return family


def _flatten(sets: Iterable[Iterable[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Every member of every set once, and the index of its set.

    A family that holds its sets as one ``(K, k)`` array ``rows`` of
    distinct members per row (K-SETr's
    :class:`~repro.geometry.ksets.KSetCollection`) is read from that
    array.  Sets and frozensets are read as they are; other iterables
    are deduplicated first.
    """
    rows = getattr(sets, "rows", None)
    if isinstance(rows, np.ndarray):
        return rows.ravel(), np.repeat(np.arange(rows.shape[0]), rows.shape[1])
    family = [s if isinstance(s, (set, frozenset)) else frozenset(s) for s in sets]
    sizes = np.fromiter(map(len, family), dtype=np.int64, count=len(family))
    if (sizes == 0).any():
        raise InfeasibleError("an empty set can never be hit")
    members = np.fromiter(
        itertools.chain.from_iterable(family), dtype=np.int64, count=int(sizes.sum())
    )
    return members, np.repeat(np.arange(len(family)), sizes)


def is_hitting_set(sets: Iterable[Iterable[int]], chosen: Iterable[int]) -> bool:
    """True when ``chosen`` intersects every set in ``sets``."""
    picked = {int(i) for i in chosen}
    return all(picked & frozenset(int(i) for i in s) for s in sets)


def greedy_hitting_set(sets: Sequence[Iterable[int]]) -> list[int]:
    """Greedy minimum hitting set: O(log |sets|)-approximate.

    At every step selects the element contained in the largest number of
    not-yet-hit sets (ties: smallest element, for determinism).  Returns
    the chosen elements in selection order.

    The family is stored flat — every member once, beside the id of the
    set that owns it — so a pick is one ``bincount`` over the members of
    the still-unhit sets and one ``argmax`` over the sorted universe
    (whose first maximum is the smallest element).
    """
    members, owner = _flatten(sets)
    if not members.size:
        return []
    universe, element = np.unique(members, return_inverse=True)
    alive = np.ones(int(owner[-1]) + 1, dtype=bool)  # every set owns a member
    chosen: list[int] = []
    while element.size:
        best = int(np.argmax(np.bincount(element, minlength=universe.size)))
        chosen.append(int(universe[best]))
        alive[owner[element == best]] = False
        keep = alive[owner]
        element = element[keep]
        owner = owner[keep]
    return chosen


def exact_hitting_set(
    sets: Sequence[Iterable[int]], max_size: int | None = None
) -> list[int]:
    """Smallest hitting set by exhaustive search (testing/ground-truth only).

    Tries all candidate subsets of the participating elements in increasing
    size; exponential, so cap the instance or pass ``max_size``.
    """
    family = _normalize(sets)
    if not family:
        return []
    universe = sorted(set().union(*family))
    limit = len(universe) if max_size is None else int(max_size)
    if limit < 1:
        raise ValidationError("max_size must be >= 1")
    for size in range(1, limit + 1):
        for combo in itertools.combinations(universe, size):
            picked = set(combo)
            if all(picked & members for members in family):
                return list(combo)
    raise InfeasibleError(f"no hitting set of size <= {limit} exists")
