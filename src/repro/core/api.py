"""Unified front door for computing rank-regret representatives.

:func:`rank_regret_representative` dispatches to the right algorithm for
the instance and wraps the output with its theoretical guarantee, so
downstream users do not need to know the per-algorithm APIs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.levels import resolve_k
from repro.core.mdrc import mdrc
from repro.core.mdrrr import md_rrr
from repro.core.rrr2d import two_d_rrr
from repro.datasets.base import Dataset
from repro.exceptions import ValidationError

__all__ = ["RRRResult", "rank_regret_representative", "resolve_k"]


@dataclass(frozen=True)
class RRRResult:
    """A computed rank-regret representative.

    Attributes
    ----------
    indices:
        Sorted row indices of the representative.
    method:
        Algorithm that produced it (``"2drrr"`` | ``"mdrrr"`` | ``"mdrc"``).
    k:
        The requested rank-regret level.
    guarantee:
        The proven upper bound on the rank-regret of this output:
        ``2k`` for 2DRRR (Theorem 4), ``k`` for MDRRR over the collected
        k-sets (§5.2), ``d·k`` for MDRC (Theorem 6).
    """

    indices: tuple[int, ...]
    method: str
    k: int
    guarantee: int

    @property
    def size(self) -> int:
        """Number of representative tuples."""
        return len(self.indices)


def _extract(data: Dataset | np.ndarray) -> np.ndarray:
    if isinstance(data, Dataset):
        if not data.is_normalized:
            data = data.normalized()
        return data.values
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("data must be a Dataset or an (n, d) matrix")
    return matrix


def rank_regret_representative(
    data: Dataset | np.ndarray,
    k: int | float,
    method: str = "auto",
    rng: int | np.random.Generator | None = None,
    jobs: int | None = None,
    tune=None,
    **options: object,
) -> RRRResult:
    """Compute a k-RRR of ``data`` (the paper's headline operation).

    Parameters
    ----------
    data:
        A :class:`~repro.datasets.Dataset` (normalized automatically when
        needed) or a raw ``(n, d)`` matrix assumed normalized.
    k:
        Rank-regret level — absolute (int) or a fraction of n (float in
        (0,1)), e.g. ``0.01`` for the paper's default "top-1%".
    method:
        ``"auto"`` (2DRRR in 2-D, MDRC otherwise — the paper's practical
        recommendation, §8), or explicitly ``"2drrr"``, ``"mdrrr"``,
        ``"mdrc"``.
    rng:
        Seed/generator for the randomized pieces (MDRRR's K-SETr).
    jobs:
        Workers for the engine-backed scoring inside MDRC and MDRRR
        (``None``/``1`` = serial, ``-1`` = all cores).  Results are
        bit-identical to the serial path; 2DRRR's sweep is inherently
        sequential and ignores it.
    tune:
        Engine runtime tuning (``None`` or a
        :class:`~repro.engine.TuningProfile`, e.g. loaded from the CLI's
        ``--tuning-profile`` JSON).  Bit-identical results either way.
    options:
        Forwarded to the chosen algorithm (e.g. ``enumerator=`` and
        ``hitting=`` for MDRRR, ``max_depth=`` / ``choice=`` for MDRC,
        ``strategy=`` for 2DRRR).
    """
    matrix = _extract(data)
    n, d = matrix.shape
    level = resolve_k(k, n)
    if method == "auto":
        method = "2drrr" if d == 2 else "mdrc"
    if method == "2drrr":
        if d != 2:
            raise ValidationError("2drrr requires 2-dimensional data")
        indices = two_d_rrr(matrix, level, **options)
        return RRRResult(tuple(indices), "2drrr", level, guarantee=2 * level)
    if method == "mdrrr":
        outcome = md_rrr(matrix, level, rng=rng, jobs=jobs, tune=tune, **options)
        return RRRResult(tuple(outcome.indices), "mdrrr", level, guarantee=level)
    if method == "mdrc":
        if d < 2:
            raise ValidationError("mdrc requires d >= 2")
        outcome = mdrc(matrix, level, jobs=jobs, tune=tune, **options)
        return RRRResult(tuple(outcome.indices), "mdrc", level, guarantee=d * level)
    raise ValidationError(f"unknown method {method!r}")
