"""Summary metrics for representative sets.

One call — :func:`evaluate_representative` — produces everything the
paper's effectiveness plots report for a candidate set: its size, its
(estimated or exact) rank-regret, whether it meets the requested k, and
the score-based regret-ratio for cross-comparison with the regret-ratio
literature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.engine import ScoreEngine
from repro.evaluation.regret import (
    rank_regret_exact_2d,
    rank_regret_sampled,
    regret_ratio_sampled,
)
from repro.exceptions import ValidationError

__all__ = ["RepresentativeReport", "evaluate_representative"]


@dataclass(frozen=True)
class RepresentativeReport:
    """Effectiveness summary for one representative set.

    Attributes
    ----------
    size:
        Number of tuples in the set.
    rank_regret:
        Measured RR_L (exact in 2-D when ``exact=True``, else Monte-Carlo).
    meets_k:
        ``rank_regret <= k`` for the requested k.
    regret_ratio:
        Monte-Carlo maximum score regret-ratio of the set.
    exact:
        Whether ``rank_regret`` is exact (2-D sweep) or sampled.
    """

    size: int
    rank_regret: int
    meets_k: bool
    regret_ratio: float
    exact: bool


def evaluate_representative(
    values: np.ndarray,
    subset: Iterable[int],
    k: int,
    exact: bool | None = None,
    num_functions: int = 10_000,
    rng: int | np.random.Generator | None = 0,
    jobs: int | None = None,
    backend: str = "auto",
    tune=None,
    policy=None,
    engine: ScoreEngine | None = None,
) -> RepresentativeReport:
    """Measure a representative set the way the paper's §6 does.

    ``exact=None`` (default) picks the exact 2-D sweep when d = 2 and the
    sampled estimator otherwise; pass True/False to force either.
    ``jobs``/``backend`` fan the Monte-Carlo measurements out over
    the engine's worker pool (``None``/``1`` = serial, ``-1`` = all
    cores; thread, process or auto backend).  Pass a pre-built
    ``engine`` over the same matrix to reuse its pool/orderings across
    calls.
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("values must be an (n, d) matrix")
    members = sorted({int(i) for i in subset})
    if not members:
        raise ValidationError("subset must be non-empty")
    use_exact = (matrix.shape[1] == 2) if exact is None else bool(exact)
    # One engine serves both Monte-Carlo estimators, so the pool /
    # shared-memory copy / pruning orderings are paid for once per call
    # (or once per Session, when the caller shares a long-lived engine).
    own_engine = engine is None
    if engine is None:
        engine = ScoreEngine(
            matrix, n_jobs=jobs, backend=backend, tune=tune, resilience=policy
        )
    else:
        engine.compact()  # settle journaled row mutations before validating
        if engine.n != matrix.shape[0]:
            raise ValidationError("engine was built over a different matrix")
    try:
        if use_exact:
            if matrix.shape[1] != 2:
                raise ValidationError("exact rank-regret is only available in 2-D")
            regret = rank_regret_exact_2d(matrix, members)
        else:
            regret = int(
                rank_regret_sampled(
                    matrix, members, num_functions=num_functions, rng=rng,
                    engine=engine,
                )
            )
        ratio = regret_ratio_sampled(
            matrix, members, num_functions=min(num_functions, 1000), rng=rng,
            engine=engine,
        )
    finally:
        if own_engine:
            engine.close()
    return RepresentativeReport(
        size=len(members),
        rank_regret=int(regret),
        meets_k=int(regret) <= int(k),
        regret_ratio=float(ratio),
        exact=use_exact,
    )
