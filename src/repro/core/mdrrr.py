"""MDRRR: the hitting-set based multi-dimensional algorithm (§5.2).

By Lemma 5 the k-sets are exactly the possible top-k results, so a set of
tuples hitting every k-set has rank-regret at most k — and any set missing
a k-set entirely has rank-regret above k.  MDRRR therefore:

1. collects the k-sets — exactly (2-D sweep or the BFS of Algorithm 6) or
   via the randomized K-SETr sampler (Algorithm 4), which is what the
   paper's experiments run;
2. solves minimum hitting set over them — with the deterministic greedy
   (log-approximate) or the Brönnimann–Goodrich ε-net algorithm that
   Algorithm 3 describes verbatim.

Guarantees: rank-regret ≤ k over every function whose k-set was collected,
and an O(d log dc) output-size factor (§5.2 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.geometry.ksets import enumerate_ksets_2d, enumerate_ksets_bfs, sample_ksets
from repro.setcover.epsnet import epsnet_hitting_set
from repro.setcover.hitting_set import greedy_hitting_set

__all__ = ["MDRRRResult", "md_rrr", "collect_ksets"]


@dataclass
class MDRRRResult:
    """Output of :func:`md_rrr`.

    Attributes
    ----------
    indices:
        The representative (sorted row indices).
    ksets:
        The k-set collection the hitting set was solved over: K-SETr's
        :class:`~repro.geometry.ksets.KSetCollection` as it came, or a
        list of frozensets (exact enumerators, provided k-sets, or a
        verification pass that added k-sets).
    enumerator:
        Which k-set collection strategy produced them.
    sample_draws:
        Random functions drawn when the enumerator was ``"sample"`` (0 otherwise).
    """

    indices: list[int]
    ksets: Sequence[frozenset[int]] = field(repr=False, default_factory=list)
    enumerator: str = "sample"
    sample_draws: int = 0


def collect_ksets(
    values: np.ndarray,
    k: int,
    enumerator: str = "auto",
    patience: int = 100,
    rng: int | np.random.Generator | None = None,
    jobs: int | None = None,
    tune=None,
    engine=None,
    kset_state=None,
) -> tuple[Sequence[frozenset[int]], str, int]:
    """Collect the k-sets of ``values`` with the requested strategy.

    ``"auto"`` uses the exact 2-D sweep when d = 2 and K-SETr otherwise —
    mirroring §6.1 ("for 2D we implemented the ray-sweeping algorithm …
    instead, we apply the randomized algorithm K-SETr").  ``"exact"``
    forces exact enumeration (sweep in 2-D, LP-validated BFS otherwise);
    ``"sample"`` forces K-SETr.

    ``engine``/``kset_state`` pass straight through to
    :func:`~repro.geometry.ksets.sample_ksets` (the maintained-view
    replay path; only meaningful for the sampled enumerator).

    Returns (ksets, enumerator-used, random-draws).
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("values must be an (n, d) matrix")
    d = matrix.shape[1]
    if enumerator == "auto":
        enumerator = "exact" if d == 2 else "sample"
    if enumerator == "exact":
        if d == 2:
            return enumerate_ksets_2d(matrix, k), "exact-2d-sweep", 0
        return enumerate_ksets_bfs(matrix, k), "exact-bfs", 0
    if enumerator == "sample":
        outcome = sample_ksets(
            matrix, k, patience=patience, rng=rng, jobs=jobs, tune=tune,
            engine=engine, state=kset_state,
        )
        return outcome.ksets, "sample", outcome.draws
    raise ValidationError(f"unknown enumerator {enumerator!r}")


def md_rrr(
    values: np.ndarray,
    k: int,
    enumerator: str = "auto",
    hitting: str = "greedy",
    patience: int = 100,
    rng: int | np.random.Generator | None = None,
    ksets: Sequence[frozenset[int]] | None = None,
    verify_functions: int = 0,
    max_repair_rounds: int = 10,
    jobs: int | None = None,
    tune=None,
    engine=None,
    kset_state=None,
) -> MDRRRResult:
    """MDRRR (Algorithm 3): hitting set over the k-set collection.

    Parameters
    ----------
    values:
        ``(n, d)`` normalized matrix.
    k:
        Rank-regret level to guarantee.
    enumerator:
        k-set collection strategy: ``"auto"`` | ``"exact"`` | ``"sample"``
        (see :func:`collect_ksets`).  Ignored when ``ksets`` is given.
    hitting:
        ``"greedy"`` (deterministic, default) or ``"epsnet"`` — the
        Brönnimann–Goodrich iterative reweighting of Algorithm 3.
    patience:
        K-SETr termination patience ``c`` (paper default 100).
    rng:
        Seed or generator for K-SETr and the ε-net sampler.
    ksets:
        Pre-collected k-sets; pass these to reuse an enumeration across
        several hitting-set runs.
    verify_functions:
        When > 0, run a verification pass after the hitting set: draw this
        many fresh random functions and, for every one whose top-k the
        output misses (its rank, counted by the engine's
        :meth:`~repro.engine.ScoreEngine.rank_of_best_batch`, exceeds k),
        add that function's k-set to the collection and re-solve (repeat
        up to ``max_repair_rounds``).  The count runs on ``engine`` when
        one is given, else on one built here.  K-SETr can miss
        k-sets whose angular region is tiny — the paper notes this is
        "very unlikely" (§5.2.1), but tie-dense data makes it likelier;
        verification restores the observed always-≤-k behaviour of §6.2.
    max_repair_rounds:
        Cap on verification/repair iterations.
    jobs:
        Workers for K-SETr's batched scoring (``None``/``1`` = serial,
        ``-1`` = all cores); draws are bit-identical either way.
    engine / kset_state:
        Passed through to :func:`~repro.geometry.ksets.sample_ksets`
        when the sampled enumerator runs (``engine`` also counts the
        verification ranks) — the maintained-view replay
        path (:class:`repro.engine.views.MDRRRView`); bit-identical to a
        fresh run by the draw-state replay contract.
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("values must be an (n, d) matrix")
    k = int(k)
    if not 1 <= k <= matrix.shape[0]:
        raise ValidationError(f"k must be in [1, {matrix.shape[0]}], got {k}")
    draws = 0
    if ksets is None:
        collection, used, draws = collect_ksets(
            matrix, k, enumerator=enumerator, patience=patience, rng=rng,
            jobs=jobs, tune=tune, engine=engine, kset_state=kset_state,
        )
    else:
        collection, used = list(ksets), "provided"
    if hitting not in ("greedy", "epsnet"):
        raise ValidationError(f"unknown hitting strategy {hitting!r}")

    def solve(family: Sequence[frozenset[int]]) -> list[int]:
        if hitting == "greedy":
            return greedy_hitting_set(family)
        return epsnet_hitting_set(family, vc_dimension=matrix.shape[1], rng=rng)

    chosen = solve(collection)
    if verify_functions > 0:
        from repro.engine import ScoreEngine
        from repro.ranking.sampling import sample_functions
        from repro.ranking.topk import top_k_set

        collection = list(collection)
        # One fixed verification panel: every repair round re-checks the
        # same functions, so re-solving cannot silently reintroduce a
        # violation caught earlier.
        weights = sample_functions(matrix.shape[1], verify_functions, rng)
        if engine is not None:
            engine.compact()  # settle journaled row mutations before validating
            if engine.n != matrix.shape[0]:
                raise ValidationError("engine was built over a different matrix")
        checker = engine if engine is not None else ScoreEngine(matrix, n_jobs=jobs, tune=tune)
        known: set[frozenset[int]] = set(collection)
        try:
            for _ in range(max_repair_rounds):
                # The engine's exact, blocked rank count: no (n, N) score
                # matrix, however large the panel.  A function is violated
                # when the representative's best row ranks past k.
                ranks = checker.rank_of_best_batch(weights, sorted(chosen))
                violated = np.flatnonzero(ranks > k)
                if violated.size == 0:
                    break
                for column in violated:
                    kset = top_k_set(matrix, weights[column], k)
                    if kset not in known:
                        known.add(kset)
                        collection.append(kset)
                chosen = solve(collection)
        finally:
            if checker is not engine:
                checker.close()
    return MDRRRResult(
        indices=sorted(int(i) for i in chosen),
        ksets=collection,
        enumerator=used,
        sample_draws=draws,
    )
