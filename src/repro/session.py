"""``repro.Session`` — one dataset, one engine, one coherent API.

The free functions (:func:`repro.mdrc`, :func:`repro.sample_ksets`,
:func:`repro.md_rrr`, :func:`repro.rank_regret_sampled`,
:func:`repro.evaluate_representative`) each accept a matrix and build a
throwaway :class:`~repro.engine.ScoreEngine` unless handed one
explicitly.  That is the right shape for scripts; for a long-lived
process — the CLI's ``--maintain`` loops, :mod:`repro.serve`, notebooks
iterating on one dataset — it repeats engine construction and
pruning-ordering builds on every call and leaves the caller to thread
the shared engine through by hand.

:class:`Session` owns that engine.  It is constructed once over a
matrix with the unified knob vocabulary (``jobs``, ``tune``), and
every method scores through the same engine: algorithms
(:meth:`mdrc`, :meth:`sample_ksets`, :meth:`md_rrr`), evaluation
(:meth:`rank_regret`, :meth:`evaluate`), raw batch queries
(:meth:`topk`, :meth:`rank_of_best`) and journaled mutations
(:meth:`insert_rows`, :meth:`delete_rows`).  Results are
bit-identical to the free functions over the same matrix — the engine
tier contract makes reuse observationally invisible.

Example::

    import repro

    with repro.Session(values, jobs=-1) as session:
        result = session.mdrc(k=10)
        report = session.evaluate(result.indices, k=10)
        session.insert_rows(new_rows)          # journaled delta
        refreshed = session.mdrc(k=10)         # same engine, repaired
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.engine import ScoreEngine, TopKBatch

__all__ = ["Session"]


class Session:
    """A facade owning one :class:`~repro.engine.ScoreEngine` per dataset.

    Parameters
    ----------
    values:
        ``(n, d)`` data matrix (rows are tuples, columns attributes).
    jobs:
        Worker count for every engine-backed call (``None``/``1`` =
        serial, ``-1`` = all cores; more than one fans large calls out
        over a thread pool).
    tune:
        ``None`` (defaults) or a :class:`~repro.engine.TuningProfile`
        (e.g. loaded with :meth:`~repro.engine.TuningProfile.load` from
        checksummed JSON written by :meth:`~repro.engine.TuningProfile.save`).

    The engine runs the default tier ladder, the same one
    ``ScoreEngine(values)`` and the free functions build, so a Session
    and a free function do the same work for the same answer.
    """

    def __init__(
        self,
        values: np.ndarray | None,
        *,
        jobs: int | None = None,
        tune=None,
    ) -> None:
        self._engine = ScoreEngine(values, n_jobs=jobs, tune=tune)

    # ------------------------------------------------------------------
    # introspection

    @property
    def engine(self) -> ScoreEngine:
        """The shared engine (for views, ``repro.serve``, diagnostics)."""
        return self._engine

    @property
    def values(self) -> np.ndarray:
        """Current data matrix (journaled mutations settled)."""
        self._engine.compact()
        return self._engine.values

    @property
    def n(self) -> int:
        self._engine.compact()
        return self._engine.n

    @property
    def d(self) -> int:
        return self._engine.d

    @property
    def revision(self) -> int:
        """Mutation revision counter (increments per insert/delete)."""
        return self._engine.revision

    @property
    def stats(self) -> dict:
        return self._engine.stats

    # ------------------------------------------------------------------
    # raw batch queries (the serving hot path)

    def topk(self, weights: np.ndarray, k: int) -> TopKBatch:
        """Batched top-k: one row of ``weights`` per ranking function."""
        return self._engine.topk_batch(weights, k)

    def rank_of_best(self, weights: np.ndarray, subset: Iterable[int]) -> np.ndarray:
        """Rank of the best ``subset`` member under each weight row."""
        return self._engine.rank_of_best_batch(weights, subset)

    # ------------------------------------------------------------------
    # algorithms

    def mdrc(self, k: int | float, **options):
        """MDRC over the session matrix (see :func:`repro.mdrc`)."""
        from repro.core.mdrc import mdrc

        return mdrc(self.values, self._level(k), engine=self._engine, **options)

    def sample_ksets(self, k: int | float, **options):
        """K-SETr draws over the session matrix (see :func:`repro.sample_ksets`)."""
        from repro.geometry.ksets import sample_ksets

        return sample_ksets(self.values, self._level(k), engine=self._engine, **options)

    def md_rrr(self, k: int | float, **options):
        """MDRRR over the session matrix (see :func:`repro.md_rrr`)."""
        from repro.core.mdrrr import md_rrr

        return md_rrr(self.values, self._level(k), engine=self._engine, **options)

    # ------------------------------------------------------------------
    # evaluation

    def rank_regret(self, subset: Iterable[int], **options) -> int | np.ndarray:
        """Sampled rank-regret of ``subset`` (see :func:`repro.rank_regret_sampled`)."""
        from repro.evaluation.regret import rank_regret_sampled

        return rank_regret_sampled(self.values, subset, engine=self._engine, **options)

    def evaluate(self, subset: Iterable[int], k: int | float, **options):
        """Full report for ``subset`` (see :func:`repro.evaluate_representative`)."""
        from repro.evaluation.metrics import evaluate_representative

        return evaluate_representative(
            self.values, subset, self._level(k), engine=self._engine, **options
        )

    # ------------------------------------------------------------------
    # mutations (journaled; queries after a mutation see the new matrix)

    def insert_rows(self, rows: np.ndarray) -> np.ndarray:
        """Append rows via the delta journal; returns their indices."""
        return self._engine.insert_rows(rows)

    def delete_rows(self, indices) -> int:
        """Delete rows by current index; returns the number removed."""
        return self._engine.delete_rows(indices)

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        self._engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(n={self._engine.n}, d={self._engine.d}, "
            f"revision={self._engine.revision})"
        )

    # ------------------------------------------------------------------

    def _level(self, k: int | float) -> int:
        """Resolve fractional ``k`` (top-1% style) against the live n."""
        from repro.core.levels import resolve_k

        return resolve_k(k, self._engine.n)
