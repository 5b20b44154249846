"""k-set enumeration: exact 2-D sweep, randomized K-SETr, and graph BFS.

A *k-set* is a set of exactly k points strictly separable from the rest by
a hyperplane with non-negative normal (§5.1).  Lemma 5: the collection of
k-sets equals the collection of all possible top-k results over the linear
function class ``L`` — which is why hitting the k-sets solves RRR.

Three enumerators, mirroring the paper:

* :func:`enumerate_ksets_2d` — exact, follows the k-border with the
  angular sweep (the "ray sweeping algorithm similar to Algorithm 1", §6.2);
* :func:`sample_ksets` — K-SETr (Algorithm 4): coupon-collector sampling of
  random functions until no new k-set shows up for ``patience`` draws;
* :func:`enumerate_ksets_bfs` — Algorithm 6: BFS over the k-set graph with
  LP validity checks (exact but only practical for small n, as the paper
  notes in §5.2).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.engine import ScoreEngine
from repro.exceptions import InvalidDataError, ValidationError
from repro.geometry.halfspace import is_separable
from repro.geometry.sweep import AngularSweep
from repro.ranking.sampling import FunctionStream
from repro.ranking.topk import top_k_set

__all__ = [
    "enumerate_ksets_2d",
    "sample_ksets",
    "KSetCollection",
    "KSetDrawState",
    "KSetSampleResult",
    "enumerate_ksets_bfs",
    "kset_graph_edges",
]


def _validate(values: np.ndarray, k: int, d: int | None = None) -> tuple[np.ndarray, int]:
    try:
        matrix = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidDataError(
            f"values are not numeric (cannot convert to float64): {exc}"
        ) from None
    if matrix.ndim != 2:
        raise ValidationError("values must be an (n, d) matrix")
    if not np.all(np.isfinite(matrix)):
        raise InvalidDataError(
            "values contain NaN or Inf entries; k-set boundaries against "
            "NaN scores are meaningless — clean or impute the data first"
        )
    if d is not None and matrix.shape[1] != d:
        raise ValidationError(f"expected d={d}, got {matrix.shape[1]}")
    k = int(k)
    if not 1 <= k <= matrix.shape[0]:
        raise ValidationError(f"k must be in [1, {matrix.shape[0]}], got {k}")
    return matrix, k


def enumerate_ksets_2d(values: np.ndarray, k: int) -> list[frozenset[int]]:
    """All k-sets of a 2-D dataset, exactly, in sweep (angle) order.

    Sweeps θ from 0 to π/2 tracking the top-k prefix; the top-k changes
    exactly when an exchange crosses the k-border (positions k−1/k), and by
    Lemma 5 each distinct top-k along the way is a k-set — and every k-set
    of the positive-weight function class appears.
    """
    matrix, k = _validate(values, k, d=2)
    sweep = AngularSweep(matrix)
    collected: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    current = frozenset(int(i) for i in sweep.order[:k])
    collected.append(current)
    seen.add(current)
    for event in sweep.events():
        if event.position == k - 1:
            current = frozenset(int(i) for i in sweep.order[:k])
            if current not in seen:
                seen.add(current)
                collected.append(current)
    return collected


class KSetCollection(Sequence):
    """K-SETr's k-sets as one ``(K, k)`` array of sorted member rows.

    A read-only ``Sequence[frozenset[int]]`` in discovery order: indexing
    and iteration build each ``frozenset`` on access, and the collection
    compares equal, in order, to the list of frozensets it stands for
    (and to another collection with the same rows).  Ten thousand k-sets
    of 15 members take 1.2 MB here; as frozensets they take 11.6 MB.
    :attr:`rows` is the array itself, which
    :func:`repro.setcover.greedy_hitting_set` reads directly.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [frozenset(row) for row in self.rows[index].tolist()]
        return frozenset(self.rows[index].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, KSetCollection):
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"KSetCollection({len(self)} k-sets)"


@dataclass
class KSetSampleResult:
    """Outcome of K-SETr (Algorithm 4).

    Attributes
    ----------
    ksets:
        The distinct k-sets discovered, in discovery order, as a
        :class:`KSetCollection`.
    functions:
        For each discovered k-set, one witness weight vector that produced it.
    draws:
        Total number of random functions drawn.
    exhausted:
        True when the sampler stopped because ``max_draws`` was hit rather
        than by the patience rule (the collection may then be less complete).
    """

    ksets: KSetCollection
    functions: list[np.ndarray] = field(default_factory=list)
    draws: int = 0
    exhausted: bool = False


class KSetDrawState:
    """The repairable intermediate state of a K-SETr run.

    K-SETr's expensive work is per-batch: draw ``batch_size`` functions,
    resolve their top-k orders with one engine call.  This class caches
    exactly that — the ``(weights, orders)`` pair of every batch drawn so
    far plus the :class:`~repro.ranking.sampling.FunctionStream` position —
    so a maintained view can *replay* the sampler after a data mutation
    instead of redrawing.

    The contract that makes replay bit-identical to a fresh run:

    * weights are a pure function of ``(d, seed, draw index)`` — data
      mutations never consume or skip RNG draws, so cached weights are
      verbatim what a fresh run would draw;
    * after a mutation, the view marks the draws whose cached top-k may
      have changed (``mark_stale``); :meth:`resolve` lazily re-evaluates
      only those rows via :meth:`~repro.engine.ScoreEngine.topk_orders`,
      which is per-column independent, so repaired rows equal what a
      fresh batch evaluation would produce for the same weights;
    * when replay runs past the cache, fresh draws extend the stream from
      the saved generator position with the same batch-size sequence a
      fresh run would use (``min(batch_size, max_draws - draws)``).
    """

    __slots__ = ("k", "max_draws", "batch_size", "stream", "weights", "orders", "stale", "repaired")

    def __init__(
        self,
        d: int,
        k: int,
        max_draws: int = 1_000_000,
        batch_size: int = 1024,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if max_draws < 1:
            raise ValidationError("max_draws must be >= 1")
        if batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        self.k = int(k)
        self.max_draws = int(max_draws)
        self.batch_size = int(batch_size)
        self.stream = FunctionStream(d, rng)
        self.weights: list[np.ndarray] = []
        self.orders: list[np.ndarray] = []
        self.stale: list[np.ndarray] = []
        self.repaired = 0

    def resolve(self, index: int, size: int, engine: ScoreEngine) -> tuple[np.ndarray, np.ndarray]:
        """Batch ``index`` of the stream: cached (repairing stale rows) or fresh."""
        if index < len(self.weights):
            weights = self.weights[index]
            if len(weights) != size:  # pragma: no cover - guarded by state reuse contract
                raise ValidationError(
                    f"replay batch {index} has {len(weights)} draws, expected {size}; "
                    "the state was built with different max_draws/batch_size"
                )
            stale = self.stale[index]
            if stale.any():
                rows = np.flatnonzero(stale)
                self.orders[index][rows] = engine.topk_orders(weights[rows], self.k)
                self.repaired += int(rows.size)
                stale[:] = False
            return weights, self.orders[index]
        weights = self.stream.draw(size)
        orders = engine.topk_orders(weights, self.k)
        self.weights.append(weights)
        self.orders.append(orders)
        self.stale.append(np.zeros(size, dtype=bool))
        return weights, orders

    def mark_stale(self, index: int, rows: np.ndarray) -> None:
        """Flag cached draws whose top-k must be re-resolved before reuse."""
        self.stale[index][rows] = True

    @property
    def cached_draws(self) -> int:
        return sum(len(weights) for weights in self.weights)


def sample_ksets(
    values: np.ndarray,
    k: int,
    patience: int = 100,
    rng: int | np.random.Generator | None = None,
    max_draws: int = 1_000_000,
    batch_size: int = 1024,
    jobs: int | None = None,
    tune=None,
    engine: ScoreEngine | None = None,
    state: KSetDrawState | None = None,
) -> KSetSampleResult:
    """K-SETr (Algorithm 4): randomized k-set collection.

    Repeatedly draws uniform random linear functions (Marsaglia sampling),
    takes their top-k as a k-set, and stops after ``patience`` consecutive
    draws that discover nothing new — the coupon-collector termination rule
    with the paper's default ``c = 100`` (§6.1).

    Functions are drawn in batches; each batch is resolved by one call to
    :meth:`repro.engine.ScoreEngine.topk_batch` (one quantized-screened
    GEMM pass across all columns) and deduplicated on the packed-bitset
    byte content — one ``bytes`` slice per draw instead of building and
    hashing a Python ``frozenset`` per draw.  The patience rule is still
    applied draw-by-draw, so results are identical to the scalar loop for
    any given RNG stream.  The new k-sets of each batch enter the result
    as rows of that batch's sorted top-k array, appended to one
    :class:`KSetCollection`; no ``frozenset`` is built unless a caller
    reads one.

    Functions are drawn ``batch_size`` at a time; the patience rule is
    applied draw-by-draw within each batch, so any batch size yields the
    identical k-set sequence and draw count — larger batches only
    amortize per-call engine overhead (and, at worst, score up to one
    surplus batch after the stopping draw).  ``jobs`` fans each batch's
    top-k out over the engine's thread pool (``None``/``1`` = serial;
    see :mod:`repro.engine.parallel`) — bit-identical draws either way.

    ``engine``/``state`` expose the repairable intermediate state for
    maintained views (:mod:`repro.engine.views`): pass an existing
    :class:`~repro.engine.ScoreEngine` built over ``values`` to reuse its
    tiers and worker pool, and a :class:`KSetDrawState` to replay/extend a
    previous run's draws instead of redrawing — the patience walk below
    is the same either way, so a replayed run is bit-identical to a
    fresh run over the same data.
    """
    matrix, k = _validate(values, k)
    if patience < 1:
        raise ValidationError("patience must be >= 1")
    if state is None:
        state = KSetDrawState(matrix.shape[1], k, max_draws=max_draws, batch_size=batch_size, rng=rng)
    elif state.k != k or state.stream.d != matrix.shape[1]:
        raise ValidationError(
            f"state was built for (d={state.stream.d}, k={state.k}), "
            f"got (d={matrix.shape[1]}, k={k})"
        )
    own_engine = engine is None
    if engine is None:
        engine = ScoreEngine(matrix, n_jobs=jobs, tune=tune)
    else:
        engine.compact()
        if engine.values.shape != matrix.shape or not np.array_equal(engine.values, matrix):
            raise ValidationError("engine was built over a different matrix than `values`")
    try:
        # Dedup on the sorted top-k index rows: sorting makes the byte
        # content canonical (a k-set IS its sorted member tuple), so one
        # batch-level sort + tobytes and a bytes slice per draw replace
        # any per-draw hashing structure — and the engine can skip
        # bitset packing entirely.
        seen: set[bytes] = set()
        new_rows: list[np.ndarray] = []  # per batch, its new k-sets' sorted rows
        functions: list[np.ndarray] = []
        misses = draws = index = 0
        stopped = False
        while not stopped and draws < state.max_draws:
            batch = min(state.batch_size, state.max_draws - draws)
            weights, order = state.resolve(index, batch, engine)
            index += 1
            canonical = np.sort(order, axis=1)
            width = canonical.shape[1] * canonical.itemsize
            blob = canonical.tobytes()
            offset = 0
            fresh: list[int] = []
            for column in range(batch):
                key = blob[offset : offset + width]
                offset += width
                if key in seen:
                    misses += 1
                    if misses >= patience:
                        stopped = True
                        break
                else:
                    seen.add(key)
                    fresh.append(column)
                    functions.append(weights[column])
                    misses = 0
            new_rows.append(canonical[fresh])
            draws += column + 1
        return KSetSampleResult(
            ksets=KSetCollection(np.concatenate(new_rows)),
            functions=functions,
            draws=draws,
            exhausted=not stopped,
        )
    finally:
        if own_engine:
            engine.close()


def enumerate_ksets_bfs(values: np.ndarray, k: int) -> list[frozenset[int]]:
    """Algorithm 6: exact k-set enumeration by BFS over the k-set graph.

    Starts from the top-k on the first attribute, then repeatedly swaps one
    member for one non-member and keeps the candidates validated as k-sets
    by the separability LP (Eq. 4).  Correct because the k-set graph is
    connected (Theorem 7).  Cost is O(|S| · k · (n−k)) LP solves — use only
    for small instances, exactly as the paper concludes (§5.2).
    """
    matrix, k = _validate(values, k)
    n = matrix.shape[0]
    start = top_k_set(matrix, _first_attribute_weights(matrix.shape[1]), k)
    discovered: set[frozenset[int]] = {start}
    ordered: list[frozenset[int]] = [start]
    queue: deque[frozenset[int]] = deque([start])
    while queue:
        current = queue.popleft()
        outside = [i for i in range(n) if i not in current]
        for member in sorted(current):
            base = current - {member}
            for candidate in outside:
                neighbor = base | {candidate}
                if neighbor in discovered:
                    continue
                if is_separable(matrix, neighbor):
                    discovered.add(neighbor)
                    ordered.append(neighbor)
                    queue.append(neighbor)
    return ordered


def _first_attribute_weights(d: int) -> np.ndarray:
    """A weight vector concentrating on attribute 1 (BFS seed of Alg. 6).

    Strictly speaking ``(1, 0, …, 0)`` sits on the boundary of ``L``; we
    keep it because the library's deterministic tie-breaker makes its top-k
    well-defined, matching line 1 of Algorithm 6.
    """
    weights = np.zeros(d)
    weights[0] = 1.0
    return weights


def kset_graph_edges(ksets: list[frozenset[int]]) -> list[tuple[int, int]]:
    """Edges of the k-set graph (Definition 4) over the given collection.

    Vertices are positions in ``ksets``; an edge joins two k-sets whose
    intersection has exactly k − 1 members.  Theorem 7 guarantees the graph
    over the *complete* collection is connected — a property the test suite
    checks via networkx.

    Computed in one shot from the 0/1 membership matrix ``M``: the Gram
    product ``M @ M.T`` holds every pairwise intersection size, so the
    edge test is a vectorized comparison instead of O(m²) Python-level
    frozenset intersections.
    """
    m = len(ksets)
    if m < 2:
        return []
    elements = sorted({e for kset in ksets for e in kset})
    column = {e: c for c, e in enumerate(elements)}
    membership = np.zeros((m, len(elements)), dtype=np.float64)
    for row, kset in enumerate(ksets):
        membership[row, [column[e] for e in kset]] = 1.0
    sizes = membership.sum(axis=1)
    # Intersection sizes are small integers, exact in float64 GEMM.  The
    # Gram product is blocked over row chunks so peak extra memory is
    # O(chunk · m) rather than one dense m × m matrix.
    edges: list[tuple[int, int]] = []
    chunk = max(1, (1 << 24) // (8 * m))
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        overlap = membership[lo:hi] @ membership.T  # (hi-lo, m)
        i_idx, j_idx = np.nonzero(overlap == (sizes[lo:hi, None] - 1.0))
        i_idx = i_idx + lo
        keep = i_idx < j_idx
        edges.extend(
            (int(i), int(j)) for i, j in zip(i_idx[keep], j_idx[keep])
        )
    return edges
