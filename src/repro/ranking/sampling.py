"""Sampling and discretization of the linear function space.

K-SETr (Algorithm 4) and the Monte-Carlo rank-regret estimator (§6.1) both
need functions drawn *uniformly* from the space of origin-starting rays in
the positive orthant.  The paper adopts Marsaglia's method: take the
absolute values of ``d`` standard normals and normalize — the result is
uniform on the first orthant of the unit hypersphere.

HD-RRMS and several ablations instead need a *deterministic grid* over the
same space; :func:`grid_functions` provides it via the angle
parameterization.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.exceptions import ValidationError
from repro.ranking.functions import weights_from_angles

__all__ = ["FunctionStream", "sample_functions", "grid_functions"]

# Functions are drawn and normalized this many at a time, so the
# temporaries of a draw are block-sized however many functions it asks for.
_DRAW_BLOCK = 8192


def sample_functions(
    d: int,
    count: int,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Draw ``count`` uniform random linear functions on the positive orthant.

    Returns an array of shape ``(count, d)`` of unit weight vectors.
    Implements lines 4–6 of Algorithm 4 (Marsaglia sphere sampling with
    absolute values).  The rows are filled ``_DRAW_BLOCK`` at a time; each
    row takes the generator's next ``d`` normals, so the result does not
    depend on the block size.
    """
    if d < 1:
        raise ValidationError(f"need d >= 1, got {d}")
    if count < 1:
        raise ValidationError(f"need count >= 1, got {count}")
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    out = np.empty((count, d))
    for lo in range(0, count, _DRAW_BLOCK):
        raw = np.abs(generator.normal(size=(min(_DRAW_BLOCK, count - lo), d)))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        # A row of all zeros has probability zero but would divide by zero.
        degenerate = norms[:, 0] == 0.0
        if np.any(degenerate):  # pragma: no cover - probability zero
            raw[degenerate] = 1.0
            norms[degenerate] = np.sqrt(d)
        np.divide(raw, norms, out=out[lo : lo + raw.shape[0]])
    return out


class FunctionStream:
    """A replayable Marsaglia draw stream with explicit position.

    Wraps the generator behind :func:`sample_functions` and counts the
    draws consumed, so a long-lived consumer can *extend* the stream
    later exactly where a from-scratch run with the same seed would —
    the RNG stream discipline the maintained K-SETr draw state
    (:class:`repro.geometry.ksets.KSetDrawState`) relies on: weights
    are a pure function of ``(d, seed, draw index)``, independent of
    the data, so repairs re-evaluate cached draws instead of redrawing
    them, and only genuinely new draws advance the stream.

    Draws of any block sizes concatenate to one :func:`sample_functions`
    draw of their total from the same seed.
    """

    __slots__ = ("d", "drawn", "_generator")

    def __init__(self, d: int, rng: int | np.random.Generator | None = None) -> None:
        if d < 1:
            raise ValidationError(f"need d >= 1, got {d}")
        self.d = int(d)
        self.drawn = 0
        self._generator = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )

    def draw(self, count: int) -> np.ndarray:
        """The next ``count`` functions of the stream, ``(count, d)``."""
        weights = sample_functions(self.d, count, self._generator)
        self.drawn += count
        return weights


def grid_functions(d: int, per_axis: int) -> np.ndarray:
    """A deterministic lattice of functions covering the positive orthant.

    Places ``per_axis`` equally spaced angles in ``[0, π/2]`` on each of the
    ``d − 1`` angular dimensions and maps each combination to a unit weight
    vector, yielding ``per_axis^(d-1)`` functions.  For ``d = 1`` the single
    function ``(1,)`` is returned.
    """
    if d < 1:
        raise ValidationError(f"need d >= 1, got {d}")
    if per_axis < 1:
        raise ValidationError(f"need per_axis >= 1, got {per_axis}")
    if d == 1:
        return np.ones((1, 1), dtype=np.float64)
    if per_axis == 1:
        axis_angles = np.array([np.pi / 4])
    else:
        axis_angles = np.linspace(0.0, np.pi / 2, per_axis)
    rows = [
        weights_from_angles(combo)
        for combo in itertools.product(axis_angles, repeat=d - 1)
    ]
    return np.vstack(rows)
