"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.datasets import (
    anticorrelated,
    correlated,
    independent,
    paper_example,
    synthetic_bluenile,
    synthetic_dot,
)


@pytest.fixture
def example():
    """The paper's 7-point running example (Figure 1)."""
    return paper_example()


@pytest.fixture
def example_values(example):
    return example.values


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_2d():
    """A 60-point 2-D anticorrelated dataset (hard case, still sweepable)."""
    return anticorrelated(60, 2, seed=7).values


@pytest.fixture
def small_3d():
    """A 50-point 3-D independent dataset (fast for LP-based paths)."""
    return independent(50, 3, seed=11).values


@pytest.fixture
def medium_3d():
    """A 400-point 3-D dataset for algorithm-level tests."""
    return independent(400, 3, seed=3).values


@pytest.fixture
def dot_small():
    return synthetic_dot(n=300, d=3, seed=5)


@pytest.fixture
def bn_small():
    return synthetic_bluenile(n=300, d=3, seed=5)


@pytest.fixture
def correlated_2d():
    return correlated(80, 2, seed=9).values


# ``_RUN_ROWS`` values that force every ``MergePlan`` onto one copy path:
# ``0`` copies every plan by survivor runs; ``1 << 40`` takes every row
# of a plan that has a survivor through one index (the "scatter" id
# predates that path).  Mutation cases drawn by hypothesis have a few
# dozen rows, where the shipped cutover always takes the bulk path, so
# without a forced cutover the run path would go untested.
_CUTOVERS = {"runs": 0, "scatter": 1 << 40}


@pytest.fixture(params=list(_CUTOVERS.values()), ids=list(_CUTOVERS))
def cutover(request, monkeypatch):
    """Force every ``MergePlan`` onto one copy path for a whole test.

    The patch deliberately spans every hypothesis example of the test.
    """
    from repro.engine import delta

    monkeypatch.setattr(delta, "_RUN_ROWS", request.param)
    return request.param


def _each_copy_path():
    from repro.engine import delta

    for run_rows in _CUTOVERS.values():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(delta, "_RUN_ROWS", run_rows)
            yield run_rows


@pytest.fixture
def copy_paths():
    """Iterate the copy paths, with ``_RUN_ROWS`` patched inside each step.

    ``for _ in copy_paths():`` runs a loop body once per path, so one
    hypothesis example is checked on both.  The fixture holds no state,
    so sharing it across examples is safe.
    """
    return _each_copy_path


# ``_SCALAR_MAX_WORK`` values that force every engine call onto one
# kernel: ``0`` keeps the tier ladder; ``1 << 62`` answers every serial
# call with the exact scalar kernel (the small-call route).
_KERNEL_CUTOVERS = {"ladder": 0, "scalar": 1 << 62}


def _each_kernel_path():
    from repro.engine import score_engine

    for max_work in _KERNEL_CUTOVERS.values():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(score_engine, "_SCALAR_MAX_WORK", max_work)
            yield max_work


@pytest.fixture(scope="session")
def kernel_paths():
    """Iterate the engine kernels, with ``_SCALAR_MAX_WORK`` patched
    inside each step.

    ``for _ in kernel_paths():`` runs a loop body once on the tier
    ladder and once on the scalar route, so one hypothesis example
    checks both.  Stateless, hence session-scoped.
    """
    return _each_kernel_path


@contextmanager
def _hooked_units(hook):
    from repro.engine import parallel

    dispatch = parallel._dispatch

    def hooked(engine, kind, *args):
        hook(kind, args[0])
        return dispatch(engine, kind, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "_dispatch", hooked)
        yield


@pytest.fixture(scope="session")
def unit_hook():
    """``with unit_hook(hook):`` calls ``hook(kind, weights)`` before
    every fanned-out work unit, on the pool thread that runs it.

    ``weights`` is the unit's function chunk.  A hook that raises fails
    its unit the way a bug in a kernel would.  Stateless, hence
    session-scoped (usable inside hypothesis examples).
    """
    return _hooked_units
