"""Fixtures for the engine suites."""

from __future__ import annotations

import pytest

from repro.engine import score_engine


@pytest.fixture(autouse=True)
def ladder_only(monkeypatch):
    """Keep every engine call on the tier ladder.

    The suites here check the tiers on small matrices, where the shipped
    small-call cutover would answer nearly every call with the scalar
    kernel instead.  Tests of the route itself override this fixture.
    """
    monkeypatch.setattr(score_engine, "_SCALAR_MAX_WORK", 0)
