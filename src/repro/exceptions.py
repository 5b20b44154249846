"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (bad shape, range, or type)."""


class InvalidDataError(ValidationError):
    """Input *data* is unusable: NaN/Inf entries, or a non-numeric dtype.

    Raised at the public API boundary (``ScoreEngine``, ``mdrc``,
    ``sample_ksets``, dataset loading) instead of letting NaN propagate
    into the scoring kernels, where comparisons against NaN are silently
    False and would produce garbage ranks with no error at all.
    """


class DatasetError(ReproError):
    """A dataset could not be constructed, loaded, or normalized."""


class CorruptStateError(ReproError):
    """Persisted or transported state failed an integrity check.

    Covers a torn/garbled tuning-profile JSON, a checksum mismatch, a
    corrupted snapshot or WAL, and a mutation journal violating its
    invariants.
    """


class DataDirLockedError(ReproError):
    """A serving data directory is locked by another live process.

    Two servers appending to one write-ahead log would interleave
    revisions and corrupt recovery; the lock holder's pid is probed, so
    a lock left behind by a killed process is reclaimed silently and
    this error means the holder is actually alive.
    """


class GeometryError(ReproError):
    """A geometric computation failed (degenerate input, no hull, ...)."""


class InfeasibleError(ReproError):
    """A requested optimization or cover has no feasible solution."""


class ConvergenceError(ReproError):
    """An iterative algorithm exhausted its iteration budget."""
