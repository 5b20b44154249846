"""The rank-regret level ``k``: absolute, or a fraction of the rows.

Kept apart from :mod:`repro.core.api` so that a caller resolving ``k``
(:meth:`repro.Session.mdrc` and the other Session methods) loads no
algorithm module to do it.
"""

from __future__ import annotations

from repro.exceptions import ValidationError

__all__ = ["resolve_k"]


def resolve_k(k: int | float, n: int) -> int:
    """Interpret ``k``: an int is absolute; a float in (0, 1) is a fraction.

    The paper quotes k as "top-1%" style percentages throughout §6; this
    helper makes that convention available everywhere.  Fractional values
    round to at least 1.
    """
    if isinstance(k, float) and not k.is_integer():
        if not 0.0 < k < 1.0:
            raise ValidationError(
                f"fractional k must be in (0, 1), got {k}"
            )
        return max(1, int(round(k * n)))
    k = int(k)
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, n]={n}, got {k}")
    return k
