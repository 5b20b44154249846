"""CSV persistence for datasets.

A tiny, dependency-free round-trip format: a header row with attribute
names, an optional direction row (``#direction: high,low,...``), then one
row per tuple.  Lets users bring the *real* DOT or Blue Nile extracts when
they have them, in place of the synthetic stand-ins.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.datasets.base import Dataset
from repro.exceptions import DatasetError

__all__ = ["save_csv", "load_csv"]

_DIRECTION_PREFIX = "#direction:"


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write ``dataset`` to ``path`` with header and direction metadata."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(dataset.attributes)
        directions = ",".join(
            "high" if h else "low" for h in dataset.higher_is_better
        )
        handle.write(f"{_DIRECTION_PREFIX}{directions}\n")
        for row in dataset.values:
            writer.writerow([repr(float(v)) for v in row])


def load_csv(path: str | Path, name: str | None = None) -> Dataset:
    """Read a dataset written by :func:`save_csv` (or any headed CSV).

    Rows starting with ``#`` other than the direction row are ignored.
    Without a direction row, every attribute defaults to higher-is-better.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    attributes: list[str] | None = None
    directions: list[bool] | None = None
    body: list[str] = []
    with path.open(newline="") as handle:
        for raw_line in handle:
            line = raw_line.strip()
            if not line:
                continue
            if line.startswith(_DIRECTION_PREFIX):
                tokens = line[len(_DIRECTION_PREFIX):].split(",")
                directions = [token.strip().lower() == "high" for token in tokens]
                continue
            if line.startswith("#"):
                continue
            if attributes is None:
                attributes = [f.strip() for f in next(csv.reader([line]))]
                continue
            body.append(line)
    if attributes is None or not body:
        raise DatasetError(f"{path} contains no data rows")
    # One C-level parse of the whole body: several times faster than a
    # csv.reader plus float() per line, and bit-identical for every
    # spelling save_csv writes.  Unlike float(), it rejects digit-group
    # underscores ("1_000") and non-ASCII digits.
    try:
        matrix = np.loadtxt(
            body, delimiter=",", quotechar='"', dtype=np.float64, ndmin=2,
            comments=None,
        )
    except ValueError as exc:
        raise DatasetError(f"non-numeric or ragged row in {path}: {exc}") from exc
    if matrix.shape[1] != len(attributes):
        raise DatasetError(
            f"{path}: rows have {matrix.shape[1]} fields, header has {len(attributes)}"
        )
    if directions is not None and len(directions) != len(attributes):
        raise DatasetError(f"{path}: direction row length mismatch")
    return Dataset(
        matrix,
        attributes=attributes,
        higher_is_better=directions,
        name=name or path.stem,
    )
