"""Dataset substrate: containers, synthetic workloads, and the paper's
DOT / Blue Nile stand-ins.

Each export loads its module on first use (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.datasets.base import Dataset
    from repro.datasets.bluenile import BN_ATTRIBUTES, BN_HIGHER_IS_BETTER, synthetic_bluenile
    from repro.datasets.dot import DOT_ATTRIBUTES, DOT_HIGHER_IS_BETTER, synthetic_dot
    from repro.datasets.io import load_csv, save_csv
    from repro.datasets.synthetic import (
        anticorrelated,
        clustered,
        correlated,
        independent,
        on_sphere,
        paper_example,
    )

__all__ = [
    "Dataset",
    "paper_example",
    "independent",
    "correlated",
    "anticorrelated",
    "clustered",
    "on_sphere",
    "synthetic_dot",
    "DOT_ATTRIBUTES",
    "DOT_HIGHER_IS_BETTER",
    "synthetic_bluenile",
    "BN_ATTRIBUTES",
    "BN_HIGHER_IS_BETTER",
    "save_csv",
    "load_csv",
]

lazy_exports(__name__)
