"""One-shot reproduction driver: run every experiment, emit EXPERIMENTS.md.

``python -m repro reproduce --scale bench --out EXPERIMENTS.md`` executes
all twelve figure-experiments of the paper's §6 at the chosen scale and
writes a markdown report with, per experiment, the paper's qualitative
claim and the measured table, plus a PASS/FAIL shape check.
"""

from __future__ import annotations

import io
import time
from typing import Callable

from repro.experiments.config import (
    BENCH_EXPERIMENTS,
    PAPER_EXPERIMENTS,
    ExperimentConfig,
    KSetCountConfig,
)
from repro.experiments.report import (
    format_experiment_table,
    format_kset_table,
    summarize_shapes,
)
from repro.experiments.runner import run_experiment, run_kset_count

__all__ = ["reproduce_all", "PAPER_CLAIMS"]

# What the paper reports for each figure, summarized for the report.
PAPER_CLAIMS: dict[str, str] = {
    "fig09_10": (
        "2DRRR and MDRRR share the quadratic sweep cost and stop scaling "
        "near 100K items; MDRC is orders of magnitude faster. All three "
        "keep rank-regret at/below k with small outputs."
    ),
    "fig11_12": (
        "Across k, 2DRRR/MDRRR runtimes track the sweep while MDRC runs in "
        "milliseconds; output sizes stay near the optimum (2DRRR's)."
    ),
    "fig13": (
        "DOT, d=3: the number of k-sets is far below the O(n·k^{3/2}) "
        "bound and grows with k; K-SETr time grows accordingly."
    ),
    "fig14": (
        "DOT: k-set counts grow with d and sit far below the O(n^{d-eps}) "
        "bounds, which are very loose for d >= 4."
    ),
    "fig15": "BN, d=3: same shape as Fig. 13 with smaller counts.",
    "fig16": "BN: same shape as Fig. 14.",
    "fig17_18": (
        "DOT MD: MDRRR does not scale to the largest n (k-set enumeration); "
        "MDRC is fastest; MDRRR/MDRC meet rank-regret k while HD-RRMS, at "
        "MDRC's output size, misses by orders of magnitude (112K at n=400K)."
    ),
    "fig19_20": "BN MD: same shape as Fig. 17-18.",
    "fig21_22": (
        "DOT, vary d: MDRRR degrades with d; MDRC/HD-RRMS stay fast; "
        "HD-RRMS's rank-regret reaches thousands while MDRC stays around k; "
        "outputs below 40."
    ),
    "fig23_24": "BN, vary d: same shape as Fig. 21-22.",
    "fig25_26": (
        "DOT, vary k: MDRRR worsens as k grows (more k-sets); MDRC gets "
        "*faster* with k (corner top-k sets intersect sooner); proposed "
        "algorithms stay within k."
    ),
    "fig27_28": "BN, vary k: same shape as Fig. 25-26.",
}

_HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro reproduce --scale {scale}``.

Datasets are the synthetic DOT / Blue Nile stand-ins (DESIGN.md §4); at
``bench`` scale the sweeps are reduced (DESIGN.md §3) so the whole suite
runs in minutes — the paper's *qualitative* shapes are what is checked,
not absolute numbers.  Rank-regret is measured exactly in 2-D (dual-space
sweep) and over {eval_functions:,} random functions otherwise.

Shape checks applied to every comparison experiment:

* ``rrr_meets_k`` — each proposed algorithm stays within its guarantee
  (2k for 2DRRR, k for MDRRR, d·k for MDRC);
* ``hd_rrms_violates_k`` — the regret-ratio baseline exceeds k somewhere
  (the paper's central negative result);
* ``outputs_small`` — proposed-algorithm outputs stay below 40 tuples.
"""


def reproduce_all(
    scale: str = "bench",
    progress: Callable[[str], None] | None = None,
    jobs: int | None = None,
    tune=None,
) -> str:
    """Run every experiment at ``scale`` and return the markdown report.

    ``jobs`` and ``tune`` are forwarded to every runner;
    the report content is bit-identical to a serial run.
    """
    configs = BENCH_EXPERIMENTS if scale == "bench" else PAPER_EXPERIMENTS
    sample = next(c for c in configs.values() if isinstance(c, ExperimentConfig))
    out = io.StringIO()
    out.write(_HEADER.format(scale=scale, eval_functions=sample.eval_functions))
    for figure_id in sorted(configs):
        config = configs[figure_id]
        if progress:
            progress(f"running {figure_id} ...")
        start = time.perf_counter()
        out.write(f"\n\n## {figure_id}\n\n")
        out.write(f"**Paper:** {PAPER_CLAIMS[figure_id]}\n\n")
        if isinstance(config, KSetCountConfig):
            rows = run_kset_count(
                config, progress=progress, jobs=jobs, tune=tune,
            )
            out.write("**Measured:**\n\n")
            out.write(format_kset_table(rows))
            below = all(r.num_ksets <= r.upper_bound for r in rows)
            grows = rows[-1].num_ksets >= rows[0].num_ksets
            out.write(
                f"\n\nShape: counts below bound: "
                f"{'PASS' if below else 'FAIL'}; counts grow along sweep: "
                f"{'PASS' if grows else 'FAIL'}."
            )
        else:
            rows = run_experiment(
                config, progress=progress, jobs=jobs, tune=tune,
            )
            out.write("**Measured:**\n\n")
            out.write(format_experiment_table(rows))
            shapes = summarize_shapes(rows)
            out.write("\n\nShape checks: ")
            out.write(
                "; ".join(
                    f"{name}: {'PASS' if holds else 'FAIL'}"
                    for name, holds in shapes.items()
                )
            )
            out.write(".")
        out.write(f"\n\n_(ran in {time.perf_counter() - start:.1f}s)_")
    out.write(_FOOTER)
    return out.getvalue()


_FOOTER = """

## Known bench-scale deviations

Two shape checks are expected to read FAIL at ``bench`` scale and are
*scale artifacts*, not reproduction gaps:

* **fig19_20 / hd_rrms_violates_k.** On the Blue Nile stand-in at the
  paper's default k = 1%, HD-RRMS's rank-regret grows roughly linearly
  with n while k grows with n too; the crossover where it exceeds k needs
  either catalog-scale n or the paper's smallest k values.  Both are
  reproduced elsewhere: fig27_28 (k sweep down to 0.5–1% of a small n)
  shows the violation on BN, and ``benchmarks/test_scale_probe.py`` shows
  the DOT violation factor widening from n = 2K to n = 20K
  (cf. the paper's 112K at n = 400K).
* **fig23_24 / outputs_small.** The paper's "< 40 tuples in every
  experiment" holds at n = 10,000 where the absolute k is 100–1000;
  MDRC's output size is driven by how often corner top-k sets intersect,
  which depends on absolute k.  At bench scale (k ≈ 8, d = 5) MDRC needs
  ~60 cells; re-running at the paper's n and k restores the < 40 bound.
"""
