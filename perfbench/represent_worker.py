"""The program side of ``represent``, in its own process.

Usage::

    python perfbench/represent_worker.py SPAWN_TIME TRACE_OUT RESULT_OUT \\
        MATRIX.npy:KSET_SEED:REGRET_SEED [MATRIX.npy:KSET_SEED:REGRET_SEED ...]

Imports ``repro`` and builds a ``Session`` on the first matrix; that is
when the process is ready (``setup_s``, from the parent's ``SPAWN_TIME``).
Then, for each matrix in turn, it times ``mdrc(15)``,
``md_rrr(15, rng=KSET_SEED)`` and ``rank_regret`` of the MDRC output over
100,000 functions drawn with ``REGRET_SEED``, each on a fresh Session
with the default tuning (``tune=None``).  One JSON line
per matrix, with the process's peak RSS while it was worked on, goes to
``RESULT_OUT``.  With ``TRACE_OUT`` other than ``-``
it also records spans around the engine and algorithm layers and writes
them there at the end.
"""

from __future__ import annotations

import json
import os
import sys
import time

from common import K, REGRET_FUNCTIONS
from procs import peak_rss_mb


def _reset_peak_rss() -> None:
    """Restart the high-water mark at the current RSS (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _timed(call):
    t0 = time.perf_counter()
    result = call()
    return result, time.perf_counter() - t0


def main(argv: list[str]) -> int:
    spawn_time, trace_out, result_out = float(argv[0]), argv[1], argv[2]
    inputs = [item.rsplit(":", 2) for item in argv[3:]]
    import numpy as np

    import repro

    import_s = time.time() - spawn_time
    recorder = None
    if trace_out != "-":
        from tracing import Recorder, install_engine

        recorder = Recorder()
        install_engine(recorder)
    values = np.load(inputs[0][0])
    session = repro.Session(values, tune=None)
    setup_s = time.time() - spawn_time

    with open(result_out, "w") as out:
        for i, (path, kset_seed, regret_seed) in enumerate(inputs):
            _reset_peak_rss()  # each input's own peak, so one large input counts once
            if i:
                values = np.load(path)
                session = repro.Session(values, tune=None)
            stats = {}
            mdrc, mdrc_s = _timed(lambda: session.mdrc(K))
            stats["mdrc"] = dict(session.stats)
            session.close()
            session = repro.Session(values, tune=None)
            mdrrr, mdrrr_s = _timed(lambda: session.md_rrr(K, rng=int(kset_seed)))
            stats["mdrrr"] = dict(session.stats)
            session.close()
            session = repro.Session(values, tune=None)
            regret, regret_s = _timed(
                lambda: session.rank_regret(
                    mdrc.indices, num_functions=REGRET_FUNCTIONS, rng=int(regret_seed)
                )
            )
            stats["regret"] = dict(session.stats)
            session.close()
            record = {
                "input": i,
                "mdrc_s": mdrc_s,
                "mdrrr_s": mdrrr_s,
                "regret_s": regret_s,
                "mdrc_indices": [int(j) for j in mdrc.indices],
                "mdrrr_indices": [int(j) for j in mdrrr.indices],
                "mdrrr_draws": int(mdrrr.sample_draws),
                "regret": int(regret),
                "stats": stats,
                "peak_rss_mb": peak_rss_mb(os.getpid()),
            }
            out.write(json.dumps(record) + "\n")
        out.write(json.dumps({"import_s": import_s, "setup_s": setup_s}) + "\n")
    if recorder is not None:
        recorder.dump(trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
