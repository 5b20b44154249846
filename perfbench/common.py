"""Shared pieces of the benchmark: paths, inputs, statistics and the run tally.

Everything here runs in the benchmark process.  The program under test
(the ``repro`` package in ``src/``) is imported only where a check needs
an oracle; the timed work always runs in a separate process.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

# The shared input: independent uniform data, d = 4, k = 15.  On DOT data
# at d = 4 most seeds push MDRC into its cell-budget path, so the seed
# would change the regime; on independent data every seed tried stays in
# the normal regime.
N_ROWS = 20_000
N_DIMS = 4
K = 15
REGRET_FUNCTIONS = 100_000  # functions in the timed rank-regret estimate

# The matrices are the same in every run: the ``j``-th input of a run is
# ``make_matrix(j)``, and the run's seed draws the load (request weights,
# churned rows, rank-regret functions, the order of represent's inputs).
# The work varies
# widely between matrices (MDRC cells 241-6,967, K-SETr draws 31k-89k
# and 1.5-3.5 s for represent's three calls over dataset seeds 0-15), so
# with seed-drawn matrices a run's median swung with the matrices drawn.


# The host's CPU is shared with other machines' work, and its speed
# drifts over minutes.  A fixed reference computation, timed between a
# run's phases, shows how fast the host was (``host.reference_s``).  It
# is not used to rescale the program's times: on a 2-vCPU host it moved
# up to 2.4x while server boots moved 1.25x, and rescaled times spread
# more than raw ones.


def reference_s() -> float:
    """Seconds for a fixed slice of engine-like work: GEMM, selection, a Python loop."""
    rng = np.random.default_rng(0)
    values, weights = rng.random((N_ROWS, N_DIMS)), rng.random((N_DIMS, 64))
    t0 = time.perf_counter()
    for _ in range(3):
        np.argpartition(-(values @ weights), K, axis=0)
    total = 0
    for i in range(60_000):
        total += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Reference timings taken through a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(median([reference_s() for _ in range(3)]))

    @property
    def reference_s(self) -> float:
        return median(self.samples)


class MissingProgram(RuntimeError):
    """The program's sources are not in the checkout."""


def require_program() -> None:
    """Put the checkout's ``src`` first on the import path, or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no repro package under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"repro imported from {repro.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for program processes: the checkout's sources, serial BLAS.

    The engine runs serially (``jobs=None``) and the load generator needs
    the other core.  On a 2-core host, BLAS worker threads beside them
    oversubscribe the cores: with OpenBLAS threads on, the first GEMM in
    a process pays ~0.5 s of pool start-up and read tails stall, so BLAS
    is pinned to one thread like the tuning profile is pinned.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def make_matrix(seed: int, n: int = N_ROWS, d: int = N_DIMS) -> np.ndarray:
    """The workload's data matrix, a pure function of the seed."""
    from repro.datasets import independent

    return np.ascontiguousarray(independent(n=n, d=d, seed=seed).normalized().values)


def write_csv(values: np.ndarray, path: str) -> None:
    """Write ``values`` in the headed CSV form ``repro serve --csv`` reads.

    Columns are already min-max normalized, so the server's own
    normalization leaves every value bit-identical.
    """
    with open(path, "w") as handle:
        handle.write(",".join(f"x{j + 1}" for j in range(values.shape[1])) + "\n")
        for row in values:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def pin_tuning(path: str) -> str:
    """Save ``TuningProfile()`` defaults; return the file's digest."""
    from repro.engine import TuningProfile

    TuningProfile().save(path)
    return file_digest(path)


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def make_tmpdir(tag: str) -> str:
    os.makedirs(TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=TMP_ROOT)


def remove_tmp_root() -> None:
    """Drop the scratch root if no run left anything in it."""
    try:
        os.rmdir(TMP_ROOT)
    except OSError:
        pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


class Tally:
    """Operations attempted and failed, per phase, plus failed checks."""

    def __init__(self) -> None:
        self.phases: dict[str, list[int]] = {}
        self.problems: list[str] = []

    def add(self, phase: str, attempted: int, failed: int = 0) -> None:
        counts = self.phases.setdefault(phase, [0, 0])
        counts[0] += attempted
        counts[1] += failed

    def check(self, phase: str, ok: bool, what: str) -> bool:
        """Count one correctness check as an operation; record a failure."""
        self.add(phase, 1, 0 if ok else 1)
        if not ok:
            self.problems.append(f"{phase}: {what}")
        return ok

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())

    def report(self, out) -> None:
        for phase, (attempted, failed) in self.phases.items():
            print(f"phase {phase}: attempted={attempted} failed={failed}", file=out)
        for problem in self.problems[:20]:
            print(f"FAILED {problem}", file=out)

