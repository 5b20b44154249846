"""Smoke test of the benchmark: every workload at 2,000 rows, traced and not.

Runs ``perfbench/run.py --smoke`` for each workload and checks the
result line against ``BENCHMARK.json``: every check passed, nothing
failed, and the metrics are exactly the manifest's end-to-end metrics
(``--trace 0``) or per-layer metrics (``--trace 1``), each in its unit
and listed by name above the result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Layers each workload must reach (the rest may read 0).
REACHED = {
    "represent": {
        "engine.topk_ms", "engine.rank_ms", "mdrc.self_s", "ksets.self_s",
        "setcover.hitting_set_s", "regret.self_s", "setup.import_s",
        "op.mdrc_s", "op.mdrrr_s", "op.regret_s",
    },
    "serve_read": {
        "http.parse_ms", "http.render_ms", "coalesce.queue_wait_p99_ms", "mdrc.self_s",
        "server.cpu_ms_per_req", "setup.load_s", "loadgen.late_p99_ms",
        "op.read_p99_ms", "op.max_read_qps",
    },
    "serve_churn": {
        "delta.compact_ms", "views.maintain_ms", "views.refresh_ms", "wal.commit_p50_ms",
        "wal.snapshots", "wal.replay_ms", "wal.replayed_commits",
        "op.read_p99_ms", "op.write_p99_ms", "op.refresh_p50_ms", "op.recovery_s",
    },
}


def manifest_units(key: str) -> dict:
    with open(MANIFEST) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(REACHED))
def test_workload_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    expected = manifest_units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for name in expected:
        assert any(line.startswith(f"  {name} = ") for line in lines), name
    if trace:
        assert all(metrics[name]["value"] > 0 for name in REACHED[workload])
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_missing_program_fails_without_result(tmp_path):
    """Run from a directory without ``src/``: non-zero exit, no result line."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "represent", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
