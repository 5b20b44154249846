"""`perf_gate.py --history` must tolerate partial BENCH rows.

Older BENCH files predate newer ops, and an interrupted run can leave a
row without ``median_s``/``speedup``.  The cross-PR table renders an
em-dash cell for those instead of KeyError-ing the whole report.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_perf_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate_under_test", REPO_ROOT / "benchmarks" / "perf_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_history_renders_partial_rows(tmp_path, capsys, monkeypatch):
    gate = _load_perf_gate()
    monkeypatch.setattr(gate, "REPO_ROOT", tmp_path)
    (tmp_path / "BENCH_PR1.json").write_text(
        json.dumps({"ops": [{"op": "scoring", "median_s": 0.5, "speedup": 2.0}]})
    )
    (tmp_path / "BENCH_PR2.json").write_text(
        json.dumps(
            {
                "ops": [
                    {"op": "scoring"},  # partial row: no timings recorded
                    {"op": "view_maintenance", "median_s": 1.0, "speedup": 5.0},
                ]
            }
        )
    )
    assert gate._print_history() == 0
    out = capsys.readouterr().out
    assert "—" in out  # the partial row and the not-yet-benched cell
    assert "view_maintenance" in out
    assert "0.500s" in out and "5.0x" in out


def test_history_without_bench_files_fails_cleanly(tmp_path, capsys, monkeypatch):
    gate = _load_perf_gate()
    monkeypatch.setattr(gate, "REPO_ROOT", tmp_path)
    assert gate._print_history() == 1
    assert "no BENCH_PR*.json" in capsys.readouterr().out


def test_output_name_follows_changes_log(tmp_path, monkeypatch):
    gate = _load_perf_gate()
    monkeypatch.setattr(gate, "REPO_ROOT", tmp_path)
    assert gate._default_pr() == 1  # no CHANGES.md yet
    (tmp_path / "CHANGES.md").write_text(
        "- PR 2: first\n- PR 10 review fixes: later\n- PR 9: out of order\n"
        "  - PR 99: nested, not an entry\n"
    )
    assert gate._default_pr() == 11
