"""`perf_gate.py --history` must tolerate partial BENCH rows.

Older BENCH files predate newer ops, and an interrupted run can leave a
row without ``median_s``/``speedup``.  The cross-PR table renders an
em-dash cell for those instead of KeyError-ing the whole report.  The
timing gate reads the same-run speedups of such files, skipping what
they lack.
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


def test_gate_compares_same_run_speedups():
    gate = _load_perf_gate()
    old = [
        {"op": "mdrc", "median_s": 1.0, "baseline_median_s": 6.0, "speedup": 6.0},
        {"op": "ksetr", "median_s": 2.0, "baseline_median_s": 10.0, "speedup": 5.0},
    ]

    def run(op, median_s, baseline_median_s):
        return {
            "op": op,
            "median_s": median_s,
            "baseline_median_s": baseline_median_s,
            "speedup": baseline_median_s / median_s,
        }

    # A host 1.3x slower on both columns: the ratio holds, so it passes
    # (gated on absolute median_s, this run read as a 30% regression).
    slower_host = [run("mdrc", 1.3, 7.8), run("ksetr", 2.6, 13.0)]
    assert gate.gate_failures(slower_host, old) == []
    # The implementation alone 1.3x slower: the ratio falls 23%, a failure.
    slower_code = [run("mdrc", 1.3, 6.0), run("ksetr", 2.0, 10.0)]
    (failure,) = gate.gate_failures(slower_code, old)
    assert failure.startswith("mdrc: speedup 4.62x vs 6.00x")
    # An op the old file lacks (or a partial row) is skipped.
    new_op = [run("recovery", 9.0, 1.0), run("ksetr", 2.0, 10.0)]
    assert gate.gate_failures(new_op, old + [{"op": "recovery"}]) == []
    # So is an op timed against other code than the old file's.
    rebased = [{**run("mdrc", 1.0, 2.0), "baseline": "reference_top_k + GEMV rank"}]
    assert gate.gate_failures(rebased, old) == []


def test_gate_reads_the_median_run():
    gate = _load_perf_gate()
    runs = [
        {"op": "mdrc", "median_s": 0.10, "speedup": 5.6},
        {"op": "mdrc", "median_s": 0.14, "speedup": 2.8},
        {"op": "mdrc", "median_s": 0.11, "speedup": 5.0},
    ]
    row = gate._median_run(runs)
    assert (row["median_s"], row["speedup"]) == (0.11, 5.0)
    assert row["speedup_runs"] == [5.6, 2.8, 5.0]


def test_ab_verdict_rules():
    gate = _load_perf_gate()
    verdict = gate.ab_verdict
    parent = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0]
    # Lower in 9 of 10 pairs, median gap 4.0 > the parent's IQR (~0.38).
    change = [6.0] * 9 + [11.0]
    assert verdict(parent, change, 0.25) == "gain"
    # Lower in 8 of 10: not a gain, and within the bound.
    assert verdict(parent, [6.0] * 8 + [11.0, 11.0], 0.25) == "hold"
    # Worse by more than the bound (25% of the parent median).
    assert verdict(parent, [13.0] * 10, 0.25) == "regress"
    assert verdict(parent, [12.0] * 10, 0.25) == "hold"
    # A parent spread wider than the bound cannot tell a small move ...
    wide = [5.0, 15.0, 6.0, 14.0, 10.0, 9.0, 16.0, 4.0, 11.0, 10.0]
    assert verdict(wide, [10.5] * 10, 0.25) == "unresolved"
    # ... unless every change run beats every parent run.
    assert verdict(wide, [3.0] * 9 + [3.5], 0.25) == "gain"
    assert verdict(wide[:4], [3.0] * 4, 0.25) == "hold"  # gap 7 < IQR 8.5
    # Higher-is-better metrics mirror every rule.
    assert verdict([1.0] * 10, [2.0] * 10, 0.25, better="higher") == "gain"
    assert verdict([1.0] * 10, [0.7] * 10, 0.25, better="higher") == "regress"
    assert verdict([1.0] * 10, [0.9] * 10, 0.25, better="higher") == "hold"


def test_history_renders_ab_only_file(tmp_path, capsys, monkeypatch):
    gate = _load_perf_gate()
    monkeypatch.setattr(gate, "REPO_ROOT", tmp_path)
    (tmp_path / "BENCH_PR1.json").write_text(
        json.dumps({"ops": [{"op": "scoring", "median_s": 0.5, "speedup": 2.0}]})
    )
    spec = {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
    row = gate._ab_metric([9.0, 10.0, 11.0], [5.0, 5.5, 6.0], spec)
    assert row["wins"] == 3 and row["verdict"] == "gain"
    assert row["parent_median"] == 10.0 and row["parent_quartiles"] == [9.5, 10.5]
    ab = {"serve_churn": {"pairs": 3, "metrics": {"op_p50_ms": row}}}
    (tmp_path / "BENCH_PR2.json").write_text(json.dumps({"schema": 1, "ab": ab}))
    assert gate._print_history() == 0
    out = capsys.readouterr().out
    assert "PR2" not in out.split("A/B verdicts")[0]  # no ops column for an A/B-only file
    assert "0.500s" in out
    ab_line = next(line for line in out.splitlines() if line.startswith("PR2"))
    assert "serve_churn" in ab_line and "op_p50_ms" in ab_line
    assert "10 -> 5.5" in ab_line and "3/3" in ab_line and ab_line.endswith("gain")
    # The gate compares against the newest file that holds ops.
    newest, _ = gate._previous_bench(tmp_path / "BENCH_PR3.json")
    assert newest.name == "BENCH_PR1.json"


def test_ab_exports_the_working_tree_as_on_disk(tmp_path, monkeypatch):
    # The change side of an A/B runs from a copy, like REF's export:
    # tracked files as edited on disk and untracked files that are not
    # ignored; ignored files and tracked files deleted on disk stay out.
    import subprocess

    gate = _load_perf_gate()
    repo, dest = tmp_path / "repo", tmp_path / "export"
    (repo / "pkg").mkdir(parents=True)
    dest.mkdir()
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "pkg" / "kept.py").write_text("old\n")
    (repo / "gone.py").write_text("x\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-qm", "base"], check=True)
    (repo / "pkg" / "kept.py").write_text("edited\n")
    (repo / "new.py").write_text("new\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "gone.py").unlink()
    monkeypatch.setattr(gate, "REPO_ROOT", repo)
    gate._export_worktree(dest)
    exported = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert exported == [".gitignore", "new.py", "pkg/kept.py"]
    assert (dest / "pkg" / "kept.py").read_text() == "edited\n"
