"""Unit tests for the command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.datasets import save_csv, synthetic_dot


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_represent_defaults(self):
        args = build_parser().parse_args(["represent"])
        assert args.dataset == "dot"
        assert args.method == "auto"

    def test_experiment_figure_choices(self):
        args = build_parser().parse_args(["experiment", "fig17_18"])
        assert args.figure == "fig17_18"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_every_help_exits_zero(self, capsys):
        commands = ("represent", "experiment", "reproduce", "ksets", "serve")
        for argv in (["--help"], *([command, "--help"] for command in commands)):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0, argv
            assert capsys.readouterr().out.startswith("usage: repro"), argv

    def test_python_dash_m_help(self):
        src = Path(repro.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: repro")


class TestRepresent:
    def test_synthetic_run(self):
        out = io.StringIO()
        code = main(
            ["represent", "--dataset", "dot", "--n", "300", "--d", "3",
             "--k", "0.05", "--eval-functions", "500"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "method       : mdrc" in text
        assert "indices" in text

    def test_csv_input(self, tmp_path):
        data = synthetic_dot(n=100, d=2, seed=0, normalize=False)
        path = tmp_path / "flights.csv"
        save_csv(data, path)
        out = io.StringIO()
        code = main(
            ["represent", "--csv", str(path), "--k", "5",
             "--eval-functions", "200"],
            out=out,
        )
        assert code == 0
        assert "method       : 2drrr" in out.getvalue()

    def test_absolute_k(self):
        out = io.StringIO()
        code = main(
            ["represent", "--n", "200", "--d", "3", "--k", "10",
             "--eval-functions", "200"],
            out=out,
        )
        assert code == 0
        assert "k            : 10" in out.getvalue()

    def test_process_backend_exits_2(self, capsys):
        # ``--jobs`` alone picks serial or threads: there is no --backend,
        # and no --timeout or --max-retries for the fan-out either.
        for flag, value in (
            ("--backend", "process"),
            ("--backend", "thread"),
            ("--timeout", "3"),
            ("--max-retries", "2"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["represent", "--n", "50", flag, value], out=io.StringIO())
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_missing_csv_is_clean_error(self, capsys):
        code = main(["represent", "--csv", "/nope/missing.csv"], out=io.StringIO())
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestKsets:
    def test_2d_exact_path(self):
        out = io.StringIO()
        code = main(
            ["ksets", "--dataset", "bn", "--n", "80", "--d", "2", "--k", "0.05"],
            out=out,
        )
        assert code == 0
        assert "exact 2-D enumeration" in out.getvalue()

    def test_md_sampled_path(self):
        out = io.StringIO()
        code = main(
            ["ksets", "--n", "80", "--d", "3", "--k", "0.05",
             "--patience", "30"],
            out=out,
        )
        assert code == 0
        assert "K-SETr" in out.getvalue()


class TestExperiment:
    def test_runs_smallest_kset_figure(self, monkeypatch):
        # Shrink the bench config further so the CLI test stays fast.
        from repro.experiments import config as config_module

        small = dict(config_module.BENCH_EXPERIMENTS)
        from dataclasses import replace

        small["fig13"] = replace(small["fig13"], n=60, values=(0.05,))
        monkeypatch.setattr(config_module, "BENCH_EXPERIMENTS", small)
        out = io.StringIO()
        code = main(["experiment", "fig13", "--scale", "bench"], out=out)
        assert code == 0
        assert "#k-sets" in out.getvalue()
