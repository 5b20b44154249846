"""Tests for the top-level package surface."""

import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.datasets",
            "repro.ranking",
            "repro.geometry",
            "repro.setcover",
            "repro.core",
            "repro.baselines",
            "repro.evaluation",
            "repro.experiments",
            "repro.cli",
        ],
    )
    def test_submodule_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_every_public_callable_has_docstring(self):
        missing = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not inspect.isclass(obj):
                if not (obj.__doc__ or "").strip():
                    missing.append(name)
        assert not missing, f"missing docstrings: {missing}"

    def test_every_public_class_has_docstring(self):
        missing = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) and not (obj.__doc__ or "").strip():
                missing.append(name)
        assert not missing

    def test_exceptions_form_hierarchy(self):
        assert issubclass(repro.ValidationError, repro.ReproError)
        assert issubclass(repro.DatasetError, repro.ReproError)
        assert issubclass(repro.GeometryError, repro.ReproError)
        assert issubclass(repro.InfeasibleError, repro.ReproError)
        assert issubclass(repro.ConvergenceError, repro.ReproError)
        assert issubclass(repro.ValidationError, ValueError)


def _run_child(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = Path(repro.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


class TestColdImport:
    def test_scipy_loads_on_first_lp_solve(self):
        """Importing the library, CLI and server must not load scipy; the
        first separability LP does."""
        result = _run_child(
            """
            import sys
            import numpy as np
            import repro, repro.cli, repro.serve
            assert "scipy" not in sys.modules, "scipy loaded at import"
            values = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
            assert repro.geometry.is_separable(values, [0])
            assert not repro.geometry.is_separable(values, [2])
            assert "scipy" in sys.modules
            """
        )
        assert result.returncode == 0, result.stderr

    def test_no_process_pool_modules_at_import(self):
        """The engine fans out over threads only, so importing the
        library, CLI and server loads no process-pool machinery."""
        result = _run_child(
            """
            import sys
            import repro, repro.cli, repro.serve
            loaded = {"multiprocessing", "concurrent.futures.process"} & set(sys.modules)
            assert not loaded, sorted(loaded)
            """
        )
        assert result.returncode == 0, result.stderr
