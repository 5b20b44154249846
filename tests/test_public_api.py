"""Tests for the top-level package surface."""

import ast
import importlib
import inspect
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
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


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = Path(repro.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.datasets",
    "repro.engine",
    "repro.evaluation",
    "repro.experiments",
    "repro.geometry",
    "repro.ranking",
    "repro.serve",
    "repro.setcover",
]

# Each export of one package, read after its submodules were imported in
# the given order ("normal": none first), as (type, module, qualname or
# repr).  An export is never a module: a submodule loaded first must not
# replace an export of the same name (``repro.core.mdrc``).
_EXPORTS_AFTER = """
import importlib, json, pkgutil, sys, types
package, order = sys.argv[1:]
pkg = importlib.import_module(package)
if order != "normal":
    names = sorted(m.name for m in pkgutil.iter_modules(pkg.__path__) if m.name != "__main__")
    for name in names if order == "forward" else names[::-1]:
        importlib.import_module(f"{package}.{name}")
prints = {}
for name in pkg.__all__:
    obj = getattr(pkg, name)
    assert not isinstance(obj, types.ModuleType), f"{package}.{name} is a module"
    if callable(obj):
        assert getattr(sys.modules[obj.__module__], obj.__name__) is obj, name
    prints[name] = [
        type(obj).__name__,
        getattr(obj, "__module__", None),
        getattr(obj, "__qualname__", repr(obj)),
    ]
json.dump(prints, sys.stdout)
"""


class TestLazyExports:
    """Exports resolve on first use to the object an eager import bound."""

    @pytest.mark.parametrize("package", PACKAGES)
    def test_same_objects_in_any_import_order(self, package):
        prints = {}
        for order in ("normal", "forward", "reverse"):
            result = _run_child(_EXPORTS_AFTER, package, order)
            assert result.returncode == 0, result.stderr
            prints[order] = json.loads(result.stdout)
        mod = importlib.import_module(package)
        assert list(prints["normal"]) == list(mod.__all__)
        assert prints["forward"] == prints["normal"]
        assert prints["reverse"] == prints["normal"]

    def test_names_shared_with_submodules_stay_functions(self):
        result = _run_child(
            """
            import sys
            import repro.baselines.cube, repro.baselines.greedy_regret
            import repro.baselines.hd_rrms, repro.core.mdrc, repro.geometry.skyline
            import repro
            for package, name in [("core", "mdrc"), ("geometry", "skyline"),
                                  ("baselines", "cube"), ("baselines", "greedy_regret"),
                                  ("baselines", "hd_rrms")]:
                module = sys.modules[f"repro.{package}.{name}"]
                function = getattr(module, name)
                assert getattr(getattr(repro, package), name) is function, name
                assert getattr(repro, name) is function, name
            """
        )
        assert result.returncode == 0, result.stderr

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert set(repro.__all__) <= set(dir(repro))
        assert repro.geometry.__name__ == "repro.geometry"
        with pytest.raises(AttributeError):
            repro.no_such_name

    def test_version_is_a_literal(self):
        tree = ast.parse(Path(repro.__file__).read_text())
        versions = [
            node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] == ["__version__"]
        ]
        assert versions == [repro.__version__]


def _run_after_importing_every_module(code: str) -> subprocess.CompletedProcess:
    """``_run_child(code)`` after importing every module of the package
    (the ``python -m repro`` entry point aside), so that a top-level
    import anywhere in it reaches the check."""
    prelude = """
    import importlib, pkgutil, sys
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)
    assert sum(m.startswith("repro.") for m in sys.modules) > 60
    """
    return _run_child(textwrap.dedent(prelude) + textwrap.dedent(code))


class TestColdImport:
    def test_scipy_loads_on_first_lp_solve(self):
        """Importing every module of the library, CLI and server included,
        must not load scipy; the first separability LP does."""
        result = _run_after_importing_every_module(
            """
            import numpy as np
            assert "scipy" not in sys.modules, "scipy loaded at import"
            values = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
            assert repro.geometry.is_separable(values, [0])
            assert not repro.geometry.is_separable(values, [2])
            assert "scipy" in sys.modules
            """
        )
        assert result.returncode == 0, result.stderr

    def test_no_process_pool_modules_at_import(self):
        """The engine fans out over threads only, so importing every
        module of the library loads no process-pool machinery."""
        result = _run_after_importing_every_module(
            """
            loaded = {"multiprocessing", "concurrent.futures.process"} & set(sys.modules)
            assert not loaded, sorted(loaded)
            """
        )
        assert result.returncode == 0, result.stderr

    def test_import_repro_loads_no_subpackage(self):
        result = _run_child(
            """
            import sys
            import repro
            loaded = sorted(m for m in sys.modules if m.startswith("repro"))
            assert loaded == ["repro", "repro._lazy"], loaded
            """
        )
        assert result.returncode == 0, result.stderr

    def test_session_topk_loads_the_engine_alone(self):
        """A Session loads at most 12 repro modules, and its serving-size
        top-k reads load no algorithm, evaluation, dataset or geometry
        module (a batch of 256 or more nonnegative functions builds its
        k-skyband with ``repro.geometry.skyline``)."""
        result = _run_child(
            """
            import sys
            import numpy as np
            import repro
            session = repro.Session(np.random.default_rng(0).random((2000, 4)))
            loaded = sorted(m for m in sys.modules if m.startswith("repro"))
            assert len(loaded) <= 12, loaded
            session.topk(np.full((1, 4), 0.25), 10)
            session.topk(np.random.default_rng(1).random((64, 4)), 10)
            unused = {"baselines", "core", "datasets", "evaluation", "experiments",
                      "geometry", "setcover"}
            loaded = [m for m in sys.modules if m.split(".")[0] == "repro"
                      and m.split(".")[1:2] and m.split(".")[1] in unused]
            assert not loaded, loaded
            """
        )
        assert result.returncode == 0, result.stderr

    def test_server_boot_path_loads_no_algorithm(self, tmp_path):
        """``repro serve --csv`` loads at most 22 repro modules and none of
        ``repro.{core,baselines,evaluation,experiments}`` up to its first
        top-k and rank answers; views and algorithms load on the first
        ``/v1/representative``."""
        from repro.datasets import save_csv, synthetic_dot
        from repro.serve import ServiceClient

        csv = tmp_path / "data.csv"
        save_csv(synthetic_dot(n=2000, d=4, seed=0, normalize=False), csv)
        out = str(tmp_path / "modules")
        command = [sys.executable, "-c", textwrap.dedent(_SERVE_AND_REPORT), out]
        proc = subprocess.Popen(
            [*command, "--csv", str(csv), "--port", "0"],
            env=_child_env(),
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stderr.readline()
            assert "listening on http://" in line, line
            url = line.split("listening on ", 1)[1].split()[0]
            with ServiceClient(url, timeout=30) as client:
                weights = np.full((1, 4), 0.25)
                client.topk(weights, 5)
                client.rank(weights, [0, 1])
                proc.send_signal(signal.SIGUSR1)
                deadline = time.monotonic() + 30
                while not os.path.exists(out + ".boot") and time.monotonic() < deadline:
                    time.sleep(0.01)
                client.representative(5)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        with open(out + ".boot") as handle:
            boot = json.load(handle)
        assert len(boot) <= 22, boot
        unused = {"core", "baselines", "evaluation", "experiments"}
        assert not [m for m in boot if m.split(".")[1:2] and m.split(".")[1] in unused], boot
        with open(out + ".exit") as handle:
            after = set(json.load(handle))
        assert {"repro.core.mdrc", "repro.engine.views"} <= after


# ``repro serve ARGS`` that writes the repro modules it has loaded to
# OUT.boot on SIGUSR1 and to OUT.exit when it exits: python -c CODE OUT ARGS.
_SERVE_AND_REPORT = """
import atexit, json, os, signal, sys
out = sys.argv[1]

def dump(path):
    with open(path + ".tmp", "w") as handle:
        json.dump(sorted(m for m in sys.modules if m.startswith("repro")), handle)
    os.replace(path + ".tmp", path)

signal.signal(signal.SIGUSR1, lambda *_: dump(out + ".boot"))
atexit.register(dump, out + ".exit")
from repro.cli import main
sys.exit(main(["serve", *sys.argv[2:]]))
"""
