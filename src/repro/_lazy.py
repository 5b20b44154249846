"""Package exports that load on first use.

Each ``repro`` package lists its exports as ``from ... import ...``
statements under ``if TYPE_CHECKING:``, where type checkers and linters
read them, and ends with ``lazy_exports(__name__)``.  At run time the
block is skipped; the helper reads the same statements from the
package's source, and the first read of an exported name
(``repro.mdrc``, ``from repro.core import mdrc``) imports the module
that defines it and binds the value on the package, so every later read
is a plain attribute lookup.  A submodule that is not an export
(``repro.geometry``, ``repro.engine.score_engine``) loads on its first
read the same way.  A process therefore imports only the modules it
uses, and each name is the same object whatever order modules load in.
"""

from __future__ import annotations

import ast
import importlib
import sys
import types

__all__ = ["lazy_exports"]


class _Package(types.ModuleType):
    """A package whose exports resolve on first access: PEP 562's
    ``__getattr__`` and ``__dir__``, plus the ``__setattr__`` that keeps
    an export bound when a submodule of the same name loads."""

    _exports: dict[str, tuple[str, str]] = {}  # name -> (module, attribute)

    def __getattr__(self, name: str):
        if name in self._exports:
            value = self.__dict__[name] = _load(self._exports[name])
            return value
        if not name.startswith("__"):
            submodule = f"{self.__name__}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")

    def __dir__(self) -> list[str]:
        return sorted({*self.__dict__, *self._exports})

    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on its package.  Where an export
        # shares its name (``repro.core.mdrc`` is the function, as is
        # ``repro.geometry.skyline``), the export keeps the name.
        if isinstance(value, types.ModuleType) and name in self._exports:
            value = _load(self._exports[name])
        super().__setattr__(name, value)


def _load(source: tuple[str, str]):
    """``getattr(import_module(module), attribute)`` for one export."""
    module, attr = source
    return getattr(importlib.import_module(module), attr)


def lazy_exports(name: str) -> None:
    """Make package ``name`` resolve its ``TYPE_CHECKING`` imports and its
    submodules on first attribute access."""
    package = sys.modules[name]
    exports = {}
    for node in ast.parse(package.__loader__.get_source(name)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                if isinstance(stmt, ast.ImportFrom):
                    for alias in stmt.names:
                        exports[alias.asname or alias.name] = (stmt.module, alias.name)
    package.__class__ = type("_Package", (_Package,), {"_exports": exports})
