"""No package module imports a name it never uses, or exports a name it
does not define, and only ``ufcast._numerics`` imports scipy.

No linter ships with the test environment, so this scans each module's
top-level imports with ``ast`` instead.  A name counts as used when the
module reads it anywhere (string annotations included) or lists it in
``__all__``; ``from __future__`` imports are directives, not names.  Every
name in ``__all__`` must be an attribute of the imported module.  The
scipy scan reads every import statement, those inside functions too.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "ufcast").rglob("*.py"))
NUMERICS = SRC / "ufcast" / "_numerics.py"


def _imported(tree):
    """Top-level imported name -> line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _read_names(tree):
    """Names the module reads, including those in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _read_names(ast.parse(ann.value, mode="eval"))
    return used


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _read_names(tree) | _exported(tree)
    return sorted(
        f"{name} (line {line})"
        for name, line in _imported(tree).items() if name not in used
    )


@pytest.mark.parametrize(
    "module", MODULES, ids=[str(m.relative_to(SRC)) for m in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


@pytest.mark.parametrize(
    "module", MODULES, ids=[str(m.relative_to(SRC)) for m in MODULES])
def test_every_exported_name_is_defined(module):
    name = ".".join(module.relative_to(SRC).with_suffix("").parts)
    imported = importlib.import_module(name.removesuffix(".__init__"))
    missing = [n for n in getattr(imported, "__all__", ())
               if not hasattr(imported, n)]
    assert missing == []


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import Any as A\n"
        "from .core import TimeSeries\n"
        "__all__ = ['TimeSeries']\n"
        "def f(x: 'A') -> None:\n"
        "    return os.path.join(x)\n"
        "@dataclass\n"
        "class C:\n"
        "    pass\n"
    )
    assert unused_imports(source) == ["field (line 4)", "json (line 2)"]


def scipy_imports(source: str) -> list[int]:
    """Line numbers of the import statements that load scipy or a module
    below it, wherever they stand."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "module", [m for m in MODULES if m != NUMERICS],
    ids=[str(m.relative_to(SRC)) for m in MODULES if m != NUMERICS])
def test_only_numerics_imports_scipy(module):
    assert scipy_imports(module.read_text()) == []


def test_scipy_scanner_sees_every_import_statement():
    source = (
        "import numpy, scipy\n"
        "import scipy.optimize as so\n"
        "from scipy import optimize\n"
        "import scipyx\n"
        "from .scipy import x\n"
        "def f():\n"
        "    from scipy.special import ndtr\n"
        "    class C:\n"
        "        import scipy.stats\n"
    )
    assert scipy_imports(source) == [1, 2, 3, 7, 9]
    assert scipy_imports(NUMERICS.read_text())
