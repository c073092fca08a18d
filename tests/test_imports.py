"""No package module imports a name it never uses, or exports a name it
does not define; only ``ufcast._numerics`` imports scipy, and only it
calls a float op whose rounding depends on the CPU path.

No linter ships with the test environment, so this scans each module's
top-level imports with ``ast`` instead.  A name counts as used when the
module reads it anywhere (string annotations included) or lists it in
``__all__``; ``from __future__`` imports are directives, not names.  Every
name in ``__all__`` must be an attribute of the imported module.  The
scipy scan reads every import statement, those inside functions too, and
the rounding scan reads every node.  Only ``ufcast.core`` names the
``numbers`` ABCs: every other module checks a count with ``_check_integer``
and a real-valued setting with ``_check_real``.  Only
``ufcast.m4.runner.open_outputs`` opens a file for writing, so every output
file appears all or nothing.
"""

import ast
import importlib
import re
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


# Ops whose last bits depend on the BLAS kernel or the SIMD path numpy
# picks at run time: products, convolutions, least squares (``polyfit``
# solves one), covariances, logarithms, exponentials and powers.
# ``np.logical_*`` and ``np.expand_dims`` are not among them.
_NUMPY_OPS = re.compile(
    r"dot|matmul|einsum|inner|vdot|tensordot|convolve|correlate|linalg"
    r"|polyfit|cov|corrcoef|(float_)?power|log(1p|2|10|addexp2?)?"
    r"|exp(m1|2)?")
_MATH_OPS = re.compile(r"pow|log(1p|2|10)?|exp(m1|2)?")
_OP_MODULES = {"np": _NUMPY_OPS, "numpy": _NUMPY_OPS, "math": _MATH_OPS}

# The one site outside ``_numerics`` allowed such ops, by module and the
# source of each call.  The KNN filter bounds each squared distance with a
# matrix-vector product, the query's norm and the fitted rows' norms, and
# its bound covers any summation order or FMA the BLAS may use; the exact
# kernel then ranks the rows left.  So predictions do not depend on how
# these products round.
ALLOWED = {
    "ufcast/regress.py": {
        "q.dot(q)",
        "self._X.dot(q)",
        "np.einsum('ij,ij->i', X, X)",
    },
}


def _integer_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _banned_attribute(node) -> bool:
    """``np.<op>``, ``numpy.<op>``, ``math.<op>`` or any ``.dot``."""
    if node.attr == "dot":
        return True
    ops = (_OP_MODULES.get(node.value.id)
           if isinstance(node.value, ast.Name) else None)
    return ops is not None and ops.fullmatch(node.attr) is not None


def _banned_import(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.linalg")
                   for alias in node.names)
    if not isinstance(node, ast.ImportFrom) or node.level:
        return False
    module = node.module or ""
    if module.startswith("numpy.linalg"):
        return True
    ops = {"numpy": _NUMPY_OPS, "math": _MATH_OPS}.get(module)
    return ops is not None and any(ops.fullmatch(alias.name)
                                   for alias in node.names)


def rounding_ops(source: str) -> list[str]:
    """``"<line>: <source>"`` of each use of an op the rounding gate bans:
    an ``np``/``math`` op above or ``.dot`` (the whole call when called),
    ``@``, ``**`` with an exponent that is not an integer literal (``-2``
    is one), and an import of any of them."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _banned_attribute(node):
            # report the outermost expression: np.linalg.lstsq(...)
            up = parent.get(node)
            while (isinstance(up, ast.Attribute)
                   or (isinstance(up, ast.Call) and up.func is node)):
                node, up = up, parent.get(up)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            if not (isinstance(node.op, ast.MatMult)
                    or (isinstance(node.op, ast.Pow)
                        and not _integer_literal(
                            node.right if isinstance(node, ast.BinOp)
                            else node.value))):
                continue
        elif not _banned_import(node):
            continue
        found.append(f"{node.lineno}: {ast.unparse(node)}")
    return sorted(set(found), key=lambda f: int(f.partition(":")[0]))


@pytest.mark.parametrize(
    "module", [m for m in MODULES if m != NUMERICS],
    ids=[str(m.relative_to(SRC)) for m in MODULES if m != NUMERICS])
def test_only_numerics_rounds_by_cpu_path(module):
    name = str(module.relative_to(SRC))
    found = rounding_ops(module.read_text())
    allowed = ALLOWED.get(name, set())
    assert [f for f in found if f.partition(": ")[2] not in allowed] == []
    # the allowance names sites that exist, and nothing else
    assert {f.partition(": ")[2] for f in found} == allowed


def test_rounding_scanner_sees_every_banned_op():
    banned = [
        "np.dot(a, b)", "a.dot(b)", "a @ b", "np.matmul(a, b)",
        "np.einsum('i,i', a, b)", "np.inner(a, b)", "np.vdot(a, b)",
        "np.tensordot(a, b)", "np.convolve(a, b)", "np.correlate(a, b)",
        "np.linalg.lstsq(a, b)", "numpy.linalg.norm(a)", "np.log(a)",
        "np.log1p(a)", "np.log10(a)", "np.logaddexp(a, b)", "np.exp(a)",
        "np.expm1(a)", "np.power(a, b)", "np.float_power(a, b)",
        "np.polyfit(x, y, 1)", "np.cov(a)", "math.log(x)", "math.log2(x)",
        "math.exp(x)", "math.pow(x, y)", "x ** y", "x ** 0.5",
        "x ** (1 / lam)", "2 ** n", "f = np.log",
        "import numpy.linalg", "from numpy import dot",
        "from numpy.linalg import lstsq", "from math import log",
        "from numpy import exp as e",
    ]
    for snippet in banned:
        assert rounding_ops(snippet), snippet
    assert rounding_ops("a @= b\nx **= 0.5") == ["1: a @= b", "2: x **= 0.5"]
    assert rounding_ops("y = np.linalg.lstsq(a, b, rcond=None)[0]") == [
        "1: np.linalg.lstsq(a, b, rcond=None)"]
    allowed = [
        "x ** 2", "2.0**-53", "2.0 ** 1000", "f(**kwargs)", "{**a, 'b': 1}",
        "def f(**kw): pass", "np.sqrt(x)", "math.sqrt(x)", "x.sum()",
        "x.mean()", "np.logical_and(a, b)", "np.expand_dims(a, 0)",
        "np.cumsum(a)", "a * b + c / d", "from numpy import sqrt",
        "from numpy.lib.stride_tricks import sliding_window_view",
        "import math", "import numpy as np", "@property\ndef f(): pass",
    ]
    for snippet in allowed:
        assert rounding_ops(snippet) == [], snippet
    assert rounding_ops(NUMERICS.read_text())


CORE = SRC / "ufcast" / "core.py"
_NUMBER_ABCS = {"Real", "Integral"}


def number_abcs(source: str) -> list[str]:
    """``"<line>: <source>"`` of each use of ``numbers.Real`` or
    ``numbers.Integral`` (through any alias of the module) and each import
    of either."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "numbers"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr in _NUMBER_ABCS
                   and isinstance(node.value, ast.Name)
                   and node.value.id in aliases)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "numbers" and any(
                alias.name in _NUMBER_ABCS | {"*"} for alias in node.names)
        else:
            continue
        if hit:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize(
    "module", [m for m in MODULES if m != CORE],
    ids=[str(m.relative_to(SRC)) for m in MODULES if m != CORE])
def test_only_core_checks_number_types(module):
    assert number_abcs(module.read_text()) == []


def test_number_abc_scanner_sees_every_use():
    banned = [
        "import numbers\nisinstance(x, numbers.Real)",
        "import numbers as n\nisinstance(x, n.Integral)",
        "from numbers import Real", "from numbers import Integral as I",
        "from numbers import *",
        "import numbers\ndef f():\n    return numbers.Integral",
    ]
    for snippet in banned:
        assert number_abcs(snippet), snippet
    allowed = [
        "import numbers\nisinstance(x, numbers.Number)",
        "from numbers import Complex", "x.Real", "Real = 1",
        "import numpy as np\nnp.Real",
    ]
    for snippet in allowed:
        assert number_abcs(snippet) == [], snippet
    assert number_abcs(CORE.read_text())


WRITER_MODULE = SRC / "ufcast" / "m4" / "runner.py"
WRITER = "open_outputs"
_WRITE_MODES = set("wax+")


def _open_mode(call):
    """The mode argument of an ``open`` call, or None when it has none:
    ``open(path, mode)`` and ``io.open(...)``, or ``path.open(mode)``."""
    func = call.func
    if isinstance(func, ast.Name) or (isinstance(func.value, ast.Name)
                                      and func.value.id in ("io", "os")):
        position = 1
    else:
        position = 0
    for keyword in call.keywords:
        if keyword.arg in ("mode", "flags"):
            return keyword.value
    return call.args[position] if len(call.args) > position else None


def file_writes(source: str, skip_function: str | None = None) -> list[str]:
    """``"<line>: <source>"`` of each call that can write a file: ``open``
    (any ``.open`` too) with a mode that holds ``w``, ``a``, ``x`` or
    ``+`` or is not a string literal, ``write_text`` and ``write_bytes``;
    calls inside the function named ``skip_function`` are left out."""
    tree = ast.parse(source)
    skipped = {id(node) for top in ast.walk(tree)
               if isinstance(top, ast.FunctionDef)
               and top.name == skip_function for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skipped:
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name == "open":
            mode = _open_mode(node)
            writes = mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not _WRITE_MODES & set(mode.value))
        else:
            writes = (isinstance(func, ast.Attribute)
                      and name in ("write_text", "write_bytes"))
        if writes:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize(
    "module", MODULES, ids=[str(m.relative_to(SRC)) for m in MODULES])
def test_only_the_writer_writes_files(module):
    skip = WRITER if module == WRITER_MODULE else None
    assert file_writes(module.read_text(), skip) == []


def test_write_scanner_sees_every_file_write():
    banned = [
        "open(p, 'w')", "open(p, 'a', encoding='utf-8')", "open(p, 'x')",
        "open(p, 'wb')", "open(p, 'r+')", "open(p, mode='w')",
        "open(p, mode)", "io.open(p, 'w')", "Path(p).open('w')",
        "p.open(mode='a')", "os.open(p, os.O_WRONLY)", "p.write_text(s)",
        "Path(p).write_bytes(b)",
        "def f():\n    with open(p, 'w') as fh:\n        pass",
    ]
    for snippet in banned:
        assert file_writes(snippet), snippet
    allowed = [
        "open(p)", "open(p, 'rb')", "open(p, 'r')",
        "open(p, newline='', encoding='utf-8-sig')", "p.open()",
        "p.open('rb')", "fh.write(s)", "p.read_text()", "write_text(s)",
        "def open_outputs(paths):\n    fh = open(p, 'x')",
    ]
    for snippet in allowed:
        assert file_writes(snippet, WRITER) == [], snippet
    # the writer writes, and it is the only function left out
    assert file_writes(WRITER_MODULE.read_text())
    assert file_writes("def g():\n    open(p, 'x')", WRITER) == [
        "2: open(p, 'x')"]
