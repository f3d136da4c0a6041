"""The package computes with Python integers only.

Every module of ``src/fgcert`` is parsed and searched for the ways a
float gets in: a float literal, a ``float(...)`` call, true division
``/``, numpy, and ``math`` beyond the integer square root.  The one
clock is the CLI's check timing, so only ``cli.py`` may import ``time``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fgcert"
MATH_ALLOWED = {"isqrt"}
TIME_ALLOWED_IN = {"cli.py"}


def float_entries(tree: ast.AST, filename: str) -> list[str]:
    """``line: what`` for every way a float could enter the module."""
    hits = []

    def hit(node, what):
        hits.append(f"{filename}:{node.lineno}: {what}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            hit(node, f"float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            hit(node, "float(...)")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            hit(node, "true division /")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in ("numpy", "math") or (top == "time" and filename not in TIME_ALLOWED_IN):
                    hit(node, f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            top = node.module.split(".")[0]
            if top == "numpy" or (top == "time" and filename not in TIME_ALLOWED_IN):
                hit(node, f"from {node.module} import ...")
            elif top == "math":
                for alias in node.names:
                    if alias.name not in MATH_ALLOWED:
                        hit(node, f"from math import {alias.name}")
    return hits


def test_package_modules_are_integer_only():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    hits = []
    for path in modules:
        hits += float_entries(ast.parse(path.read_text("utf-8")), path.name)
    assert hits == []


@pytest.mark.parametrize("source, what", [
    ("x = 0.5", "float literal 0.5"),
    ("x = 1e3", "float literal 1000.0"),
    ("x = 2j", "float literal 2j"),
    ("y = float(3)", "float(...)"),
    ("y = 3 / 2", "true division /"),
    ("y = 3\ny /= 2", "true division /"),
    ("import numpy as np", "import numpy"),
    ("import numpy.linalg", "import numpy.linalg"),
    ("from numpy import array", "from numpy import ..."),
    ("import math", "import math"),
    ("from math import log", "from math import log"),
    ("import time", "import time"),
])
def test_each_float_entry_is_caught(source, what):
    hits = float_entries(ast.parse(source), "words.py")
    assert [h.split(": ", 1)[1] for h in hits] == [what]


def test_the_allowances_pass():
    source = "from math import isqrt\ny = 7 // 2\nz = divmod(7, 2)"
    assert float_entries(ast.parse(source), "intlinalg.py") == []
    assert float_entries(ast.parse("import time"), "cli.py") == []
