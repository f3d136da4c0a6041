"""No package definition that only the tests call.

Every undecorated module-level ``def`` and ``class`` of ``src/fgcert``
(``__init__`` aside) must be named somewhere in the package outside
``__init__``, or in the benchmark harness ``perfbench/*.py``: as a
name, an attribute, or an imported name.  The tests do not count, and
neither does the export list of ``__init__``, so a function that only
tests call fails here.  A decorated definition (a click command) is
registered by its decorator and is skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fgcert"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_used(tree: ast.Module) -> set[str]:
    """Every name, attribute and imported name in a module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
    return used


def test_every_package_definition_is_named_outside_the_tests():
    modules = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    used = set()
    for tree in [*modules.values(), *map(parse, sorted((ROOT / "perfbench").glob("*.py")))]:
        used |= names_used(tree)
    unused = [f"{path.stem}.{node.name}"
              for path, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.decorator_list and node.name not in used]
    assert not unused, f"defined in src/fgcert but named only by tests: {unused}"
