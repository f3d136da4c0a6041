"""No package definition or method that only the tests call.

Module level: every undecorated module-level ``def`` and ``class`` of
``src/fgcert`` (``__init__`` aside) must be named somewhere in the
package outside ``__init__``, or in the benchmark harness
``perfbench/*.py``: as a name, an attribute, or an imported name.  The
tests do not count, and neither does the export list of ``__init__``,
so a function that only tests call fails here.  A decorated definition
(a click command) is registered by its decorator and is skipped.

Methods: every method of a module-level class of the package must be
named as an attribute (``x.name``) in the same code.  A method name
that several classes define, or that another class has as a field (a
dataclass field, or an attribute set as ``self.name = ...``), counts
only through a qualified reference: ``Class.name`` anywhere, or
``self.name`` and ``cls.name`` inside that class.  A scan of names
cannot tell which class an instance ``x.name`` belongs to, so such a
method, reached through instances only, is listed in ``KEPT`` with the
class that keeps it and the reason.  Operator methods (``__mul__``,
``__getitem__``, ...) are called by syntax, not by name, and are out of
reach of this scan.

Defaults: every defaulted parameter of an undecorated module-level
function, or of a method of a module-level class, must be set by some
call in the same code: by keyword, by position, or through ``*args`` or
``**kwargs``.  A call matches by the name it calls (the class name for
``__init__``), and positions skip ``self`` or ``cls`` except on a
``staticmethod``.  A parameter that only tests set is an option no
caller takes, and fails here.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fgcert"

# Methods whose name another class shares as a method or a field,
# reached only through an instance: "Class.method" -> who calls it.
KEPT = {
    "Alphabet.generators": "homs.inner_aut and VerifiedAut: alpha.generators()",
    "SchreierSystem.generators": "cli's section2, largeness and quotients schreier output",
    "SchreierSystem.transversal": "NOracle: self.delta.transversal; cli's quotients "
                                  "schreier output: system.transversal",
    "Alphabet.index": "words.parse_word: alpha.index(name); index is also a field "
                      "of NOracle and SchreierSystem",
    "VerifiedAut.alphabet": "magnus.ka_check: auts[0].alphabet.rank",
    "Factored.divides": "congruence.certify: order_mod_m.divides(bound)",
    "VerifiedAut.inverse": "cli's largeness and magnus suites: aut.inverse()",
    "NOracle.contains": "cli's congruence suite: oracle.contains(w)",
    "SchreierSystem.contains": "cli's congruence suite: oracle.schreier.contains(w)",
    "MOracle.contains": "perfbench schreier-queries: self.moracle.contains(w)",
    "SubgroupHom.fixes_base": "NOracle.contains and cli's congruence checks: pi.fixes_base",
    "FiniteQuotient.fixes_base": "perfbench certify-ladder samples: k.fixes_base(...)",
    "Certificate.to_json": "cli's congruence suite and certify command: cert.to_json()",
    "FiniteQuotient.to_json": "the inverse of from_json, so that one module decides "
                              "the quotient file format",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_modules() -> dict[Path, ast.Module]:
    return {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def caller_trees(modules: dict[Path, ast.Module]) -> list[ast.Module]:
    """The package outside ``__init__``, and the benchmark harness."""
    return [*modules.values(), *map(parse, sorted((ROOT / "perfbench").glob("*.py")))]


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


def classes(modules: dict[Path, ast.Module]) -> list[ast.ClassDef]:
    return [node for tree in modules.values() for node in tree.body
            if isinstance(node, ast.ClassDef)]


def fields(cls: ast.ClassDef) -> set[str]:
    """The class's annotated fields, and the attributes its code sets on
    ``self``."""
    names = {node.target.id for node in cls.body
             if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    for node in ast.walk(cls):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        for target in targets:
            for leaf in ast.walk(target):
                if (isinstance(leaf, ast.Attribute) and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"):
                    names.add(leaf.attr)
    return names


def methods(cls: ast.ClassDef) -> list[str]:
    """The names of the class's methods, operator methods aside."""
    return [node.name for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def attribute_references(trees, class_defs) -> tuple[set[str], set[tuple[str, str]]]:
    """Every attribute name, and the (class, attribute) pairs of the
    qualified references: ``Class.name``, and ``self.name`` or
    ``cls.name`` inside the class."""
    attrs, qualified = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    qualified.add((node.value.id, node.attr))
    for cls in class_defs:
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")):
                qualified.add((cls.name, node.attr))
    return attrs, qualified


def unreached_methods() -> list[str]:
    """"Class.method" for each method no package or harness code names."""
    modules = package_modules()
    class_defs = classes(modules)
    attrs, qualified = attribute_references(caller_trees(modules), class_defs)
    defined = Counter(name for cls in class_defs for name in methods(cls))
    field_names = {cls.name: fields(cls) for cls in class_defs}

    def shared(cls: ast.ClassDef, name: str) -> bool:
        return defined[name] > 1 or any(
            name in names for owner, names in field_names.items() if owner != cls.name)

    return [f"{cls.name}.{name}" for cls in class_defs for name in methods(cls)
            if not ((cls.name, name) in qualified if shared(cls, name) else name in attrs)]


def functions(modules: dict[Path, ast.Module]) -> list[tuple[str, str, ast.FunctionDef, int]]:
    """("module.qualname", the name a call uses, the def, how many leading
    parameters a call does not pass) for each function and method."""
    out = []
    for path, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.decorator_list:
                out.append((f"{path.stem}.{node.name}", node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in fn.decorator_list)
                        callee = node.name if fn.name == "__init__" else fn.name
                        out.append((f"{path.stem}.{node.name}.{fn.name}", callee, fn,
                                    0 if static else 1))
    return out


def defaulted(fn: ast.FunctionDef, skipped: int) -> list[tuple[str, int | None]]:
    """(name, position in a call, or None if keyword-only) of each
    parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(arg.arg, i - skipped) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def sets(call: ast.Call, name: str, position: int | None) -> bool:
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return position is not None and (len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args))


def unset_defaults() -> list[str]:
    """"module.qualname parameter" for each defaulted parameter that no
    package or harness call sets."""
    modules = package_modules()
    calls: dict[str, list[ast.Call]] = {}
    for tree in caller_trees(modules):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    return [f"{qualname} {name}" for qualname, callee, fn, skipped in functions(modules)
            for name, position in defaulted(fn, skipped)
            if not any(sets(call, name, position) for call in calls.get(callee, ()))]


def test_every_package_definition_is_named_outside_the_tests():
    modules = package_modules()
    used = set()
    for tree in caller_trees(modules):
        used |= names_used(tree)
    unused = [f"{path.stem}.{node.name}"
              for path, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.decorator_list and node.name not in used]
    assert not unused, f"defined in src/fgcert but named only by tests: {unused}"


def test_every_package_method_is_reached_outside_the_tests():
    unreached = [name for name in unreached_methods() if name not in KEPT]
    assert not unreached, f"methods in src/fgcert reached only by tests: {unreached}"


def test_every_kept_method_still_needs_its_entry():
    # an entry whose method is gone, or is now reached by a qualified
    # reference, would let a later dead method of that name through
    stale = set(KEPT) - set(unreached_methods())
    assert not stale, f"KEPT entries the scan no longer needs: {sorted(stale)}"


def test_every_defaulted_parameter_is_set_outside_the_tests():
    unset = unset_defaults()
    assert not unset, f"defaulted parameters in src/fgcert set only by tests: {unset}"
