"""Dependencies between the package's layers point one way.

``sset_core`` <- ``marked`` <- ``fractions``/``exfunctor`` <- ``localize``
<- ``cli``; ``dht`` imports only ``sset_core``.  Every relative import is
checked, at module and at function level, and every import sits at
module level.  Every top-level name of the core layers has a caller in
the program, the benchmark, the tools or the acceptance gate.
"""

import ast
from pathlib import Path

import fraction_forge

PKG = Path(fraction_forge.__file__).resolve().parent
REPO = PKG.parents[1]

RANK = {"sset_core": 0, "marked": 1, "fractions": 2, "exfunctor": 2,
        "localize": 3, "dht": 3, "cli": 4}


def allowed(src, dst):
    if src == dst:
        return True
    if "dht" in (src, dst):
        return (src, dst) in (("dht", "sset_core"), ("cli", "dht"))
    return RANK[dst] < RANK[src]


def imported_layers(path):
    """``(line, layer)`` for each relative import of a module."""
    package = list(path.relative_to(PKG).parent.parts)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[:len(package) - node.level + 1]
            target = base + (node.module.split(".") if node.module else [])
            if target:
                yield node.lineno, target[0]
            else:  # ``from . import x`` at the package root
                yield from ((node.lineno, a.name) for a in node.names)


def test_layers_point_one_way():
    bad = []
    modules = [p for p in sorted(PKG.rglob("*.py")) if p != PKG / "__init__.py"]
    assert len(modules) > 10
    for path in modules:
        src = path.relative_to(PKG).with_suffix("").parts[0]
        assert src in RANK, path
        for lineno, dst in imported_layers(path):
            assert dst in RANK, (path, lineno, dst)
            if not allowed(src, dst):
                bad.append(f"{path.relative_to(PKG)}:{lineno} imports {dst}")
    assert not bad, bad


def function_level_imports(path):
    """Lines of the imports made inside a function of a module."""
    return sorted({inner.lineno
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_imports_at_module_level():
    bad = [f"{path.relative_to(PKG)}:{lineno}"
           for path in sorted(PKG.rglob("*.py"))
           for lineno in function_level_imports(path)]
    assert not bad, bad


CORE = ("sset_core", "marked", "fractions", "exfunctor", "localize")


def test_every_core_name_has_a_program_caller():
    """A core function or class that only its own unit tests reach
    belongs in ``tests/`` or nowhere.  Imports are not callers."""
    defined = {node.name: path.relative_to(PKG)
               for path in sorted(PKG.rglob("*.py"))
               if path.relative_to(PKG).with_suffix("").parts[0] in CORE
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    callers = [p for p in PKG.rglob("*.py") if p.name != "__init__.py"]
    callers += [*(REPO / "perfbench").rglob("*.py"),
                *(REPO / "tools").rglob("*.py"),
                REPO / "tests" / "test_acceptance.py"]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for path in callers for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert len(defined) > 100
    unused = sorted(f"{path}: {name}" for name, path in defined.items()
                    if name not in used)
    assert not unused, unused
