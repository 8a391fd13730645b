"""Dependencies between the package's layers point one way.

``sset_core`` <- ``marked`` <- ``fractions``/``exfunctor`` <- ``localize``
<- ``cli``; ``dht`` imports only ``sset_core``.  Every relative import is
checked, at module and at function level.
"""

import ast
from pathlib import Path

import fraction_forge

PKG = Path(fraction_forge.__file__).resolve().parent

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
