"""Dependencies between the package's layers point one way.

``sset_core`` <- ``marked`` <- ``fractions``/``exfunctor`` <- ``localize``
<- ``cli``; ``dht`` imports only ``sset_core``.  Every relative import is
checked, at module and at function level, and every import sits at
module level.  Every top-level name of every layer below ``cli``, and
every public method of its classes, has a caller in the program, the
benchmark, the tools or the acceptance gate.
"""

import ast
import os
import subprocess
import sys
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
    package = ".".join(path.relative_to(PKG).parent.parts)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            target = imported_module(node, package)
            if target:
                yield node.lineno, target.split(".")[0]
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


def test_cli_import_loads_no_dataclasses():
    """Every CLI call pays for its imports: ``fraction_forge.cli`` loads
    neither ``dataclasses`` nor the modules it pulls in.  Checked in a
    fresh interpreter, since pytest itself imports them; ``-S`` keeps the
    site hooks of the host interpreter out of the count."""
    code = ("import fraction_forge.cli, sys; print(sorted("
            "{'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(PKG.parent)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


CORE = ("sset_core", "marked", "fractions", "exfunctor", "localize", "dht")


def module_paths():
    """The path of each module of the package by dotted name:
    ``localize``, ``sset_core.io``, ``dht`` for ``dht/__init__.py``."""
    out = {}
    for path in sorted(PKG.rglob("*.py")):
        parts = path.relative_to(PKG).with_suffix("").parts
        out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return out


def imported_module(node, package):
    """Dotted name of the package module an ``ImportFrom`` reads from
    (``""`` for the package root), or None for a module outside the
    package.  ``package`` is the dotted name of the importer's package,
    None outside the package."""
    if node.level:
        base = package.split(".") if package else []
        base = base[:len(base) - node.level + 1]
        return ".".join(base + (node.module.split(".") if node.module else []))
    parts = (node.module or "").split(".")
    return ".".join(parts[1:]) if parts[0] == "fraction_forge" else None


def uses(tree, module, names):
    """The ``(module, name)`` pairs a caller uses: each name it imports
    from a package module and reads, each attribute it reads off a
    package module, and, when ``module`` is the caller's own dotted
    name, each name of that module it reads bare outside its own
    definition.  A package module is a name bound to one by an import,
    or an attribute named after one (``P.localize``).  ``names`` are the
    package's modules."""
    aliases, imported, found = {}, {}, set()
    short = {}
    for m in names:
        short.setdefault(m.rpartition(".")[2], []).append(m)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            src = imported_module(
                node, None if module is None else module.rpartition(".")[0])
            for a in node.names if src is not None else ():
                sub = f"{src}.{a.name}".lstrip(".")
                if sub in names:
                    aliases[a.asname or a.name] = sub
                else:
                    imported[a.asname or a.name] = (src, a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "fraction_forge" and a.asname:
                    aliases[a.asname] = ".".join(parts[1:])
    own = {id(n) for d in tree.body
           if isinstance(d, (ast.FunctionDef, ast.ClassDef))
           for n in ast.walk(d) if isinstance(n, ast.Name) and n.id == d.name}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                found.add((aliases[base.id], node.attr))
            elif isinstance(base, ast.Attribute) \
                    and len(short.get(base.attr, ())) == 1:
                found.add((short[base.attr][0], node.attr))
        elif isinstance(node, ast.Name):
            if node.id in imported and isinstance(node.ctx, ast.Load):
                found.add(imported[node.id])
            if module is not None and id(node) not in own:
                found.add((module, node.id))
    return found


def test_uses_resolve_names_not_spellings():
    names = set(module_paths())
    tree = ast.parse(
        "from .build import product\n"
        "from .sset import SSet\n"
        "from . import io as ffio\n"
        "import fraction_forge.cli as cli\n"
        "def join(x):\n"
        "    return join(x)\n"
        "''.join(x); ffio.read_json(x); P.localize.pi0(x); cli.main()\n"
        "nerve_category(x); product(x, x)\n")
    found = uses(tree, "sset_core.nerves", names)
    assert ("sset_core.build", "product") in found
    # an import the module never reads is no use
    assert ("sset_core.sset", "SSet") not in found
    assert ("sset_core.io", "read_json") in found
    assert ("localize", "pi0") in found
    assert ("cli", "main") in found
    assert ("sset_core.nerves", "nerve_category") in found
    # neither a method of another type nor a self-call is a use
    assert not {use for use in found if use[1] == "join"}
    # outside the package, a bare name is no use of any module's name
    assert not uses(ast.parse("nerve_category(x)"), None, names)


def test_every_core_name_has_a_program_caller():
    """A core function or class that only its own unit tests reach
    belongs in ``tests/`` or nowhere.  A use is an import, a bare
    reference in the defining module, or an attribute read off a
    package module (see ``uses``); a package's ``__init__`` re-exports
    are followed to the defining module but are no use themselves."""
    files = module_paths()
    trees = {m: ast.parse(path.read_text()) for m, path in files.items()}
    defined = {(m, node.name) for m, tree in trees.items()
               if m.split(".")[0] in CORE
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    exports = {}
    for m, path in files.items():
        for node in trees[m].body if path.name == "__init__.py" else ():
            if isinstance(node, ast.ImportFrom) and node.level:
                src = imported_module(node, m)
                exports.update({(m, a.asname or a.name): (src, a.name)
                                for a in node.names
                                if f"{src}.{a.name}".lstrip(".") not in files})
    found = {use for m, tree in trees.items()
             if files[m].name != "__init__.py"
             for use in uses(tree, m, files)}
    for path in [*(REPO / "perfbench").rglob("*.py"),
                 *(REPO / "tools").rglob("*.py"),
                 REPO / "tests" / "test_acceptance.py"]:
        found |= uses(ast.parse(path.read_text()), None, files)
    used = set()
    for use in found:
        while use not in defined and use in exports:
            use = exports[use]
        used.add(use)
    assert len(defined) > 100
    unused = sorted(f"{m}: {name}" for m, name in defined - used)
    assert not unused, unused


def test_every_core_method_is_read_by_the_program():
    """A public method of a core class is read as an attribute, by its
    name, somewhere in the program, the benchmark, the tools or the
    acceptance gate; a read inside the method itself is no use.  Names
    are matched, not types, so a read of ``x.validate`` keeps every
    ``validate`` alive: the check catches a method whose name nothing
    reads, which the top-level guard lets through."""
    files = module_paths()
    paths = [*files.values(), *(REPO / "perfbench").rglob("*.py"),
             *(REPO / "tools").rglob("*.py"),
             REPO / "tests" / "test_acceptance.py"]
    methods, reads = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text())
        core = path in files.values() \
            and path.relative_to(PKG).parts[0].removesuffix(".py") in CORE
        own = set()
        for cls in tree.body if core else ():
            for fn in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(fn, ast.FunctionDef) \
                        and not fn.name.startswith("_"):
                    methods.add((path.relative_to(PKG).as_posix(), cls.name,
                                 fn.name))
                    own |= {id(n) for n in ast.walk(fn)
                            if isinstance(n, ast.Attribute)
                            and n.attr == fn.name}
        reads |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Load) and id(n) not in own}
    assert len(methods) > 30
    unread = sorted(f"{m}: {c}.{name}" for m, c, name in methods
                    if name not in reads)
    assert not unread, unread
