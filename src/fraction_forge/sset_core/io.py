"""JSON serialization for simplicial sets and finite categories.

SSet files: ``{"dim_bound": n, "cells": [[names per dim]],
"faces": {"<cell>": [[word, "<cell>"], ...]}}`` where ``word`` is the
strictly decreasing degeneracy word of the face's normal form.
Marked variants add ``"marked": [...]``.  All names are strings.
"""

import json

from .cat import FinCategory, Morphism
from .ops import surj_from_word, word_from_surj
from .sset import Simplex, SSet


class FormatError(ValueError):
    """Raised for malformed input files; message pinpoints the offender."""


def _strings(xs):
    return all(isinstance(x, str) for x in xs)


def stringify(name):
    """Canonical printable form of an internal cell name."""
    if isinstance(name, str):
        return name
    if isinstance(name, (int,)):
        return str(name)
    if isinstance(name, frozenset):
        return "{" + ",".join(sorted(stringify(x) for x in name)) + "}"
    if isinstance(name, tuple):
        return "(" + ",".join(stringify(x) for x in name) + ")"
    return str(name)


def stringified_sset(X):
    """Copy of ``X`` with cell names replaced by canonical strings."""
    ren = {}
    for cs in X.cells:
        for c in cs:
            s = stringify(c)
            if s in ren.values():
                raise FormatError(f"cell name collision under stringify: {s}")
            ren[c] = s
    cells = [[ren[c] for c in cs] for cs in X.cells]
    faces = {ren[c]: [Simplex(s.op, ren[s.cell]) for s in fs]
             for c, fs in X.faces.items()}
    return SSet(X.dim_bound, cells, faces)


def sset_to_dict(X):
    Y = stringified_sset(X)
    return {
        "dim_bound": Y.dim_bound,
        "cells": [list(cs) for cs in Y.cells],
        "faces": {c: [[word_from_surj(s.op), s.cell] for s in fs]
                  for c, fs in sorted(Y.faces.items())},
    }


def sset_from_dict(d, where="<input>"):
    def fail(msg):
        raise FormatError(f"{where}: {msg}")

    if not isinstance(d, dict):
        fail("expected a JSON object")
    for key in ("dim_bound", "cells", "faces"):
        if key not in d:
            fail(f"missing key {key!r}")
    bound = d["dim_bound"]
    if not isinstance(bound, int) or bound < 0:
        fail("dim_bound must be a non-negative integer")
    cells = d["cells"]
    if not isinstance(cells, list) or any(not isinstance(cs, list) for cs in cells):
        fail("cells must be a list of per-dimension lists")
    for cs in cells:
        for c in cs:
            if not isinstance(c, str):
                fail(f"cell name {c!r} is not a string")
    dims = {c: i for i, cs in enumerate(cells) for c in cs}
    if not isinstance(d["faces"], dict):
        fail("faces must map cell names to face lists")
    faces = {}
    for c, fs in d["faces"].items():
        if c not in dims:
            fail(f"faces given for unknown cell {c!r}")
        n = dims[c]
        if not isinstance(fs, list) or len(fs) != n + 1:
            fail(f"cell {c!r} needs exactly {n + 1} face entries")
        out = []
        for i, entry in enumerate(fs):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not isinstance(entry[1], str)):
                fail(f"face {i} of {c!r} must be [word, cell]")
            word, tgt = entry
            if not isinstance(word, list) or any(
                    not isinstance(k, int) for k in word):
                fail(f"face {i} of {c!r}: word must be a list of integers")
            if tgt not in dims:
                fail(f"face {i} of {c!r} targets unknown cell {tgt!r}")
            try:
                op = surj_from_word(word, n - 1)
            except ValueError as e:
                fail(f"face {i} of {c!r}: {e}")
            if len(op) - 1 - len(word) != dims[tgt]:
                fail(f"face {i} of {c!r}: word length does not match "
                     f"target dimension")
            out.append(Simplex(op, tgt))
        faces[c] = out
    for c, n in dims.items():
        if n >= 1 and c not in faces:
            fail(f"cell {c!r} lacks face data")
    try:
        return SSet(bound, cells, faces)
    except ValueError as e:
        fail(str(e))


def marked_sset_from_dict(d, where="<input>"):
    X = sset_from_dict(d, where)
    marked = d.get("marked", [])
    if not isinstance(marked, list) or not _strings(marked):
        raise FormatError(f"{where}: marked must be a list of cell names")
    for c in marked:
        if not X.has_cell(c) or X.dim_of(c) != 1:
            raise FormatError(f"{where}: marked entry {c!r} is not a 1-cell")
    return X, set(marked)


def cat_to_dict(C, marked=None):
    units = set(C.idents.values())
    d = {
        "objects": list(C.objects),
        "morphisms": [{"id": f, "dom": C.dom(f), "cod": C.cod(f)}
                      for f in C.morphisms],
        "identities": {x: C.names[e] for x, e in C.idents.items()},
        "comp": sorted([C.names[g], C.names[f], C.names[h]]
                       for g, f, h in C.composites() if units.isdisjoint((g, f))),
    }
    if marked is not None:
        d["marked"] = sorted(marked)
    return d


def cat_from_dict(d, where="<input>"):
    def fail(msg):
        raise FormatError(f"{where}: {msg}")

    if not isinstance(d, dict):
        fail("expected a JSON object")
    for key in ("objects", "morphisms", "identities", "comp"):
        if key not in d:
            fail(f"missing key {key!r}")
    if not isinstance(d["objects"], list) or not _strings(d["objects"]):
        fail("objects must be a list of names")
    for key in ("morphisms", "comp"):
        if not isinstance(d[key], list):
            fail(f"{key} must be a list")
    morphs = []
    for m in d["morphisms"]:
        if (not isinstance(m, dict) or set(m) != {"id", "dom", "cod"}
                or not _strings(m.values())):
            fail(f"malformed morphism entry {m!r}: needs string "
                 f"\"id\", \"dom\" and \"cod\"")
        morphs.append(Morphism(m["id"], m["dom"], m["cod"]))
    comp = {}
    for entry in d["comp"]:
        if not isinstance(entry, list) or len(entry) != 3 or not _strings(entry):
            fail(f"malformed comp entry {entry!r}")
        g, f, h = entry
        if comp.setdefault((g, f), h) != h:
            fail(f"comp lists ({g!r}, {f!r}) twice, with composites "
                 f"{comp[(g, f)]!r} and {h!r}")
    idents = d["identities"]
    if not isinstance(idents, dict) or not _strings(idents.values()):
        fail("identities must map objects to morphism names")
    names = {m.name for m in morphs}
    for x, e in idents.items():
        if e not in names:
            fail(f"identity {e!r} of {x!r} is not a listed morphism")
    # identity composites may be omitted from the file; fill them in
    for m in morphs:
        if m.dom in idents:
            comp.setdefault((m.name, idents[m.dom]), m.name)
        if m.cod in idents:
            comp.setdefault((idents[m.cod], m.name), m.name)
    try:
        return FinCategory(d["objects"], morphs, idents, comp)
    except ValueError as e:
        fail(str(e))


def marked_cat_from_dict(d, where="<input>"):
    C = cat_from_dict(d, where)
    marked = d.get("marked", [])
    if not isinstance(marked, list) or not _strings(marked):
        raise FormatError(f"{where}: marked must be a list of morphism names")
    for f in marked:
        if f not in C.morphisms:
            raise FormatError(f"{where}: marked entry {f!r} is not a morphism")
    return C, set(marked)


def read_json(path):
    """Decode a JSON file; malformed JSON raises ``FormatError``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")


def load(path, kind):
    """Load and validate a JSON file of the given kind."""
    d = read_json(path)
    loaders = {
        "sset": sset_from_dict,
        "marked_sset": marked_sset_from_dict,
        "cat": cat_from_dict,
        "marked_cat": marked_cat_from_dict,
    }
    return loaders[kind](d, where=str(path))


def dumps(obj):
    """Canonical deterministic JSON text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
