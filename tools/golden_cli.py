"""Golden digests of the CLI's verdicts.

Each entry of the table names one CLI call and records its exit code,
the sha256 of its standard output, of each file it writes and, when it
exits 2, of its standard error (the error line alone: the timing line
is printed only on exit 0 and 1).  The calls are:

- on each corpus category, ``fractions check`` in its three modes on
  both sides, ``localize gz`` and ``mapspace`` on both sides,
  ``localize compare`` and ``export dot``; ``graph a1`` on each corpus
  graph at its first vertex; and ``corpus run``;
- calls that write files: ``localize gz --emit-dot``, ``export dot
  --output``, ``localize ex --emit-sset`` and ``fractions lift`` on a
  marked nerve;
- the ``graph nerve-box`` and ``graph pullback-probe`` payloads and the
  malformed inputs, which ``tests/test_cli.py`` imports from here.

Every call runs in process, in a scratch directory holding copies of
the corpus, so each path the output names is relative and the digests
do not depend on where the checkout lives.  Usage, from the root of a
checkout::

    python tools/golden_cli.py            # check; exit 1 on a mismatch
    python tools/golden_cli.py --write    # regenerate tests/golden_cli.json

A change that alters output on purpose regenerates the table and names
each changed entry in CHANGES.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from fraction_forge import cli
from fraction_forge.marked import MarkedCategory, nerve_marked
from fraction_forge.sset_core import io as ffio
from fraction_forge.sset_core.cat import FinCategory, Poset

TABLE = REPO / "tests" / "golden_cli.json"
CORPUS = cli.corpus_path()
CATS = sorted(p.stem for p in (CORPUS / "cats").glob("*.json"))
GRAPHS = sorted(p.stem for p in (CORPUS / "graphs").glob("*.json"))


def _corpus_json(kind, name):
    return json.loads((CORPUS / kind / f"{name}.json").read_text())


def msset():
    """The marked nerve of [1] with its arrow marked, truncated at 3."""
    C = FinCategory.from_poset(Poset.from_leq(["0", "1"], lambda a, b: a <= b))
    mN = nerve_marked(MarkedCategory(C, {"0<=1"}), 3)
    d = ffio.sset_to_dict(mN.base)
    d["marked"] = sorted(map(ffio.stringify, mN.marked))
    return d


# -- inputs shared with tests/test_cli.py -------------------------------

BOX = {"n": 2, "missing": [2, 1],
       "faces": {"1,0": ["0", "1"], "1,1": ["3", "2"], "2,0": ["0", "3"]}}
# malformed boxes on cycle4, each with its error
BOX_FAULTS = [
    ("faces-list", {"faces": []},
     "malformed box payload: faces must be an object"),
    ("n-3", {"n": 3}, "open boxes supported for n <= 2"),
    ("wrong-faces",
     {"faces": {"1,0": ["0", "1"], "1,1": ["3", "2"], "2,1": ["1", "2"]}},
     "expected faces for exactly [(1, 0), (1, 1), (2, 0)]"),
    ("empty-walk", {"faces": {**BOX["faces"], "1,0": []}},
     "face 1,0 is not a walk"),
    ("unknown-vertex", {"faces": {**BOX["faces"], "1,0": ["x"]}},
     "face 1,0 is not a walk"),
    # a string is no walk, even when its characters name vertices
    ("face-string", {"faces": {**BOX["faces"], "1,0": "01"}},
     "face 1,0 is not a walk"),
]
# what the mutation tests put in place of each field of an input file
VALUES = [[], [1, 2, 3], [[0]], {}, {"1,0": ["0"]}, 0, 3, -1, 2.0, True, "",
          "2,1", None]

POINT = {"vertices": ["p"], "edges": []}
# the files of `graph pullback-probe`: C4 -> pt <- pt
PROBE = {
    "f": {"src": {"vertices": ["0", "1", "2", "3"],
                  "edges": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "0"]]},
          "dst": POINT, "mapping": {v: "p" for v in "0123"}},
    "g": {"src": POINT, "dst": POINT, "mapping": {"p": "p"}},
    "vertex": {"x": "0", "p": [0, ["p"]], "q": [0, ["p"]], "y": "p"}}

# malformed inputs, each ``(id, kind, argv, spoil)``: ``spoil`` edits a
# category (chain1_marked), a marked simplicial set (``msset()``) or a
# graph (cycle5) in place, and None puts a directory where the file
# goes; a `corpus run` reads the category or graph from a corpus directory
SPOILS = [
    ("missing-id", "cat", ["fractions", "check"],
     lambda d: d["morphisms"][0].pop("id")),
    ("identities-list", "cat", ["fractions", "check"],
     lambda d: d.update(identities=list(d["identities"].values()))),
    ("list-id", "cat", ["fractions", "check"],
     lambda d: d["morphisms"][0].update(id=[d["morphisms"][0]["id"]])),
    ("faces-list", "sset", ["localize", "ex"],
     lambda d: d.update(faces=list(d["faces"].values()))),
    ("list-vertex", "graph", ["graph", "a1", "--base", "0"],
     lambda d: d.update(vertices=[[v] for v in d["vertices"]])),
    ("disconnected-graph", "graph", ["graph", "a1", "--base", "0"],
     lambda d: d.update(edges=d["edges"][:2])),
    ("corpus-empty-graph", "graph", ["corpus", "run"],
     lambda d: d.update(vertices=[], edges=[])),
    ("corpus-disconnected-graph", "graph", ["corpus", "run"],
     lambda d: d.update(edges=d["edges"][:2])),
    ("corpus-expect-list", "cat", ["corpus", "run"],
     lambda d: d.update(expect=["x"])),
    ("corpus-oracle-bound-string", "graph", ["corpus", "run"],
     lambda d: d["expect"].update(oracle_bound="8")),
    ("corpus-oracle-bound-11", "graph", ["corpus", "run"],
     lambda d: d["expect"].update(oracle_bound=11)),
    ("ex-levels-above-dim-bound", "sset", ["localize", "ex", "--levels", "2"],
     lambda d: d.update(dim_bound=1, cells=d["cells"][:2])),
    ("lift-below-dim-bound-3", "sset", ["fractions", "lift"],
     lambda d: d.update(dim_bound=2, cells=d["cells"][:3])),
    ("directory-input", "cat", ["fractions", "check"], None),
    *((f"duplicate-object-{argv[-1]}", "cat", argv,
       lambda d: d["objects"].append(d["objects"][0]))
      for argv in (["fractions", "check", "--mode", "infty"],
                   ["localize", "compare"], ["mapspace"])),
    ("identity-of-unknown-object", "cat", ["fractions", "check"],
     lambda d: d["identities"].update(ghost=d["morphisms"][0]["id"])),
    ("comp-names-unknown-morphism", "cat", ["fractions", "check"],
     lambda d: d["comp"].append(["ghost"] + [d["morphisms"][0]["id"]] * 2)),
]


def spoiled(kind, spoil):
    """The input of ``kind`` edited by ``spoil``."""
    d = (msset() if kind == "sset" else
         _corpus_json("cats", "chain1_marked") if kind == "cat" else
         _corpus_json("graphs", "cycle5"))
    spoil(d)
    return d


# -- the calls ----------------------------------------------------------
#
# A call is ``(id, argv, inputs)``.  ``inputs`` maps a path under
# ``in/`` to what is written there before the call: a JSON value, raw
# text given as a string, or None for a directory; arguments under
# ``out/`` are files the call may write.

def corpus_calls():
    for name in CATS:
        src = f"cats/{name}.json"
        for mode in ("classical", "proper", "infty"):
            for side in "LR":
                yield (f"check-{mode}-{side}-{name}",
                       ["fractions", "check", "--input", src, "--mode", mode,
                        "--side", side], {})
        for side in "LR":
            yield (f"gz-{side}-{name}",
                   ["localize", "gz", "--input", src, "--side", side], {})
            yield (f"mapspace-{side}-{name}",
                   ["mapspace", "--input", src, "--side", side], {})
        yield f"compare-{name}", ["localize", "compare", "--input", src], {}
        yield f"dot-{name}", ["export", "dot", "--input", src], {}
    for name in GRAPHS:
        base = _corpus_json("graphs", name)["vertices"][0]
        yield (f"a1-{name}",
               ["graph", "a1", "--input", f"graphs/{name}.json", "--base",
                base], {})
    yield "corpus-run", ["corpus", "run"], {}


def writing_calls():
    for name in CATS:
        src = f"cats/{name}.json"
        for side in "LR":
            yield (f"gz-dot-{side}-{name}",
                   ["localize", "gz", "--input", src, "--side", side,
                    "--emit-dot", "out/gz.dot"], {})
        yield (f"dot-output-{name}",
               ["export", "dot", "--input", src, "--output", "out/c.dot"], {})
    for side in "LR":
        for levels in (1, 2):
            yield (f"ex-{side}-{levels}",
                   ["localize", "ex", "--input", "msset.json", "--side", side,
                    "--levels", str(levels), "--emit-sset", "out/ex.json"], {})
        yield (f"lift-{side}",
               ["fractions", "lift", "--input", "msset.json", "--side", side],
               {})


def graph_calls():
    def box(id, payload, window="2"):
        return (f"nerve-box-{id}",
                ["graph", "nerve-box", "--input", "graphs/cycle4.json",
                 "--box", "in/box.json", "--window", window],
                {"in/box.json": payload})

    yield box("filler", BOX, window="4")
    for id, change, _ in BOX_FAULTS:
        yield box(id, {**BOX, **change})
    for key in BOX:
        for i, v in enumerate(VALUES):
            yield box(f"{key}-value-{i}", {**BOX, key: v})
        yield box(f"{key}-deleted",
                  {k: v for k, v in BOX.items() if k != key})

    vertex = PROBE["vertex"]
    for id, spec in (("probe", vertex),
                     ("probe-p-string", {**vertex, "p": [0, "p"]}),
                     ("probe-q-string", {**vertex, "q": [0, "p"]})):
        yield (f"pullback-{id}",
               ["graph", "pullback-probe", "--f", "in/f.json", "--g",
                "in/g.json", "--vertex", "in/vx.json", "--radius", "1"],
               {"in/f.json": PROBE["f"], "in/g.json": PROBE["g"],
                "in/vx.json": spec})


def malformed_calls():
    for id, kind, argv, spoil in SPOILS:
        if argv[0] == "corpus":
            path = f"in/{kind}s/spoiled.json"
            argv = [*argv, "--path", "in"]
        else:
            path, argv = "in/spoiled.json", [*argv, "--input", "in/spoiled.json"]
        yield (f"spoiled-{id}", argv,
               {path: None if spoil is None else spoiled(kind, spoil)})
    yield ("bad-json", ["fractions", "check", "--input", "in/bad.json"],
           {"in/bad.json": "{not json"})
    yield "absent-input", ["fractions", "check", "--input", "in/absent.json"], {}
    monoid = {"objects": ["a"], "identities": {"a": "ia"},
              "morphisms": [{"id": m, "dom": "a", "cod": "a"}
                            for m in ("ia", "e")]}
    for id, comp in (("conflict-e-ia", [["e", "e", "e"], ["e", "e", "ia"]]),
                     ("conflict-ia-e", [["e", "e", "ia"], ["e", "e", "e"]]),
                     ("repeat", [["e", "e", "e"], ["e", "e", "e"]])):
        yield (f"comp-{id}", ["fractions", "check", "--input", "in/m.json"],
               {"in/m.json": dict(monoid, comp=comp)})
    yield "unknown-flag", ["fractions", "check", "--bogus"], {}
    yield "unknown-command", ["no-such-command"], {}
    yield ("levels-ceiling",
           ["localize", "ex", "--input", "msset.json", "--levels", "9"], {})
    yield ("oracle-ceiling",
           ["graph", "a1", "--input", "graphs/cycle5.json", "--base", "0",
            "--oracle-bound", "99"], {})
    yield "corpus-absent", ["corpus", "run", "--path", "in/absent"], {}
    yield ("corpus-file", ["corpus", "run", "--path", "in/file.json"],
           {"in/file.json": {}})
    yield ("corpus-corrupted", ["corpus", "run", "--path", "in"],
           {"in/cats/bad.json": "{oops"})
    yield ("corpus-empty-dir", ["corpus", "run", "--path", "in"],
           {"in/empty": None})
    edges = [[int(u), int(v)] for u, v in _corpus_json("graphs", "cycle5")["edges"]]
    for id, graph in (("ints", {"vertices": list(range(5)), "edges": edges}),
                      ("ambiguous", {"vertices": [*range(5), "0"],
                                     "edges": [*edges, [0, "0"]]})):
        yield (f"a1-{id}", ["graph", "a1", "--input", "in/g.json", "--base",
                            "0"], {"in/g.json": graph})
    quoted = {"objects": ['a"b', "c\\"], "identities": {'a"b': "i", "c\\": "j"},
              "morphisms": [{"id": "i", "dom": 'a"b', "cod": 'a"b'},
                            {"id": "j", "dom": "c\\", "cod": "c\\"},
                            {"id": "f", "dom": 'a"b', "cod": "c\\"}],
              "comp": [], "marked": ["f"]}
    yield "dot-quoted", ["export", "dot", "--input", "in/q.json"], {"in/q.json": quoted}
    yield ("gz-dot-quoted",
           ["localize", "gz", "--input", "in/q.json", "--emit-dot", "out/gz.dot"],
           {"in/q.json": quoted})
    yield ("dot-empty", ["export", "dot", "--input", "in/e.json"],
           {"in/e.json": {"objects": [], "morphisms": [], "identities": {},
                          "comp": []}})


def calls():
    return [*corpus_calls(), *writing_calls(), *graph_calls(),
            *malformed_calls()]


# -- running them -------------------------------------------------------

def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _write_inputs(inputs):
    for rel, value in inputs.items():
        path = Path(rel)
        if value is None:
            path.mkdir(parents=True)
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(value if isinstance(value, str) else json.dumps(value))


def run_call(argv, inputs):
    """Run one call in the current directory; the entry without its id."""
    _write_inputs(inputs)
    Path("out").mkdir()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        entry = {"argv": list(argv), "exit": code,
                 "stdout": _sha(out.getvalue().encode())}
        if code == 2:
            entry["stderr"] = _sha(err.getvalue().encode())
        written = {a: _sha(Path(a).read_bytes()) for a in argv
                   if a.startswith("out/") and Path(a).exists()}
        if written:
            entry["files"] = written
        return entry
    finally:
        for d in ("in", "out"):
            shutil.rmtree(d, ignore_errors=True)


def generate():
    """Run every call in a scratch copy of the corpus; the table."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            shutil.copytree(CORPUS / "cats", "cats")
            shutil.copytree(CORPUS / "graphs", "graphs")
            Path("msset.json").write_text(ffio.dumps(msset()))
            return {id: run_call(argv, inputs)
                    for id, argv, inputs in calls()}
        finally:
            os.chdir(cwd)


def mismatches(table, want):
    """The ids whose entries differ between two tables."""
    return sorted(id for id in table.keys() | want.keys()
                  if table.get(id) != want.get(id))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help=f"regenerate {TABLE.relative_to(REPO)}")
    args = ap.parse_args(argv)
    table = generate()
    if args.write:
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} entries to {TABLE}")
        return 0
    bad = mismatches(table, json.loads(TABLE.read_text()))
    for id in bad:
        print(f"mismatch: {id}")
    print(f"{len(table) - len(bad)} of {len(table)} entries match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
