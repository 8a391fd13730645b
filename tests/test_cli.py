import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fraction_forge import cli
from fraction_forge.sset_core import io as ffio

# the graph payloads and malformed inputs live with the golden table,
# which runs each of them too
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from golden_cli import BOX, BOX_FAULTS, PROBE, SPOILS, VALUES, msset

CORPUS = cli.corpus_path()


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.startswith("{") else out)


def cat_file(name):
    return str(CORPUS / "cats" / f"{name}.json")


def graph_file(name):
    return str(CORPUS / "graphs" / f"{name}.json")


@pytest.fixture
def msset_file(tmp_path):
    p = tmp_path / "msset.json"
    p.write_text(ffio.dumps(msset()))
    return str(p)


# -- exit-code contract --------------------------------------------------

def test_fractions_check_pass(capsys):
    code, out = run(capsys, "fractions", "check",
                    "--input", cat_file("chain1_marked"), "--mode", "proper")
    assert code == 0 and out["ok"] is True
    assert "timing" not in out and out["input_digests"]


def test_fractions_check_fail_with_witness(capsys):
    code, out = run(capsys, "fractions", "check",
                    "--input", cat_file("parallel_pair_one_marked"),
                    "--mode", "classical")
    assert code == 1 and out["ok"] is False
    assert out["witnesses"] and out["witnesses"][0]["condition"] == 2


def test_fractions_check_infty_lists_shapes(capsys):
    code, out = run(capsys, "fractions", "check",
                    "--input", cat_file("chain2_marked_all"),
                    "--mode", "infty")
    assert code == 0
    assert [s[:2] for s in out["shapes_checked"]] == [[2, 1], [2, 2],
                                                      [3, 1], [3, 2], [3, 3]]


def test_malformed_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["fractions", "check", "--input", str(bad)])
    assert code == 2
    missing = cli.main(["fractions", "check", "--input",
                        str(tmp_path / "absent.json")])
    assert missing == 2


def test_conflicting_comp_entries_exit_2(capsys, tmp_path):
    """A second composite for one pair is an input error in either order;
    an exact repeat is accepted."""
    d = {"objects": ["a"], "identities": {"a": "ia"},
         "morphisms": [{"id": m, "dom": "a", "cod": "a"} for m in ("ia", "e")]}
    path = tmp_path / "monoid.json"
    for comp, code, message in (
            ([["e", "e", "e"], ["e", "e", "ia"]], 2, "'e' and 'ia'"),
            ([["e", "e", "ia"], ["e", "e", "e"]], 2, "'ia' and 'e'"),
            ([["e", "e", "e"], ["e", "e", "e"]], 0, None)):
        path.write_text(json.dumps(dict(d, comp=comp)))
        assert cli.main(["fractions", "check", "--input", str(path)]) == code
        err = capsys.readouterr().err
        if message:
            assert err == (f"error: {path}: comp lists ('e', 'e') twice, "
                           f"with composites {message}\n")


def test_unknown_flags_exit_2():
    assert cli.main(["fractions", "check", "--bogus"]) == 2
    assert cli.main(["no-such-command"]) == 2


def test_flag_ceilings_exit_2(msset_file):
    assert cli.main(["localize", "ex", "--input", msset_file,
                     "--levels", "9"]) == 2
    assert cli.main(["graph", "a1", "--input", graph_file("cycle5"),
                     "--base", "0", "--oracle-bound", "99"]) == 2


SRC = str(Path(cli.__file__).resolve().parents[1])


@pytest.mark.parametrize("kind, argv, spoil", [s[1:] for s in SPOILS],
                         ids=[s[0] for s in SPOILS])
def test_malformed_input_exits_2_without_traceback(tmp_path, msset_file,
                                                   kind, argv, spoil):
    source = {"cat": cat_file("chain1_marked"), "sset": msset_file,
              "graph": graph_file("cycle5")}[kind]
    d = json.loads(Path(source).read_text())
    if argv[0] == "corpus":  # a corpus directory holding the one file
        path = tmp_path / f"{kind}s" / "spoiled.json"
        path.parent.mkdir()
        argv = [*argv, "--path", str(tmp_path)]
    else:
        path = tmp_path / "spoiled.json"
        argv = [*argv, "--input", str(path)]
    if spoil is None:  # a directory where a file is expected
        path.mkdir()
    else:
        spoil(d)
        path.write_text(json.dumps(d))
    proc = subprocess.run(
        [sys.executable, "-m", "fraction_forge.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


# corpus categories without classical CLF / CRF, with the failed condition
NO_CLF = [("cond3_failure", 3), ("parallel_pair_one_marked", 2),
          ("span_w_marked", 2)]
NO_CRF = [("cospan_w_marked", 2), ("parallel_pair_one_marked", 2),
          ("square_poset_top_marked", 2)]


@pytest.mark.parametrize("argv, name, condition", [
    pytest.param(argv, name, condition, id="-".join([*argv, name]))
    for argv, cases in ((["localize", "gz"], NO_CLF),
                        (["localize", "gz", "--side", "R"], NO_CRF),
                        (["mapspace"], NO_CLF),
                        (["mapspace", "--side", "R"], NO_CRF),
                        (["localize", "compare"], NO_CLF))
    for name, condition in cases])
def test_missing_fraction_condition_exits_1_with_witness(argv, name,
                                                         condition):
    proc = subprocess.run(
        [sys.executable, "-m", "fraction_forge.cli", *argv,
         "--input", cat_file(name)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    out = json.loads(proc.stdout)
    assert out["ok"] is False
    assert [w["condition"] for w in out["witnesses"]] == [condition]


def test_graph_a1_loads_neither_numpy_nor_sympy():
    code = ("import sys\n"
            "from fraction_forge import cli\n"
            f"code = cli.main(['graph', 'a1', '--input', {graph_file('cycle5')!r},"
            " '--base', '0'])\n"
            "print(code, sorted({'numpy', 'sympy'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


PERFBENCH = Path(SRC).parent / "perfbench"

# the benchmark's traced CLI shim imports ``fraction_forge.cli`` alone and
# then wraps every function its tracer lists, each in the module defining it
TRACER_INSTALL = """
import sys
import fraction_forge.cli
import spans

def targets():
    for m, a, _ in spans.TIMED:
        yield f"{m}.{a}", vars(sys.modules[m])[a]
    for m, c, a, _ in spans.COUNTED:
        yield f"{m}.{c}.{a}", vars(getattr(sys.modules[m], c))[a]

originals = dict(targets())
done = spans.install(spans.Tracer())
print(sorted(k for k, f in targets() if f is originals[k]))
spans.restore(done)
print(sorted(k for k, f in targets() if f is not originals[k]))
"""


def test_benchmark_tracer_installs_after_importing_the_cli_alone():
    """Every module the tracer lists is one the CLI loads; ``install``
    wraps every listed function and ``restore`` puts each back."""
    proc = subprocess.run([sys.executable, "-c", TRACER_INSTALL],
                          env=dict(os.environ,
                                   PYTHONPATH=f"{SRC}{os.pathsep}{PERFBENCH}"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


# -- determinism ---------------------------------------------------------
# independence from PYTHONHASHSEED: tests/test_golden.py runs every call
# of the golden table under a second hash seed

def test_repeat_runs_byte_identical(capsys):
    args = ("localize", "gz", "--input", cat_file("chain3_marked_12"))
    cli.main(list(args))
    one = capsys.readouterr().out
    cli.main(list(args))
    two = capsys.readouterr().out
    assert one == two


# -- localize subcommands ------------------------------------------------

def test_localize_gz_hom_table(capsys):
    code, out = run(capsys, "localize", "gz",
                    "--input", cat_file("chain1_marked"))
    assert code == 0
    assert {k: len(v) for k, v in out["hom_table"].items()} == {
        "0->0": 1, "0->1": 1, "1->0": 1, "1->1": 1}


def test_localize_gz_emit_dot(capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, _ = run(capsys, "localize", "gz",
                  "--input", cat_file("chain1_marked"),
                  "--emit-dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph") and '"0" -> "1"' in text


def test_localize_compare(capsys):
    code, out = run(capsys, "localize", "compare",
                    "--input", cat_file("walking_iso_isomarked"))
    assert code == 0 and out["iso"] is True


def test_localize_ex_emits_loadable_sset(capsys, tmp_path, msset_file):
    out_path = tmp_path / "ex.json"
    code, out = run(capsys, "localize", "ex", "--input", msset_file,
                    "--levels", "2", "--emit-sset", str(out_path))
    assert code == 0 and out["level_sizes"] == [2, 5, 19]
    # the file stores nondegenerate cells; levels count all simplices
    EX = ffio.load(out_path, "sset")
    assert [len(cs) for cs in EX.cells] == [2, 3, 11]


def test_fractions_lift(capsys, msset_file):
    code, out = run(capsys, "fractions", "lift", "--input", msset_file)
    assert code == 0 and all(s["ok"] for s in out["shapes"])


def test_mapspace(capsys):
    code, out = run(capsys, "mapspace", "--input", cat_file("chain1_marked"))
    assert code == 0
    assert all(v["pi0"] == v["gz"] for v in out["table"].values())


def test_mapspace_right_fractions(capsys):
    code, out = run(capsys, "mapspace", "--side", "R",
                    "--input", cat_file("chain2_marked_01"))
    assert code == 0
    assert all(v["pi0"] == v["gz"] for v in out["table"].values())


# -- graph subcommands ---------------------------------------------------

def test_graph_a1(capsys):
    code, out = run(capsys, "graph", "a1", "--input", graph_file("cycle5"),
                    "--base", "0", "--oracle-bound", "8")
    assert code == 0
    assert out["abelianization"] == {"rank": 1, "torsion": []}
    assert out["oracle_classes"] == 3


def test_graph_a1_integer_vertices(capsys, tmp_path):
    # --base names an integer vertex by its decimal form
    d = json.loads(Path(graph_file("cycle5")).read_text())
    ints = {"vertices": list(range(5)),
            "edges": [[int(u), int(v)] for u, v in d["edges"]]}
    ambiguous = {"vertices": [*range(5), "0"],
                 "edges": [*ints["edges"], [0, "0"]]}
    inputs = [graph_file("cycle5")]
    for name, graph in (("ints", ints), ("ambiguous", ambiguous)):
        inputs.append(str(tmp_path / f"{name}.json"))
        Path(inputs[-1]).write_text(json.dumps(graph))
    outs = [run(capsys, "graph", "a1", "--input", p, "--base", "0")
            for p in inputs]
    # the ambiguous graph is refused: "0" fits both 0 and "0"
    assert [code for code, _ in outs] == [0, 0, 2]
    del outs[0][1]["input_digests"], outs[1][1]["input_digests"]
    assert outs[0][1] == outs[1][1]


def test_graph_nerve_box(capsys, tmp_path):
    box = tmp_path / "box.json"
    box.write_text(json.dumps(BOX))
    code, out = run(capsys, "graph", "nerve-box",
                    "--input", graph_file("cycle4"), "--box", str(box),
                    "--window", "4")
    assert code == 0 and out["filler"]["extents"] == [1, 1]


def run_box(capsys, tmp_path, box):
    p = tmp_path / "box.json"
    p.write_text(json.dumps(box))
    code = cli.main(["graph", "nerve-box", "--input", graph_file("cycle4"),
                     "--box", str(p), "--window", "2"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("change,message", [f[1:] for f in BOX_FAULTS])
def test_graph_nerve_box_malformed_exits_2(capsys, tmp_path, change, message):
    code, err = run_box(capsys, tmp_path, {**BOX, **change})
    assert code == 2 and err.startswith("error: ") and message in err


def mutants(d):
    """``d`` with each field replaced by a list, an object, a number, a
    string or null, or deleted."""
    for key in d:
        yield from ({**d, key: v} for v in VALUES)
        yield {k: v for k, v in d.items() if k != key}


def test_graph_nerve_box_mutations_never_raise(capsys, tmp_path):
    # every mutant ends with 0, 1 or 2, never a traceback
    for box in mutants(BOX):
        code, err = run_box(capsys, tmp_path, box)
        assert code in (0, 1, 2), (box, err)
        assert code != 2 or err.startswith("error: "), (box, err)


def run_probe(capsys, tmp_path, **files):
    argv = ["graph", "pullback-probe", "--radius", "1"]
    for name, d in {**PROBE, **files}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(d))
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_pullback_probe(capsys, tmp_path):
    code, out, _ = run_probe(capsys, tmp_path)
    assert code == 0 and json.loads(out)["ball_size"] >= 1


@pytest.mark.parametrize("key", ["p", "q"])
def test_graph_pullback_probe_string_walk_exits_2(capsys, tmp_path, key):
    # a string is no walk, even when its characters name vertices
    code, _, err = run_probe(capsys, tmp_path,
                             vertex={**PROBE["vertex"], key: [0, "p"]})
    assert code == 2
    assert err.startswith("error: ") and "must be lists" in err


@pytest.mark.parametrize("kind", ["cat", "sset", "graph", "graph-map",
                                  "vertex"])
def test_loader_mutations_never_raise(capsys, tmp_path, msset_file, kind):
    """Every mutant of an input file ends with exit 0, 1 or 2 and no
    traceback, and every exit 2 prints an error line."""
    if kind in ("graph-map", "vertex"):
        name = "f" if kind == "graph-map" else "vertex"

        def call(d):
            return run_probe(capsys, tmp_path, **{name: d})
        source = PROBE[name]
    else:
        argv, path = {
            "cat": (["fractions", "check"], cat_file("chain2_marked_01")),
            "sset": (["fractions", "lift"], msset_file),
            "graph": (["graph", "a1", "--base", "0"], graph_file("cycle5")),
        }[kind]
        source = json.loads(Path(path).read_text())
        spoiled = tmp_path / "spoiled.json"

        def call(d):
            spoiled.write_text(json.dumps(d))
            code = cli.main([*argv, "--input", str(spoiled)])
            out = capsys.readouterr()
            return code, out.out, out.err
    for d in mutants(source):
        code, _, err = call(d)
        assert code in (0, 1, 2), (d, err)
        assert code != 2 or err.startswith("error: "), (d, err)


# -- corpus and dot export -----------------------------------------------

def test_corpus_shape():
    cat_files = sorted((CORPUS / "cats").glob("*.json"))
    graph_files = sorted((CORPUS / "graphs").glob("*.json"))
    assert len(cat_files) >= 20
    assert len(graph_files) >= 8
    for p in cat_files:
        d = json.loads(p.read_text())
        assert "expect" in d and "objects" in d
    for p in graph_files:
        d = json.loads(p.read_text())
        assert "expect" in d and "vertices" in d


def test_corpus_run_empty_dir_warns(capsys, tmp_path):
    code, out = run(capsys, "corpus", "run", "--path", str(tmp_path))
    assert code == 0 and out["warnings"] == ["empty corpus"]


def test_corpus_run_path_not_a_directory_exits_2(capsys, tmp_path):
    (tmp_path / "file.json").write_text("{}")
    for path in (tmp_path / "absent", tmp_path / "file.json"):
        assert cli.main(["corpus", "run", "--path", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: corpus path {path} is not a directory\n"


def test_corpus_run_corrupted_file_exits_2(tmp_path):
    (tmp_path / "cats").mkdir()
    (tmp_path / "cats" / "bad.json").write_text("{oops")
    assert cli.main(["corpus", "run", "--path", str(tmp_path)]) == 2


def test_corpus_graph_reports():
    report = cli._corpus_graph_report(CORPUS / "graphs" / "cycle5.json")
    assert report["ok"] and report["a1_rank"] == 1


def test_export_dot_marked_styling(capsys):
    code, out = run(capsys, "export", "dot",
                    "--input", cat_file("walking_iso_isomarked"))
    assert code == 0
    assert out.count("->") == 2
    assert out.count("style=bold") == 2


def test_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    p = tmp_path / "quoted.json"
    p.write_text(ffio.dumps({
        "objects": ['a"b', "c\\"], "identities": {'a"b': "i", "c\\": "j"},
        "morphisms": [{"id": "i", "dom": 'a"b', "cod": 'a"b'},
                      {"id": "j", "dom": "c\\", "cod": "c\\"},
                      {"id": "f", "dom": 'a"b', "cod": "c\\"}],
        "comp": [], "marked": ["f"]}))
    edge = '  "a\\"b" -> "c\\\\" [label='
    code, out = run(capsys, "export", "dot", "--input", str(p))
    assert code == 0
    assert out.splitlines()[1:4] == ['  "a\\"b";', '  "c\\\\";',
                                     edge + '"f" style=bold color=blue];']
    dot = tmp_path / "gz.dot"
    assert run(capsys, "localize", "gz", "--input", str(p),
               "--emit-dot", str(dot))[0] == 0
    assert edge + '"f/j"];' in dot.read_text().splitlines()


def test_export_dot_empty_category(capsys, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(ffio.dumps({"objects": [], "morphisms": [],
                             "identities": {}, "comp": []}))
    code, out = run(capsys, "export", "dot", "--input", str(p))
    assert code == 0
    assert out.strip().splitlines() == ["digraph localization {", "}"]
