import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fraction_forge import cli
from fraction_forge.marked import MarkedCategory, nerve_marked
from fraction_forge.sset_core import io as ffio
from fraction_forge.sset_core.cat import FinCategory, Poset

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
    C = FinCategory.from_poset(Poset.from_leq(["0", "1"],
                                              lambda a, b: a <= b))
    mN = nerve_marked(MarkedCategory(C, {"0<=1"}), 3)
    p = tmp_path / "msset.json"
    p.write_text(ffio.dumps(ffio.sset_to_dict(mN.base, marked=mN.marked)))
    return str(p)


# -- exit-code contract --------------------------------------------------

def test_fractions_check_pass(capsys):
    code, out = run(capsys, "fractions", "check",
                    "--input", cat_file("chain1_marked"), "--mode", "proper")
    assert code == 0 and out["ok"] is True
    assert out["timing"] is None and out["input_digests"]


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


def test_unknown_flags_exit_2():
    assert cli.main(["fractions", "check", "--bogus"]) == 2
    assert cli.main(["no-such-command"]) == 2


def test_flag_ceilings_exit_2(msset_file):
    assert cli.main(["localize", "ex", "--input", msset_file,
                     "--levels", "9"]) == 2
    assert cli.main(["graph", "a1", "--input", graph_file("cycle5"),
                     "--base", "0", "--oracle-bound", "99"]) == 2


SRC = str(Path(cli.__file__).resolve().parents[1])


@pytest.mark.parametrize("kind, argv, spoil", [
    ("cat", ["fractions", "check"],
     lambda d: d["morphisms"][0].pop("id")),
    ("cat", ["fractions", "check"],
     lambda d: d.update(identities=list(d["identities"].values()))),
    ("cat", ["fractions", "check"],
     lambda d: d["morphisms"][0].update(id=[d["morphisms"][0]["id"]])),
    ("sset", ["localize", "ex"],
     lambda d: d.update(faces=list(d["faces"].values()))),
    ("graph", ["graph", "a1", "--base", "0"],
     lambda d: d.update(vertices=[[v] for v in d["vertices"]])),
    ("graph", ["graph", "a1", "--base", "0"],
     lambda d: d.update(edges=d["edges"][:2])),
    ("graph", ["corpus", "run"],
     lambda d: d.update(vertices=[], edges=[])),
    ("graph", ["corpus", "run"],
     lambda d: d.update(edges=d["edges"][:2])),
    ("sset", ["localize", "ex", "--levels", "2"],
     lambda d: d.update(dim_bound=1, cells=d["cells"][:2])),
    ("sset", ["fractions", "lift"],
     lambda d: d.update(dim_bound=2, cells=d["cells"][:3])),
    ("cat", ["fractions", "check"], None),
], ids=["missing-id", "identities-list", "list-id", "faces-list",
        "list-vertex", "disconnected-graph", "corpus-empty-graph",
        "corpus-disconnected-graph", "ex-levels-above-dim-bound",
        "lift-below-dim-bound-3", "directory-input"])
def test_malformed_input_exits_2_without_traceback(tmp_path, msset_file,
                                                   kind, argv, spoil):
    source = {"cat": cat_file("chain1_marked"), "sset": msset_file,
              "graph": graph_file("cycle5")}[kind]
    d = json.loads(Path(source).read_text())
    if argv[0] == "corpus":  # a corpus directory holding the one graph
        path = tmp_path / "graphs" / "spoiled.json"
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


# -- determinism ---------------------------------------------------------

def test_repeat_runs_byte_identical(capsys):
    args = ("localize", "gz", "--input", cat_file("chain3_marked_12"))
    cli.main(list(args))
    one = capsys.readouterr().out
    cli.main(list(args))
    two = capsys.readouterr().out
    assert one == two


def test_corpus_run_identical_across_hash_seeds():
    # set iteration order follows the hash seed; the output must not
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        runs.append(subprocess.run(
            [sys.executable, "-m", "fraction_forge.cli", "corpus", "run"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=300))
    assert [p.returncode for p in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith(b"{")


@pytest.mark.parametrize("argv", [
    ["localize", "ex", "--levels", "2", "--side", "L", "--input", "MSSET",
     "--emit-sset", "EMIT"],
    ["localize", "ex", "--levels", "2", "--side", "R", "--input", "MSSET",
     "--emit-sset", "EMIT"],
    ["localize", "compare", "--input", cat_file("chain2_marked_01")],
    ["mapspace", "--side", "L", "--input", cat_file("chain2_marked_01")],
    ["mapspace", "--side", "R", "--input", cat_file("chain2_marked_01")],
], ids=["ex-L", "ex-R", "compare", "mapspace-L", "mapspace-R"])
def test_commands_identical_across_hash_seeds(tmp_path, msset_file, argv):
    runs = []
    for seed in ("0", "1"):
        emit = tmp_path / f"ex{seed}.json"
        subs = {"MSSET": msset_file, "EMIT": str(emit)}
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "fraction_forge.cli",
             *[subs.get(a, a) for a in argv]],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=300)
        runs.append((proc.returncode, proc.stdout,
                     emit.read_bytes() if emit.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].startswith(b"{")


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


def test_graph_nerve_box(capsys, tmp_path):
    box = tmp_path / "box.json"
    box.write_text(json.dumps({
        "n": 2, "missing": [2, 1],
        "faces": {"1,0": ["0", "1"], "1,1": ["3", "2"],
                  "2,0": ["0", "3"]}}))
    code, out = run(capsys, "graph", "nerve-box",
                    "--input", graph_file("cycle4"), "--box", str(box),
                    "--window", "4")
    assert code == 0 and out["filler"]["extents"] == [1, 1]


def test_graph_pullback_probe(capsys, tmp_path):
    point = {"vertices": ["p"], "edges": []}
    c4 = {"vertices": ["0", "1", "2", "3"],
          "edges": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "0"]]}
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"src": c4, "dst": point,
                             "mapping": {v: "p" for v in "0123"}}))
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"src": point, "dst": point,
                             "mapping": {"p": "p"}}))
    vx = tmp_path / "vx.json"
    vx.write_text(json.dumps({"x": "0", "p": [0, ["p"]],
                              "q": [0, ["p"]], "y": "p"}))
    code, out = run(capsys, "graph", "pullback-probe", "--f", str(f),
                    "--g", str(g), "--vertex", str(vx), "--radius", "1")
    assert code == 0 and out["ball_size"] >= 1


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


def test_export_dot_empty_category(capsys, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(ffio.dumps({"objects": [], "morphisms": [],
                             "identities": {}, "comp": []}))
    code, out = run(capsys, "export", "dot", "--input", str(p))
    assert code == 0
    assert out.strip().splitlines() == ["digraph localization {", "}"]
