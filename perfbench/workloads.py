"""The four workloads.  Each is a function of ``(program, seed, deck)``
(``cli-oneshot`` also takes a directory for its input files) that returns
the deck's verdicts and the ``(kind, json)`` inputs they read.

A deck is one pass over a workload's input mix.  Its composition is fixed;
the seed and the deck number choose the concrete inputs (markings, names,
listing order, box walks), so every deck of every run costs about the
same while no two decks repeat an input.  A verdict is one decider call
on one input together with the check of its answer.
"""

import json
from pathlib import Path

import inputs
import reference

CORPUS = Path(__file__).resolve().parents[1] / "src" / "fraction_forge" / "corpus"


class Verdict:
    """``run()`` calls the program; ``check(answer)`` returns None when the
    answer is right, else ``(cause, detail)``.  ``well_formed`` is False
    for deliberately malformed inputs."""

    def __init__(self, label, run, check, well_formed=True):
        self.label, self.run, self.check = label, run, check
        self.well_formed = well_formed


def expect(want):
    def check(got):
        return None if got == want else ("wrong", f"got {got!r}, want {want!r}")
    return check


def _corpus(kind):
    return [(p.stem, json.loads(p.read_text()))
            for p in sorted((CORPUS / kind).glob("*.json"))]


def _marked_cat(P, d):
    C, marked = P.io.marked_cat_from_dict(d)
    return P.marked.MarkedCategory(C, marked)


def _seeded_cat(rng, family, k, clf, crf):
    cat = inputs.FAMILIES[family]()
    marking = inputs.draw_marking(cat, k, clf, crf, rng)
    return inputs.relabel_category(cat, marking, rng)


# -- nerve-decide ---------------------------------------------------------------

# (family, marked arrows, proper CLF, proper CRF); the answers fix how far
# each decider searches, so a slot costs about the same for every seed
NERVE_SLOTS = [
    ("chain1", 1, True, True),
    ("chain2", 1, True, True), ("chain2", 1, False, False),
    ("chain3", 1, True, True), ("chain3", 3, False, False),
    ("square", 2, False, False), ("grid23", 1, False, False),
    ("walking_iso", 1, True, True), ("parallel_pair", 1, False, False),
    ("span", 1, False, True), ("cospan", 1, True, False),
]
# eleven verdicts of a deck take 0.15 s or more, and the next ones, the
# chain1 and grid23 nerve verdicts, take a little less: the deck's tail
# then falls among like verdicts and not across a gap, where it flipped
# between 0.12 and 0.15 s from run to run
ISO_FAMILIES = ["parallel_pair", "span", "cospan"]
# corpus cats whose category no seeded family covers
CORPUS_NERVE = ["discrete2_identity"]
# The deck's median falls among the 1-categorical verdicts, which take well
# under a millisecond: every input gets this many seeded copies for them, so
# each of their labels has several samples in every deck.
ONE_CAT_COPIES = 3


def _decide(P, label, mc, clf, crf, nerve):
    out = [Verdict(f"pclf:{label}", lambda: P.fractions.check_proper_clf(mc).ok,
                   expect(clf)),
           Verdict(f"pcrf:{label}", lambda: P.fractions.check_proper_crf(mc).ok,
                   expect(crf))]
    if nerve:
        # the equivalence theorem: nerve verdicts agree with the 1-categorical ones
        out += [Verdict(f"nclf:{label}", lambda: P.fractions.check_clf_infty(
                    P.marked.nerve_marked(mc, 3), is_nerve=True,
                    shapes=P.cli.NERVE_L_SHAPES).ok, expect(clf)),
                Verdict(f"ncrf:{label}", lambda: P.fractions.check_crf_infty(
                    P.marked.nerve_marked(mc, 3), is_nerve=True,
                    shapes=P.cli.NERVE_R_SHAPES).ok, expect(crf))]
    return out


def _iso_decide(P, label, mc, side):
    """Isomorphism markings satisfy both CLF and CRF on every shape."""
    name = "check_clf_infty" if side == "L" else "check_crf_infty"
    return Verdict(f"iso:{label}", lambda: getattr(P.fractions, name)(
        P.marked.nerve_marked(P.marked.iso_marking(mc.cat), 3),
        is_nerve=True).ok, expect(True))


def nerve_decide(P, seed, deck):
    rng = inputs.deck_rng(seed, deck)
    verdicts, sources = [], []
    for name, d in _corpus("cats"):
        e = d["expect"]
        for i in range(ONE_CAT_COPIES):
            copy = inputs.relabel_category(d, d.get("marked", []), rng)
            sources.append(("cat", copy))
            verdicts += _decide(P, name, _marked_cat(P, copy), e["proper_clf"],
                                e["proper_crf"], i == 0 and name in CORPUS_NERVE)
    for family, k, clf, crf in NERVE_SLOTS:
        for i in range(ONE_CAT_COPIES):
            d = _seeded_cat(rng, family, k, clf, crf)
            sources.append(("cat", d))
            verdicts += _decide(P, f"{family}/{k}/{int(clf)}{int(crf)}",
                                _marked_cat(P, d), clf, crf, i == 0)
    for family in ISO_FAMILIES:
        # one seeded side per deck; both sides cost the same
        d = inputs.relabel_category(inputs.FAMILIES[family](), (), rng)
        sources.append(("cat", d))
        verdicts.append(_iso_decide(P, family, _marked_cat(P, d),
                                    rng.choice("LR")))
    rng.shuffle(verdicts)  # spread every kind over the whole run
    return verdicts, sources


# -- localize-enumerate ---------------------------------------------------------

# one deck takes 3-4.5 s on a 2-core box, so a run measures several and
# every label gets several samples; chain3 keeps a four-object input in
# the mix
LOCALIZE_SLOTS = [
    ("chain1", 1, True, True), ("chain2", 1, True, True),
    ("chain3", 0, True, True), ("walking_iso", 1, True, True),
    ("parallel_pair", 0, True, True), ("span", 0, True, True),
    ("cospan", 1, True, False),
]


def _small_ssets():
    """Δ¹ and the inner 2-horn, truncated at dimension 2 (Δ² and ∂Δ² take
    over a second each)."""
    return [("d1", inputs.simplex(1, 2)), ("horn21", inputs.horn(2, 1, 2))]


def localize_enumerate(P, seed, deck):
    rng = inputs.deck_rng(seed, deck)
    verdicts, sources = [], []
    for family, k, clf, crf in LOCALIZE_SLOTS:
        d = _seeded_cat(rng, family, k, clf, crf)
        sources.append(("cat", d))
        mc = _marked_cat(P, d)
        label = f"{family}/{k}"
        # proper CLF: Ho(Ex₊) ≅ GZ fractions ≅ colimit formula ≅ π₀ of LF
        verdicts.append(Verdict(f"compare:{label}", lambda mc=mc:
                                P.localize.compare_localizations(mc).ok,
                                expect(True)))
        for x in d["objects"]:
            for y in d["objects"]:
                verdicts.append(Verdict(
                    f"pi0:{label}", lambda mc=mc, x=x, y=y:
                    P.localize.pi0_mapping_check(mc, x, y).ok, expect(True)))
                verdicts.append(Verdict(
                    f"colimit:{label}", lambda mc=mc, x=x, y=y:
                    P.localize.colimit_vs_gz(mc, x, y).ok, expect(True)))
        verdicts.append(Verdict(f"exop:{label}", lambda mc=mc:
                                P.exfunctor.ex_op_direct_check(
                                    P.marked.nerve_marked(mc, 3)).ok,
                                expect(True)))
    for name, X in _small_ssets():
        d = inputs.relabel_sset(X, inputs.draw_edges(X, 0.5, rng), rng)
        sources.append(("sset", d))
        base, marked = P.io.marked_sset_from_dict(d)
        mx = P.marked.MarkedSSet(base, marked)
        verdicts.append(Verdict(f"kan:{name}", lambda base=base:
                                P.exfunctor.compare_with_kan_ex(base).ok,
                                expect(True)))
        verdicts.append(Verdict(f"exop:{name}", lambda mx=mx:
                                P.exfunctor.ex_op_direct_check(mx).ok,
                                expect(True)))
    rng.shuffle(verdicts)  # spread every kind over the whole run
    return verdicts, sources


# -- dht-graphs -----------------------------------------------------------------

# (core cycle length, pendants, ears): at most 8 vertices, and oracle loops
# of length max(6, m) go once around the core from the base vertex.  The
# extras sit at fixed places (``inputs.cycle_with_extras``), so a slot's
# oracle cost is the same for every seed.
GRAPH_SLOTS = [(3, 1, 1), (4, 1, 1), (5, 0, 1), (5, 1, 1), (6, 1, 0),
               (6, 1, 1), (7, 1, 0)]
# Graphs that get the oracle alone, checked against the family answer.  They
# make oracle runs the bulk of the mix, so the median verdict takes
# milliseconds: sub-millisecond timings spread far more from run to run.
ORACLE_SLOTS = [(m, p, e) for m in (3, 4, 5, 6)
                for p, e in ((0, 0), (1, 0), (2, 0), (0, 1))]
ORACLE_COPIES = 5
BOX_WINDOW = 4


def _graph_verdicts(P, label, G, base, loop_len, want):
    """Presentation, abelianization, Tietze triviality and the oracle on
    one graph; ``want`` holds the known rank and triviality, and the number
    of oracle classes where the corpus gives it."""
    st = {}
    n_gens = len(G.edges) - len(G.vertices) + 1

    def pres():
        st["p"] = P.dht.a1_presentation(G, base)
        return len(st["p"].generators)

    def rank():
        st["rank"] = P.dht.abelianization_rank(st["p"])
        return st["rank"]

    def trivial():
        st["trivial"] = P.dht.is_trivial_presentation(st["p"]).ok
        return st["trivial"]

    def check_trivial(got):
        if got != want["trivial"]:
            return "wrong", f"trivial={got}, want {want['trivial']}"
        if got and st["rank"] != (0, []):
            return "wrong", f"trivial presentation with rank {st['rank']}"
        return None

    def check_oracle(count):
        if "classes" in want and count != want["classes"]:
            return "wrong", f"{count} classes, want {want['classes']}"
        # the presentation and the oracle must agree
        if st["trivial"] and count != 1:
            return "wrong", f"trivial presentation but {count} classes"
        if st["rank"] != (0, []) and count == 1:
            return "wrong", f"rank {st['rank']} but one class"
        return None

    return [Verdict(f"presentation:{label}", pres, expect(n_gens)),
            Verdict(f"abelianization:{label}", rank, expect(want["rank"])),
            Verdict(f"trivial:{label}", trivial, check_trivial),
            Verdict(f"oracle:{label}", lambda: P.dht.a1_bfs_oracle(
                G, base, max_loop_len=loop_len)[0], check_oracle)]


def _box_verdict(P, label, G, box, window, fills):
    faces = {tuple(int(t) for t in key.split(",")): P.dht.walk_cube(G, walk)
             for key, walk in box["faces"].items()}

    def run():
        res = P.dht.open_box_filler_search(G, box["n"], tuple(box["missing"]),
                                           faces, window=window)
        if not res.ok:
            return res.witness
        filler = res.witness["filler"]
        return all(filler.face(*key) == want.trim()
                   for key, want in faces.items())

    return Verdict(f"box:{label}", run,
                   expect(True) if fills else expect({"exhausted": window}))


def dht_graphs(P, seed, deck):
    rng = inputs.deck_rng(seed, deck)
    verdicts, sources = [], []
    for name, d in _corpus("graphs"):
        e = d["expect"]
        n = len(d["vertices"])
        edges = [(d["vertices"].index(a), d["vertices"].index(b))
                 for a, b in d["edges"]]
        g, names = inputs.graph_dict(n, edges, rng)
        sources.append(("graph", g))
        want = {"rank": (e["a1_rank"], e["a1_torsion"]),
                "trivial": e["a1_trivial"]}
        if "oracle_classes" in e:
            want["classes"] = e["oracle_classes"]
        loop_len = e.get("oracle_bound", 8 if e["a1_rank"] else 6)
        verdicts += _graph_verdicts(P, name, P.dht.graph_from_dict(g),
                                    names[0], loop_len, want)
    for m, pendants, ears in GRAPH_SLOTS:
        edges, n = inputs.cycle_with_extras(m, pendants, ears)
        g, names = inputs.graph_dict(n, edges, rng)
        sources.append(("graph", g))
        G = P.dht.graph_from_dict(g)
        label = f"C{m}+{pendants}p{ears}e"
        # the loop group of C_m: trivial for m <= 4, infinite cyclic after
        verdicts += _graph_verdicts(
            P, label, G, names[0], max(6, m),
            {"rank": (0 if m <= 4 else 1, []), "trivial": m <= 4})
        walk = inputs.random_walk(edges, rng.randrange(n), rng.randint(1, 3), rng)
        missing = rng.choice([(1, 0), (1, 1), (2, 0), (2, 1)])
        box = inputs.connection_box([names[v] for v in walk], missing)
        verdicts.append(_box_verdict(P, label, G, box, BOX_WINDOW, True))
        if m >= 5:
            # the loop around the core is longer than the window allows
            box = inputs.loop_box([names[v % m] for v in range(m + 1)])
            verdicts.append(_box_verdict(P, f"loop-{label}", G, box, m - 1, False))
    for m, pendants, ears in ORACLE_SLOTS * ORACLE_COPIES:
        edges, n = inputs.cycle_with_extras(m, pendants, ears)
        g, names = inputs.graph_dict(n, edges, rng)
        sources.append(("graph", g))
        G = P.dht.graph_from_dict(g)
        verdicts.append(Verdict(
            f"oracle:C{m}+{pendants}p{ears}e", lambda G=G, base=names[0], m=m:
            P.dht.a1_bfs_oracle(G, base, max_loop_len=max(6, m))[0] > 1,
            expect(m >= 5)))
    return verdicts, sources


# -- cli-oneshot ----------------------------------------------------------------

# three of the five malformed inputs ROADMAP item 4 lists, as changes to
# a category file; the other two (faces and a graph vertex) follow inline
MALFORMED_CATS = [
    ("missing-id", lambda c: c["morphisms"][0].pop("id")),
    ("identities-list",
     lambda c: c.update(identities=list(c["identities"].values()))),
    ("list-id",
     lambda c: c["morphisms"][0].update(id=[c["morphisms"][0]["id"]])),
]


def cli_oneshot(P, seed, deck, workdir):
    """Verdicts whose ``run`` returns the argv to execute; the worker runs
    it as a subprocess and hands ``(exit code, stdout, stderr)`` to check."""
    rng = inputs.deck_rng(seed, deck)
    folder = Path(workdir) / f"deck{deck}"
    folder.mkdir(parents=True, exist_ok=True)
    sources, verdicts = [], []

    def put(name, obj, kind=None):
        path = folder / f"{name}.json"
        path.write_text(json.dumps(obj))
        if kind:
            sources.append((kind, obj))
        return str(path)

    def call(label, argv, want_exit, stdout_ok=lambda out: True,
             well_formed=True):
        def check(result):
            code, out, err = result
            if "Traceback" in err:
                return "traceback", err.strip().splitlines()[-1]
            if code != want_exit:
                return ("wrong" if well_formed else "exit_code",
                        f"exit {code}, want {want_exit}")
            try:
                return None if stdout_ok(out) else ("wrong", "unexpected stdout")
            except ValueError:
                return "wrong", "stdout is not a JSON verdict"
        verdicts.append(Verdict(label, lambda: argv, check, well_formed))

    def verdict_ok(want):
        return lambda out: json.loads(out)["ok"] is want

    a = _seeded_cat(rng, "chain2", 1, True, True)
    # one of span/cospan, with exactly one side failing
    b = _seeded_cat(rng, *rng.choice([("span", 1, False, True),
                                      ("cospan", 1, True, False)]))
    c = _seeded_cat(rng, "chain1", rng.randint(0, 1), True, True)
    pa, pb, pc = put("a", a, "cat"), put("b", b, "cat"), put("c", c, "cat")
    # 26 calls, 16-21 s on a 2-core box: a run measures two or three decks
    for path, d in ((pa, a), (pb, b), (pc, c)):
        for mode, side in (("classical", "L"), ("proper", "R")):
            want = (reference.clf if side == "L" else reference.crf)(
                d, d["marked"], proper=mode == "proper")
            call(f"check-{mode}-{side}", ["fractions", "check", "--input", path,
                                          "--mode", mode, "--side", side],
                 0 if want else 1, verdict_ok(want))
    for side in "LR":
        # the infinity mode only on chains of length <= 1: it takes seconds
        call(f"check-infty-{side}", ["fractions", "check", "--input", pc,
                                     "--mode", "infty", "--side", side],
             0, verdict_ok(True))
        call(f"gz-{side}", ["localize", "gz", "--input", pa, "--side", side],
             0, verdict_ok(True))
    # proper CLF: Ho(Ex₊) ≅ GZ fractions, and π₀ of LF matches them
    call("compare", ["localize", "compare", "--input", pc], 0, verdict_ok(True))
    call("mapspace", ["mapspace", "--input", pc, "--side", "L"], 0,
         verdict_ok(True))
    for path in (pa, pb):
        call("export-dot", ["export", "dot", "--input", path], 0,
             lambda out: out.startswith("digraph"))
    X = rng.choice([inputs.simplex(1, 2), inputs.horn(2, 1, 2),
                    inputs.boundary(2, 2)])
    ps = put("x", inputs.relabel_sset(X, inputs.draw_edges(X, 0.5, rng), rng),
             "sset")
    for side in "LR":
        call(f"ex-{side}", ["localize", "ex", "--input", ps, "--levels", "1",
                            "--side", side], 0, verdict_ok(True))
    # nerves of proper-CLF marked posets lift against every L shape
    elements, leq, marked = rng.choice([
        ("ab", lambda x, y: x <= y, {"a,b"}),
        ("xyz", lambda a, b: b == "z", {"y,z"}),
        ("abc", lambda x, y: x == "a", set())])
    N = inputs.poset_nerve(elements, leq, 3)
    pn = put("n", inputs.relabel_sset(N, marked, rng), "sset")
    call("lift", ["fractions", "lift", "--input", pn], 0, verdict_ok(True))
    for m in (rng.randint(3, 4), rng.randint(5, 6)):
        edges, n = inputs.cycle_with_extras(m, 1, 0)
        g, names = inputs.graph_dict(n, edges, rng)
        pg = put(f"g{m}", g, "graph")
        call("a1", ["graph", "a1", "--input", pg, "--base", names[0],
                    "--oracle-bound", str(max(6, m))], 0, verdict_ok(True))
    # on the last graph, C_m with m >= 5: a box cut from a square fills, and
    # the box around the core loop has no filler in a shorter window
    walk = inputs.random_walk(edges, rng.randrange(n), rng.randint(1, 3), rng)
    box = inputs.connection_box([names[v] for v in walk],
                                rng.choice([(1, 0), (1, 1), (2, 0), (2, 1)]))
    call("nerve-box", ["graph", "nerve-box", "--input", pg, "--box",
                       put("box", box), "--window", "4"], 0, verdict_ok(True))
    loop = inputs.loop_box([names[v % m] for v in range(m + 1)])
    call("nerve-box-loop", ["graph", "nerve-box", "--input", pg, "--box",
                            put("loop", loop), "--window", str(m - 1)],
         1, verdict_ok(False))
    for label, spoil in MALFORMED_CATS:
        bad = _seeded_cat(rng, "chain1", 0, True, True)
        spoil(bad)
        call(f"malformed-{label}", ["fractions", "check", "--input",
                                    put(label, bad)], 2, well_formed=False)
    bad = inputs.relabel_sset(inputs.simplex(1, 2), (), rng)
    bad["faces"] = list(bad["faces"].values())
    call("malformed-faces-list", ["localize", "ex", "--input",
                                  put("faces", bad)], 2, well_formed=False)
    bad = dict(g, vertices=[[v] for v in g["vertices"]])
    call("malformed-list-vertex", ["graph", "a1", "--input", put("vertex", bad),
                                   "--base", names[0]], 2, well_formed=False)
    return verdicts, sources


WORKLOADS = {
    "nerve-decide": nerve_decide,
    "localize-enumerate": localize_enumerate,
    "cli-oneshot": cli_oneshot,
    "dht-graphs": dht_graphs,
}
