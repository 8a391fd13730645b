"""Regenerate the shipped corpus under src/fraction_forge/corpus/.

Expectations are frozen into each file: hand-assigned where the outcome
is forced by construction (asserted against the library here, so a
regression fails loudly at generation time), library-computed otherwise.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fraction_forge.dht import a1_bfs_oracle, graph_from_dict, make_graph
from fraction_forge.fractions import check_clf_classical, check_proper_clf, check_proper_crf
from fraction_forge.marked import MarkedCategory, cat_is_two_out_of_three
from fraction_forge.sset_core import io as ffio
from fraction_forge.sset_core.cat import FinCategory, Morphism, Poset

ROOT = Path(__file__).resolve().parents[1] / "src" / "fraction_forge" / "corpus"


def chain(n):
    elems = [str(i) for i in range(n + 1)]
    return FinCategory.from_poset(Poset.from_leq(elems, lambda a, b: a <= b))


def walking_iso():
    return FinCategory(
        ["a", "b"],
        [Morphism("ia", "a", "a"), Morphism("ib", "b", "b"),
         Morphism("u", "a", "b"), Morphism("v", "b", "a")],
        {"a": "ia", "b": "ib"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib",
         ("u", "ia"): "u", ("ib", "u"): "u",
         ("v", "ib"): "v", ("ia", "v"): "v",
         ("v", "u"): "ia", ("u", "v"): "ib"},
    )


def parallel_pair():
    return FinCategory(
        ["a", "b"],
        [Morphism("ia", "a", "a"), Morphism("ib", "b", "b"),
         Morphism("f", "a", "b"), Morphism("g", "a", "b")],
        {"a": "ia", "b": "ib"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib",
         ("f", "ia"): "f", ("ib", "f"): "f",
         ("g", "ia"): "g", ("ib", "g"): "g"},
    )


def span_cat():
    return FinCategory(
        ["a", "b", "c"],
        [Morphism("ia", "a", "a"), Morphism("ib", "b", "b"),
         Morphism("ic", "c", "c"),
         Morphism("f", "a", "b"), Morphism("w", "a", "c")],
        {"a": "ia", "b": "ib", "c": "ic"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib", ("ic", "ic"): "ic",
         ("f", "ia"): "f", ("ib", "f"): "f",
         ("w", "ia"): "w", ("ic", "w"): "w"},
    )


def cospan_cat():
    elems = ["x", "y", "z"]
    return FinCategory.from_poset(
        Poset.from_leq(elems, lambda a, b: a == b or b == "z"))


def cond3_cat():
    # d -u-> a => b with fu = gu = h and u marked
    return FinCategory(
        ["d", "a", "b"],
        [Morphism("id", "d", "d"), Morphism("ia", "a", "a"),
         Morphism("ib", "b", "b"),
         Morphism("u", "d", "a"), Morphism("f", "a", "b"),
         Morphism("g", "a", "b"), Morphism("h", "d", "b")],
        {"d": "id", "a": "ia", "b": "ib"},
        {("id", "id"): "id", ("ia", "ia"): "ia", ("ib", "ib"): "ib",
         ("u", "id"): "u", ("ia", "u"): "u",
         ("f", "ia"): "f", ("ib", "f"): "f",
         ("g", "ia"): "g", ("ib", "g"): "g",
         ("h", "id"): "h", ("ib", "h"): "h",
         ("f", "u"): "h", ("g", "u"): "h"},
    )


def square_poset():
    elems = ["e", "0", "1", "01"]

    def leq(a, b):
        return set(a.replace("e", "")) <= set(b.replace("e", ""))

    return FinCategory.from_poset(Poset.from_leq(elems, leq))


def discrete2():
    return FinCategory(
        ["a", "b"],
        [Morphism("ia", "a", "a"), Morphism("ib", "b", "b")],
        {"a": "ia", "b": "ib"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib"},
    )


def nonid(C):
    return {f for f in C.morphism_names() if not C.is_identity(f)}


def cats():
    sq = square_poset()
    out = [
        ("chain0_identity", chain(0), set(), {"proper_clf": True}),
        ("chain1_identity", chain(1), set(), {"proper_clf": True}),
        ("chain2_identity", chain(2), set(), {"proper_clf": True}),
        ("chain3_identity", chain(3), set(), {"proper_clf": True}),
        ("chain1_marked", chain(1), {"0<=1"}, {"proper_clf": True}),
        ("chain2_marked_01", chain(2), {"0<=1"}, {}),
        ("chain2_marked_12", chain(2), {"1<=2"}, {}),
        ("chain2_marked_all", chain(2), nonid(chain(2)),
         {"proper_clf": True, "two_out_of_three": True}),
        ("chain3_marked_01", chain(3), {"0<=1"}, {}),
        ("chain3_marked_12", chain(3), {"1<=2"}, {}),
        ("chain3_marked_all", chain(3), nonid(chain(3)),
         {"proper_clf": True, "two_out_of_three": True}),
        ("walking_iso_unmarked", walking_iso(), set(), {"proper_clf": True}),
        ("walking_iso_isomarked", walking_iso(), {"u", "v"},
         {"proper_clf": True, "proper_crf": True}),
        ("walking_iso_u_marked", walking_iso(), {"u"}, {}),
        ("parallel_pair_unmarked", parallel_pair(), set(),
         {"proper_clf": True}),
        ("parallel_pair_one_marked", parallel_pair(), {"f"},
         {"clf_classical": False, "proper_clf": False}),
        ("span_w_marked", span_cat(), {"w"},
         {"clf_classical": False, "proper_clf": False}),
        ("cospan_w_marked", cospan_cat(), {"y<=z"},
         {"proper_crf": False}),
        ("cond3_failure", cond3_cat(), {"u"}, {"clf_classical": False}),
        ("square_poset_identity", square_poset(), set(),
         {"proper_clf": True}),
        ("square_poset_top_marked", sq,
         {f for f in sq.morphism_names()
          if sq.cod(f) == "01" and not sq.is_identity(f)},
         {"proper_clf": True, "two_out_of_three": False}),
        ("discrete2_identity", discrete2(), set(), {"proper_clf": True}),
        ("cospan_identity", cospan_cat(), set(), {"proper_clf": True}),
    ]
    return out


def graphs():
    star = make_graph(["c", "l1", "l2", "l3", "l4", "l5"],
                      [("c", f"l{i}") for i in range(1, 6)])
    k4 = make_graph(["0", "1", "2", "3"],
                    [(str(i), str(j)) for i in range(4)
                     for j in range(i + 1, 4)])

    def strc(m):
        return make_graph([str(i) for i in range(m)],
                          [(str(i), str((i + 1) % m)) for i in range(m)])

    def stri(m):
        return make_graph([str(i) for i in range(m + 1)],
                          [(str(i), str(i + 1)) for i in range(m)])

    out = []
    for m in range(3, 9):
        rank = 0 if m <= 4 else 1
        expect = {"a1_rank": rank, "a1_torsion": [],
                  "a1_trivial": rank == 0}
        if m <= 5:
            G = strc(m)
            count, _ = a1_bfs_oracle(G, "0", max_loop_len=8)
            assert (count == 1) == (rank == 0), (m, count)
            expect["oracle_classes"] = count
            expect["oracle_bound"] = 8
        out.append((f"cycle{m}", strc(m), expect))
    out.append(("path4", stri(3),
                {"a1_rank": 0, "a1_torsion": [], "a1_trivial": True,
                 "oracle_classes": 1, "oracle_bound": 6}))
    out.append(("star6", star,
                {"a1_rank": 0, "a1_torsion": [], "a1_trivial": True}))
    out.append(("k4", k4,
                {"a1_rank": 0, "a1_torsion": [], "a1_trivial": True,
                 "oracle_classes": 1, "oracle_bound": 6}))
    return out


def main():
    (ROOT / "cats").mkdir(parents=True, exist_ok=True)
    (ROOT / "graphs").mkdir(parents=True, exist_ok=True)

    for name, C, marked, hand in cats():
        mc = MarkedCategory(C, set(marked))
        computed = {
            "clf_classical": check_clf_classical(mc).ok,
            "proper_clf": check_proper_clf(mc).ok,
            "proper_crf": check_proper_crf(mc).ok,
            "two_out_of_three": cat_is_two_out_of_three(mc).ok,
        }
        for key, want in hand.items():
            assert computed[key] == want, (name, key, computed[key], want)
        d = ffio.cat_to_dict(C, marked=marked)
        d["expect"] = computed
        (ROOT / "cats" / f"{name}.json").write_text(ffio.dumps(d))
        print(name, computed)

    for name, G, expect in graphs():
        d = G.to_dict()
        d["expect"] = expect
        # round-trip sanity
        graph_from_dict({"vertices": d["vertices"], "edges": d["edges"]})
        (ROOT / "graphs" / f"{name}.json").write_text(ffio.dumps(d))
        print(name, expect)


if __name__ == "__main__":
    main()
