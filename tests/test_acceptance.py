"""Acceptance gate: the ten headline checks, each with its stated
runtime budget, driven by the shipped corpus."""

import json
import time
from itertools import combinations, product

from fraction_forge import cli
from fraction_forge.dht import (
    a1_bfs_oracle,
    a1_presentation,
    abelianization_rank,
    cycle,
    graph_from_dict,
    interval,
    is_trivial_presentation,
    make_graph,
    open_box_filler_search,
    vertex_cube,
    walk_cube,
)
from fraction_forge.exfunctor import (Sd_plus, compare_with_kan_ex, ex_plus,
                                      ex_to_sset)
from fraction_forge.fractions import (
    build_sihd_jk,
    build_sihd_prodjoin,
    check_clf_infty,
    check_crf_infty,
    check_proper_clf,
    check_proper_crf,
    retract_check,
    validate_sihd,
)
from fraction_forge.localize import (
    colimit_preservation_probe,
    colimit_vs_gz,
    compare_localizations,
    gz_left_fractions,
    pi0_mapping_check,
    slice_filtered_check,
)
from fraction_forge.marked import (
    enumerate_marked_maps,
    iso_marking,
    nerve_marked,
)
from fraction_forge.sset_core import (boundary, enumerate_maps, horn,
                                     nerve_category, standard_simplex)
from fraction_forge.sset_core.cat import FinCategory, Poset

CORPUS = cli.corpus_path()

# sufficiency sets deciding proper CLF/CRF on nerves (n <= 3)
L_NERVE = cli.NERVE_L_SHAPES
R_NERVE = cli.NERVE_R_SHAPES


def corpus_cats():
    out = []
    for p in sorted((CORPUS / "cats").glob("*.json")):
        out.append((p.name, cli._load_marked_cat(p),
                    json.loads(p.read_text())["expect"]))
    return out


def corpus_graphs():
    out = []
    for p in sorted((CORPUS / "graphs").glob("*.json")):
        d = json.loads(p.read_text())
        out.append((p.name, graph_from_dict(
            {"vertices": d["vertices"], "edges": d["edges"]}), d["expect"]))
    return out


def budget(start, seconds, label):
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"{label} took {elapsed:.1f}s (budget {seconds}s)"


def test_criterion_1_equivalence_theorem_suite():
    start = time.monotonic()
    cats = corpus_cats()
    assert len(cats) >= 20
    for name, mc, _ in cats:
        mN = nerve_marked(mc, 3)
        clf_1cat = check_proper_clf(mc).ok
        clf_infty = check_clf_infty(mN, is_nerve=True, shapes=L_NERVE).ok
        assert clf_1cat == clf_infty, name
        crf_1cat = check_proper_crf(mc).ok
        crf_infty = check_crf_infty(mN, is_nerve=True, shapes=R_NERVE).ok
        assert crf_1cat == crf_infty, name
    budget(start, 60, "equivalence suite")


def finite_diagrams(C):
    """The diagrams in ``C`` whose colimits make up the finite ones, as
    ``(kind, (objects, arrows))``: the initial object, the coproduct of
    every ordered pair of objects, and the coequalizer of every parallel
    pair and the pushout of every span of morphisms, in name order."""
    yield "initial", ([], [])
    for x, y in product(C.objects, repeat=2):
        yield "coproduct", ([x, y], [])
    for f, g in product(sorted(C.morphism_names()), repeat=2):
        x, y, z = C.dom(f), C.cod(f), C.cod(g)
        if C.dom(g) != x:
            continue
        if y == z:
            yield "coeq", ([x, y], [(0, 1, f), (0, 1, g)])
        yield "pushout", ([x, y, z], [(0, 1, f), (0, 2, g)])


def probe_colimits(mc):
    """Probe every diagram of ``finite_diagrams`` in a proper-CLF marked
    category, asserting that each colimit of C survives localization.
    Returns the number of colimits probed and the kinds of the diagrams
    with no colimit in C, in order."""
    probed, no_colimit = 0, []
    for kind, diagram in finite_diagrams(mc.cat):
        try:
            res = colimit_preservation_probe(mc, diagram)
        except ValueError as e:
            assert "no colimit in C" in str(e), (kind, diagram)
            no_colimit.append(kind)
            continue
        assert res.ok, (kind, diagram, res.witness)
        probed += 1
    return probed, no_colimit


# the diagrams of ``finite_diagrams`` with no colimit in C, over the
# proper-CLF corpus categories, and with no colimit in the dual (no limit
# in C; "initial" is then a terminal object), over the proper-CRF ones.
# For instance f, g: a => b has neither a coequalizer nor, as a span, a
# pushout, and the cospan a -> c <- b has no initial object.
NO_COLIMIT = [
    ("cospan_identity.json", "initial"),
    ("cospan_w_marked.json", "initial"),
    ("discrete2_identity.json", "initial"),
    *[("discrete2_identity.json", "coproduct")] * 2,
    ("parallel_pair_unmarked.json", "initial"),
    *[("parallel_pair_unmarked.json", "coproduct")] * 3,
    *[("parallel_pair_unmarked.json", "coeq"),
      ("parallel_pair_unmarked.json", "pushout")] * 2,
]
NO_LIMIT = [
    ("cond3_failure.json", "initial"),
    *[("cond3_failure.json", "coproduct")] * 3,
    *[("cospan_identity.json", "coproduct")] * 2,
    *[("cospan_identity.json", "pushout")] * 2,
    ("discrete2_identity.json", "initial"),
    *[("discrete2_identity.json", "coproduct")] * 2,
    ("parallel_pair_unmarked.json", "initial"),
    *[("parallel_pair_unmarked.json", "coproduct")] * 3,
    *[("parallel_pair_unmarked.json", "coeq"),
      ("parallel_pair_unmarked.json", "pushout")] * 2,
    ("span_w_marked.json", "initial"),
]


def test_criterion_2_three_way_localization():
    start = time.monotonic()
    ran = probed = probed_op = 0
    no_colimit, no_limit = [], []
    for name, mc, expect in corpus_cats():
        # the finite limits of C survive right fractions: the colimits
        # of the dual survive its left fractions
        if expect["proper_crf"]:
            n, kinds = probe_colimits(mc.opposite())
            probed_op += n
            no_limit += [(name, kind) for kind in kinds]
        if not expect["proper_clf"]:
            continue
        ran += 1
        res = compare_localizations(mc)
        assert res.ok, (name, res.witness)
        gz = gz_left_fractions(mc)
        for x in mc.cat.objects:
            for y in mc.cat.objects:
                assert colimit_vs_gz(mc, x, y, gz=gz).ok, (name, x, y)
                assert pi0_mapping_check(mc, x, y).ok, (name, x, y)
        # the finite colimits of C (initial object, binary coproducts,
        # coequalizers and pushouts) survive localization
        n, kinds = probe_colimits(mc)
        probed += n
        no_colimit += [(name, kind) for kind in kinds]
    assert ran >= 5 and (probed, probed_op) == (596, 580)
    assert no_colimit == NO_COLIMIT and no_limit == NO_LIMIT
    budget(start, 120, "three-way localization")


def test_criterion_3_kan_ex_recovery():
    start = time.monotonic()
    chain2 = FinCategory.from_poset(
        Poset.from_leq(["0", "1", "2"], lambda a, b: a <= b))
    iso = cli._load_marked_cat(CORPUS / "cats" / "walking_iso_unmarked.json")
    inputs = [
        standard_simplex(1, bound=2),
        boundary(2),
        horn(2, 1, bound=2),
        nerve_category(chain2, 2),
        nerve_category(iso.cat, 2),
    ]
    for X in inputs:
        res = compare_with_kan_ex(X, levels=2)
        assert res.ok, res.witness
    # the adjunction Sd₊ ⊣ Ex₊: marked maps Sd₊X -> Y and maps X -> Ex₊Y
    # are equinumerous
    shapes = [standard_simplex(1), standard_simplex(2), boundary(2),
              horn(2, 1), horn(2, 0)]
    cats = {name: mc for name, mc, _ in corpus_cats()}
    for name in ("chain1_marked", "chain2_marked_01", "walking_iso_u_marked",
                 "span_w_marked", "parallel_pair_one_marked"):
        mY = nerve_marked(cats[f"{name}.json"], 2)
        EX, _ = ex_to_sset(ex_plus(mY, levels=2))
        for X in shapes:
            assert len(enumerate_marked_maps(Sd_plus(X), mY)) \
                == len(enumerate_maps(X, EX)), (name, X)
    budget(start, 10, "Kan Ex recovery")


def test_criterion_4_sihd_validation():
    start = time.monotonic()
    for n, k in [(2, 1), (3, 1), (3, 2)]:
        amb, img, dec = build_sihd_jk(n, k)
        res = validate_sihd(amb, img, dec)
        assert res.ok, (n, k, res.witness)
    for n, k in [(2, 1), (3, 1)]:
        sub = [A for A in [frozenset(c) for r in range(1, n + 2)
                           for c in combinations(range(n + 1), r)]
               if k in A and A != frozenset(range(n + 1))]
        P = Poset.from_leq(sub, lambda a, b: a <= b)
        W = {(a, b) for a in sub for b in sub
             if a < b and max(a) == max(b)}
        amb, img, dec = build_sihd_prodjoin((P, W), set(sub))
        res = validate_sihd(amb, img, dec)
        assert res.ok, (n, k, res.witness)
    budget(start, 30, "inner horn decompositions")


def test_criterion_5_retract_suite():
    start = time.monotonic()
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        assert retract_check("J-in-SdHorn", n, k), (n, k)
    for n, k in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
        assert retract_check("Knk-in-Sd", n, k), (n, k)
    # the k = n redundancy uses the level-(n+1) shape, so the n <= 3
    # guard of ``shape`` caps it at n = 2
    for n in (1, 2):
        assert retract_check("k-eq-n-redundant", n, n), n
    budget(start, 10, "retract suite")


def test_criterion_6_iso_marking_clf():
    start = time.monotonic()
    for name, mc, _ in corpus_cats():
        mN = nerve_marked(iso_marking(mc.cat), 3)
        assert check_clf_infty(mN, is_nerve=True).ok, name
        assert check_crf_infty(mN, is_nerve=True).ok, name
    budget(start, 60, "isomorphism-marked CLF/CRF")


def test_criterion_7_filtered_slices():
    start = time.monotonic()
    ran = 0
    for name, mc, expect in corpus_cats():
        if not (expect["two_out_of_three"] and expect["clf_classical"]):
            continue
        ran += 1
        for x in mc.cat.objects:
            assert slice_filtered_check(mc, x).ok, (name, x)
    assert ran >= 5
    budget(start, 10, "filtered slices")


def test_criterion_8_discrete_homotopy_numbers():
    start = time.monotonic()
    for m in (3, 4):
        assert abelianization_rank(a1_presentation(cycle(m), 0)) == (0, [])
    for m in (5, 6, 7, 8):
        assert abelianization_rank(a1_presentation(cycle(m), 0)) == (1, [])
    small = [G for _, G, _ in corpus_graphs() if len(G.vertices) <= 6]
    small.append(interval(2))
    assert len(small) >= 6
    for G in small:
        base = G.vertices[0]
        p = a1_presentation(G, base)
        rank, torsion = abelianization_rank(p)
        trivial = bool(is_trivial_presentation(p))
        count, _ = a1_bfs_oracle(G, base, max_loop_len=8)
        if trivial:
            assert count == 1, G
        if rank > 0 or torsion:
            assert count > 1, G
        assert not (trivial and (rank > 0 or torsion))
    budget(start, 120, "discrete homotopy numbers")


def tree6():
    return make_graph(range(6), [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)])


def curated_boxes(G, walks):
    boxes = []
    for v in list(G.vertices)[:2]:
        boxes.append((1, (1, 1), {(1, 0): vertex_cube(G, v)}))
    for w in walks:
        square_base = walk_cube(G, w)
        for eps in (0, 1):
            sq = square_base.connection(1, eps)
            if sq.dim != 2:
                continue
            faces = {key: sq.face(*key)
                     for key in [(1, 0), (1, 1), (2, 0)]}
            boxes.append((2, (2, 1), faces))
    sq = walk_cube(G, walks[0]).degeneracy(1)
    faces = {key: sq.face(*key) for key in [(1, 1), (2, 0), (2, 1)]}
    boxes.append((2, (1, 0), faces))
    return boxes


def test_criterion_9_nerve_kan_probes():
    start = time.monotonic()
    cases = [
        (cycle(4), [[0, 1], [0, 1, 2], [1, 2, 3]]),
        (cycle(5), [[0, 1], [0, 1, 2], [2, 3, 4]]),
        (tree6(), [[0, 1, 2], [1, 4], [4, 1, 2, 5]]),
    ]
    total = 0
    for G, walks in cases:
        for n, missing, faces in curated_boxes(G, walks):
            total += 1
            res = open_box_filler_search(G, n, missing, faces, window=8)
            assert res.ok, (G, missing, res.witness)
            filler = res.witness["filler"]
            for key, want in faces.items():
                assert filler.face(*key) == want.trim()
    assert total >= 25
    budget(start, 60, "nerve Kan probes")


def test_criterion_10_corpus_determinism():
    start = time.monotonic()
    ok1, payload1 = cli.corpus_run()
    ok2, payload2 = cli.corpus_run()
    assert ok1 and ok2
    from fraction_forge.sset_core import io as ffio
    blob1 = ffio.dumps(cli._plain(payload1))
    blob2 = ffio.dumps(cli._plain(payload2))
    assert blob1 == blob2
    budget(start, 300, "corpus determinism")
