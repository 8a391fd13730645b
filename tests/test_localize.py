import pytest

from fraction_forge.localize import (
    _slice,
    colimit_preservation_probe,
    colimit_vs_gz,
    compare_localizations,
    fraction_space_LF,
    fraction_spaces,
    gz_left_fractions,
    gz_right_fractions,
    ho_of_qcat,
    is_filtered_category,
    marked_coslice_category,
    pi0,
    pi0_mapping_check,
    pi0_mapping_checks,
    slice_filtered_check,
)
from fraction_forge import cli, localize
from fraction_forge.fractions import check_clf_classical, check_crf_classical
from fraction_forge.marked import MarkedCategory, nerve_marked
from fraction_forge.sset_core import nerve_category, standard_simplex
from fraction_forge.sset_core.cat import FinCategory, Morphism, Poset
from reference_localize import composites_agree, zigzag_oracle


def chain_cat(n):
    return FinCategory.from_poset(Poset.from_leq(range(n + 1),
                                                 lambda a, b: a <= b))


def walking_marked_arrow():
    C = FinCategory(
        ["x", "y"],
        [Morphism("ix", "x", "x"), Morphism("iy", "y", "y"),
         Morphism("w", "x", "y")],
        {"x": "ix", "y": "iy"},
        {("ix", "ix"): "ix", ("iy", "iy"): "iy",
         ("w", "ix"): "w", ("iy", "w"): "w"},
    )
    return MarkedCategory(C, {"w"})


CORPUS_CATS = sorted(p.stem
                     for p in (cli.corpus_path() / "cats").glob("*.json"))


def corpus_cats():
    return [(name, cli._load_marked_cat(cli.corpus_path() / "cats"
                                        / f"{name}.json"))
            for name in CORPUS_CATS]


def hom_size(cat, x, y):
    return len([m for m in cat.morphism_names()
                if cat.dom(m) == x and cat.cod(m) == y])


# -- homotopy category ---------------------------------------------------

def test_ho_of_nerve_roundtrip():
    for C in (chain_cat(2), walking_marked_arrow().cat):
        N = nerve_category(C, 3)
        ho, cls = ho_of_qcat(N)
        assert len(ho.objects) == len(C.objects)
        for x in C.objects:
            for y in C.objects:
                assert hom_size(ho, ("v", x), ("v", y)) == hom_size(C, x, y)


def test_ho_of_simplex():
    D2 = standard_simplex(2, bound=2)
    ho, cls = ho_of_qcat(D2)
    assert len(ho.objects) == 3
    assert sum(1 for m in ho.morphism_names()) == 6


def test_ho_requires_quasicategory():
    from fraction_forge.sset_core import horn
    with pytest.raises(ValueError):
        ho_of_qcat(horn(2, 1, bound=2))


# -- Gabriel-Zisman fractions -------------------------------------------

def test_gz_identity_marking_recovers_category():
    C = chain_cat(2)
    mc = MarkedCategory(C, set())
    cat, info = gz_left_fractions(mc)
    for x in C.objects:
        for y in C.objects:
            assert hom_size(cat, x, y) == hom_size(C, x, y)
    for f in C.morphism_names():
        assert info["canonical"](f) is not None


def test_gz_walking_marked_arrow_is_walking_iso():
    mc = walking_marked_arrow()
    cat, info = gz_left_fractions(mc)
    for x in ("x", "y"):
        for y in ("x", "y"):
            assert hom_size(cat, x, y) == 1
    w_cls = info["canonical"]("w")
    assert cat.is_iso(w_cls)


def test_gz_requires_clf():
    C = FinCategory(
        ["a", "b", "c"],
        [Morphism("ia", "a", "a"), Morphism("ib", "b", "b"),
         Morphism("ic", "c", "c"),
         Morphism("f", "a", "b"), Morphism("w", "a", "c")],
        {"a": "ia", "b": "ib", "c": "ic"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib", ("ic", "ic"): "ic",
         ("f", "ia"): "f", ("ib", "f"): "f",
         ("w", "ia"): "w", ("ic", "w"): "w"},
    )
    with pytest.raises(ValueError):
        gz_left_fractions(MarkedCategory(C, {"w"}))


def marked_segment_poset():
    # linear poset 0 < 1 < 2 < 3 with the arrow 1 -> 2 marked
    C = chain_cat(3)
    return MarkedCategory(C, {"1<=2"})


def test_gz_against_zigzag_oracle():
    mc = marked_segment_poset()
    cat, info = gz_left_fractions(mc)
    for x in mc.cat.objects:
        for y in mc.cat.objects:
            assert hom_size(cat, x, y) == zigzag_oracle(mc, x, y), (x, y)
    # the marked arrow acquires an inverse: hom(2, 1) is a singleton
    assert hom_size(cat, 2, 1) == 1
    assert hom_size(cat, 3, 1) == 0


def test_zigzag_oracle_stabilizes():
    # on these inputs the count is the same at lengths 5 and 6; that is
    # checked here, not proven, and it does not hold for every input
    # (see ``zigzag_oracle``)
    for mc in (walking_marked_arrow(), marked_segment_poset()):
        for x in mc.cat.objects:
            for y in mc.cat.objects:
                assert zigzag_oracle(mc, x, y, max_len=5) == \
                    zigzag_oracle(mc, x, y, max_len=6), (x, y)


def test_gz_completion_order_independent():
    # composing over every representative and every completion agrees,
    # on both sides of every corpus category with the classical condition
    cases = [(marked_segment_poset(), "L")]
    for _, mc in corpus_cats():
        if check_clf_classical(mc).ok:
            cases.append((mc, "L"))
        if check_crf_classical(mc).ok:
            cases.append((mc, "R"))
    assert len(cases) == 41
    for mc, side in cases:
        if side == "L":
            assert composites_agree(mc, *gz_left_fractions(mc))
        else:
            cat, info = gz_right_fractions(mc)
            assert composites_agree(mc.opposite(), cat.opposite(), info)


def test_gz_right_duality():
    mc = marked_segment_poset()
    right, _ = gz_right_fractions(mc)
    left_op, _ = gz_left_fractions(mc.opposite())
    for x in mc.cat.objects:
        for y in mc.cat.objects:
            assert hom_size(right, x, y) == hom_size(left_op, y, x)


# -- filtered-colimit hom formula ---------------------------------------

def test_colimit_vs_gz():
    unmarked = MarkedCategory(chain_cat(2), set())
    for mc in (walking_marked_arrow(), marked_segment_poset(), unmarked):
        gz = gz_left_fractions(mc)
        for x in mc.cat.objects:
            for y in mc.cat.objects:
                assert colimit_vs_gz(mc, x, y, gz=gz).ok, (x, y)
    # a coslice that is not filtered: e <= 0 and e <= 1 have no common
    # marked arrow out of e, so the colimit relation is not transitive
    square = dict(corpus_cats())["square_poset_identity"]
    partial = MarkedCategory(square.cat, {"e<=0", "e<=1"})
    full = gz_left_fractions(MarkedCategory(square.cat,
                                            set(square.cat.morphism_names())))
    res = colimit_vs_gz(partial, "e", "e", gz=full)
    assert not res.ok and res.witness["reason"] == "not transitive"
    # the fractions of another marking: 1 <= 2 inverted gives a 2 -> 1
    inverted = gz_left_fractions(MarkedCategory(chain_cat(2), {"1<=2"}))
    assert not colimit_vs_gz(unmarked, 2, 1, gz=inverted).ok
    # the fractions of a marking without 1 <= 2 have no class for its cospans
    res = colimit_vs_gz(MarkedCategory(chain_cat(2), {"1<=2"}), 1, 1,
                        gz=gz_left_fractions(unmarked))
    assert (res.ok, res.witness) == (
        False, {"pair": (1, 1), "reason": "cospan outside the fractions"})


# -- filteredness --------------------------------------------------------

def test_filteredness():
    assert is_filtered_category(chain_cat(1)).ok  # terminal object
    discrete = FinCategory(
        ["a", "b"],
        [Morphism("ia", "a", "a"), Morphism("ib", "b", "b")],
        {"a": "ia", "b": "ib"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib"},
    )
    res = is_filtered_category(discrete)
    assert not res.ok and res.witness["reason"] == "no cocone"


def test_marked_coslice_filtered():
    mc = walking_marked_arrow()
    cos = marked_coslice_category(mc, "x")
    # objects: ix and w
    assert sorted(cos.objects) == ["ix", "w"]
    assert slice_filtered_check(mc, "x").ok
    assert slice_filtered_check(mc, "y").ok


# -- slices and fraction spaces -----------------------------------------

def test_fraction_space_walking_arrow():
    mN = nerve_marked(walking_marked_arrow(), 3)
    LFxy = fraction_space_LF(mN, ("v", "x"), ("v", "y"))
    LFyx = fraction_space_LF(mN, ("v", "y"), ("v", "x"))
    assert len(LFxy.base.cells[0]) == 1
    assert len(LFyx.base.cells[0]) == 1
    comps, _ = pi0(LFyx.base)
    assert len(comps) == 1
    RF = fraction_spaces(mN, [("v", "x"), ("v", "y")], "R")
    assert len(RF[(("v", "x"), ("v", "y"))].base.cells[0]) >= 1


# cells per dimension and marked edges of LF(x, y), bound 1
LF_SHAPES = {
    "walking_marked_arrow": {
        ("x", "x"): ([2, 1], 1), ("x", "y"): ([1, 0], 0),
        ("y", "x"): ([1, 0], 0), ("y", "y"): ([1, 0], 0)},
    "marked_segment_poset": {
        (0, 0): ([1, 0], 0), (0, 1): ([2, 1], 1), (0, 2): ([1, 0], 0),
        (0, 3): ([1, 0], 0), (1, 0): ([0, 0], 0), (1, 1): ([2, 1], 1),
        (1, 2): ([1, 0], 0), (1, 3): ([1, 0], 0), (2, 0): ([0, 0], 0),
        (2, 1): ([1, 0], 0), (2, 2): ([1, 0], 0), (2, 3): ([1, 0], 0),
        (3, 0): ([0, 0], 0), (3, 1): ([0, 0], 0), (3, 2): ([0, 0], 0),
        (3, 3): ([1, 0], 0)},
}

# sorted ends of the vertices of the marked slice under x: one for each
# marked arrow out of x, identities included
SLICE_ENDS = {
    "walking_marked_arrow": {
        "x": [("v", "x"), ("v", "y")], "y": [("v", "y")]},
    "marked_segment_poset": {
        0: [("v", 0)], 1: [("v", 1), ("v", 2)], 2: [("v", 2)],
        3: [("v", 3)]},
}


@pytest.mark.parametrize("name", sorted(LF_SHAPES))
def test_fraction_space_and_slice_structure(name):
    mc = {"walking_marked_arrow": walking_marked_arrow,
          "marked_segment_poset": marked_segment_poset}[name]()
    mN = nerve_marked(mc, 3)
    spaces = fraction_spaces(mN, [("v", x) for x in mc.cat.objects])
    for (x, y), (cells, marked) in LF_SHAPES[name].items():
        for LF in (fraction_space_LF(mN, ("v", x), ("v", y)),
                   spaces[(("v", x), ("v", y))]):
            assert ([len(cs) for cs in LF.base.cells], len(LF.marked)) \
                == (cells, marked), (x, y)
    for x, ends in SLICE_ENDS[name].items():
        lm, end = _slice(mN, ("v", x))
        assert sorted(end[s].cell for s in lm.levels[0]) == ends, x


def test_right_fraction_space_matches_gz():
    mc = marked_segment_poset()
    mN = nerve_marked(mc, 3)
    right, _ = gz_right_fractions(mc)
    spaces = fraction_spaces(mN, [("v", x) for x in mc.cat.objects], "R")
    for x in mc.cat.objects:
        for y in mc.cat.objects:
            RF = spaces[(("v", x), ("v", y))]
            assert len(pi0(RF.base)[0]) == hom_size(right, x, y), (x, y)


def test_pi0_mapping_check():
    for mc in (walking_marked_arrow(), marked_segment_poset()):
        for x in mc.cat.objects:
            for y in mc.cat.objects:
                assert pi0_mapping_check(mc, x, y).ok, (x, y)


@pytest.mark.parametrize("name", CORPUS_CATS)
def test_pi0_mapping_checks_both_sides_over_corpus(name):
    # every side with the classical condition; the 40 (category, side)
    # pairs this covers are counted in test_gz_completion_order_independent
    mc = cli._load_marked_cat(cli.corpus_path() / "cats" / f"{name}.json")
    for side, cond in (("L", check_clf_classical),
                       ("R", check_crf_classical)):
        if not cond(mc).ok:
            continue
        checks = pi0_mapping_checks(mc, side)
        assert len(checks) == len(mc.cat.objects) ** 2
        for pair, res in checks.items():
            assert res.ok, (side, pair, res.witness)
            assert res.witness["pi0"] == res.witness["gz"]


# -- three-way comparison ------------------------------------------------

def test_compare_localizations_walking_arrow():
    res = compare_localizations(walking_marked_arrow())
    assert res.ok, res.witness


def test_compare_localizations_identity_marking():
    C = chain_cat(1)
    res = compare_localizations(MarkedCategory(C, set()))
    assert res.ok, res.witness


def test_compare_localizations_marked_segment():
    res = compare_localizations(marked_segment_poset())
    assert res.ok, res.witness


# -- colimit preservation ------------------------------------------------

def boolean_square():
    e, a, b = frozenset(), frozenset({0}), frozenset({1})
    C = FinCategory.from_poset(
        Poset.from_leq([e, a, b, a | b], lambda x, y: x <= y))
    return MarkedCategory(C, set()), e, a, b


def test_colimit_probe_pushout_square():
    # Boolean square poset: pushout of {0} <- {} -> {1} is {0,1}
    mc, e, a, b = boolean_square()
    f, g = mc.cat.hom(e, a)[0], mc.cat.hom(e, b)[0]
    assert colimit_preservation_probe(
        mc, ([e, a, b], [(0, 1, f), (0, 2, g)])).ok


def test_colimit_probe_coproduct_and_initial():
    # in the Boolean square, {0} ⊔ {1} is {0,1} and {} is initial
    mc, e, a, b = boolean_square()
    assert colimit_preservation_probe(mc, ([a, b], [])).ok
    assert colimit_preservation_probe(mc, ([], [])).ok
    # the discrete category on two objects has neither
    discrete = MarkedCategory(FinCategory(
        ["a", "b"], [Morphism("ia", "a", "a"), Morphism("ib", "b", "b")],
        {"a": "ia", "b": "ib"}, {("ia", "ia"): "ia", ("ib", "ib"): "ib"}),
        set())
    for diagram in ((["a", "b"], []), ([], [])):
        with pytest.raises(ValueError, match="no colimit in C"):
            colimit_preservation_probe(discrete, diagram)


def test_colimit_probe_fails_on_a_wrong_canonical_functor(monkeypatch):
    # in the monoid {1, e} with e.e = e the one-object diagram has the
    # colimit (*, 1); a "canonical functor" that swaps 1 and e sends it to
    # (*, e), through which the cocone (*, 1) does not factor
    C = FinCategory(["*"], [Morphism("1", "*", "*"), Morphism("e", "*", "*")],
                    {"*": "1"}, {("1", "1"): "1", ("1", "e"): "e",
                                 ("e", "1"): "e", ("e", "e"): "e"})
    mc = MarkedCategory(C, set())
    assert colimit_preservation_probe(mc, (["*"], [])).ok
    gz_left_fractions = localize.gz_left_fractions

    def swapped(mc):
        cat, info = gz_left_fractions(mc)
        canonical = info["canonical"]
        return cat, {**info, "canonical": lambda f: next(
            c for c in cat.hom("*", "*") if c != canonical(f))}

    monkeypatch.setattr(localize, "gz_left_fractions", swapped)
    res = colimit_preservation_probe(mc, (["*"], []))
    assert (res.ok, res.witness["factorings"]) == (False, 0)


def test_colimit_probe_coequalizer():
    mc = walking_marked_arrow()
    assert colimit_preservation_probe(
        mc, (["x", "y"], [(0, 1, "w"), (0, 1, "w")])).ok
    for arrows in ([(0, 1, "ix")],  # ix: x -> x
                   [(0, 2, "w")],  # no third object
                   [(0, 1, "nonsense")]):
        with pytest.raises(ValueError, match="does not fit the diagram"):
            colimit_preservation_probe(mc, (["x", "y"], arrows))
