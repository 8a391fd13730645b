import pytest

from fraction_forge.localize import (
    colimit_preservation_probe,
    colimit_vs_gz,
    compare_localizations,
    fraction_space_LF,
    fraction_space_RF,
    gz_left_fractions,
    gz_right_fractions,
    ho_of_qcat,
    ho_well_defined_check,
    hom_via_colimit,
    is_filtered_category,
    localization_inverts,
    marked_coslice_category,
    marked_slice_under,
    pi0,
    pi0_mapping_check,
    slice_filtered_check,
    zigzag_oracle,
)
from fraction_forge.marked import MarkedCategory, nerve_marked
from fraction_forge.sset_core import nerve_category, standard_simplex
from fraction_forge.sset_core.cat import FinCategory, Morphism, Poset


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
        assert ho_well_defined_check(N).ok


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
    assert localization_inverts(mc, cat, info).ok
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
    # longer words provably reduce: the quotient is stable at length 5
    for mc in (walking_marked_arrow(), marked_segment_poset()):
        for x in mc.cat.objects:
            for y in mc.cat.objects:
                assert zigzag_oracle(mc, x, y, max_len=5) == \
                    zigzag_oracle(mc, x, y, max_len=6), (x, y)


def test_gz_completion_order_independent():
    mc = marked_segment_poset()
    one, _ = gz_left_fractions(mc, completion_order="forward")
    two, _ = gz_left_fractions(mc, completion_order="reverse")
    for x in mc.cat.objects:
        for y in mc.cat.objects:
            assert hom_size(one, x, y) == hom_size(two, x, y)
    # exhaustive well-definedness mode agrees
    three, _ = gz_left_fractions(mc, exhaustive=True)
    for x in mc.cat.objects:
        for y in mc.cat.objects:
            assert hom_size(one, x, y) == hom_size(three, x, y)


def test_gz_right_duality():
    mc = marked_segment_poset()
    right, _ = gz_right_fractions(mc)
    left_op, _ = gz_left_fractions(mc.opposite())
    for x in mc.cat.objects:
        for y in mc.cat.objects:
            assert hom_size(right, x, y) == hom_size(left_op, y, x)


# -- filtered-colimit hom formula ---------------------------------------

def test_hom_via_colimit_identity_marking():
    C = chain_cat(2)
    mc = MarkedCategory(C, set())
    for x in C.objects:
        for y in C.objects:
            classes, _ = hom_via_colimit(mc, x, y)
            assert len(classes) == hom_size(C, x, y)


def test_colimit_vs_gz():
    for mc in (walking_marked_arrow(), marked_segment_poset()):
        gz = gz_left_fractions(mc)
        for x in mc.cat.objects:
            for y in mc.cat.objects:
                assert colimit_vs_gz(mc, x, y, gz=gz).ok, (x, y)


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

def test_marked_slice_under_point():
    N = nerve_category(chain_cat(0), 3)
    ms, proj = marked_slice_under(MarkedCategory_nerve(N), ("v", 0))
    assert [len(cs) for cs in ms.base.cells][0] == 1


def MarkedCategory_nerve(N):
    from fraction_forge.marked import MarkedSSet
    return MarkedSSet(N, set())


def test_marked_slice_under_walking_arrow():
    mN = nerve_marked(walking_marked_arrow(), 3)
    ms, proj = marked_slice_under(mN, ("v", "x"))
    # two vertices: the identity cylinder and the w cylinder
    assert len(ms.base.cells[0]) == 2
    targets = {proj[v].cell for v in ms.base.cells[0]}
    assert targets == {("v", "x"), ("v", "y")}


def test_fraction_space_walking_arrow():
    mN = nerve_marked(walking_marked_arrow(), 3)
    LFxy = fraction_space_LF(mN, ("v", "x"), ("v", "y"), bound=1)
    LFyx = fraction_space_LF(mN, ("v", "y"), ("v", "x"), bound=1)
    assert len(LFxy.base.cells[0]) == 1
    assert len(LFyx.base.cells[0]) == 1
    comps, _ = pi0(LFyx.base)
    assert len(comps) == 1
    RF = fraction_space_RF(mN, ("v", "x"), ("v", "y"), bound=1)
    assert len(RF.base.cells[0]) >= 1


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

# cells per dimension, marked edges and sorted projection targets of the
# marked slice under x, bound 2
SLICE_SHAPES = {
    "walking_marked_arrow": {
        "x": ([2, 1, 0], 1, [((0,), ("v", "x")), ((0,), ("v", "y")),
                             ((0, 1), ("c", "w"))]),
        "y": ([1, 0, 0], 0, [((0,), ("v", "y"))])},
    "marked_segment_poset": {
        0: ([1, 0, 0], 0, [((0,), ("v", 0))]),
        1: ([2, 1, 0], 1, [((0,), ("v", 1)), ((0,), ("v", 2)),
                           ((0, 1), ("c", "1<=2"))]),
        2: ([1, 0, 0], 0, [((0,), ("v", 2))]),
        3: ([1, 0, 0], 0, [((0,), ("v", 3))])},
}


@pytest.mark.parametrize("name", sorted(LF_SHAPES))
def test_fraction_space_and_slice_structure(name):
    mc = {"walking_marked_arrow": walking_marked_arrow,
          "marked_segment_poset": marked_segment_poset}[name]()
    mN = nerve_marked(mc, 3)
    for (x, y), (cells, marked) in LF_SHAPES[name].items():
        LF = fraction_space_LF(mN, ("v", x), ("v", y), bound=1)
        assert ([len(cs) for cs in LF.base.cells], len(LF.marked)) \
            == (cells, marked), (x, y)
    for x, (cells, marked, targets) in SLICE_SHAPES[name].items():
        ms, proj = marked_slice_under(mN, ("v", x), bound=2)
        assert [len(cs) for cs in ms.base.cells] == cells, x
        assert len(ms.marked) == marked, x
        assert sorted((s.op, s.cell) for s in proj.values()) == targets, x


def test_right_fraction_space_matches_gz():
    mc = marked_segment_poset()
    mN = nerve_marked(mc, 3)
    right, _ = gz_right_fractions(mc)
    for x in mc.cat.objects:
        for y in mc.cat.objects:
            RF = fraction_space_RF(mN, ("v", x), ("v", y), bound=1)
            assert len(pi0(RF.base)[0]) == hom_size(right, x, y), (x, y)


def test_pi0_mapping_check():
    for mc in (walking_marked_arrow(), marked_segment_poset()):
        gz = gz_left_fractions(mc)
        for x in mc.cat.objects:
            for y in mc.cat.objects:
                assert pi0_mapping_check(mc, x, y, gz=gz).ok, (x, y)


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

def test_colimit_probe_pushout_square():
    # Boolean square poset: pushout of {0} <- {} -> {1} is {0,1}
    subs = [frozenset(s) for s in ((), (0,), (1,), (0, 1))]
    C = FinCategory.from_poset(
        Poset.from_leq(subs, lambda a, b: a <= b),
        )
    mc = MarkedCategory(C, set())
    f = next(m for m in C.morphism_names()
             if C.dom(m) == frozenset() and C.cod(m) == frozenset({0}))
    g = next(m for m in C.morphism_names()
             if C.dom(m) == frozenset() and C.cod(m) == frozenset({1}))
    assert colimit_preservation_probe(mc, ("pushout", f, g)).ok


def test_colimit_probe_coequalizer():
    mc = walking_marked_arrow()
    assert colimit_preservation_probe(mc, ("coeq", "w", "w")).ok
    with pytest.raises(ValueError):
        colimit_preservation_probe(mc, ("coeq", "w", "ix"))
