import gc
import weakref

import pytest

from fraction_forge.sset_core import (
    boundary,
    enumerate_maps,
    horn,
    io,
    is_quasicategory_upto,
    nerve_category,
    nerve_poset,
    opposite_sset,
    standard_simplex,
)
from fraction_forge.sset_core.cat import FinCategory, Morphism, Poset
from fraction_forge.sset_core.enumerate import Check
from fraction_forge.sset_core.ops import surj_from_word, word_from_surj
from fraction_forge.sset_core.sset import Simplex, SMap, SSet, surjections
from helpers import find_isomorphism
from reference_build import loop_surjections, product


def counts(X):
    return [len(cs) for cs in X.cells]


def test_standard_simplices():
    assert counts(standard_simplex(2)) == [3, 3, 1]
    assert counts(standard_simplex(3)) == [4, 6, 4, 1]
    assert counts(boundary(2)) == [3, 3, 0]
    assert counts(horn(2, 1)) == [3, 2, 0]
    assert counts(horn(3, 1)) == [4, 6, 3, 0]


def test_words_roundtrip():
    for n in range(1, 5):
        for m in range(n + 1):
            for op in surjections(n, m):
                assert surj_from_word(word_from_surj(op), n) == op
    with pytest.raises(ValueError):
        surj_from_word([0, 1], 3)  # not strictly decreasing


def test_surjections_keep_the_loop_builders_order():
    # face-index buckets and every enumeration order follow this order
    for n in range(7):
        for m in range(-1, n + 2):
            assert surjections(n, m) == loop_surjections(n, m), (n, m)


def test_face_normalization_degenerate():
    D2 = standard_simplex(2)
    # 2nd-degeneracy of edge (0,1), then inner face: stays degenerate
    s = Simplex((0, 1, 1), (0, 1))
    assert D2.simplex_face(s, 1) == Simplex((0, 1), (0, 1))
    assert D2.simplex_face(s, 2) == Simplex((0, 1), (0, 1))
    assert D2.simplex_face(s, 0) == Simplex((0, 0), (1,))


def test_simplex_is_a_frozen_value():
    s = Simplex((0, 1), "e")
    assert s == Simplex((0, 1), "e") and hash(s) == hash(Simplex((0, 1), "e"))
    assert s != Simplex((0, 0), "e") and s != ((0, 1), "e")
    assert repr(s) == "Simplex(op=(0, 1), cell='e')"
    with pytest.raises(AttributeError):
        s.op = (0, 0)
    with pytest.raises(AttributeError):
        del s.cell


def test_smap_morphism_and_check_values():
    D1 = standard_simplex(1)
    f, g = SMap(D1, D1), SMap(D1, D1)
    f.assignment[(0,)] = Simplex((0,), (0,))
    assert g.assignment == {}  # no shared default
    m = Morphism("f", "a", "b")
    assert m == Morphism("f", "a", "b") and m != Morphism("f", "b", "a")
    assert m != ("f", "a", "b")
    c = Check(False, {"n": 2})
    assert c == Check(False, {"n": 2}) and c != Check(True) and not c
    assert c != (False, {"n": 2})
    assert repr(c) == "Check(ok=False, witness={'n': 2})"
    assert repr(Check(True)) == "Check(ok=True, witness=None)"
    for unhashable in (m, c):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_validation_rejects_bad_faces():
    with pytest.raises(ValueError):
        SSet(1, [["a"], ["e"]], {"e": [Simplex((0,), "a")]})  # one face missing
    with pytest.raises(ValueError):
        SSet(1, [["a"], ["e", "e"]], {"e": []})  # duplicate cell


def test_product_shuffles():
    P = product(standard_simplex(1), standard_simplex(1), 2)
    assert counts(P) == [4, 5, 2]
    P2 = product(standard_simplex(2), standard_simplex(1), 3)
    assert counts(P2) == [6, 12, 10, 3]
    # product of nerves is the nerve of the product poset
    pp = Poset.from_leq([(i, e) for i in range(3) for e in range(2)],
                        lambda a, b: a[0] <= b[0] and a[1] <= b[1])
    assert counts(nerve_poset(pp, 3)) == [6, 12, 10, 3]
    # X × Δ0 ≅ X
    X = boundary(2)
    PX = product(X, standard_simplex(0), 2)
    assert find_isomorphism(PX, X) is not None


def test_enumerate_maps_sd1_to_d1():
    f0, f1, f01 = frozenset([0]), frozenset([1]), frozenset([0, 1])
    P = Poset.from_leq([f0, f1, f01], lambda a, b: a <= b)
    Sd1 = nerve_poset(P, 1)
    assert len(enumerate_maps(Sd1, standard_simplex(1))) == 5


def test_enumerate_maps_deterministic():
    A = horn(2, 1)
    X = standard_simplex(2)
    one = [f.serialize() for f in enumerate_maps(A, X)]
    two = [f.serialize() for f in enumerate_maps(A, X)]
    assert one == two


def test_extensions_and_quasicategory():
    chain = FinCategory.from_poset(Poset.from_leq([0, 1, 2], lambda a, b: a <= b))
    N = nerve_category(chain, 3)
    assert is_quasicategory_upto(N, 3).ok
    # the horn itself is not a quasicategory
    res = is_quasicategory_upto(horn(2, 1, bound=2), 2)
    assert not res.ok and res.witness["n"] == 2


def test_nerve_category_walking_iso():
    # walking isomorphism: 2 objects, 2 non-identity arrows, composites = ids
    C = FinCategory(
        ["a", "b"],
        [Morphism("ia", "a", "a"), Morphism("ib", "b", "b"),
         Morphism("u", "a", "b"), Morphism("v", "b", "a")],
        {"a": "ia", "b": "ib"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib",
         ("u", "ia"): "u", ("ib", "u"): "u", ("v", "ib"): "v", ("ia", "v"): "v",
         ("v", "u"): "ia", ("u", "v"): "ib"},
    )
    N = nerve_category(C, 3)
    assert counts(N) == [2, 2, 2, 2]
    assert is_quasicategory_upto(N, 3).ok
    assert C.is_iso("u") and C.is_iso("v")
    assert (C.inverse("u"), C.inverse("v")) == ("v", "u")


def test_opposite_involution():
    X = nerve_category(
        FinCategory.from_poset(Poset.from_leq([0, 1, 2], lambda a, b: a <= b)), 3)
    Y = opposite_sset(opposite_sset(X))
    assert Y.cells == X.cells and Y.faces == X.faces


def test_category_dual_is_shared_and_freed_with_its_category():
    C = FinCategory.from_poset(Poset.from_leq([0, 1], lambda a, b: a <= b))
    D = C.opposite()
    assert D is C.opposite() and D.opposite() is C
    assert (D.hom(1, 0), D.hom(0, 1)) == (("0<=1",), ())
    gc.disable()
    try:  # no reference cycle: both go as soon as their users do
        dual = weakref.ref(D)
        del D
        assert dual() is C.opposite()
        del C
        assert dual() is None
    finally:
        gc.enable()
    D = FinCategory.from_poset(Poset.from_leq([0, 1], lambda a, b: a <= b)
                               ).opposite()
    E = D.opposite()  # its category is gone: built again
    assert E.hom(0, 1) == ("0<=1",) and E.opposite() is D


def test_io_roundtrip():
    X = product(standard_simplex(1), standard_simplex(1), 2)
    d = io.sset_to_dict(X)
    Y = io.sset_from_dict(d)
    assert counts(Y) == counts(X)
    assert io.sset_to_dict(Y) == d
    bad = dict(d)
    bad["faces"] = dict(d["faces"])
    first = next(iter(bad["faces"]))
    bad["faces"][first] = [[[], "nope"]] * len(bad["faces"][first])
    with pytest.raises(io.FormatError):
        io.sset_from_dict(bad)
    # an identity that names no morphism is reported as such, even when
    # the file lists no morphisms at all
    with pytest.raises(io.FormatError,
                       match="identity 'x' of 'a' is not a listed morphism"):
        io.cat_from_dict({"objects": ["a"], "morphisms": [],
                          "identities": {"a": "x"}, "comp": []})


def test_dim_bound_refusal():
    D1 = standard_simplex(1)
    with pytest.raises(ValueError):
        enumerate_maps(standard_simplex(2), D1)
    with pytest.raises(ValueError):
        is_quasicategory_upto(D1, 2)
