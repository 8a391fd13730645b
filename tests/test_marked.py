import pytest

from fraction_forge.localize import ho_of_qcat
from fraction_forge.marked import (
    LevelMaps,
    MarkedCategory,
    MarkedSSet,
    cat_is_two_out_of_three,
    enumerate_marked_maps,
    is_weakly_closed,
    iso_marking,
    maximal_marking,
    nerve_marked,
    opposite_marked,
)
from fraction_forge.sset_core import (
    boundary,
    horn,
    nerve_category,
    standard_simplex,
)
from fraction_forge.sset_core.cat import FinCategory, Morphism, Poset
from fraction_forge.sset_core.sset import Simplex, SMap
from helpers import smap_is_marked
from reference_build import cylinder


def counts(X):
    return [len(cs) for cs in X.cells]


def chain_cat(n):
    return FinCategory.from_poset(Poset.from_leq(range(n + 1),
                                                 lambda a, b: a <= b))


def walking_iso():
    return FinCategory(
        ["a", "b"],
        [Morphism("ia", "a", "a"), Morphism("ib", "b", "b"),
         Morphism("u", "a", "b"), Morphism("v", "b", "a")],
        {"a": "ia", "b": "ib"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib",
         ("u", "ia"): "u", ("ib", "u"): "u", ("v", "ib"): "v", ("ia", "v"): "v",
         ("v", "u"): "ia", ("u", "v"): "ib"},
    )


def test_marking_validation():
    D1 = standard_simplex(1)
    mx = MarkedSSet(D1, {(0, 1)})
    assert mx.is_marked(Simplex((0, 1), (0, 1)))
    assert mx.is_marked(Simplex((0, 0), (0,)))  # degenerate
    with pytest.raises(ValueError):
        MarkedSSet(D1, {(0,)})  # a vertex is not an edge
    with pytest.raises(ValueError):
        mx.is_marked(Simplex((0,), (0,)))


def test_markings_reject_bad_entries_and_share_no_default():
    D1 = standard_simplex(1)
    with pytest.raises(ValueError, match=r"^marked entry \(0,\) is not a 1-cell$"):
        MarkedSSet(D1, [(0,)])
    C = chain_cat(1)
    with pytest.raises(ValueError,
                       match="^marked entry 'ghost' is not a morphism$"):
        MarkedCategory(C, ["ghost"])
    assert MarkedSSet(D1, [(0, 1)]).marked == {(0, 1)}
    mx, other = MarkedSSet(D1), MarkedSSet(D1)
    mx.marked.add((0, 1))
    assert other.marked == set()
    mc, other = MarkedCategory(C), MarkedCategory(C)
    mc.marked.add("0<=1")
    assert other.marked == set()
    lm, other = LevelMaps(mx, 1), LevelMaps(mx, 1)
    for name in ("levels", "maps", "face_tbl", "degen_tbl"):
        getattr(lm, name)[0] = []
        assert getattr(other, name) == {}
    assert other.side is None


def test_min_max_markings():
    X = boundary(2)
    assert MarkedSSet(X).marked == set()
    assert maximal_marking(X).marked == set(X.cells[1])


def test_nerve_marked_skips_identities():
    C = chain_cat(1)
    names = set(C.morphism_names())
    mc = MarkedCategory(C, names)
    mN = nerve_marked(mc, 2)
    # identity marks are implicit (their edges are degenerate)
    assert all(not C.is_identity(f) for (_, f) in mN.marked)
    assert len(mN.marked) == 1


def test_iso_and_natural_marking_agree_on_nerves():
    C = walking_iso()
    mc = iso_marking(C)
    assert mc.marked == {"ia", "ib", "u", "v"}
    # the natural marking: the edges invertible in the homotopy category
    N = nerve_category(C, 3)
    ho, cls = ho_of_qcat(N)
    assert {c for c in N.cells[1] if ho.is_iso(cls(Simplex((0, 1), c)))} \
        == {("c", "u"), ("c", "v")}
    # non-quasicategory input is refused
    with pytest.raises(ValueError):
        ho_of_qcat(horn(2, 1, bound=2))


def test_closure_properties():
    C = chain_cat(2)
    all_marked = MarkedCategory(C, set(C.morphism_names()))
    mN = nerve_marked(all_marked, 3)
    assert is_weakly_closed(mN)
    assert cat_is_two_out_of_three(all_marked)
    # mark 0 -> 1 and the composite 0 -> 2 but not 1 -> 2: fails
    lop = MarkedCategory(C, {"0<=1", "0<=2"})
    res = cat_is_two_out_of_three(lop)
    assert not res.ok


def test_weakly_closed_failure_witness():
    # composable marked pair whose composite triangle is unmarked
    C = chain_cat(2)
    short = [f for f in C.morphism_names()
             if not C.is_identity(f) and not ("0" in f and "2" in f)]
    mc = MarkedCategory(C, set(short))
    res = is_weakly_closed(nerve_marked(mc, 3))
    assert not res.ok and {"first", "second"} <= set(res.witness)


def test_enumerate_marked_maps_filters():
    C = chain_cat(1)
    f = next(x for x in C.morphism_names() if not C.is_identity(x))
    marked = nerve_marked(MarkedCategory(C, {f}), 2)
    unmarked = nerve_marked(MarkedCategory(C, set()), 2)
    D1 = standard_simplex(1, bound=2)
    src = MarkedSSet(D1, {(0, 1)})
    hit = enumerate_marked_maps(src, marked)
    miss = enumerate_marked_maps(src, unmarked)
    # the strict edge map is allowed only when the target edge is marked
    assert len(hit) == len(miss) + 1
    for g in miss:
        assert smap_is_marked(g, src, unmarked)


def test_cylinder_and_homotopy():
    C = chain_cat(1)
    f = next(x for x in C.morphism_names() if not C.is_identity(x))
    mN = nerve_marked(MarkedCategory(C, {f}), 2)
    cyl, i0, i1 = cylinder(mN)
    # vertical edges are marked, horizontal marked edges stay marked
    vertical = [c for c in cyl.base.cells[1] if len(set(c[1])) == 1]
    assert vertical and all(c in cyl.marked for c in vertical)
    # the projection X x D1 -> X is a marked homotopy from id to id
    p1 = SMap(cyl.base, mN.base, {c: Simplex(c[1], c[2])
                                  for cs in cyl.base.cells for c in cs})
    p1.validate()
    assert smap_is_marked(p1, cyl, mN)


def test_opposite_marked_involution():
    C = chain_cat(2)
    mc = MarkedCategory(C, set(C.morphism_names()))
    mN = nerve_marked(mc, 2)
    back = opposite_marked(opposite_marked(mN))
    assert back.marked == mN.marked
    assert back.base.cells == mN.base.cells
