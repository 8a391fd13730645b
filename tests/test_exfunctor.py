import pytest

from fraction_forge import exfunctor
from fraction_forge.exfunctor import (
    Sd_plus,
    compare_with_kan_ex,
    ex_op,
    ex_op_direct_check,
    ex_plus,
    ex_to_sset,
    max_star,
    sd_map,
    sd_op,
    sd_plus,
)
from fraction_forge.marked import (
    MarkedCategory,
    maximal_marking,
    nerve_marked,
)
from fraction_forge.sset_core import (
    boundary,
    horn,
    is_quasicategory_upto,
    standard_simplex,
)
from fraction_forge.sset_core.cat import FinCategory, Morphism, Poset
from helpers import find_isomorphism, map_to_nerve, smap_is_marked
from reference_build import cylinder


def fs(*xs):
    return frozenset(xs)


def counts(X):
    return [len(cs) for cs in X.cells]


# -- subdivision shapes --------------------------------------------------

def test_sd_plus_small():
    assert counts(sd_plus(0).base) == [1]
    S1 = sd_plus(1)
    assert counts(S1.base)[:2] == [3, 2]
    assert S1.marked == {(fs(1), fs(0, 1))}
    S2 = sd_plus(2)
    assert len(S2.base.cells[0]) == 7
    # max-equal rule: {1}<{01}, {2}<{02}, {2}<{12}, {2}<{012},
    # {02}<{012}, {12}<{012}
    assert len(S2.marked) == 6
    assert S2.marked == {
        (fs(1), fs(0, 1)), (fs(2), fs(0, 2)), (fs(2), fs(1, 2)),
        (fs(2), fs(0, 1, 2)), (fs(0, 2), fs(0, 1, 2)),
        (fs(1, 2), fs(0, 1, 2))}


def test_sd_op_small():
    S2 = sd_op(2)
    assert len(S2.base.cells[0]) == 7
    # min-equal: {0}>{01}, {0}>{02}, {0}>{012}, {1}>{12},
    # {01}>{012}, {02}>{012} -- as reversed-order chains
    assert len(S2.marked) == 6
    for a, b in S2.marked:
        assert min(a) == min(b) and b < a


def test_sd_guards_and_vertex_count():
    with pytest.raises(ValueError):
        sd_plus(4)
    for n in range(4):
        assert len(sd_plus(n).base.cells[0]) == 2 ** (n + 1) - 1


def test_sd_map_preserves_marking():
    f = sd_map((0, 2), 1, 2)
    f.validate()
    for c in sd_plus(1).marked:
        assert sd_plus(2).is_marked(f.on_cell(c))


# -- Sd of a simplicial set ----------------------------------------------

def test_sd_of_simplex_is_shape():
    for n in range(3):
        S = Sd_plus(standard_simplex(n))
        assert find_isomorphism(S.base, sd_plus(n).base) is not None
        assert len(S.marked) == len(sd_plus(n).marked)


def test_sd_of_boundary():
    S = Sd_plus(boundary(2))
    # chains of proper non-empty subsets of {0,1,2}
    assert counts(S.base) == [6, 6]
    assert len(S.marked) == 3


def test_sd_of_horn_omits_two_vertices():
    S = Sd_plus(horn(2, 1))
    assert len(S.base.cells[0]) == 5
    names = {A for (u, s) in S.base.cells[0] for A in s.cell}
    assert fs(0, 1, 2) not in names and fs(0, 2) not in names


# -- Ex levels -----------------------------------------------------------

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


def test_ex_levels_walking_marked_arrow():
    mN = nerve_marked(walking_marked_arrow(), 3)
    cache = ex_plus(mN, levels=2)
    assert len(cache.levels[0]) == 2
    # cospans x -> z <~ y: one over z=x, four over z=y
    assert len(cache.levels[1]) == 5


def test_ex_to_sset_quasicategory():
    chain = FinCategory.from_poset(
        Poset.from_leq([0, 1, 2], lambda a, b: a <= b))
    mc = MarkedCategory(chain, set(chain.morphism_names()))
    cache = ex_plus(nerve_marked(mc, 3), levels=2)
    EX, cell_of = ex_to_sset(cache)
    assert is_quasicategory_upto(EX, 2).ok


def test_ex_failure_case_unfillable():
    # a => b with only one of the parallel arrows marked: CLF fails and
    # the truncated Ex has an unfillable inner horn
    C = FinCategory(
        ["a", "b"],
        [Morphism("ia", "a", "a"), Morphism("ib", "b", "b"),
         Morphism("f", "a", "b"), Morphism("w", "a", "b")],
        {"a": "ia", "b": "ib"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib",
         ("f", "ia"): "f", ("ib", "f"): "f",
         ("w", "ia"): "w", ("ib", "w"): "w"},
    )
    mc = MarkedCategory(C, {"w"})
    from fraction_forge.fractions import check_clf_infty
    assert not check_clf_infty(nerve_marked(mc, 3), is_nerve=True).ok
    cache = ex_plus(nerve_marked(mc, 3), levels=2)
    EX, _ = ex_to_sset(cache)
    assert not is_quasicategory_upto(EX, 2).ok


def test_max_star_unit():
    mN = nerve_marked(walking_marked_arrow(), 3)
    cache = ex_plus(mN, levels=2)
    mstar = max_star(cache)
    # vertices map to the constant level-0 elements
    for v in mN.base.cells[0]:
        assert mstar[0][v][0][2] == v
    # an edge f maps to the cospan (f, id): the marked leg is degenerate
    s = mstar[1][("c", "w")]
    f = cache.maps[s]
    marked_leg = f.on_cell((fs(1), fs(0, 1)))
    assert not marked_leg.nondegenerate


def test_ex_op_matches_direct():
    mN = nerve_marked(walking_marked_arrow(), 3)
    assert ex_op_direct_check(mN)
    cache = ex_op(mN, levels=2)
    # spans x <~ z -> y: four over z=x, one over z=y
    assert len(cache.levels[1]) == 5


def test_compare_with_kan_ex():
    assert compare_with_kan_ex(standard_simplex(0, bound=2))
    assert compare_with_kan_ex(standard_simplex(1, bound=2))
    assert compare_with_kan_ex(boundary(2))
    X = standard_simplex(1, bound=2)
    kan_level1 = ex_plus(maximal_marking(X), levels=1)
    assert len(kan_level1.levels[1]) == 5


@pytest.mark.parametrize("d, i", [(0, 0), (1, 0), (1, 1)])
def test_compare_with_kan_ex_reads_every_degeneracy_table(monkeypatch, d, i):
    """A marked Ex with its levels and face tables intact and one
    degeneracy table rotated differs from the classical Ex there."""
    real = exfunctor.ex_plus

    def scrambled(mx, levels=2):
        cache = real(mx, levels=levels)
        tbl = cache.degen_tbl[(d, i)]
        images = list(tbl.values())
        assert len(set(images)) > 1
        cache.degen_tbl[(d, i)] = dict(zip(tbl, images[1:] + images[:1]))
        return cache

    monkeypatch.setattr(exfunctor, "ex_plus", scrambled)
    res = compare_with_kan_ex(standard_simplex(1, bound=2))
    assert not res.ok
    assert res.witness == {"level": d, "op": ("degeneracy", i)}


def test_max_homotopy_equivalence():
    # max: Sd of the n-simplex -> minimally marked n-simplex admits the
    # section i -> {0..i}; the containment homotopy exhibits the
    # composite as marked-homotopic to the identity
    for n in (1, 2):
        S = sd_plus(n)
        cyl, i0, i1 = cylinder(S)

        def vfn(pcell):
            _, _, c1, _, c2 = pcell
            A, eps = c1[0], c2[0]
            out = A if eps == 0 else frozenset(range(max(A) + 1))
            return (out,)

        H = map_to_nerve(cyl.base, S.base, vfn)
        assert smap_is_marked(H, cyl, S)
        # end 0 is the identity, end 1 the section-after-retraction
        from fraction_forge.sset_core.sset import compose_smap
        e0 = compose_smap(H, i0)
        assert all(e0.on_cell(c).cell == c and e0.on_cell(c).nondegenerate
                   for cs in S.base.cells for c in cs)
        e1 = compose_smap(H, i1)
        for (A,) in S.base.cells[0]:
            assert e1.on_cell((A,)).cell == (frozenset(range(max(A) + 1)),)
