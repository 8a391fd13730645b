from itertools import combinations

import pytest

import reference_fractions as ref
from fraction_forge.fractions import (
    L_SHAPES,
    _marked_retract,
    build_sihd_jk,
    build_sihd_prodjoin,
    check_clf_classical,
    check_clf_infty,
    check_crf_classical,
    check_crf_infty,
    check_proper_clf,
    has_rlp,
    retract_check,
    shape,
    validate_sihd,
)
from fraction_forge.marked import MarkedCategory, nerve_marked, opposite_marked
from fraction_forge.sset_core.build import opposite_sset
from fraction_forge.sset_core.cat import FinCategory, Morphism, Poset
from fraction_forge.sset_core.sset import SMap, Simplex


def fs(*xs):
    return frozenset(xs)


def counts(X):
    return [len(cs) for cs in X.cells]


# -- shapes --------------------------------------------------------------

def test_shape_2_1_left():
    J = shape(2, 1, "L", "J")
    I = shape(2, 1, "L", "I")
    # J: subsets of {0,1,2} containing 1, except {0,1,2}: {1},{0,1},{1,2}
    assert counts(J.base)[:2] == [3, 2]
    # only {1} <= {0,1} is max-equal
    assert J.marked == {(fs(1), fs(0, 1))}
    assert counts(I.base)[:2] == [4, 5]
    assert I.marked == {(fs(1), fs(0, 1)), (fs(1, 2), fs(0, 1, 2))}


def test_shape_2_2_left_fully_marked():
    I = shape(2, 2, "L", "I")
    # every subset containing 2 has max 2, so all edges are marked
    assert set(I.base.cells[1]) == I.marked
    assert counts(I.base)[:2] == [4, 5]


def test_shape_flip():
    # (L-I^2_1)^op is isomorphic to R-I^2_1 by i -> 2 - i: chains
    # reversed, subsets flipped
    n, k = 2, 1
    Lop = opposite_sset(shape(n, k, "L", "I").base)
    R = shape(n, n - k, "R", "I")
    f = SMap(Lop, R.base, {
        chain: Simplex(tuple(range(d + 1)),
                       tuple(frozenset(n - i for i in A)
                             for A in reversed(chain)))
        for d, cs in enumerate(Lop.cells) for chain in cs})
    f.validate()
    R = shape(1, 0, "R", "I")
    assert counts(R.base)[:2] == [2, 1]
    # R marking uses the min-equal rule, not the flipped max-equal rule
    R21 = shape(2, 1, "R", "I")
    assert (fs(1, 2), fs(1)) in set(R21.base.cells[1]) or \
           (fs(1), fs(1, 2)) in set(R21.base.cells[1])


def test_shape_guards():
    with pytest.raises(ValueError):
        shape(4, 1)
    with pytest.raises(ValueError):
        shape(2, 3)
    with pytest.raises(ValueError):
        shape(2, 1, side="Q")


# -- classical calculus of fractions ------------------------------------

def poset_cat(elems, leq):
    return FinCategory.from_poset(Poset.from_leq(elems, leq))


def span_cat():
    # b <- a -> c, no completion
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
    return C


def test_clf_classical_poset_all_marked():
    C = poset_cat([0, 1, 2], lambda a, b: a <= b)
    mc = MarkedCategory(C, set(C.morphism_names()))
    assert check_clf_classical(mc)
    assert check_proper_clf(mc)
    assert check_crf_classical(mc)


def test_clf_fails_on_uncompletable_span():
    C = span_cat()
    mc = MarkedCategory(C, {"w"})
    res = check_clf_classical(mc)
    assert not res.ok and res.witness["condition"] == 2
    # the opposite span is a cospan, which needs no completion
    assert check_crf_classical(mc)


def test_clf_condition_three():
    # d -u-> a => b with fu = gu, u marked, but nothing out of b
    # coequalizes f and g
    C = FinCategory(
        ["d", "a", "b"],
        [Morphism("id_", "d", "d"), Morphism("ia", "a", "a"),
         Morphism("ib", "b", "b"),
         Morphism("u", "d", "a"),
         Morphism("f", "a", "b"), Morphism("g", "a", "b"),
         Morphism("h", "d", "b")],
        {"d": "id_", "a": "ia", "b": "ib"},
        {("id_", "id_"): "id_", ("ia", "ia"): "ia", ("ib", "ib"): "ib",
         ("u", "id_"): "u", ("ia", "u"): "u",
         ("f", "ia"): "f", ("ib", "f"): "f",
         ("g", "ia"): "g", ("ib", "g"): "g",
         ("h", "id_"): "h", ("ib", "h"): "h",
         ("f", "u"): "h", ("g", "u"): "h"},
    )
    mc = MarkedCategory(C, {"u"})
    res = check_clf_classical(mc)
    assert not res.ok and res.witness["condition"] == 3


# -- infinity-categorical calculus --------------------------------------

def test_rlp_marked_chain():
    C = poset_cat([0, 1, 2], lambda a, b: a <= b)
    mc = MarkedCategory(C, set(C.morphism_names()))
    mx = nerve_marked(mc, 3)
    for (n, k) in L_SHAPES:
        assert has_rlp(mx, n, k, "L"), (n, k)


def test_clf_infty_matches_classical_on_nerves():
    C = span_cat()
    bad = MarkedCategory(C, {"w"})
    good = poset_cat([0, 1, 2], lambda a, b: a <= b)
    good_mc = MarkedCategory(good, set(good.morphism_names()))
    assert check_clf_infty(nerve_marked(good_mc, 3), is_nerve=True)
    res = check_clf_infty(nerve_marked(bad, 3), is_nerve=True)
    assert not res.ok
    # duality: the opposite nerve satisfies the right-fraction version
    assert check_crf_infty(opposite_marked(nerve_marked(good_mc, 3)))


def test_clf_infty_partial_label():
    C = poset_cat([0, 1], lambda a, b: a <= b)
    mc = MarkedCategory(C, set(C.morphism_names()))
    res = check_clf_infty(nerve_marked(mc, 3), is_nerve=False)
    assert res.ok and res.witness["partial"] is True
    res2 = check_clf_infty(nerve_marked(mc, 3), is_nerve=True)
    assert res2.ok and res2.witness["partial"] is False


# -- simple inner horn decompositions -----------------------------------

@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1), (3, 2),
                                 (4, 1), (4, 2), (4, 3), (4, 4)])
def test_sihd_jk(n, k):
    ambient, image, decomposition = build_sihd_jk(n, k)
    res = validate_sihd(ambient, image, decomposition)
    assert res.ok, res.witness


def test_sihd_rejects_mangled_partition():
    ambient, image, decomposition = build_sihd_jk(2, 1)
    # move an A-cell into the wrong dimension's class
    bad = {n: {"A": [list(c) for c in d["A"]],
               "B": [list(c) for c in d["B"]],
               "d": list(d["d"])}
           for n, d in decomposition.items()}
    moved = None
    for n in sorted(bad):
        for cls in bad[n]["A"]:
            if cls:
                moved = cls.pop()
                break
        if moved is not None:
            break
    assert moved is not None
    res = validate_sihd(ambient, image, bad)
    assert not res.ok


def shape_poset(n, k):
    """The L-J^n_k poset with its max-equal marking."""
    sub = [A for A in
           [frozenset(c) for r in range(1, n + 2)
            for c in combinations(range(n + 1), r)]
           if k in A and A != frozenset(range(n + 1))]
    P = Poset.from_leq(sub, lambda a, b: a <= b)
    W = {(a, b) for a in sub for b in sub
         if a < b and max(a) == max(b)}
    return P, W


@pytest.mark.parametrize("shape_key", [(2, 1), (2, 2)])
def test_sihd_prodjoin_from_shape(shape_key):
    n, k = shape_key
    # P = the L-J^n_k poset with its max-equal marking, Q = all of P
    P, W = shape_poset(n, k)
    sub = P.elements
    for Q in (set(sub), {A for A in sub if n in A}):
        ambient, image, decomposition = build_sihd_prodjoin((P, W), Q)
        res = validate_sihd(ambient, image, decomposition)
        assert res.ok, res.witness


def test_sihd_prodjoin_point():
    P = Poset.from_leq(["x"], lambda a, b: True)
    ambient, image, decomposition = build_sihd_prodjoin((P, set()), {"x"})
    res = validate_sihd(ambient, image, decomposition)
    assert res.ok, res.witness


def same_decomposition(got, want):
    """Equal marking, image and classes; the nerves agree on their
    cells up to the lower truncation."""
    (amb, image, dec), (want_amb, want_image, want_dec) = got, want
    top = min(len(amb.base.cells), len(want_amb.base.cells))
    assert amb.base.cells[:top] == want_amb.base.cells[:top]
    assert (amb.marked, image, dec) == (want_amb.marked, want_image, want_dec)


def test_sihd_builders_match_the_reference():
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]:
        same_decomposition(build_sihd_jk(n, k), ref.build_sihd_jk(n, k))
    inputs = [((Poset.from_leq(["x"], lambda a, b: True), set()), {"x"})]
    for n, k in [(2, 1), (2, 2), (3, 1)]:
        P, W = shape_poset(n, k)
        inputs += [((P, W), Q) for Q in (set(P.elements), {P.elements[0]},
                                          set())]
    assert len(inputs) == 10
    for P_marked, Q in inputs:
        same_decomposition(build_sihd_prodjoin(P_marked, Q),
                           ref.build_sihd_prodjoin(P_marked, Q))


# -- retractions ---------------------------------------------------------

@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1)])
def test_retract_j_in_sd_horn(n, k):
    assert retract_check("J-in-SdHorn", n, k)


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 1)])
def test_retract_k_in_sd(n, k):
    assert retract_check("Knk-in-Sd", n, k)


@pytest.mark.parametrize("n", [1, 2])
def test_retract_k_eq_n(n):
    assert retract_check("k-eq-n-redundant", n, n)


def test_marked_retract_fails_on_bad_maps():
    low, high = shape(2, 2, "L", "I"), shape(3, 2, "L", "I")
    # a retraction that forgets the shape: constant at {2}
    res = _marked_retract(low, high, lambda A: A | {3}, lambda A: fs(2))
    assert (res.ok, res.witness) == (False, {"section": (fs(0, 2),)})
    # a section that breaks the max rule: {2} <= {0,2} shares its max,
    # {2} <= {0,2,3} does not
    res = _marked_retract(low, high, lambda A: A | {3} if 0 in A else A,
                          lambda A: frozenset(min(x, 2) for x in A))
    assert not res.ok and res.witness["map"] == "section"
    assert res.witness["edge"] == (fs(2), fs(0, 2))


def test_retract_guards():
    with pytest.raises(ValueError):
        retract_check("Knk-in-Sd", 2, 2)  # needs k < n
    with pytest.raises(ValueError):
        retract_check("nonsense", 2, 1)
