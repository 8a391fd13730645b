"""The face-indexed map search against the reference enumerator: the same
maps in the same order, for every option the deciders use.  The lifting
checks built on ``first_unliftable`` against their nested loops, and the
placement order against its fixed-point loop."""

import random

import pytest
from hypothesis import example, given, settings

import reference_enumerate as ref
from fraction_forge import cli
from fraction_forge.exfunctor import sd_plus
from fraction_forge.fractions import L_SHAPES, R_SHAPES, has_rlp, shape
from fraction_forge.localize import _cylinder
from fraction_forge.marked import (
    MarkedSSet,
    enumerate_marked_maps,
    marking_filter,
    nerve_marked,
    subset_nerve,
)
from fraction_forge.sset_core import (
    boundary,
    enumerate_maps,
    horn,
    is_quasicategory_upto,
    standard_simplex,
)
from fraction_forge.sset_core.enumerate import _placement_order
from fraction_forge.sset_core.sset import Simplex
from helpers import find_isomorphism
from reference_build import cylinder
from test_fraction_properties import (
    NERVE_CATS,
    PROPERNESS_FAILS,
    SETTINGS,
    marked_categories,
)

CATS = ["chain2_marked_01", "span_w_marked", "walking_iso_u_marked",
        "parallel_pair_one_marked"]
CORPUS_CATS = sorted(p.stem for p in (cli.corpus_path() / "cats").glob("*.json"))
# every fraction shape (n, k, side) with n <= 3
SHAPES = [(n, k, side) for side in "LR" for n in range(1, 4)
          for k in range(n + 1)]


def nerve(name):
    return nerve_marked(cli._load_marked_cat(
        cli.corpus_path() / "cats" / f"{name}.json"), 3)


def same_maps(A, X, partial=None, edge_ok=None):
    """Assert both engines agree; return the number of maps."""
    want = ref.enumerate_maps(A, X, partial=partial, edge_ok=edge_ok)
    got = enumerate_maps(A, X, partial=partial, edge_ok=edge_ok)
    assert [f.serialize() for f in got] == [f.serialize() for f in want]
    assert [f.assignment for f in got] == [f.assignment for f in want]
    first = enumerate_maps(A, X, partial=partial, edge_ok=edge_ok, limit=1)
    assert [f.serialize() for f in first] == [f.serialize() for f in want[:1]]
    return len(want)


@pytest.mark.parametrize("n,k,side", [(2, 1, "L"), (2, 2, "L"), (2, 0, "R"),
                                      (3, 1, "L")])
def test_fraction_shapes(n, k, side):
    J = shape(n, k, side, "J")
    I = shape(n, k, side, "I")
    if n == 2:  # J^3 -> I^3 has 6859 maps, 90 s for the reference
        assert same_maps(J.base, I.base) > 0
        same_maps(J.base, I.base, edge_ok=marking_filter(J, I))
    for name in ["chain1_marked"] if n == 3 else CATS:
        mx = nerve(name)
        jmaps = ref.enumerate_maps(J.base, mx.base, edge_ok=marking_filter(J, mx))
        same_maps(J.base, mx.base, edge_ok=marking_filter(J, mx))
        for f in jmaps[::max(1, len(jmaps) // 5)]:
            same_maps(I.base, mx.base, partial=dict(f.assignment),
                      edge_ok=marking_filter(I, mx))


@pytest.mark.parametrize("n", [2, 3])
def test_horns_into_simplices_and_nerves(n):
    D = standard_simplex(n, bound=3)
    for k in range(n + 1):
        H = horn(n, k, bound=3)
        for X in (D, nerve("walking_iso_u_marked").base):
            hmaps = ref.enumerate_maps(H, X)
            assert same_maps(H, X) == len(hmaps) > 0
            for f in hmaps[::max(1, len(hmaps) // 4)]:
                same_maps(D, X, partial=dict(f.assignment))


@pytest.mark.parametrize("d", [0, 1, 2])
def test_sd_plus_into_nerves(d):
    S = sd_plus(d)
    for name in CATS:
        mx = nerve(name)
        assert same_maps(S.base, mx.base) > 0
        same_maps(S.base, mx.base, edge_ok=marking_filter(S, mx))


def test_cylinder_tower():
    # the shapes Δᵐ×(Δ¹)♯ of the slices, with the slice's partial maps:
    # the poset nerve of [m]×[1] against the EZ product of the reference
    mx = nerve("span_w_marked")
    x = mx.base.cells[0][0]
    for m in range(3):
        P = _cylinder(m)
        Q, _, _ = cylinder(MarkedSSet(standard_simplex(m, bound=m + 1)))
        iso = find_isomorphism(Q.base, P.base, edge_ok=marking_filter(Q, P))
        assert iso is not None and len(Q.marked) == len(P.marked)
        partial = {cell: Simplex((0,) * len(cell), x)
                   for cs in P.base.cells for cell in cs
                   if all(e == 0 for _, e in cell)}
        ref_partial = {cell: Simplex((0,) * (d + 1), x)
                       for d, cs in enumerate(Q.base.cells) for cell in cs
                       if cell[4] == (0,)}
        assert {iso.on_cell(c).cell for c in ref_partial} == set(partial)
        for part, ref_part in ((None, None), (partial, ref_partial)):
            assert len(enumerate_marked_maps(P, mx, partial=part)) \
                == len(enumerate_marked_maps(Q, mx, partial=ref_part)) > 0
        same_maps(P.base, mx.base)
        same_maps(P.base, mx.base, partial=partial)
        same_maps(P.base, mx.base, partial=partial,
                  edge_ok=marking_filter(P, mx))


def test_partial_with_incompatible_faces_is_rejected():
    D1 = standard_simplex(1)
    bad = {(0,): Simplex((0,), (1,)), (1,): Simplex((0,), (1,)),
           (0, 1): Simplex((0, 1), (0, 1))}
    assert same_maps(D1, D1, partial=bad) == 0


def test_same_error_above_dim_bound():
    D1 = standard_simplex(1)
    with pytest.raises(ValueError) as want:
        ref.enumerate_maps(standard_simplex(2), D1)
    with pytest.raises(ValueError) as got:
        enumerate_maps(standard_simplex(2), D1)
    assert str(got.value) == str(want.value)


# -- the lifting seam ----------------------------------------------------

def cells(X):
    return {c: None for cs in X.cells for c in cs}


def same_order(A, preassigned=()):
    pre = dict.fromkeys(preassigned)
    assert _placement_order(A, pre) == ref._placement_order(A, pre)


def face_closed_subcomplexes(X, count, seed):
    """``count`` random face-closed sets of cells of ``X``."""
    rng = random.Random(seed)
    every = list(cells(X))
    for _ in range(count):
        p = rng.random()
        picked = {c for c in every if rng.random() < p}
        todo = list(picked)
        while todo:
            for f in X.faces.get(todo.pop(), ()):
                if f.cell not in picked:
                    picked.add(f.cell)
                    todo.append(f.cell)
        yield picked


def test_placement_order_is_the_fixed_point_loops():
    for n, k, side in SHAPES:
        I, J = shape(n, k, side, "I").base, shape(n, k, side, "J").base
        same_order(I)
        same_order(J)
        same_order(I, cells(J))
    for n in (2, 3):
        for k in range(1, n):
            H = horn(n, k)
            same_order(H)
            same_order(standard_simplex(n), cells(H))
    for n in (1, 2, 3):
        N = subset_nerve(n).base
        for picked in face_closed_subcomplexes(N, 200, n):
            same_order(N, picked)
    for m in range(3):
        P = _cylinder(m).base
        same_order(P)
        same_order(P, [c for c in cells(P) if all(e == 0 for _, e in c)])
    for name in CORPUS_CATS:
        same_order(nerve(name).base)


def test_j_marking_is_i_marking_restricted_to_j():
    # so has_rlp may filter the J-maps with I's marking
    for n, k, side in SHAPES:
        I, J = shape(n, k, side, "I"), shape(n, k, side, "J")
        assert set(cells(J.base)) <= set(cells(I.base))
        assert J.marked == {c for c in I.marked if J.base.has_cell(c)}


def same_lifting(mx):
    for side, shapes in (("L", L_SHAPES), ("R", R_SHAPES)):
        for n, k in shapes:
            assert has_rlp(mx, n, k, side) == ref.has_rlp(mx, n, k, side), \
                (n, k, side)


@pytest.mark.parametrize("name", CORPUS_CATS)
def test_has_rlp_is_the_nested_loops_on_corpus_nerves(name):
    same_lifting(nerve(name))


@settings(max_examples=15, **SETTINGS)
@given(marked_categories(NERVE_CATS))
@example(PROPERNESS_FAILS)
def test_has_rlp_is_the_nested_loops_on_generated_nerves(mc):
    same_lifting(nerve_marked(mc, 3))


def test_is_quasicategory_upto_is_the_nested_loops():
    for name in CORPUS_CATS:
        X = nerve(name).base
        assert is_quasicategory_upto(X, 3) == ref.is_quasicategory_upto(X, 3)
    # ∂Δ² fails at the 2-horn, ∂Δ³ at a 3-horn
    for X, n in ((boundary(2), 2), (boundary(3), 3), (horn(2, 1, bound=3), 2)):
        got = is_quasicategory_upto(X, X.dim_bound)
        assert got == ref.is_quasicategory_upto(X, X.dim_bound)
        assert not got.ok and got.witness["n"] == n
