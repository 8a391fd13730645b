"""The face-indexed map search against the reference enumerator: the same
maps in the same order, for every option the deciders use."""

import pytest

import reference_enumerate as ref
from fraction_forge import cli
from fraction_forge.exfunctor import sd_plus
from fraction_forge.fractions import shape
from fraction_forge.marked import cylinder, minimal_marking, nerve_marked
from fraction_forge.sset_core import (
    enumerate_maps,
    horn,
    standard_simplex,
)
from fraction_forge.sset_core.sset import Simplex

CATS = ["chain2_marked_01", "span_w_marked", "walking_iso_u_marked",
        "parallel_pair_one_marked"]


def nerve(name):
    return nerve_marked(cli._load_marked_cat(
        cli.corpus_path() / "cats" / f"{name}.json"), 3)


def marking_ok(ma, mx):
    def edge_ok(cell, image):
        return cell not in ma.marked or mx.is_marked(image)
    return edge_ok


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
        same_maps(J.base, I.base, edge_ok=marking_ok(J, I))
    for name in ["chain1_marked"] if n == 3 else CATS:
        mx = nerve(name)
        jmaps = ref.enumerate_maps(J.base, mx.base, edge_ok=marking_ok(J, mx))
        same_maps(J.base, mx.base, edge_ok=marking_ok(J, mx))
        for f in jmaps[::max(1, len(jmaps) // 5)]:
            same_maps(I.base, mx.base, partial=dict(f.assignment),
                      edge_ok=marking_ok(I, mx))


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
        same_maps(S.base, mx.base, edge_ok=marking_ok(S, mx))


def test_cylinder_tower():
    # the shapes Δᵐ×(Δ¹)♯ of the slices, with the slice's partial maps
    mx = nerve("span_w_marked")
    x = mx.base.cells[0][0]
    for m in range(3):
        P, _, _ = cylinder(minimal_marking(standard_simplex(m, bound=m + 1)))
        partial = {cell: Simplex(tuple([0] * (d + 1)), x)
                   for d, cs in enumerate(P.base.cells) for cell in cs
                   if cell[4] == (0,)}
        same_maps(P.base, mx.base)
        same_maps(P.base, mx.base, partial=partial)
        same_maps(P.base, mx.base, partial=partial,
                  edge_ok=marking_ok(P, mx))


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

