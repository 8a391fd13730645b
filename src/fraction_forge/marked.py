"""Marked simplicial sets and marked categories.

A marking is a set of non-degenerate 1-cells; degenerate edges are
implicitly marked.  Closure properties are decided exhaustively with
witnesses; marked maps are enumerated with a marking-preservation
filter.
"""

from itertools import combinations

from .sset_core.build import opposite_sset
from .sset_core.cat import Poset
from .sset_core.enumerate import Check, enumerate_maps
from .sset_core.nerves import nerve_category, nerve_poset
from .sset_core.sset import Simplex, compose_smap


class MarkedSSet:
    def __init__(self, base, marked=()):
        for c in marked:
            if not base.has_cell(c) or base.dim_of(c) != 1:
                raise ValueError(f"marked entry {c!r} is not a 1-cell")
        self.base = base
        self.marked = set(marked)

    def is_marked(self, simplex):
        """Marked-or-degenerate test for a 1-simplex in normal form."""
        if simplex.dim != 1:
            raise ValueError("markedness is a property of 1-simplices")
        return not simplex.nondegenerate or simplex.cell in self.marked

    def marked_simplices_1(self):
        """All marked 1-simplices: degenerate edges plus marked cells."""
        out = [Simplex((0, 0), v) for v in self.base.cells[0]]
        out.extend(Simplex((0, 1), c) for c in self.base.cells[1]
                   if c in self.marked)
        return out


class MarkedCategory:
    def __init__(self, cat, marked=()):
        for f in marked:
            if f not in cat.morphisms:
                raise ValueError(f"marked entry {f!r} is not a morphism")
        self.cat = cat
        self.marked = set(marked)

    def opposite(self):
        return MarkedCategory(self.cat.opposite(), set(self.marked))


def effective_marking(mc):
    """The ids of the marked morphisms, identities included."""
    C = mc.cat
    return set(map(C.morphisms.__getitem__, mc.marked)).union(C.idents.values())


def nerve_marked(mc, bound=3):
    """Marked nerve of a marked category (identity marks are implicit)."""
    N = nerve_category(mc.cat, bound)
    W = {("c", f) for f in mc.marked if not mc.cat.is_identity(f)}
    return MarkedSSet(N, W)


def maximal_marking(X):
    return MarkedSSet(X, set(X.cells[1]))


def iso_marking(cat):
    """Mark a category at its isomorphisms."""
    return MarkedCategory(cat, {f for f in cat.morphism_names() if cat.is_iso(f)})


# -- subset-poset nerves ------------------------------------------------

_SUBSET_NERVES = {}


def subset_nerve(n, side="L", containing=None, omit=()):
    """Marked nerve of the non-empty subsets of [n], cached.

    Keeps the subsets containing ``containing`` (all if None) and drops
    those in ``omit``; they are listed by size, then in ``combinations``
    order.  Side "L" orders them by inclusion and marks the edges whose
    ends share their max; side "R" by reverse inclusion, marking shared
    mins.  Fraction shapes, the subdivisions sd₊Δⁿ and Kⁿ_k are all of
    this form.
    """
    omit = frozenset(omit)
    key = (n, side, containing, omit)
    if key not in _SUBSET_NERVES:
        elems = [A for r in range(1, n + 2)
                 for A in map(frozenset, combinations(range(n + 1), r))
                 if (containing is None or containing in A) and A not in omit]
        if side == "L":
            poset, rule = Poset.from_leq(elems, lambda a, b: a <= b), max
        else:
            poset, rule = Poset.from_leq(elems, lambda a, b: b <= a), min
        N = nerve_poset(poset, n)
        marked = {c for cs in N.cells[1:2] for c in cs
                  if rule(c[0]) == rule(c[1])}
        _SUBSET_NERVES[key] = MarkedSSet(N, marked)
    return _SUBSET_NERVES[key]


# -- closure properties --------------------------------------------------

def _composable_marked_pairs(mx):
    X = mx.base
    ones = mx.marked_simplices_1()
    ends = {s: (X.simplex_face(s, 1), X.simplex_face(s, 0)) for s in ones}
    for f in ones:
        for g in ones:
            if ends[f][1] == ends[g][0]:
                yield f, g


def is_weakly_closed(mx):
    """Every fully-marked inner 2-horn extends to a fully-marked triangle."""
    X = mx.base
    two = X.simplices(2)
    for f, g in _composable_marked_pairs(mx):
        good = False
        for u in two:
            if (X.simplex_face(u, 2) == f and X.simplex_face(u, 0) == g
                    and mx.is_marked(X.simplex_face(u, 1))):
                good = True
                break
        if not good:
            return Check(False, {"first": f, "second": g})
    return Check(True)


def cat_is_two_out_of_three(mc):
    """2-out-of-3 for a marked category (identities counted marked)."""
    C, marked = mc.cat, effective_marking(mc)
    for g, f, h in C.composites():
        if (f in marked) + (g in marked) + (h in marked) == 2:
            return Check(False, {"f": C.names[f], "g": C.names[g], "gf": C.names[h]})
    return Check(True)


# -- marked maps ---------------------------------------------------------

def marking_filter(ma, mx):
    """``edge_ok`` of the maps ``ma -> mx``: marked edges go to marked."""
    return lambda cell, image: cell not in ma.marked or mx.is_marked(image)


def enumerate_marked_maps(ma, mx, partial=None):
    """All marking-preserving simplicial maps between marked SSets."""
    return enumerate_maps(ma.base, mx.base, partial=partial,
                          edge_ok=marking_filter(ma, mx))


class LevelMaps:
    """Marked maps out of a cosimplicial marked shape, level by level.

    ``levels[d]`` lists the serials of the marked maps out of the d-th
    shape and ``maps`` takes a serial to its map; face and degeneracy
    act by precomposition with the cosimplicial structure maps.
    ``side`` names the Ex functor ("L" or "R") whose levels these are,
    if any.
    """

    def __init__(self, input, bound, levels=None, maps=None, face_tbl=None,
                 degen_tbl=None, side=None):
        self.input = input
        self.bound = bound
        self.levels = {} if levels is None else levels
        self.maps = {} if maps is None else maps
        self.face_tbl = {} if face_tbl is None else face_tbl
        self.degen_tbl = {} if degen_tbl is None else degen_tbl
        self.side = side

    def face(self, d, serial, i):
        return self.face_tbl[(d, i)][serial]

    def degen(self, d, serial, i):
        return self.degen_tbl[(d, i)][serial]


def level_maps(mx, shapes, coface, codegeneracy, partial=None):
    """The levelwise mapping space of marked maps ``shapes[d] -> mx``.

    ``coface(d, i)`` is the structure map ``shapes[d-1] -> shapes[d]``
    of face i and ``codegeneracy(d, i)`` the map ``shapes[d+1] ->
    shapes[d]`` of degeneracy i; ``partial[d]``, if given, preassigns
    images on ``shapes[d]``.  Levels keep the enumeration order.
    """
    lm = LevelMaps(mx, len(shapes) - 1)
    for d, shape in enumerate(shapes):
        fs = enumerate_marked_maps(shape, mx,
                                   partial=partial[d] if partial else None)
        lm.levels[d] = [f.serialize() for f in fs]
        lm.maps.update(zip(lm.levels[d], fs))

    def table(d, structural, what):
        tbl = {}
        for s in lm.levels[d]:
            tbl[s] = compose_smap(lm.maps[s], structural).serialize()
            if tbl[s] not in lm.maps:
                raise AssertionError(f"{what} of a level element missing")
        return tbl

    for d in range(1, lm.bound + 1):
        for i in range(d + 1):
            lm.face_tbl[(d, i)] = table(d, coface(d, i), "face")
    for d in range(lm.bound):
        for i in range(d + 1):
            lm.degen_tbl[(d, i)] = table(d, codegeneracy(d, i), "degeneracy")
    return lm


def opposite_marked(mx):
    return MarkedSSet(opposite_sset(mx.base), set(mx.marked))
