"""Marked simplicial sets and marked categories.

A marking is a set of non-degenerate 1-cells; degenerate edges are
implicitly marked.  Closure properties are decided exhaustively with
witnesses; marked maps are enumerated with a marking-preservation
filter.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .sset_core.build import end_inclusion, opposite_sset, product
from .sset_core.cat import Poset
from .sset_core.enumerate import Check, enumerate_maps
from .sset_core.nerves import nerve_category, nerve_poset, standard_simplex, sub_sset
from .sset_core.sset import Simplex, compose_smap


@dataclass
class MarkedSSet:
    base: object
    marked: set = field(default_factory=set)

    def __post_init__(self):
        for c in self.marked:
            if not self.base.has_cell(c) or self.base.dim_of(c) != 1:
                raise ValueError(f"marked entry {c!r} is not a 1-cell")
        self.marked = set(self.marked)

    def is_marked(self, simplex):
        """Marked-or-degenerate test for a 1-simplex in normal form."""
        if simplex.dim != 1:
            raise ValueError("markedness is a property of 1-simplices")
        return not simplex.nondegenerate or simplex.cell in self.marked

    def edges_of(self, cell):
        """All 1-dimensional sub-simplices of a cell, in normal form."""
        d = self.base.dim_of(cell)
        return [self.base.apply_cell(cell, (i, j))
                for i in range(d + 1) for j in range(i + 1, d + 1)]

    def marked_simplices_1(self):
        """All marked 1-simplices: degenerate edges plus marked cells."""
        out = [Simplex((0, 0), v) for v in self.base.cells[0]]
        out.extend(Simplex((0, 1), c) for c in self.base.cells[1]
                   if c in self.marked)
        return out


@dataclass
class MarkedCategory:
    cat: object
    marked: set = field(default_factory=set)

    def __post_init__(self):
        for f in self.marked:
            if f not in self.cat.morphisms:
                raise ValueError(f"marked entry {f!r} is not a morphism")
        self.marked = set(self.marked)

    def opposite(self):
        return MarkedCategory(self.cat.opposite(), set(self.marked))


def effective_marking(mc):
    """The marked morphisms of a marked category, identities included."""
    return set(mc.marked) | {mc.cat.ident(x) for x in mc.cat.objects}


def nerve_marked(mc, bound=3):
    """Marked nerve of a marked category (identity marks are implicit)."""
    N = nerve_category(mc.cat, bound)
    W = {("c", f) for f in mc.marked if not mc.cat.is_identity(f)}
    return MarkedSSet(N, W)


def minimal_marking(X):
    return MarkedSSet(X, set())


def maximal_marking(X):
    return MarkedSSet(X, set(X.cells[1]))


def iso_marking(mc_or_cat):
    """Mark a category at its isomorphisms."""
    cat = mc_or_cat.cat if isinstance(mc_or_cat, MarkedCategory) else mc_or_cat
    return MarkedCategory(cat, {f for f in cat.morphism_names() if cat.is_iso(f)})


def marked_core(mx):
    """Largest subcomplex all of whose edges are marked."""
    keep = set(mx.base.cells[0])
    for d in range(1, len(mx.base.cells)):
        for c in mx.base.cells[d]:
            if all(mx.is_marked(e) for e in mx.edges_of(c)):
                keep.add(c)
    core = sub_sset(mx.base, lambda c: c in keep)
    return MarkedSSet(core, {c for c in core.cells[1] if c in mx.marked})


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


def is_strongly_closed(mx):
    """Faces 0 and 2 marked forces face 1 marked, for every triangle."""
    X = mx.base
    for u in X.simplices(2):
        fs = [X.simplex_face(u, i) for i in range(3)]
        if mx.is_marked(fs[0]) and mx.is_marked(fs[2]) and not mx.is_marked(fs[1]):
            return Check(False, {"triangle": u, "unmarked": fs[1]})
    return Check(True)


def is_two_out_of_three(mx):
    """Any two marked faces of a triangle force the third."""
    X = mx.base
    for u in X.simplices(2):
        fs = [X.simplex_face(u, i) for i in range(3)]
        ms = [mx.is_marked(f) for f in fs]
        if sum(ms) == 2:
            i = ms.index(False)
            return Check(False, {"triangle": u, "unmarked": fs[i]})
    return Check(True)


def cat_is_two_out_of_three(mc):
    """2-out-of-3 for a marked category (identities counted marked)."""
    cat = mc.cat
    marked = effective_marking(mc)
    for g in cat.morphism_names():
        for f in cat.morphism_names():
            if cat.dom(g) != cat.cod(f):
                continue
            h = cat.compose(g, f)
            ms = [f in marked, g in marked, h in marked]
            if sum(ms) == 2:
                return Check(False, {"f": f, "g": g, "gf": h})
    return Check(True)


# -- marked maps ---------------------------------------------------------

def enumerate_marked_maps(ma, mx, partial=None, limit=None):
    """All marking-preserving simplicial maps between marked SSets
    (the first ``limit`` of them, if given)."""
    def edge_ok(cell, image):
        return cell not in ma.marked or mx.is_marked(image)
    return enumerate_maps(ma.base, mx.base, partial=partial, edge_ok=edge_ok,
                          limit=limit)


@dataclass
class LevelMaps:
    """Marked maps out of a cosimplicial marked shape, level by level.

    ``levels[d]`` lists the serials of the marked maps out of the d-th
    shape and ``maps`` takes a serial to its map; face and degeneracy
    act by precomposition with the cosimplicial structure maps.
    ``side`` names the Ex functor ("L" or "R") whose levels these are,
    if any.
    """
    input: MarkedSSet
    bound: int
    levels: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    face_tbl: dict = field(default_factory=dict)
    degen_tbl: dict = field(default_factory=dict)
    side: str = None

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


def smap_is_marked(f, ma, mx):
    for c in ma.marked:
        if not mx.is_marked(f.on_cell(c)):
            return False
    return True


def cylinder(mx, bound=None):
    """The marked cylinder ``(X, W) x (Δ¹)♯`` with its end inclusions.

    Returns ``(P, marked_pred, i0, i1)`` where ``marked_pred`` decides
    markedness of product 1-cells (X-component marked or degenerate).
    """
    X = mx.base
    bound = X.dim_bound if bound is None else bound
    D1 = standard_simplex(1, bound=max(bound, 1))
    P = product(X, D1, bound)
    marked = set()
    for cell in P.cells[1]:
        _, op1, c1, op2, c2 = cell
        if len(set(op1)) == 1 or c1 in mx.marked:
            marked.add(cell)
    mp = MarkedSSet(P, marked)
    return mp, end_inclusion(X, D1, P, 0), end_inclusion(X, D1, P, 1)


def is_marked_homotopy(H, mx, my):
    """Check a map off the marked cylinder of ``mx`` preserves markings.

    ``H`` must be an SMap with source the base of ``cylinder(mx)``'s
    product.  Returns a Check; witness is an offending edge.
    """
    for cell in H.src.cells[1]:
        _, op1, c1, op2, c2 = cell
        cyl_marked = len(set(op1)) == 1 or c1 in mx.marked
        if cyl_marked and not my.is_marked(H.on_cell(cell)):
            return Check(False, {"edge": cell, "image": H.on_cell(cell)})
    return Check(True)


def opposite_marked(mx):
    return MarkedSSet(opposite_sset(mx.base), set(mx.marked))
