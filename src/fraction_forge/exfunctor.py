"""Marked subdivision, the truncated marked Ex functor and its dual,
the unit map max*, and the comparison with the classical Ex.

``sd_plus(n)`` is the chain nerve of non-empty subsets of [n] ordered by
inclusion, an edge marked iff it preserves the maximum; ``sd_op(n)`` is
the reverse-ordered nerve with the min-preserving marking.  Level n of
the Ex functor is the set of marked maps out of the corresponding
subdivision shape.
"""

from .marked import (
    LevelMaps,
    MarkedSSet,
    enumerate_marked_maps,
    level_maps,
    maximal_marking,
    opposite_marked,
    subset_nerve,
)
from .sset_core.build import from_levels
from .sset_core.enumerate import Check
from .sset_core.nerves import nerve_map
from .sset_core.ops import delta, sigma
from .sset_core.sset import SMap, Simplex, surjections
from .sset_core.unionfind import UnionFind


# -- subdivision shapes --------------------------------------------------

def sd_plus(n):
    """Marked subdivision of the n-simplex (max-preserving marking)."""
    if n > 3:
        raise ValueError("subdivision shapes truncated at n <= 3")
    return subset_nerve(n, "L")


def sd_op(n):
    """Reverse-ordered subdivision of the n-simplex (min marking)."""
    if n > 3:
        raise ValueError("subdivision shapes truncated at n <= 3")
    return subset_nerve(n, "R")


def sd_map(phi, m, n):
    """Cosimplicial structure map of the subdivision shapes sd₊.

    ``phi`` is a monotone map [m] -> [n] given as a tuple; the induced
    map sends a subset A to its image under phi.  Marking-preserving
    (images of monotone maps preserve the max).
    """
    return nerve_map(lambda A: frozenset(phi[a] for a in A),
                     sd_plus(m).base, sd_plus(n).base)


def _sd_coface(d, i):
    return sd_map(delta(i, d), d - 1, d)


def _sd_codegeneracy(d, i):
    return sd_map(sigma(i, d), d + 1, d)


# -- marked subdivision of a finite simplicial set -----------------------

def Sd_plus(X):
    """Marked subdivision of a finite simplicial set.

    Computed as the quotient of the disjoint union of subdivision shapes
    over the non-degenerate cells of ``X`` by the face identifications,
    via union-find saturation.  Cells of the result are named by a
    canonical representative pair (cell of X, simplex of its shape).
    """
    top = X.top_dim()
    if top > 3:
        raise ValueError("subdivision truncated at dimension <= 3")
    shapes = {m: sd_plus(m) for m in range(top + 1)}

    def sd_simplices(m, d):
        out = []
        for p in range(min(d, m) + 1):
            for op in surjections(d, p):
                for chain in shapes[m].base.cells[p]:
                    out.append(Simplex(op, chain))
        return out

    uf = UnionFind()
    dims = {}
    for d in range(top + 1):
        for m in range(top + 1):
            for u in X.cells[m]:
                for s in sd_simplices(m, d):
                    uf.add((u, s))
                    dims[(u, s)] = d
    for m in range(1, top + 1):
        for u in X.cells[m]:
            for i in range(m + 1):
                fs = X.faces[u][i]
                hi = _sd_coface(m, i)
                lo = sd_map(fs.op, m - 1, X.dim_of(fs.cell))
                for d in range(top + 1):
                    for t in sd_simplices(m - 1, d):
                        uf.union((u, hi(t)), (fs.cell, lo(t)))

    levels = [sorted({uf.find(p) for p, dd in dims.items() if dd == d},
                     key=repr)
              for d in range(top + 1)]

    def face(d, x, i):
        u, s = x
        return uf.find((u, shapes[X.dim_of(u)].base.simplex_face(s, i)))

    def degen(d, x, i):
        u, s = x
        return uf.find((u, shapes[X.dim_of(u)].base.simplex_degeneracy(s, i)))

    sset, cell_of = from_levels(levels, face, degen, top,
                                lambda d, x: x)
    marked = set()
    for (u, s), root in ((p, uf.find(p)) for p, dd in dims.items() if dd == 1):
        if s.nondegenerate and max(s.cell[0]) == max(s.cell[1]):
            nf = cell_of(1, root)
            if nf.nondegenerate:
                marked.add(nf.cell)
    return MarkedSSet(sset, marked)


# -- truncated Ex levels -------------------------------------------------

def ex_plus(mx, levels=2):
    """Marked maps out of the subdivision shapes, with operator actions."""
    if levels > 3:
        raise ValueError("Ex levels truncated at <= 3")
    if mx.base.dim_bound < levels:
        raise ValueError(
            f"level-{levels} answers need dimension bound >= {levels}")
    cache = level_maps(mx, [sd_plus(d) for d in range(levels + 1)],
                       _sd_coface, _sd_codegeneracy)
    cache.side = "L"
    for lvl in cache.levels.values():
        lvl.sort()
    return cache


def ex_op(mx, levels=2):
    """The dual Ex functor, realized by opposite-conjugation.

    Level d is computed as the levels of ``ex_plus`` of the opposite
    marked SSet, with face and degeneracy indices reversed.
    """
    inner = ex_plus(opposite_marked(mx), levels=levels)
    cache = LevelMaps(input=mx, bound=levels, levels=dict(inner.levels),
                      maps=dict(inner.maps), side="R")
    for d in range(1, levels + 1):
        for i in range(d + 1):
            cache.face_tbl[(d, i)] = inner.face_tbl[(d, d - i)]
    for d in range(levels):
        for i in range(d + 1):
            cache.degen_tbl[(d, i)] = inner.degen_tbl[(d, d - i)]
    return cache


def ex_op_direct_check(mx):
    """Cross-check of the conjugated dual against direct enumeration.

    Marked maps out of ``sd_op(d)`` into the input are counted directly
    and compared with the conjugated construction level by level, for
    d <= 2.
    """
    cache = ex_op(mx, levels=2)
    for d in range(3):
        direct = enumerate_marked_maps(sd_op(d), mx)
        if len(direct) != len(cache.levels[d]):
            return Check(False, {"level": d, "direct": len(direct),
                                 "conjugated": len(cache.levels[d])})
    return Check(True)


def ex_to_sset(cache):
    """The truncated Ex as an SSet; cells named ("ex", level, serial)."""
    levels = [cache.levels[d] for d in range(cache.bound + 1)]
    return from_levels(levels, cache.face, cache.degen, cache.bound,
                       lambda d, x: ("ex", d, x))


# -- unit maps -----------------------------------------------------------

def max_star(cache):
    """The unit: a d-cell u goes to the level-d map  chain -> u . max.

    Returns {d: {cell: serial}} on the cached levels.  Marked edges land
    on marked level-1 elements because max-preserving edges of the shape
    hit degenerate edges of the input.
    """
    if cache.side != "L":
        raise ValueError("max_star applies to left-handed caches")
    X = cache.input.base
    out = {}
    for d in range(cache.bound + 1):
        shape = sd_plus(d).base
        out[d] = {}
        for u in X.cells[d]:
            asg = {chain: X.apply_cell(u, tuple(max(A) for A in chain))
                   for cs in shape.cells for chain in cs}
            s = SMap(shape, X, asg).serialize()
            if s not in cache.maps:
                raise AssertionError("unit image missing from the level")
            out[d][u] = s
    return out


# -- comparison with the classical Ex ------------------------------------

def compare_with_kan_ex(X, levels=2):
    """Levels of Ex of ``X`` (unmarked maps from the unmarked shapes)
    versus the marked Ex of the maximally marked ``X``, with operator
    actions compared entry by entry."""
    if X.dim_bound < levels:
        raise ValueError(f"need dimension bound >= {levels}")
    kan = level_maps(MarkedSSet(X),
                     [MarkedSSet(sd_plus(d).base) for d in range(levels + 1)],
                     _sd_coface, _sd_codegeneracy)
    cache = ex_plus(maximal_marking(X), levels=levels)
    for d in range(levels + 1):
        if sorted(kan.levels[d]) != cache.levels[d]:
            return Check(False, {"level": d, "kan": len(kan.levels[d]),
                                 "marked": len(cache.levels[d])})
    for op, want, got in (("face", kan.face_tbl, cache.face_tbl),
                          ("degeneracy", kan.degen_tbl, cache.degen_tbl)):
        for (d, i), tbl in want.items():
            if tbl != got[(d, i)]:
                return Check(False, {"level": d, "op": (op, i)})
    return Check(True)
