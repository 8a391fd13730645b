"""Constructions on simplicial sets: opposites, and extraction of an
SSet from abstract level data via EZ normal forms."""

from .ops import compose, identity_op, op_reverse, sigma
from .sset import Simplex, SSet


# -- opposites -----------------------------------------------------------

def opposite_sset(X):
    """The opposite simplicial set: faces reversed, words conjugated."""
    faces = {}
    for d, cs in enumerate(X.cells):
        if d == 0:
            continue
        for c in cs:
            fs = []
            for i in range(d + 1):
                s = X.faces[c][d - i]
                fs.append(Simplex(op_reverse(s.op, len(set(s.op)) - 1), s.cell))
            faces[c] = fs
    return SSet(X.dim_bound, X.cells, faces)


# -- EZ extraction from level data --------------------------------------

def from_levels(levels, face, degen, bound, namer):
    """Build an SSet from abstract simplicial level data.

    ``levels[d]`` lists hashable elements; ``face(d, x, i)`` and
    ``degen(d, x, i)`` give the simplicial operators.  Non-degenerate
    elements become cells; faces are put in EZ normal form by peeling
    degeneracies.  Returns ``(sset, cell_of)`` where ``cell_of`` maps an
    element to its normal form as a Simplex.
    """
    degenerate = [set() for _ in range(bound + 1)]
    for d in range(bound):
        for x in levels[d]:
            for i in range(d + 1):
                degenerate[d + 1].add(degen(d, x, i))

    normal = {}

    def normal_form(d, x):
        key = (d, x)
        if key in normal:
            return normal[key]
        res = None
        if d > 0 and x in degenerate[d]:
            for i in range(d):
                y = face(d, x, i)
                if degen(d - 1, y, i) == x:
                    s = normal_form(d - 1, y)
                    res = Simplex(compose(s.op, sigma(i, d - 1)), s.cell)
                    break
        if res is None:
            res = Simplex(identity_op(d), namer(d, x))
        normal[key] = res
        return res

    cells = [[] for _ in range(bound + 1)]
    faces = {}
    back = {}
    for d in range(bound + 1):
        for x in levels[d]:
            s = normal_form(d, x)
            if s.nondegenerate:
                cells[d].append(s.cell)
                back[s.cell] = (d, x)
    for d in range(1, bound + 1):
        for c in cells[d]:
            _, x = back[c]
            faces[c] = [normal_form(d - 1, face(d, x, i)) for i in range(d + 1)]
    sset = SSet(bound, cells, faces)

    def cell_of(d, x):
        return normal_form(d, x)

    return sset, cell_of
