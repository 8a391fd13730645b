"""Constructions on simplicial sets: joins, products, opposites, and
extraction of an SSet from abstract level data via EZ normal forms."""

from .nerves import simplex_inclusion
from .ops import compose, delta, identity_op, op_reverse, sigma
from .sset import Simplex, SMap, SSet, surjections


def empty_sset(bound=0):
    return SSet(bound, [[] for _ in range(bound + 1)], {})


# -- joins ---------------------------------------------------------------

def _join_mixed_face(X, Y, c1, c2, i):
    """Face i of the mixed join cell (c1, c2)."""
    d1, d2 = X.dim_of(c1), Y.dim_of(c2)
    n = d1 + d2 + 1
    if i <= d1:
        if d1 == 0:
            return Simplex(identity_op(d2), ("R", c2))
        s = X.apply_cell(c1, delta(i, d1))
        q = len(s.op) - 1
        op = s.op + tuple(range(q + 1, q + d2 + 2))
        return Simplex(op, ("LR", s.cell, c2))
    if d2 == 0:
        return Simplex(identity_op(d1), ("L", c1))
    s = Y.apply_cell(c2, delta(i - d1 - 1, d2))
    op = tuple(range(d1 + 1)) + tuple(v + d1 + 1 for v in s.op)
    return Simplex(op, ("LR", c1, s.cell))


def join(X, Y, bound):
    """Join of two simplicial sets, truncated at ``bound``.

    Cells are tagged ``("L", x)``, ``("R", y)``, or ``("LR", x, y)``
    with dims ``i``, ``j``, ``i + j + 1``.
    """
    cells = [[] for _ in range(bound + 1)]
    faces = {}
    for d in range(bound + 1):
        for c in (X.cells[d] if d < len(X.cells) else []):
            cells[d].append(("L", c))
        for c in (Y.cells[d] if d < len(Y.cells) else []):
            cells[d].append(("R", c))
        for i in range(d):
            j = d - 1 - i
            for c1 in (X.cells[i] if i < len(X.cells) else []):
                for c2 in (Y.cells[j] if j < len(Y.cells) else []):
                    cells[d].append(("LR", c1, c2))
    for d in range(1, bound + 1):
        for cell in cells[d]:
            if cell[0] == "L":
                faces[cell] = [Simplex(s.op, ("L", s.cell)) for s in X.faces[cell[1]]]
            elif cell[0] == "R":
                faces[cell] = [Simplex(s.op, ("R", s.cell)) for s in Y.faces[cell[1]]]
            else:
                _, c1, c2 = cell
                faces[cell] = [_join_mixed_face(X, Y, c1, c2, i) for i in range(d + 1)]
    return SSet(bound, cells, faces)


# -- products ------------------------------------------------------------

def _jointly_nondeg(op1, op2):
    n = len(op1) - 1
    return all(op1[i] != op1[i + 1] or op2[i] != op2[i + 1] for i in range(n))


def _pair_normalize(s1, s2):
    """Normal form of a product simplex from component normal forms."""
    n = s1.dim
    shared = [i for i in range(n)
              if s1.op[i] == s1.op[i + 1] and s2.op[i] == s2.op[i + 1]]
    sharedset = set(shared)
    rho = []
    v = 0
    for i in range(n + 1):
        rho.append(v)
        if i not in sharedset:
            v += 1
    # strictly-monotone section of rho
    section = []
    seen = set()
    for i, r in enumerate(rho):
        if r not in seen:
            seen.add(r)
            section.append(i)
    op1 = tuple(s1.op[i] for i in section)
    op2 = tuple(s2.op[i] for i in section)
    return Simplex(tuple(rho), ("P", op1, s1.cell, op2, s2.cell))


def product(X, Y, bound):
    """Product of simplicial sets via EZ shuffles, truncated at ``bound``.

    Non-degenerate cells ``("P", op1, x, op2, y)`` are jointly injective
    pairs of surjections applied to non-degenerate component cells.
    """
    cells = [[] for _ in range(bound + 1)]
    faces = {}
    for n in range(bound + 1):
        for d1 in range(min(n, X.top_dim()) + 1):
            for d2 in range(min(n, Y.top_dim()) + 1):
                if max(d1, d2) > n or d1 + d2 < n:
                    continue
                for c1 in X.cells[d1]:
                    for c2 in Y.cells[d2]:
                        for op1 in surjections(n, d1):
                            for op2 in surjections(n, d2):
                                if _jointly_nondeg(op1, op2):
                                    cells[n].append(("P", op1, c1, op2, c2))
    for n in range(1, bound + 1):
        for cell in cells[n]:
            _, op1, c1, op2, c2 = cell
            fs = []
            for i in range(n + 1):
                s1 = X.apply_cell(c1, compose(op1, delta(i, n)))
                s2 = Y.apply_cell(c2, compose(op2, delta(i, n)))
                fs.append(_pair_normalize(s1, s2))
            faces[cell] = fs
    return SSet(bound, cells, faces)


def product_map(f, g, P, Q):
    """Map of products ``P = X x Y -> Q = X' x Y'`` induced componentwise."""
    asg = {}
    for cs in P.cells:
        for cell in cs:
            _, op1, c1, op2, c2 = cell
            i1 = f.on_cell(c1)
            i2 = g.on_cell(c2)
            s1 = f.dst.apply_cell(i1.cell, compose(i1.op, op1))
            s2 = g.dst.apply_cell(i2.cell, compose(i2.op, op2))
            asg[cell] = _pair_normalize(s1, s2)
    return SMap(P, Q, asg)


def product_projections(X, Y, P):
    """The two projection maps of a product built by ``product``."""
    asg1 = {}
    asg2 = {}
    for cs in P.cells:
        for cell in cs:
            _, op1, c1, op2, c2 = cell
            asg1[cell] = Simplex(op1, c1)
            asg2[cell] = Simplex(op2, c2)
    return SMap(P, X, asg1), SMap(P, Y, asg2)


def pair_into_product(f, g, P):
    """The map ``(f, g): A -> X x Y`` into a product built by ``product``."""
    asg = {}
    for cs in f.src.cells:
        for cell in cs:
            asg[cell] = _pair_normalize(f.on_cell(cell), g.on_cell(cell))
    return SMap(f.src, P, asg)


def end_inclusion(X, D1, P, eps):
    """The end ``X -> X x Δ¹`` at height ``eps``, into ``P = product(X, D1)``."""
    cst = SMap(X, D1, {c: Simplex(tuple([0] * (d + 1)), (eps,))
                       for d, cs in enumerate(X.cells) for c in cs})
    return pair_into_product(simplex_inclusion(X, X), cst, P)


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


def opposite_smap(f, src_op, dst_op):
    """The same map viewed between the opposite simplicial sets."""
    asg = {}
    for c, s in f.assignment.items():
        asg[c] = Simplex(op_reverse(s.op, len(set(s.op)) - 1), s.cell)
    return SMap(src_op, dst_op, asg)


# -- EZ extraction from level data --------------------------------------

def from_levels(levels, face, degen, bound, namer=None):
    """Build an SSet from abstract simplicial level data.

    ``levels[d]`` lists hashable elements; ``face(d, x, i)`` and
    ``degen(d, x, i)`` give the simplicial operators.  Non-degenerate
    elements become cells; faces are put in EZ normal form by peeling
    degeneracies.  Returns ``(sset, cell_of)`` where ``cell_of`` maps an
    element to its normal form as a Simplex.
    """
    namer = namer or (lambda d, x: x)
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
