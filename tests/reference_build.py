"""Reference products: the EZ shuffle product of simplicial sets, its
maps, and the marked cylinder ``(X, W) x (Δ¹)♯`` built on it, as the
slices used them before their cylinders became poset nerves.  Kept as a
differential oracle for ``localize._cylinder`` and for the tests that
need the cylinder of a marked simplicial set other than a simplex.  Also
the surjection builder as it was before it called ``surj_from_word``."""

from itertools import combinations

from fraction_forge.marked import MarkedSSet
from fraction_forge.sset_core.nerves import standard_simplex
from fraction_forge.sset_core.ops import compose, delta, identity_op
from fraction_forge.sset_core.sset import Simplex, SMap, SSet, surjections


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


def simplex_inclusion(A, X):
    """Inclusion of a subcomplex whose cells share names with ``X``."""
    asg = {}
    for d, cs in enumerate(A.cells):
        for c in cs:
            if not X.has_cell(c) or X.dim_of(c) != d:
                raise ValueError(f"cell {c!r} is not a cell of the codomain")
            asg[c] = Simplex(identity_op(d), c)
    return SMap(A, X, asg)


def cylinder(mx):
    """The marked cylinder ``(X, W) x (Δ¹)♯`` with its end inclusions.

    Returns ``(mp, i0, i1)``: the marked product, whose 1-cells are
    marked when their X-component is marked or degenerate, and the
    inclusions of the ends 0 and 1.  It is truncated at the dimension
    bound of X.
    """
    X = mx.base
    bound = X.dim_bound
    D1 = standard_simplex(1, bound=max(bound, 1))
    P = product(X, D1, bound)
    marked = set()
    for cell in P.cells[1]:
        _, op1, c1, op2, c2 = cell
        if len(set(op1)) == 1 or c1 in mx.marked:
            marked.add(cell)
    mp = MarkedSSet(P, marked)
    return mp, end_inclusion(X, D1, P, 0), end_inclusion(X, D1, P, 1)


# -- surjections ---------------------------------------------------------

def loop_surjections(n, m):
    """All monotone surjections ``[n] -> [m]``, built from each choice of
    repeat positions by its own loop."""
    if m > n or m < 0:
        return []
    out = []
    # choose the n - m repeat positions among 0 .. n-1
    for rep in combinations(range(n), n - m):
        repset = set(rep)
        op = []
        v = 0
        for i in range(n + 1):
            op.append(v)
            if i not in repset:
                v += 1
        out.append(tuple(op))
    return out
