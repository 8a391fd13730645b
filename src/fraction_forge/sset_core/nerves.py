"""Nerves of posets and categories, simplices, boundaries, and horns.

Poset-nerve cells are named by tuples of elements (strict chains);
category-nerve cells by ``("v", x)`` for vertices and ``("c", f1, ...)``
for chains of non-identity morphisms.
"""

from .cat import Poset
from .ops import identity_op
from .sset import Simplex, SMap, SSet


def nerve_poset(poset, bound):
    """Nerve of a poset, truncated at ``bound``; cells are strict chains."""
    cells = [[] for _ in range(bound + 1)]
    faces = {}
    cells[0] = [(e,) for e in poset.elements]
    prev = cells[0]
    for d in range(1, bound + 1):
        cur = []
        for chain in prev:
            for e in poset.elements:
                if e != chain[-1] and poset.leq(chain[-1], e):
                    cur.append(chain + (e,))
        cells[d] = cur
        for chain in cur:
            faces[chain] = [
                Simplex(identity_op(d - 1), chain[:i] + chain[i + 1:])
                for i in range(d + 1)
            ]
        prev = cur
    return SSet(bound, cells, faces)


def standard_simplex(n, bound=None):
    """The simplex on vertices ``0 .. n``; cells are increasing tuples."""
    bound = n if bound is None else bound
    p = Poset.from_leq(range(n + 1), lambda a, b: a <= b)
    return nerve_poset(p, bound)


def sub_sset(X, keep):
    """Subcomplex on the cells satisfying ``keep`` (must be face-closed)."""
    cells = [[c for c in cs if keep(c)] for cs in X.cells]
    names = {c for cs in cells for c in cs}
    faces = {}
    for d, cs in enumerate(cells):
        if d == 0:
            continue
        for c in cs:
            fs = X.faces[c]
            for s in fs:
                if s.cell not in names:
                    raise ValueError(f"subcomplex not face-closed at {c!r}")
            faces[c] = list(fs)
    return SSet(X.dim_bound, cells, faces)


def boundary(n, bound=None):
    """Boundary of the n-simplex: all proper faces."""
    full = tuple(range(n + 1))
    return sub_sset(standard_simplex(n, bound), lambda c: c != full)


def horn(n, k, bound=None):
    """The horn missing the top cell and the face opposite vertex ``k``."""
    full = tuple(range(n + 1))
    facet = tuple(i for i in range(n + 1) if i != k)
    return sub_sset(standard_simplex(n, bound), lambda c: c not in (full, facet))


def simplex_inclusion(A, X):
    """Inclusion of a subcomplex whose cells share names with ``X``."""
    asg = {}
    for d, cs in enumerate(A.cells):
        for c in cs:
            if not X.has_cell(c) or X.dim_of(c) != d:
                raise ValueError(f"cell {c!r} is not a cell of the codomain")
            asg[c] = Simplex(identity_op(d), c)
    return SMap(A, X, asg)


def _chain_image(vs, B):
    """Normal form in the poset nerve ``B`` of a monotone vertex sequence:
    the chain of its distinct runs, with the surjection onto them."""
    chain = []
    op = []
    for v in vs:
        if not chain or chain[-1] != v:
            chain.append(v)
        op.append(len(chain) - 1)
    chain = tuple(chain)
    if not B.has_cell(chain):
        raise ValueError(f"image chain {chain!r} is not a cell of the codomain")
    return Simplex(tuple(op), chain)


def nerve_map(vertex_map, A, B):
    """Simplicial map of poset nerves induced by a monotone vertex map.

    Chain cells of ``A`` are sent to the normal form of their image chain.
    """
    asg = {}
    for cs in A.cells:
        for chain in cs:
            asg[chain] = _chain_image([vertex_map(v) for v in chain], B)
    return SMap(A, B, asg)


def simplex_map(phi, m, n, src=None, dst=None):
    """Map of standard simplices induced by a monotone map ``phi: [m] -> [n]``."""
    src = src if src is not None else standard_simplex(m)
    dst = dst if dst is not None else standard_simplex(n)
    return nerve_map(lambda i: phi[i], src, dst)


def normalize_chain(cat, morphs, base_object):
    """EZ normal form of a category-nerve simplex given by a morphism chain.

    ``morphs`` may contain identities; ``base_object`` is the source object
    (used when the chain is empty or all identities).
    """
    keep = []
    op = [0]
    for f in morphs:
        if cat.is_identity(f):
            op.append(op[-1])
        else:
            keep.append(f)
            op.append(op[-1] + 1)
    if not keep:
        return Simplex(tuple(op), ("v", base_object))
    return Simplex(tuple(op), ("c",) + tuple(keep))


def nerve_category(cat, bound):
    """Nerve of a finite category, truncated at ``bound``."""
    cells = [[] for _ in range(bound + 1)]
    faces = {}
    cells[0] = [("v", x) for x in cat.objects]
    nonid = [f for f in cat.morphism_names() if not cat.is_identity(f)]
    prev = [()]
    for d in range(1, bound + 1):
        cur = []
        for chain in ([()] if d == 1 else prev):
            for f in nonid:
                if not chain or cat.dom(f) == cat.cod(chain[-1]):
                    cur.append(chain + (f,))
        prev = cur
        cells[d] = [("c",) + chain for chain in cur]
        for chain in cur:
            cell = ("c",) + chain
            fs = []
            for i in range(d + 1):
                if i == 0:
                    rest = chain[1:]
                    fs.append(normalize_chain(cat, rest, cat.cod(chain[0])))
                elif i == d:
                    fs.append(normalize_chain(cat, chain[:-1], cat.dom(chain[0])))
                else:
                    comp = cat.compose(chain[i], chain[i - 1])
                    rest = chain[:i - 1] + (comp,) + chain[i + 1:]
                    fs.append(normalize_chain(cat, rest, cat.dom(chain[0])))
            faces[cell] = fs
        prev = cur
    return SSet(bound, cells, faces)


def map_to_nerve(src, dst, vertex_image):
    """Simplicial map into a poset nerve determined by vertex images.

    ``vertex_image`` sends a 0-cell of ``src`` to a 0-cell of the chain
    nerve ``dst``; each higher cell maps to the normal form of the image
    of its vertex sequence.
    """
    asg = {}
    for d, cs in enumerate(src.cells):
        for c in cs:
            asg[c] = _chain_image([vertex_image(src.apply_cell(c, (i,)).cell)[0]
                                   for i in range(d + 1)], dst)
    f = SMap(src, dst, asg)
    f.validate()
    return f
