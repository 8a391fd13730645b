"""Small constructions the unit tests need and the program does not:
isomorphism search, maps into poset nerves given on vertices, the
marking test for a map, and a finite category's tables by name."""

from fraction_forge.sset_core.cat import Morphism
from fraction_forge.sset_core.enumerate import enumerate_maps
from fraction_forge.sset_core.nerves import _chain_image
from fraction_forge.sset_core.sset import SMap


def find_isomorphism(A, B, edge_ok=None):
    """First isomorphism ``A -> B`` in enumeration order, or None.

    An isomorphism sends the non-degenerate cells of ``A`` bijectively onto
    those of ``B``; ``edge_ok`` filters the edge images, as in
    ``enumerate_maps``.
    """
    if [len(cs) for cs in A.cells] != [len(cs) for cs in B.cells]:
        return None
    for f in enumerate_maps(A, B, edge_ok=edge_ok):
        images = f.assignment.values()
        if all(s.nondegenerate for s in images) \
                and len({s.cell for s in images}) == len(images):
            return f
    return None


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


def smap_is_marked(f, ma, mx):
    """True if ``f`` sends every marked edge of ``ma`` to a marked edge of
    ``mx``."""
    return all(mx.is_marked(f.on_cell(c)) for c in ma.marked)


def name_arrows(C):
    """The morphisms of a finite category as ``Morphism``s, by id."""
    return [Morphism(f, C.dom(f), C.cod(f)) for f in C.morphisms]


def name_identities(C):
    """The identities of a finite category by name, in its table order."""
    return {x: C.names[e] for x, e in C.idents.items()}


def name_comp(C):
    """``{(g, f): g . f}`` by name, in the order of the composition
    table."""
    names = C.names
    return {(names[g], names[f]): names[h] for g, f, h in C.composites()}
