"""Simplicial sets presented by non-degenerate cells and EZ-normal faces.

Every simplex has a unique normal form ``cell . op`` with ``cell``
non-degenerate and ``op`` a monotone surjection (Eilenberg-Zilber).
``Simplex(op, cell)`` stores that form; all operator actions normalize.
"""

from itertools import combinations

from .ops import (compose, delta, epi_mono_factor, identity_op, is_surjection,
                  sigma, surj_from_word)


class Frozen:
    """Base of the immutable value classes: each sets its fields once in
    ``__init__``, through ``object.__setattr__``, and refuses assignment
    after."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Simplex(Frozen):
    """A (possibly degenerate) simplex in EZ normal form ``cell . op``."""

    def __init__(self, op, cell):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "cell", cell)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.op, self.cell) == (other.op, other.cell)
        return NotImplemented

    def __hash__(self):
        return hash((self.op, self.cell))

    def __repr__(self):
        return f"Simplex(op={self.op!r}, cell={self.cell!r})"

    @property
    def dim(self):
        return len(self.op) - 1

    @property
    def nondegenerate(self):
        return len(set(self.op)) == len(self.op)


class SSet:
    """A finite simplicial set truncated at ``dim_bound``.

    ``cells[d]`` lists the non-degenerate d-cells in a fixed order;
    ``faces[c][i]`` is the EZ normal form of the i-th face of ``c``.
    Operations above ``dim_bound`` raise ``ValueError``.
    """

    def __init__(self, dim_bound, cells, faces):
        self.dim_bound = dim_bound
        self.cells = [list(cs) for cs in cells]
        while len(self.cells) <= dim_bound:
            self.cells.append([])
        if len(self.cells) > dim_bound + 1:
            raise ValueError("cells listed above dim_bound")
        self.faces = dict(faces)
        self._dim = {}
        for d, cs in enumerate(self.cells):
            for c in cs:
                if c in self._dim:
                    raise ValueError(f"duplicate cell name {c!r}")
                self._dim[c] = d
        # caches of the map-search engine (enumerate.py), filled on use;
        # valid because an SSet is never mutated after construction
        self._nf_memo = {}
        self._face_index = {}
        self.validate()

    # -- basic queries ---------------------------------------------------

    def dim_of(self, cell):
        return self._dim[cell]

    def has_cell(self, cell):
        return cell in self._dim

    def top_dim(self):
        """Largest dimension carrying a non-degenerate cell."""
        for d in range(len(self.cells) - 1, -1, -1):
            if self.cells[d]:
                return d
        return -1

    def face(self, cell, i):
        """Stored i-th face of a non-degenerate cell, as a Simplex."""
        return self.faces[cell][i]

    # -- operator actions ------------------------------------------------

    def apply_cell(self, cell, op):
        """Normal form of ``cell . op`` for an arbitrary monotone ``op``."""
        surj, image = epi_mono_factor(op)
        m = self._dim[cell]
        s2, c2 = self._apply_inj(cell, image, m)
        return Simplex(compose(s2, surj), c2)

    def _apply_inj(self, cell, image, m):
        """Normal form of ``cell . inj`` where ``inj`` has the given image
        inside ``[m]``; returns ``(surjection, cell)``."""
        if len(image) == m + 1:
            return identity_op(m), cell
        missing = max(v for v in range(m + 1) if v not in image)
        fs = self.faces[cell][missing]
        image2 = tuple(v if v < missing else v - 1 for v in image)
        s2, c2 = self._apply_inj(fs.cell, tuple(sorted(set(compose(fs.op, image2)))),
                                 self._dim[fs.cell])
        inner_surj, _ = epi_mono_factor(compose(fs.op, image2))
        return compose(s2, inner_surj), c2

    def simplex_face(self, simplex, i):
        n = simplex.dim
        return self.apply_cell(simplex.cell, compose(simplex.op, delta(i, n)))

    def simplex_degeneracy(self, simplex, i):
        n = simplex.dim
        return Simplex(compose(simplex.op, sigma(i, n)), simplex.cell)

    def simplices(self, d):
        """All d-simplices in normal form, in deterministic order."""
        out = []
        for m in range(d, -1, -1):
            for cell in self.cells[m]:
                for op in surjections(d, m):
                    out.append(Simplex(op, cell))
        return out

    # -- validation ------------------------------------------------------

    def validate(self):
        for c, d in self._dim.items():
            if d == 0:
                if c in self.faces and self.faces[c]:
                    raise ValueError(f"vertex {c!r} has face data")
                continue
            fs = self.faces.get(c)
            if fs is None or len(fs) != d + 1:
                raise ValueError(f"cell {c!r} must list {d + 1} faces")
            for i, s in enumerate(fs):
                if s.cell not in self._dim:
                    raise ValueError(f"face {i} of {c!r} targets unknown cell {s.cell!r}")
                if not is_surjection(s.op, self._dim[s.cell]) or s.dim != d - 1:
                    raise ValueError(f"face {i} of {c!r} has malformed operator {s.op}")
        for c, d in self._dim.items():
            if d < 2:
                continue
            for j in range(d + 1):
                for i in range(j):
                    left = self.simplex_face(self.face(c, j), i)
                    right = self.simplex_face(self.face(c, i), j - 1)
                    if left != right:
                        raise ValueError(
                            f"simplicial identity fails at cell {c!r}: "
                            f"d{i} d{j} != d{j - 1} d{i}")

    def __repr__(self):
        counts = [len(cs) for cs in self.cells]
        return f"SSet(dim_bound={self.dim_bound}, cells={counts})"


def surjections(n, m):
    """All monotone surjections ``[n] -> [m]`` in deterministic order: by
    their ``n - m`` repeat positions, in ``combinations`` order."""
    if m > n or m < 0:
        return []
    return [surj_from_word(rep[::-1], n)
            for rep in combinations(range(n), n - m)]


class SMap:
    """Simplicial map, stored as image simplices of non-degenerate cells."""

    def __init__(self, src, dst, assignment=None):
        self.src = src
        self.dst = dst
        self.assignment = {} if assignment is None else assignment

    def __call__(self, simplex):
        img = self.assignment[simplex.cell]
        return Simplex(compose(img.op, simplex.op), img.cell)

    def on_cell(self, cell):
        return self.assignment[cell]

    def validate(self):
        for d, cs in enumerate(self.src.cells):
            for c in cs:
                img = self.assignment.get(c)
                if img is None:
                    raise ValueError(f"no image for cell {c!r}")
                if img.dim != d or not self.dst.has_cell(img.cell):
                    raise ValueError(f"image of {c!r} has wrong shape")
                for i in (range(d + 1) if d else []):
                    want = self(self.src.face(c, i))
                    got = self.dst.simplex_face(img, i)
                    if want != got:
                        raise ValueError(
                            f"map does not commute with face {i} of {c!r}")

    def serialize(self):
        """Canonical hashable form, for dedup and deterministic ordering."""
        items = []
        for cs in self.src.cells:
            for c in cs:
                s = self.assignment[c]
                items.append((c, s.op, s.cell))
        return tuple(items)


def compose_smap(g, f):
    """Composite ``g . f`` of simplicial maps."""
    asg = {c: g(f.on_cell(c)) for c in f.assignment}
    return SMap(f.src, g.dst, asg)

