"""Window-normalized cubical data: stable cubes in a graph nerve.

An n-cube of the nerve of a graph is a map from an n-fold box power of
the infinite interval which is eventually constant in each direction.
It is stored as a finite trimmed grid (no removable constant outer
slice) with implicit constant extension beyond the ends.
"""

from itertools import product as iproduct

from ..sset_core.enumerate import Check
from ..sset_core.sset import Frozen


def _grid_points(extents):
    return iproduct(*[range(m + 1) for m in extents])


class StableCube(Frozen):
    def __init__(self, graph, extents, grid):
        # grid: values in row-major order over the full grid
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "grid", grid)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.graph, self.extents, self.grid)
                    == (other.graph, other.extents, other.grid))
        return NotImplemented

    def __hash__(self):
        return hash((self.graph, self.extents, self.grid))

    @staticmethod
    def from_function(graph, extents, fn, trim=True):
        vals = tuple(fn(p) for p in _grid_points(extents))
        c = StableCube(graph, tuple(extents), vals)
        c.validate()
        return c.trim() if trim else c

    @property
    def dim(self):
        return len(self.extents)

    def _index(self, point):
        idx = 0
        for m, x in zip(self.extents, point):
            idx = idx * (m + 1) + x
        return idx

    def value(self, point):
        """Grid value with constant extension beyond the ends."""
        clamped = tuple(min(max(x, 0), m) for m, x in zip(self.extents, point))
        return self.grid[self._index(clamped)]

    def validate(self):
        for p in _grid_points(self.extents):
            v = self.value(p)
            for i in range(self.dim):
                q = p[:i] + (p[i] + 1,) + p[i + 1:]
                if q[i] <= self.extents[i] and \
                        not self.graph.adjacent(v, self.value(q)):
                    raise ValueError(f"grid not a graph map at {p} -> {q}")

    def _drop_slice(self, axis, end):
        m = self.extents[axis]
        shift = 1 if end == 0 else 0
        new_ext = self.extents[:axis] + (m - 1,) + self.extents[axis + 1:]
        fn = lambda p: self.value(p[:axis] + (p[axis] + shift,) + p[axis + 1:])
        vals = tuple(fn(p) for p in _grid_points(new_ext))
        return StableCube(self.graph, new_ext, vals)

    def trim(self):
        """Remove constant outer slices until none remain (normal form)."""
        c = self
        changed = True
        while changed:
            changed = False
            for axis in range(c.dim):
                m = c.extents[axis]
                if m == 0:
                    continue
                for end in (0, 1):
                    edge = 0 if end == 0 else m
                    inner = 1 if end == 0 else m - 1
                    same = all(
                        c.value(p[:axis] + (edge,) + p[axis:]) ==
                        c.value(p[:axis] + (inner,) + p[axis:])
                        for p in _grid_points(c.extents[:axis]
                                              + c.extents[axis + 1:]))
                    if same:
                        c = c._drop_slice(axis, end)
                        changed = True
                        break
                if changed:
                    break
        return c

    def face(self, i, eps):
        """End slice in direction i (1-based), value layer at end eps."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"face index {i} out of range")
        axis = i - 1
        edge = 0 if eps == 0 else self.extents[axis]
        fn = lambda p: self.value(p[:axis] + (edge,) + p[axis:])
        ext = self.extents[:axis] + self.extents[axis + 1:]
        vals = tuple(fn(p) for p in _grid_points(ext))
        return StableCube(self.graph, ext, vals).trim()

    def degeneracy(self, i):
        """Insert a constant (extent-0) axis at position i (1-based)."""
        if not 1 <= i <= self.dim + 1:
            raise ValueError(f"degeneracy index {i} out of range")
        axis = i - 1
        ext = self.extents[:axis] + (0,) + self.extents[axis:]
        fn = lambda p: self.value(p[:axis] + p[axis + 1:])
        vals = tuple(fn(p) for p in _grid_points(ext))
        return StableCube(self.graph, ext, vals)

    def connection(self, i, eps):
        """Duplicate axis i through max (eps=0) or min (eps=1)."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"connection index {i} out of range")
        axis = i - 1
        m = self.extents[axis]
        ext = self.extents[:axis] + (m, m) + self.extents[axis + 1:]
        join = max if eps == 0 else min

        def fn(p):
            a, b = p[axis], p[axis + 1]
            return self.value(p[:axis] + (join(a, b),) + p[axis + 2:])

        vals = tuple(fn(p) for p in _grid_points(ext))
        return StableCube(self.graph, ext, vals).trim()


def vertex_cube(graph, v):
    return StableCube(graph, (), (v,))


def walk_cube(graph, walk):
    """1-cube from a walk (sequence of adjacent-or-equal vertices)."""
    return StableCube.from_function(graph, (len(walk) - 1,),
                                    lambda p: walk[p[0]])


def open_box_filler_search(graph, n, missing, faces, window=4):
    """Search a filler for an open box with one face missing (n <= 2).

    ``missing`` is (i, eps); ``faces`` maps each other (j, delta) to a
    prescribed StableCube.  Prescribed faces are checked for mutual
    compatibility first.  The filler's prescribed faces are matched
    after trim.  Exhaustion at the window is a bounded non-result.
    """
    if n not in (1, 2):
        raise ValueError("open boxes supported for n <= 2")
    need = {(j, d) for j in range(1, n + 1) for d in (0, 1)} - {tuple(missing)}
    if set(faces) != need:
        raise ValueError(f"expected faces for exactly {sorted(need)}")

    if n == 1:
        (j, d), cube = next(iter(faces.items()))
        if cube.dim != 0:
            raise ValueError("a 1-box face must be a vertex")
        return Check(True,
                     {"filler": vertex_cube(graph, cube.grid[0]).degeneracy(1)})

    # compatibility of the three prescribed walks at shared corners
    for (j, d), cube in faces.items():
        if cube.dim != 1:
            raise ValueError("a 2-box face must be a 1-cube")
    for (j1, d1), c1 in faces.items():
        for (j2, d2), c2 in faces.items():
            if j1 == j2:
                continue
            # corner shared by faces (j1, d1) and (j2, d2)
            if c1.face(1, d2).grid != c2.face(1, d1).grid:
                return Check(False, {"incompatible": ((j1, d1), (j2, d2))})

    for m1 in range(window + 1):
        for m2 in range(window + 1):
            filler = _fill_grid(graph, (m1, m2), missing, faces)
            if filler is not None:
                return Check(True, {"filler": filler})
    return Check(False, {"exhausted": window})


def _pad_walk(cube, length):
    """Pad a trimmed walk to a given length by repeating the last value,
    or None if it is too long."""
    walk = list(cube.grid)
    if len(walk) > length + 1:
        return None
    return walk + [walk[-1]] * (length + 1 - len(walk))


def _fill_grid(graph, extents, missing, faces):
    m1, m2 = extents
    fixed = {}
    for (j, d), cube in faces.items():
        length = m2 if j == 1 else m1
        walk = _pad_walk(cube, length)
        if walk is None:
            return None
        for t, v in enumerate(walk):
            p = (0 if d == 0 else m1, t) if j == 1 else \
                (t, 0 if d == 0 else m2)
            if p in fixed and fixed[p] != v:
                return None
            fixed[p] = v

    points = list(_grid_points(extents))

    def ok_at(assign, p):
        v = assign[p]
        for i in (0, 1):
            q = p[:i] + (p[i] - 1,) + p[i + 1:]
            if q[i] >= 0 and q in assign and not graph.adjacent(assign[q], v):
                return False
        return True

    def rec(k, assign):
        if k == len(points):
            cube = StableCube.from_function(graph, extents,
                                            lambda p: assign[p], trim=False)
            for (j, d), want in faces.items():
                if cube.face(j, d) != want.trim():
                    return None
            return cube.trim()
        p = points[k]
        if p in fixed:
            assign[p] = fixed[p]
            if ok_at(assign, p):
                res = rec(k + 1, assign)
                if res is not None:
                    return res
            del assign[p]
            return None
        for v in sorted(graph.vertices, key=repr):
            assign[p] = v
            if ok_at(assign, p):
                res = rec(k + 1, assign)
                if res is not None:
                    return res
            del assign[p]
        return None

    return rec(0, {})
