"""Backtracking enumeration of simplicial maps and horn-filling checks."""

from itertools import count, islice

from .nerves import horn, standard_simplex
from .ops import compose, delta
from .sset import SMap


def _placement_order(A, preassigned):
    """Cells of ``A`` ordered so each cell follows the cells of its faces,
    interleaved for early pruning: the preassigned cells, then each free
    vertex followed by the cells whose last face it places, each step in
    ``A.cells`` order (by dimension, then index: the sort is stable)."""
    step, free = {}, count(1)
    for d, cs in enumerate(A.cells):
        for c in cs:
            if c in preassigned:
                step[c] = -1
            elif d == 0:
                step[c] = next(free)
            else:
                step[c] = max(0, *(step[f.cell] for f in A.faces[c]))
    return sorted(step, key=step.__getitem__)


def _maps(A, X, partial, edge_ok):
    """Assignments of the maps ``A -> X``, in enumeration order.

    Depth-first over ``_placement_order``.  A cell's candidates are the
    bucket of ``X``'s face index under the images of its faces, so each
    candidate already commutes with every face; buckets keep the order of
    ``X.simplices(d)``.  Normal forms are memoized on ``X``.
    """
    if A.top_dim() > X.dim_bound:
        raise ValueError(
            f"domain has cells in dimension {A.top_dim()} above the "
            f"codomain dim bound {X.dim_bound}")
    memo = X._nf_memo

    def normal_form(cell, op):
        s = memo.get((cell, op))
        if s is None:
            s = memo[cell, op] = X.apply_cell(cell, op)
        return s

    def faces_of(s):
        n = s.dim
        if n == 0:
            return ()
        return tuple(normal_form(s.cell, compose(s.op, delta(i, n)))
                     for i in range(n + 1))

    def bucket(d, want):
        index = X._face_index.get(d)
        if index is None:
            index = X._face_index[d] = {}
            for s in X.simplices(d):
                index.setdefault(faces_of(s), []).append(s)
        return index.get(want, ())

    order = _placement_order(A, partial)
    steps = []
    for c in order:
        d = A.dim_of(c)
        steps.append((c, d, [(f.cell, f.op) for f in A.faces[c]] if d else []))
    asg = {}

    def candidates(k):
        c, d, faces = steps[k]
        want = []
        for fc, fop in faces:
            img = asg[fc]
            want.append(normal_form(img.cell, compose(img.op, fop)))
        want = tuple(want)
        if c in partial:
            s = partial[c]
            cands = [s] if d == 0 or faces_of(s) == want else []
        else:
            cands = bucket(d, want)
        if d == 1 and edge_ok is not None:
            return (s for s in cands if edge_ok(c, s))
        return iter(cands)

    if not steps:
        yield {}
        return
    # iterative depth-first search: one candidate iterator per placed cell;
    # entries of asg beyond k are stale but only ever overwritten
    last = len(steps) - 1
    its = [candidates(0)]
    while its:
        k = len(its) - 1
        s = next(its[k], None)
        if s is None:
            its.pop()
            continue
        asg[steps[k][0]] = s
        if k == last:
            yield dict(asg)
        else:
            its.append(candidates(k + 1))


def enumerate_maps(A, X, partial=None, edge_ok=None, limit=None):
    """All simplicial maps ``A -> X``, in deterministic order.

    ``partial`` preassigns image simplices to some cells (their face
    compatibility is enforced, not assumed).  ``edge_ok(cell, image)``
    filters images of non-degenerate 1-cells (e.g. marking preservation).
    ``limit`` caps the number of maps returned (the first ones, in the
    same order).
    """
    found = islice(_maps(A, X, dict(partial or {}), edge_ok), limit)
    return [SMap(A, X, asg) for asg in found]


def first_unliftable(A, B, X, edge_ok=None):
    """The first map ``A -> X``, in enumeration order, with no extension
    over ``B ⊇ A``, or None: the deciders' one ∀∃ (lifting) search.
    ``edge_ok`` filters the edge images of both searches."""
    for f in enumerate_maps(A, X, edge_ok=edge_ok):
        if not enumerate_maps(B, X, partial=f.assignment, edge_ok=edge_ok,
                              limit=1):
            return f
    return None


class Check:
    """Outcome of a decidable check, with a witness on failure (or, where
    documented, an informative witness on success)."""

    def __init__(self, ok, witness=None):
        self.ok = ok
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ok, self.witness) == (other.ok, other.witness)
        return NotImplemented

    def __repr__(self):
        return f"Check(ok={self.ok!r}, witness={self.witness!r})"

    def __bool__(self):
        return self.ok


def is_quasicategory_upto(X, bound):
    """Inner-horn filling for ``2 <= n <= bound``; witness = unfillable horn."""
    if bound > X.dim_bound:
        raise ValueError("cannot check horns above the dim bound")
    for n in range(2, bound + 1):
        D = standard_simplex(n, bound=X.dim_bound)
        for k in range(1, n):
            f = first_unliftable(horn(n, k, bound=X.dim_bound), D, X)
            if f is not None:
                return Check(False, {"n": n, "k": k, "horn_map": f.serialize()})
    return Check(True)
