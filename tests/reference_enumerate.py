"""Reference map enumerator: the search engine as it was before the face
index and the normal-form memo, kept as a differential oracle for
``fraction_forge.sset_core.enumerate``.  It scans every d-simplex of the
target for each cell and re-derives every face normal form.

Also the placement order as a fixed-point loop, and the two lifting
checks as nested loops over the engine's maps, as they were before
``first_unliftable``.
"""

from fraction_forge.fractions import shape
from fraction_forge.marked import marking_filter
from fraction_forge.sset_core import enumerate as engine
from fraction_forge.sset_core.nerves import horn, standard_simplex
from fraction_forge.sset_core.sset import SMap


def _placement_order(A, preassigned):
    """Cells of ``A`` ordered so each cell follows the cells of its faces,
    interleaved for early pruning.  Preassigned cells come first."""
    placed = set(preassigned)
    order = [c for cs in A.cells for c in cs if c in placed]
    remaining = [[c for c in cs if c not in placed] for cs in A.cells]
    total = sum(len(cs) for cs in remaining)
    while total:
        progress = True
        while progress:
            progress = False
            for d in range(1, len(remaining)):
                for c in list(remaining[d]):
                    if all(s.cell in placed for s in A.faces[c]):
                        order.append(c)
                        placed.add(c)
                        remaining[d].remove(c)
                        total -= 1
                        progress = True
        if remaining[0]:
            c = remaining[0].pop(0)
            order.append(c)
            placed.add(c)
            total -= 1
        elif total:
            # cells whose faces lie outside the complex cannot occur
            raise ValueError("face-closure violated in domain complex")
    return order


def enumerate_maps(A, X, partial=None, edge_ok=None):
    """All simplicial maps ``A -> X``, in deterministic order.

    ``partial`` preassigns image simplices to some cells (their face
    compatibility is enforced, not assumed).  ``edge_ok(cell, image)``
    filters images of non-degenerate 1-cells (e.g. marking preservation).
    """
    if A.top_dim() > X.dim_bound:
        raise ValueError(
            f"domain has cells in dimension {A.top_dim()} above the "
            f"codomain dim bound {X.dim_bound}")
    partial = dict(partial or {})
    order = _placement_order(A, partial)
    by_dim = {}

    def candidates(d):
        if d not in by_dim:
            by_dim[d] = X.simplices(d)
        return by_dim[d]

    asg = {}
    out = []

    def fits(c, d, s):
        if d == 0:
            return True
        for i in range(d + 1):
            fc = A.faces[c][i]
            want_img = asg[fc.cell]
            want = X.apply_cell(want_img.cell, _comp(want_img.op, fc.op))
            if X.simplex_face(s, i) != want:
                return False
        if d == 1 and edge_ok is not None and not edge_ok(c, s):
            return False
        return True

    def rec(k):
        if k == len(order):
            out.append(SMap(A, X, dict(asg)))
            return
        c = order[k]
        d = A.dim_of(c)
        if c in partial:
            s = partial[c]
            if fits(c, d, s):
                asg[c] = s
                rec(k + 1)
                del asg[c]
            return
        for s in candidates(d):
            if fits(c, d, s):
                asg[c] = s
                rec(k + 1)
                del asg[c]

    rec(0)
    return out


def _comp(f, g):
    return tuple(f[v] for v in g)


def has_rlp(mx, n, k, side="L"):
    """``fractions.has_rlp`` as nested loops: the J-maps under J's own
    marking, each extended over I under I's."""
    J = shape(n, k, side, "J")
    I = shape(n, k, side, "I")
    for f in engine.enumerate_maps(J.base, mx.base,
                                   edge_ok=marking_filter(J, mx)):
        if not engine.enumerate_maps(I.base, mx.base,
                                     partial=dict(f.assignment),
                                     edge_ok=marking_filter(I, mx), limit=1):
            return engine.Check(False, {"n": n, "k": k, "side": side,
                                        "map": f.serialize()})
    return engine.Check(True)


def is_quasicategory_upto(X, bound):
    """``sset_core.is_quasicategory_upto`` as nested loops."""
    if bound > X.dim_bound:
        raise ValueError("cannot check horns above the dim bound")
    for n in range(2, bound + 1):
        D = standard_simplex(n, bound=X.dim_bound)
        for k in range(1, n):
            H = horn(n, k, bound=X.dim_bound)
            for f in engine.enumerate_maps(H, X):
                if not engine.enumerate_maps(D, X, partial=dict(f.assignment),
                                             limit=1):
                    return engine.Check(False, {"n": n, "k": k,
                                                "horn_map": f.serialize()})
    return engine.Check(True)
