"""Fraction shapes, calculus-of-fractions deciders, simple inner horn
decompositions, and retraction checks.

Shapes L/R-I^n_k are nerves of posets of subsets of [n] containing k
(with inclusion, resp. reverse inclusion, order), edges marked by the
max-equal (resp. min-equal) rule; the J variant omits the vertex [n].
"""

from .marked import (
    MarkedSSet,
    effective_marking,
    is_weakly_closed,
    marking_filter,
    subset_nerve,
)
from .sset_core.cat import Poset
# ``enumerate_maps`` stays importable from here: perfbench's tracer tests
# read it under this name
from .sset_core.enumerate import Check, enumerate_maps, first_unliftable  # noqa: F401
from .sset_core.nerves import nerve_map, nerve_poset
from .sset_core.ops import identity_op
from .sset_core.sset import Simplex


# -- shapes --------------------------------------------------------------

L_SHAPES = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
R_SHAPES = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def shape(n, k, side="L", variant="I"):
    """The marked fraction shape (L/R)-(I/J)^n_k as a MarkedSSet."""
    if n < 1 or not (0 <= k <= n):
        raise ValueError(f"shape parameters out of range: n={n}, k={k}")
    if n > 3:
        raise ValueError("shapes truncated at n <= 3")
    if side not in ("L", "R") or variant not in ("I", "J"):
        raise ValueError(f"unknown side/variant {side}/{variant}")
    omit = (frozenset(range(n + 1)),) if variant == "J" else ()
    return subset_nerve(n, side, containing=k, omit=omit)


# -- right lifting property against shape inclusions ---------------------

def has_rlp(mx, n, k, side="L"):
    """RLP of (X, W) against (J -> I)^n_k; witness = unextendable map.
    J's marked edges are I's that lie in J, so I's marking filters both."""
    I = shape(n, k, side, "I")
    f = first_unliftable(shape(n, k, side, "J").base, I.base, mx.base,
                         edge_ok=marking_filter(I, mx))
    if f is None:
        return Check(True)
    return Check(False, {"n": n, "k": k, "side": side, "map": f.serialize()})


# -- classical calculus of fractions ------------------------------------

def marked_tables(mc):
    """The ids of the marked arrows W (identities included), every arrow
    id in the sorted order of the names, and the marked ids out of and
    into each object in that order."""
    C, W = mc.cat, effective_marking(mc)
    order = list(map(C.morphisms.__getitem__, sorted(C.morphisms)))
    out = {x: [] for x in C.objects}
    into = {x: [] for x in C.objects}
    for w in order:
        if w in W:
            out[C.doms[w]].append(w)
            into[C.cods[w]].append(w)
    return W, order, out, into


def check_clf_classical(mc):
    """Conditions (1)-(3) of the classical calculus of left fractions."""
    return _classical(mc.cat, *marked_tables(mc))


def _classical(C, W, order, out, into):
    # outer loops keep sorted order: the first witness is a full scan's
    names, doms, cods, t, n = C.names, C.doms, C.cods, C.table, len(C.names)
    # (1) closure under composition (identities are implicit)
    for w in order:
        for v in out[cods[w]] if w in W else ():
            if t[v * n + w] not in W:
                return Check(False, {"condition": 1, "pair": (names[w], names[v])})
    # (2) span completion; a span with an identity leg completes at once
    for f in order:
        e = C.idents[doms[f]]
        for w in out[doms[f]] if f != e else ():
            if w != e and completion(C, f, w, out) is None:
                return Check(False, {"condition": 2, "span": (names[f], names[w])})
    # (3) coequalizing marked arrows
    for f in order:
        x, y = doms[f], cods[f]
        hom = C.hom_ids(x, y)
        for g in sorted(hom, key=names.__getitem__) if len(hom) > 1 else ():
            if names[g] > names[f] and any(
                    t[f * n + w] == t[g * n + w] for w in into[x]) and not any(
                    t[v * n + f] == t[v * n + g] for v in out[y]):
                return Check(False, {"condition": 3, "pair": (names[f], names[g])})
    return Check(True)


def completion(C, f, w, out, among=None):
    """The first square (f', w') of ids completing the span (f, w), with
    f'.w = w'.f, w' in the marked arrows ``out`` of the codomain of f
    and f' in ``among`` if given; None if there is none."""
    t, n = C.table, len(C.names)
    for wp in out[C.cods[f]]:
        target = t[wp * n + f]
        for fp in C.hom_ids(C.cods[w], C.cods[wp]):
            if t[fp * n + w] == target and (among is None or fp in among):
                return fp, wp
    return None


def check_proper_clf(mc):
    """CLF plus the properness refinement of condition (2)."""
    C, tables = mc.cat, marked_tables(mc)
    base = _classical(C, *tables)
    if not base.ok:
        return base
    W, order, out, _ = tables
    for f in order:  # spans with an identity leg complete at once, as in (2)
        e = C.idents[C.doms[f]]
        for w in out[C.doms[f]] if f in W and f != e else ():
            if w != e and completion(C, f, w, out, among=W) is None:
                return Check(False, {"condition": "2'", "span": (C.names[f], C.names[w])})
    return Check(True)


def check_crf_classical(mc):
    return check_clf_classical(mc.opposite())


def check_proper_crf(mc):
    return check_proper_clf(mc.opposite())


# -- infinity-categorical calculus of fractions -------------------------

def check_clf_infty(mx, side="L", shapes=None, is_nerve=False):
    """Weak closure plus RLP against the fraction-shape inclusions.

    For nerves of categories the n <= 3 shape set decides CLF; for other
    inputs the verdict is labelled partial (dimension-3 evidence only).
    """
    wk = is_weakly_closed(mx)
    report = {"partial": not is_nerve, "shapes_checked": [],
              "weakly_closed": wk.ok}
    if not wk.ok:
        report["witness"] = wk.witness
        return Check(False, report)
    shapes = shapes if shapes is not None else (
        L_SHAPES if side == "L" else R_SHAPES)
    for (n, k) in shapes:
        res = has_rlp(mx, n, k, side)
        report["shapes_checked"].append([n, k, res.ok])
        if not res.ok:
            report["witness"] = res.witness
            return Check(False, report)
    return Check(True, report)


def check_crf_infty(mx, **kw):
    kw.setdefault("side", "R")
    return check_clf_infty(mx, **kw)


# -- simple inner horn decompositions -----------------------------------

def validate_sihd(ambient, image_cells, decomposition):
    """Clause-by-clause validation of a simple inner horn decomposition.

    ``ambient`` is a MarkedSSet; ``image_cells`` the set of cell names in
    the subcomplex image; ``decomposition`` maps dimension n to
    ``{"A": [class lists], "B": [class lists], "d": [face indices]}``.
    """
    Y = ambient.base
    image = set(image_cells)
    top = Y.top_dim()
    missing = {d: [c for c in Y.cells[d] if c not in image]
               for d in range(top + 1)}
    total_missing = sum(len(v) for v in missing.values())
    if total_missing == 0:
        return Check(True, {"empty": True})

    A = {n: decomposition.get(n, {}).get("A", []) for n in range(top + 1)}
    B = {n: decomposition.get(n, {}).get("B", []) for n in range(top + 1)}
    dfun = {n: decomposition.get(n, {}).get("d", []) for n in range(top + 1)}

    member_A = {}
    member_B = {}
    for n in range(top + 1):
        for k, cls in enumerate(A[n], start=1):
            for c in cls:
                member_A[c] = (n, k)
        for k, cls in enumerate(B[n], start=1):
            for c in cls:
                member_B[c] = (n, k)

    # partition of the missing cells; A^0, A^1, B^0 empty
    for n in range(top + 1):
        flat = [c for cls in A[n] for c in cls] + [c for cls in B[n] for c in cls]
        if len(set(flat)) != len(flat):
            return Check(False, {"clause": "disjointness", "dim": n})
        if set(flat) != set(missing[n]):
            return Check(False, {"clause": "partition", "dim": n})
    if any(A[n] and any(A[n][k] for k in range(len(A[n]))) for n in (0, 1)) \
            or (B[0] and any(B[0])):
        return Check(False, {"clause": "low-dim emptiness"})

    # index bookkeeping: b(1) = 1 and a(n+1) = b(n)
    if len(B[1]) != 1:
        return Check(False, {"clause": "b(1)=1", "got": len(B[1])})
    for n in range(1, top):
        if len(A[n + 1]) != len(B[n]):
            return Check(False, {"clause": "a(n+1)=b(n)", "dim": n,
                                 "a": len(A[n + 1]), "b": len(B[n])})
    for n in range(2, top + 1):
        if len(dfun[n]) != len(A[n]):
            return Check(False, {"clause": "d domain", "dim": n})
        if any(not (1 <= v <= n - 1) for v in dfun[n]):
            return Check(False, {"clause": "d range", "dim": n})

    for n in range(2, top + 1):
        for k, cls in enumerate(A[n], start=1):
            dk = dfun[n][k - 1]
            # clause (1): face d(k) bijects A^n_k onto B^{n-1}_k
            images = []
            for u in cls:
                s = Y.face(u, dk)
                if not s.nondegenerate or member_B.get(s.cell) != (n - 1, k):
                    return Check(False, {"clause": 1, "dim": n, "k": k,
                                         "cell": u, "face": s})
                images.append(s.cell)
            if len(set(images)) != len(images):
                return Check(False, {"clause": 1, "dim": n, "k": k,
                                     "reason": "not injective"})
            target = B[n - 1][k - 1] if k - 1 < len(B[n - 1]) else []
            if len(images) != len(target):
                return Check(False, {"clause": 1, "dim": n, "k": k,
                                     "reason": "not surjective"})
            # clause (2)
            if n == 2 and k == 1:
                for u in cls:
                    if ambient.is_marked(Y.face(u, 1)):
                        for i in range(3):
                            if not ambient.is_marked(Y.face(u, i)):
                                return Check(False, {"clause": 2, "cell": u,
                                                     "face": i})
            # clause (3)
            for u in cls:
                for i in range(n + 1):
                    if i == dk:
                        continue
                    s = Y.face(u, i)
                    v, p = s.cell, len(set(s.op)) - 1
                    if v in image:
                        continue
                    if v in member_A:
                        continue
                    if v in member_B:
                        bn, bk = member_B[v]
                        if p < n - 1:
                            continue
                        if p == n - 1 and bn == n - 1 and bk < k:
                            continue
                    return Check(False, {"clause": 3, "dim": n, "k": k,
                                         "cell": u, "face": i})
    return Check(True, {"missing": total_missing})


def _decomposition(N, image, split):
    """The classes ``A`` and ``B`` and face indices ``d`` of a simple
    inner horn decomposition of the chains of ``N`` outside ``image``,
    in every dimension up to N's top; ``split(chain)`` gives the 1-based
    index of the chain's class and whether that class is in ``A``."""
    decomposition = {}
    for m in range(N.top_dim() + 1):
        A = [[] for _ in range(m - 1)]
        B = [[] for _ in range(m)]
        for chain in N.cells[m]:
            if chain not in image:
                j, in_A = split(chain)
                (A if in_A else B)[j - 1].append(chain)
        decomposition[m] = {"A": A, "B": B, "d": list(range(1, m))}
    return decomposition


def build_sihd_jk(n, k):
    """The decomposition of J^n_k inside K^n_k (subdivision subcomplexes).

    Returns ``(ambient, image_cells, decomposition)`` ready for
    validate_sihd.  Cells are chains of non-empty subsets of [n].
    """
    if not (0 < k <= n) or n > 4:
        raise ValueError("need 0 < k <= n <= 4")
    full = frozenset(range(n + 1))
    ambient = subset_nerve(n, omit=(full - {k},))
    N = ambient.base
    # J^n_k: the chains that miss [n] or start at a subset containing k
    image = {c for cs in N.cells for c in cs if full not in c or k in c[0]}

    def split(chain):
        j = next(i for i, A in enumerate(chain) if k in A)
        return j, j < len(chain) - 1 and chain[j] == chain[j - 1] | {k}

    return ambient, image, _decomposition(N, image, split)


def build_sihd_prodjoin(P_marked, Q):
    """The decomposition for the pushout inclusion into (P×Δ¹)⋆Δ⁰.

    ``P_marked`` is a marked poset given as ``(poset, marked_pairs)``
    with marked_pairs a set of (a, b) related pairs; ``Q`` a subset of
    its elements.  Returns ``(ambient, image_cells, decomposition)``.
    """
    poset, marked_pairs = P_marked
    TOP = ("top",)
    elems = [(x, e) for x in poset.elements for e in (0, 1)] + [TOP]

    def leq(a, b):
        if b == TOP:
            return True
        if a == TOP:
            return a == b
        return poset.leq(a[0], b[0]) and a[1] <= b[1]

    # a chain below the cone point has at most |P| + 1 elements: one per
    # element of P, plus one where the level flips
    N = nerve_poset(Poset.from_leq(elems, leq), len(poset.elements) + 1)
    marked = set()
    for c in N.cells[1]:
        a, b = c
        if b == TOP:
            if a[0] in Q:
                marked.add(c)
        elif a[0] == b[0] or (a[0], b[0]) in marked_pairs:
            marked.add(c)
    # missing: the chains from level 0 to the cone point
    image = {c for cs in N.cells for c in cs
             if not (c[0] != TOP and c[0][1] == 0 and c[-1] == TOP)}

    def split(chain):
        # chain = ((x0,0) <= ... <= (x_{m-1}, e_{m-1}) <= TOP); j follows
        # the last level-0 element
        j = max(i for i, (_, e) in enumerate(chain[:-1]) if e == 0) + 1
        return j, j < len(chain) - 1 and chain[j][0] == chain[j - 1][0]

    return MarkedSSet(N, marked), image, _decomposition(N, image, split)


# -- retraction checks ---------------------------------------------------

def _marked_retract(low, high, sec, ret):
    """Check that the monotone maps of subsets ``sec`` and ``ret`` make
    the marked subset-poset nerve ``low`` a retract of ``high``: the
    nerve maps s: low -> high and r: high -> low they induce are
    simplicial, send marked edges to marked edges, and r.s is the
    identity."""
    s = nerve_map(sec, low.base, high.base)
    r = nerve_map(ret, high.base, low.base)
    s.validate()
    r.validate()
    for f, src, dst, name in ((s, low, high, "section"),
                              (r, high, low, "retraction")):
        for c in src.base.cells[1]:
            if c in src.marked and not dst.is_marked(f.on_cell(c)):
                return Check(False, {"edge": c, "map": name})
    for d, cs in enumerate(low.base.cells):
        for c in cs:
            if r(s.on_cell(c)) != Simplex(identity_op(d), c):
                return Check(False, {"section": c})
    return Check(True)


def retract_check(kind, n, k):
    """Verify one of the three retraction lemmas by direct computation.

    kind: "J-in-SdHorn" (L-J^n_k -> L-I^n_k is a retract of
    Sd Λ^n_k -> Sd Δⁿ via A -> A ∪ {k}), "Knk-in-Sd" (K^n_k has a
    marking-preserving retraction from Sd Δⁿ, k < n), or
    "k-eq-n-redundant" (L-J^n_n -> L-I^n_n retracts off level n+1).
    Each kind names its pairs ``(low, high)`` and its section and
    retraction on subsets; ``_marked_retract`` checks every pair.
    """
    full = frozenset(range(n + 1))
    if kind == "J-in-SdHorn":
        if not (0 <= k <= n and n <= 3):
            raise ValueError("need 0 <= k <= n <= 3")
        horn = subset_nerve(n, omit=(full, full - {k}))
        pairs = [(shape(n, k, "L", "J"), horn),
                 (shape(n, k, "L", "I"), subset_nerve(n))]
        sec, ret = (lambda A: A), (lambda A: A | {k})
    elif kind == "Knk-in-Sd":
        if not (0 <= k < n and n <= 3):
            raise ValueError("need 0 <= k < n <= 3")
        facet = full - {k}
        pairs = [(subset_nerve(n, omit=(facet,)), subset_nerve(n))]
        sec, ret = (lambda A: A), (lambda A: full if A == facet else A)
    elif kind == "k-eq-n-redundant":
        if not (1 <= n <= 2):
            raise ValueError("need 1 <= n <= 2 (level n+1 shape must fit in n <= 3)")
        pairs = [(shape(n, n, "L", v), shape(n + 1, n, "L", v))
                 for v in ("J", "I")]
        sec, ret = (lambda A: A | {n + 1}), (
            lambda A: frozenset(min(x, n) for x in A) if n + 1 in A
            else frozenset({n}))
    else:
        raise ValueError(f"unknown retraction kind {kind!r}")
    for low, high in pairs:
        res = _marked_retract(low, high, sec, ret)
        if not res.ok:
            return res
    return Check(True)
