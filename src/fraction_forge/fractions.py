"""Fraction shapes, calculus-of-fractions deciders, simple inner horn
decompositions, and retraction checks.

Shapes L/R-I^n_k are nerves of posets of subsets of [n] containing k
(with inclusion, resp. reverse inclusion, order), edges marked by the
max-equal (resp. min-equal) rule; the J variant omits the vertex [n].
"""

from .marked import (
    MarkedSSet,
    effective_marking,
    enumerate_marked_maps,
    is_weakly_closed,
    subset_nerve,
)
from .sset_core.build import opposite_sset
from .sset_core.cat import Poset
# ``enumerate_maps`` stays importable from here: perfbench's tracer tests
# read it under this name
from .sset_core.enumerate import Check, enumerate_maps  # noqa: F401
from .sset_core.nerves import nerve_map, nerve_poset, sub_sset
from .sset_core.ops import identity_op
from .sset_core.sset import SMap, Simplex


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


def flip_iso(n, k):
    """Isomorphism (L-I^n_k)^op -> R-I^n_{n-k} induced by i -> n - i.

    Returns the SMap between the opposite of the L shape and the R shape
    (chains reversed, subsets flipped).
    """
    L = shape(n, k, "L", "I")
    R = shape(n, n - k, "R", "I")
    Lop = opposite_sset(L.base)

    def flip(A):
        return frozenset(n - i for i in A)

    asg = {}
    for d, cs in enumerate(Lop.cells):
        for chain in cs:
            img = tuple(flip(A) for A in reversed(chain))
            asg[chain] = Simplex(identity_op(d), img)
    f = SMap(Lop, R.base, asg)
    f.validate()
    return f


# -- right lifting property against shape inclusions ---------------------

def has_rlp(mx, n, k, side="L"):
    """RLP of (X, W) against (J -> I)^n_k; witness = unextendable map."""
    J = shape(n, k, side, "J")
    I = shape(n, k, side, "I")
    for f in enumerate_marked_maps(J, mx):
        if not enumerate_marked_maps(I, mx, partial=dict(f.assignment),
                                     limit=1):
            return Check(False, {"n": n, "k": k, "side": side,
                                 "map": f.serialize()})
    return Check(True)


# -- classical calculus of fractions ------------------------------------

def check_clf_classical(mc):
    """Conditions (1)-(3) of the classical calculus of left fractions."""
    C = mc.cat
    W = effective_marking(mc)
    # (1) closure under composition (identities are implicit)
    for w in sorted(W):
        for v in sorted(W):
            if C.dom(v) == C.cod(w) and C.compose(v, w) not in W:
                return Check(False, {"condition": 1, "pair": (w, v)})
    # (2) span completion
    for f in sorted(C.morphism_names()):
        for w in sorted(W):
            if C.dom(w) != C.dom(f):
                continue
            if not _completions(mc, f, w):
                return Check(False, {"condition": 2, "span": (f, w)})
    # (3) coequalizing marked arrows
    for f in sorted(C.morphism_names()):
        for g in sorted(C.morphism_names()):
            if f >= g or C.dom(f) != C.dom(g) or C.cod(f) != C.cod(g):
                continue
            has_w = any(C.compose(f, w) == C.compose(g, w)
                        for w in sorted(W) if C.cod(w) == C.dom(f))
            if not has_w:
                continue
            has_v = any(C.compose(v, f) == C.compose(v, g)
                        for v in sorted(W) if C.dom(v) == C.cod(f))
            if not has_v:
                return Check(False, {"condition": 3, "pair": (f, g)})
    return Check(True)


def _completions(mc, f, w):
    """Squares (f', w') with f'.w = w'.f and w' marked, for a span (f, w)."""
    C = mc.cat
    W = effective_marking(mc)
    out = []
    for fp in sorted(C.morphism_names()):
        if C.dom(fp) != C.cod(w):
            continue
        for wp in sorted(W):
            if C.dom(wp) != C.cod(f) or C.cod(wp) != C.cod(fp):
                continue
            if C.compose(fp, w) == C.compose(wp, f):
                out.append((fp, wp))
    return out


def check_proper_clf(mc):
    """CLF plus the properness refinement of condition (2)."""
    base = check_clf_classical(mc)
    if not base.ok:
        return base
    C = mc.cat
    W = effective_marking(mc)
    for f in sorted(W):
        for w in sorted(W):
            if C.dom(w) != C.dom(f):
                continue
            if not any(fp in W for fp, wp in _completions(mc, f, w)):
                return Check(False, {"condition": "2'", "span": (f, w)})
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


# -- coequalize-many lemma ----------------------------------------------

def coequalize_many(mc, pairs):
    """A single marked arrow coequalizing many marked-coequalized pairs.

    Each pair (f, g) must be parallel and admit w marked with fw = gw;
    under CLF condition (3) a common u with uf = ug for all pairs is
    built by induction.  Returns Check with witness {"u": name}.
    """
    C = mc.cat
    W = effective_marking(mc)
    if not pairs:
        raise ValueError("need at least one pair")
    y = C.cod(pairs[0][0])
    for f, g in pairs:
        if C.dom(f) != C.dom(pairs[0][0]) or C.cod(f) != y \
                or C.dom(g) != C.dom(f) or C.cod(g) != y:
            raise ValueError("pairs must be parallel with a common target")
        if not any(C.compose(f, w) == C.compose(g, w)
                   for w in sorted(W) if C.cod(w) == C.dom(f)):
            raise ValueError(f"pair {(f, g)} is not coequalized by any marked arrow")
    u = C.ident(y)
    for f, g in pairs:
        uf, ug = C.compose(u, f), C.compose(u, g)
        if uf == ug:
            continue
        found = None
        for v in sorted(W):
            if C.dom(v) == C.cod(u) and C.compose(v, uf) == C.compose(v, ug):
                found = v
                break
        if found is None:
            return Check(False, {"stuck_pair": (f, g), "u": u})
        u = C.compose(found, u)
    return Check(True, {"u": u})


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


def build_sihd_jk(n, k):
    """The decomposition of J^n_k inside K^n_k (subdivision subcomplexes).

    Returns ``(ambient, image_cells, decomposition)`` ready for
    validate_sihd.  Cells are chains of non-empty subsets of [n].
    """
    if not (0 < k <= n) or n > 4:
        raise ValueError("need 0 < k <= n <= 4")
    full = frozenset(range(n + 1))
    facet = full - {k}
    ambient = subset_nerve(n, omit=(facet,))
    N = ambient.base

    def in_J(chain):
        if all(A not in (full, facet) for A in chain):
            return True
        return k in chain[0]

    image = {c for cs in N.cells for c in cs if in_J(c)}

    top = N.top_dim()
    decomposition = {}
    for m in range(top + 1):
        S = [[] for _ in range(max(m - 1, 0))]
        T = [[] for _ in range(m)] if m >= 1 else []
        for chain in N.cells[m]:
            if chain in image:
                continue
            # missing chains end at [n] with k not in the first subset
            j = next(i for i, Aset in enumerate(chain) if k in Aset)
            if j <= m - 1 and chain[j] == chain[j - 1] | {k}:
                S[j - 1].append(chain)
            else:
                T[j - 1].append(chain)
        decomposition[m] = {"A": S, "B": T,
                            "d": list(range(1, max(m - 1, 0) + 1))}
    return ambient, image, decomposition


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

    big = Poset.from_leq(elems, leq)
    # longest chains: alternating chains of P-chains with a level step + cone
    bound = _longest_chain(poset) + 2  # one level flip plus the cone point
    N = nerve_poset(big, bound)
    marked = set()
    for c in N.cells[1]:
        a, b = c
        if b == TOP:
            if a[0] in Q:
                marked.add(c)
        elif a[0] == b[0] or (a[0], b[0]) in marked_pairs:
            marked.add(c)
    ambient = MarkedSSet(N, marked)

    def in_image(chain):
        return not (chain[0] != TOP and chain[0][1] == 0 and chain[-1] == TOP)

    image = {c for cs in N.cells for c in cs if in_image(c)}

    top = N.top_dim()
    decomposition = {}
    for m in range(top + 1):
        A = [[] for _ in range(max(m - 1, 0))]
        B = [[] for _ in range(m)] if m >= 1 else []
        for chain in N.cells[m]:
            if chain in image:
                continue
            # chain = ((x0,0) <= ... <= (x_{m-1}, e_{m-1}) <= TOP)
            eps = [el[1] for el in chain[:-1]]
            xs = [el[0] for el in chain[:-1]]
            j = max(i for i, e in enumerate(eps) if e == 0)
            kk = j + 1
            if kk <= m - 1 and xs[kk] == xs[kk - 1]:
                A[kk - 1].append(chain)
            else:
                B[kk - 1].append(chain)
        decomposition[m] = {"A": A, "B": B,
                            "d": list(range(1, max(m - 1, 0) + 1))}
    return ambient, image, decomposition


def _longest_chain(poset):
    best = {}

    def depth(x):
        if x in best:
            return best[x]
        d = 0
        for y in poset.elements:
            if y != x and poset.leq(y, x):
                d = max(d, depth(y) + 1)
        best[x] = d
        return d

    return max((depth(x) for x in poset.elements), default=0)


# -- retraction checks ---------------------------------------------------

def retract_check(kind, n, k):
    """Verify one of the three retraction lemmas by direct computation.

    kind: "J-in-SdHorn" (L-J^n_k -> L-I^n_k is a retract of
    Sd Λ^n_k -> Sd Δⁿ via A -> A ∪ {k}), "Knk-in-Sd" (K^n_k has a
    marking-preserving retraction from Sd Δⁿ, k < n), or
    "k-eq-n-redundant" (L-J^n_n -> L-I^n_n retracts off level n+1).
    """
    if kind == "J-in-SdHorn":
        if not (0 <= k <= n and n <= 3):
            raise ValueError("need 0 <= k <= n <= 3")
        full = frozenset(range(n + 1))
        facet = full - {k}
        msd = subset_nerve(n)
        Nsd = msd.base
        horn_cells = {c for cs in Nsd.cells for c in cs
                      if all(A not in (full, facet) for A in c)}
        NH = sub_sset(Nsd, lambda c: c in horn_cells)
        I = shape(n, k, "L", "I")
        J = shape(n, k, "L", "J")
        # section: shapes are chain nerves over a sub-poset of sd
        # retraction r(A) = A ∪ {k}
        r_full = nerve_map(lambda A: A | {k}, Nsd, I.base)
        r_horn = nerve_map(lambda A: A | {k}, NH, J.base)
        for f, src_marked, dst in ((r_full, msd, I), ):
            f.validate()
            for c in src_marked.base.cells[1]:
                if c in src_marked.marked and not dst.is_marked(f.on_cell(c)):
                    return Check(False, {"edge": c})
        r_horn.validate()
        # r restricted to the shape is the identity (section property)
        for d, cs in enumerate(I.base.cells):
            for c in cs:
                if r_full.on_cell(c) != Simplex(identity_op(d), c):
                    return Check(False, {"section": c})
        # square commutes: horn-level retraction is the restriction
        for d, cs in enumerate(NH.cells):
            for c in cs:
                if r_horn.on_cell(c) != r_full.on_cell(c):
                    return Check(False, {"square": c})
        return Check(True)

    if kind == "Knk-in-Sd":
        if not (0 <= k < n and n <= 3):
            raise ValueError("need 0 <= k < n <= 3")
        full = frozenset(range(n + 1))
        facet = full - {k}
        msd = subset_nerve(n)
        mk = subset_nerve(n, omit=(facet,))
        NK = mk.base
        r = nerve_map(lambda A: full if A == facet else A, msd.base, NK)
        r.validate()
        for c in msd.base.cells[1]:
            if c in msd.marked and not mk.is_marked(r.on_cell(c)):
                return Check(False, {"edge": c})
        for d, cs in enumerate(NK.cells):
            for c in cs:
                if r.on_cell(c) != Simplex(identity_op(d), c):
                    return Check(False, {"section": c})
        return Check(True)

    if kind == "k-eq-n-redundant":
        if not (1 <= n <= 2):
            raise ValueError("need 1 <= n <= 2 (level n+1 shape must fit in n <= 3)")
        Jlow = shape(n, n, "L", "J")
        Ilow = shape(n, n, "L", "I")
        Jhigh = shape(n + 1, n, "L", "J")
        Ihigh = shape(n + 1, n, "L", "I")

        def sec(A):
            return frozenset(A) | {n + 1}

        def ret(A):
            if n + 1 in A:
                return frozenset(x if x <= n else n for x in A)
            return frozenset({n})

        for (low, high) in ((Jlow, Jhigh), (Ilow, Ihigh)):
            s = nerve_map(sec, low.base, high.base)
            r = nerve_map(ret, high.base, low.base)
            s.validate()
            r.validate()
            for c in low.base.cells[1]:
                if c in low.marked and not high.is_marked(s.on_cell(c)):
                    return Check(False, {"edge": c, "map": "section"})
            for c in high.base.cells[1]:
                if c in high.marked and not low.is_marked(r.on_cell(c)):
                    return Check(False, {"edge": c, "map": "retraction"})
            for d, cs in enumerate(low.base.cells):
                for c in cs:
                    rc = r(s.on_cell(c))
                    if rc != Simplex(identity_op(d), c):
                        return Check(False, {"section": c})
        return Check(True)

    raise ValueError(f"unknown retraction kind {kind!r}")
