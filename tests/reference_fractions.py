"""The classical and proper calculus-of-fractions deciders by full scans,
and the simple inner horn decompositions built one loop per shape: a
differential oracle for ``fraction_forge.fractions``.

Every condition scans every morphism against every marked arrow, in
sorted order, so the first failing witness is the one the indexed
deciders must also report.  The opposite category is rebuilt and
validated from scratch, independently of ``FinCategory.opposite``.
"""

from fraction_forge.marked import MarkedCategory, MarkedSSet, subset_nerve
from fraction_forge.sset_core.cat import FinCategory, Morphism, Poset
from fraction_forge.sset_core.enumerate import Check
from fraction_forge.sset_core.nerves import nerve_poset


def opposite(mc):
    C = mc.cat
    morphs = [Morphism(f, C.cod(f), C.dom(f)) for f in C.morphism_names()]
    comp = {(C.names[f], C.names[g]): C.names[h] for g, f, h in C.composites()}
    identities = {x: C.ident(x) for x in C.objects}
    return MarkedCategory(FinCategory(C.objects, morphs, identities, comp),
                          set(mc.marked))


def effective_marking(mc):
    """The names of the marked morphisms, identities included."""
    return set(mc.marked) | {mc.cat.ident(x) for x in mc.cat.objects}


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
            if not completions(mc, f, w):
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


def completions(mc, f, w):
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
            if not any(fp in W for fp, wp in completions(mc, f, w)):
                return Check(False, {"condition": "2'", "span": (f, w)})
    return Check(True)


def check_crf_classical(mc):
    return check_clf_classical(opposite(mc))


def check_proper_crf(mc):
    return check_proper_clf(opposite(mc))


# -- simple inner horn decompositions -----------------------------------

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
