"""The classical and proper calculus-of-fractions deciders by full scans:
a differential oracle for ``fraction_forge.fractions``.

Every condition scans every morphism against every marked arrow, in
sorted order, so the first failing witness is the one the indexed
deciders must also report.  The opposite category is rebuilt and
validated from scratch, independently of ``FinCategory.opposite``.
"""

from fraction_forge.marked import MarkedCategory, effective_marking
from fraction_forge.sset_core.cat import FinCategory, Morphism
from fraction_forge.sset_core.enumerate import Check


def opposite(mc):
    C = mc.cat
    morphs = [Morphism(m.name, m.cod, m.dom) for m in C.morphisms.values()]
    comp = {(f, g): h for (g, f), h in C.comp.items()}
    return MarkedCategory(FinCategory(C.objects, morphs, C.identities, comp),
                          set(mc.marked))


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
