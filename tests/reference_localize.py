"""Differential oracles for ``fraction_forge.localize``: localization
homs by brute force over zigzag words, composition over every
representative and every completion, and full-scan versions of the
fraction category, the marked coslice, the filteredness check and the
category nerve, which find the arrows out of or into an object by
scanning every morphism; and the fraction category over arrow names,
the oracle of the one over arrow ids."""

from itertools import product

from fraction_forge.fractions import check_clf_classical
from fraction_forge.sset_core.cat import FinCategory, Morphism
from fraction_forge.sset_core.enumerate import Check
from fraction_forge.sset_core.nerves import normalize_chain
from fraction_forge.sset_core.sset import SSet
from fraction_forge.sset_core.unionfind import UnionFind
from reference_fractions import effective_marking


def zigzag_oracle(mc, x, y, max_len=6):
    """Brute-force localization homs by bounded zigzag words.

    Words are sequences of (dir, morphism); dir "+" is a morphism of C,
    dir "-" a formally reversed marked morphism.  The quotient is by
    identity insertion/removal, composition rewriting, and cancellation
    of inverse pairs, all within the length bound.  Returns the number of
    classes of words from x to y.

    The count is exact only where it is stable in ``max_len``: a rewrite
    through a word longer than the bound is never made.  Equal counts at
    two bounds are no proof: on ``chain3_marked_all``, from 0 to 1, the
    counts at ``max_len`` 4 to 8 are 1, 3, 3, 1, 1; the localization has 1.
    """
    C = mc.cat
    W = effective_marking(mc)

    def src(step):
        d, m = step
        return C.dom(m) if d == "+" else C.cod(m)

    def tgt(step):
        d, m = step
        return C.cod(m) if d == "+" else C.dom(m)

    all_words = {(): x}
    # enumerate composable words up to max_len from x
    reach = [((), x)]
    for _ in range(max_len):
        nxt = []
        for word, at in reach:
            for m in sorted(C.morphism_names()):
                if C.dom(m) == at:
                    nxt.append((word + (("+", m),), C.cod(m)))
                if m in W and C.cod(m) == at:
                    nxt.append((word + (("-", m),), C.dom(m)))
        reach = nxt
        for word, at in nxt:
            all_words[word] = at
    targets = [w for w, at in all_words.items() if at == y]

    uf = UnionFind()
    for w in targets:
        uf.add(w)

    def relate(a, b):
        if a in all_words and b in all_words and all_words[a] == y \
                and all_words[b] == y:
            uf.union(a, b)

    for word in list(all_words):
        if all_words[word] != y:
            continue
        n = len(word)
        for i in range(n + 1):
            at = x if i == 0 else tgt(word[i - 1])
            e = ("+", C.ident(at))
            if n + 1 <= max_len:
                relate(word, word[:i] + (e,) + word[i:])
            ei = ("-", C.ident(at))
            if n + 1 <= max_len:
                relate(word, word[:i] + (ei,) + word[i:])
        for i in range(n - 1):
            a, b = word[i], word[i + 1]
            if a[0] == "+" and b[0] == "+":
                relate(word, word[:i] + (("+", C.compose(b[1], a[1])),) + word[i + 2:])
            if a[0] == "-" and b[0] == "-":
                comp = C.compose(a[1], b[1])
                if comp in W:
                    relate(word, word[:i] + (("-", comp),) + word[i + 2:])
            if a[0] == "+" and b[0] == "-" and a[1] == b[1]:
                ident = ("+", C.ident(C.dom(a[1])))
                relate(word, word[:i] + (ident,) + word[i + 2:])
            if a[0] == "-" and b[0] == "+" and a[1] == b[1]:
                ident = ("+", C.ident(C.cod(a[1])))
                relate(word, word[:i] + (ident,) + word[i + 2:])
    return len({uf.find(w) for w in targets})



def composites_agree(mc, cat, info):
    """True if composition in the left fractions ``(cat, info)`` of ``mc``
    does not depend on the choices made: for classes a: x -> y and
    b: y -> z, every representative (f, w) of a, every representative
    (g, v) of b and every completion (u, s) of the span (g, w), with
    u.w = s.g and s marked, give (u.f, s.v) in the class b.a."""
    C = mc.cat
    W = effective_marking(mc)
    names = C.morphism_names()
    reps = {}
    for w in W:
        for f in names:
            if C.cod(f) == C.cod(w):
                reps.setdefault(info["cls"](f, w), []).append((f, w))
    for b in cat.morphism_names():
        for a in cat.morphism_names():
            if cat.cod(a) != cat.dom(b):
                continue
            ba = cat.compose(b, a)
            for (f, w), (g, v) in product(reps[a], reps[b]):
                for u, s in product(names, W):
                    if C.dom(u) == C.cod(w) and C.dom(s) == C.cod(g) \
                            and C.cod(s) == C.cod(u) \
                            and C.compose(u, w) == C.compose(s, g) \
                            and info["cls"](C.compose(u, f),
                                            C.compose(s, v)) != ba:
                        return False
    return True


def gz_left_fractions(mc):
    """Category of left fractions C W^{-1} with its canonical functor.

    Returns ``(cat, info)``; ``info`` has ``cls`` mapping a cospan
    ``(f, w)`` to its class name, ``canonical`` mapping a morphism of C
    to the class of ``(f, id)``, and ``rep`` mapping a class to its
    first cospan.  Requires classical CLF.
    """
    res = check_clf_classical(mc)
    if not res.ok:
        raise ValueError(f"left fractions need CLF; witness {res.witness}")
    C = mc.cat
    W = effective_marking(mc)
    names = sorted(C.morphism_names())

    cospans = {}
    for x in C.objects:
        for y in C.objects:
            cs = []
            for f in names:
                if C.dom(f) != x:
                    continue
                for w in sorted(W):
                    if C.dom(w) == y and C.cod(w) == C.cod(f):
                        cs.append((f, w))
            cospans[(x, y)] = cs

    uf = UnionFind()
    for cs in cospans.values():
        for c in cs:
            uf.add(c)
    for (x, y), cs in cospans.items():
        for f, w in cs:
            t0 = C.cod(f)
            for p in names:
                if C.dom(p) != t0:
                    continue
                pw = C.compose(p, w)
                if pw not in W:
                    continue
                uf.union((f, w), (C.compose(p, f), pw))

    cls_name = {}
    rep = {}
    for (x, y), cs in cospans.items():
        seen = {}
        for c in cs:
            r = uf.find(c)
            if r not in seen:
                seen[r] = ("gz", x, y, len(seen))
                rep[seen[r]] = c
            cls_name[c] = seen[r]

    def complete_span(g, w):
        """Condition-(2) completion of the span (g, w) sharing a source:
        the first (g', w2) with g'.w = w2.g and w2 marked."""
        for u in names:
            if C.dom(u) != C.cod(w):
                continue
            for s in names:
                if s not in W or C.dom(s) != C.cod(g) or C.cod(s) != C.cod(u):
                    continue
                if C.compose(u, w) == C.compose(s, g):
                    return u, s
        raise ValueError(f"CLF completion missing for span ({g}, {w})")

    def compose_cls(b, a):
        """Composite of class b: y -> z after class a: x -> y."""
        (f, w), (g, v) = rep[a], rep[b]
        u, s = complete_span(g, w)
        return cls_name[(C.compose(u, f), C.compose(s, v))]

    all_classes = sorted(rep)
    morphs = [Morphism(c, c[1], c[2]) for c in all_classes]
    idents = {x: cls_name[(C.ident(x), C.ident(x))] for x in C.objects}
    comp = {}
    for b in all_classes:
        for a in all_classes:
            if a[2] == b[1]:
                comp[(b, a)] = compose_cls(b, a)
    cat = FinCategory(C.objects, morphs, idents, comp)

    info = {
        "cls": lambda f, w: cls_name[(f, w)],
        "canonical": lambda f: cls_name[(f, C.ident(C.cod(f)))],
        "rep": rep,
    }
    return cat, info


# -- the fraction category over names -----------------------------------


def marked_tables_by_name(mc):
    """The marked arrows W (identities included), sorted, and the sorted
    lists of those out of and into each object."""
    C = mc.cat
    W = effective_marking(mc)
    ordered = sorted(W)
    out = {x: [] for x in C.objects}
    into = {x: [] for x in C.objects}
    for w in ordered:
        out[C.dom(w)].append(w)
        into[C.cod(w)].append(w)
    return W, ordered, out, into


def completion_by_name(C, f, w, out, among=None):
    """The first square (f', w') completing the span (f, w), with
    f'.w = w'.f, w' in the marked arrows ``out`` of the codomain of f
    and f' in ``among`` if given; None if there is none."""
    for wp in out[C.cod(f)]:
        target = C.compose(wp, f)
        for fp in C.hom(C.cod(w), C.cod(wp)):
            if C.compose(fp, w) == target and (among is None or fp in among):
                return fp, wp
    return None


def gz_left_fractions_by_name(mc):
    """Category of left fractions C W^{-1} with its canonical functor.

    Returns ``(cat, info)``; ``info`` has ``cls`` mapping a cospan
    ``(f, w)`` to its class name, ``canonical`` mapping a morphism of C
    to the class of ``(f, id)``, and ``rep`` mapping a class to its
    first cospan.  Requires classical CLF.
    """
    res = check_clf_classical(mc)
    if not res.ok:
        raise ValueError(f"left fractions need CLF; witness {res.witness}")
    C = mc.cat
    W, _, out, into = marked_tables_by_name(mc)
    cospans = {(x, y): [] for x in C.objects for y in C.objects}
    for f in sorted(C.morphism_names()):
        for w in into[C.cod(f)]:
            cospans[(C.dom(f), C.dom(w))].append((f, w))

    uf = UnionFind()
    for cs in cospans.values():
        for c in cs:
            uf.add(c)
    for cs in cospans.values():
        for f, w in cs:
            for p in C.out(C.cod(f)):
                pw = C.compose(p, w)
                if pw in W:
                    uf.union((f, w), (C.compose(p, f), pw))

    cls_name = {}
    rep = {}
    for (x, y), cs in cospans.items():
        seen = {}
        for c in cs:
            r = uf.find(c)
            if r not in seen:
                seen[r] = ("gz", x, y, len(seen))
                rep[seen[r]] = c
            cls_name[c] = seen[r]

    def compose_cls(b, a):
        """Composite of class b: y -> z after class a: x -> y."""
        (f, w), (g, v) = rep[a], rep[b]
        u, s = completion_by_name(C, g, w, out)
        return cls_name[(C.compose(u, f), C.compose(s, v))]

    all_classes = sorted(rep)
    morphs = [Morphism(c, c[1], c[2]) for c in all_classes]
    idents = {x: cls_name[(C.ident(x), C.ident(x))] for x in C.objects}
    ending = {y: [] for y in C.objects}
    for a in all_classes:
        ending[a[2]].append(a)
    comp = {(b, a): compose_cls(b, a)
            for b in all_classes for a in ending[b[1]]}
    cat = FinCategory(C.objects, morphs, idents, comp)

    info = {
        "cls": lambda f, w: cls_name[(f, w)],
        "canonical": lambda f: cls_name[(f, C.ident(C.cod(f)))],
        "rep": rep,
    }
    return cat, info


def is_filtered_category(cat):
    if not cat.objects:
        return Check(False, {"reason": "empty"})
    for a in cat.objects:
        for b in cat.objects:
            if not any(cat.dom(f) == a and any(
                    cat.dom(g) == b and cat.cod(g) == cat.cod(f)
                    for g in cat.morphism_names())
                    for f in cat.morphism_names()):
                return Check(False, {"reason": "no cocone", "pair": (a, b)})
    for f in cat.morphism_names():
        for g in cat.morphism_names():
            if cat.dom(f) == cat.dom(g) and cat.cod(f) == cat.cod(g) and f < g:
                if not any(cat.dom(h) == cat.cod(f)
                           and cat.compose(h, f) == cat.compose(h, g)
                           for h in cat.morphism_names()):
                    return Check(False, {"reason": "no coequalizing arrow",
                                         "pair": (f, g)})
    return Check(True)


def marked_coslice_category(mc, x):
    """1-categorical marked coslice at x: objects are marked arrows out
    of x, morphisms are commuting triangles."""
    C = mc.cat
    W = effective_marking(mc)
    objs = sorted(w for w in W if C.dom(w) == x)
    morphs = []
    comp = {}
    idents = {}
    tri = {}
    for w in objs:
        for w2 in objs:
            for a in sorted(C.morphism_names()):
                if C.dom(a) == C.cod(w) and C.cod(a) == C.cod(w2) \
                        and C.compose(a, w) == w2:
                    name = ("t", w, w2, a)
                    morphs.append(Morphism(name, w, w2))
                    tri[(w, w2, a)] = name
    for w in objs:
        idents[w] = tri[(w, w, C.ident(C.cod(w)))]
    for m1 in morphs:
        for m2 in morphs:
            if m2.dom != m1.cod:
                continue
            a = C.compose(m2.name[3], m1.name[3])
            comp[(m2.name, m1.name)] = tri[(m1.name[1], m2.name[2], a)]
    return FinCategory(objs, morphs, idents, comp)


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
