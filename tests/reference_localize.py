"""Differential oracles for ``fraction_forge.localize.gz_left_fractions``:
localization homs by brute force over zigzag words, and composition
over every representative and every completion."""

from itertools import product

from fraction_forge.marked import effective_marking
from fraction_forge.sset_core.unionfind import UnionFind


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
