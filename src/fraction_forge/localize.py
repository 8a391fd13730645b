"""Localization machinery: Gabriel-Zisman fraction categories, homotopy
categories of truncated quasicategories, the filtered-colimit hom
formula, marked slices and fraction mapping spaces, filteredness checks,
and the three-way localization comparison.
"""

from .exfunctor import ex_plus, ex_to_sset, max_star
from .fractions import check_clf_classical, check_proper_clf
from .marked import MarkedSSet, effective_marking, nerve_marked, opposite_marked
from .sset_core.build import end_inclusion, from_levels, product, product_map
from .sset_core.cat import FinCategory, Morphism
from .sset_core.enumerate import Check, enumerate_maps, is_quasicategory_upto
from .sset_core.nerves import simplex_inclusion, simplex_map, standard_simplex
from .sset_core.ops import delta, sigma
from .sset_core.sset import Simplex, compose_smap
from .sset_core.unionfind import UnionFind


# -- homotopy category of a truncated quasicategory ---------------------


def ho_of_qcat(X, check_qcat=True):
    """Homotopy category of a 2-truncated quasicategory.

    Returns ``(cat, cls)`` where ``cls`` maps a 1-simplex of ``X`` (in
    normal form) to its morphism name.  Composition picks 2-cell
    witnesses; a missing or inconsistent witness raises.
    """
    if check_qcat:
        res = is_quasicategory_upto(X, 2)
        if not res.ok:
            raise ValueError(f"not a quasicategory up to dim 2: {res.witness}")
    ones = X.simplices(1)
    uf = UnionFind()
    for s in ones:
        uf.add(s)
    for u in X.simplices(2):
        f0, f1, f2 = (X.simplex_face(u, i) for i in range(3))
        if not f0.nondegenerate:
            uf.union(f2, f1)
        if not f2.nondegenerate:
            uf.union(f0, f1)
    classes = uf.classes()
    reps = {}
    for s in ones:  # first simplex in deterministic order represents
        r = uf.find(s)
        if r not in reps:
            reps[r] = s
    name_of = {}
    morphs = []
    for s in ones:
        r = uf.find(s)
        if reps[r] == s:
            name = ("h", s.op, s.cell)
            for t in classes[r]:
                name_of[t] = name
            morphs.append(Morphism(name, X.simplex_face(s, 1).cell,
                                   X.simplex_face(s, 0).cell))
    idents = {v: name_of[Simplex((0, 0), v)] for v in X.cells[0]}
    comp = {}
    for u in X.simplices(2):
        f = name_of[X.simplex_face(u, 2)]
        g = name_of[X.simplex_face(u, 0)]
        h = name_of[X.simplex_face(u, 1)]
        prev = comp.get((g, f))
        if prev is not None and prev != h:
            raise ValueError(f"composition not well-defined at ({g}, {f})")
        comp[(g, f)] = h
    by_cod = {}
    for m in morphs:
        by_cod.setdefault(m.cod, []).append(m)
    for g in morphs:
        for f in by_cod.get(g.dom, []):
            # f: a -> g.dom, then g
            if (g.name, f.name) not in comp:
                raise ValueError(
                    f"no 2-cell witness for composite ({g.name}, {f.name})")
    cat = FinCategory([v for v in X.cells[0]], morphs, idents, comp)
    return cat, (lambda s: name_of[s])


def natural_marking(X, qcat_bound=2):
    """Mark a quasicategory at its Ho-invertible edges.

    Raises if inner-horn filling fails up to ``qcat_bound`` — the
    invertibility criterion is only meaningful for quasicategories.
    """
    res = is_quasicategory_upto(X, min(qcat_bound, X.dim_bound))
    if not res.ok:
        raise ValueError(f"natural marking needs a quasicategory; witness {res.witness}")
    ho, cls = ho_of_qcat(X)
    marked = {c for c in X.cells[1] if ho.is_iso(cls(Simplex((0, 1), c)))}
    return MarkedSSet(X, marked)


def ho_well_defined_check(X):
    """Exhaustive check that 2-cell witnesses give a single composite."""
    try:
        ho_of_qcat(X)
    except ValueError as e:
        return Check(False, str(e))
    return Check(True)


# -- Gabriel-Zisman fractions -------------------------------------------


def gz_left_fractions(mc, completion_order="forward", exhaustive=False):
    """Category of left fractions C W^{-1} with its canonical functor.

    Returns ``(cat, info)``; ``info`` has ``cls`` mapping a cospan
    ``(f, w)`` to its class name and ``canonical`` mapping a morphism of
    C to the class of ``(f, id)``.  Requires classical CLF.
    """
    res = check_clf_classical(mc)
    if not res.ok:
        raise ValueError(f"left fractions need CLF; witness {res.witness}")
    C = mc.cat
    W = effective_marking(mc)
    names = sorted(C.morphism_names())
    if completion_order == "reverse":
        names = names[::-1]

    cospans = {}
    for x in C.objects:
        for y in C.objects:
            cs = []
            for f in sorted(C.morphism_names()):
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
            for p in sorted(C.morphism_names()):
                if C.dom(p) != t0:
                    continue
                pw = C.compose(p, w)
                if pw not in W:
                    continue
                uf.union((f, w), (C.compose(p, f), pw))

    cls_name = {}
    for (x, y), cs in cospans.items():
        seen = {}
        for c in cs:
            r = uf.find(c)
            if r not in seen:
                seen[r] = ("gz", x, y, len(seen))
            cls_name[c] = seen[r]

    def complete_span(g, w):
        """Condition-(2) completion of the span (g, w) sharing a source:
        returns (g', w2) with g'.w = w2.g and w2 marked."""
        outs = []
        for u in names:
            if C.dom(u) != C.cod(w):
                continue
            for s in names:
                if s not in W or C.dom(s) != C.cod(g) or C.cod(s) != C.cod(u):
                    continue
                if C.compose(u, w) == C.compose(s, g):
                    if not exhaustive:
                        return [(u, s)]
                    outs.append((u, s))
        if not outs:
            raise ValueError(f"CLF completion missing for span ({g}, {w})")
        return outs

    def compose_cls(b, a):
        """Composite of class b: y -> z after class a: x -> y."""
        results = set()
        reps_a = [c for c in cospans[(a[1], a[2])] if cls_name[c] == a] \
            if exhaustive else [next(c for c in cospans[(a[1], a[2])]
                                     if cls_name[c] == a)]
        reps_b = [c for c in cospans[(b[1], b[2])] if cls_name[c] == b] \
            if exhaustive else [next(c for c in cospans[(b[1], b[2])]
                                     if cls_name[c] == b)]
        for f, w in reps_a:
            for g, v in reps_b:
                for u, s in complete_span(g, w):
                    results.add(cls_name[(C.compose(u, f), C.compose(s, v))])
        if len(results) != 1:
            raise ValueError(
                f"fraction composition not well-defined: {sorted(results)}")
        return next(iter(results))

    all_classes = sorted(set(cls_name.values()))
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
        "cospans": cospans,
        "cls_name": cls_name,
    }
    return cat, info


def gz_right_fractions(mc, **kw):
    """Category of right fractions, via duality."""
    cat_op, info_op = gz_left_fractions(mc.opposite(), **kw)
    cat = cat_op.opposite()
    info = {
        "cls": lambda f, w: info_op["cls"](f, w),
        "canonical": info_op["canonical"],
        "cls_name": info_op["cls_name"],
    }
    return cat, info


def localization_inverts(mc, cat, info):
    """Every marked morphism becomes invertible in the fraction category."""
    for w in effective_marking(mc):
        if not cat.is_iso(info["canonical"](w)):
            return Check(False, {"marked": w})
    return Check(True)


def zigzag_oracle(mc, x, y, max_len=6):
    """Brute-force localization homs by bounded zigzag words.

    Words are sequences of (dir, morphism); dir "+" is a morphism of C,
    dir "-" a formally reversed marked morphism.  The quotient is by
    identity insertion/removal, composition rewriting, and cancellation
    of inverse pairs, all within the length bound.  Returns the number of
    classes of words from x to y.
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


# -- filtered-colimit hom formula ---------------------------------------


def hom_via_colimit(mc, x, y):
    """Hom in the localization as a colimit over the marked coslice.

    Returns ``(classes, cls)`` where elements are pairs ``(w, f)`` with
    ``w: y -> y'`` marked and ``f: x -> y'``, modulo the span relation.
    """
    res = check_clf_classical(mc)
    if not res.ok:
        raise ValueError(f"colimit formula needs CLF; witness {res.witness}")
    C = mc.cat
    W = effective_marking(mc)
    elems = []
    for w in sorted(W):
        if C.dom(w) != y:
            continue
        for f in sorted(C.morphism_names()):
            if C.dom(f) == x and C.cod(f) == C.cod(w):
                elems.append((w, f))
    uf = UnionFind()
    for e in elems:
        uf.add(e)
    for w, f in elems:
        for a in sorted(C.morphism_names()):
            if C.dom(a) != C.cod(w):
                continue
            aw = C.compose(a, w)
            if aw in W:
                uf.union((w, f), (aw, C.compose(a, f)))
    classes = sorted({uf.find(e) for e in elems}, key=repr)
    return classes, (lambda e: uf.find(e))


def colimit_vs_gz(mc, x, y, gz=None):
    """Bijection between the colimit formula and gz fraction classes."""
    if gz is None:
        gz = gz_left_fractions(mc)
    cat, info = gz
    classes, cls = hom_via_colimit(mc, x, y)
    # map each colimit class to the gz class of the same cospan
    C = mc.cat
    W = effective_marking(mc)
    assign = {}
    for w in sorted(W):
        if C.dom(w) != y:
            continue
        for f in sorted(C.morphism_names()):
            if C.dom(f) == x and C.cod(f) == C.cod(w):
                g = info["cls"](f, w)
                c = cls((w, f))
                if c in assign and assign[c] != g:
                    return Check(False, {"pair": (x, y), "reason": "not well-defined"})
                assign[c] = g
    gz_homs = {m for m in cat.morphism_names()
               if cat.dom(m) == x and cat.cod(m) == y}
    if set(assign.values()) != gz_homs or len(assign) != len(gz_homs):
        return Check(False, {"pair": (x, y), "colimit": len(classes),
                             "gz": len(gz_homs)})
    return Check(True, {"size": len(gz_homs)})


# -- filteredness --------------------------------------------------------


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


def slice_filtered_check(mc, x):
    return is_filtered_category(marked_coslice_category(mc, x))


# -- marked slices and fraction spaces (simplicial) ----------------------


class _CylinderTower:
    """Products Δᵐ × Δ¹ for m ≤ bound with face/degeneracy connecting maps."""

    def __init__(self, bound):
        self.bound = bound
        self.D1 = standard_simplex(1, bound=bound + 1)
        self.simp = [standard_simplex(m, bound=max(m, 1)) for m in range(bound + 1)]
        self.P = [product(self.simp[m], self.D1, m + 1) for m in range(bound + 1)]
        self.id_d1 = simplex_inclusion(self.D1, self.D1)
        self.face_maps = {}
        self.degen_maps = {}
        for m in range(1, bound + 1):
            for i in range(m + 1):
                fm = simplex_map(delta(i, m), m - 1, m,
                                 src=self.simp[m - 1], dst=self.simp[m])
                self.face_maps[(m, i)] = product_map(
                    fm, self.id_d1, self.P[m - 1], self.P[m])
        for m in range(bound):
            for i in range(m + 1):
                dm = simplex_map(sigma(i, m), m + 1, m,
                                 src=self.simp[m + 1], dst=self.simp[m])
                self.degen_maps[(m, i)] = product_map(
                    dm, self.id_d1, self.P[m + 1], self.P[m])

    def end_inclusion(self, m, eps):
        """Δᵐ -> Δᵐ × Δ¹ at height eps."""
        return end_inclusion(self.simp[m], self.D1, self.P[m], eps)


def _slice_levels(mx, x, bound, require_marked):
    """Level data for slice cylinders: maps Δᵐ×Δ¹ -> X constant at x
    on Δᵐ×{0}, connecting edges marked if ``require_marked``."""
    X = mx.base
    tower = _CylinderTower(bound)
    levels = []
    reg = {}
    for m in range(bound + 1):
        P = tower.P[m]
        partial = {}
        for d, cs in enumerate(P.cells):
            for cell in cs:
                _, op1, c1, op2, c2 = cell
                if c2 == (0,):
                    partial[cell] = Simplex(tuple([0] * (d + 1)), x)

        def edge_ok(cell, image):
            _, op1, c1, op2, c2 = cell
            vertical = len(set(op1)) == 1 and c2 == (0, 1)
            if vertical and require_marked:
                return mx.is_marked(image)
            return True

        lvl = []
        for f in enumerate_maps(P, X, partial=partial, edge_ok=edge_ok):
            s = f.serialize()
            reg[(m, s)] = f
            lvl.append(s)
        levels.append(lvl)
    return tower, levels, reg


def _slice_sset(mx, x, bound, require_marked):
    X = mx.base
    tower, levels, reg = _slice_levels(mx, x, bound, require_marked)

    def face(d, s, i):
        f = reg[(d, s)]
        g = compose_smap(f, tower.face_maps[(d, i)])
        t = g.serialize()
        reg[(d - 1, t)] = g
        return t

    def degen(d, s, i):
        f = reg[(d, s)]
        g = compose_smap(f, tower.degen_maps[(d, i)])
        t = g.serialize()
        reg[(d + 1, t)] = g
        return t

    sset, cell_of = from_levels(levels, face, degen, bound,
                                namer=lambda d, s: ("sl", d, s))
    # marking: an edge is marked iff its top connecting restriction, the
    # edge (0,1) <= (1,1), is marked
    marked = set()
    for cell in sset.cells[1]:
        _, d, s = cell
        f = reg[(1, s)]
        e = compose_smap(f, tower.end_inclusion(1, 1))
        img = e.on_cell((0, 1))
        if mx.is_marked(img):
            marked.add(cell)
    proj = {}
    for dd, cs in enumerate(sset.cells):
        for cell in cs:
            _, d, s = cell
            f = reg[(d, s)]
            proj[cell] = compose_smap(f, tower.end_inclusion(d, 1)) \
                .on_cell(tuple(range(d + 1)))
    return MarkedSSet(sset, marked), proj, (tower, levels, reg)


def marked_slice_under(mx, x, bound=2):
    """Marked slice under a vertex: cylinder maps constant at x at end 0
    with marked connecting edges."""
    ms, proj, _ = _slice_sset(mx, x, bound, require_marked=True)
    return ms, proj


def fraction_space_LF(mx, x, y, bound=1):
    """Space of left fractions from x to y: levelwise pullback of the
    fat slice under x against the marked slice under y over X."""
    fx, projx, datax = _slice_sset(mx, x, bound, require_marked=False)
    my, projy, datay = _slice_sset(mx, y, bound, require_marked=True)
    towerx, levelsx, regx = datax
    towery, levelsy, regy = datay

    def pi(reg, tower, d, s):
        return compose_smap(reg[(d, s)], tower.end_inclusion(d, 1)) \
            .on_cell(tuple(range(d + 1)))

    levels = []
    for d in range(bound + 1):
        lvl = []
        for sx in levelsx[d]:
            for sy in levelsy[d]:
                if pi(regx, towerx, d, sx) == pi(regy, towery, d, sy):
                    lvl.append((sx, sy))
        levels.append(lvl)

    def face(d, e, i):
        sx, sy = e
        gx = compose_smap(regx[(d, sx)], towerx.face_maps[(d, i)])
        gy = compose_smap(regy[(d, sy)], towery.face_maps[(d, i)])
        tx, ty = gx.serialize(), gy.serialize()
        regx[(d - 1, tx)] = gx
        regy[(d - 1, ty)] = gy
        return (tx, ty)

    def degen(d, e, i):
        sx, sy = e
        gx = compose_smap(regx[(d, sx)], towerx.degen_maps[(d, i)])
        gy = compose_smap(regy[(d, sy)], towery.degen_maps[(d, i)])
        tx, ty = gx.serialize(), gy.serialize()
        regx[(d + 1, tx)] = gx
        regy[(d + 1, ty)] = gy
        return (tx, ty)

    sset, _ = from_levels(levels, face, degen, bound,
                          namer=lambda d, e: ("lf", d, e))
    marked = set()
    for cell in sset.cells[1]:
        _, d, (sx, sy) = cell
        if mx.is_marked(pi(regx, towerx, 1, sx)):
            marked.add(cell)
    return MarkedSSet(sset, marked)


def fraction_space_RF(mx, x, y, bound=1):
    """Space of right fractions, via the opposite marked simplicial set."""
    return fraction_space_LF(opposite_marked(mx), x, y, bound=bound)


def pi0(X):
    """Edge-path components of a simplicial set."""
    uf = UnionFind()
    for v in X.cells[0]:
        uf.add(v)
    for e in X.cells[1]:
        uf.union(X.face(e, 1).cell, X.face(e, 0).cell)
    return sorted({uf.find(v) for v in X.cells[0]}, key=repr), \
        (lambda v: uf.find(v))


def pi0_mapping_check(mc, x, y, gz=None, bound=3):
    """pi0 of the fraction space vs gz hom classes, as a bijection."""
    res = check_proper_clf(mc)
    if not res.ok:
        raise ValueError(f"needs proper CLF; witness {res.witness}")
    if gz is None:
        gz = gz_left_fractions(mc)
    cat, info = gz
    mN = nerve_marked(mc, bound=bound)
    LF = fraction_space_LF(mN, ("v", x), ("v", y), bound=1)
    comps, comp_of = pi0(LF.base)
    # vertices of LF are pairs (cylinder at x, marked cylinder at y);
    # read off the cospan and map it to its gz class
    assign = {}
    C = mc.cat
    for v in LF.base.cells[0]:
        _, d, (sx, sy) = v
        f = _edge_of_vertex_cylinder(sx)
        w = _edge_of_vertex_cylinder(sy)
        fm = f[1] if f[0] == "c" else C.ident(f[1])
        wm = w[1] if w[0] == "c" else C.ident(w[1])
        g = info["cls"](fm, wm)
        c = comp_of(v)
        if c in assign and assign[c] != g:
            return Check(False, {"pair": (x, y), "reason": "not constant on pi0"})
        assign[c] = g
    gz_homs = {m for m in cat.morphism_names()
               if cat.dom(m) == x and cat.cod(m) == y}
    ok = set(assign.values()) == gz_homs and len(assign) == len(gz_homs)
    return Check(ok, {"pi0": len(comps), "gz": len(gz_homs)})


def _edge_of_vertex_cylinder(serialized):
    """The image of the 0-1 edge in a serialized map Δ⁰×Δ¹ -> nerve."""
    for cell, op, img in serialized:
        _, op1, c1, op2, c2 = cell
        if c2 == (0, 1):
            return img
    raise ValueError("malformed cylinder serialization")


# -- three-way comparison ------------------------------------------------


def compare_localizations(mc, bound=3):
    """Ho(Ex₊(N C, W)) vs gz_left_fractions(C): isomorphism report."""
    res = check_proper_clf(mc)
    if not res.ok:
        raise ValueError(f"comparison needs proper CLF; witness {res.witness}")
    gz_cat, gz_info = gz_left_fractions(mc)
    mN = nerve_marked(mc, bound=bound)
    cache = ex_plus(mN, levels=2)
    EX, cell_of = ex_to_sset(cache)
    ho, cls = ho_of_qcat(EX)
    mstar = max_star(mN, cache)

    C = mc.cat

    def ho_edge(f):
        """Ho class of the max* image of a morphism f of C."""
        if C.is_identity(f):
            return ho.ident(("ex", 0, _vertex_level0(cache, C.dom(f))))
        s = cell_of(1, mstar[1][("c", f)])
        return cls(s)

    def ho_inverse(m):
        a, b = ho.dom(m), ho.cod(m)
        for g in ho.hom(b, a):
            if ho.compose(g, m) == ho.ident(a) and ho.compose(m, g) == ho.ident(b):
                return g
        return None

    # object correspondence x -> level-0 element
    objmap = {x: ("ex", 0, _vertex_level0(cache, x)) for x in C.objects}

    # F(class(f, w)) = (max* w)^{-1} . (max* f)
    F = {}
    hom_table = {}
    ok = True
    witnesses = []
    for m in gz_cat.morphism_names():
        x, y = gz_cat.dom(m), gz_cat.cod(m)
        rep = next(c for c, n in gz_info["cls_name"].items() if n == m)
        f_, w_ = rep
        wim = ho_edge(w_)
        winv = ho_inverse(wim)
        if winv is None:
            ok = False
            witnesses.append({"class": repr(m), "reason": "marked image not invertible"})
            continue
        F[m] = ho.compose(winv, ho_edge(f_))
    if ok:
        # bijectivity on each hom set
        for x in C.objects:
            for y in C.objects:
                src = [m for m in gz_cat.morphism_names()
                       if gz_cat.dom(m) == x and gz_cat.cod(m) == y]
                dst = ho.hom(objmap[x], objmap[y])
                img = [F[m] for m in src]
                hom_table[f"{x}->{y}"] = {"gz": len(src), "ho_ex": len(dst)}
                if sorted(map(repr, img)) != sorted(map(repr, set(img))) \
                        or set(img) != set(dst):
                    ok = False
                    witnesses.append({"pair": (x, y), "reason": "hom sets differ",
                                      "gz": len(src), "ho_ex": len(dst)})
        # functoriality
        for b in gz_cat.morphism_names():
            for a in gz_cat.morphism_names():
                if gz_cat.dom(b) != gz_cat.cod(a):
                    continue
                if F[gz_cat.compose(b, a)] != ho.compose(F[b], F[a]):
                    ok = False
                    witnesses.append({"pair": (repr(a), repr(b)),
                                      "reason": "functoriality fails"})
        # commutation with the canonical functors
        for f in C.morphism_names():
            if F[gz_info["canonical"](f)] != ho_edge(f):
                ok = False
                witnesses.append({"morphism": f, "reason": "canonical square fails"})
    return Check(ok, {"hom_table": hom_table, "witnesses": witnesses})


def _vertex_level0(cache, x):
    for s in cache.levels[0]:
        if s[0][2] == ("v", x):
            return s
    raise ValueError(f"vertex {x!r} not found in level 0")


# -- colimit preservation probe -----------------------------------------


def colimit_preservation_probe(mc, diagram):
    """Check a coequalizer/pushout colimit survives localization.

    ``diagram`` is ``("coeq", f, g)`` (parallel pair) or
    ``("pushout", f, g)`` (span with common domain).  The colimit in C
    is found by universal-property enumeration; its image cocone in the
    fraction category is then checked to be colimiting.
    """
    res = check_proper_clf(mc)
    if not res.ok:
        raise ValueError(f"probe needs proper CLF; witness {res.witness}")
    C = mc.cat
    kind, f, g = diagram

    if kind == "coeq":
        if C.dom(f) != C.dom(g) or C.cod(f) != C.cod(g):
            raise ValueError("coequalizer needs a parallel pair")
        b = C.cod(f)

        def is_cone(e):
            return C.dom(e) == b and C.compose(e, f) == C.compose(e, g)

        def factorings(e, cone):
            # morphisms t with t . cone = e
            return [t for t in C.morphism_names()
                    if C.dom(t) == C.cod(cone) and C.cod(t) == C.cod(e)
                    and C.compose(t, cone) == e]

        cones = [e for e in sorted(C.morphism_names()) if is_cone(e)]
        colim = None
        for cone in cones:
            if all(len(factorings(e, cone)) == 1 for e in cones):
                colim = cone
                break
        if colim is None:
            raise ValueError("diagram has no colimit in C")
        cat, info = gz_left_fractions(mc)
        gf = info["canonical"](f)
        gg = info["canonical"](g)
        gcone = info["canonical"](colim)
        lcones = [e for e in sorted(cat.morphism_names())
                  if cat.dom(e) == cat.cod(gf)
                  and cat.compose(e, gf) == cat.compose(e, gg)]
        for e in lcones:
            ts = [t for t in cat.morphism_names()
                  if cat.dom(t) == cat.cod(gcone) and cat.cod(t) == cat.cod(e)
                  and cat.compose(t, gcone) == e]
            if len(ts) != 1:
                return Check(False, {"cocone": repr(e), "factorings": len(ts)})
        return Check(True)

    if kind == "pushout":
        if C.dom(f) != C.dom(g):
            raise ValueError("pushout needs a span")
        b, c = C.cod(f), C.cod(g)

        def cones_po(cat2, ff, gg):
            out = []
            for p in sorted(cat2.morphism_names()):
                if cat2.dom(p) != cat2.cod(ff):
                    continue
                for q in sorted(cat2.morphism_names()):
                    if cat2.dom(q) != cat2.cod(gg) or cat2.cod(q) != cat2.cod(p):
                        continue
                    if cat2.compose(p, ff) == cat2.compose(q, gg):
                        out.append((p, q))
            return out

        def univ(cat2, cone, cones):
            p0, q0 = cone
            for p, q in cones:
                ts = [t for t in cat2.morphism_names()
                      if cat2.dom(t) == cat2.cod(p0) and cat2.cod(t) == cat2.cod(p)
                      and cat2.compose(t, p0) == p and cat2.compose(t, q0) == q]
                if len(ts) != 1:
                    return False, (p, q, len(ts))
            return True, None

        cones = cones_po(C, f, g)
        colim = None
        for cone in cones:
            okc, _ = univ(C, cone, cones)
            if okc:
                colim = cone
                break
        if colim is None:
            raise ValueError("diagram has no colimit in C")
        cat, info = gz_left_fractions(mc)
        gf, gg = info["canonical"](f), info["canonical"](g)
        gcone = (info["canonical"](colim[0]), info["canonical"](colim[1]))
        lcones = cones_po(cat, gf, gg)
        okc, wit = univ(cat, gcone, lcones)
        return Check(okc, None if okc else {"witness": repr(wit)})

    raise ValueError(f"unknown diagram kind {kind!r}")
