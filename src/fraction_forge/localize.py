"""Localization machinery: Gabriel-Zisman fraction categories, homotopy
categories of truncated quasicategories, the filtered-colimit hom
formula, marked slices and fraction mapping spaces, filteredness checks,
and the three-way localization comparison.
"""

from itertools import product

from .exfunctor import ex_plus, ex_to_sset, max_star
from .fractions import (
    check_clf_classical,
    check_proper_clf,
    completion,
    marked_tables,
)
from .marked import (
    MarkedSSet,
    level_maps,
    maximal_marking,
    nerve_marked,
    opposite_marked,
)
from .sset_core.build import from_levels
from .sset_core.cat import FinCategory, Morphism, Poset
from .sset_core.enumerate import Check, is_quasicategory_upto
from .sset_core.nerves import nerve_map, nerve_poset
from .sset_core.ops import delta, sigma
from .sset_core.sset import Simplex
from .sset_core.unionfind import UnionFind


# -- homotopy category of a truncated quasicategory ---------------------


def ho_of_qcat(X):
    """Homotopy category of a 2-truncated quasicategory.

    Returns ``(cat, cls)`` where ``cls`` maps a 1-simplex of ``X`` (in
    normal form) to its morphism name.  Composition picks 2-cell
    witnesses; an input that is not a quasicategory up to dimension 2,
    or a missing or inconsistent witness, raises.
    """
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
    cat = FinCategory([v for v in X.cells[0]], morphs, idents, comp)
    return cat, (lambda s: name_of[s])


# -- Gabriel-Zisman fractions -------------------------------------------


def gz_left_fractions(mc):
    """Category of left fractions C W^{-1} with its canonical functor.

    Returns ``(cat, info)``; ``info`` has ``cls`` mapping a cospan
    ``(f, w)`` to its class name, ``canonical`` mapping a morphism of C
    to the class of ``(f, id)``, and ``rep`` mapping a class to its
    first cospan.  Requires classical CLF.  The cospans and their
    union-find are over arrow ids, a cospan ``(f, w)`` being ``f * n + w``.
    """
    res = check_clf_classical(mc)
    if not res.ok:
        raise ValueError(f"left fractions need CLF; witness {res.witness}")
    C = mc.cat
    names, ids, t, n = C.names, C.morphisms, C.table, len(C.names)
    W, order, out, into = marked_tables(mc)
    cospans = {(x, y): [] for x in C.objects for y in C.objects}
    for f in order:
        for w in into[C.cods[f]]:
            cospans[(C.doms[f], C.doms[w])].append(f * n + w)

    uf = UnionFind()
    for cs in cospans.values():
        for c in cs:
            uf.add(c)
    for cs in cospans.values():
        for c in cs:
            f, w = divmod(c, n)
            for p in C.out_ids(C.cods[f]):
                pw = t[p * n + w]
                if pw in W:
                    uf.union(c, t[p * n + f] * n + pw)

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
        (f, w), (g, v) = divmod(rep[a], n), divmod(rep[b], n)
        u, s = completion(C, g, w, out)
        return cls_name[t[u * n + f] * n + t[s * n + v]]

    all_classes = sorted(rep)
    morphs = [Morphism(c, c[1], c[2]) for c in all_classes]
    idents = {x: cls_name[C.idents[x] * n + C.idents[x]] for x in C.objects}
    ending = {y: [] for y in C.objects}
    for a in all_classes:
        ending[a[2]].append(a)
    comp = {(b, a): compose_cls(b, a)
            for b in all_classes for a in ending[b[1]]}
    cat = FinCategory(C.objects, morphs, idents, comp)

    info = {
        "cls": lambda f, w: cls_name[ids[f] * n + ids[w]],
        "canonical": lambda f: cls_name[ids[f] * n + C.idents[C.cod(f)]],
        "rep": {a: (names[c // n], names[c % n]) for a, c in rep.items()},
    }
    return cat, info


def gz_right_fractions(mc):
    """Category of right fractions, via duality: the opposite of the
    left fractions of the opposite, with their ``info``."""
    cat_op, info = gz_left_fractions(mc.opposite())
    return cat_op.opposite(), info


# -- filtered-colimit hom formula ---------------------------------------


def colimit_vs_gz(mc, x, y, gz=None):
    """Hom(x, y) of the localization as the colimit of Hom_C(x, -) over
    the marked coslice y/W, against the gz fraction classes.

    The elements are pairs ``(w, f)`` with ``w: y -> y'`` marked and
    ``f: x -> y'``; two are related when triangles of the coslice send
    them to a common element.  Filteredness makes that relation an
    equivalence; where it is not transitive the check fails.  Otherwise
    related elements must be exactly those with equal gz classes, and
    the classes must cover the gz hom set.
    """
    if gz is None:
        gz = gz_left_fractions(mc)
    cat, info = gz
    C = mc.cat
    cos = marked_coslice_category(mc, y)
    elems = [(w, f) for w in cos.objects for f in C.hom(x, C.cod(w))]
    # a triangle ("t", w, w2, a), with a.w = w2, sends (w, f) to (w2, a.f)
    image = {(w, f): {(w2, C.compose(a, f)) for w2 in cos.objects
                      for _, _, _, a in cos.hom(w, w2)}
             for w, f in elems}
    related = {e: {e2 for e2 in elems if image[e] & image[e2]} for e in elems}
    if any(related[e2] != related[e] for e in elems for e2 in related[e]):
        return Check(False, {"pair": (x, y), "reason": "not transitive"})
    try:
        cls = {(w, f): info["cls"](f, w) for w, f in elems}
    except KeyError:  # the gz of another marking lacks a class
        return Check(False, {"pair": (x, y),
                             "reason": "cospan outside the fractions"})
    homs = cat.hom(x, y)
    if set(cls.values()) != set(homs) or any(
            (e2 in related[e]) != (cls[e] == cls[e2])
            for e in elems for e2 in elems):
        return Check(False, {"pair": (x, y), "gz": len(homs), "colimit":
                             len({frozenset(r) for r in related.values()})})
    return Check(True, {"size": len(homs)})


# -- filteredness --------------------------------------------------------


def is_filtered_category(cat):
    if not cat.objects:
        return Check(False, {"reason": "empty"})
    for a in cat.objects:
        for b in cat.objects:
            if not any(cat.hom(a, c) and cat.hom(b, c) for c in cat.objects):
                return Check(False, {"reason": "no cocone", "pair": (a, b)})
    for f in cat.morphism_names():
        y = cat.cod(f)
        for g in cat.hom(cat.dom(f), y):
            if f < g and not any(cat.compose(h, f) == cat.compose(h, g)
                                 for h in cat.out(y)):
                return Check(False, {"reason": "no coequalizing arrow",
                                     "pair": (f, g)})
    return Check(True)


def marked_coslice_category(mc, x):
    """1-categorical marked coslice at x: objects are marked arrows out
    of x, morphisms are commuting triangles."""
    C = mc.cat
    _, _, out, _ = marked_tables(mc)
    objs = [C.names[w] for w in out[x]]
    leaving = {w: [Morphism(("t", w, w2, a), w, w2) for w2 in objs
                   for a in sorted(C.hom(C.cod(w), C.cod(w2)))
                   if C.compose(a, w) == w2] for w in objs}
    morphs = [m for w in objs for m in leaving[w]]
    idents = {w: ("t", w, w, C.ident(C.cod(w))) for w in objs}
    comp = {(m2.name, m1.name):
            ("t", m1.dom, m2.cod, C.compose(m2.name[3], m1.name[3]))
            for m1 in morphs for m2 in leaving[m1.cod]}
    return FinCategory(objs, morphs, idents, comp)


def slice_filtered_check(mc, x):
    return is_filtered_category(marked_coslice_category(mc, x))


# -- marked slices and fraction spaces (simplicial) ----------------------


def _cylinder(m):
    """Δᵐ×(Δ¹)♯: the nerve of the poset [m]×[1], truncated at m + 1.  Its
    marked edges are the vertical ones, whose ends share their [m]
    coordinate."""
    P = Poset.from_leq([(i, e) for i in range(m + 1) for e in range(2)],
                       lambda a, b: a[0] <= b[0] and a[1] <= b[1])
    N = nerve_poset(P, m + 1)
    return MarkedSSet(N, {c for c in N.cells[1] if c[0][0] == c[1][0]})


def _slice(mx, x):
    """Levels of the slice under the vertex x: marked maps
    Δᵐ×(Δ¹)♯ -> (X, W) constant at x on Δᵐ×{0}, for m <= 1.

    Returns the levels and ``end``, which takes a serial to the image of
    Δᵐ×{1}, the projection to X.
    """
    shapes = [_cylinder(m) for m in range(2)]

    def structure(phi, m, n):
        return nerve_map(lambda v: (phi[v[0]], v[1]),
                         shapes[m].base, shapes[n].base)

    partial = [{c: Simplex((0,) * len(c), x)
                for cs in P.base.cells for c in cs
                if all(e == 0 for _, e in c)} for P in shapes]
    lm = level_maps(mx, shapes,
                    lambda d, i: structure(delta(i, d), d - 1, d),
                    lambda d, i: structure(sigma(i, d), d + 1, d),
                    partial=partial)
    end = {s: lm.maps[s].on_cell(tuple((i, 1) for i in range(m + 1)))
           for m in range(2) for s in lm.levels[m]}
    return lm, end


def fraction_space_LF(mx, x, y):
    """Space of left fractions from x to y, truncated at dimension 1:
    levelwise pullback of the fat slice under x against the marked slice
    under y over X.  The fat slice is the slice of the maximal marking:
    its connecting edges may be any edges."""
    return _pullback(mx, _slice(maximal_marking(mx.base), x), _slice(mx, y))


def fraction_spaces(mx, objects, side="L"):
    """The spaces of left (side L) or right (side R) fractions between
    every ordered pair of ``objects``, keyed ``(x, y)``; each slice is
    built once.  The right fractions from x to y are the left fractions
    from y to x of the opposite marked simplicial set."""
    if side == "R":
        op = fraction_spaces(opposite_marked(mx), objects)
        return {(x, y): op[(y, x)] for x in objects for y in objects}
    fat_mx = maximal_marking(mx.base)
    fat = {x: _slice(fat_mx, x) for x in objects}
    marked = {y: _slice(mx, y) for y in objects}
    return {(x, y): _pullback(mx, fat[x], marked[y])
            for x in objects for y in objects}


def _pullback(mx, fat_slice, marked_slice):
    (fat, endx), (sl, endy) = fat_slice, marked_slice
    levels = [[(sx, sy) for sx in fat.levels[d] for sy in sl.levels[d]
               if endx[sx] == endy[sy]] for d in range(2)]
    sset, _ = from_levels(
        levels,
        lambda d, e, i: (fat.face(d, e[0], i), sl.face(d, e[1], i)),
        lambda d, e, i: (fat.degen(d, e[0], i), sl.degen(d, e[1], i)),
        1, lambda d, e: ("lf", d, e))
    marked = {cell for cell in sset.cells[1]
              if mx.is_marked(endx[cell[2][0]])}
    return MarkedSSet(sset, marked)


def pi0(X):
    """Edge-path components of a simplicial set."""
    uf = UnionFind()
    for v in X.cells[0]:
        uf.add(v)
    for e in X.cells[1]:
        uf.union(X.face(e, 1).cell, X.face(e, 0).cell)
    return sorted({uf.find(v) for v in X.cells[0]}, key=repr), \
        (lambda v: uf.find(v))


def pi0_mapping_check(mc, x, y):
    """pi0 of the space of left fractions from x to y vs the gz hom
    classes, as a bijection."""
    res = check_proper_clf(mc)
    if not res.ok:
        raise ValueError(f"needs proper CLF; witness {res.witness}")
    LF = fraction_space_LF(nerve_marked(mc, 3), ("v", x), ("v", y))
    return _pi0_vs_gz(mc.cat, LF, gz_left_fractions(mc), x, y)


def pi0_mapping_checks(mc, side="L"):
    """pi0 of the space of left (side L) or right (side R) fractions vs
    the gz hom classes, as a bijection, for every ordered pair of
    objects: ``{(x, y): Check}``.  The nerve, each slice and the
    fraction category are built once."""
    gz = gz_left_fractions(mc) if side == "L" else gz_right_fractions(mc)
    objects = mc.cat.objects
    spaces = fraction_spaces(nerve_marked(mc, 3),
                             [("v", x) for x in objects], side)
    return {(x, y): _pi0_vs_gz(mc.cat, spaces[(("v", x), ("v", y))],
                                gz, x, y)
            for x in objects for y in objects}


def _pi0_vs_gz(C, space, gz, x, y):
    """The gz class of the cospan (f, w) read off each vertex of a
    fraction space is constant on each pi0 component, and the components
    biject onto the gz hom set from x to y."""
    cat, info = gz
    comps, comp_of = pi0(space.base)
    homs = cat.hom(x, y)
    sizes = {"pi0": len(comps), "gz": len(homs)}
    # a vertex is a pair (fat cylinder, marked cylinder): the cospan
    assign = {}
    for v in space.base.cells[0]:
        f, w = (_morphism_of_vertex_cylinder(C, s) for s in v[2])
        g = info["cls"](f, w)
        if assign.setdefault(comp_of(v), g) != g:
            return Check(False, {**sizes, "reason": "not constant on pi0"})
    return Check(set(assign.values()) == set(homs) and len(assign) == len(homs),
                 sizes)


def _morphism_of_vertex_cylinder(C, serialized):
    """The morphism of C that a serialized map Δ⁰×Δ¹ -> nerve sends the
    0-1 edge to."""
    for cell, op, img in serialized:
        if cell == ((0, 0), (0, 1)):
            return img[1] if img[0] == "c" else C.ident(img[1])
    raise ValueError("malformed cylinder serialization")


# -- three-way comparison ------------------------------------------------


def compare_localizations(mc):
    """Ho(Ex₊(N C, W)) vs gz_left_fractions(C): isomorphism report."""
    res = check_proper_clf(mc)
    if not res.ok:
        raise ValueError(f"comparison needs proper CLF; witness {res.witness}")
    gz_cat, gz_info = gz_left_fractions(mc)
    mN = nerve_marked(mc, 3)
    cache = ex_plus(mN, levels=2)
    EX, cell_of = ex_to_sset(cache)
    ho, cls = ho_of_qcat(EX)
    mstar = max_star(cache)

    C = mc.cat

    # object correspondence x -> level-0 element
    objmap = {x: ("ex", 0, mstar[0][("v", x)]) for x in C.objects}

    def ho_edge(f):
        """Ho class of the max* image of a morphism f of C."""
        if C.is_identity(f):
            return ho.ident(objmap[C.dom(f)])
        return cls(cell_of(1, mstar[1][("c", f)]))

    # F(class(f, w)) = (max* w)^{-1} . (max* f)
    F = {}
    hom_table = {}
    ok = True
    witnesses = []
    for m in gz_cat.morphism_names():
        x, y = gz_cat.dom(m), gz_cat.cod(m)
        f_, w_ = gz_info["rep"][m]
        wim = ho_edge(w_)
        winv = ho.inverse(wim)
        if winv is None:
            ok = False
            witnesses.append({"class": repr(m), "reason": "marked image not invertible"})
            continue
        F[m] = ho.compose(winv, ho_edge(f_))
    if ok:
        # bijectivity on each hom set
        for x in C.objects:
            for y in C.objects:
                src = gz_cat.hom(x, y)
                dst = ho.hom(objmap[x], objmap[y])
                img = [F[m] for m in src]
                hom_table[f"{x}->{y}"] = {"gz": len(src), "ho_ex": len(dst)}
                if sorted(map(repr, img)) != sorted(map(repr, set(img))) \
                        or set(img) != set(dst):
                    ok = False
                    witnesses.append({"pair": (x, y), "reason": "hom sets differ",
                                      "gz": len(src), "ho_ex": len(dst)})
        # functoriality
        for b, a, ba in ([gz_cat.names[i] for i in c]
                         for c in gz_cat.composites()):
            if F[ba] != ho.compose(F[b], F[a]):
                ok = False
                witnesses.append({"pair": (repr(a), repr(b)),
                                  "reason": "functoriality fails"})
        # commutation with the canonical functors
        for f in C.morphism_names():
            if F[gz_info["canonical"](f)] != ho_edge(f):
                ok = False
                witnesses.append({"morphism": f, "reason": "canonical square fails"})
    return Check(ok, {"hom_table": hom_table, "witnesses": witnesses})


# -- colimit preservation probe -----------------------------------------


def colimit_preservation_probe(mc, diagram):
    """Check that the colimit of a finite diagram in C survives
    localization.

    ``diagram`` is ``(objects, arrows)``, each arrow ``(i, j, f)`` with
    ``f: objects[i] -> objects[j]``; coequalizers, pushouts, coproducts
    and the initial object ``([], [])`` are instances.  A cocone is an
    apex z with a leg out of each object such that ``legs[j] . f ==
    legs[i]`` for every arrow.  The colimit in C is the first cocone
    through which every cocone factors uniquely; its image in the
    fraction category must have the same property.  The witness of a
    failure is a cocone and its number of factorings.
    """
    res = check_proper_clf(mc)
    if not res.ok:
        raise ValueError(f"probe needs proper CLF; witness {res.witness}")
    C = mc.cat
    objects, arrows = diagram
    n = len(objects)
    for i, j, f in arrows:
        if not (0 <= i < n and 0 <= j < n and f in C.morphisms
                and (C.dom(f), C.cod(f)) == (objects[i], objects[j])):
            raise ValueError(f"arrow {(i, j, f)!r} does not fit the diagram")

    def cocones(cat, arrows):
        return [(z, legs) for z in cat.objects
                for legs in product(*(sorted(cat.hom(x, z)) for x in objects))
                if all(cat.compose(legs[j], f) == legs[i]
                       for i, j, f in arrows)]

    def not_universal(cat, colim, cones):
        apex, legs = colim
        for z, c in cones:
            count = sum(1 for t in cat.hom(apex, z) if all(
                cat.compose(t, a) == b for a, b in zip(legs, c)))
            if count != 1:
                return {"cocone": repr((z, c)), "factorings": count}
        return None

    cones = cocones(C, arrows)
    colim = next((c for c in cones if not_universal(C, c, cones) is None),
                 None)
    if colim is None:
        raise ValueError("diagram has no colimit in C")
    cat, info = gz_left_fractions(mc)
    canonical = info["canonical"]
    witness = not_universal(
        cat, (colim[0], tuple(map(canonical, colim[1]))),
        cocones(cat, [(i, j, canonical(f)) for i, j, f in arrows]))
    return Check(witness is None, witness)
