"""Seeded inputs for the benchmark, in the JSON formats the CLI reads.

Every generator takes a ``random.Random`` and returns plain dicts: marked
categories (``objects``/``morphisms``/``identities``/``comp``/``marked``),
marked simplicial sets (``dim_bound``/``cells``/``faces``/``marked``),
graphs (``vertices``/``edges``) and open boxes (``n``/``missing``/``faces``).
Nothing here imports the program, so the program sees only the inputs.
"""

import functools
import itertools
import json
import random

import reference

# -- categories -------------------------------------------------------------


def poset_category(elements, leq):
    """Category of a finite poset; the arrow a <= b is named ``"a<=b"``."""
    arrows = [(a, b) for a in elements for b in elements if leq(a, b)]
    comp = [[f"{b}<={c}", f"{a}<={b}", f"{a}<={c}"]
            for a, b in arrows for b2, c in arrows
            if b2 == b and a != b and b != c]
    return {"objects": list(elements),
            "morphisms": [{"id": f"{a}<={b}", "dom": a, "cod": b}
                          for a, b in arrows],
            "identities": {a: f"{a}<={a}" for a in elements},
            "comp": comp}


def chain(n):
    return poset_category([str(i) for i in range(n + 1)],
                          lambda a, b: int(a) <= int(b))


def grid(m, n):
    """The product poset [m-1] x [n-1]; 2x2 is the square."""
    return poset_category([f"{i}{j}" for i in range(m) for j in range(n)],
                          lambda a, b: a[0] <= b[0] and a[1] <= b[1])


def _two_object(extra, comp):
    return {"objects": ["a", "b"],
            "morphisms": [{"id": "ia", "dom": "a", "cod": "a"},
                          {"id": "ib", "dom": "b", "cod": "b"}] + extra,
            "identities": {"a": "ia", "b": "ib"},
            "comp": comp}


def walking_iso():
    return _two_object([{"id": "u", "dom": "a", "cod": "b"},
                        {"id": "v", "dom": "b", "cod": "a"}],
                       [["u", "v", "ib"], ["v", "u", "ia"]])


def parallel_pair():
    return _two_object([{"id": "f", "dom": "a", "cod": "b"},
                        {"id": "g", "dom": "a", "cod": "b"}], [])


FAMILIES = {
    "chain1": lambda: chain(1),
    "chain2": lambda: chain(2),
    "chain3": lambda: chain(3),
    "square": lambda: grid(2, 2),
    "grid23": lambda: grid(2, 3),
    "walking_iso": walking_iso,
    "parallel_pair": parallel_pair,
    "span": lambda: poset_category(["a", "b", "c"],
                                   lambda x, y: x == y or x == "a"),
    "cospan": lambda: poset_category(["x", "y", "z"],
                                     lambda a, b: a == b or b == "z"),
}


def non_identities(cat):
    ids = set(cat["identities"].values())
    return [m["id"] for m in cat["morphisms"] if m["id"] not in ids]


def draw_marking(cat, k, clf, crf, rng):
    """A seeded k-arrow marking whose proper CLF/CRF answers are (clf, crf).

    Fixing the answers fixes how far each decider searches, so the cost of
    a slot varies little from seed to seed while the marking itself does.
    """
    pool = _markings(json.dumps(cat, sort_keys=True), k, clf, crf)
    if not pool:
        raise ValueError(f"no {k}-arrow marking with answers {(clf, crf)}")
    return set(rng.choice(pool))


@functools.cache
def _markings(cat_json, k, clf, crf):
    cat = json.loads(cat_json)
    return [m for m in itertools.combinations(non_identities(cat), k)
            if (reference.clf(cat, m), reference.crf(cat, m)) == (clf, crf)]


def _token(rng, prefix, used):
    while True:
        name = prefix + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz")
                                for _ in range(4))
        if name not in used:
            used.add(name)
            return name


def relabel_category(cat, marked, rng):
    """An isomorphic copy with fresh names and shuffled listing order."""
    used = set()
    ob = {x: _token(rng, "o", used) for x in cat["objects"]}
    mo = {m["id"]: _token(rng, "m", used) for m in cat["morphisms"]}
    out = {"objects": [ob[x] for x in cat["objects"]],
           "morphisms": [{"id": mo[m["id"]], "dom": ob[m["dom"]],
                          "cod": ob[m["cod"]]} for m in cat["morphisms"]],
           "identities": {ob[x]: mo[e] for x, e in cat["identities"].items()},
           "comp": [[mo[g], mo[f], mo[h]] for g, f, h in cat["comp"]],
           "marked": sorted(mo[f] for f in marked)}
    for key in ("objects", "morphisms", "comp"):
        rng.shuffle(out[key])
    return out


# -- simplicial sets ----------------------------------------------------------


def poset_nerve(elements, leq, dim_bound, keep=lambda chain: True):
    """Nerve of a finite poset up to ``dim_bound``, restricted to the
    face-closed set of chains accepted by ``keep``.  Faces of chains are
    chains, so every stored face is non-degenerate (empty word)."""
    cells = [[] for _ in range(dim_bound + 1)]
    for d in range(dim_bound + 1):
        for ch in itertools.permutations(elements, d + 1):
            if all(leq(a, b) and a != b for a, b in zip(ch, ch[1:])) \
                    and keep(ch):
                cells[d].append(ch)
    name = {ch: ",".join(map(str, ch)) for cs in cells for ch in cs}
    faces = {name[ch]: [[[], name[ch[:i] + ch[i + 1:]]] for i in range(len(ch))]
             for cs in cells[1:] for ch in cs}
    return {"dim_bound": dim_bound,
            "cells": [[name[ch] for ch in cs] for cs in cells],
            "faces": faces}


def simplex(n, dim_bound):
    return poset_nerve(range(n + 1), lambda a, b: a <= b, dim_bound)


def boundary(n, dim_bound):
    return poset_nerve(range(n + 1), lambda a, b: a <= b, dim_bound,
                       keep=lambda ch: len(ch) <= n)


def horn(n, k, dim_bound):
    face_k = tuple(i for i in range(n + 1) if i != k)
    return poset_nerve(range(n + 1), lambda a, b: a <= b, dim_bound,
                       keep=lambda ch: len(ch) <= n and ch != face_k)


def relabel_sset(X, marked, rng):
    used = set()
    ren = {c: _token(rng, "c", used) for cs in X["cells"] for c in cs}
    cells = [[ren[c] for c in cs] for cs in X["cells"]]
    for cs in cells:
        rng.shuffle(cs)
    return {"dim_bound": X["dim_bound"], "cells": cells,
            "faces": {ren[c]: [[w, ren[t]] for w, t in fs]
                      for c, fs in X["faces"].items()},
            "marked": sorted(ren[c] for c in marked)}


def draw_edges(X, share, rng):
    """A seeded marking of round(share * #edges) of the 1-cells."""
    edges = X["cells"][1]
    return set(rng.sample(edges, round(share * len(edges))))


# -- graphs and open boxes ------------------------------------------------------


def cycle_with_extras(m, pendants, ears):
    """C_m through vertex 0, plus ear vertices (ear i joined to both ends of
    the cycle edge (i + 1, i + 2)) and pendant vertices (pendant j joined to
    cycle vertex m - 1 - j).

    A pendant adds no cycle and an ear adds one triangle, so the loop group
    stays that of C_m: trivial for m <= 4, infinite cyclic for m >= 5.  The
    oracle's cost turns on where the extras sit next to vertex 0, the base:
    seeded places made it vary twentyfold between graphs of one slot.  So
    the places are fixed, and the seed names the vertices and orders the
    edges (``graph_dict``).
    """
    edges = [(i, (i + 1) % m) for i in range(m)]
    n = m
    for i in range(ears):
        edges += [(n, (i + 1) % m), (n, (i + 2) % m)]
        n += 1
    for j in range(pendants):
        edges.append((n, m - 1 - j))
        n += 1
    return edges, n


def graph_dict(n_vertices, edges, rng):
    """Graph JSON with seeded vertex names and a seeded edge order; the
    returned map sends each original vertex to its name.

    The names are two-digit numbers in the order of the vertices: the
    oracle's cost follows the order of the names, and shuffling it made one
    graph's oracle time vary fourfold between copies.
    """
    picked = sorted(rng.sample(range(10, 100), n_vertices))
    name = {v: str(picked[v]) for v in range(n_vertices)}
    es = [sorted((name[a], name[b])) for a, b in edges]
    rng.shuffle(es)
    return {"vertices": sorted(name.values(), key=int), "edges": es}, name


def random_walk(edges, start, length, rng):
    nbrs = {}
    for a, b in edges:
        nbrs.setdefault(a, [a]).append(b)
        nbrs.setdefault(b, [b]).append(a)
    walk = [start]
    for _ in range(length):
        walk.append(rng.choice(nbrs[walk[-1]]))
    return walk


def connection_box(walk, missing):
    """Open 2-box cut from the square (s, t) -> walk[min(s + t, m)].

    Consecutive rows and columns of that square are shifts of one walk,
    so it is a filler of the box made of its other three faces.
    """
    m = len(walk) - 1
    rows = {(1, 0): walk, (1, 1): [walk[m]] * (m + 1),
            (2, 0): walk, (2, 1): [walk[m]] * (m + 1)}
    return {"n": 2, "missing": list(missing),
            "faces": {f"{j},{d}": w for (j, d), w in rows.items()
                      if (j, d) != tuple(missing)}}


def loop_box(loop):
    """Box whose bottom runs once around a cycle, with the right side and
    top constant and the left side missing.  Its filler is at least as
    long as the loop, so a shorter window exhausts."""
    return {"n": 2, "missing": [1, 0],
            "faces": {"1,1": loop[:1], "2,0": loop, "2,1": loop[:1]}}


def deck_rng(seed, deck):
    """Independent generator for the ``deck``-th deck of a run."""
    return random.Random(f"{seed}:{deck}")


# -- shared work: inputs isomorphic to one another ------------------------------


def _structure(kind, d):
    """Coloured vertices and labelled edges that encode an input up to
    renaming, so that isomorphic inputs give isomorphic structures."""
    colors, edges = {}, set()
    if kind == "cat":
        ids, marked = set(d["identities"].values()), set(d.get("marked", ()))
        for x in d["objects"]:
            colors[("o", x)] = "o"
        for m in d["morphisms"]:
            v = ("m", m["id"])
            colors[v] = "i" if m["id"] in ids else "w" if m["id"] in marked else "m"
            edges |= {(v, "dom", ("o", m["dom"])), (v, "cod", ("o", m["cod"]))}
        for k, (g, f, h) in enumerate(d["comp"]):
            colors[("c", k)] = "c"
            edges |= {(("c", k), "g", ("m", g)), (("c", k), "f", ("m", f)),
                      (("c", k), "h", ("m", h))}
    elif kind == "sset":
        marked = set(d.get("marked", ()))
        for dim, cs in enumerate(d["cells"]):
            for c in cs:
                colors[c] = f"{dim}{'w' if c in marked else ''}"
        for c, fs in d["faces"].items():
            for i, (word, t) in enumerate(fs):
                edges.add((c, f"{i}:{word}", t))
    else:
        for v in d["vertices"]:
            colors[v] = "v"
        for a, b in d["edges"]:
            edges |= {(a, "e", b), (b, "e", a)}
    return colors, edges


def _refine(colors, edges):
    """Colour refinement to a stable partition (isomorphism-invariant)."""
    out = {v: [] for v in colors}
    inn = {v: [] for v in colors}
    for a, label, b in edges:
        out[a].append((label, b))
        inn[b].append((label, a))
    col = dict(colors)
    while True:
        new = {v: str(hash(repr((col[v], sorted((l, col[b]) for l, b in out[v]),
                                 sorted((l, col[a]) for l, a in inn[v])))))
               for v in col}
        stable = len(set(new.values())) == len(set(col.values()))
        col = new
        if stable:
            return col


def _isomorphic(a, b):
    (ca, ea), (cb, eb) = a, b
    near = {v: set() for v in ca}
    for x, _, y in ea:
        near[x].add(y)
        near[y].add(x)
    order, seen = [], set()
    for root in sorted(ca, key=repr):          # breadth-first keeps pruning local
        queue = [root] if root not in seen else []
        seen.update(queue)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(near[v] - seen, key=repr):
                seen.add(u)
                queue.append(u)
    labels = {}
    for x, label, y in ea:
        labels.setdefault(x, []).append((label, y, True))
        labels.setdefault(y, []).append((label, x, False))
    mapping, used = {}, set()

    def fits(v, w):
        for label, u, outgoing in labels.get(v, ()):
            if u in mapping:
                edge = (w, label, mapping[u]) if outgoing else (mapping[u], label, w)
                if u == v:
                    edge = (w, label, w)
                if edge not in eb:
                    return False
        return True

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in cb:
            if w not in used and cb[w] == ca[v] and fits(v, w):
                mapping[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return extend(0)


def iso_share(sources):
    """Share of ``(kind, input)`` pairs isomorphic to another one listed."""
    groups = {}
    for kind, d in sources:
        colors, edges = _structure(kind, d)
        refined = _refine(colors, edges)
        key = (kind, len(edges), tuple(sorted(refined.values())))
        groups.setdefault(key, []).append((refined, edges))
    shared = 0
    for members in groups.values():
        for i, a in enumerate(members):
            if any(_isomorphic(a, b) for j, b in enumerate(members) if j != i):
                shared += 1
    return shared / len(sources) if sources else 0.0
