"""Presentations of the first discrete homotopy group and an
independent bounded-homotopy oracle.

The presentation model: generators are the non-tree edges of a spanning
tree, relators are the boundaries of all 3- and 4-cycles.  This model is
not assumed correct a priori; it is cross-checked against the oracle,
which quotients bounded based loops by pointwise-adjacency homotopies.
"""

from dataclasses import dataclass

from ..localize import UnionFind
from ..sset_core.enumerate import Check


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple
    relators: tuple  # words: tuples of (generator, +1/-1), freely reduced

    def __post_init__(self):
        for w in self.relators:
            if w != free_reduce(w):
                raise ValueError(f"relator {w!r} is not freely reduced")
            for g, e in w:
                if g not in self.generators or e not in (1, -1):
                    raise ValueError(f"bad letter {(g, e)!r}")


def free_reduce(word):
    out = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def _spanning_tree(G, v):
    """BFS tree edges and discovery order; raises if disconnected."""
    seen = {v}
    order = [v]
    tree = set()
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in G.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    tree.add(frozenset((u, w)))
                    nxt.append(w)
        frontier = nxt
    if len(seen) != len(G.vertices):
        raise ValueError("graph is disconnected")
    return tree, order


def _cycles(G, length):
    """Simple cycles of the given length, up to rotation/reflection."""
    out = set()
    vs = list(G.vertices)
    for start in vs:
        stack = [(start,)]
        while stack:
            path = stack.pop()
            last = path[-1]
            for w in G.neighbors(last):
                if w == last:
                    continue
                if w == start and len(path) == length:
                    reps = set()
                    for r in range(length):
                        rot = path[r:] + path[:r]
                        reps.add(rot)
                        reps.add(tuple(reversed(rot)))
                    out.add(min(reps))
                elif w not in path and len(path) < length:
                    stack.append(path + (w,))
    return sorted(out)


def a1_presentation(G, v):
    """Spanning-tree presentation with 3- and 4-cycle relators."""
    tree, _ = _spanning_tree(G, v)
    gens = tuple(sorted((tuple(sorted(e, key=repr)) for e in G.edges
                         if e not in tree), key=repr))
    gen_of = {frozenset(g): g for g in gens}

    def word_of_cycle(cyc):
        w = []
        for i in range(len(cyc)):
            a, b = cyc[i], cyc[(i + 1) % len(cyc)]
            key = frozenset((a, b))
            if key in gen_of:
                g = gen_of[key]
                w.append((g, 1 if (a, b) == g else -1))
        return free_reduce(tuple(w))

    relators = []
    for length in (3, 4):
        for cyc in _cycles(G, length):
            w = word_of_cycle(cyc)
            if w and w not in relators:
                relators.append(w)
    return GroupPresentation(gens, tuple(relators))


def a1_bfs_oracle(G, v, max_loop_len=8, cap=200000):
    """Based-homotopy classes of bounded loops, by brute force.

    Loops are walks of length exactly ``max_loop_len`` from ``v`` to
    ``v`` (shorter loops embed by lazy steps); two loops are merged when
    pointwise adjacent.  Returns ``(count, cls)``.
    """
    import numpy  # imported on use: loading it dominated every CLI start
    n = len(G.vertices)
    if max_loop_len > 10 or n > 8:
        raise ValueError("oracle bounds: loop length <= 10, graphs <= 8 vertices")
    loops = []
    stack = [(v,)]
    while stack:
        walk = stack.pop()
        if len(loops) + len(stack) > cap:
            raise ValueError("oracle resource cap exceeded")
        if len(walk) == max_loop_len + 1:
            if walk[-1] == v:
                loops.append(walk)
            continue
        for w in G.neighbors(walk[-1]):
            stack.append(walk + (w,))
    uf = UnionFind()
    for l in loops:
        uf.add(l)
    loops_sorted = sorted(loops)
    vi = {v: i for i, v in enumerate(G.vertices)}
    A = numpy.zeros((n, n), dtype=bool)
    for u in G.vertices:
        for w in G.neighbors(u):
            A[vi[u], vi[w]] = True
    arr = numpy.array([[vi[x] for x in l] for l in loops_sorted],
                      dtype=numpy.int16)
    num_classes = len(loops_sorted)
    for i, a in enumerate(loops_sorted):
        if num_classes == 1:
            break
        ok = numpy.ones(len(arr), dtype=bool)
        ok[:i + 1] = False
        for k in range(arr.shape[1]):
            ok &= A[arr[i, k], arr[:, k]]
        for j in numpy.nonzero(ok)[0]:
            b = loops_sorted[j]
            if uf.find(a) != uf.find(b):
                uf.union(a, b)
                num_classes -= 1
                if num_classes == 1:
                    break
    classes = {uf.find(l) for l in loops}
    return len(classes), (lambda l: uf.find(l))


def abelianization_rank(p):
    """(free rank, torsion coefficients) of the abelianized presentation."""
    import sympy  # imported on use: loading it dominated every CLI start
    from sympy.matrices.normalforms import smith_normal_form
    g = len(p.generators)
    if g == 0:
        return 0, []
    if not p.relators:
        return g, []
    rows = []
    for w in p.relators:
        row = [0] * g
        for gen, e in w:
            row[p.generators.index(gen)] += e
        rows.append(row)
    M = smith_normal_form(sympy.Matrix(rows))
    diag = [int(M[i, i]) for i in range(min(M.shape))]
    nonzero = [abs(d) for d in diag if d != 0]
    rank = g - len(nonzero)
    torsion = [d for d in nonzero if d > 1]
    return rank, torsion


def is_trivial_presentation(p):
    """Decide triviality by single-occurrence Tietze eliminations.

    Returns Check(True) when every generator is eliminated,
    Check(False, {"undecided": ...}) when the procedure stalls (a
    stalled run is a non-result, not a proof of non-triviality).
    """
    gens = list(p.generators)
    relators = [list(w) for w in p.relators]
    progress = True
    while gens and progress:
        progress = False
        for ri, w in enumerate(relators):
            counts = {}
            for g, e in w:
                counts[g] = counts.get(g, 0) + 1
            solo = next((g for g in counts if counts[g] == 1), None)
            if solo is None:
                continue
            i = next(i for i, (g, e) in enumerate(w) if g == solo)
            # solo = inverse of the rest of the (rotated) word
            rest = w[i + 1:] + w[:i]
            if w[i][1] == 1:
                repl = [(g, -e) for g, e in reversed(rest)]
            else:
                repl = list(rest)
            new = []
            for rj, u in enumerate(relators):
                if rj == ri:
                    continue
                out = []
                for g, e in u:
                    if g != solo:
                        out.append((g, e))
                    elif e == 1:
                        out.extend(repl)
                    else:
                        out.extend((h, -d) for h, d in reversed(repl))
                red = free_reduce(tuple(out))
                if red:
                    new.append(list(red))
            relators = new
            gens.remove(solo)
            progress = True
            break
    if not gens:
        return Check(True)
    return Check(False, {"undecided": tuple(gens)})
