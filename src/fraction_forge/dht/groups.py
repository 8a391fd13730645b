"""Presentations of the first discrete homotopy group and an
independent bounded-homotopy oracle.

The presentation model: generators are the non-tree edges of a spanning
tree, relators are the boundaries of all 3- and 4-cycles.  This model is
not assumed correct a priori; it is cross-checked against the oracle,
which quotients bounded based loops by pointwise-adjacency homotopies.
"""

from ..sset_core.enumerate import Check
from ..sset_core.sset import Frozen


class GroupPresentation(Frozen):
    def __init__(self, generators, relators):
        # relators are words: tuples of (generator, +1/-1), freely reduced
        for w in relators:
            if w != free_reduce(w):
                raise ValueError(f"relator {w!r} is not freely reduced")
            for g, e in w:
                if g not in generators or e not in (1, -1):
                    raise ValueError(f"bad letter {(g, e)!r}")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.generators, self.relators)
                    == (other.generators, other.relators))
        return NotImplemented

    def __hash__(self):
        return hash((self.generators, self.relators))


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
    pointwise adjacent.  Returns ``(count, cls)``; ``cls`` maps a loop to
    the least member of its class under ``repr``.
    """
    n = len(G.vertices)
    if max_loop_len > 10 or n > 8:
        raise ValueError("oracle bounds: loop length <= 10, graphs <= 8 vertices")
    nbrs = {u: G.neighbors(u) for u in G.vertices}
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
        for w in nbrs[walk[-1]]:
            stack.append(walk + (w,))
    loops.sort(key=repr)
    # near[k][u]: bitset of the loops whose k-th vertex is adjacent-or-equal
    # to u (bit i stands for loops[i]); both ends are v on every loop
    inner = range(1, max_loop_len)
    near = []
    for k in inner:
        at = {u: bytearray(len(loops) // 8 + 1) for u in G.vertices}
        for i, loop in enumerate(loops):
            at[loop[k]][i >> 3] |= 1 << (i & 7)
        at = {u: int.from_bytes(b, "little") for u, b in at.items()}
        row = {}
        for u in G.vertices:
            row[u] = 0
            for w in nbrs[u]:
                row[u] |= at[w]
        near.append(row)
    # search each class from its least loop; a loop's unreached neighbours
    # are the AND of its positions' rows with the unreached set
    unreached = (1 << len(loops)) - 1
    rep = {}
    for i, first in enumerate(loops):
        if first in rep:
            continue
        rep[first] = first
        unreached ^= 1 << i
        frontier = [first]
        while frontier:
            a = frontier.pop()
            reach = unreached
            for k, row in zip(inner, near):
                reach &= row[a[k]]
            unreached ^= reach
            while reach:
                low = reach & -reach
                reach ^= low
                b = loops[low.bit_length() - 1]
                rep[b] = first
                frontier.append(b)
    return len(set(rep.values())), rep.__getitem__


def _invariant_factors(rows):
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix, the
    diagonal of its Smith normal form, by unimodular row and column
    operations (Kannan & Bachem, SIAM J. Comput. 8(4), 1979)."""
    A = [list(r) for r in rows if any(r)]
    factors = []
    while A:
        _, i, j = min((abs(x), i, j) for i, r in enumerate(A)
                      for j, x in enumerate(r) if x)
        top, p = A[i], A[i][j]
        while True:
            for r in A:  # column j modulo p, by row operations
                q = r[j] // p
                if q and r is not top:
                    r[:] = [x - q * y for x, y in zip(r, top)]
            for c in range(len(top)):  # row i modulo p, by column operations
                q = top[c] // p
                if q and c != j:
                    for r in A:
                        r[c] -= q * r[j]
            if (any(r[j] for r in A if r is not top)
                    or any(x for c, x in enumerate(top) if c != j)):
                break  # a nonzero remainder is a smaller pivot
            bad = next((r for r in A if any(x % p for x in r)), None)
            if bad is None:
                factors.append(abs(p))
                A = [r[:j] + r[j + 1:] for r in A if r is not top]
                A = [r for r in A if any(r)]
                break
            # p must divide every entry: pull a row it does not divide into
            # the pivot's row, whose reduction then leaves a remainder
            top[:] = [x + y for x, y in zip(top, bad)]
    return factors


def abelianization_rank(p):
    """(free rank, torsion coefficients) of the abelianized presentation."""
    g = len(p.generators)
    rows = []
    for w in p.relators:
        row = [0] * g
        for gen, e in w:
            row[p.generators.index(gen)] += e
        rows.append(row)
    factors = _invariant_factors(rows)
    return g - len(factors), [d for d in factors if d > 1]


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
