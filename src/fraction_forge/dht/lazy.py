"""Lazily presented graphs: path graphs and the pullback built from
them.

These graphs can be infinite (a path graph has a vertex for every
stable line map), so they are exposed through probes only: a canonical
form, an adjacency oracle, and a window-bounded neighbor enumeration.
Exhausting a window never proves a negative.
"""

from itertools import product as iproduct

from ..sset_core.enumerate import Check


class LazyGraph:
    """A graph given by oracles instead of a finite vertex list.

    ``canon`` normalizes vertex presentations, ``adjacent`` is the
    reflexive adjacency oracle, ``neighbors`` enumerates the closed
    neighborhood (bounded by the construction's window where the true
    neighborhood is infinite).
    """

    def __init__(self, canon, adjacent, neighbors):
        self._canon = canon
        self._adjacent = adjacent
        self._neighbors = neighbors
        self._nb_cache = {}

    def canon(self, v):
        return self._canon(v)

    def adjacent(self, u, v):
        u, v = self._canon(u), self._canon(v)
        return u == v or self._adjacent(u, v)

    def neighbors(self, v):
        v = self._canon(v)
        if v not in self._nb_cache:
            out = [v]
            for w in self._neighbors(v):
                w = self._canon(w)
                if w != v and w not in out:
                    out.append(w)
            self._nb_cache[v] = tuple(out)
        return self._nb_cache[v]

    def ball(self, v, radius):
        """Vertices within the given distance, by window-bounded BFS."""
        v = self.canon(v)
        seen = {v}
        frontier = [v]
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for w in self.neighbors(u):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return seen


# -- path graphs ---------------------------------------------------------

def line_canon(v):
    """Normal form of a stable line map: (start, trimmed walk).

    The map is constant left of ``start`` and right of the walk's end;
    trimming removes constant outer values (constant maps normalize to
    ``(0, (value,))``).
    """
    start, walk = v
    walk = list(walk)
    if not walk:
        raise ValueError("empty walk")
    while len(walk) > 1 and walk[0] == walk[1]:
        walk.pop(0)
        start += 1
    while len(walk) > 1 and walk[-1] == walk[-2]:
        walk.pop()
    if len(walk) == 1:
        return (0, (walk[0],))
    return (start, tuple(walk))


def line_value(v, i):
    """Value of the stable line map at integer position i."""
    start, walk = v
    return walk[min(max(i - start, 0), len(walk) - 1)]


def line_ends(v):
    """(value at -infinity, value at +infinity)."""
    _, walk = v
    return walk[0], walk[-1]


def path_graph_lazy(K, window=2):
    """The path graph of K: stable line maps, pointwise adjacent.

    ``neighbors`` enumerates maps supported within ``window`` positions
    beyond the vertex's own support (the true neighborhood is infinite
    whenever K has an edge).
    """

    def adjacent(u, v):
        su, wu = u
        sv, wv = v
        lo = min(su, sv)
        hi = max(su + len(wu), sv + len(wv)) - 1
        if not all(K.adjacent(line_value(u, i), line_value(v, i))
                   for i in range(lo, hi + 1)):
            return False
        return all(K.adjacent(a, b)
                   for a, b in zip(line_ends(u), line_ends(v)))

    def neighbors(v):
        start, walk = v
        lo, hi = start - window, start + len(walk) - 1 + window
        choices = [K.neighbors(line_value(v, i)) for i in range(lo, hi + 1)]
        for images in iproduct(*choices):
            if all(K.adjacent(a, b) for a, b in zip(images, images[1:])):
                yield (lo, images)

    return LazyGraph(line_canon, adjacent, neighbors)


# -- the pullback ---------------------------------------------------------

def pullback_graph_lazy(f, g, window=2):
    """Limit of ``G -> K <- P(K) -> K <- P(K) -> K <- H`` for a cospan
    ``f: G -> K``, ``g: H -> K``.

    Vertices are (x, p, q, y): two paths in K sharing their start, with
    ``p`` ending at f(x) and ``q`` ending at g(y).  Returns the lazy
    graph together with its projections ``pi_G``, ``pi_H``, ``pi_K``
    and the two comparison paths ``pi_1``, ``pi_2``.
    """
    if f.dst != g.dst:
        raise ValueError("cospan legs must share their codomain")
    G, H, K = f.src, g.src, f.dst
    PK = path_graph_lazy(K, window)

    def canon(v):
        x, p, q, y = v
        p, q = PK.canon(p), PK.canon(q)
        if line_ends(p)[1] != f(x) or line_ends(q)[1] != g(y):
            raise ValueError("path ends do not match the cospan anchors")
        if line_ends(p)[0] != line_ends(q)[0]:
            raise ValueError("the two paths must share their start")
        return (x, p, q, y)

    def adjacent(u, v):
        xu, pu, qu, yu = u
        xv, pv, qv, yv = v
        return (G.adjacent(xu, xv) and H.adjacent(yu, yv)
                and PK.adjacent(pu, pv) and PK.adjacent(qu, qv))

    def neighbors(v):
        x, p, q, y = v
        for x2, y2 in iproduct(G.neighbors(x), H.neighbors(y)):
            for p2 in PK.neighbors(p):
                if line_ends(p2)[1] != f(x2):
                    continue
                for q2 in PK.neighbors(q):
                    if (line_ends(q2)[1] == g(y2)
                            and line_ends(q2)[0] == line_ends(p2)[0]):
                        yield (x2, p2, q2, y2)

    P = LazyGraph(canon, adjacent, neighbors)
    projections = {
        "pi_G": lambda v: v[0],
        "pi_H": lambda v: v[3],
        "pi_K": lambda v: line_ends(v[1])[0],
        "pi_1": lambda v: v[1],
        "pi_2": lambda v: v[2],
    }
    return P, projections


def pullback_square_probe(f, g, base_vertex, radius=1, window=2):
    """Check, over a ball in the pullback, that every enumerated
    neighbour of every ball vertex is adjacent to it by the pullback's
    adjacency oracle: adjacent ends in G and H and pointwise adjacent
    comparison paths, so the projections are graph maps and the two
    squares commute up to the path witnesses."""
    P, _ = pullback_graph_lazy(f, g, window)
    ball = P.ball(base_vertex, radius)
    for v in sorted(ball, key=repr):
        for w in P.neighbors(v):
            if not P.adjacent(v, w):
                return Check(False, {"vertex": v, "neighbor": w,
                                     "reason": "neighbour not adjacent"})
    return Check(True, {"ball_size": len(ball)})
