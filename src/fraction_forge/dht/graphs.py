"""Reflexive graphs, box products, hom graphs, and homotopy search.

A graph is a vertex set with a symmetric adjacency relation; the
reflexive loops are implicit and never stored.  Maps may collapse edges
(adjacent-or-equal images).
"""

from dataclasses import dataclass
from itertools import product

from ..sset_core.enumerate import Check


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edges: frozenset  # of frozensets {u, v}, u != v

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex")
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"loop or malformed edge {set(e)!r}")
            if not e <= vs:
                raise ValueError(f"edge {set(e)!r} mentions unknown vertices")

    def adjacent(self, u, v):
        """Adjacent-or-equal (the reflexive relation)."""
        return u == v or frozenset((u, v)) in self.edges

    def neighbors(self, v):
        """Closed neighborhood, deterministically ordered."""
        out = [v]
        for u in self.vertices:
            if u != v and frozenset((u, v)) in self.edges:
                out.append(u)
        return out

    def to_dict(self):
        return {"vertices": list(self.vertices),
                "edges": sorted(sorted(e, key=repr) for e in self.edges)}


def graph_from_dict(d):
    """Parse {"vertices": [...], "edges": [[u, v], ...]}.

    Vertices are strings or integers.  Loops are rejected as redundant
    (reflexivity is implicit); listing a pair twice, in either order, is
    rejected as inconsistent input.
    """
    if (not isinstance(d, dict) or not isinstance(d.get("vertices"), list)
            or not isinstance(d.get("edges"), list)):
        raise ValueError('malformed graph payload: needs lists "vertices" '
                         'and "edges"')
    for x in d["vertices"]:
        if not isinstance(x, (str, int)):
            raise ValueError(f"vertex {x!r} is not a string or an integer")
    vertices = tuple(d["vertices"])
    seen = set()
    edges = set()
    for e in d["edges"]:
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(x, (str, int)) for x in e)):
            raise ValueError(f"edge {e!r} must be a pair of vertices")
        u, v = e
        if u == v:
            raise ValueError(f"loop {e!r} is redundant (graphs are reflexive)")
        key = frozenset((u, v))
        if key in seen:
            raise ValueError(f"edge {e!r} listed twice")
        seen.add(key)
        edges.add(key)
    return Graph(vertices, frozenset(edges))


def make_graph(vertices, pairs):
    return Graph(tuple(vertices),
                 frozenset(frozenset(p) for p in pairs))


def interval(m):
    """The path graph I_m on vertices 0 .. m."""
    return make_graph(range(m + 1), [(i, i + 1) for i in range(m)])


def cycle(m):
    """The cycle C_m on vertices 0 .. m-1."""
    if m < 3:
        raise ValueError("cycles need at least 3 vertices")
    return make_graph(range(m), [(i, (i + 1) % m) for i in range(m)])


def box_product(G, H):
    """Vertices G x H; change one coordinate along an edge at a time."""
    vertices = [(v, w) for v in G.vertices for w in H.vertices]
    edges = set()
    for v, w in vertices:
        for v2 in G.neighbors(v):
            if v2 != v:
                edges.add(frozenset(((v, w), (v2, w))))
        for w2 in H.neighbors(w):
            if w2 != w:
                edges.add(frozenset(((v, w), (v, w2))))
    return Graph(tuple(vertices), frozenset(edges))


@dataclass(frozen=True)
class GraphMap:
    src: Graph
    dst: Graph
    mapping: tuple  # images in src.vertices order

    def __post_init__(self):
        if len(self.mapping) != len(self.src.vertices):
            raise ValueError("mapping must cover every vertex")
        for e in self.src.edges:
            u, v = tuple(e)
            if not self.dst.adjacent(self(u), self(v)):
                raise ValueError(f"edge {set(e)!r} not preserved")

    def __call__(self, v):
        return self.mapping[self.src.vertices.index(v)]


def graph_map(src, dst, fn):
    return GraphMap(src, dst, tuple(fn(v) for v in src.vertices))


def identity_map(G):
    return GraphMap(G, G, tuple(G.vertices))


def compose_maps(g, f):
    return GraphMap(f.src, g.dst, tuple(g(f(v)) for v in f.src.vertices))


def all_graph_maps(G, H):
    """Every graph map G -> H, deterministically ordered (exponential)."""
    out = []
    for images in product(H.vertices, repeat=len(G.vertices)):
        try:
            out.append(GraphMap(G, H, images))
        except ValueError:
            continue
    return out


def hom_graph(G, H):
    """Internal hom: vertices are maps G -> H, adjacent pointwise."""
    maps = all_graph_maps(G, H)
    vertices = tuple(m.mapping for m in maps)
    edges = set()
    for a in vertices:
        for b in vertices:
            if a < b and all(H.adjacent(x, y) for x, y in zip(a, b)):
                edges.add(frozenset((a, b)))
    return Graph(vertices, frozenset(edges))


def _map_neighbors(f):
    """Maps pointwise adjacent to f (including f), lazily generated."""
    G, H = f.src, f.dst
    choices = [H.neighbors(x) for x in f.mapping]
    for images in product(*choices):
        try:
            yield GraphMap(G, H, images)
        except ValueError:
            continue


def homotopy_search(f, g, max_len=6):
    """Shortest homotopy f ~ g as a vertex path in the hom graph.

    Returns Check; witness {"steps": [maps]} on success (an I_m
    homotopy with m = len-1 steps), {"exhausted": max_len} otherwise.
    """
    if f.src != g.src or f.dst != g.dst:
        raise ValueError("homotopy endpoints must be parallel maps")
    start, goal = f.mapping, g.mapping
    prev = {start: None}
    frontier = [f]
    for _ in range(max_len + 1):
        if goal in prev:
            break
        nxt = []
        for h in frontier:
            for h2 in _map_neighbors(h):
                if h2.mapping not in prev:
                    prev[h2.mapping] = h.mapping
                    nxt.append(h2)
        frontier = nxt
        if not frontier:
            break
    if goal not in prev:
        return Check(False, {"exhausted": max_len})
    path = [goal]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    steps = [GraphMap(f.src, f.dst, m) for m in reversed(path)]
    return Check(True, {"steps": steps})


def is_homotopy_equiv_search(G, H, bound=4):
    """Bounded search for a homotopy equivalence G ~ H.

    Returns Check; on success the witness holds (f, g, alpha, beta).
    Exhaustion is a bounded non-result, never a refutation.
    """
    maps_fw = all_graph_maps(G, H)
    maps_bw = all_graph_maps(H, G)
    idG, idH = identity_map(G), identity_map(H)
    for f in maps_fw:
        for g in maps_bw:
            a = homotopy_search(compose_maps(g, f), idG, bound)
            if not a.ok:
                continue
            b = homotopy_search(compose_maps(f, g), idH, bound)
            if b.ok:
                return Check(True, {"f": f, "g": g,
                                    "alpha": a.witness["steps"],
                                    "beta": b.witness["steps"]})
    return Check(False, {"exhausted": bound})
