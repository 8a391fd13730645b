"""Reflexive graphs and graph maps.

A graph is a vertex set with a symmetric adjacency relation; the
reflexive loops are implicit and never stored.  Maps may collapse edges
(adjacent-or-equal images).
"""

from ..sset_core.sset import Frozen


class Graph(Frozen):
    def __init__(self, vertices, edges):
        # edges: a frozenset of frozensets {u, v}, u != v
        vs = set(vertices)
        if len(vs) != len(vertices):
            raise ValueError("duplicate vertex")
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"loop or malformed edge {set(e)!r}")
            if not e <= vs:
                raise ValueError(f"edge {set(e)!r} mentions unknown vertices")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.vertices, self.edges)
                    == (other.vertices, other.edges))
        return NotImplemented

    def __hash__(self):
        return hash((self.vertices, self.edges))

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


class GraphMap(Frozen):
    def __init__(self, src, dst, mapping):
        # mapping: images in src.vertices order
        if len(mapping) != len(src.vertices):
            raise ValueError("mapping must cover every vertex")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "mapping", mapping)
        for e in src.edges:
            u, v = tuple(e)
            if not dst.adjacent(self(u), self(v)):
                raise ValueError(f"edge {set(e)!r} not preserved")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.src, self.dst, self.mapping)
                    == (other.src, other.dst, other.mapping))
        return NotImplemented

    def __hash__(self):
        return hash((self.src, self.dst, self.mapping))

    def __call__(self, v):
        return self.mapping[self.src.vertices.index(v)]


def graph_map(src, dst, fn):
    return GraphMap(src, dst, tuple(fn(v) for v in src.vertices))
