import random
import re

import pytest

from fraction_forge.dht import (
    Graph,
    GraphMap,
    GroupPresentation,
    StableCube,
    a1_bfs_oracle,
    a1_presentation,
    abelianization_rank,
    cycle,
    free_reduce,
    graph_from_dict,
    graph_map,
    interval,
    is_trivial_presentation,
    line_canon,
    line_ends,
    make_graph,
    open_box_filler_search,
    path_graph_lazy,
    pullback_graph_lazy,
    pullback_square_probe,
    vertex_cube,
    walk_cube,
)
from fraction_forge.dht import lazy


def complete_graph(n):
    return make_graph(range(n), [(i, j) for i in range(n)
                                 for j in range(i + 1, n)])


# -- graphs --------------------------------------------------------------

def test_graph_from_dict_rejects_bad_input():
    with pytest.raises(ValueError):
        graph_from_dict({"vertices": [0, 1], "edges": [[0, 0]]})
    with pytest.raises(ValueError):
        graph_from_dict({"vertices": [0, 1], "edges": [[0, 1], [1, 0]]})
    with pytest.raises(ValueError):
        graph_from_dict({"vertices": [0], "edges": [[0, 1]]})
    G = graph_from_dict({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]})
    assert G == graph_from_dict(G.to_dict())


def test_frozen_values_compare_and_hash_by_fields():
    G, H = interval(1), interval(1)
    f, g = graph_map(G, G, lambda v: v), graph_map(H, H, lambda v: v)
    c, d = vertex_cube(G, 0), vertex_cube(H, 0)
    word = (("g", 1), ("g", 1))
    p, q = (GroupPresentation(("g",), (word,)),
            GroupPresentation(("g",), (word,)))
    for x, y, other, fields, name in (
            (G, H, interval(2), (G.vertices, G.edges), "edges"),
            (f, g, graph_map(G, G, lambda v: 0), (G, G, (0, 1)), "mapping"),
            (c, d, vertex_cube(G, 1), (G, (), (0,)), "grid"),
            (p, q, GroupPresentation(("g",), ()), (("g",), (word,)),
             "relators")):
        assert x == y and hash(x) == hash(y)
        assert x != other and x != fields
        with pytest.raises(AttributeError):
            setattr(x, name, ())
        with pytest.raises(AttributeError):
            delattr(x, name)


@pytest.mark.parametrize("make, message", [
    (lambda: Graph((0, 0), frozenset()), "duplicate vertex"),
    (lambda: Graph((0, 1), frozenset({frozenset({0})})),
     "loop or malformed edge {0}"),
    (lambda: Graph((0,), frozenset({frozenset({0, 1})})),
     "edge {0, 1} mentions unknown vertices"),
    (lambda: GraphMap(interval(1), interval(1), (0,)),
     "mapping must cover every vertex"),
    (lambda: GraphMap(interval(1), make_graph([0, 1, 2], [(0, 1)]), (0, 2)),
     "edge {0, 1} not preserved"),
    (lambda: GroupPresentation(("g",), ((("g", 1), ("g", -1)),)),
     "relator (('g', 1), ('g', -1)) is not freely reduced"),
    (lambda: GroupPresentation(("g",), ((("h", 1),),)), "bad letter ('h', 1)"),
], ids=["duplicate-vertex", "loop", "unknown-vertex", "short-mapping",
        "edge-not-preserved", "unreduced-relator", "unknown-generator"])
def test_value_classes_reject_bad_fields(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# -- stable cubes --------------------------------------------------------

def random_walk(rng, G, length):
    walk = [rng.choice(G.vertices)]
    for _ in range(length):
        walk.append(rng.choice(G.neighbors(walk[-1])))
    return walk


def test_walk_cube_faces_and_trim():
    G = cycle(4)
    c = walk_cube(G, [0, 1, 2, 2, 2])
    assert c.extents == (2,)  # trailing constants trimmed
    assert c.face(1, 0) == vertex_cube(G, 0)
    assert c.face(1, 1) == vertex_cube(G, 2)
    assert c.trim() == c  # trim is idempotent


def test_constant_cube_normal_form():
    G = cycle(4)
    c = walk_cube(G, [3, 3, 3])
    assert c.extents == (0,)
    assert c.grid == (3,)


def test_cubical_identities_randomized():
    rng = random.Random(7)
    for G in (cycle(4), interval(2), complete_graph(4)):
        for _ in range(40):
            w = walk_cube(G, random_walk(rng, G, rng.randrange(1, 4)))
            for i in (1, 2):
                d = w.degeneracy(i)
                assert d.face(i, 0) == w.trim()
                assert d.face(i, 1) == w.trim()
            for eps in (0, 1):
                c = w.connection(1, eps)
                assert c.face(1, eps) == w.trim()
                if c.dim == 2:
                    assert c.face(2, eps) == w.trim()
            # two-dimensional face exchange on a connection square
            sq = w.connection(1, 0)
            if sq.dim == 2:
                for e1 in (0, 1):
                    for e2 in (0, 1):
                        assert (sq.face(1, e1).face(1, e2)
                                == sq.face(2, e2).face(1, e1))


def test_cube_validation_rejects_non_map():
    G = interval(2)
    with pytest.raises(ValueError):
        StableCube.from_function(G, (1,), lambda p: [0, 2][p[0]])


def test_open_box_one_dimensional():
    G = cycle(4)
    res = open_box_filler_search(G, 1, (1, 1), {(1, 0): vertex_cube(G, 2)})
    assert res.ok
    assert res.witness["filler"].face(1, 0) == vertex_cube(G, 2)


def test_open_box_square_in_cycle():
    G = cycle(4)
    faces = {
        (1, 0): walk_cube(G, [0, 1]),
        (1, 1): walk_cube(G, [3, 2]),
        (2, 0): walk_cube(G, [0, 3]),
    }
    res = open_box_filler_search(G, 2, (2, 1), faces)
    assert res.ok
    filler = res.witness["filler"]
    for key, want in faces.items():
        assert filler.face(*key) == want
    top = filler.face(2, 1)
    assert line_or_ends(top) == (1, 2)


def line_or_ends(c):
    return c.grid[0], c.grid[-1]


def test_open_box_incompatible_corners():
    G = cycle(4)
    faces = {
        (1, 0): walk_cube(G, [0, 1]),
        (1, 1): walk_cube(G, [3, 2]),
        (2, 0): walk_cube(G, [0, 0]),  # ends at 0, but (1,1) starts at 3
    }
    res = open_box_filler_search(G, 2, (2, 1), faces)
    assert not res.ok and "incompatible" in res.witness


def test_open_box_guards():
    G = cycle(4)
    with pytest.raises(ValueError):
        open_box_filler_search(G, 3, (1, 0), {})
    with pytest.raises(ValueError):
        open_box_filler_search(G, 1, (1, 1), {})


# -- loop group presentations --------------------------------------------

def test_free_reduce():
    assert free_reduce((("a", 1), ("a", -1))) == ()
    assert free_reduce((("a", 1), ("b", 1), ("b", -1), ("a", 1))) \
        == (("a", 1), ("a", 1))


def test_a1_tree_is_trivial():
    p = a1_presentation(interval(3), 0)
    assert p.generators == ()
    assert abelianization_rank(p) == (0, [])
    assert is_trivial_presentation(p).ok


def test_a1_square_is_trivial():
    # the 4-cycle bounds a square relator, so the group collapses
    p = a1_presentation(cycle(4), 0)
    assert len(p.generators) == 1 and len(p.relators) == 1
    assert abelianization_rank(p) == (0, [])
    assert is_trivial_presentation(p).ok


def test_a1_complete_graph_trivial():
    p = a1_presentation(complete_graph(4), 0)
    assert abelianization_rank(p) == (0, [])
    assert is_trivial_presentation(p).ok


def test_a1_long_cycles_are_infinite_cyclic():
    for m in range(5, 9):
        p = a1_presentation(cycle(m), 0)
        assert len(p.generators) == 1
        assert p.relators == ()
        assert abelianization_rank(p) == (1, [])


def test_a1_disconnected_rejected():
    G = make_graph([0, 1, 2], [(0, 1)])
    with pytest.raises(ValueError):
        a1_presentation(G, 0)


def test_oracle_matches_presentation_triviality():
    cases = [
        (interval(2), 6), (cycle(4), 8), (cycle(5), 8),
        (complete_graph(4), 6),
    ]
    for G, bound in cases:
        p = a1_presentation(G, 0)
        count, _ = a1_bfs_oracle(G, 0, max_loop_len=bound)
        rank, torsion = abelianization_rank(p)
        presentation_trivial = bool(is_trivial_presentation(p))
        if presentation_trivial:
            assert count == 1, G
        if rank > 0 or torsion:
            assert count > 1, G
        # the two triviality verdicts must not contradict each other
        assert not (presentation_trivial and (rank > 0 or torsion))


def test_oracle_guards():
    with pytest.raises(ValueError):
        a1_bfs_oracle(cycle(5), 0, max_loop_len=12)


# -- lazy graphs ---------------------------------------------------------

def test_line_canon():
    assert line_canon((5, (0, 0, 0))) == (0, (0,))
    assert line_canon((3, (0, 0, 1, 1))) == (4, (0, 1))
    assert line_ends((0, (0, 1, 2))) == (0, 2)
    with pytest.raises(ValueError):
        line_canon((0, ()))


def test_path_graph_point():
    P = path_graph_lazy(interval(0), window=1)
    v = P.canon((0, (0,)))
    assert P.neighbors(v) == (v,)


def test_path_graph_interval_adjacency():
    P = path_graph_lazy(interval(1), window=1)
    const = (0, (0,))
    bump = (-1, (0, 1, 0))
    assert P.adjacent(const, P.canon((7, (0,))))  # shifts of a constant
    assert P.adjacent(const, bump)
    # the spike and its shift stay adjacent (they overlap pointwise)
    assert P.adjacent(bump, (0, (0, 1, 0)))
    # paths with different ends at +infinity need adjacent ends
    edge = (0, (0, 1))
    assert P.adjacent(const, edge)
    nbrs = P.neighbors(const)
    assert const in nbrs and bump in nbrs and edge in nbrs


def test_path_graph_ball_is_finite_probe():
    P = path_graph_lazy(cycle(4), window=1)
    ball = P.ball((0, (0,)), 1)
    assert (0, (0,)) in ball
    assert all(v == P.canon(v) for v in ball)


def test_pullback_projections_and_square():
    G, K = cycle(4), interval(0)
    f = graph_map(G, K, lambda v: 0)
    g = graph_map(K, K, lambda v: v)
    P, proj = pullback_graph_lazy(f, g, window=1)
    base = P.canon((0, (0, (0,)), (0, (0,)), 0))
    assert proj["pi_G"](base) == 0
    assert proj["pi_H"](base) == 0
    assert proj["pi_K"](base) == 0
    res = pullback_square_probe(f, g, base, radius=1, window=1)
    assert res.ok, res.witness


def test_pullback_probe_rejects_non_adjacent_neighbours(monkeypatch):
    # a path-graph neighbour enumerator that shifts every neighbour one
    # position right: the shifted paths keep their ends, so the
    # projections stay graph maps, but many are no longer pointwise
    # adjacent to the vertex they were enumerated from
    def shifted(K, window=2):
        PK = path_graph_lazy(K, window)
        return lazy.LazyGraph(line_canon, PK.adjacent, lambda v: (
            (start + 1, walk) for start, walk in PK.neighbors(v)))

    monkeypatch.setattr(lazy, "path_graph_lazy", shifted)
    K, G = cycle(4), interval(2)
    f = graph_map(G, K, lambda v: v)
    g = graph_map(K, K, lambda v: v)
    base = (0, (0, (0,)), (0, (0,)), 0)
    res = pullback_square_probe(f, g, base, radius=1, window=1)
    assert not res.ok and res.witness["reason"] == "neighbour not adjacent"
    P, _ = lazy.pullback_graph_lazy(f, g, window=1)
    assert not P.adjacent(res.witness["vertex"], res.witness["neighbor"])


def test_pullback_rejects_mismatched_cospan():
    f = graph_map(cycle(4), cycle(4), lambda v: v)
    g = graph_map(cycle(5), cycle(5), lambda v: v)
    with pytest.raises(ValueError):
        pullback_graph_lazy(f, g)


def test_pullback_rejects_bad_vertex():
    K = interval(1)
    f = graph_map(K, K, lambda v: v)
    P, _ = pullback_graph_lazy(f, f, window=1)
    with pytest.raises(ValueError):
        P.canon((0, (0, (0,)), (0, (1,)), 1))  # starts differ
