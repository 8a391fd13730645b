"""The pure-Python a1 oracle and abelianization against the reference
numpy/sympy versions: the same class counts, the same class
representatives, the same invariant factors and the same errors."""

import json
import random

import pytest

pytest.importorskip("numpy")
sympy = pytest.importorskip("sympy")

import reference_dht as ref
from fraction_forge import cli
from fraction_forge.dht import (
    GroupPresentation,
    a1_bfs_oracle,
    abelianization_rank,
    cycle,
    free_reduce,
    graph_from_dict,
    make_graph,
)
from fraction_forge.dht.groups import _invariant_factors


def loops(G, v, length):
    out = [(v,)]
    for _ in range(length):
        out = [w + (u,) for w in out for u in G.neighbors(w[-1])]
    return [w for w in out if w[-1] == v]


def same_oracle(G, v, length):
    want_count, want_cls = ref.a1_bfs_oracle(G, v, max_loop_len=length)
    count, cls = a1_bfs_oracle(G, v, max_loop_len=length)
    assert count == want_count, (G, v, length)
    for loop in loops(G, v, length):
        assert cls(loop) == want_cls(loop), (G, v, length, loop)
    return count


def connected_graph(rng, n):
    """A random spanning tree on ``n`` vertices plus random chords."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    chords = [(a, b) for a in range(n) for b in range(a + 1, n)
              if (a, b) not in edges]
    edges |= set(rng.sample(chords, rng.randint(0, min(3, len(chords)))))
    return make_graph(range(n), edges)


def test_oracle_matches_reference_on_random_graphs():
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        G = connected_graph(rng, rng.randint(1, 8))
        length = rng.randint(4, 8)
        # keep the reference's pairwise scan small
        if len(loops(G, 0, length)) > 2500:
            continue
        same_oracle(G, rng.choice(G.vertices), length)
        checked += 1
    assert checked >= 25


def test_oracle_matches_reference_on_cycles_with_extras():
    # long cycles give several classes; a pendant varies the loops
    for m in (5, 6, 7):
        C = cycle(m)
        pendant = make_graph(range(m + 1), {tuple(e) for e in C.edges}
                             | {(m, 2)})
        for G in (C, pendant):
            for length in (4, 6, m):
                same_oracle(G, 0, length)
    assert same_oracle(cycle(5), 0, 8) == 3


def test_oracle_matches_reference_on_corpus_graphs():
    paths = sorted((cli.corpus_path() / "graphs").glob("*.json"))
    assert len(paths) == 9
    for p in paths:
        d = json.loads(p.read_text())
        G = graph_from_dict(d)
        count = same_oracle(G, G.vertices[0],
                            d["expect"].get("oracle_bound", 8))
        if "oracle_classes" in d["expect"]:
            assert count == d["expect"]["oracle_classes"], p.name


def test_oracle_raises_like_reference():
    big = make_graph(range(9), [(i, i + 1) for i in range(8)])
    cases = [(cycle(5), 0, 11, 200000), (big, 0, 4, 200000),
             (cycle(5), 0, 8, 50), (cycle(4), 0, 6, 0)]
    for G, v, length, cap in cases:
        with pytest.raises(ValueError) as want:
            ref.a1_bfs_oracle(G, v, max_loop_len=length, cap=cap)
        with pytest.raises(ValueError) as got:
            a1_bfs_oracle(G, v, max_loop_len=length, cap=cap)
        assert str(got.value) == str(want.value)


def sympy_factors(rows):
    from sympy.matrices.normalforms import smith_normal_form
    M = smith_normal_form(sympy.Matrix(rows))
    diag = [abs(int(M[i, i])) for i in range(min(M.shape))]
    return [d for d in diag if d]


def test_invariant_factors_match_sympy():
    rng = random.Random(3)
    entries = [0, 0, 0, 1, -1, 2, -2, 3, 4, -6, 9]
    torsion = 0
    for _ in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
        got = _invariant_factors(rows)
        assert got == sympy_factors(rows), rows
        torsion += any(d > 1 for d in got)
    assert torsion > 50
    assert _invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert _invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert _invariant_factors([[0, 0]]) == []


def test_abelianization_matches_reference():
    rng = random.Random(5)
    gens = ("a", "b", "c")
    presentations = [
        GroupPresentation(("g",), ((("g", 1), ("g", 1)),)),  # Z/2
        GroupPresentation(gens, ()),
        GroupPresentation((), ()),
    ]
    for _ in range(200):
        relators = set()
        for _ in range(rng.randint(1, 3)):
            w = free_reduce(tuple((rng.choice(gens), rng.choice((1, -1)))
                                  for _ in range(rng.randint(1, 6))))
            if w:
                relators.add(w)
        presentations.append(GroupPresentation(gens, tuple(sorted(relators))))
    assert abelianization_rank(presentations[0]) == (0, [2])
    for p in presentations:
        assert abelianization_rank(p) == ref.abelianization_rank(p), p
