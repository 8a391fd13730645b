"""Reference a1 oracle and abelianization: the numpy pairwise scan and
the sympy Smith normal form that ``fraction_forge.dht.groups`` used before
its pure-Python kernels, kept as a differential oracle for them."""

from fraction_forge.sset_core.unionfind import UnionFind


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
