"""Monotone maps between finite ordinals, used as simplicial operators.

An operator is a tuple ``op`` of length ``n + 1`` with values in
``0 .. m`` representing a monotone map ``[n] -> [m]``.  Degeneracy data
is stored as the surjective part of an operator; the external "word"
form is the strictly decreasing list of positions ``i`` with
``op[i] == op[i + 1]``.
"""


def is_surjection(op, m):
    """True if ``op`` is a monotone surjection onto ``[m]``."""
    if not op or op[0] != 0 or op[-1] != m:
        return False
    return all(op[i + 1] - op[i] in (0, 1) for i in range(len(op) - 1))


def identity_op(n):
    return tuple(range(n + 1))


def delta(i, n):
    """Coface ``[n - 1] -> [n]`` skipping ``i``."""
    return tuple(j for j in range(n + 1) if j != i)


def sigma(i, n):
    """Codegeneracy ``[n + 1] -> [n]`` repeating ``i``."""
    return tuple(j - 1 if j > i else j for j in range(n + 2))


def compose(f, g):
    """Composite ``f . g`` (apply ``g`` first)."""
    return tuple(f[v] for v in g)


def epi_mono_factor(op):
    """Factor a monotone map as ``inj . surj``.

    Returns ``(surj, image)`` where ``image`` is the sorted tuple of
    values hit (the mono part) and ``surj`` maps onto ``[len(image)-1]``.
    """
    image = sorted(set(op))
    rank = {v: i for i, v in enumerate(image)}
    return tuple(rank[v] for v in op), tuple(image)


def word_from_surj(op):
    """Strictly decreasing degeneracy word of a monotone surjection."""
    return [i for i in range(len(op) - 2, -1, -1) if op[i] == op[i + 1]]


def surj_from_word(word, n):
    """Surjection ``[n] -> [n - len(word)]`` with repeats at ``word``.

    ``word`` must be strictly decreasing and within ``0 .. n - 1``.
    """
    if list(word) != sorted(set(word), reverse=True):
        raise ValueError(f"degeneracy word not strictly decreasing: {word}")
    if word and (word[0] > n - 1 or word[-1] < 0):
        raise ValueError(f"degeneracy word {word} out of range for dim {n}")
    repeats = set(word)
    op = []
    v = 0
    for i in range(n + 1):
        op.append(v)
        if i not in repeats:
            v += 1
    return tuple(op)


def op_reverse(op, m):
    """Conjugate an operator by the order reversal of source and target."""
    n = len(op) - 1
    return tuple(m - op[n - i] for i in range(n + 1))
