"""Finite posets and finite categories with explicit composition tables."""

import weakref


class Poset:
    """A finite poset given by its elements and order relation."""

    def __init__(self, elements, leq_pairs):
        self.elements = list(elements)
        idx = {e: i for i, e in enumerate(self.elements)}
        if len(idx) != len(self.elements):
            raise ValueError("duplicate poset elements")
        self._leq = set()
        for a, b in leq_pairs:
            if a not in idx or b not in idx:
                raise ValueError(f"relation on unknown element: {(a, b)}")
            self._leq.add((a, b))
        for e in self.elements:
            self._leq.add((e, e))
        # transitivity closure check (we require the input to be closed)
        for a, b in list(self._leq):
            for c in self.elements:
                if (b, c) in self._leq and (a, c) not in self._leq:
                    raise ValueError(f"order not transitively closed at {(a, b, c)}")
        for a, b in self._leq:
            if a != b and (b, a) in self._leq:
                raise ValueError(f"antisymmetry fails at {(a, b)}")

    def leq(self, a, b):
        return (a, b) in self._leq

    @staticmethod
    def from_leq(elements, leq):
        """Build from a predicate, closing nothing (predicate must be an order)."""
        elements = list(elements)
        pairs = [(a, b) for a in elements for b in elements if leq(a, b)]
        return Poset(elements, pairs)


class Morphism:
    def __init__(self, name, dom, cod):
        self.name = name
        self.dom = dom
        self.cod = cod

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.name, self.dom, self.cod)
                    == (other.name, other.dom, other.cod))
        return NotImplemented


class FinCategory:
    """A finite category stored by arrow id: ids number the morphisms in
    their given order, ``names[i]`` is the name of arrow ``i`` and
    ``morphisms`` maps a name to its id, ``doms[i]``/``cods[i]`` are its
    ends and ``idents[x]`` is the id of the identity of ``x``.  For ``n``
    arrows, ``table[g * n + f]`` is the id of ``g . f``, one entry per
    composable pair.  The constructor takes the names, with
    ``comp[(g, f)]`` the name of ``g . f``."""

    def __init__(self, objects, morphisms, identities, comp):
        names = [m.name for m in morphisms]
        ids = {f: i for i, f in enumerate(names)}
        if len(ids) != len(names):
            raise ValueError("duplicate morphism names")
        objects = list(objects)
        known = set(objects)
        if len(known) != len(objects):
            raise ValueError("duplicate object names")
        for x in identities:
            if x not in known:
                raise ValueError(f"identity given for unknown object {x!r}")
        n, table = len(names), {}
        for (g, f), h in comp.items():
            if g not in ids or f not in ids:
                raise ValueError(f"composite of unknown morphisms {g!r}, {f!r}")
            table[ids[g] * n + ids[f]] = ids.get(h, -1)  # -1: unknown name
        hom, out, into = {}, {}, {}
        for i, m in enumerate(morphisms):
            hom.setdefault((m.dom, m.cod), []).append(i)
            out.setdefault(m.dom, []).append(i)
            into.setdefault(m.cod, []).append(i)
        self.objects, self.names, self.morphisms = objects, names, ids
        self.doms = [m.dom for m in morphisms]
        self.cods = [m.cod for m in morphisms]
        self.idents = {x: ids.get(e, -1) for x, e in identities.items()}
        self.table, self._op = table, None
        self._hom, self._out, self._into = (
            {k: tuple(v) for k, v in t.items()} for t in (hom, out, into))
        self.validate()

    # -- queries by id ---------------------------------------------------

    def hom_ids(self, x, y):
        """The ids of the morphisms ``x -> y``, in increasing order."""
        return self._hom.get((x, y), ())

    def out_ids(self, x):
        """The ids of the morphisms out of ``x``, in increasing order."""
        return self._out.get(x, ())

    def composites(self):
        """``(g, f, g . f)`` as ids for every composable pair, in the
        order of the constructor's ``comp``."""
        n = len(self.names)
        return [(k // n, k % n, h) for k, h in self.table.items()]

    # -- queries by name -------------------------------------------------

    def dom(self, f):
        return self.doms[self.morphisms[f]]

    def cod(self, f):
        return self.cods[self.morphisms[f]]

    def ident(self, x):
        return self.names[self.idents[x]]

    def is_identity(self, f):
        i = self.morphisms[f]
        return self.idents[self.doms[i]] == i

    def compose(self, g, f):
        """Composite ``g . f`` (apply ``f`` first)."""
        ids = self.morphisms
        return self.names[self.table[ids[g] * len(self.names) + ids[f]]]

    def hom(self, x, y):
        """The morphisms ``x -> y`` in the order of ``self.morphisms``."""
        return tuple(map(self.names.__getitem__, self._hom.get((x, y), ())))

    def out(self, x):
        """The morphisms out of ``x`` in the order of ``self.morphisms``."""
        return tuple(map(self.names.__getitem__, self._out.get(x, ())))

    def morphism_names(self):
        return list(self.morphisms)

    def inverse(self, f):
        """The inverse of ``f``, or None if ``f`` is not an isomorphism."""
        i, n, t = self.morphisms[f], len(self.names), self.table
        x, y = self.doms[i], self.cods[i]
        for g in self.hom_ids(y, x):
            if t[g * n + i] == self.idents[x] and t[i * n + g] == self.idents[y]:
                return self.names[g]
        return None

    def is_iso(self, f):
        return self.inverse(f) is not None

    # -- construction ----------------------------------------------------

    def opposite(self):
        """The dual category, built once and shared both ways: it shares
        the names and the arrow ids, swaps the ends of every arrow and
        transposes the table.  The dual refers back weakly, so the pair
        forms no reference cycle and is freed with its last user.  It is
        not validated again: the dual of a category is a category."""
        op = self._op() if isinstance(self._op, weakref.ref) else self._op
        if op is None:
            n = len(self.names)
            op = FinCategory.__new__(FinCategory)
            op.__dict__ = dict(
                vars(self), doms=self.cods, cods=self.doms,
                table={k % n * n + k // n: h for k, h in self.table.items()},
                _hom={(y, x): v for (x, y), v in self._hom.items()},
                _out=self._into, _into=self._out, _op=weakref.ref(self))
            self._op = op
        return op

    def validate(self):
        """The category laws over the ids; the constructor has rejected
        repeated objects and identities or composites of unknown ones."""
        names, doms, cods, t = self.names, self.doms, self.cods, self.table
        objects, n, into = set(self.objects), len(names), self._into
        for x in self.objects:
            e = self.idents.get(x, -1)
            if e < 0:
                raise ValueError(f"object {x!r} lacks an identity")
            if doms[e] != x or cods[e] != x:
                raise ValueError(f"identity of {x!r} is not an endomorphism")
        for i, f in enumerate(names):
            if doms[i] not in objects or cods[i] not in objects:
                raise ValueError(f"morphism {f!r} has unknown endpoints")
        # composable pairs, or every pair for a g with a non-composable entry
        clash = {k // n for k in t if cods[k % n] != doms[k // n]}
        for g in range(n):
            for f in range(n) if g in clash else into[doms[g]]:
                if cods[f] != doms[g]:
                    if g * n + f in t:
                        raise ValueError(f"composite of non-composable {names[g]!r}, {names[f]!r}")
                    continue
                h = t.get(g * n + f)
                if h is None:
                    raise ValueError(f"missing composite {names[g]!r} . {names[f]!r}")
                if h < 0 or doms[h] != doms[f] or cods[h] != cods[g]:
                    raise ValueError(f"composite {names[g]!r} . {names[f]!r} ill-typed")
        for f in range(n):
            if t[f * n + self.idents[doms[f]]] != f:
                raise ValueError(f"right unit law fails at {names[f]!r}")
            if t[self.idents[cods[f]] * n + f] != f:
                raise ValueError(f"left unit law fails at {names[f]!r}")
        # composable triples only, in the order of a full scan
        for h in range(n):
            hn = h * n
            for g in into[doms[h]]:
                gn, hgn = g * n, t[hn + g] * n
                for f in into[doms[g]]:
                    if t[hn + t[gn + f]] != t[hgn + f]:
                        raise ValueError(f"associativity fails at {names[h]!r}, "
                                         f"{names[g]!r}, {names[f]!r}")

    @staticmethod
    def from_poset(poset):
        """The category with a unique morphism for each related pair,
        named ``"a<=b"``."""
        objects = list(poset.elements)
        pairs = [(a, b) for a in objects for b in objects if poset.leq(a, b)]
        comp = {(f"{b}<={c}", f"{a}<={b}"): f"{a}<={c}"
                for a, b in pairs for c in objects if poset.leq(b, c)}
        return FinCategory(objects, [Morphism(f"{a}<={b}", a, b) for a, b in pairs],
                           {a: f"{a}<={a}" for a in objects}, comp)

    def __repr__(self):
        return f"FinCategory({len(self.objects)} objects, {len(self.morphisms)} morphisms)"
