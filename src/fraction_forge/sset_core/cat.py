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
    """A finite category: objects, named morphisms, identity and
    composition tables.  ``comp[(g, f)]`` is the name of ``g . f``."""

    def __init__(self, objects, morphisms, identities, comp):
        named, hom, out, into = {}, {}, {}, {}
        for m in morphisms:
            named[m.name] = m
            hom.setdefault((m.dom, m.cod), []).append(m.name)
            out.setdefault(m.dom, []).append(m.name)
            into.setdefault(m.cod, []).append(m.name)
        if len(named) != len(morphisms):
            raise ValueError("duplicate morphism names")
        self._fill(list(objects), named, dict(identities), dict(comp), *(
            {k: tuple(v) for k, v in t.items()} for t in (hom, out, into)))
        self.validate()

    def _fill(self, objects, morphisms, identities, comp, hom, out, into):
        """Store the tables and the arrow index of ``hom``, ``out``, ``into``."""
        self.objects, self.morphisms = objects, morphisms
        self.identities, self.comp = identities, comp
        self._hom, self._out, self._into, self._op = hom, out, into, None

    # -- queries ---------------------------------------------------------

    def dom(self, f):
        return self.morphisms[f].dom

    def cod(self, f):
        return self.morphisms[f].cod

    def ident(self, x):
        return self.identities[x]

    def is_identity(self, f):
        return self.identities.get(self.morphisms[f].dom) == f

    def compose(self, g, f):
        """Composite ``g . f`` (apply ``f`` first)."""
        return self.comp[(g, f)]

    def hom(self, x, y):
        """The morphisms ``x -> y`` in the order of ``self.morphisms``."""
        return self._hom.get((x, y), ())

    def out(self, x):
        """The morphisms out of ``x`` in the order of ``self.morphisms``."""
        return self._out.get(x, ())

    def into(self, y):
        """The morphisms into ``y`` in the order of ``self.morphisms``."""
        return self._into.get(y, ())

    def morphism_names(self):
        return list(self.morphisms)

    def inverse(self, f):
        """The inverse of ``f``, or None if ``f`` is not an isomorphism."""
        m = self.morphisms[f]
        for g in self.hom(m.cod, m.dom):
            if (self.compose(g, f) == self.ident(m.dom)
                    and self.compose(f, g) == self.ident(m.cod)):
                return g
        return None

    def is_iso(self, f):
        return self.inverse(f) is not None

    # -- construction ----------------------------------------------------

    def opposite(self):
        """The dual category, built once and shared both ways.  The dual
        refers back weakly, so the pair forms no reference cycle and is
        freed with its last user.  It is not validated again: the dual of
        a category is a category."""
        op = self._op() if isinstance(self._op, weakref.ref) else self._op
        if op is None:
            op = FinCategory.__new__(FinCategory)
            op._fill(list(self.objects),
                     {m.name: Morphism(m.name, m.cod, m.dom)
                      for m in self.morphisms.values()},
                     dict(self.identities),
                     {(f, g): h for (g, f), h in self.comp.items()},
                     {(y, x): v for (x, y), v in self._hom.items()},
                     self._into, self._out)
            op._op, self._op = weakref.ref(self), op
        return op

    def validate(self):
        objects = set(self.objects)
        if len(objects) != len(self.objects):
            raise ValueError("duplicate object names")
        for x in self.identities:
            if x not in objects:
                raise ValueError(f"identity given for unknown object {x!r}")
        for g, f in self.comp:
            if g not in self.morphisms or f not in self.morphisms:
                raise ValueError(f"composite of unknown morphisms {g!r}, {f!r}")
        for x in self.objects:
            e = self.identities.get(x)
            if e is None or e not in self.morphisms:
                raise ValueError(f"object {x!r} lacks an identity")
            m = self.morphisms[e]
            if m.dom != x or m.cod != x:
                raise ValueError(f"identity of {x!r} is not an endomorphism")
        for m in self.morphisms.values():
            if m.dom not in objects or m.cod not in objects:
                raise ValueError(f"morphism {m.name!r} has unknown endpoints")
        # composable pairs, or every pair for a g with a non-composable entry
        clash = {g for g, f in self.comp if self.morphisms[f].cod != self.morphisms[g].dom}
        for g in self.morphisms.values():
            for f in self.morphisms if g.name in clash else self.into(g.dom):
                if self.morphisms[f].cod != g.dom:
                    if (g.name, f) in self.comp:
                        raise ValueError(f"composite of non-composable {g.name!r}, {f!r}")
                    continue
                h = self.comp.get((g.name, f))
                if h is None:
                    raise ValueError(f"missing composite {g.name!r} . {f!r}")
                hm = self.morphisms.get(h)
                if hm is None or hm.dom != self.morphisms[f].dom or hm.cod != g.cod:
                    raise ValueError(f"composite {g.name!r} . {f!r} ill-typed")
        for f in self.morphisms.values():
            if self.compose(f.name, self.ident(f.dom)) != f.name:
                raise ValueError(f"right unit law fails at {f.name!r}")
            if self.compose(self.ident(f.cod), f.name) != f.name:
                raise ValueError(f"left unit law fails at {f.name!r}")
        # composable triples only, in the order of a full scan
        for h in self.morphisms:
            for g in self.into(self.dom(h)):
                hg = self.compose(h, g)
                for f in self.into(self.dom(g)):
                    if self.compose(h, self.compose(g, f)) != self.compose(hg, f):
                        raise ValueError(f"associativity fails at {h!r}, {g!r}, {f!r}")

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
