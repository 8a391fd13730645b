"""Full-scan oracles for ``sset_core.cat``: the finite category as it was
before its arrow index.  It validates by scanning every pair and every
triple of morphisms, builds its hom sets on their first query, and
builds the category of a poset by scanning every pair of its arrows.
``tests/test_cat_differential.py`` checks the index, ``validate`` and
``FinCategory.from_poset`` against it.
"""

from fraction_forge.sset_core.cat import Morphism


class FullScanCategory:
    """A finite category: objects, named morphisms, identity and
    composition tables.  ``comp[(g, f)]`` is the name of ``g . f``."""

    def __init__(self, objects, morphisms, identities, comp):
        self.objects = list(objects)
        self.morphisms = {m.name: m for m in morphisms}
        if len(self.morphisms) != len(morphisms):
            raise ValueError("duplicate morphism names")
        self.identities = dict(identities)
        self.comp = dict(comp)
        self._hom = None
        self.validate()

    def ident(self, x):
        return self.identities[x]

    def compose(self, g, f):
        """Composite ``g . f`` (apply ``f`` first)."""
        return self.comp[(g, f)]

    def hom(self, x, y):
        """The morphisms ``x -> y`` in the order of ``self.morphisms``."""
        if self._hom is None:
            self._hom = {}
            for m in self.morphisms.values():
                self._hom.setdefault((m.dom, m.cod), []).append(m.name)
            self._hom = {k: tuple(v) for k, v in self._hom.items()}
        return self._hom.get((x, y), ())

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
        for g in self.morphisms.values():
            for f in self.morphisms.values():
                if f.cod != g.dom:
                    if (g.name, f.name) in self.comp:
                        raise ValueError(f"composite of non-composable {g.name!r}, {f.name!r}")
                    continue
                h = self.comp.get((g.name, f.name))
                if h is None:
                    raise ValueError(f"missing composite {g.name!r} . {f.name!r}")
                hm = self.morphisms.get(h)
                if hm is None or hm.dom != f.dom or hm.cod != g.cod:
                    raise ValueError(f"composite {g.name!r} . {f.name!r} ill-typed")
        for f in self.morphisms.values():
            if self.compose(f.name, self.ident(f.dom)) != f.name:
                raise ValueError(f"right unit law fails at {f.name!r}")
            if self.compose(self.ident(f.cod), f.name) != f.name:
                raise ValueError(f"left unit law fails at {f.name!r}")
        for h in self.morphisms.values():
            for g in self.morphisms.values():
                if g.cod != h.dom:
                    continue
                for f in self.morphisms.values():
                    if f.cod != g.dom:
                        continue
                    if self.compose(h.name, self.compose(g.name, f.name)) != \
                            self.compose(self.compose(h.name, g.name), f.name):
                        raise ValueError(
                            f"associativity fails at {h.name!r}, {g.name!r}, {f.name!r}")

    @staticmethod
    def from_poset(poset):
        """The category with a unique morphism for each related pair,
        named ``"a<=b"``."""
        objects = list(poset.elements)
        morphs = []
        names = {}
        for a in objects:
            for b in objects:
                if poset.leq(a, b):
                    n = f"{a}<={b}"
                    names[(a, b)] = n
                    morphs.append(Morphism(n, a, b))
        idents = {a: names[(a, a)] for a in objects}
        comp = {}
        for (a, b), f in names.items():
            for (b2, c), g in names.items():
                if b2 == b:
                    comp[(g, f)] = names[(a, c)]
        return FullScanCategory(objects, morphs, idents, comp)
