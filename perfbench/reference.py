"""Reference answers the benchmark checks verdicts against.

``clf``/``crf`` restate the classical conditions (1)-(3) of a calculus of
left (right) fractions, and with ``proper=True`` the properness condition
(2'), directly on the JSON form of a marked category, independently of
the program's deciders.
"""


class Cat:
    def __init__(self, d):
        self.dom = {m["id"]: m["dom"] for m in d["morphisms"]}
        self.cod = {m["id"]: m["cod"] for m in d["morphisms"]}
        self.ids = dict(d["identities"])
        self.comp = {(g, f): h for g, f, h in d["comp"]}
        for f in self.dom:
            self.comp[(f, self.ids[self.dom[f]])] = f
            self.comp[(self.ids[self.cod[f]], f)] = f

    def compose(self, g, f):
        return self.comp[(g, f)]


def _opposite(d):
    return {"objects": d["objects"],
            "morphisms": [{"id": m["id"], "dom": m["cod"], "cod": m["dom"]}
                          for m in d["morphisms"]],
            "identities": d["identities"],
            "comp": [[f, g, h] for g, f, h in d["comp"]]}


def clf(d, marked, proper=True):
    C = Cat(d)
    W = set(marked) | set(C.ids.values())
    arrows = sorted(C.dom)

    def completions(f, w):
        return [fp for fp in arrows for wp in W
                if C.dom[fp] == C.cod[w] and C.dom[wp] == C.cod[f]
                and C.cod[wp] == C.cod[fp]
                and C.compose(fp, w) == C.compose(wp, f)]

    for w in W:                                     # (1) composition
        for v in W:
            if C.dom[v] == C.cod[w] and C.compose(v, w) not in W:
                return False
    for f in arrows:                                # (2) spans complete
        for w in W:
            if C.dom[w] == C.dom[f] and not completions(f, w):
                return False
    for f in arrows:                                # (3) coequalizers
        for g in arrows:
            if f == g or (C.dom[f], C.cod[f]) != (C.dom[g], C.cod[g]):
                continue
            if any(C.cod[w] == C.dom[f] and C.compose(f, w) == C.compose(g, w)
                   for w in W) and not any(
                    C.dom[v] == C.cod[f] and C.compose(v, f) == C.compose(v, g)
                    for v in W):
                return False
    for f in W if proper else ():                   # (2') properness
        for w in W:
            if C.dom[w] == C.dom[f] and not any(
                    fp in W for fp in completions(f, w)):
                return False
    return True


def crf(d, marked, proper=True):
    return clf(_opposite(d), marked, proper)

