"""Spans and counters recorded from outside the program.

``install`` wraps the program's public functions by rebinding every
module attribute of ``fraction_forge`` that holds them, so calls made
inside the program (``fractions.has_rlp`` calling ``enumerate_maps``)
pass through the wrappers too.  Spans stay in memory until the run ends.
"""

import sys
import time

# (module, attribute, layer name); the module is the one defining it
TIMED = [
    ("fraction_forge.sset_core.enumerate", "enumerate_maps", "sset_core.enumerate_maps"),
    ("fraction_forge.sset_core.enumerate", "is_quasicategory_upto",
     "sset_core.is_quasicategory_upto"),
    ("fraction_forge.marked", "nerve_marked", "marked.nerve_marked"),
    ("fraction_forge.marked", "is_weakly_closed", "marked.is_weakly_closed"),
    ("fraction_forge.fractions", "has_rlp", "fractions.has_rlp"),
    ("fraction_forge.fractions", "check_proper_clf", "fractions.check_proper_clf"),
    ("fraction_forge.exfunctor", "ex_plus", "exfunctor.ex_plus"),
    ("fraction_forge.exfunctor", "compare_with_kan_ex", "exfunctor.compare_with_kan_ex"),
    ("fraction_forge.localize", "ho_of_qcat", "localize.ho_of_qcat"),
    ("fraction_forge.localize", "gz_left_fractions", "localize.gz_left_fractions"),
    ("fraction_forge.localize", "compare_localizations", "localize.compare_localizations"),
    ("fraction_forge.localize", "fraction_space_LF", "localize.fraction_space_LF"),
    ("fraction_forge.localize", "pi0_mapping_check", "localize.pi0_mapping_check"),
    ("fraction_forge.dht.groups", "a1_presentation", "dht.a1_presentation"),
    ("fraction_forge.dht.groups", "abelianization_rank", "dht.abelianization_rank"),
    ("fraction_forge.dht.groups", "is_trivial_presentation", "dht.is_trivial_presentation"),
    ("fraction_forge.dht.groups", "a1_bfs_oracle", "dht.a1_bfs_oracle"),
    ("fraction_forge.dht.cubes", "open_box_filler_search", "dht.open_box_filler_search"),
]
# counted only: timing millions of kernel calls from outside would swamp the run
COUNTED = [("fraction_forge.sset_core.sset", "SSet", "apply_cell", "sset_core.apply_cell")]


class Tracer:
    """Spans ``[name, start, end, parent, verdict]`` and named counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.stack = []
        self.verdict = None

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.verdict])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None


def _after_enumerate(tr, kw, out):
    tr.count("sset_core.enumerate_maps.maps_out", len(out))
    if tr.current() == "fractions.has_rlp":
        # has_rlp enumerates the J-maps once, then extends each with partial=
        if kw.get("partial"):
            tr.count("fractions.has_rlp.jmaps")
            tr.count("fractions.has_rlp.ext_maps", len(out))


def _after_ex_plus(tr, kw, out):
    tr.count("exfunctor.ex_plus.level_cells", sum(map(len, out.levels.values())))


def _after_box(tr, kw, out):
    if not out.ok and "exhausted" in (out.witness or {}):
        tr.count("dht.open_box_filler_search.exhausted")


AFTER = {"sset_core.enumerate_maps": _after_enumerate,
         "exfunctor.ex_plus": _after_ex_plus,
         "dht.open_box_filler_search": _after_box}


def _timed(tr, name, fn):
    after = AFTER.get(name)

    def wrapper(*args, **kw):
        tr.count(name + ".calls")
        tr.open(name)
        try:
            out = fn(*args, **kw)
        finally:
            tr.close()
        if after is not None:
            after(tr, kw, out)  # the caller's span is current again
        return out
    return wrapper


def _counted(tr, name, fn):
    key = name + ".calls"

    def wrapper(*args, **kw):
        tr.counters[key] = tr.counters.get(key, 0) + 1
        return fn(*args, **kw)
    return wrapper


def install(tr):
    """Wrap every target; returns the list of rebindings for ``restore``."""
    done = []
    program = [m for n, m in sorted(sys.modules.items())
               if n == "fraction_forge" or n.startswith("fraction_forge.")]
    for modname, attr, name in TIMED:
        original = getattr(sys.modules[modname], attr)
        wrapped = _timed(tr, name, original)
        for mod in program:
            if getattr(mod, attr, None) is original:
                done.append((mod, attr, original))
                setattr(mod, attr, wrapped)
    for modname, cls, attr, name in COUNTED:
        owner = getattr(sys.modules[modname], cls)
        original = owner.__dict__[attr]
        done.append((owner, attr, original))
        setattr(owner, attr, _counted(tr, name, original))
    return done


def restore(done):
    for owner, attr, original in reversed(done):
        setattr(owner, attr, original)


def self_times(spans):
    """Per span, its duration minus the part of it its children cover."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (name, start, end, parent, verdict) in enumerate(spans):
        covered, reach = 0.0, start
        for j in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def summarize(spans, counters):
    """Layer totals: ``<name>.self_s`` per span name plus the counters."""
    out = dict(counters)
    for s, self_s in zip(spans, self_times(spans)):
        key = s[0] + ".self_s"
        out[key] = out.get(key, 0.0) + self_s
    return out


def unattributed(spans, verdict_walls):
    """Verdict wall time not covered by any top-level span, summed."""
    covered = {}
    for name, start, end, parent, verdict in spans:
        if parent is None:
            covered[verdict] = covered.get(verdict, 0.0) + end - start
    return sum(wall - covered.get(v, 0.0) for v, wall in verdict_walls.items())
