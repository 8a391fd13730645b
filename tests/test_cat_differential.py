"""``FinCategory``'s arrow index and its ``validate`` over composable
pairs and triples, against the full scans of ``tests/reference_cat.py``.

On the corpus categories, on the generators of
``tests/test_fraction_properties.py``, on the subsets of a 5-set and on
every single-fault mutation
of them (a dropped composite, an ill-typed composite, a composite of a
non-composable pair, a broken unit law, a broken associativity), both
constructors accept or reject alike, with the same message, and so they
do on inputs with two faults.  The hom sets and the arrows out of and
into each object, of a category and of its dual, equal a brute-force
scan.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_forge.cli import corpus_path
from fraction_forge.sset_core import io as ffio
from fraction_forge.sset_core.cat import FinCategory, Poset
from helpers import name_arrows, name_comp, name_identities
from reference_cat import FullScanCategory
from test_fraction_properties import (
    DECIDER_CATS,
    PROPERNESS_FAILS,
    SETTINGS,
    UNSORTED_HOMS,
    cyclic,
    posets,
    subset_lattice,
    truncated_n,
)

CORPUS_CATS = sorted(p.stem for p in (corpus_path() / "cats").glob("*.json"))
KINDS = ("missing composite", "ill-typed", "non-composable", "unit law",
         "associativity")


def outcome(build, objects, morphisms, identities, comp):
    """None if ``build`` accepts the data, else its ``ValueError`` text."""
    try:
        build(objects, morphisms, identities, comp)
    except ValueError as e:
        return str(e)
    return None


def mutations(C):
    """Single-fault edits of a category's composition table, by kind:
    ``{kind: [comp, ...]}``."""
    table, morphs = name_comp(C), name_arrows(C)
    ids = set(name_identities(C).values())
    out = {kind: [] for kind in KINDS}
    for (g, f), h in table.items():
        out["missing composite"].append(
            {k: v for k, v in table.items() if k != (g, f)})
        parallel = C.hom(C.dom(f), C.cod(g))
        wrong = next((m.name for m in morphs if m.name not in parallel), None)
        if wrong is not None:
            out["ill-typed"].append({**table, (g, f): wrong})
        for p in parallel:
            if p == h:
                continue
            if f in ids or g in ids:
                out["unit law"].append({**table, (g, f): p})
            else:
                out["associativity"].append({**table, (g, f): p})
    for g, f in product(morphs, repeat=2):
        if f.cod != g.dom:
            out["non-composable"].append(
                {**table, (g.name, f.name): morphs[0].name})
    return out


def assert_same_verdicts(C, comps):
    data = (C.objects, name_arrows(C), name_identities(C))
    messages = []
    for table in comps:
        got = outcome(FinCategory, *data, table)
        assert got == outcome(FullScanCategory, *data, table)
        messages.append(got)
    return messages


def assert_index_matches_a_scan(C):
    for D in (C, C.opposite()):
        ref = FullScanCategory(D.objects, name_arrows(D), name_identities(D), name_comp(D))
        ms = name_arrows(D)
        for x in D.objects:
            assert D.out(x) == tuple(m.name for m in ms if m.dom == x)
            assert D.out_ids(x) == tuple(
                i for i, m in enumerate(ms) if m.dom == x)
            # the arrows into x are those out of x in the dual
            assert D.opposite().out_ids(x) == tuple(
                i for i, m in enumerate(ms) if m.cod == x)
            for y in D.objects:
                assert D.hom(x, y) == ref.hom(x, y) == tuple(
                    m.name for m in ms if (m.dom, m.cod) == (x, y))
                assert D.hom_ids(x, y) == tuple(
                    i for i, m in enumerate(ms) if (m.dom, m.cod) == (x, y))


FIXED = [cyclic(3), truncated_n(2), PROPERNESS_FAILS.cat, UNSORTED_HOMS.cat]


def test_every_fault_kind_is_seen():
    """The fixed categories give every kind of single fault, and each is
    reported as such; a changed composite may stay associative."""
    seen = {kind: [] for kind in KINDS}
    for C in FIXED:
        for kind, comps in mutations(C).items():
            seen[kind] += assert_same_verdicts(C, comps)
    for kind, messages in seen.items():
        assert messages, kind
        if kind == "associativity":
            assert any(kind in m for m in messages if m)
        else:
            assert all(kind in m for m in messages), kind


def with_both(comp, a, b):
    """``comp`` with the edits of both ``a`` and ``b``."""
    out = {k: v for k, v in a.items() if k in b or k not in comp}
    out.update((k, v) for k, v in b.items() if comp.get(k) != v)
    return out


def test_two_faults_give_the_full_scans_message():
    """With two faults in one input, both constructors report the same
    one: a ghost entry after a non-composable one, an object without its
    identity, or any two of the single faults."""
    messages = set()
    for C in FIXED:
        x, first = C.objects[0], next(iter(C.morphisms))
        singles = [c for comps in mutations(C).values() for c in comps[:4]]
        ids = name_identities(C)
        no_id = {k: v for k, v in ids.items() if k != x}
        inputs = [(ids, {**c, ("ghost", first): first}) for c in singles]
        inputs += [(no_id, c) for c in singles]
        inputs += [(ids, with_both(name_comp(C), a, b))
                   for a in singles for b in singles if a is not b]
        for idents, table in inputs:
            data = (C.objects, name_arrows(C), idents, table)
            got = outcome(FinCategory, *data)
            assert got == outcome(FullScanCategory, *data), comp
            messages.add(got.split(" ")[0] if got else got)
    assert {"composite", "missing", "object", "associativity"} <= messages


@pytest.mark.parametrize("name", CORPUS_CATS)
def test_index_and_validate_match_the_full_scans_on_the_corpus(name):
    C = ffio.load(corpus_path() / "cats" / f"{name}.json", "cat")
    assert_index_matches_a_scan(C)
    assert assert_same_verdicts(C, [name_comp(C)]) == [None]
    for comps in mutations(C).values():
        assert_same_verdicts(C, comps)


@settings(max_examples=200, **SETTINGS)
@given(DECIDER_CATS, st.data())
def test_index_and_validate_match_the_full_scans_on_generated_categories(
        C, data):
    assert_index_matches_a_scan(C)
    assert assert_same_verdicts(C, [name_comp(C)]) == [None]
    for kind, comps in mutations(C).items():
        if comps:
            assert_same_verdicts(C, [data.draw(st.sampled_from(comps), kind)])


def test_index_and_validate_match_the_full_scans_on_the_subset_lattice():
    C = subset_lattice(5).cat
    assert_index_matches_a_scan(C)
    assert assert_same_verdicts(C, [name_comp(C)]) == [None]


@settings(max_examples=100, **SETTINGS)
@given(posets(5))
def test_from_poset_matches_the_full_scan(C):
    P = Poset(C.objects, [(m.dom, m.cod) for m in name_arrows(C)])
    got, want = FinCategory.from_poset(P), FullScanCategory.from_poset(P)
    assert got.objects == want.objects
    assert name_arrows(got) == list(want.morphisms.values())
    assert name_identities(got) == want.identities
    assert list(name_comp(got).items()) == list(want.comp.items())
