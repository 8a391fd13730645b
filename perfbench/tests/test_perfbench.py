"""Tests of the benchmark itself: seeded inputs, wrappers, self times."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return worker.Program()


def deck(program, name, seed, tmp_path):
    build = workloads.WORKLOADS[name]
    if name == "cli-oneshot":
        verdicts, sources = build(program, seed, 0, tmp_path / str(seed))
    else:
        verdicts, sources = build(program, seed, 0)
    return sorted(v.label for v in verdicts), json.dumps(sources, sort_keys=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(program, name, tmp_path):
    first = deck(program, name, 7, tmp_path)
    assert deck(program, name, 7, tmp_path) == first
    labels, sources = deck(program, name, 8, tmp_path)
    assert labels == first[0]          # the mix is fixed ...
    assert sources != first[1]         # ... the inputs are not


def test_decks_of_one_run_differ(program):
    _, a = workloads.nerve_decide(program, 7, 0)
    _, b = workloads.nerve_decide(program, 7, 1)
    assert json.dumps(a) != json.dumps(b)


def test_reference_matches_corpus_expectations():
    for _, d in workloads._corpus("cats"):
        marked = d.get("marked", [])
        assert reference.clf(d, marked) == d["expect"]["proper_clf"]
        assert reference.crf(d, marked) == d["expect"]["proper_crf"]
        assert reference.clf(d, marked, proper=False) == \
            d["expect"]["clf_classical"]


def test_iso_share_counts_relabelled_copies():
    rng = inputs.deck_rng(1, 0)
    c = inputs.chain(2)
    a = inputs.relabel_category(c, ["0<=1"], rng)
    b = inputs.relabel_category(c, ["0<=1"], rng)
    other = inputs.relabel_category(c, ["1<=2"], rng)
    assert inputs.iso_share([("cat", a), ("cat", b), ("cat", other)]) == 2 / 3


def test_wrappers_restore_the_originals(program):
    import fraction_forge.fractions as fractions
    import fraction_forge.sset_core.enumerate as enumerate_mod
    from fraction_forge.sset_core.sset import SSet
    before = {name: getattr(fractions, name)
              for name in ("enumerate_maps", "has_rlp", "check_proper_clf")}
    apply_cell = SSet.__dict__["apply_cell"]
    tracer = spans.Tracer()
    done = spans.install(tracer)
    try:
        assert fractions.enumerate_maps is enumerate_mod.enumerate_maps
        assert fractions.enumerate_maps is not before["enumerate_maps"]
        mc = workloads._marked_cat(program, inputs.relabel_category(
            inputs.chain(1), ["0<=1"], inputs.deck_rng(1, 0)))
        assert fractions.check_clf_infty(program.marked.nerve_marked(mc, 3),
                                         is_nerve=True).ok
    finally:
        spans.restore(done)
    for name, fn in before.items():
        assert getattr(fractions, name) is fn
    assert SSet.__dict__["apply_cell"] is apply_cell
    names = {s[0] for s in tracer.spans}
    assert {"fractions.has_rlp", "sset_core.enumerate_maps"} <= names
    assert tracer.counters["sset_core.apply_cell.calls"] > 0
    assert tracer.counters["fractions.has_rlp.jmaps"] > 0


def test_self_time_on_a_synthetic_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    tree = [["a", 0.0, 10.0, None, "v"], ["b", 1.0, 4.0, 0, "v"],
            ["c", 2.0, 3.0, 1, "v"], ["d", 5.0, 9.0, 0, "v"],
            ["b", 11.0, 12.0, None, "w"]]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.0]
    totals = spans.summarize(tree, {"b.calls": 2})
    assert totals == {"b.calls": 2, "a.self_s": 3.0, "b.self_s": 3.0,
                      "c.self_s": 1.0, "d.self_s": 4.0}
    assert spans.unattributed(tree, {"v": 10.5, "w": 1.0}) == 0.5


def test_tail_is_the_value_ten_verdicts_below_the_top():
    import run
    walls = [float(i) for i in range(1, 41)]
    assert run.tail(walls) == (30.0, 75.0)


def test_typical_deck_takes_each_label_at_its_median():
    import run
    records = [{"id": f"{d}.{i}", "label": label, "wall": wall, "cpu": wall / 2}
               for d, walls in enumerate([(1.0, 10.0, 11.0), (3.0, 20.0, 21.0),
                                          (2.0, 90.0, 13.0)])
               for i, (label, wall) in enumerate(zip("abb", walls))]
    assert sorted(run.typical_deck(records)) == [(2.0, 1.0), (16.5, 8.25),
                                                  (16.5, 8.25)]
    with pytest.raises(SystemExit):
        run.typical_deck(records[:-1])
