"""Command-line surface: file validation, single-input checks, the
corpus runner, and report/DOT emission.

Machine-readable JSON verdicts go to standard output; human summaries
and timing go to standard error.  Exit codes: 0 = check passed or
computation done, 1 = check failed (witness in the JSON), 2 = invalid
input or flags.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from .dht import (
    a1_bfs_oracle,
    a1_presentation,
    abelianization_rank,
    graph_from_dict,
    graph_map,
    is_trivial_presentation,
    open_box_filler_search,
    pullback_square_probe,
    walk_cube,
)
from .exfunctor import ex_op, ex_plus, ex_to_sset
from .fractions import (
    L_SHAPES,
    R_SHAPES,
    check_clf_classical,
    check_clf_infty,
    check_crf_classical,
    check_crf_infty,
    check_proper_clf,
    check_proper_crf,
    has_rlp,
)
from .localize import (
    colimit_vs_gz,
    compare_localizations,
    fraction_space_LF,
    fraction_space_RF,
    gz_left_fractions,
    gz_right_fractions,
    pi0,
    pi0_mapping_check,
    slice_filtered_check,
)
from .marked import (
    MarkedCategory,
    MarkedSSet,
    cat_is_two_out_of_three,
    iso_marking,
    nerve_marked,
)
from .sset_core import io as ffio

# sufficiency sets deciding proper CLF/CRF on nerves of categories
NERVE_L_SHAPES = [(2, 1), (2, 2), (3, 1)]
NERVE_R_SHAPES = [(2, 1), (2, 0), (3, 2)]

MAX_LEVELS = 3
MAX_ORACLE_BOUND = 10
MAX_WINDOW = 8


class InputError(ValueError):
    """Invalid input file or flag combination (exit code 2)."""


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _plain(x):
    """JSON-safe rendering of witnesses and report values."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, dict):
        return {ffio.stringify(k): _plain(v) for k, v in sorted(
            x.items(), key=lambda kv: ffio.stringify(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(ffio.stringify(v) for v in x)
    return repr(x)


def _verdict(command, ok, digests, **payload):
    d = {"command": command, "ok": bool(ok), "timing": None,
         "input_digests": digests}
    d.update({k: _plain(v) for k, v in payload.items()})
    return d


def _emit(verdict):
    sys.stdout.write(ffio.dumps(verdict))
    return 0 if verdict["ok"] else 1


def _fraction_condition(mc, side):
    """Classical CLF (side L) or CRF (side R) of a marked category."""
    return (check_crf_classical if side == "R" else check_clf_classical)(mc)


def _unmet(command, res, digests, **payload):
    """Exit-1 verdict for an input lacking the condition ``res`` checked."""
    return _emit(_verdict(command, False, digests, witnesses=[res.witness],
                          **payload))


def _load_marked_cat(path):
    C, marked = ffio.load(path, "marked_cat")
    return MarkedCategory(C, marked)


def _load_marked_sset(path):
    X, marked = ffio.load(path, "marked_sset")
    return MarkedSSet(X, marked)


def _load_graph(path):
    d = ffio.read_json(path)
    try:
        return graph_from_dict(d)
    except ValueError as e:
        raise InputError(f"{path}: {e}")


def _presentation(path, G, base):
    """The a1 presentation at ``base``; a disconnected graph is an input error."""
    try:
        return a1_presentation(G, base)
    except ValueError as e:
        raise InputError(f"{path}: {e}")


def _load_graph_map(path):
    d = ffio.read_json(path)
    try:
        src = graph_from_dict(d["src"])
        dst = graph_from_dict(d["dst"])
        mapping = d["mapping"]
        return graph_map(src, dst, lambda v: mapping[v])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: malformed graph map: {e}")


# -- fractions -----------------------------------------------------------

def cmd_fractions_check(args):
    mc = _load_marked_cat(args.input)
    digests = {args.input: _digest(args.input)}
    crf = args.side == "R"
    if args.mode == "classical":
        res = (check_crf_classical if crf else check_clf_classical)(mc)
        shapes = []
    elif args.mode == "proper":
        res = (check_proper_crf if crf else check_proper_clf)(mc)
        shapes = []
    else:
        mN = nerve_marked(mc, 3)
        check = check_crf_infty if crf else check_clf_infty
        res = check(mN, is_nerve=True)
        shapes = res.witness["shapes_checked"]
    witnesses = [] if res.ok else [res.witness]
    return _emit(_verdict("fractions check", res.ok, digests,
                          mode=args.mode, side=args.side,
                          witnesses=witnesses, shapes_checked=shapes))


def cmd_fractions_lift(args):
    mx = _load_marked_sset(args.input)
    digests = {args.input: _digest(args.input)}
    shapes = L_SHAPES if args.side == "L" else R_SHAPES
    need = max(n for n, _ in shapes)
    if mx.base.dim_bound < need:
        raise InputError(f"{args.input}: lifting needs dim_bound >= {need}, "
                         f"got {mx.base.dim_bound}")
    report = []
    ok = True
    for n, k in shapes:
        res = has_rlp(mx, n, k, args.side)
        report.append({"shape": [n, k], "ok": res.ok,
                       "witness": None if res.ok else res.witness})
        ok = ok and res.ok
    return _emit(_verdict("fractions lift", ok, digests,
                          side=args.side, shapes=report))


# -- localize ------------------------------------------------------------

def _hom_table(cat):
    table = {}
    for m in cat.morphism_names():
        key = f"{ffio.stringify(cat.dom(m))}->{ffio.stringify(cat.cod(m))}"
        table.setdefault(key, []).append(ffio.stringify(m))
    return {k: sorted(v) for k, v in sorted(table.items())}


def export_dot(cat, marked=(), edge_label=None):
    """Deterministic DOT text: one node per object, one edge per
    non-identity morphism; marked generators drawn bold."""
    lines = ["digraph localization {"]
    for x in sorted(cat.objects, key=ffio.stringify):
        lines.append(f'  "{ffio.stringify(x)}";')
    for m in sorted(cat.morphism_names(), key=ffio.stringify):
        if cat.is_identity(m):
            continue
        label = edge_label(m) if edge_label else ffio.stringify(m)
        style = ' style=bold color=blue' if m in marked else ''
        lines.append(f'  "{ffio.stringify(cat.dom(m))}" -> '
                     f'"{ffio.stringify(cat.cod(m))}" '
                     f'[label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_localize_gz(args):
    mc = _load_marked_cat(args.input)
    digests = {args.input: _digest(args.input)}
    res = _fraction_condition(mc, args.side)
    if not res.ok:
        return _unmet("localize gz", res, digests, side=args.side)
    if args.side == "L":
        cat, info = gz_left_fractions(mc)
    else:
        cat, info = gz_right_fractions(mc)
    if args.emit_dot:
        def label(m):
            rep = next(c for c, n in info["cls_name"].items() if n == m)
            return f"{ffio.stringify(rep[0])}/{ffio.stringify(rep[1])}"
        Path(args.emit_dot).write_text(export_dot(cat, edge_label=label))
    return _emit(_verdict("localize gz", True, digests, side=args.side,
                          objects=sorted(map(ffio.stringify, cat.objects)),
                          hom_table=_hom_table(cat)))


def cmd_localize_ex(args):
    if not 1 <= args.levels <= MAX_LEVELS:
        raise InputError(f"--levels must be between 1 and {MAX_LEVELS}")
    mx = _load_marked_sset(args.input)
    if mx.base.dim_bound < args.levels:
        raise InputError(f"{args.input}: --levels {args.levels} needs "
                         f"dim_bound >= {args.levels}, got {mx.base.dim_bound}")
    digests = {args.input: _digest(args.input)}
    cache = (ex_plus if args.side == "L" else ex_op)(mx, levels=args.levels)
    if args.emit_sset:
        EX, _ = ex_to_sset(cache)
        Path(args.emit_sset).write_text(ffio.dumps(ffio.sset_to_dict(EX)))
    return _emit(_verdict("localize ex", True, digests,
                          side=args.side, levels=args.levels,
                          level_sizes=[len(cache.levels[d])
                                       for d in sorted(cache.levels)]))


def cmd_localize_compare(args):
    mc = _load_marked_cat(args.input)
    digests = {args.input: _digest(args.input)}
    res = check_proper_clf(mc)
    if not res.ok:
        return _unmet("localize compare", res, digests, iso=False)
    res = compare_localizations(mc)
    return _emit(_verdict("localize compare", res.ok, digests,
                          iso=res.ok, hom_table=res.witness["hom_table"],
                          witnesses=res.witness["witnesses"]))


def cmd_mapspace(args):
    mc = _load_marked_cat(args.input)
    digests = {args.input: _digest(args.input)}
    res = _fraction_condition(mc, args.side)
    if not res.ok:
        return _unmet("mapspace", res, digests, side=args.side)
    mN = nerve_marked(mc, 3)
    space = fraction_space_LF if args.side == "L" else fraction_space_RF
    gz = (gz_left_fractions(mc) if args.side == "L"
          else gz_right_fractions(mc))
    table = {}
    ok = True
    for x in sorted(mc.cat.objects, key=ffio.stringify):
        for y in sorted(mc.cat.objects, key=ffio.stringify):
            comps, _ = pi0(space(mN, ("v", x), ("v", y), bound=1).base)
            gz_size = len([m for m in gz[0].morphism_names()
                           if gz[0].dom(m) == x and gz[0].cod(m) == y])
            key = f"{ffio.stringify(x)}->{ffio.stringify(y)}"
            table[key] = {"pi0": len(comps), "gz": gz_size}
            ok = ok and len(comps) == gz_size
    return _emit(_verdict("mapspace", ok, digests, side=args.side,
                          table=table))


# -- graphs --------------------------------------------------------------

def cmd_graph_a1(args):
    if not 1 <= args.oracle_bound <= MAX_ORACLE_BOUND:
        raise InputError(f"--oracle-bound must be 1..{MAX_ORACLE_BOUND}")
    G = _load_graph(args.input)
    digests = {args.input: _digest(args.input)}
    if args.base not in G.vertices:
        raise InputError(f"base vertex {args.base!r} not in the graph")
    p = _presentation(args.input, G, args.base)
    rank, torsion = abelianization_rank(p)
    trivial = is_trivial_presentation(p)
    payload = {
        "generators": len(p.generators),
        "relators": len(p.relators),
        "abelianization": {"rank": rank, "torsion": torsion},
        "trivial": trivial.ok,
    }
    ok = True
    if len(G.vertices) <= 8:
        count, _ = a1_bfs_oracle(G, args.base, max_loop_len=args.oracle_bound)
        payload["oracle_classes"] = count
        # the presentation and the oracle must agree on triviality
        if trivial.ok and count != 1:
            ok = False
        if (rank > 0 or torsion) and count == 1:
            ok = False
    return _emit(_verdict("graph a1", ok, digests, **payload))


def cmd_graph_nerve_box(args):
    if not 1 <= args.window <= MAX_WINDOW:
        raise InputError(f"--window must be 1..{MAX_WINDOW}")
    G = _load_graph(args.input)
    box = ffio.read_json(args.box)
    digests = {args.input: _digest(args.input), args.box: _digest(args.box)}
    try:
        n = box["n"]
        missing = tuple(box["missing"])
        faces = {tuple(int(t) for t in key.split(",")):
                 walk_cube(G, walk) for key, walk in box["faces"].items()}
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{args.box}: malformed box payload: {e}")
    res = open_box_filler_search(G, n, missing, faces, window=args.window)
    payload = {"witnesses": [] if res.ok else [res.witness]}
    if res.ok:
        filler = res.witness["filler"]
        payload["filler"] = {"extents": list(filler.extents),
                             "grid": list(filler.grid)}
    return _emit(_verdict("graph nerve-box", res.ok, digests, **payload))


def cmd_graph_pullback_probe(args):
    f = _load_graph_map(args.f)
    g = _load_graph_map(args.g)
    spec = ffio.read_json(args.vertex)
    digests = {p: _digest(p) for p in (args.f, args.g, args.vertex)}
    try:
        base = (spec["x"], (spec["p"][0], tuple(spec["p"][1])),
                (spec["q"][0], tuple(spec["q"][1])), spec["y"])
    except (KeyError, TypeError, IndexError) as e:
        raise InputError(f"{args.vertex}: malformed vertex payload: {e}")
    try:
        res = pullback_square_probe(f, g, base, radius=args.radius)
    except ValueError as e:
        raise InputError(str(e))
    return _emit(_verdict("graph pullback-probe", res.ok, digests,
                          witnesses=[] if res.ok else [res.witness],
                          ball_size=(res.witness or {}).get("ball_size")))


# -- corpus --------------------------------------------------------------

def corpus_path():
    return Path(__file__).parent / "corpus"


def _corpus_cat_report(path):
    mc = _load_marked_cat(path)
    report = {}
    proper_clf = check_proper_clf(mc).ok
    proper_crf = check_proper_crf(mc).ok
    report["clf_classical"] = check_clf_classical(mc).ok
    report["proper_clf"] = proper_clf
    report["proper_crf"] = proper_crf
    report["two_out_of_three"] = cat_is_two_out_of_three(mc).ok

    failures = []
    mN = nerve_marked(mc, 3)
    infty_l = check_clf_infty(mN, is_nerve=True, shapes=NERVE_L_SHAPES).ok
    infty_r = check_crf_infty(mN, is_nerve=True, shapes=NERVE_R_SHAPES).ok
    if infty_l != proper_clf:
        failures.append("proper CLF and nerve CLF disagree")
    if infty_r != proper_crf:
        failures.append("proper CRF and nerve CRF disagree")

    iso_nerve = nerve_marked(iso_marking(mc.cat), 3)
    if not check_clf_infty(iso_nerve, is_nerve=True).ok:
        failures.append("isomorphism marking fails nerve CLF")
    if not check_crf_infty(iso_nerve, is_nerve=True).ok:
        failures.append("isomorphism marking fails nerve CRF")

    if report["two_out_of_three"] and report["clf_classical"]:
        for x in mc.cat.objects:
            if not slice_filtered_check(mc, x).ok:
                failures.append(f"marked coslice at {x!r} is not filtered")

    if proper_clf:
        cmp = compare_localizations(mc)
        if not cmp.ok:
            failures.append("three-way localization comparison failed")
        gzL = gz_left_fractions(mc)
        for x in mc.cat.objects:
            for y in mc.cat.objects:
                if not colimit_vs_gz(mc, x, y, gz=gzL).ok:
                    failures.append(f"colimit hom differs at ({x!r},{y!r})")
                if not pi0_mapping_check(mc, x, y, gz=gzL).ok:
                    failures.append(f"pi0 mapping differs at ({x!r},{y!r})")
        if proper_crf:
            # right fractions exist too: check the duality of the two
            right, _ = gz_right_fractions(mc)
            left_op, _ = gz_left_fractions(mc.opposite())
            for x in mc.cat.objects:
                for y in mc.cat.objects:
                    nr = len([m for m in right.morphism_names()
                              if right.dom(m) == x and right.cod(m) == y])
                    nl = len([m for m in left_op.morphism_names()
                              if left_op.dom(m) == y and left_op.cod(m) == x])
                    if nr != nl:
                        failures.append(f"fraction duality differs at "
                                        f"({x!r},{y!r})")

    expect = ffio.read_json(path).get("expect", {})
    for key, want in sorted(expect.items()):
        if report.get(key) != want:
            failures.append(f"expected {key}={want!r}, got "
                            f"{report.get(key)!r}")
    report["failures"] = failures
    report["ok"] = not failures
    return report


def _corpus_graph_report(path):
    G = _load_graph(path)
    if not G.vertices:
        raise InputError(f"{path}: graph has no vertices")
    base = G.vertices[0]
    p = _presentation(path, G, base)
    rank, torsion = abelianization_rank(p)
    report = {
        "a1_rank": rank,
        "a1_torsion": torsion,
        "a1_trivial": bool(is_trivial_presentation(p)),
    }
    failures = []
    expect = ffio.read_json(path).get("expect", {})
    for key, want in sorted(expect.items()):
        if key == "oracle_classes":
            count, _ = a1_bfs_oracle(G, base,
                                     max_loop_len=expect.get("oracle_bound", 8))
            report["oracle_classes"] = count
            if count != want:
                failures.append(f"expected oracle_classes={want}, got {count}")
        elif key == "oracle_bound":
            continue
        elif report.get(key) != want:
            failures.append(f"expected {key}={want!r}, got "
                            f"{report.get(key)!r}")
    report["failures"] = failures
    report["ok"] = not failures
    return report


def corpus_run(path=None):
    root = Path(path) if path else corpus_path()
    files = {}
    warnings = []
    cat_files = sorted((root / "cats").glob("*.json")) if (root / "cats").exists() else []
    graph_files = sorted((root / "graphs").glob("*.json")) if (root / "graphs").exists() else []
    if not cat_files and not graph_files:
        warnings.append("empty corpus")
    for p in cat_files:
        files[p.name] = _corpus_cat_report(p)
    for p in graph_files:
        files[p.name] = _corpus_graph_report(p)
    ok = all(r["ok"] for r in files.values())
    return ok, {"files": files, "warnings": warnings,
                "counts": {"cats": len(cat_files), "graphs": len(graph_files)}}


def cmd_corpus_run(args):
    ok, payload = corpus_run(args.path)
    root = Path(args.path) if args.path else corpus_path()
    digests = {p.name: _digest(p) for p in sorted(root.rglob("*.json"))}
    return _emit(_verdict("corpus run", ok, digests, **payload))


def cmd_export_dot(args):
    mc = _load_marked_cat(args.input)
    text = export_dot(mc.cat, marked=mc.marked)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# -- argument parsing ----------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="fraction-forge")
    sub = ap.add_subparsers(dest="cmd", required=True)

    fr = sub.add_parser("fractions").add_subparsers(dest="sub", required=True)
    c = fr.add_parser("check")
    c.add_argument("--input", required=True)
    c.add_argument("--mode", choices=["classical", "proper", "infty"],
                   default="proper")
    c.add_argument("--side", choices=["L", "R"], default="L")
    c.set_defaults(fn=cmd_fractions_check)
    l = fr.add_parser("lift")
    l.add_argument("--input", required=True)
    l.add_argument("--side", choices=["L", "R"], default="L")
    l.set_defaults(fn=cmd_fractions_lift)

    lo = sub.add_parser("localize").add_subparsers(dest="sub", required=True)
    g = lo.add_parser("gz")
    g.add_argument("--input", required=True)
    g.add_argument("--side", choices=["L", "R"], default="L")
    g.add_argument("--emit-dot")
    g.set_defaults(fn=cmd_localize_gz)
    e = lo.add_parser("ex")
    e.add_argument("--input", required=True)
    e.add_argument("--levels", type=int, default=2)
    e.add_argument("--side", choices=["L", "R"], default="L")
    e.add_argument("--emit-sset")
    e.set_defaults(fn=cmd_localize_ex)
    cp = lo.add_parser("compare")
    cp.add_argument("--input", required=True)
    cp.set_defaults(fn=cmd_localize_compare)

    ms = sub.add_parser("mapspace")
    ms.add_argument("--input", required=True)
    ms.add_argument("--side", choices=["L", "R"], default="L")
    ms.set_defaults(fn=cmd_mapspace)

    gr = sub.add_parser("graph").add_subparsers(dest="sub", required=True)
    a1 = gr.add_parser("a1")
    a1.add_argument("--input", required=True)
    a1.add_argument("--base", required=True)
    a1.add_argument("--oracle-bound", type=int, default=8)
    a1.set_defaults(fn=cmd_graph_a1)
    nb = gr.add_parser("nerve-box")
    nb.add_argument("--input", required=True)
    nb.add_argument("--box", required=True)
    nb.add_argument("--window", type=int, default=6)
    nb.set_defaults(fn=cmd_graph_nerve_box)
    pp = gr.add_parser("pullback-probe")
    pp.add_argument("--f", required=True)
    pp.add_argument("--g", required=True)
    pp.add_argument("--vertex", required=True)
    pp.add_argument("--radius", type=int, default=2)
    pp.set_defaults(fn=cmd_graph_pullback_probe)

    co = sub.add_parser("corpus").add_subparsers(dest="sub", required=True)
    cr = co.add_parser("run")
    cr.add_argument("--path")
    cr.set_defaults(fn=cmd_corpus_run)

    ex = sub.add_parser("export").add_subparsers(dest="sub", required=True)
    ed = ex.add_parser("dot")
    ed.add_argument("--input", required=True)
    ed.add_argument("--output")
    ed.set_defaults(fn=cmd_export_dot)

    return ap


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    start = time.monotonic()
    try:
        code = args.fn(args)
    except (InputError, ffio.FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"done in {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
