"""Benchmark entry point: one run of one workload of fraction-forge.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a checkout; it needs ``src/fraction_forge`` there
and exits with code 2 without a result otherwise.  It starts fresh
interpreters (``worker.py``): four that only set up, then the measured one.
``setup_s`` is the median of their five set-up times; the other
end-to-end metrics describe the run's typical deck (``typical_deck``).
It prints a detail line (provenance, sample counts, failures by cause),
then, last,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Outputs land in ``.perfbench/`` of the checkout.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 4
DEADLINE_S = 170
CAUSES = ["wrong", "raised", "exit_code", "traceback", "cap"]


def provenance():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            digest.update(str(p.relative_to(ROOT)).encode() + p.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "sympy": version("sympy"),
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "machine": platform.machine()}


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def start_worker(args, workdir, setup_only):
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    # the program's search order follows set iteration order: tie it to the
    # seed, so that one seed always repeats the same work
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    spawned = time.time()
    proc = subprocess.Popen(cmd + (["--setup-only"] if setup_only else []),
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    return proc, spawned


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return out


def tail(walls):
    """The highest percentile with at least ten verdicts above it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def typical_deck(records):
    """One deck of the run's mix, as ``(wall, cpu)`` per verdict, each
    verdict timed at the median over the verdicts of the run with its label.

    A label names one kind of verdict on one slot of the mix
    (``nclf:chain3/1/11``); every deck holds it equally often, on fresh inputs.
    Taking the median over the run's decks keeps one unlucky input, or a
    slow spell of a shared machine, from moving the run's figures."""
    decks = len({r["id"].split(".")[0] for r in records})
    by_label = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(r)
    deck = []
    for rs in by_label.values():
        per_deck, rest = divmod(len(rs), decks)
        if rest:
            raise SystemExit(f"label {rs[0]['label']} is not in every deck "
                             "equally often")
        deck += [(statistics.median(r["wall"] for r in rs),
                  statistics.median(r["cpu"] for r in rs))] * per_deck
    return deck


def end_to_end(deck, setup, peak_rss_mb):
    walls = [wall for wall, _ in deck]
    tail_s, _ = tail(walls)
    return {"setup_s": statistics.median(setup),
            "verdict_s.p50": statistics.median(walls),
            "verdict_s.tail": tail_s,
            "verdicts_per_s": len(walls) / sum(walls),
            "cpu_s_per_verdict": sum(cpu for _, cpu in deck) / len(deck),
            "peak_rss_mb": peak_rss_mb}


def per_layer(result):
    """Layer totals of the traced passes, per deck (per call for ``cli.*``)."""
    decks, traced = result["decks"], result["traced"]
    span_list = [tuple(s) for s in result["spans"]]
    counters = dict(result["counters"])
    children = result["children"]
    for vid, child in children:
        offset = len(span_list)
        span_list += [(n, a, b, None if p is None else p + offset, vid)
                      for n, a, b, p, _ in child["spans"]]
        for key, n in child["counters"].items():
            counters[key] = counters.get(key, 0) + n
    totals = spans.summarize(span_list, counters)
    walls = {r["id"]: r["wall"] for r in traced}
    out = {key: totals.get(key, 0) / decks for key in totals}
    jmaps = totals.get("fractions.has_rlp.jmaps", 0)
    out["fractions.has_rlp.ext_per_jmap"] = (
        totals.get("fractions.has_rlp.ext_maps", 0) / jmaps if jmaps else 0.0)
    for key in ("import_s", "pre_main_s", "main_s"):
        out["cli." + key] = (statistics.mean(c[key] for _, c in children)
                             if children else 0.0)
    for key in ("sympy_s", "numpy_s", "fraction_forge_s"):
        out["cli.import." + key] = (statistics.mean(c["imports"][key]
                                                    for _, c in children)
                                    if children else 0.0)
    plain = sum(r["wall"] for r in result["records"])
    out["trace.verdict_s"] = sum(walls.values()) / decks
    out["trace.overhead_frac"] = sum(walls.values()) / plain - 1
    out["trace.unattributed_s"] = spans.unattributed(span_list, walls) / decks
    return out, span_list


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fraction_forge" / "cli.py").is_file():
        print(f"error: no program under {ROOT / 'src' / 'fraction_forge'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    load_start = loadavg()
    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup = []
        for i in range(SETUP_PROBES):
            proc, spawned = start_worker(args, run_dir / f"probe{i}", True)
            setup.append(json.loads(finish(proc, deadline))["setup_done"] - spawned)
        proc, spawned = start_worker(args, run_dir / "main", False)
        finish(proc, deadline)
        result = json.loads((run_dir / "main" / "result.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setup.append(result["setup_done"] - spawned)

    records = result["records"]
    deck = typical_deck(records)
    failed = [r for r in records if r["cause"]]
    # answers on well-formed inputs must be right, and tracing must not
    # change a verdict; malformed inputs that break the exit-code contract
    # count as failed without making the outputs wrong
    correct = (not any(r["cause"] for r in records if r["well_formed"])
               and not result.get("mismatches"))
    if args.trace:
        values, span_list = per_layer(result)
        values["failed_frac"] = len(failed) / len(records)
        values["inputs.iso_share"] = result["iso_share"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        stem = f"{args.workload}-seed{args.seed}"
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            [dict(zip(("name", "start", "end", "parent", "verdict"), s))
             for s in span_list]))
        (OUT / f"layers-{stem}.json").write_text(json.dumps(values, indent=1))
    else:
        values = end_to_end(deck, setup, result["peak_rss_mb"])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    _, tail_pct = tail([wall for wall, _ in deck])
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(), "loadavg": [load_start, loadavg()],
        "decks": result["decks"], "verdicts": len(records),
        "deck_verdicts": len(deck), "tail_percentile": tail_pct,
        "setup_samples": setup,
        "failed_by_cause": {c: sum(r["cause"] == c for r in failed)
                            for c in CAUSES},
        "failures": sorted({(r["label"], r["cause"], r["detail"]) for r in failed}),
        "trace_mismatches": result.get("mismatches", []),
        "iso_share": result["iso_share"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed),
                      "metrics": {name: {"value": values.get(name, 0.0),
                                         "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
