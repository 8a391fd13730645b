"""One workload run in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds T \\
        --trace 0|1 --workdir DIR [--setup-only]

Set-up imports the program from ``src/`` of the checkout and builds the
first deck; the time it ends is written out as ``setup_done``.  The run
then executes whole decks, one verdict after another, starting another
deck only while it is expected to end within ``--seconds``.  With
``--trace 1`` each deck runs twice, untraced and then traced, and the
verdicts of the two passes must be identical.  The raw records go to
``DIR/result.json``; ``run.py`` turns them into metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALL_TIMEOUT_S = 120


class Program:
    """The program's modules, read through their attributes at call time
    so that traced runs see the wrappers."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        import fraction_forge.cli as cli
        if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"fraction_forge imported from {cli.__file__}")
        from fraction_forge import dht, exfunctor, fractions, localize, marked
        from fraction_forge.sset_core import io
        self.cli, self.dht, self.exfunctor = cli, dht, exfunctor
        self.fractions, self.localize, self.marked, self.io = (
            fractions, localize, marked, io)


def run_in_process(verdict):
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        answer = verdict.run()
        failure = verdict.check(answer)
    except Exception as e:  # a raising decider is a failed verdict
        answer = f"raised {type(e).__name__}"
        cause = "cap" if "cap" in str(e) else "raised"
        failure = (cause, f"{type(e).__name__}: {e}")
    return time.perf_counter() - t0, time.process_time() - c0, answer, failure


def _import_times(stderr):
    """Split ``-X importtime`` lines off stderr; return (rest, times)."""
    rest, times = [], {"sympy_s": 0.0, "numpy_s": 0.0, "fraction_forge_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        cells = line[len("import time:"):].split("|")
        if not cells[0].strip().isdigit():
            continue  # the header line
        self_us, cumulative_us, name = int(cells[0]), int(cells[1]), cells[2].strip()
        if name in ("sympy", "numpy"):
            times[name + "_s"] = cumulative_us / 1e6
        elif name.split(".")[0] == "fraction_forge":
            times["fraction_forge_s"] += self_us / 1e6
    return "\n".join(rest), times


def run_cli(verdict, traced, spans_path):
    argv = verdict.run()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if traced:
        cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_shim.py"),
               str(spans_path), repr(time.time())] + argv
    else:
        cmd = [sys.executable, "-m", "fraction_forge.cli"] + argv
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CALL_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = None, "", "timed out"
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (time.process_time() - c0 + ru1.ru_utime - ru0.ru_utime
           + ru1.ru_stime - ru0.ru_stime)
    err, imports = _import_times(err)
    failure = verdict.check((code, out, err)) if code is not None \
        else ("cap", f"no exit within {CALL_TIMEOUT_S}s")
    answer = [code, hashlib.sha256(out.encode()).hexdigest()[:16]]
    return wall, cpu, answer, failure, imports


def run_deck(args, verdicts, deck, traced, tracer, child_spans):
    """Run one pass over a deck; returns the verdict records."""
    records = []
    done = spans.install(tracer) if traced and args.workload != "cli-oneshot" else []
    try:
        for i, v in enumerate(verdicts):
            vid = f"{deck}.{i}"
            tracer.verdict = vid
            if args.workload == "cli-oneshot":
                path = Path(args.workdir) / "shim.json"
                wall, cpu, answer, failure, imports = run_cli(v, traced, path)
                if traced and path.exists():
                    child = json.loads(path.read_text())
                    path.unlink()
                    child["imports"] = imports
                    child_spans.append((vid, child))
            else:
                wall, cpu, answer, failure = run_in_process(v)
            records.append({"id": vid, "label": v.label, "wall": wall, "cpu": cpu,
                            "answer": repr(answer), "well_formed": v.well_formed,
                            "cause": failure[0] if failure else None,
                            "detail": failure[1] if failure else None})
    finally:
        spans.restore(done)
        tracer.verdict = None
    return records


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    # one CPU for the worker and its children: migrations between CPUs
    # roughly doubled the run-to-run spread of identical work on a 2-core box
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    P = Program()
    build = workloads.WORKLOADS[args.workload]

    def make(deck):
        if args.workload == "cli-oneshot":
            return build(P, args.seed, deck, args.workdir)
        return build(P, args.seed, deck)

    verdicts, sources = make(0)
    setup_done = time.time()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return

    tracer = spans.Tracer()
    untraced, traced, child_spans, deck_walls = [], [], [], []
    mismatches = []
    start = time.perf_counter()
    deck = 0
    while True:
        if deck:
            elapsed = time.perf_counter() - start
            if elapsed + sum(deck_walls) / len(deck_walls) > args.seconds:
                break
            more, more_sources = make(deck)
            verdicts, sources = more, sources + more_sources
        t0 = time.perf_counter()
        plain = run_deck(args, verdicts, deck, False, tracer, child_spans)
        untraced += plain
        if args.trace:
            seen = run_deck(args, verdicts, deck, True, tracer, child_spans)
            traced += seen
            mismatches += [a["id"] for a, b in zip(plain, seen)
                           if a["answer"] != b["answer"]]
        deck_walls.append(time.perf_counter() - t0)
        deck += 1

    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_kb = (child_ru if args.workload == "cli-oneshot" else self_ru).ru_maxrss
    result = {"setup_done": setup_done, "decks": deck, "records": untraced,
              "peak_rss_mb": peak_kb / 1024, "iso_share": inputs.iso_share(sources)}
    if args.trace:
        result.update(traced=traced, mismatches=mismatches,
                      spans=tracer.spans, counters=tracer.counters,
                      children=child_spans)
    Path(args.workdir, "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
