#!/usr/bin/env python3
"""Steadiness report: run workloads K times, each with its own seed.

    python3 bench/steady.py --workload cli --runs 10 --seed0 100 --seconds 20 [--trace 1]

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3-Q1)/median, next to the metric's bound from
BENCHMARK.json; a spread above a third of the bound, or above 0.1, is
marked.  It also lists every percentile that a run flagged as sitting
within 5 points of a boundary between operation kinds.  Raw results go to
.bench_work/steady-<workload>-trace<t>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def report(workload, runs, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = list(runs[0][1]["metrics"])
    print(f"\n{workload} (trace {trace}): {len(runs)} runs, seeds {[r[0]['seed'] for r in runs]}")
    print(f"{'metric':<40} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        vals = [r[1]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s" and spread > bound / 3.0:
            mark = "  <-- above bound/3"
        elif spread > 0.1:
            mark = "  <-- above 0.1"
        print(f"{name:<40} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}{mark}")
    correct = all(r[1]["correct"] for r in runs)
    print(f"correct in every run: {correct}")
    for info, _ in runs:
        for flag in info.get("percentile_flags", []):
            print(f"seed {info['seed']}: {flag}")
        known = info.get("checks", {}).get("known_failures", {})
        for label, k in known.items():
            print(f"seed {info['seed']}: known failure {label} x{k['count']}: {k['cause']}")
        for msg in info.get("checks", {}).get("unexpected_failures", []):
            print(f"seed {info['seed']}: UNEXPECTED {msg}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    for workload in args.workload:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.seed0 + i, seconds, args.trace))
            print(f"  {workload} seed {args.seed0 + i}: done", file=sys.stderr, flush=True)
        out = ROOT / ".bench_work" / f"steady-{workload}-trace{args.trace}.json"
        out.write_text(json.dumps([{"info": i, "result": r} for i, r in runs], indent=1))
        report(workload, runs, args.trace)


if __name__ == "__main__":
    main()
