#!/usr/bin/env python3
"""Benchmark self-test: two short traced runs of each workload at one seed
must give identical counts and identical check outcomes.

    python3 bench/selftest.py [--seed 7] [--seconds 2] [--workload cli ...]

Counts are the per-operation call, point, iteration, certificate and
cache-hit figures; they are averaged over whole cycles of a fixed operation
list, so they repeat exactly.  Exits 1 on any difference.
"""

import argparse
import sys

from steady import run_once

COUNT_SUFFIXES = (
    ".calls_per_op",
    "_points_per_op",
    ".points_per_integral",
    ".integrals_per_op",
    ".qabd_calls_per_op",
    ".verdict_calls_per_op",
    ".verdict_cache_hit_ratio",
    ".certificates_per_op",
    ".dominance_samples_per_op",
    ".lloyd_iterations_per_op",
)


def check_ratio(info) -> float:
    checks = info["checks"]
    return checks["passed"] / checks["attempted"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bad = 0
    for workload in args.workload or ("cluster", "bhat", "cli"):
        (i1, r1), (i2, r2) = (run_once(workload, args.seed, args.seconds, 1) for _ in range(2))
        counts = [k for k in r1["metrics"] if k.endswith(COUNT_SUFFIXES)]
        diff = [k for k in counts if r1["metrics"][k]["value"] != r2["metrics"][k]["value"]]
        ratios = (check_ratio(i1), check_ratio(i2))
        ok = not diff and ratios[0] == ratios[1] and r1["correct"] and r2["correct"]
        bad += not ok
        print(f"{workload}: {len(counts)} counts, {len(diff)} differ {diff}; "
              f"check pass ratio {ratios[0]:.6f} / {ratios[1]:.6f}; "
              f"correct {r1['correct']} / {r2['correct']} -> {'ok' if ok else 'FAILED'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
