#!/usr/bin/env python3
"""cdt benchmark.

    python3 bench/run.py --workload {cluster,bhat,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/cdt``.  The harness and
every process it starts are pinned to one CPU, and every operation time is
normalized against a reference kernel sampled around and during it
(harness.py).
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's context
(machine, versions, raw times, failures with their causes).

--trace 0 reports the end-to-end metrics of an untraced run.  --trace 1
reports the per-layer metrics: it runs the workload untraced for half the
time and traced for the other half, and prints a self-time table per layer.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import harness
from tracing import LAYERS, MIDPOINT, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("cluster", "bhat", "cli")

#: Timed operations per untraced run, at least: p90 then has 10 samples beyond it.
MIN_SAMPLES = 100

#: Fresh set-up processes per untraced run; setup_s is the median of their times.
SETUP_REPEATS = 3

#: A run stops at the first cycle boundary after this many seconds, whatever else.
MAX_SECONDS = 120.0

#: Fresh processes per start-up measurement (cli.import_ms, cli.interpreter_ms).
STARTUP_REPEATS = 5

#: Adjacent operation kinds whose median latencies differ by less than this
#: share overlap, so a percentile between them cannot jump.
SAME_LATENCY = 0.10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and warm up, then exit (timed by the harness for setup_s)")
    return ap.parse_args(argv)


def set_up(workload: str, seed: int, traced: bool):
    """Build the workload's operations from the seed and warm them up: each
    library operation runs once, and each CLI invocation kind once."""
    import workloads

    if workload == "cluster":
        ops = workloads.cluster_workload(seed, traced)
    elif workload == "bhat":
        ops = workloads.bhat_workload(seed, traced)
    else:
        ops = workloads.cli_workload(seed, WORK / f"cli-{seed}")
    seen = set()
    for op in ops:
        if workload == "cli" and op.kind in seen:
            continue
        seen.add(op.kind)
        op.check(op.run())
    return ops


def machine_info(cpu: int) -> dict:
    import numpy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def check_summary(records) -> dict:
    import workloads

    statuses = [s for r in records for s in r.checks]
    known: dict[str, dict] = {}
    unexpected: list[str] = []
    for label, status, detail in statuses:
        if status == workloads.KNOWN:
            known.setdefault(label, {"count": 0, "cause": detail})["count"] += 1
        elif status == workloads.FAIL and len(unexpected) < 10:
            unexpected.append(f"{label}: {detail}")
    passed = sum(1 for s in statuses if s[1] == workloads.PASS)
    failed = sum(1 for s in statuses if s[1] == workloads.FAIL)
    return {"attempted": len(statuses), "passed": passed, "failed": failed,
            "known_failures": known, "unexpected_failures": unexpected}


def percentile_flags(bounds) -> list:
    """Percentiles within 5 points of a boundary between kinds of different latency."""
    edges = [a["end_pct"] for a, b in zip(bounds, bounds[1:])
             if b["p50_ms"] > (1.0 + SAME_LATENCY) * a["p50_ms"]]
    return [f"p{q} is {abs(q - e):.1f} points from a kind boundary at {e:.1f}%"
            for q in (50, 90) for e in edges if abs(q - e) < 5.0]


def timed_child(cmd) -> float:
    """Normalized wall time of one fresh process."""
    before = harness.kernel_unit()
    with harness.Sampler() as sampler:
        t0 = harness.clock()
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        wall = harness.clock() - t0
    raw, r = sampler.normalized(wall, before, harness.kernel_unit())
    return raw * harness.KERNEL_NOMINAL_S / r


def setup_repeat(args) -> float:
    """Normalized time of a fresh harness process that only sets up."""
    return timed_child([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", "0", "--setup-only"])


def run_untraced(args, info) -> dict:
    ops = set_up(args.workload, args.seed, traced=False)
    # The speed of this VM changes over seconds, so the fresh set-ups are
    # spread over the run instead of following each other.
    due = [args.seconds * i / SETUP_REPEATS for i in range(SETUP_REPEATS)]
    setup = []
    rss = {}

    def between(elapsed):
        if due and elapsed >= due[0]:
            due.pop(0)
            rss.setdefault("children", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            setup.append(setup_repeat(args))

    loop = harness.Loop(args.seconds, MIN_SAMPLES, MAX_SECONDS, between=between).run(ops)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_rss = rss.get("children", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_repeat(args))

    stats = harness.summarize(loop.records)
    checks = check_summary(loop.records)
    bounds = harness.kind_boundaries(loop.records)
    metrics = {
        "throughput_ops_s": (stats["throughput_ops_s"], "1/s"),
        "latency_p50_ms": (stats["latency_p50_ms"], "ms"),
        "latency_p90_ms": (stats["latency_p90_ms"], "ms"),
        "success_ratio": (checks["passed"] / checks["attempted"], "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (child_rss if args.workload == "cli" else self_rss, "MB"),
    }
    info.update({
        "samples": len(loop.records), "cycles": loop.cycles, "ops_per_cycle": len(ops),
        "setup_samples_s": setup,
        "raw": {k: stats[k] for k in ("raw.throughput_ops_s", "raw.latency_p50_ms", "ref.kernel_ms")},
        "checks": checks, "kind_boundaries": bounds, "percentile_flags": percentile_flags(bounds),
    })
    return _result(checks, metrics)


def run_traced(args, info) -> dict:
    ops = set_up(args.workload, args.seed, traced=True)
    half = 0.5 * args.seconds
    plain = harness.Loop(half).run(ops)

    tracer = Tracer()
    tracer.install()
    try:
        cli = args.workload == "cli"
        for op in ops:
            for _, counter in op.counters:
                counter.points = 0
            if cli:
                op.trace_path = WORK / f"child-trace-{os.getpid()}.json"
                op.record_spans = True
        tracer.reset()
        tracer.recording = True
        first = harness.Loop(0.0).run(ops, tracer)
        tracer.recording = False
        for op in ops:
            if cli:
                op.record_spans = False
        rest = harness.Loop(max(0.0, half - first.elapsed_s)).run(ops, tracer)
    finally:
        tracer.uninstall()
    records = first.records + rest.records
    n = len(records)

    def total(key, sub=None):
        if sub is None:
            return sum(r.trace.get(key, 0) for r in records)
        return sum(r.trace[key].get(sub, 0) for r in records)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = (total("layer_calls", layer) / n, "count")
        self_s = sum(r.trace["layer_self_s"][layer] * r.factor for r in records)
        metrics[f"{layer}.self_ms_per_op"] = (1e3 * self_s / n, "ms")
    outside = sum((r.raw_s - sum(r.trace["layer_self_s"].values())) * r.factor for r in records)
    op_ms = 1e3 * sum(r.norm_s for r in records) / n
    integrals = total("calls", "quadrature.integrate")
    verdicts = total("verdict_calls")
    metrics.update({
        "trace.op_ms_per_op": (op_ms, "ms"),
        "trace.outside_ms_per_op": (1e3 * outside / n, "ms"),
        "expr.F_points_per_op": (total("F_points") / n, "count"),
        "quadrature.density_points_per_op": (total("density_points") / n, "count"),
        "quadrature.integrals_per_op": (integrals / n, "count"),
        "quadrature.points_per_integral": (total("density_points") / integrals if integrals else 0.0, "count"),
        "divergences.qabd_calls_per_op": (total("calls", "divergences.qabd") / n, "count"),
        "divergences.verdict_calls_per_op": (verdicts / n, "count"),
        "divergences.verdict_cache_hit_ratio": (total("verdict_hits") / verdicts if verdicts else 0.0, "ratio"),
        "convexity.certificates_per_op": (
            (total("calls", "convexity.is_mn_convex") + total("calls", MIDPOINT)) / n, "count"),
        "means.dominance_samples_per_op": (total("dominance_samples") / n, "count"),
        "centroids.lloyd_iterations_per_op": (total("lloyd_iterations") / n, "count"),
    })
    plain_stats = harness.summarize(plain.records)
    traced_tp = n / sum(r.norm_s for r in records)
    import_cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import cdt.cli"]
    numpy_cmd = [sys.executable, "-c", "import numpy"]
    metrics.update({
        "cli.import_ms": (1e3 * statistics.median(timed_child(import_cmd) for _ in range(STARTUP_REPEATS)), "ms"),
        "cli.interpreter_ms": (1e3 * statistics.median(timed_child(numpy_cmd) for _ in range(STARTUP_REPEATS)), "ms"),
        "ref.kernel_ms": (plain_stats["ref.kernel_ms"], "ms"),
        "raw.throughput_ops_s": (plain_stats["raw.throughput_ops_s"], "1/s"),
        "raw.latency_p50_ms": (plain_stats["raw.latency_p50_ms"], "ms"),
        "trace.overhead_ratio": (traced_tp / plain_stats["throughput_ops_s"], "ratio"),
    })

    spans = _write_spans(args, records[: len(ops)], tracer)
    _print_layer_table(args.workload, metrics, LAYERS)
    checks = check_summary(plain.records + records)
    info.update({"untraced_samples": len(plain.records), "traced_samples": n,
                 "traced_cycles": first.cycles + rest.cycles, "span_file": spans,
                 "checks": checks})
    return _result(checks, metrics)


def _write_spans(args, first_records, tracer) -> str:
    """Spans of the first traced cycle: (id, name, start, end, parent)."""
    if args.workload == "cli":
        spans = [{"op": i, "spans": r.trace.get("spans", [])} for i, r in enumerate(first_records)]
    else:
        spans = [{"op": None, "spans": tracer.spans}]
    path = WORK / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(spans))
    return str(path.relative_to(ROOT))


def _print_layer_table(workload, metrics, layers) -> None:
    print(f"# traced {workload}: per operation, normalized")
    print(f"# {'layer':<14} {'calls':>12} {'self ms':>10}")
    total = 0.0
    for layer in layers:
        calls = metrics[f"{layer}.calls_per_op"][0]
        self_ms = metrics[f"{layer}.self_ms_per_op"][0]
        total += self_ms
        print(f"# {layer:<14} {calls:>12.1f} {self_ms:>10.3f}")
    outside = metrics["trace.outside_ms_per_op"][0]
    op_ms = metrics["trace.op_ms_per_op"][0]
    print(f"# {'(outside)':<14} {'':>12} {outside:>10.3f}")
    print(f"# self + outside = {total + outside:.3f} ms; traced operation = {op_ms:.3f} ms")


def _result(checks, metrics) -> dict:
    return {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "cdt" / "__init__.py").is_file():
        print(f"error: {SRC / 'cdt'} not found; run from the root of a cdt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpu = harness.pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    if args.setup_only:
        set_up(args.workload, args.seed, traced=False)
        return 0
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine_info(cpu)}
    result = run_traced(args, info) if args.trace else run_untraced(args, info)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
