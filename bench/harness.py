"""Timing core: the reference kernel, drift normalization and the closed loop.

This VM's vCPU speed drifts: the same scalar loop takes 0.65 ms or 1.4 ms
depending on the second, and CPU time drifts with it, so raw wall-clock time
does not repeat.  A fixed scalar-Python kernel that imports nothing from cdt
measures the current speed, and an operation's normalized time is t * K / r:
K is the kernel's nominal time, r its measured time around the operation.

The speed changes within an operation, so r is the mean of kernel samples
taken just before the operation, every SAMPLE_INTERVAL_S during it (on
SIGALRM; the sampling time is subtracted from t) and just after it,
leaving out samples that another process preempted.  A
CLI operation's child runs on the same CPU, so the samples measure the
speed it runs at.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: A kernel run is KERNEL_UNITS units of UNIT_ITERATIONS loop iterations.
UNIT_ITERATIONS = 300
KERNEL_UNITS = 10

#: Nominal time of one kernel run (3000 iterations), in seconds: the K of t * K / r.
KERNEL_NOMINAL_S = 1.5e-3

#: Interval between kernel samples during an operation or the set-up.
SAMPLE_INTERVAL_S = 0.01

#: Kernel units slower than this multiple of the median were preempted.  The
#: slow and fast states of the vCPU differ by about 2.2x, so 3x keeps both.
OUTLIER_RATIO = 3.0

clock = time.perf_counter


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts later) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _unit() -> float:
    """Wall time of one kernel unit: scalar Python plus np.log."""
    t0 = clock()
    acc = 0.0
    x = 1.0
    for _ in range(UNIT_ITERATIONS):
        x = x * 1.0001 + 0.5
        acc += float(np.log(x))
    return clock() - t0


def kernel_unit() -> float:
    """Median unit time over one kernel run."""
    return statistics.median(_unit() for _ in range(KERNEL_UNITS))


class Sampler:
    """Runs a kernel unit every SAMPLE_INTERVAL_S while active (SIGALRM)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(_unit())

    def __enter__(self) -> "Sampler":
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalized(self, wall_s: float, *edges: float) -> tuple[float, float]:
        """(time without sampling, kernel time r) for wall_s spent while active,
        given the unit times measured just before and/or just after.

        A unit that another process preempted (a CLI child on the same CPU
        often runs out its slice first) takes many times the median; units
        above OUTLIER_RATIO times the median are left out of r.
        """
        units = [*edges, *self.samples]
        limit = OUTLIER_RATIO * statistics.median(units)
        r = statistics.fmean(u for u in units if u <= limit)
        return wall_s - sum(self.samples), KERNEL_UNITS * r


@dataclass
class OpRecord:
    kind: str
    raw_s: float
    kernel_s: float
    checks: list
    trace: dict | None = None

    @property
    def factor(self) -> float:
        return KERNEL_NOMINAL_S / self.kernel_s

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor


@dataclass
class Loop:
    """Closed loop with one caller over whole cycles of the workload's ops.

    Stops at the first cycle boundary where at least ``min_seconds`` have
    passed and ``min_ops`` operations completed, or ``max_seconds`` passed.
    ``between(elapsed)`` runs after each cycle; its time does not count.
    """

    min_seconds: float
    min_ops: int = 1
    max_seconds: float = 140.0
    records: list = field(default_factory=list)
    cycles: int = 0
    elapsed_s: float = 0.0
    between: object = None

    def run(self, cycle, tracer=None) -> "Loop":
        """Run whole cycles.  A traced run samples the kernel only around
        each operation, so span times hold no sampling time."""
        gc.collect()
        u_prev = kernel_unit()
        sampler = Sampler()
        start = clock()
        paused = 0.0
        while True:
            for op in cycle:
                if tracer is None:
                    with sampler:
                        t0 = clock()
                        out = op.run()
                        t1 = clock()
                    trace = None
                else:
                    sampler.samples = []
                    t0 = clock()
                    out = op.run()
                    t1 = clock()
                    trace = op.collect(tracer, out)
                u_next = kernel_unit()
                raw_s, r = sampler.normalized(t1 - t0, u_prev, u_next)
                checks = op.check(out)
                self.records.append(OpRecord(op.kind, raw_s, r, checks, trace))
                u_prev = u_next
            self.cycles += 1
            self.elapsed_s = elapsed = clock() - start - paused
            if self.between is not None:
                t0 = clock()
                self.between(elapsed)
                paused += clock() - t0
                u_prev = kernel_unit()
            if elapsed >= self.max_seconds:
                break
            if elapsed >= self.min_seconds and len(self.records) >= self.min_ops:
                break
        return self


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, float), q))


def summarize(records) -> dict:
    norm = [r.norm_s for r in records]
    raw = [r.raw_s for r in records]
    return {
        "throughput_ops_s": len(norm) / sum(norm),
        "latency_p50_ms": 1e3 * percentile(norm, 50),
        "latency_p90_ms": 1e3 * percentile(norm, 90),
        "raw.throughput_ops_s": len(raw) / sum(raw),
        "raw.latency_p50_ms": 1e3 * percentile(raw, 50),
        "ref.kernel_ms": 1e3 * statistics.median(r.kernel_s for r in records),
    }


def kind_boundaries(records) -> list:
    """Cumulative percentile at which each operation kind ends, kinds
    ordered by their median normalized latency."""
    by_kind: dict[str, list] = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.norm_s)
    order = sorted(by_kind, key=lambda k: statistics.median(by_kind[k]))
    out, acc = [], 0
    for k in order:
        acc += len(by_kind[k])
        out.append({"kind": k, "end_pct": 100.0 * acc / len(records),
                    "p50_ms": 1e3 * statistics.median(by_kind[k])})
    return out
