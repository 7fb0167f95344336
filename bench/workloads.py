"""The three workloads: inputs drawn from the seed, operations, output checks.

Each workload is a fixed list of operations (a cycle) drawn from ``--seed``;
the loop repeats whole cycles.  Every operation returns its outputs, and
``check`` compares each against an independent reference (reference.py),
giving one status per checked output:

* ``pass``: the output matches the reference;
* ``known``: it misses the reference exactly as a documented defect
  predicts (the cause is recorded; the input is kept);
* ``fail``: anything else.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import cdt
import reference as ref
from tracing import PointCounter

BENCH_DIR = Path(__file__).resolve().parent

PASS, KNOWN, FAIL = "pass", "known", "fail"


def _status(label, ok, known=False, cause="", detail=""):
    if ok:
        return (label, PASS, "")
    if known:
        return (label, KNOWN, cause)
    return (label, FAIL, detail)


class Op:
    """One operation: ``run`` does the timed work, ``check`` judges its
    outputs, ``collect`` gathers what the traced run counted for it."""

    def __init__(self, kind, run, check, counters=()):
        self.kind = kind
        self.run = run
        self.check = check
        self.counters = counters

    def collect(self, tracer, out) -> dict:
        agg = tracer.take()
        for name, counter in self.counters:
            agg[name] = counter.points
            counter.points = 0
        agg["lloyd_iterations"] = getattr(out, "lloyd_iterations", 0)
        return agg


# ------------------------------------------------------------------- cluster

#: (F, domain, rho, tau): the four (M_rho, M_tau)-convex triples the tests
#: certify.  Points lie in the positive part of each domain.
TRIPLES = (
    ("x^2", (0.2, 12.0), "identity", "identity"),
    ("exp(x)", (0.2, 4.0), "log", "log"),
    ("exp(x^2)", (0.1, 2.5), "identity", "log"),
    ("exp(x)", (0.5, 3.0), "power:2", "power:3"),
)

CLUSTER_N = 200
CLUSTER_K = 3


def three_clusters(rng, lo, hi, n=CLUSTER_N):
    """n points from three well-separated log-normal clusters inside (lo, hi).

    Centers sit at 20/50/80% of the log-range with a small seed jitter, so
    every seed gives the same kind of job (Lloyd converges in a few sweeps).
    """
    L, H = math.log(lo), math.log(hi)
    span = H - L
    centers = L + span * (np.array([0.2, 0.5, 0.8]) + rng.uniform(-0.02, 0.02, 3))
    labels = np.arange(n) % 3
    logs = centers[labels] + 0.002 * span * rng.standard_normal(n)
    logs = np.clip(logs, L + 0.02 * span, H - 0.02 * span)
    pts = np.exp(logs)
    rng.shuffle(pts)
    return [float(v) for v in pts]


class ClusterResult:
    def __init__(self, clustering, centroid, infos, members):
        self.clustering = clustering
        self.centroid = centroid
        self.infos = infos
        self.members = members
        self.lloyd_iterations = clustering.iterations


def cluster_workload(seed: int, traced: bool):
    rng = np.random.default_rng(seed)
    fpoints = PointCounter()
    ops = []
    for t in rng.permutation(len(TRIPLES)):
        text, dom, rho_name, tau_name = TRIPLES[int(t)]
        F = cdt.expression_model(text, dom)
        if traced:
            F = dataclasses.replace(F, eval=fpoints.wrap(F.eval))
        rho, tau = cdt.get_generator(rho_name), cdt.get_generator(tau_name)
        pts = three_clusters(rng, *dom)
        wset = cdt.WeightedSet.uniform(pts)
        kseed = int(rng.integers(0, 2**31))
        ops.append(Op(f"{text}|{rho_name},{tau_name}",
                      _cluster_run(F, rho, tau, wset, kseed),
                      _cluster_check(text, rho_name, tau_name, pts),
                      (("F_points", fpoints),)))
    return ops


def _cluster_run(F, rho, tau, wset, kseed):
    def run():
        spec = cdt.QabdSpec(F, rho, tau)
        cl = cdt.kmeans_cluster(spec, wset, CLUSTER_K, seed=kseed)
        centroid = cdt.bregman_centroid(spec, wset)
        members = [[p for p, a in zip(wset.points, cl.assignments) if a == j] for j in range(CLUSTER_K)]
        infos = [cdt.cluster_information(spec, cdt.WeightedSet.uniform(m)) for m in members]
        return ClusterResult(cl, centroid, infos, members)

    return run


def _cluster_check(F, rho, tau, pts):
    x = np.asarray(pts)
    w = np.full(len(pts), 1.0 / len(pts))

    def check(res):
        cl = res.clustering
        centers = np.asarray(cl.centers)
        assign = np.asarray(cl.assignments)
        D = ref.qabd(F, rho, tau, centers[None, :], x[:, None])
        obj = math.fsum((w * D[np.arange(len(x)), assign]).tolist())
        dmin = D.min(axis=1)
        own = D[np.arange(len(x)), assign]
        hist = np.asarray(cl.history)
        infos_ok = all(
            ref.close(v, ref.jensen_information(F, rho, tau, m), 1e-9, 1e-12)
            for v, m in zip(res.infos, res.members)
        )
        return [
            _status("kmeans.objective", ref.close(cl.objective, obj, 1e-6, 1e-12),
                    detail=f"{cl.objective!r} vs {obj!r}"),
            _status("kmeans.nearest", bool(np.all(own <= dmin + 1e-7 * np.maximum(1.0, np.abs(dmin))))),
            _status("kmeans.history", bool(np.all(np.diff(hist) <= 1e-12 * np.maximum(1.0, np.abs(hist[:-1]))))),
            _status("centroid.gradient", ref.centroid_ok(F, rho, tau, x, w, res.centroid),
                    detail=f"centroid {res.centroid!r}"),
            _status("cluster_information", infos_ok),
        ]

    return check


# ---------------------------------------------------------------------- bhat

DISCRETE_BINS = 10_000
EMPTY_SHARE = 0.3
HIST_BINS = 200

GINI_CAUSE = ("ROADMAP 3(a): the vectorized gini:d:d mean returns 0 where one mass is 0; "
              "the continuous limit is the other mass")


def sparse_masses(rng, n):
    m = rng.gamma(2.0, 1.0, n)
    m[rng.random(n) < EMPTY_SHARE] = 0.0
    return m / m.sum()


def bhat_workload(seed: int, traced: bool, sets: int = 2):
    rng = np.random.default_rng(seed)
    dpoints = PointCounter()
    ops = []
    for _ in range(sets):
        alpha = float(rng.uniform(0.3, 0.7))
        p, q = sparse_masses(rng, DISCRETE_BINS), sparse_masses(rng, DISCRETE_BINS)
        P, Q = cdt.DiscreteDist(tuple(p.tolist())), cdt.DiscreteDist(tuple(q.tolist()))
        s1, s2 = (float(v) for v in rng.uniform(0.5, 2.0, 2))
        C1, C2 = cdt.cauchy_density(s1), cdt.cauchy_density(s2)
        edges = np.geomspace(0.5, 8.0, HIST_BINS + 1)
        h1, h2 = (rng.gamma(2.0, 1.0, HIST_BINS) for _ in range(2))
        h1, h2 = h1 / h1.sum(), h2 / h2.sum()
        H1, H2 = cdt.histogram_density(edges, h1), cdt.histogram_density(edges, h2)
        if traced:
            C1, C2, H1, H2 = (dataclasses.replace(d, eval=dpoints.wrap(d.eval)) for d in (C1, C2, H1, H2))
            dpoints.points = 0
        ops.append(Op("compare", _bhat_run(alpha, P, Q, C1, C2, H1, H2),
                      _bhat_check(alpha, p, q, s1, s2, edges, h1, h2),
                      (("density_points", dpoints),)))
    return ops


def _bhat_run(alpha, P, Q, C1, C2, H1, H2):
    def run():
        A, G, H = cdt.ARITHMETIC, cdt.GEOMETRIC, cdt.HARMONIC
        out = {}
        out["cmbd G/A"] = float(cdt.cmbd(G, A, alpha, P, Q))
        out["cmbd H/G"] = float(cdt.cmbd(H, G, alpha, P, Q))
        out["cmbd power:-1/power:2"] = float(cdt.cmbd(cdt.power(-1), cdt.power(2), alpha, P, Q))
        out["cmbd lehmer:-0.3/qa:identity"] = float(cdt.cmbd(cdt.lehmer(-0.3), A, alpha, P, Q))
        out["coefficient gini:1:1"] = cdt.bhat_coefficient(cdt.gini(1, 1), alpha, P, Q)
        out["power_cmbd 2,-1"] = cdt.power_cmbd(2.0, -1.0, alpha, P, Q)
        out["alpha_divergence"] = cdt.alpha_divergence(alpha, P, Q)
        out["cauchy H/A"] = float(cdt.cmbd(H, A, alpha, C1, C2))
        out["cauchy G/A"] = float(cdt.cmbd(G, A, alpha, C1, C2))
        out["histogram G/A"] = float(cdt.cmbd(G, A, alpha, H1, H2))
        out["expected log"] = cdt.qa_expected_value(cdt.LOG, H1)
        out["expected reciprocal"] = cdt.qa_expected_value(cdt.RECIPROCAL, H1)
        return out

    return run


def _bhat_check(alpha, p, q, s1, s2, edges, h1, h2):
    want = {
        "cmbd G/A": ref.cmbd("qa:log", "qa:identity", p, q, alpha),
        "cmbd H/G": ref.cmbd("qa:reciprocal", "qa:log", p, q, alpha),
        "cmbd power:-1/power:2": ref.cmbd("power:-1", "power:2", p, q, alpha),
        "cmbd lehmer:-0.3/qa:identity": ref.cmbd("lehmer:-0.3", "qa:identity", p, q, alpha),
        "coefficient gini:1:1": ref.coefficient("gini:1:1", p, q, alpha),
        "power_cmbd 2,-1": math.log(ref.coefficient("power:2", p, q, alpha)
                                    / ref.coefficient("power:-1", p, q, alpha)) / 3.0,
        "alpha_divergence": (1.0 - ref.coefficient("qa:log", p, q, 1.0 - alpha)) / (alpha * (1.0 - alpha)),
        "cauchy H/A": ref.cauchy_ha(s1, s2, alpha),
        "cauchy G/A": -math.log(ref.cauchy_geometric_coefficient(s1, s2, alpha)),
        "histogram G/A": -math.log(ref.histogram_geometric_coefficient(edges, h1, h2, alpha)),
        "expected log": ref.histogram_expected(edges, h1, "log"),
        "expected reciprocal": ref.histogram_expected(edges, h1, "reciprocal"),
    }
    # Tolerances: discrete sums agree to rounding; density integrals carry
    # the truncated Cauchy tails (~1e-7) and the quadrature tolerance.
    tol = {"cauchy H/A": (0.0, 1e-6), "cauchy G/A": (0.0, 1e-6)}
    gini_zero = ref.coefficient("gini:1:1", p, q, alpha, zero_limit=False)

    def check(out):
        statuses = []
        for label, value in out.items():
            rel, abs_ = tol.get(label, (1e-9, 1e-12))
            ok = ref.close(value, want[label], rel, abs_)
            known = label == "coefficient gini:1:1" and ref.close(value, gini_zero, 1e-9, 1e-12)
            statuses.append(_status(label, ok, known, GINI_CAUSE, f"{value!r} vs {want[label]!r}"))
        return statuses

    return check


# ----------------------------------------------------------------------- cli

CLI_BINS = 1_000
ORDER_CAUSE = ("ROADMAP 3(c): cdt bhat skips the dominance check by default and reports "
               "a negative-divergence ConvexityError instead of DominanceError")

#: Invocation kinds with their share of the 20-slot rotation.  Eight
#: start-up-bound kinds (~0.27 s each) fill 0-80% of the latency order, so
#: p50 sits inside them; div-jensen and cluster (~0.35-0.4 s) fill 80-95%
#: and dominates (~0.8 s) 95-100%, so p90 sits at least 5 points from every
#: boundary between kinds of different latency.
CLI_ROTATION = (
    ("error-order", 2),
    ("mean", 2),
    ("error-spec", 2),
    ("bhat", 2),
    ("expect", 2),
    ("div-bregman", 2),
    ("check-convexity", 2),
    ("centroid", 2),
    ("div-jensen", 1),
    ("cluster", 2),
    ("dominates", 1),
)


class CliResult:
    def __init__(self, proc, trace):
        self.code = proc.returncode
        self.stdout = proc.stdout
        self.stderr = proc.stderr
        self.trace = trace
        try:
            self.doc = json.loads(proc.stdout)
        except ValueError:
            self.doc = None
        self.lloyd_iterations = (self.doc or {}).get("iterations", 0) if self.code == 0 else 0


def _child_env(trace_path=None, spans=False):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CDT_")}
    if trace_path is not None:
        env["CDT_BENCH_TRACE"] = str(trace_path)
        if spans:
            env["CDT_BENCH_SPANS"] = "1"
    return env


def run_child(argv, cwd, trace_path=None, spans=False):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "cdt_child.py"), *argv],
        cwd=cwd, env=_child_env(trace_path, spans), capture_output=True, timeout=120,
    )


class CliOp(Op):
    """One fresh process started through cdt.cli:console_main."""

    def __init__(self, kind, argv, cwd, check):
        super().__init__(kind, self._run, check)
        self.argv = argv
        self.cwd = cwd
        self.trace_path = None
        self.record_spans = False

    def _run(self):
        proc = run_child(self.argv, self.cwd, self.trace_path, self.record_spans)
        trace = None
        if self.trace_path is not None:
            trace = json.loads(Path(self.trace_path).read_text())
        return CliResult(proc, trace)

    def collect(self, tracer, out) -> dict:
        agg = dict(out.trace or {})
        agg["lloyd_iterations"] = out.lloyd_iterations
        return agg


def _write_cli_inputs(rng, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    p, q = sparse_masses(rng, CLI_BINS), sparse_masses(rng, CLI_BINS)
    (workdir / "p.json").write_text(json.dumps({"type": "discrete", "masses": p.tolist()}))
    (workdir / "q.json").write_text(json.dumps({"type": "discrete", "masses": q.tolist()}))
    pts = three_clusters(rng, 0.5, 8.0)
    (workdir / "points.csv").write_text("".join(f"{v!r}\n" for v in pts))
    xs = np.geomspace(0.5, 8.0, 64)
    ps = rng.gamma(2.0, 1.0, 64)
    ps = ps / ps.sum()
    (workdir / "grid.json").write_text(json.dumps({"type": "grid", "xs": xs.tolist(), "ps": ps.tolist()}))
    p0, q0 = (float(v) for v in np.round(rng.uniform(0.6, 3.0, 2), 6))
    if abs(p0 - q0) < 0.2:
        q0 = round(p0 + 0.5, 6)
    alpha = float(np.round(rng.uniform(0.3, 0.7), 6))
    return {"p": p, "q": q, "points": pts, "xs": xs, "ps": ps, "p0": p0, "q0": q0, "alpha": alpha}


def _doc_value(out):
    return (out.doc or {}).get("value")


def _expect_ok(label, out, check_value):
    if out.code != 0 or out.doc is None:
        return [_status(label, False, detail=f"exit {out.code}: {out.stdout[:200]!r} {out.stderr[-300:]!r}")]
    return [check_value(out.doc)]


def _expect_error(label, out, want_type, known_type=None, cause=""):
    err = ((out.doc or {}).get("error") or {}).get("type")
    ok = out.code == 3 and err == want_type
    known = out.code == 3 and known_type is not None and err == known_type
    return [_status(label, ok, known, cause, f"exit {out.code}, error {err!r}")]


def cli_workload(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    d = _write_cli_inputs(rng, workdir)
    x = np.asarray(d["points"])
    w = np.full(len(x), 1.0 / len(x))
    p0, q0, alpha = d["p0"], d["q0"], d["alpha"]
    s = str
    lo, hi = 0.5, 8.0

    def value_check(label, want, rel=1e-9):
        return lambda doc: _status(label, ref.close(doc.get("value"), want, rel, 1e-12),
                                   detail=f"{doc.get('value')!r} vs {want!r}")

    def cluster_value(doc):
        centers, assign = np.asarray(doc["centers"]), np.asarray(doc["assignments"])
        D = ref.qabd("x^2", "identity", "identity", centers[None, :], x[:, None])
        own = D[np.arange(len(x)), assign]
        obj = math.fsum((w * own).tolist())
        ok = ref.close(doc["objective"], obj, 1e-9, 1e-12) and bool(np.all(own <= D.min(axis=1) + 1e-12))
        return _status("cluster", ok, detail=f"objective {doc['objective']!r} vs {obj!r}")

    specs = {
        "mean": (["mean", "--spec", "power:2", "--data", "points.csv"],
                 lambda o: _expect_ok("mean", o, value_check("mean", float(np.sqrt(np.mean(x**2)))))),
        "div-bregman": (["div", "bregman", "--F", "exp(x)", "--rho", "log", "--tau", "log", s(p0), s(q0)],
                        lambda o: _expect_ok("div-bregman", o, value_check(
                            "div-bregman", float(ref.qabd("exp(x)", "log", "log", p0, q0))))),
        "div-jensen": (["div", "jensen", "--F", "exp(x)", "--M", "qa:log", "--N", "qa:log", s(p0), s(q0)],
                       lambda o: _expect_ok("div-jensen", o, value_check(
                           "div-jensen", math.exp(0.5 * (p0 + q0)) - math.exp(math.sqrt(p0 * q0))))),
        "bhat": (["bhat", "--M", "qa:log", "--N", "qa:identity", "--alpha", s(alpha),
                  "--p", "p.json", "--q", "q.json"],
                 lambda o: _expect_ok("bhat", o, value_check(
                     "bhat", ref.cmbd("qa:log", "qa:identity", d["p"], d["q"], alpha)))),
        "centroid": (["centroid", "--F", "exp(x)", "--rho", "log", "--tau", "log", "--data", "points.csv"],
                     lambda o: _expect_ok("centroid", o, lambda doc: _status(
                         "centroid", ref.centroid_ok("exp(x)", "log", "log", x, w, doc["value"]),
                         detail=f"centroid {doc['value']!r}"))),
        "cluster": (["cluster", "--F", "x^2", "--data", "points.csv", "--k", "3", "--seed", s(seed % 1000)],
                    lambda o: _expect_ok("cluster", o, cluster_value)),
        "check-convexity": (["check-convexity", "--F", "exp(x)", "--rho", "log", "--tau", "log",
                             "--domain", f"{lo}:{hi}"],
                            lambda o: _expect_ok("check-convexity", o, lambda doc: _status(
                                "check-convexity", doc.get("verdict") == "convex",
                                detail=f"verdict {doc.get('verdict')!r}"))),
        "dominates": (["dominates", "--a", "power:2", "--b", "power:1", "--domain", f"{lo}:{hi}",
                       "--seed", s(seed % 1000)],
                      lambda o: _expect_ok("dominates", o, lambda doc: _status(
                          "dominates", doc.get("verdict") == "dominates" and "counterexample_below" not in doc,
                          detail=f"verdict {doc.get('verdict')!r}"))),
        "expect": (["expect", "--f", "log", "--data", "grid.json"],
                   lambda o: _expect_ok("expect", o, value_check(
                       "expect", math.exp(float(np.dot(d["ps"], np.log(d["xs"]))))))),
        "error-spec": (["mean", "--spec", "power:two", "1", "2"],
                       lambda o: _expect_error("error-spec", o, "ParamError")),
        "error-order": (["bhat", "--M", "qa:identity", "--N", "qa:log", "--alpha", s(alpha),
                         "--p", "p.json", "--q", "q.json"],
                        lambda o: _expect_error("error-order", o, "DominanceError", "ConvexityError", ORDER_CAUSE)),
    }
    warm_stdout: dict[str, bytes] = {}
    ops = []
    for kind, share in CLI_ROTATION:
        argv, check = specs[kind]
        ops.extend(CliOp(kind, argv, workdir, _with_stdout_check(kind, check, warm_stdout))
                   for _ in range(share))
    return ops


def _with_stdout_check(kind, check, warm_stdout):
    """Add the byte-identity check against the warm-up run with the same argv
    (the first run of each kind is the warm-up)."""

    def full(out):
        statuses = check(out)
        want = warm_stdout.setdefault(kind, out.stdout)
        statuses.append(_status(f"{kind}.stdout", out.stdout == want,
                                detail="stdout differs from the warm-up run"))
        return statuses

    return full
