"""Command-line front end.

Subcommands: mean, div {jensen|skew|bregman|omega|lehmer-bregman|
jensen-bregman}, diversity, bhat, alpha-div, expect, centroid, cluster,
check-convexity, dominates.  Output is machine-readable JSON by default,
carrying the computed value, any warnings, and enough provenance (argv,
seed, tolerances) to replay the run bit-identically.  Exit codes: 0 success,
2 validation error, 3 numeric/domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from . import bhattacharyya as bh
from .centroids import bregman_centroid, kmeans_cluster
from .convexity import CONVEXITY_RTOL, DEFAULT_GRID, is_mn_convex
from .divergences import (
    ZERO_FLOOR,
    QabdSpec,
    WeightedSet,
    extended_skew_jensen,
    jccd,
    jensen_bregman,
    jensen_diversity,
    lehmer_bregman,
    omega_divergence,
    qabd,
    skew_jccd,
)
from .errors import CdtError, ConfigError, ParamError
from .expectations import qa_expected_value
from .expr import expression_generator, expression_model
from .generators import Generator, Interval, get_generator
from .means import WEIGHT_SUM_TOL, dominates, parse_mean, weighted_mean
from .quadrature import QuadratureConfig

TOLERANCES = {
    "weight_sum_tol": WEIGHT_SUM_TOL,
    "zero_floor": ZERO_FLOOR,
    "convexity_rtol": CONVEXITY_RTOL,
}


@dataclass
class RunConfig:
    """Validated invocation: subcommand, raw options, and shared settings."""

    subcommand: str
    options: dict
    argv: tuple[str, ...]
    seed: int = 0
    fmt: str = "json"
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)

    def validate(self) -> "RunConfig":
        opt = self.options
        if self.fmt not in ("json", "csv", "plain"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        alpha = opt.get("alpha")
        extended = bool(opt.get("extended"))
        if alpha is not None and not extended and not 0.0 < alpha < 1.0:
            raise ConfigError(f"alpha={alpha!r} must lie in (0, 1)")
        if extended and alpha is not None and alpha in (0.0, 1.0):
            raise ConfigError("extended alpha must differ from 0 and 1")
        omega = opt.get("omega")
        if omega is not None and not -1.0 < omega < 1.0:
            raise ConfigError(f"omega={omega!r} must lie in (-1, 1)")
        k = opt.get("k")
        if k is not None and k < 1:
            raise ConfigError("k must be at least 1")
        if self.subcommand == "div" and opt.get("kind") == "lehmer-bregman":
            if opt.get("delta") is None or opt.get("delta2") is None:
                raise ConfigError("lehmer-bregman needs --delta and --delta2")
        if self.subcommand == "bhat":
            has_power = opt.get("delta1") is not None or opt.get("delta2") is not None
            has_means = opt.get("M") is not None
            if has_power and has_means:
                raise ConfigError("choose either --M/--N or --delta1/--delta2, not both")
            if not has_power and not has_means:
                raise ConfigError("bhat needs --M/--N or --delta1/--delta2")
        return self


def _parse_domain(text: str) -> Interval:
    try:
        lo, hi = text.split(":")
        return Interval(float(lo), float(hi))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad domain {text!r}, expected lo:hi") from exc


def _generator_arg(text: str, domain: Interval | None = None) -> Generator:
    try:
        return get_generator(text)
    except ParamError:
        return expression_generator(text, domain)


def _auto_domain(points, rho: Generator) -> Interval:
    lo, hi = min(points), max(points)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    if lo > 0.0:
        cand = Interval(lo / 4.0, hi * 4.0)
    else:
        span = hi - lo
        cand = Interval(lo - 2.0 * span - 1.0, hi + 2.0 * span + 1.0)
    return cand.intersect(rho.domain)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv_rows(path: str) -> tuple[list[float], list[float] | None]:
    values: list[float] = []
    weights: list[float] = []
    saw_weights = False
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        values.append(float(parts[0]))
        if len(parts) > 1 and parts[1] != "":
            weights.append(float(parts[1]))
            saw_weights = True
        else:
            weights.append(1.0)
    if not values:
        raise ConfigError(f"no data rows in {path!r}")
    return values, (weights if saw_weights else None)


def _normalize_weights(weights: list[float], warnings_out: list[str]) -> list[float]:
    total = math.fsum(weights)
    if total <= 0.0:
        raise ConfigError("weights must have a positive sum")
    if abs(total - 1.0) > TOLERANCES["weight_sum_tol"]:
        warnings_out.append(f"weights summed to {total!r}; normalized to 1")
    return [w / total for w in weights]


def load_points(path: str, warnings_out: list[str]) -> WeightedSet:
    """Weighted point set from CSV (value[,weight] rows) or JSON."""
    if path.endswith(".json"):
        doc = _load_json(path)
        if isinstance(doc, list):
            pts = [float(v) for v in doc]
            return WeightedSet.uniform(pts)
        pts = [float(v) for v in doc["points"]]
        wts = doc.get("weights")
        if wts is None:
            return WeightedSet.uniform(pts)
        return WeightedSet(tuple(pts), tuple(_normalize_weights([float(w) for w in wts], warnings_out)))
    values, weights = _read_csv_rows(path)
    if weights is None:
        return WeightedSet.uniform(values)
    return WeightedSet(tuple(values), tuple(_normalize_weights(weights, warnings_out)))


def load_distribution(path: str, cfg: QuadratureConfig, warnings_out: list[str]):
    """Distribution from a JSON file: discrete, cauchy, or grid; CSV rows are
    treated as a value grid with optional masses."""
    if path.endswith(".json"):
        doc = _load_json(path)
        kind = doc.get("type")
        if kind == "discrete":
            return bh.DiscreteDist(tuple(float(v) for v in doc["masses"]))
        if kind == "cauchy":
            return bh.cauchy_density(float(doc["scale"]), cfg)
        if kind == "grid":
            ps = _normalize_weights([float(v) for v in doc["ps"]], warnings_out)
            return bh.DiscreteDist(tuple(ps), values=tuple(float(v) for v in doc["xs"]))
        raise ConfigError(f"unknown distribution type {kind!r} in {path!r}")
    values, weights = _read_csv_rows(path)
    masses = _normalize_weights(weights if weights is not None else [1.0] * len(values), warnings_out)
    return bh.DiscreteDist(tuple(masses), values=tuple(values))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cdt", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", default="json", choices=("json", "csv", "plain"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--quad-tol", type=float, default=1e-9)
        p.add_argument("--quad-rule", default="adaptive_simpson", choices=("adaptive_simpson", "gauss_legendre"))
        p.add_argument("--quad-nodes", type=int, default=64)

    p = sub.add_parser("mean", help="weighted mean of values")
    p.add_argument("--spec", required=True, help="mean spec string, e.g. qa:log or power:2")
    p.add_argument("--data", help="CSV/JSON file with values and optional weights")
    p.add_argument("--weights", help="comma-separated weights for positional values")
    p.add_argument("values", nargs="*", type=float)
    common(p)

    p = sub.add_parser("div", help="two-point divergences")
    p.add_argument("kind", choices=("jensen", "skew", "bregman", "omega", "lehmer-bregman", "jensen-bregman"))
    p.add_argument("--F", required=True, help="generator function expression, e.g. 'x^2'")
    p.add_argument("--M", help="domain-side mean spec (jensen/skew/omega)")
    p.add_argument("--N", help="codomain-side mean spec (jensen/skew/omega)")
    p.add_argument("--rho", default="identity", help="domain-side generator (bregman forms)")
    p.add_argument("--tau", default="identity", help="codomain-side generator (bregman forms)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--extended", action="store_true", help="allow alpha outside (0,1) for skew")
    p.add_argument("--omega", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--delta2", type=float)
    p.add_argument("--domain", help="lo:hi domain for F (default: auto around inputs)")
    p.add_argument("p", type=float)
    p.add_argument("q", type=float)
    common(p)

    p = sub.add_parser("diversity", help="Jensen diversity of a weighted set")
    p.add_argument("--F", required=True)
    p.add_argument("--M", required=True)
    p.add_argument("--N", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--domain")
    common(p)

    p = sub.add_parser("bhat", help="comparative-mean Bhattacharyya distance")
    p.add_argument("--M")
    p.add_argument("--N", default="qa:identity")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta1", type=float)
    p.add_argument("--delta2", type=float)
    p.add_argument("--p", dest="p_path", required=True)
    p.add_argument("--q", dest="q_path", required=True)
    p.add_argument("--coefficient", action="store_true", help="report the affinity coefficient of --M only")
    common(p)

    p = sub.add_parser("alpha-div", help="alpha-divergence of two distributions")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", dest="p_path", required=True)
    p.add_argument("--q", dest="q_path", required=True)
    common(p)

    p = sub.add_parser("expect", help="quasi-arithmetic expected value")
    p.add_argument("--f", required=True, help="generator name or expression")
    p.add_argument("--data", required=True)
    p.add_argument("--normalize", action="store_true")
    common(p)

    p = sub.add_parser("centroid", help="closed-form Bregman centroid")
    p.add_argument("--F", required=True)
    p.add_argument("--rho", default="identity")
    p.add_argument("--tau", default="identity")
    p.add_argument("--data", required=True)
    p.add_argument("--domain")
    common(p)

    p = sub.add_parser("cluster", help="k-means clustering under a Bregman divergence")
    p.add_argument("--F", required=True)
    p.add_argument("--rho", default="identity")
    p.add_argument("--tau", default="identity")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--domain")
    common(p)

    p = sub.add_parser("check-convexity", help="sampled (M,N)-convexity verdict")
    p.add_argument("--F", required=True)
    p.add_argument("--rho", default="identity")
    p.add_argument("--tau", default="identity")
    p.add_argument("--domain", required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    common(p)

    p = sub.add_parser("dominates", help="sampled dominance comparison of two means")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--samples", type=int, default=10_000)
    common(p)

    return parser


def config_from_argv(argv: list[str]) -> RunConfig:
    ns = build_parser().parse_args(argv)
    opt = vars(ns).copy()
    sub = opt.pop("subcommand")
    fmt = opt.pop("format")
    seed = opt.pop("seed")
    env_seed = os.environ.get("CDT_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"bad CDT_SEED {env_seed!r}") from exc
    quad = QuadratureConfig(
        rule=opt.pop("quad_rule"),
        nodes=opt.pop("quad_nodes"),
        abs_tol=opt.pop("quad_tol"),
    )
    return RunConfig(sub, opt, tuple(argv), seed=seed, fmt=fmt, quadrature=quad).validate()


def _build_F(cfg: RunConfig, rho: Generator, anchor_points) -> "FunctionModel":
    opt = cfg.options
    if opt.get("domain"):
        dom = _parse_domain(opt["domain"])
    else:
        dom = _auto_domain(anchor_points, rho)
    return expression_model(opt["F"], dom)


def dispatch(cfg: RunConfig) -> tuple[int, dict]:
    """Run the configured operation; returns (exit_code, payload)."""
    caught: list[str] = []
    payload: dict = {}
    try:
        with warnings.catch_warnings(record=True) as wrec:
            warnings.simplefilter("always")
            payload = _run(cfg, caught)
        caught.extend(str(w.message) for w in wrec)
    except ConfigError as exc:
        return 2, {"error": {"type": type(exc).__name__, "message": str(exc)}}
    except CdtError as exc:
        return 3, {"error": {"type": type(exc).__name__, "message": str(exc)}}
    payload.setdefault("warnings", [])
    payload["warnings"] = caught + payload["warnings"]
    payload["provenance"] = {
        "argv": list(cfg.argv),
        "subcommand": cfg.subcommand,
        "seed": cfg.seed,
        "tolerances": dict(TOLERANCES, quad_abs_tol=cfg.quadrature.abs_tol),
    }
    return 0, payload


def _run(cfg: RunConfig, caught: list[str]) -> dict:
    opt = cfg.options
    sub = cfg.subcommand

    if sub == "mean":
        spec = parse_mean(opt["spec"])
        if opt.get("data"):
            wset = load_points(opt["data"], caught)
            values, wts = list(wset.points), list(wset.weights)
        else:
            values = [float(v) for v in opt["values"]]
            if not values:
                raise ConfigError("mean needs positional values or --data")
            if opt.get("weights"):
                wts = _normalize_weights([float(w) for w in opt["weights"].split(",")], caught)
            else:
                wts = [1.0 / len(values)] * len(values)
        return {"value": weighted_mean(spec, values, wts)}

    if sub == "div":
        return _run_div(cfg, caught)

    if sub == "diversity":
        wset = load_points(opt["data"], caught)
        M = parse_mean(opt["M"])
        N = parse_mean(opt["N"])
        rho = M.generator if M.family == "quasi_arithmetic" else get_generator("identity")
        F = _build_F(cfg, rho, wset.points)
        return {"value": jensen_diversity(F, M, N, wset, seed=cfg.seed)}

    if sub == "bhat":
        p = load_distribution(opt["p_path"], cfg.quadrature, caught)
        q = load_distribution(opt["q_path"], cfg.quadrature, caught)
        alpha = opt["alpha"]
        if opt.get("delta1") is not None:
            return {"value": bh.power_cmbd(opt["delta1"], opt["delta2"], alpha, p, q)}
        M = parse_mean(opt["M"])
        if opt.get("coefficient"):
            return {"value": bh.bhat_coefficient(M, alpha, p, q)}
        N = parse_mean(opt["N"])
        value = bh.cmbd(M, N, alpha, p, q, seed=cfg.seed)
        return {"value": float(value)}

    if sub == "alpha-div":
        p = load_distribution(opt["p_path"], cfg.quadrature, caught)
        q = load_distribution(opt["q_path"], cfg.quadrature, caught)
        return {"value": bh.alpha_divergence(opt["alpha"], p, q)}

    if sub == "expect":
        dist = load_distribution(opt["data"], cfg.quadrature, caught)
        gen = _generator_arg(opt["f"])
        return {"value": qa_expected_value(gen, dist, normalize=opt.get("normalize", False))}

    if sub in ("centroid", "cluster"):
        wset = load_points(opt["data"], caught)
        rho = _generator_arg(opt["rho"])
        tau = _generator_arg(opt["tau"])
        F = _build_F(cfg, rho, wset.points)
        spec = QabdSpec(F, rho, tau, seed=cfg.seed)
        if sub == "centroid":
            return {"value": bregman_centroid(spec, wset)}
        result = kmeans_cluster(spec, wset, opt["k"], seed=cfg.seed)
        return {
            "value": result.objective,
            "centers": list(result.centers),
            "assignments": list(result.assignments),
            "objective": result.objective,
            "iterations": result.iterations,
        }

    if sub == "check-convexity":
        dom = _parse_domain(opt["domain"])
        rho = _generator_arg(opt["rho"], dom)
        tau = _generator_arg(opt["tau"])
        F = expression_model(opt["F"], dom)
        rep = is_mn_convex(F, rho, tau, grid=opt["grid"], seed=cfg.seed)
        out = {"value": None, "verdict": rep.verdict.value}
        if rep.witness is not None:
            out["witness"] = list(rep.witness)
        return out

    if sub == "dominates":
        dom = _parse_domain(opt["domain"])
        res = dominates(
            parse_mean(opt["a"]), parse_mean(opt["b"]), (dom.lo, dom.hi),
            samples=opt["samples"], seed=cfg.seed,
        )
        out = {"value": None, "verdict": res.verdict.value}
        if res.above is not None:
            out["counterexample_above"] = list(res.above)
        if res.below is not None:
            out["counterexample_below"] = list(res.below)
        return out

    raise ConfigError(f"unknown subcommand {sub!r}")  # pragma: no cover


def _run_div(cfg: RunConfig, caught: list[str]) -> dict:
    opt = cfg.options
    kind = opt["kind"]
    p, q = float(opt["p"]), float(opt["q"])

    if kind in ("bregman", "jensen-bregman"):
        rho = _generator_arg(opt["rho"])
        tau = _generator_arg(opt["tau"])
        F = _build_F(cfg, rho, (p, q))
        spec = QabdSpec(F, rho, tau, seed=cfg.seed)
        if kind == "bregman":
            return {"value": float(qabd(spec, p, q))}
        return {"value": jensen_bregman(spec, p, q)}

    if kind == "lehmer-bregman":
        rho = get_generator("identity")
        F = _build_F(cfg, rho, (p, q))
        return {"value": lehmer_bregman(F, opt["delta"], opt["delta2"], p, q, seed=cfg.seed)}

    M = parse_mean(opt["M"]) if opt.get("M") else parse_mean("qa:identity")
    N = parse_mean(opt["N"]) if opt.get("N") else parse_mean("qa:identity")
    rho = M.generator if M.family == "quasi_arithmetic" else get_generator("identity")
    F = _build_F(cfg, rho, (p, q))

    if kind == "jensen":
        return {"value": float(jccd(F, M, N, p, q, seed=cfg.seed))}
    if kind == "skew":
        if opt.get("alpha") is None:
            raise ConfigError("skew divergence needs --alpha")
        if opt.get("extended"):
            return {"value": extended_skew_jensen(F, opt["alpha"], p, q)}
        return {"value": float(skew_jccd(F, M, N, opt["alpha"], p, q, seed=cfg.seed))}
    if kind == "omega":
        if opt.get("omega") is None:
            raise ConfigError("omega divergence needs --omega")
        return {"value": omega_divergence(F, M, N, opt["omega"], p, q, seed=cfg.seed)}
    raise ConfigError(f"unknown div kind {kind!r}")  # pragma: no cover


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload)
    if fmt == "plain":
        if "error" in payload:
            return f"error: {payload['error']['message']}"
        if payload.get("value") is not None:
            return str(payload["value"])
        return str(payload.get("verdict", payload))
    lines = []
    for key in ("value", "verdict", "objective", "iterations"):
        if payload.get(key) is not None:
            lines.append(f"{key},{payload[key]}")
    if "error" in payload:
        lines.append(f"error,{payload['error']['message']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = config_from_argv(argv)
    except CdtError as exc:  # ConfigError, or ParamError from QuadratureConfig
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2 if isinstance(exc, ConfigError) else 3
    code, payload = dispatch(cfg)
    print(_render(payload, cfg.fmt))
    return code


def console_main() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
