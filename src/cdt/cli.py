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
import contextlib
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from . import divergences as dv
from .convexity import CONVEXITY_RTOL, DEFAULT_GRID, FunctionModel, is_mn_convex
from .divergences import ZERO_FLOOR, QabdSpec, WeightedSet
from .errors import CdtError, ConfigError, ParamError, WeightError
from .generators import IDENTITY, Generator, Interval, get_generator
from .means import WEIGHT_SUM_TOL, MeanSpec, dominates, parse_mean, weighted_mean
from .quadrature import QuadratureConfig

# A process runs one subcommand, so the layers that only some subcommands
# use (bhattacharyya, centroids, expectations, expr) are imported where they
# are called: a process imports, and without cached bytecode compiles, only
# the layers its subcommand runs.

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
        if self.seed < 0:  # --seed and CDT_SEED are integers already
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        opt = self.options
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
        if opt.get("kind") == "lehmer-bregman" and None in (opt["delta"], opt["delta2"]):
            raise ConfigError("lehmer-bregman needs --delta and --delta2")
        if self.subcommand == "bhat":
            has_power = opt.get("delta1") is not None or opt.get("delta2") is not None
            has_means = opt.get("M") is not None
            if has_power and has_means:
                raise ConfigError("choose either --M/--N or --delta1/--delta2, not both")
            if not has_power and not has_means:
                raise ConfigError("bhat needs --M/--N or --delta1/--delta2")
            if has_power and None in (opt.get("delta1"), opt.get("delta2")):
                raise ConfigError("bhat needs both --delta1 and --delta2")
        return self


@contextlib.contextmanager
def _reading(path: str):
    """Reraise a missing, unreadable or malformed input file as ConfigError
    naming it; toolkit errors pass through."""
    try:
        yield
    except CdtError:
        raise
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror}") from exc
    except KeyError as exc:
        raise ConfigError(f"{path!r} has no {exc.args[0]!r} entry") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed {path!r}: {exc}") from exc


def _read_rows(path: str) -> tuple[list[float], list[float] | None]:
    """Values and weights (None if no row has one) from CSV value[,weight]
    rows, a JSON list of values or a JSON {"points": [...], "weights": [...]}."""
    with _reading(path):
        text = Path(path).read_text(encoding="utf-8")
        if path.endswith(".json"):
            doc = json.loads(text)
            if isinstance(doc, list):
                return [float(v) for v in doc], None
            wts = doc.get("weights")
            return [float(v) for v in doc["points"]], (None if wts is None else [float(w) for w in wts])
        rows = [line.strip() for line in text.splitlines()]
        rows = [[p.strip() for p in line.split(",")] + [""] for line in rows if line and not line.startswith("#")]
        if not rows:
            raise ConfigError(f"no data rows in {path!r}")
        weights = [float(r[1] or 1.0) for r in rows]  # a row without a weight weighs 1
        return [float(r[0]) for r in rows], (weights if any(r[1] for r in rows) else None)


def _normalize_weights(weights: list[float], warnings_out: list[str]) -> list[float]:
    bad = next((i for i, w in enumerate(weights) if not math.isfinite(w)), None)
    if bad is not None:
        raise WeightError(f"weights must be finite; weight {bad} is {weights[bad]!r}")
    total = math.fsum(weights)
    if total <= 0.0:
        raise ConfigError("weights must have a positive sum")
    if abs(total - 1.0) > TOLERANCES["weight_sum_tol"]:
        warnings_out.append(f"weights summed to {total!r}; normalized to 1")
    return [w / total for w in weights]


def load_points(path: str, warnings_out: list[str]) -> WeightedSet:
    """Weighted point set from CSV (value[,weight] rows) or JSON."""
    values, weights = _read_rows(path)
    if weights is None:
        return WeightedSet.uniform(values)
    return WeightedSet(tuple(values), tuple(_normalize_weights(weights, warnings_out)))


def load_distribution(path: str, cfg: QuadratureConfig, warnings_out: list[str]):
    """Distribution from a JSON file: discrete, cauchy, or grid; CSV rows are
    treated as a value grid with optional masses."""
    from . import bhattacharyya as bh

    if not path.endswith(".json"):
        values, weights = _read_rows(path)
        masses = _normalize_weights(weights or [1.0] * len(values), warnings_out)
        return bh.DiscreteDist(tuple(masses), values=tuple(values))
    with _reading(path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        kind = doc.get("type")
        if kind == "discrete":
            return bh.DiscreteDist(tuple(float(v) for v in doc["masses"]))
        if kind == "cauchy":
            return bh.cauchy_density(float(doc["scale"]), cfg)
        if kind == "grid":
            ps = _normalize_weights([float(v) for v in doc["ps"]], warnings_out)
            return bh.DiscreteDist(tuple(ps), values=tuple(float(v) for v in doc["xs"]))
    raise ConfigError(f"unknown distribution type {kind!r} in {path!r}")


#: Options that several subcommands take, each declared once.
_SHARED = {
    "--F": dict(required=True, help="generator function: an expression in x, e.g. 'x^2'"),
    "--rho": dict(default="identity", help="domain-side generator: a name or an expression in x"),
    "--tau": dict(default="identity", help="codomain-side generator: a name or a built-in expression form"),
    "--M": dict(help="domain-side mean spec, e.g. qa:log"),
    "--N": dict(help="codomain-side mean spec, e.g. qa:identity"),
    "--alpha": dict(type=float, required=True),
    "--domain": dict(help="lo:hi domain of F and of an expression --rho (default: around the inputs)"),
    "--data": dict(required=True, help="CSV of value[,weight] rows, or JSON"),
    "--p": dict(dest="p_path", required=True, help="first distribution file"),
    "--q": dict(dest="q_path", required=True, help="second distribution file"),
}


def _add_shared(p: argparse.ArgumentParser, *flags: str, **overrides) -> None:
    for flag in flags:
        p.add_argument(flag, **{**_SHARED[flag], **overrides})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cdt", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default="json", choices=("json", "csv", "plain"))
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--quad-tol", type=float, default=1e-9,
                        help="error budget of adaptive 7/15-point Gauss-Kronrod quadrature per panel "
                        "of a density integral, halved at every refinement")

    def command(name: str, help: str, *shared: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[common])
        _add_shared(p, *shared)
        return p

    p = command("mean", "weighted mean of values")
    _add_shared(p, "--data", required=False)
    p.add_argument("--spec", required=True, help="mean spec string, e.g. qa:log or power:2")
    p.add_argument("--weights", help="comma-separated weights for positional values")
    p.add_argument("values", nargs="*", type=float)

    p = command("div", "two-point divergences", "--F", "--rho", "--tau", "--domain")
    _add_shared(p, "--M", "--N", default="qa:identity")
    p.add_argument("kind", choices=("jensen", "skew", "bregman", "omega", "lehmer-bregman", "jensen-bregman"))
    _add_shared(p, "--alpha", required=False)
    p.add_argument("--extended", action="store_true", help="allow alpha outside (0,1) for skew")
    p.add_argument("--omega", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--delta2", type=float)
    p.add_argument("p", type=float)
    p.add_argument("q", type=float)

    p = command("diversity", "Jensen diversity of a weighted set", "--F", "--data", "--domain")
    _add_shared(p, "--M", "--N", required=True)

    p = command("bhat", "comparative-mean Bhattacharyya distance", "--p", "--q", "--alpha", "--M")
    _add_shared(p, "--N", default="qa:identity")
    p.add_argument("--delta1", type=float)
    p.add_argument("--delta2", type=float)
    p.add_argument("--coefficient", action="store_true", help="report the affinity coefficient of --M only")

    command("alpha-div", "alpha-divergence of two distributions", "--p", "--q", "--alpha")

    p = command("expect", "quasi-arithmetic expected value", "--data")
    p.add_argument("--f", required=True, help="generator name or expression")
    p.add_argument("--normalize", action="store_true")

    command("centroid", "closed-form Bregman centroid", "--F", "--rho", "--tau", "--data", "--domain")

    p = command("cluster", "k-means clustering under a Bregman divergence",
                "--F", "--rho", "--tau", "--data", "--domain")
    p.add_argument("--k", type=int, required=True)

    p = command("check-convexity", "sampled (M,N)-convexity verdict", "--F", "--rho", "--tau")
    _add_shared(p, "--domain", required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)

    p = command("dominates", "sampled dominance comparison of two means")
    _add_shared(p, "--domain", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--samples", type=int, default=10_000)

    return parser


def config_from_argv(argv: list[str]) -> RunConfig:
    opt = vars(build_parser().parse_args(argv))
    sub = opt.pop("subcommand")
    fmt = opt.pop("format")
    seed = opt.pop("seed")
    env_seed = os.environ.get("CDT_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"bad CDT_SEED {env_seed!r}") from exc
    quad = QuadratureConfig(abs_tol=opt.pop("quad_tol"))
    return RunConfig(sub, opt, tuple(argv), seed=seed, fmt=fmt, quadrature=quad).validate()


def _domain(opt: dict, anchors=(), rho: Generator = IDENTITY) -> Interval:
    """--domain (lo:hi); when it is empty or not given, a window around the
    anchor points inside rho's domain."""
    text = opt.get("domain")
    if not text and anchors:
        lo, hi = min(anchors), max(anchors)
        if lo == hi:
            lo, hi = lo - 1.0, hi + 1.0
        if lo > 0.0:
            return Interval(lo / 4.0, hi * 4.0).intersect(rho.domain)
        span = hi - lo
        return Interval(lo - 2.0 * span - 1.0, hi + 2.0 * span + 1.0).intersect(rho.domain)
    try:
        lo, hi = text.split(":")
        return Interval(float(lo), float(hi))
    except ValueError as exc:
        raise ConfigError(f"bad domain {text!r}, expected lo:hi") from exc


def _generator(text: str, domain: Interval | None = None) -> Generator:
    """A generator option: a built-in name, else an expression in x."""
    try:
        return get_generator(text)
    except ParamError:
        from .expr import expression_generator

        return expression_generator(text, domain)


def _model(opt: dict, anchors=(), rho: Generator = IDENTITY) -> FunctionModel:
    """--F on its domain (see _domain)."""
    from .expr import expression_model

    return expression_model(opt["F"], _domain(opt, anchors, rho))


def _triple(opt: dict, anchors=()) -> tuple[FunctionModel, Generator, Generator]:
    """(F, rho, tau) of --F, --rho and --tau; an expression --rho is built on --domain."""
    rho = _generator(opt["rho"], _domain(opt) if opt.get("domain") else None)
    tau = _generator(opt["tau"])
    return _model(opt, anchors, rho), rho, tau


def _mean_triple(opt: dict, anchors) -> tuple[FunctionModel, MeanSpec, MeanSpec]:
    """(F, M, N) of --F, --M and --N; rho is the generator of a quasi-arithmetic M."""
    M, N = parse_mean(opt["M"]), parse_mean(opt["N"])
    rho = M.generator if M.family == "quasi_arithmetic" else IDENTITY
    return _model(opt, anchors, rho), M, N


def _error(exc: CdtError) -> tuple[int, dict]:
    """Exit code (2 for ConfigError, else 3) and error payload of ``exc``."""
    code = 2 if isinstance(exc, ConfigError) else 3
    return code, {"error": {"type": type(exc).__name__, "message": str(exc)}}


def dispatch(cfg: RunConfig) -> tuple[int, dict]:
    """Run the configured operation; returns (exit_code, payload)."""
    caught: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as wrec:
            warnings.simplefilter("always")
            payload = _run(cfg, caught)
        caught.extend(str(w.message) for w in wrec)
    except CdtError as exc:
        return _error(exc)
    payload["warnings"] = caught
    payload["provenance"] = {
        "argv": list(cfg.argv),
        "subcommand": cfg.subcommand,
        "seed": cfg.seed,
        "tolerances": dict(TOLERANCES, quad_abs_tol=cfg.quadrature.abs_tol),
    }
    return 0, payload


def _run(cfg: RunConfig, caught: list[str]) -> dict:
    opt, sub, seed = cfg.options, cfg.subcommand, cfg.seed

    if sub == "mean":
        spec = parse_mean(opt["spec"])
        if opt["data"]:
            wset = load_points(opt["data"], caught)
            return {"value": weighted_mean(spec, wset.points, wset.weights)}
        values = opt["values"]
        if not values:
            raise ConfigError("mean needs positional values or --data")
        if opt["weights"]:
            with _reading("--weights"):
                wts = [float(w) for w in opt["weights"].split(",")]
            wts = _normalize_weights(wts, caught)
        else:
            wts = [1.0 / len(values)] * len(values)
        return {"value": weighted_mean(spec, values, wts)}

    if sub == "div":
        p, q, kind = opt["p"], opt["q"], opt["kind"]
        if kind in ("bregman", "jensen-bregman"):
            spec = QabdSpec(*_triple(opt, (p, q)), seed=seed)
            return {"value": float(dv.qabd(spec, p, q)) if kind == "bregman" else dv.jensen_bregman(spec, p, q)}
        if kind == "lehmer-bregman":
            F = _model(opt, (p, q))
            return {"value": dv.lehmer_bregman(F, opt["delta"], opt["delta2"], p, q, seed=seed)}
        F, M, N = _mean_triple(opt, (p, q))
        if kind == "jensen":
            return {"value": float(dv.jccd(F, M, N, p, q, seed=seed))}
        if kind == "skew":
            if opt["alpha"] is None:
                raise ConfigError("skew divergence needs --alpha")
            if opt["extended"]:
                return {"value": dv.extended_skew_jensen(F, opt["alpha"], p, q)}
            return {"value": float(dv.skew_jccd(F, M, N, opt["alpha"], p, q, seed=seed))}
        if opt["omega"] is None:
            raise ConfigError("omega divergence needs --omega")
        return {"value": dv.omega_divergence(F, M, N, opt["omega"], p, q, seed=seed)}

    if sub == "diversity":
        wset = load_points(opt["data"], caught)
        F, M, N = _mean_triple(opt, wset.points)
        return {"value": dv.jensen_diversity(F, M, N, wset, seed=seed)}

    if sub in ("bhat", "alpha-div"):
        from . import bhattacharyya as bh

        p = load_distribution(opt["p_path"], cfg.quadrature, caught)
        q = load_distribution(opt["q_path"], cfg.quadrature, caught)
        alpha = opt["alpha"]
        if sub == "alpha-div":
            return {"value": bh.alpha_divergence(alpha, p, q)}
        if opt["delta1"] is not None:
            return {"value": bh.power_cmbd(opt["delta1"], opt["delta2"], alpha, p, q)}
        M = parse_mean(opt["M"])
        if opt["coefficient"]:
            return {"value": bh.bhat_coefficient(M, alpha, p, q)}
        return {"value": float(bh.cmbd(M, parse_mean(opt["N"]), alpha, p, q, seed=seed))}

    if sub == "expect":
        from .expectations import qa_expected_value

        dist = load_distribution(opt["data"], cfg.quadrature, caught)
        return {"value": qa_expected_value(_generator(opt["f"]), dist, normalize=opt["normalize"])}

    if sub in ("centroid", "cluster"):
        from .centroids import bregman_centroid, kmeans_cluster

        wset = load_points(opt["data"], caught)
        spec = QabdSpec(*_triple(opt, wset.points), seed=seed)
        if sub == "centroid":
            return {"value": bregman_centroid(spec, wset)}
        result = kmeans_cluster(spec, wset, opt["k"], seed=seed)
        return {
            "value": result.objective,
            "centers": list(result.centers),
            "assignments": list(result.assignments),
            "objective": result.objective,
            "iterations": result.iterations,
        }

    if sub == "check-convexity":
        rep = is_mn_convex(*_triple(opt), grid=opt["grid"], seed=seed)
        return _verdict(rep.verdict, witness=rep.witness)

    # dominates
    dom = _domain(opt)
    res = dominates(parse_mean(opt["a"]), parse_mean(opt["b"]), (dom.lo, dom.hi), samples=opt["samples"], seed=seed)
    return _verdict(res.verdict, counterexample_above=res.above, counterexample_below=res.below)


def _verdict(verdict, **evidence) -> dict:
    """Payload of a sampled verdict with the evidence that was found."""
    return {"value": None, "verdict": verdict.value, **{k: list(v) for k, v in evidence.items() if v is not None}}


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload)
    if fmt == "plain":
        if "error" in payload:
            return f"error: {payload['error']['message']}"
        if payload.get("value") is not None:
            return str(payload["value"])
        return str(payload.get("verdict", payload))
    lines = [f"{key},{payload[key]}" for key in ("value", "verdict", "objective", "iterations")
             if payload.get(key) is not None]
    if "error" in payload:
        lines.append(f"error,{payload['error']['message']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    fmt = "json"  # until the options are parsed
    try:
        cfg = config_from_argv(argv)
        fmt = cfg.fmt
        code, payload = dispatch(cfg)
    except CdtError as exc:  # ConfigError, or ParamError from QuadratureConfig
        code, payload = _error(exc)
    print(_render(payload, fmt))
    return code


def console_main() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
