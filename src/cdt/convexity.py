"""(M,N)-convexity certificates via reduction to ordinary convexity.

A function F is (M_rho, M_tau)-convex (for strictly increasing generators)
exactly when G = tau . F . rho^{-1} is ordinary convex on rho(I).  Verdicts
here are sampling-based falsification, never proofs.  Every certificate
(:func:`is_mn_convex` here, ``divergences.midpoint_verdict`` for arbitrary
means) reduces its samples to normalized gaps and classifies them with one
rule: NOT_CONVEX when some gap is below -CONVEXITY_RTOL, otherwise CONVEX
when some gap is above CONVEXITY_RTOL, otherwise AFFINE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError, OrderError
from .generators import Generator, Interval, _limit_value, finite_difference

#: Default number of grid points for convexity scans.
DEFAULT_GRID = 257

#: Relative tolerance separating strictly convex / affine / concave evidence.
CONVEXITY_RTOL = 1e-9


class Verdict(Enum):
    CONVEX = "convex"
    AFFINE = "affine"
    NOT_CONVEX = "not_convex"


@dataclass(frozen=True)
class ConvexityReport:
    verdict: Verdict
    #: worst witness of a NOT_CONVEX verdict, in original coordinates: from
    #: is_mn_convex a grid triple (x0, x1, x2) for a failed second difference
    #: or (p, q, midpoint) for a midpoint violation; from midpoint_verdict
    #: (p, q, gap) with the unnormalized gap N(F(p), F(q)) - F(M(p, q))
    witness: tuple[float, float, float] | None = None
    #: most adverse normalized gap seen (negative values indicate concavity)
    min_gap: float = math.inf


#: Pre-certified report for internal calls that already hold a certificate.
TRUSTED_CONVEX = ConvexityReport(Verdict.CONVEX)


@dataclass(frozen=True)
class FunctionModel:
    """Scalar function with a validity interval and optional derivative."""

    id: str
    domain: Interval
    eval: Callable = None  # type: ignore[assignment]
    derivative: Callable | None = None

    def value(self, x: float) -> float:
        if not self.domain.contains(x):
            raise DomainError(f"{x!r} outside domain {self.domain} of {self.id!r}")
        try:
            with np.errstate(all="ignore"):
                v = float(self.eval(x))
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise DomainError(f"{self.id!r} failed to evaluate at {x!r}: {exc}") from exc
        if not math.isfinite(v):
            raise DomainError(f"{self.id!r} is not finite at {x!r}")
        return v

    def deriv(self, x: float) -> float:
        if self.derivative is not None:
            return float(self.derivative(x))
        return finite_difference(self.eval, x, self.domain)

    def checked(self, points: int = 33) -> "FunctionModel":
        """Verify finiteness on sampled domain points; returns self."""
        for x in self.domain.sample_grid(points):
            self.value(float(x))
        return self


def function_model(
    id: str,
    domain: Interval | tuple[float, float],
    eval: Callable,
    derivative: Callable | None = None,
) -> FunctionModel:
    if not isinstance(domain, Interval):
        domain = Interval(float(domain[0]), float(domain[1]))
    return FunctionModel(id, domain, eval, derivative).checked()


def _pullback(rho: Generator, u: float, dom: Interval) -> float:
    """rho^{-1}(u), nudged back inside ``dom`` when rounding pushed it out."""
    x = rho.inv(u)
    if dom.contains(x):
        return x
    lo, hi = dom.finite_window()
    slack = 1e-9 * max(1.0, abs(x))
    if dom.lo - slack <= x <= dom.hi + slack:
        return min(max(x, lo), hi)
    raise DomainError(f"{u!r} pulls back to {x!r}, outside {dom}")


def to_ordinary(F: FunctionModel, rho: Generator, tau: Generator) -> FunctionModel:
    """Reduce F to the ordinary-convexity candidate G(u) = tau(F(rho^{-1}(u))).

    G lives on rho(I); its derivative is composed by the chain rule
    G'(u) = tau'(F(x)) F'(x) / rho'(x) at x = rho^{-1}(u).
    """
    dom = F.domain.intersect(rho.domain)
    a, b = dom.finite_window()
    for x in (a, b, 0.5 * (a + b)):
        if not tau.domain.contains(F.value(x)):
            raise DomainError(
                f"values of {F.id!r} leave the domain of generator {tau.id!r}"
            )
    image = Interval(
        _limit_value(rho.forward, dom.lo, -1), _limit_value(rho.forward, dom.hi, +1)
    )

    def g(u: float) -> float:
        x = _pullback(rho, float(u), dom)
        return tau.value(F.value(x))

    def gprime(u: float) -> float:
        x = _pullback(rho, float(u), dom)
        return tau.deriv(F.value(x)) * F.deriv(x) / rho.deriv(x)

    name = f"{tau.id}({F.id}({rho.id}^-1))"
    return FunctionModel(name, image, g, gprime)


def _verdict(gaps: np.ndarray, witness: Callable[[int], tuple]) -> ConvexityReport:
    """The verdict rule shared by every certificate.

    ``gaps`` are normalized convexity gaps (negative values indicate
    concavity) and ``witness(i)`` describes the sample behind gap i.  Some
    gap below -CONVEXITY_RTOL gives NOT_CONVEX with the worst gap's witness;
    otherwise some gap above CONVEXITY_RTOL gives CONVEX; otherwise AFFINE.
    """
    worst = int(np.argmin(gaps))
    min_gap = float(gaps[worst])
    if min_gap < -CONVEXITY_RTOL:
        return ConvexityReport(Verdict.NOT_CONVEX, witness(worst), min_gap)
    if np.any(gaps > CONVEXITY_RTOL):
        return ConvexityReport(Verdict.CONVEX, None, min_gap)
    return ConvexityReport(Verdict.AFFINE, None, min_gap)


def is_mn_convex(
    F: FunctionModel,
    rho: Generator,
    tau: Generator,
    grid: int = DEFAULT_GRID,
    pair_samples: int = 512,
    seed: int = 0,
) -> ConvexityReport:
    """Sampled (M_rho, M_tau)-convexity verdict for F.

    Scans second divided differences of the reduced function G on a grid of
    ``grid`` points (geometric spacing on positive domains) and midpoint
    inequalities on sampled grid pairs in the original coordinates.  Both
    kinds of gap go to the one verdict rule: NOT_CONVEX when some gap is
    below -CONVEXITY_RTOL, otherwise CONVEX when some gap is above
    CONVEXITY_RTOL, otherwise AFFINE.
    """
    dom = F.domain.intersect(rho.domain)
    xs = dom.sample_grid(grid)
    fvals = np.array([F.value(float(x)) for x in xs])
    us = np.array([rho.value(float(x)) for x in xs])
    gs = np.array([tau.value(float(v)) for v in fvals])

    u0, u1, u2 = us[:-2], us[1:-1], us[2:]
    g0, g1, g2 = gs[:-2], gs[1:-1], gs[2:]
    chord = g0 + (g2 - g0) * (u1 - u0) / (u2 - u0)
    scale = np.maximum(1.0, np.maximum(np.abs(g0), np.maximum(np.abs(g1), np.abs(g2))))
    rel = (chord - g1) / scale

    rng = np.random.default_rng(seed)
    n = len(xs)
    ii = rng.integers(0, n, pair_samples)
    jj = rng.integers(0, n, pair_samples)
    pairs = [(i, j) for i, j in zip(ii, jj) if i != j]
    mids, mid_gaps = [], []
    for i, j in pairs:
        xm = _pullback(rho, float(0.5 * (us[i] + us[j])), dom)
        lhs = tau.inv(0.5 * (gs[i] + gs[j]))
        rhs = F.value(xm)
        mids.append(xm)
        mid_gaps.append((lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

    def witness(k: int) -> tuple[float, float, float]:
        if k < len(rel):
            return (float(xs[k]), float(xs[k + 1]), float(xs[k + 2]))
        i, j = pairs[k - len(rel)]
        return (float(xs[i]), float(xs[j]), mids[k - len(rel)])

    return _verdict(np.concatenate([rel, mid_gaps]), witness)


def relative_convexity_det(
    f: FunctionModel, g: FunctionModel, x: float, y: float, z: float
) -> float:
    """3x3 determinant | 1 f(.) g(.) | over rows (x, y, z).

    g is convex relative to f exactly when the determinant is nonnegative for
    every admissible triple f(x) <= f(y) <= f(z).
    """
    fx, fy, fz = f.value(x), f.value(y), f.value(z)
    slack = 1e-12 * max(1.0, abs(fx), abs(fy), abs(fz))
    if not (fx <= fy + slack and fy <= fz + slack):
        raise OrderError(f"required f(x) <= f(y) <= f(z), got {(fx, fy, fz)!r}")
    gx, gy, gz = g.value(x), g.value(y), g.value(z)
    return (fy * gz - fz * gy) - (fx * gz - fz * gx) + (fx * gy - fy * gx)


def power_convexity_transform(f: FunctionModel, delta1: float, delta2: float) -> FunctionModel:
    """Transform f into the function whose ordinary convexity characterizes
    (P_delta1, P_delta2)-convexity of f on a positive domain.

    Four branches, with a sign(delta2) factor on the power branches and log
    forms at zero exponents; the transformed domain is the image of the
    original domain under x -> x**delta1 (or log at delta1 = 0).
    """
    delta1, delta2 = float(delta1), float(delta2)
    if f.domain.lo < 0.0:
        raise DomainError("power convexity transform requires a positive domain")
    lo, hi = f.domain.lo, f.domain.hi

    def _pow_endpoint(e: float, d: float) -> float:
        if e == 0.0:
            return math.inf if d < 0 else 0.0
        if math.isinf(e):
            return 0.0 if d < 0 else math.inf
        return e**d

    if delta1 == 0.0:
        tlo = -math.inf if lo == 0.0 else math.log(lo)
        thi = math.inf if math.isinf(hi) else math.log(hi)
        tdom = Interval(tlo, thi)
        pull = lambda u: math.exp(u)
    else:
        a = _pow_endpoint(lo, delta1)
        b = _pow_endpoint(hi, delta1)
        tdom = Interval(min(a, b), max(a, b))
        pull = lambda u: u ** (1.0 / delta1)

    sign2 = 1.0 if delta2 > 0.0 else -1.0

    def transformed(u: float) -> float:
        x = pull(float(u))
        v = f.value(x)
        if delta2 == 0.0:
            if v <= 0.0:
                raise DomainError(f"{f.id!r} must be positive for the log branch")
            return math.log(v)
        if v < 0.0 and delta2 != int(delta2):
            raise DomainError(f"{f.id!r} must be nonnegative for fractional exponents")
        return sign2 * v**delta2

    name = f"{f.id}|P({delta1:g},{delta2:g})"
    return FunctionModel(name, tdom, transformed, None)
