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

from .errors import DomainError, OrderError, ParamError, require_int, require_seed
from .generators import (
    Generator, Interval, _apply, _first, _image, _memoize, _wrap_callables, finite_difference, power_generator,
)

#: Default number of grid points for convexity scans, and the number of
#: sampled grid pairs whose midpoint inequality they check.
DEFAULT_GRID = 257
PAIR_SAMPLES = 512

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
    """Real function with a validity interval and optional derivative.

    ``value`` and ``deriv`` map arrays elementwise like ``Generator.value``,
    and float-only ``eval`` and ``derivative`` are wrapped once in the same way.
    ``deriv`` (a central difference without ``derivative``) raises
    DomainError naming the first point where it is NaN.
    """

    id: str
    domain: Interval
    eval: Callable = None  # type: ignore[assignment]
    derivative: Callable | None = None

    def __post_init__(self) -> None:
        _wrap_callables(self, ("eval", "derivative"))

    def value(self, x):
        return _apply(self.eval, x, lambda: repr(self.id), self.domain, lambda v: ~np.isfinite(v))

    def deriv(self, x):
        derivative = self.derivative or (lambda v: finite_difference(self.eval, v, self.domain))
        return _apply(derivative, x, lambda: f"the derivative of {self.id!r}", None, np.isnan)

    def checked(self) -> "FunctionModel":
        """Verify finiteness on 33 sampled domain points; returns self."""
        self.value(self.domain.sample_grid(33))
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


def _nudge(x: np.ndarray, dom: Interval) -> tuple[np.ndarray, np.ndarray]:
    """x nudged back inside ``dom`` where rounding pushed it out, and the mask
    of elements too far outside (or NaN) to be rounding."""
    inside = (x > dom.lo) & (x < dom.hi)
    if inside.all():
        return x, ~inside
    slack = 1e-9 * np.maximum(1.0, np.abs(x))
    far = ~((dom.lo - slack <= x) & (x <= dom.hi + slack))
    lo, hi = dom.finite_window()
    return np.where(inside, x, np.minimum(np.maximum(x, lo), hi)), far


def _pullback(rho: Generator, u, dom: Interval) -> np.ndarray:
    """rho^{-1}(u) elementwise, nudged back inside ``dom`` where rounding
    pushed it out."""
    x = np.asarray(rho.inv(u))
    nudged, far = _nudge(x, dom)
    if far.any():
        raise DomainError(f"{_first(u, far)!r} pulls back to {_first(x, far)!r}, outside {dom}")
    return nudged


@_memoize
def to_ordinary(F: FunctionModel, rho: Generator, tau: Generator) -> FunctionModel:
    """Reduce F to the ordinary-convexity candidate G(u) = tau(F(rho^{-1}(u))).

    G lives on rho(I); its derivative is composed by the chain rule
    G'(u) = tau'(F(x)) F'(x) / rho'(x) at x = rho^{-1}(u), from checked
    calls: each names the first bad element.  No solver calls G': the
    centroids solve h = G' . rho in data coordinates instead
    (``centroids._gradient``), so G and G' serve ``qabd_conformal`` and
    ``power_convexity_transform``.

    Reductions are memoized per (F, rho, tau), up to 512 entries, so a
    repeat call returns the same object; models that do not hash are
    reduced on each call.  A callable's state is taken as fixed: after
    mutating one, build a new model.
    """
    dom = F.domain.intersect(rho.domain)
    a, b = dom.finite_window()
    vals = F.value(np.array([a, b, 0.5 * (a + b)]))
    if not np.all((vals > tau.domain.lo) & (vals < tau.domain.hi)):
        raise DomainError(f"values of {F.id!r} leave the domain of generator {tau.id!r}")
    image = _image(rho.forward, dom.lo, dom.hi)

    def g(u):
        return tau.value(F.value(_pullback(rho, u, dom)))

    def gprime(u):
        x = _pullback(rho, u, dom)
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
    seed: int = 0,
) -> ConvexityReport:
    """Sampled (M_rho, M_tau)-convexity verdict for F.

    Scans second divided differences of the reduced function G on a grid of
    ``grid`` points (geometric spacing on positive domains) and midpoint
    inequalities on PAIR_SAMPLES sampled grid pairs in the original
    coordinates.  Both kinds of gap go to the one verdict rule: NOT_CONVEX
    when some gap is below -CONVEXITY_RTOL, otherwise CONVEX when some gap
    is above CONVEXITY_RTOL, otherwise AFFINE.  A non-integer ``grid``, or
    one of fewer than 3 points (no second difference), raises ParamError, as
    does a seed that is not a nonnegative integer.

    Reports are memoized per (F, rho, tau, grid, seed), up to 512 entries;
    models that do not hash are certified on each call.  A callable's state
    is taken as fixed, so one mutated after certification keeps its cached
    report: build a new model instead.
    """
    require_int(grid, "grid")
    if grid < 3:
        raise ParamError(f"grid={grid!r}: a convexity scan needs at least 3 points")
    require_seed(seed)
    return _is_mn_convex_cached(F, rho, tau, grid, seed)


@_memoize
def _is_mn_convex_cached(F: FunctionModel, rho: Generator, tau: Generator, grid: int, seed: int) -> ConvexityReport:
    dom = F.domain.intersect(rho.domain)
    xs = dom.sample_grid(grid)
    fvals = F.value(xs)
    us = rho.value(xs)
    gs = tau.value(fvals)

    u0, u1, u2 = us[:-2], us[1:-1], us[2:]
    g0, g1, g2 = gs[:-2], gs[1:-1], gs[2:]
    chord = g0 + (g2 - g0) * (u1 - u0) / (u2 - u0)
    scale = np.maximum(1.0, np.maximum(np.abs(g0), np.maximum(np.abs(g1), np.abs(g2))))
    rel = (chord - g1) / scale

    rng = np.random.default_rng(seed)
    n = len(xs)
    ii = rng.integers(0, n, PAIR_SAMPLES)
    jj = rng.integers(0, n, PAIR_SAMPLES)
    ii, jj = ii[ii != jj], jj[ii != jj]
    mids = _pullback(rho, 0.5 * (us[ii] + us[jj]), dom)
    lhs = tau.inv(0.5 * (gs[ii] + gs[jj]))
    rhs = F.value(mids)
    mid_gaps = (lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))

    def witness(k: int) -> tuple[float, float, float]:
        if k < len(rel):
            return (float(xs[k]), float(xs[k + 1]), float(xs[k + 2]))
        k -= len(rel)
        return (float(xs[ii[k]]), float(xs[jj[k]]), float(mids[k]))

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

    This is ``to_ordinary(f, power_generator(delta1), power_generator(delta2))``,
    with its domain checks and, where f has a derivative, its exact G', in
    the coordinate u = x**delta1 (log x at delta1 = 0): for delta1 < 0 the
    increasing representative -x**delta1 is undone by u -> -u.
    """
    if f.domain.lo < 0.0:
        raise DomainError("power convexity transform requires a positive domain")
    G = to_ordinary(f, power_generator(delta1), power_generator(delta2))
    if float(delta1) >= 0.0:
        return G
    return FunctionModel(G.id, Interval(-G.domain.hi, -G.domain.lo), lambda u: G.value(-u), lambda u: -G.deriv(-u))
