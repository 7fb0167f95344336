"""Numerical quadrature: adaptive Gauss-Kronrod (default) and fixed Gauss-Legendre.

One core integrates every panel of an integral at once.  ``integrate``
splits its interval into panels (breakpoints, or a geometric ladder over
wide intervals) and hands them all to it.  Adaptive Gauss-Kronrod (the
7/15-point pair of QUADPACK's QAG) refines breadth first: each level
evaluates the 15 Kronrod nodes of every active subinterval of every panel
in one integrand call, and accepts a subinterval's Kronrod sum when it
differs from the embedded 7-point Gauss sum by at most the subinterval's
budget; every panel starts with the full ``abs_tol``, halved at each
refinement.  Gauss-Legendre evaluates nodes x panels in one call.  Both
rules sample only interior points, so an integrand that jumps at a panel
boundary (a histogram bin edge) is never evaluated on the far side.  The
public ``gauss_kronrod`` and ``gauss_legendre`` are the same core on one
panel.

Panels start in groups of at most ``_MAX_ACTIVE``.  A group whose active
subintervals outgrow that bound refines its lowest panel alone and the rest
after it, so an integral that cannot converge on many panels needs about
the memory of one.

Scalar-only callables are wrapped automatically.  Bounds must be finite
(ParamError), and so must every integrand value (DomainError naming the
first point that is not).  Accepted contributions are summed with
``math.fsum`` per panel, and the panel sums with ``math.fsum`` again;
``fsum`` is exact, so the result does not depend on the order in which
pieces are accepted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ParamError, QuadratureFailure

_RULES = ("gauss_kronrod", "gauss_legendre")

#: Most subintervals one adaptive Gauss-Kronrod level refines together,
#: unless a single panel needs more on its own.
_MAX_ACTIVE = 256

# QUADPACK's qk15 pair on [-1, 1]: the 15 Kronrod nodes in ascending order
# and their weights, and the weights of the 7 Gauss nodes, which are the
# Kronrod nodes at odd positions (each row lists the outer half inwards).
_XK = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
                0.5860872354676911, 0.4058451513773972, 0.20778495500789848])
_WK = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
                0.1690047266392679, 0.19035057806478542, 0.20443294007529889])
_WG = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189])
_XK = np.concatenate((-_XK, [0.0], _XK[::-1]))
_WK = np.concatenate((_WK, [0.20948214108472782], _WK[::-1]))
_WG = np.concatenate((_WG, [0.4179591836734694], _WG[::-1]))


@dataclass(frozen=True)
class QuadratureConfig:
    rule: str = "gauss_kronrod"     # or "gauss_legendre"
    nodes: int = 64                 # per panel, Gauss-Legendre only
    abs_tol: float = 1e-9           # per panel, halved at every refinement
    max_depth: int = 20             # refinement levels per panel

    def __post_init__(self) -> None:
        if self.rule not in _RULES:
            raise ParamError(f"quadrature rule {self.rule!r} is not one of {', '.join(_RULES)}")
        for name in ("nodes", "max_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ParamError(f"quadrature {name} must be an integer, got {value!r}")
        if not self.nodes >= 1:
            raise ParamError(f"Gauss-Legendre needs nodes >= 1, got {self.nodes!r}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ParamError(f"quadrature abs_tol must be finite and > 0, got {self.abs_tol!r}")
        if not self.max_depth >= 0:
            raise ParamError(f"quadrature max_depth must be >= 0, got {self.max_depth!r}")


@dataclass(frozen=True)
class _Pointwise:
    """f called point by point, keeping the shape; wrappers of one f are equal."""

    f: Callable

    def __call__(self, xs):
        return np.array([float(self.f(float(x))) for x in np.ravel(xs)]).reshape(np.shape(xs))


def _vectorized(f: Callable, probe=(0.5, 0.25)) -> Callable:
    """f itself if one call maps an array of points to an array of values
    (tried once, on ``probe``), else f wrapped to be called point by point."""
    probe = np.array(probe, dtype=float)
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(f(probe), dtype=float)
        if out.shape == probe.shape:
            return f
    except Exception:
        pass
    return _Pointwise(f)


def _bounds(a, b) -> tuple[float, float]:
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParamError(f"quadrature bounds must be finite, got [{a!r}, {b!r}]")
    return a, b


def _values(fv: Callable, pts: np.ndarray) -> np.ndarray:
    """fv at every point of pts, in pts' shape; DomainError names the first
    point where fv is NaN or infinite."""
    x = pts.ravel()
    y = np.asarray(fv(x), dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"integrand is {float(y[i])!r} at x = {float(x[i])!r}")
    return y.reshape(pts.shape)


def _one_panel(f: Callable, a, b, cfg: QuadratureConfig) -> float:
    a, b = _bounds(a, b)
    if b < a:
        return -_one_panel(f, b, a, cfg)
    return 0.0 if a == b else _panels(_vectorized(f), [a, b], cfg)[0]


def gauss_kronrod(
    f: Callable, a: float, b: float, abs_tol: float = 1e-9, max_depth: int = 20
) -> float:
    """Adaptive 7/15-point Gauss-Kronrod integral of f over [a, b].

    Raises QuadratureFailure when a subinterval still exceeds its local error
    budget after ``max_depth`` refinement levels, and ParamError for a bound
    that is not finite or an ``abs_tol`` or ``max_depth`` that
    ``QuadratureConfig`` rejects.
    """
    return _one_panel(f, a, b, QuadratureConfig(abs_tol=abs_tol, max_depth=max_depth))


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(f: Callable, a: float, b: float, nodes: int = 64) -> float:
    """Fixed-order Gauss-Legendre integral of f over [a, b]."""
    return _one_panel(f, a, b, QuadratureConfig(rule="gauss_legendre", nodes=nodes))


def _panels(fv: Callable, edges: Sequence[float], cfg: QuadratureConfig) -> list[float]:
    """Integrals of fv over the panels between consecutive ``edges``; fv maps
    arrays to arrays."""
    e = np.asarray(edges, dtype=float)
    a, b = e[:-1], e[1:]
    if cfg.rule == "gauss_legendre":
        x, w = _leggauss(cfg.nodes)
        half = 0.5 * (b - a)
        vals = _values(fv, 0.5 * (a + b)[:, None] + half[:, None] * x)
        # one dot per panel: a matrix product would sum in another order
        return [float(h * np.dot(w, v)) for h, v in zip(half.tolist(), vals)]
    return _kronrod(fv, a, b, cfg.abs_tol, cfg.max_depth)


def _kronrod(fv: Callable, a: np.ndarray, b: np.ndarray, abs_tol: float, max_depth: int) -> list[float]:
    """Breadth-first adaptive Gauss-Kronrod over the panels [a[i], b[i]], a < b.

    A group holds active subintervals of one depth: their ends and panels.
    Panels start in groups of at most ``_MAX_ACTIVE``, and each level
    evaluates a whole group in one call.  A group grown past that bound
    refines its lowest panel alone and the others after it, so at most one
    group waits.
    """
    queue = np.arange(len(a))  # panels not started
    groups: list[tuple] = []   # (depth, error budget, lo, hi, pan), last in first out
    values: list[np.ndarray] = []
    owners: list[np.ndarray] = []
    while groups or len(queue):
        if not groups:
            pan, queue = queue[:_MAX_ACTIVE], queue[_MAX_ACTIVE:]
            groups.append((0, float(abs_tol), a[pan], b[pan], pan))
        depth, tol, lo, hi, pan = groups.pop()
        if len(pan) > _MAX_ACTIVE and pan.min() < pan.max():
            alone = pan == pan.min()
            groups.append((depth, tol, lo[~alone], hi[~alone], pan[~alone]))
            groups.append((depth, tol, lo[alone], hi[alone], pan[alone]))
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = _values(fv, mid[:, None] + half[:, None] * _XK)
        kronrod = half * (fx * _WK).sum(axis=1)
        err = np.abs(kronrod - half * (fx[:, 1::2] * _WG).sum(axis=1))
        done = err <= tol
        values.append(kronrod[done])
        owners.append(pan[done])
        if done.all():
            continue
        k = ~done
        if depth == max_depth:
            raise _failure(a, b, lo[k], hi[k], pan[k], err[k] / tol, depth)
        lo, mid, hi, pan = lo[k], mid[k], hi[k], pan[k]
        groups.append((depth + 1, 0.5 * tol, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                       np.concatenate([pan, pan])))
    owner = np.concatenate(owners)
    ordered = np.concatenate(values)[np.argsort(owner)].tolist()
    ends = np.cumsum(np.bincount(owner, minlength=len(a))).tolist()
    return [math.fsum(ordered[i:j]) for i, j in zip([0, *ends], ends)]


def _failure(a, b, lo, hi, pan, ratio, depth) -> QuadratureFailure:
    """QuadratureFailure naming the subinterval whose error most exceeds its
    budget."""
    i = int(np.argmax(ratio))
    p = int(pan[i])
    return QuadratureFailure(
        f"adaptive Gauss-Kronrod exceeded {depth} refinement levels: {len(lo)} subintervals are "
        f"still over their error budget; the worst, [{float(lo[i])!r}, {float(hi[i])!r}] "
        f"at depth {depth} in panel [{float(a[p])!r}, {float(b[p])!r}], has "
        f"|err|/tol = {float(ratio[i]):.3g}"
    )


def ladder_breakpoints(lo: float, hi: float, center: float = 0.0, width: float = 1.0) -> tuple[float, ...]:
    """Geometric panel boundaries fanning out from ``center`` by factors of 4.

    Suited to integrands peaked near ``center`` with slowly decaying tails
    over a wide interval.
    """
    center = min(max(center, lo), hi)
    width = abs(width) or 1.0
    pts = {lo, hi, center}
    step = width
    while center - step > lo or center + step < hi:
        if center - step > lo:
            pts.add(center - step)
        if center + step < hi:
            pts.add(center + step)
        step *= 4.0
        if step > 1e300:  # pragma: no cover - defensive
            break
    return tuple(sorted(pts))


def integrate(
    f: Callable,
    lo: float,
    hi: float,
    cfg: QuadratureConfig = QuadratureConfig(),
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate f over [lo, hi], splitting at the given interior breakpoints."""
    lo, hi = _bounds(lo, hi)
    if hi < lo:
        return -integrate(f, hi, lo, cfg, breakpoints)
    brk = np.asarray(breakpoints, dtype=float)
    edges = np.concatenate(([lo], np.unique(brk[(lo < brk) & (brk < hi)]), [hi]))
    if len(edges) == 2 and (hi - lo) > 1e4 * max(1.0, abs(lo + hi)):
        edges = ladder_breakpoints(lo, hi, 0.0, max(1.0, abs(lo + hi) * 0.5))
    fv = _vectorized(f, (lo + 0.5 * (hi - lo), lo + 0.25 * (hi - lo)))
    return math.fsum(_panels(fv, edges, cfg))
