"""Numerical quadrature: adaptive 7/15-point Gauss-Kronrod.

One core integrates every panel of an integral at once.  ``integrate``
splits its interval into panels (breakpoints, or a geometric ladder over
wide intervals) and hands them all to it.  The rule is the Gauss-Kronrod
pair of QUADPACK's QAG: a subinterval's Kronrod sum is accepted when it
differs from the embedded 7-point Gauss sum by at most the subinterval's
budget, else both halves are refined; every panel starts with the full
``abs_tol``, halved at each refinement.  The rule samples only interior
points, so an integrand that jumps at a panel boundary (a histogram bin
edge) is never evaluated on the far side.  The public ``gauss_kronrod`` is
``integrate`` without breakpoints.

Work waits on one last-in-first-out stack of groups: subintervals of one
depth, across panels, in panel order.  Each integrand call evaluates the
15 Kronrod nodes of at most ``_MAX_ACTIVE`` subintervals of the group on
top, its lowest first; the rest of the group goes back on the stack under
the halves of the subintervals that call did not accept.  So an integral
that cannot converge, on many panels or on one, holds about ``max_depth``
groups of that size, not every subinterval of a level.

The integrand is not probed: its first batch of points is evaluated on f
itself, and only an f that fails on that array (other than with a
CdtError, which passes through) or returns another shape is wrapped to be
called point by point, that batch evaluated again (``_vectorized``, which
also decides how models built from callables call them; there any failure
on its two points, a CdtError too, makes the wrapper and nothing more is
evaluated).  Bounds must be finite (ParamError), and so must every
integrand value (DomainError naming the first point that is not).
The integral is one ``math.fsum`` of every accepted contribution, over all
panels: the correctly rounded sum of the pieces, whatever the order in
which they were accepted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CdtError, DomainError, ParamError, QuadratureFailure, require_int

#: Most subintervals one integrand call evaluates.
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
    abs_tol: float = 1e-9           # per panel, halved at every refinement
    max_depth: int = 20             # refinement levels per panel

    def __post_init__(self) -> None:
        require_int(self.max_depth, "quadrature max_depth")
        if not isinstance(self.abs_tol, numbers.Real):
            raise ParamError(f"quadrature abs_tol must be a real number, got {self.abs_tol!r}")
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


def _vectorized(f: Callable, x, passing: tuple = ()) -> tuple[Callable, np.ndarray | None]:
    """f and its values at the points x, if one call maps x to an array of
    x's shape; else f wrapped to be called point by point, and None, having
    evaluated nothing more.  An exception of f's other than the ``passing``
    types makes the wrapper: a model's build, whose points only choose how f
    is called, takes any failure for a callable of floats, while an
    integral's first batch lets a CdtError, f's own account of its points,
    pass through."""
    x = np.asarray(x, dtype=float)
    try:
        with np.errstate(all="ignore"):
            y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return f, y
    except passing:
        raise
    except Exception:
        pass
    return _Pointwise(f), None


def _bounds(a, b) -> tuple[float, float]:
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParamError(f"quadrature bounds must be finite, got [{a!r}, {b!r}]")
    return a, b


def _values(f: Callable, fv: Callable | None, pts: np.ndarray) -> tuple[Callable, np.ndarray]:
    """The values of fv at every point of pts, in pts' shape, and fv; on the
    first batch of an integral (fv None), fv is what ``_vectorized`` makes
    of f.  DomainError names the first point where a value is NaN or
    infinite."""
    x = pts.ravel()
    fv, y = _vectorized(f, x, CdtError) if fv is None else (fv, None)
    if y is None:
        y = np.asarray(fv(x), dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"integrand is {float(y[i])!r} at x = {float(x[i])!r}")
    return fv, y.reshape(pts.shape)


def gauss_kronrod(
    f: Callable, a: float, b: float, abs_tol: float = 1e-9, max_depth: int = 20
) -> float:
    """Adaptive 7/15-point Gauss-Kronrod integral of f over [a, b]:
    ``integrate`` with that ``abs_tol`` and ``max_depth`` and no breakpoints.

    Raises QuadratureFailure when a subinterval still exceeds its local error
    budget after ``max_depth`` refinement levels, and ParamError for a bound
    that is not finite or an ``abs_tol`` or ``max_depth`` that
    ``QuadratureConfig`` rejects.
    """
    return integrate(f, a, b, QuadratureConfig(abs_tol=abs_tol, max_depth=max_depth))


def _kronrod(f: Callable, a: np.ndarray, b: np.ndarray, abs_tol: float, max_depth: int) -> float:
    """Adaptive Gauss-Kronrod integral over the panels [a[i], b[i]], a < b:
    one ``math.fsum`` of the accepted Kronrod sums of every panel.

    A group holds subintervals of one depth in panel order: their ends and
    panels.  The stack starts with every panel in one group at depth 0.
    Each call of f evaluates the lowest ``_MAX_ACTIVE`` subintervals of the
    group on top, and pushes the rest of that group and then the halves of
    the subintervals it did not accept, each pair side by side.  The first
    call decides how f is called from then on.
    """
    fv = None  # f, or f point by point
    stack = [(0, float(abs_tol), a, b, np.arange(len(a)))]  # (depth, error budget, lo, hi, pan)
    values: list[np.ndarray] = []
    while stack:
        depth, tol, lo, hi, pan = stack.pop()
        if len(pan) > _MAX_ACTIVE:
            stack.append((depth, tol, lo[_MAX_ACTIVE:], hi[_MAX_ACTIVE:], pan[_MAX_ACTIVE:]))
            lo, hi, pan = lo[:_MAX_ACTIVE], hi[:_MAX_ACTIVE], pan[:_MAX_ACTIVE]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fv, fx = _values(f, fv, mid[:, None] + half[:, None] * _XK)
        kronrod = half * (fx * _WK).sum(axis=1)
        err = np.abs(kronrod - half * (fx[:, 1::2] * _WG).sum(axis=1))
        done = err <= tol
        values.append(kronrod[done])
        if done.all():
            continue
        k = ~done
        if depth == max_depth:
            raise _failure(a, b, lo[k], hi[k], pan[k], err[k] / tol, depth)
        lo, mid, hi = lo[k], mid[k], hi[k]
        stack.append((depth + 1, 0.5 * tol, np.column_stack((lo, mid)).ravel(),
                      np.column_stack((mid, hi)).ravel(), np.repeat(pan[k], 2)))
    return math.fsum(np.concatenate(values).tolist())


def _failure(a, b, lo, hi, pan, ratio, depth) -> QuadratureFailure:
    """QuadratureFailure naming, of the subintervals of the last integrand
    call, the one whose error most exceeds its budget."""
    i = int(np.argmax(ratio))
    p = int(pan[i])
    return QuadratureFailure(
        f"adaptive Gauss-Kronrod exceeded {depth} refinement levels: {len(lo)} subintervals of the "
        f"last integrand call are still over their error budget; the worst, [{float(lo[i])!r}, {float(hi[i])!r}] "
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
    """Integrate f over [lo, hi], splitting at the given interior breakpoints.

    f may map an array of points to an array of values, or take one float;
    the first batch of points tells which (see ``_vectorized``).  An empty
    interval gives 0.0 without calling f.
    """
    lo, hi = _bounds(lo, hi)
    if hi <= lo:
        return -integrate(f, hi, lo, cfg, breakpoints) if hi < lo else 0.0
    brk = np.asarray(breakpoints, dtype=float)
    edges = np.concatenate(([lo], np.unique(brk[(lo < brk) & (brk < hi)]), [hi]))
    if len(edges) == 2 and (hi - lo) > 1e4 * max(1.0, abs(lo + hi)):
        edges = np.array(ladder_breakpoints(lo, hi, 0.0, max(1.0, abs(lo + hi) * 0.5)))
    return _kronrod(f, edges[:-1], edges[1:], cfg.abs_tol, cfg.max_depth)
