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

The core also integrates m components (``_integrals``: the two
coefficients of ``cmbd``, a moment and a mass) over one set of
subintervals, one call per batch for all of them.  Each is described once,
as a kernel of x and a ``shared(x)`` evaluation, from which come both the
joint integrand and the component's own integral.  Each component keeps
its own accepted subintervals, budgets and ``math.fsum``; a subinterval is
split while a component still open on it is over budget, and its halves
are open to those components only.  So each value is bit for bit that of
the component's own integral, which ``integrate`` is, the m = 1 case.
Where the joint pass raises anything, each integral runs alone, in order,
so values and errors are those of separate integrals: a component can meet
a NaN or a failing kernel on a subinterval only another one refines.
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


def _values(f: Callable, fv: Callable | None, pts: np.ndarray, m: int) -> tuple[Callable, np.ndarray]:
    """The values of fv at every point of pts, in pts' shape for m = 1, else
    shaped (m, *pts.shape), and fv, which maps the flattened points to their
    values (m rows of them for m > 1).  On the first batch of an integral
    (fv None), fv is what ``_vectorized`` makes of f.  DomainError names the
    first point where a value is NaN or infinite."""
    x = pts.ravel()
    fv, y = _vectorized(f, x, CdtError) if fv is None else (fv, None)
    if y is None:
        y = np.asarray(fv(x), dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite.ravel()))
        raise DomainError(f"integrand is {float(y.flat[i])!r} at x = {float(x[i % len(x)])!r}")
    return fv, y.reshape(pts.shape if m == 1 else (m, *pts.shape))


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


def _kronrod(
    f: Callable, a: np.ndarray, b: np.ndarray, abs_tol: float, max_depth: int, m: int = 1
) -> list[float]:
    """Adaptive Gauss-Kronrod integrals of the m components of f over the
    panels [a[i], b[i]], a < b: for each component, one ``math.fsum`` of the
    Kronrod sums it accepted on every panel.

    A group holds subintervals of one depth in panel order: their ends,
    panels and the components open on each (None for m = 1).  The stack
    starts with every panel in one group at depth 0, open to every
    component.  Each call of f evaluates the lowest ``_MAX_ACTIVE``
    subintervals of the group on top, and each component accepts its
    Kronrod sum on those open to it that are within the budget.  The call
    pushes the rest of that group and then the halves of the subintervals
    still over budget for some open component, each pair side by side, open
    to those components only.  So a component accepts exactly the subintervals
    that its own run (m = 1) accepts, and its integral is that run's, bit
    for bit; it fails at ``max_depth`` where that run fails.  For m = 1
    the first call decides how f is called from then on; for m > 1 f maps
    the flattened points to an (m, points) array.
    """
    fv = None if m == 1 else f  # f, or f point by point
    live = None if m == 1 else np.ones((m, len(a)), dtype=bool)
    stack = [(0, float(abs_tol), a, b, np.arange(len(a)), live)]  # (depth, error budget, lo, hi, pan, open)
    values: list[list[np.ndarray]] = [[] for _ in range(m)]
    while stack:
        depth, tol, lo, hi, pan, live = stack.pop()
        if len(pan) > _MAX_ACTIVE:
            rest = None if live is None else live[:, _MAX_ACTIVE:]
            stack.append((depth, tol, lo[_MAX_ACTIVE:], hi[_MAX_ACTIVE:], pan[_MAX_ACTIVE:], rest))
            lo, hi, pan = lo[:_MAX_ACTIVE], hi[:_MAX_ACTIVE], pan[:_MAX_ACTIVE]
            live = None if live is None else live[:, :_MAX_ACTIVE]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fv, fx = _values(f, fv, mid[:, None] + half[:, None] * _XK, m)
        kronrod = half * (fx * _WK).sum(axis=-1)
        err = np.abs(kronrod - half * (fx[..., 1::2] * _WG).sum(axis=-1))
        done = err <= tol
        if live is None:  # one component, open on every subinterval
            values[0].append(kronrod[done])
            k = ~done
        else:
            over = live & ~done
            for c in range(m):
                values[c].append(kronrod[c, live[c] & done[c]])
            k = np.logical_or.reduce(over)
        if not np.count_nonzero(k):
            continue
        if depth == max_depth:
            worst = err if live is None else np.where(over, err, 0.0).max(axis=0)
            raise _failure(a, b, lo[k], hi[k], pan[k], worst[k] / tol, depth)
        lo, mid, hi = lo[k], mid[k], hi[k]
        live = None if live is None else np.repeat(over[:, k], 2, axis=1)
        stack.append((depth + 1, 0.5 * tol, np.column_stack((lo, mid)).ravel(),
                      np.column_stack((mid, hi)).ravel(), np.repeat(pan[k], 2), live))
    return [math.fsum(np.concatenate(v).tolist()) for v in values]


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


def _panels(lo: float, hi: float, breakpoints: Sequence[float]) -> np.ndarray:
    """The panel edges of an integral over [lo, hi], lo < hi: the interior
    breakpoints, sorted, each first of its repeats kept (``np.unique``'s
    values at a fraction of its cost), or a geometric ladder around 0 over
    an interval without them wider than 1e4 max(1, |lo + hi|)."""
    brk = np.asarray(breakpoints, dtype=float)
    brk = np.sort(brk[(lo < brk) & (brk < hi)])
    edges = np.concatenate(([lo], brk[:1], brk[1:][brk[1:] != brk[:-1]], [hi]))
    if len(edges) == 2 and (hi - lo) > 1e4 * max(1.0, abs(lo + hi)):
        edges = np.array(ladder_breakpoints(lo, hi, 0.0, max(1.0, abs(lo + hi) * 0.5)))
    return edges


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
    edges = _panels(lo, hi, breakpoints)
    return _kronrod(f, edges[:-1], edges[1:], cfg.abs_tol, cfg.max_depth)[0]


def _integrals(
    shared: Callable,
    kernels: Sequence[Callable],
    lo: float,
    hi: float,
    cfg: QuadratureConfig,
    breakpoints: Sequence[float],
) -> list[float]:
    """The integrals over [lo, hi] of kernel(x, shared(x)), one per kernel,
    each bit for bit what ``integrate`` gives for it alone: one pass of
    ``_kronrod`` over the panels of ``integrate``, which evaluates shared
    once per batch of points (two densities and their check, say), then
    each kernel on it.

    If the joint pass raises anything (a non-finite value, a subinterval
    still over its budget at ``max_depth``, an error or warning of shared or
    a kernel, which run outside ``np.errstate``), each integral runs alone,
    in order, and gives the values and the first error of separate
    integrals: a kernel may meet a value on a subinterval that only another
    kernel refines.  One kernel is integrated alone from the start.
    """
    def joint(x):
        s = shared(x)
        return np.array([k(x, s) for k in kernels])

    try:
        a, b = _bounds(lo, hi)
        if len(kernels) > 1 and a < b:
            edges = _panels(a, b, breakpoints)
            return _kronrod(joint, edges[:-1], edges[1:], cfg.abs_tol, cfg.max_depth, len(kernels))
    except Exception:  # whatever it was, the integral that meets it alone raises it again
        pass
    return [integrate(lambda x, k=k: k(x, shared(x)), lo, hi, cfg, breakpoints) for k in kernels]
