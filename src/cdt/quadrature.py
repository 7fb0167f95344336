"""Numerical quadrature: adaptive Simpson (default) and fixed Gauss-Legendre.

One core integrates every panel of an integral at once.  ``integrate``
splits its interval into panels (breakpoints, or a geometric ladder over
wide intervals) and hands them all to it.  Adaptive Simpson refines breadth
first: each level evaluates every active subinterval of every panel in one
integrand call, each subinterval carrying its panel's index, which selects
the panel's clip; every panel starts with the full ``abs_tol`` and halves it
at each refinement.  Gauss-Legendre evaluates nodes x panels in one call.
The public ``adaptive_simpson`` and ``gauss_legendre`` are the same core on
one panel.

Panels start in groups of at most ``_MAX_ACTIVE``.  A group whose active
subintervals outgrow that bound refines its lowest panel alone and the rest
after it, so an integral that cannot converge on many panels needs about
the memory of one.

Scalar-only callables are wrapped automatically.  Accepted contributions
are summed with ``math.fsum`` per panel, and the panel sums with
``math.fsum`` again; ``fsum`` is exact, so the result does not depend on
the order in which pieces are accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ParamError, QuadratureFailure

_RULES = ("adaptive_simpson", "gauss_legendre")

#: Most subintervals one adaptive Simpson level refines together, unless a
#: single panel needs more on its own.
_MAX_ACTIVE = 256


@dataclass(frozen=True)
class QuadratureConfig:
    rule: str = "adaptive_simpson"  # or "gauss_legendre"
    nodes: int = 64                 # per panel, Gauss-Legendre only
    abs_tol: float = 1e-9           # per panel, halved at every refinement
    max_depth: int = 20             # refinement levels per panel

    def __post_init__(self) -> None:
        if self.rule not in _RULES:
            raise ParamError(f"quadrature rule {self.rule!r} is not one of {', '.join(_RULES)}")
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


def adaptive_simpson(
    f: Callable, a: float, b: float, abs_tol: float = 1e-9, max_depth: int = 20
) -> float:
    """Adaptive Simpson integral of f over [a, b] with Richardson correction.

    Raises QuadratureFailure when an interval still exceeds its local error
    budget after ``max_depth`` refinement levels, and ParamError for an
    ``abs_tol`` or ``max_depth`` that ``QuadratureConfig`` rejects.
    """
    a, b = float(a), float(b)
    if b < a:
        return -adaptive_simpson(f, b, a, abs_tol, max_depth)
    cfg = QuadratureConfig(abs_tol=abs_tol, max_depth=max_depth)
    return 0.0 if a == b else _panels(_vectorized(f), [a, b], cfg)[0]


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(f: Callable, a: float, b: float, nodes: int = 64) -> float:
    """Fixed-order Gauss-Legendre integral of f over [a, b]."""
    a, b = float(a), float(b)
    cfg = QuadratureConfig(rule="gauss_legendre", nodes=nodes)
    return 0.0 if a == b else _panels(_vectorized(f), [a, b], cfg)[0]


def _panels(fv: Callable, edges: Sequence[float], cfg: QuadratureConfig, pad: float = 0.0) -> list[float]:
    """Integrals of fv over the panels between consecutive ``edges``.

    fv maps arrays to arrays.  With ``pad`` > 0 each panel's points are
    clipped to its interior shrunk by ``pad`` times its width on both sides.
    """
    e = np.asarray(edges, dtype=float)
    a, b = e[:-1], e[1:]
    clip_lo, clip_hi = a + pad * (b - a), b - pad * (b - a)

    def f_at(x, pan):
        return fv(np.clip(x, clip_lo[pan], clip_hi[pan]) if pad else x)

    if cfg.rule == "gauss_legendre":
        x, w = _leggauss(int(cfg.nodes))
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        pts = mid[:, None] + half[:, None] * x
        vals = f_at(pts.ravel(), np.repeat(np.arange(len(a)), len(x))).reshape(pts.shape)
        # one dot per panel: a matrix product would sum in another order
        return [float(h * np.dot(w, v)) for h, v in zip(half.tolist(), vals)]
    return _simpson(f_at, a, b, cfg.abs_tol, cfg.max_depth)


def _simpson(f_at: Callable, a: np.ndarray, b: np.ndarray, abs_tol: float, max_depth: int) -> list[float]:
    """Breadth-first adaptive Simpson over the panels [a[i], b[i]], a < b.

    ``f_at(x, pan)`` evaluates the integrand at points x of panels pan.  A
    group holds active subintervals of one depth: their ends, the integrand
    at their ends and midpoints, Simpson estimates and panels.  Panels start
    in groups of at most ``_MAX_ACTIVE``, and each level refines a whole
    group in one call.  A group grown past that bound refines its lowest
    panel alone and the others after it, so at most one group waits.
    """
    queue = np.arange(len(a))  # panels not started
    groups: list[tuple] = []   # (depth, error budget, state), last in first out
    values: list[np.ndarray] = []
    owners: list[np.ndarray] = []
    while groups or len(queue):
        if not groups:
            pan, queue = queue[:_MAX_ACTIVE], queue[_MAX_ACTIVE:]
            n, lo, hi = len(pan), a[pan], b[pan]
            f3 = f_at(np.concatenate([lo, 0.5 * (lo + hi), hi]), np.tile(pan, 3))
            flo, fm, fhi = f3[:n], f3[n : 2 * n], f3[2 * n :]
            whole = (hi - lo) / 6.0 * (flo + 4.0 * fm + fhi)
            groups.append((0, float(abs_tol), (lo, hi, flo, fm, fhi, whole, pan)))
        depth, tol, state = groups.pop()
        lo, hi, flo, fm, fhi, whole, pan = state
        if len(pan) > _MAX_ACTIVE and pan.min() < pan.max():
            alone = pan == pan.min()
            groups.append((depth, tol, tuple(v[~alone] for v in state)))
            groups.append((depth, tol, tuple(v[alone] for v in state)))
            continue
        n = len(pan)
        m = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + m), 0.5 * (m + hi)
        f2 = f_at(np.concatenate([lm, rm]), np.concatenate([pan, pan]))
        flm, frm = f2[:n], f2[n:]
        s_left = (m - lo) / 6.0 * (flo + 4.0 * flm + fm)
        s_right = (hi - m) / 6.0 * (fm + 4.0 * frm + fhi)
        err = (s_left + s_right - whole) / 15.0
        done = np.abs(err) <= tol
        values.append((s_left + s_right + err)[done])
        owners.append(pan[done])
        if done.all():
            continue
        k = ~done
        if depth == max_depth:
            raise _failure(a, b, lo[k], hi[k], pan[k], np.abs(err[k]) / tol, depth)
        halves = ((lo, m), (m, hi), (flo, fm), (flm, frm), (fm, fhi), (s_left, s_right), (pan, pan))
        groups.append((depth + 1, 0.5 * tol, tuple(np.concatenate([x[k], y[k]]) for x, y in halves)))
    owner = np.concatenate(owners)
    ordered = np.concatenate(values)[np.argsort(owner)].tolist()
    ends = np.cumsum(np.bincount(owner, minlength=len(a))).tolist()
    return [math.fsum(ordered[i:j]) for i, j in zip([0, *ends], ends)]


def _failure(a, b, lo, hi, pan, ratio, depth) -> QuadratureFailure:
    """QuadratureFailure naming the subinterval whose error most exceeds its
    budget (a NaN error counts as the worst)."""
    i = int(np.argmax(np.where(np.isnan(ratio), np.inf, ratio)))
    p = int(pan[i])
    return QuadratureFailure(
        f"adaptive Simpson exceeded {depth} refinement levels: {len(lo)} subintervals are "
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
    lo, hi = float(lo), float(hi)
    if hi < lo:
        return -integrate(f, hi, lo, cfg, breakpoints)
    edges = [lo] + sorted({float(b) for b in breakpoints if lo < float(b) < hi}) + [hi]
    if len(edges) == 2 and (hi - lo) > 1e4 * max(1.0, abs(lo + hi)):
        edges = list(ladder_breakpoints(lo, hi, 0.0, max(1.0, abs(lo + hi) * 0.5)))
    fv = _vectorized(f, (lo + 0.5 * (hi - lo), lo + 0.25 * (hi - lo)))
    # Sample each panel on its open interior so integrands that jump at a
    # panel boundary (histogram bins) are never evaluated on the far side;
    # the perturbation is O(L * pad^2), far below any tolerance here.
    return math.fsum(_panels(fv, edges, cfg, pad=1e-12))
