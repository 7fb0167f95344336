"""Numerical quadrature: adaptive Simpson (default) and fixed Gauss-Legendre.

Integrands are evaluated on numpy arrays in batches; scalar-only callables
are wrapped automatically.  Accepted contributions are accumulated with
``math.fsum`` in a deterministic order so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureFailure


@dataclass(frozen=True)
class QuadratureConfig:
    rule: str = "adaptive_simpson"  # or "gauss_legendre"
    nodes: int = 64                 # per panel, Gauss-Legendre only
    abs_tol: float = 1e-9
    max_depth: int = 20             # refinement levels per panel


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
    budget after ``max_depth`` refinement levels.
    """
    return _simpson(_vectorized(f), float(a), float(b), abs_tol, max_depth)


def _simpson(fv: Callable, a: float, b: float, abs_tol: float, max_depth: int) -> float:
    """adaptive_simpson for an integrand fv that maps arrays to arrays."""
    if a == b:
        return 0.0
    if b < a:
        return -_simpson(fv, b, a, abs_tol, max_depth)
    lo = np.array([a])
    hi = np.array([b])
    m = 0.5 * (lo + hi)
    vals = fv(np.concatenate([lo, m, hi]))
    flo, fm, fhi = vals[0:1], vals[1:2], vals[2:3]
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fm + fhi)
    tol = np.array([float(abs_tol)])
    pieces: list[float] = []
    for _ in range(max_depth + 1):
        lm = 0.5 * (lo + m)
        rm = 0.5 * (m + hi)
        new = fv(np.concatenate([lm, rm]))
        k = len(lo)
        flm, frm = new[:k], new[k:]
        s_left = (m - lo) / 6.0 * (flo + 4.0 * flm + fm)
        s_right = (hi - m) / 6.0 * (fm + 4.0 * frm + fhi)
        err = (s_left + s_right - whole) / 15.0
        done = np.abs(err) <= tol
        if np.any(done):
            pieces.extend((s_left + s_right + err)[done].tolist())
        if np.all(done):
            return math.fsum(pieces)
        keep = ~done
        lo = np.concatenate([lo[keep], m[keep]])
        hi = np.concatenate([m[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fm[keep]])
        fhi = np.concatenate([fm[keep], fhi[keep]])
        m = np.concatenate([lm[keep], rm[keep]])
        fm = np.concatenate([flm[keep], frm[keep]])
        whole = np.concatenate([s_left[keep], s_right[keep]])
        tol = np.concatenate([0.5 * tol[keep], 0.5 * tol[keep]])
    raise QuadratureFailure(
        f"adaptive Simpson exceeded {max_depth} refinement levels on "
        f"{len(lo)} subintervals (worst near {float(lo[0])!r})"
    )


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(f: Callable, a: float, b: float, nodes: int = 64) -> float:
    """Fixed-order Gauss-Legendre integral of f over [a, b]."""
    return _gauss(_vectorized(f), float(a), float(b), nodes)


def _gauss(fv: Callable, a: float, b: float, nodes: int) -> float:
    """gauss_legendre for an integrand fv that maps arrays to arrays."""
    if a == b:
        return 0.0
    x, w = _leggauss(int(nodes))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return float(half * np.dot(w, fv(mid + half * x)))


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
    edges = [lo] + sorted({float(b) for b in breakpoints if lo < float(b) < hi}) + [hi]
    if len(edges) == 2 and (hi - lo) > 1e4 * max(1.0, abs(lo + hi)):
        edges = list(ladder_breakpoints(lo, hi, 0.0, max(1.0, abs(lo + hi) * 0.5)))
    fv = _vectorized(f, (lo + 0.5 * (hi - lo), lo + 0.25 * (hi - lo)))
    parts = []
    for a, b in zip(edges[:-1], edges[1:]):
        # Sample each panel on its open interior so integrands that jump at a
        # panel boundary (histogram bins) are never evaluated on the far side;
        # the perturbation is O(L * pad^2), far below any tolerance here.
        pad = 1e-12 * (b - a)
        fp = lambda xs, a=a, b=b, pad=pad: fv(np.clip(xs, a + pad, b - pad))
        if cfg.rule == "gauss_legendre":
            parts.append(_gauss(fp, a, b, cfg.nodes))
        else:
            parts.append(_simpson(fp, a, b, cfg.abs_tol, cfg.max_depth))
    return math.fsum(parts)
