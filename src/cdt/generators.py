"""Strictly increasing generators and interval utilities.

A generator is the building block of all quasi-arithmetic machinery: a
strictly increasing differentiable map bundled with its inverse.  Decreasing
candidates (such as x -> 1/x) are stored through their negated, increasing
representative, which leaves every induced mean unchanged.  Evaluation is
elementwise over arrays, and a float is the one-element case.
"""

from __future__ import annotations

import contextlib
import math
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import lru_cache, wraps
from typing import Callable

import numpy as np

from .errors import CdtError, DomainError, ParamError
from .quadrature import _vectorized

INF = float("inf")

#: Relative step for finite-difference derivatives.
FD_STEP = 1e-6

#: Sample count for construction-time generator checks.
VALIDATION_POINTS = 64

#: Relative tolerance for the inverse(forward(x)) = x round trip.
ROUNDTRIP_RTOL = 1e-10

#: The exceptions by which a callable says it is undefined at a point.
UNDEFINED = (ArithmeticError, ValueError)

#: Entries each memo keeps, the least recently used going first.
MEMO_SIZE = 512


def _memoize(fn: Callable) -> Callable:
    """fn memoized per argument tuple, up to MEMO_SIZE entries, for the pure
    functions of model objects: reductions, certificates and generators.

    Arguments that do not hash (a model holding a mutable dataclass, say)
    are computed on each call, so the memo itself never raises TypeError.
    A callable's state is taken as fixed: one mutated after a call keeps
    that call's result.  ``cache_info`` and ``__wrapped__`` (fn) are kept.
    """
    cached = lru_cache(maxsize=MEMO_SIZE)(fn)

    @wraps(fn)
    def memo(*args, **kwargs):
        try:
            hash((args, *kwargs.values()))
        except TypeError:
            return fn(*args, **kwargs)
        return cached(*args, **kwargs)

    memo.cache_info = cached.cache_info
    return memo


@dataclass(frozen=True)
class Interval:
    """Open real interval (lo, hi).  A zero end is stored as +0.0 at lo and
    -0.0 at hi, the side the interval lies on, so that a callable evaluated
    there (``_image``) takes its one-sided limit: -1/x is -inf at lo = 0.0
    and inf at hi = -0.0, however the zero was written."""

    lo: float = -INF
    hi: float = INF

    def __post_init__(self) -> None:
        if self.lo == 0.0:
            object.__setattr__(self, "lo", 0.0)
        if self.hi == 0.0:
            object.__setattr__(self, "hi", -0.0)
        if not self.lo < self.hi:
            raise DomainError(f"empty interval ({self.lo}, {self.hi})")
        # the ends as 0-d float64 arrays, against which numpy compares an
        # array faster than against floats (``_outside``); not a field
        object.__setattr__(self, "_ends", (np.array(self.lo, dtype=float), np.array(self.hi, dtype=float)))

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def finite_window(self) -> tuple[float, float]:
        """A finite sub-interval suitable for sampling, strictly inside.

        Unbounded ends are capped multiplicatively on the positive axis
        (generators such as log vary fastest near 0) and additively
        otherwise.  Each end of the window lies at least one float inside
        the interval, and so at most the largest finite float from 0; an
        interval that holds no float raises DomainError.
        """
        lo, hi = float(self.lo), float(self.hi)  # a numpy float would warn where this overflows
        first, last = math.nextafter(lo, INF), math.nextafter(hi, -INF)  # the floats inside
        if not first <= last:
            raise DomainError(f"interval ({lo}, {hi}) holds no float")
        if math.isinf(lo) and math.isinf(hi):
            return -100.0, 100.0
        if math.isinf(lo):  # the mirror image of (-hi, inf); negation is exact
            a, b = Interval(-hi, INF).finite_window()
            return -b, -a
        if math.isinf(hi):
            if lo >= 0.0:
                a, b = (1e-6 if lo == 0.0 else lo * (1.0 + 1e-9)), max(1e6, lo * 1e6)
            else:
                a, b = lo + 1e-9 * abs(lo), lo + 1e6 * max(1.0, abs(lo))
        else:
            pad = 1e-9 * max(1.0, abs(lo), abs(hi))
            if lo + pad >= hi - pad:
                pad = 1e-3 * (hi - lo)
            a, b = lo + pad, hi - pad
        return min(max(a, first), last), min(max(b, first), last)

    def sample_grid(self, n: int) -> np.ndarray:
        """n sample points of the window in order: geometric spacing on
        positive windows, uniform otherwise."""
        a, b = self.finite_window()
        with np.errstate(all="ignore"):  # a point that overflows is clipped to b
            if a > 0.0:
                grid = np.geomspace(a, b, n)
            elif math.isfinite(b - a):
                grid = np.linspace(a, b, n)
            else:  # halving is exact and keeps the width finite
                grid = 2.0 * np.linspace(0.5 * a, 0.5 * b, n)
        return np.clip(grid, a, b)  # where rounding stepped out of the window


def _first(x, bad: np.ndarray) -> float:
    """The first element of x flagged in bad."""
    return float(np.broadcast_to(x, bad.shape)[bad].flat[0])


def _outside(x, domain: Interval) -> np.ndarray:
    """The mask of the elements of x outside the open domain, NaN included."""
    lo, hi = domain._ends
    return ~((x > lo) & (x < hi))


def _check_inside(x: np.ndarray, domain: Interval, what: str) -> None:
    """Raise DomainError naming the first element of x outside domain."""
    if np.count_nonzero(bad := _outside(x, domain)):  # cheaper than bad.any() on small arrays
        raise DomainError(f"{_first(x, bad)!r} outside domain {domain} of {what}")


#: The flags of the chain open in this context (see ``_deferred``), if any.
_FLAGS: ContextVar[list | None] = ContextVar("_FLAGS", default=None)


def _flag(mask) -> bool:
    """Whether a chain is open in this context (see ``_deferred``); if so,
    mask joins its flags, and the caller raises nothing."""
    flags = _FLAGS.get()
    if flags is not None:
        flags.append(mask)
    return flags is not None


def _deferred(chain: Callable, *args):
    """chain(*args), a composition of checked calls, with every check
    deferred to the chain's end.

    While the chain runs, under one errstate, ``_apply`` and ``_flag``
    raise nothing: each adds its masks to the chain's flags, which are held
    per context, so a checked call in another thread raises at once.  At
    the end one count over all the flags decides.  If nothing was flagged
    and nothing raised, every call returned what it returns checked, and
    the chain's values are returned.  Otherwise the chain reruns eagerly,
    under one errstate too, only to raise the typed error that names the
    first bad element; if that rerun raises nothing, its values are
    returned.  A chain called within an open one joins it.  A chain must be
    a function of its arguments alone: what it computes from flagged
    elements is thrown away, so it must store nothing.
    """
    if _FLAGS.get() is None:
        token = _FLAGS.set(flags := [])
        try:
            with np.errstate(all="ignore"):
                out = chain(*args)
            if not (flags and np.count_nonzero(np.concatenate(flags, axis=None))):
                return out
        except Exception:  # whatever it was, the eager rerun raises it again
            pass
        finally:
            _FLAGS.reset(token)
    with np.errstate(all="ignore"):
        return chain(*args)


_F64 = np.dtype(float)


def _floats(v) -> np.ndarray:
    """v as a float64 array: v itself when it is one."""
    return v if type(v) is np.ndarray and v.dtype is _F64 else np.asarray(v, dtype=float)


def _apply(fn: Callable, x, what: str | Callable[[], str], domain: Interval | None = None, bad=None):
    """fn(x) elementwise as a float array (a float for a float), under one
    errstate.  Raises DomainError naming the first element of x outside
    ``domain``, at which fn raises one of ``UNDEFINED`` (ArithmeticError or
    ValueError), or whose value ``bad`` flags, and ``what`` (fn's name, or
    a callable that builds it when an error may need it); a CdtError that
    fn raises itself passes through unchanged.  Within an open chain (see
    ``_deferred``) it calls fn under the chain's errstate, and flags the
    elements outside ``domain`` and those ``bad`` flags instead."""
    xa = _floats(x)
    flat = xa.reshape(-1)  # a float takes the array path too, so both agree bit for bit
    flags = _FLAGS.get()
    if flags is not None:
        out = _floats(fn(flat))
    else:
        what = what if isinstance(what, str) else what()
        if domain is not None:
            _check_inside(xa, domain, what)
        with np.errstate(all="ignore"):
            try:
                out = _floats(fn(flat))
            except CdtError:  # fn's own account of what went wrong
                raise
            except UNDEFINED as exc:
                for i in range(flat.size):  # rerun point by point, only to name the culprit
                    try:
                        fn(flat[i : i + 1])
                    except UNDEFINED:
                        raise DomainError(f"{what} is undefined at {float(flat[i])!r}") from exc
                raise DomainError(f"{what} failed: {exc}") from exc
    out = (out if out.shape == flat.shape else np.full(flat.shape, out)).reshape(xa.shape)
    if flags is not None:
        if domain is not None:
            flags.append(_outside(xa, domain))
        if bad is not None:
            flags.append(bad(out))
    elif bad is not None and np.count_nonzero(mask := bad(out)):
        raise DomainError(f"{what} is undefined at {_first(xa, mask)!r}")
    return float(out) if xa.ndim == 0 else out


def _wrap_callables(obj, names: tuple[str, ...]) -> np.ndarray:
    """Replace each named callable of a frozen obj that takes only floats by
    a wrapper mapping arrays elementwise, decided by one call on two points
    inside ``obj.domain``; returns those points."""
    a, b = obj.domain.finite_window()
    probe = np.array([a + 0.5 * (b - a), a + 0.25 * (b - a)])
    for name in names:
        if getattr(obj, name) is not None:
            object.__setattr__(obj, name, _vectorized(getattr(obj, name), probe)[0])
    return probe


def finite_difference(f: Callable, x: np.ndarray, domain: Interval = Interval()) -> np.ndarray:
    """Central difference with step 1e-6*max(1,|x|), shrunk to stay inside
    domain; elementwise over an array x, for an f that maps arrays.  Its
    callers run it inside ``_apply``, which gives the errstate and the checks."""
    h = np.minimum(FD_STEP * np.maximum(1.0, np.abs(x)), 0.45 * np.minimum(x - domain.lo, domain.hi - x))
    if np.count_nonzero(bad := ~((h > 0.0) & np.isfinite(h))):
        raise DomainError(f"cannot differentiate at {_first(x, bad)}: no room inside {domain}")
    return (np.asarray(f(x + h), dtype=float) - np.asarray(f(x - h), dtype=float)) / (2.0 * h)


def _image(fn: Callable, lo: float, hi: float) -> Interval:
    """The image of (lo, hi) under an increasing fn: its values at the ends,
    or -inf and inf where fn is undefined there."""
    ends = []
    for x, limit in ((lo, -INF), (hi, INF)):
        try:
            ends.append(_apply(fn, x, "", None, np.isnan))
        except DomainError:
            ends.append(limit)
    return Interval(*ends)


def _monotone_direction(fun: Callable, lo, hi, n: int = 33):
    """The verdict +1 or -1 where fun is strictly increasing or decreasing on
    n equispaced points of [lo, hi], else 0 (sampled, so a falsification
    only), and the scan (xs, ys) it read: xs = np.linspace(lo, hi, n), whose
    first row is lo and last hi, and ys = fun(xs) as floats.  Over arrays of
    brackets; all n points of all brackets go to fun in one call, and fun
    checks them; a NaN value gives the verdict 0.  ``_invert_monotone``
    takes the scan as its table."""
    xs = np.linspace(lo, hi, n)
    ys = np.asarray(fun(xs), dtype=float)
    diffs = ys[1:] - ys[:-1]
    # min and max carry a NaN through, and it compares false either way
    out = (np.minimum.reduce(diffs) > 0.0) * 1 - (np.maximum.reduce(diffs) < 0.0)
    return (int(out) if out.ndim == 0 else out), (xs, ys)


#: Elements up to which ``_invert_monotone`` steps predicted paths in floats,
#: one element at a time.  Seeded from a 33-point scan (2-vCPU Xeon, numpy
#: 2.4, CPython 3.11), paths took 0.36, 0.65, 0.81 and 1.21 of the time of
#: one level per call at 16, 32, 48 and 64 elements, summed over the
#: centroid map h = tau'(F) F' / rho' of the four certified cluster
#: triples, but 1.09, 2.09, 2.98 and 3.63 of it on the cheap x^3 + x: past
#: 32 they would lose more on such functions than they gain on h.
_PATH_ELEMENTS = 32

#: Bisection levels after which ``_invert_monotone`` stops in any case.
_MAX_LEVELS = 200


def _bisecting(a, b, tol: float, unit=1.0):
    """Where ``_invert_monotone`` still bisects the bracket [a, b]: wider
    than tol relative to max(unit, |a|, |b|), so tol is absolute below
    unit (relative all the way down at unit = 0); unit may be an array
    over the brackets."""
    # max(|a|, |b|) is max(b, -a) while a <= b
    return (b - a) > tol * np.maximum(unit, np.maximum(b, -a))


def _estimate(a: float, ya: float, b: float, yb: float, c: float, yc: float, t: float) -> float:
    """Where in [a, b] the root of y = t is expected: inverse quadratic
    interpolation through a, b and c when it lands inside, else the secant
    through a and b (as in Brent, Algorithms for Minimization without
    Derivatives, 1973), clipped into [a, b]; the midpoint if not finite."""
    r = math.nan
    try:
        r = a + (t - ya) * (b - a) / (yb - ya)
        q = (
            a * (t - yb) * (t - yc) / ((ya - yb) * (ya - yc))
            + b * (t - ya) * (t - yc) / ((yb - ya) * (yb - yc))
            + c * (t - ya) * (t - yb) / ((yc - ya) * (yc - yb))
        )
        if a < q < b:
            r = q
    except ZeroDivisionError:
        pass
    return min(max(r, a), b) if math.isfinite(r) else 0.5 * (a + b)


def _checked(x, y) -> np.ndarray:
    """y = fun(x) as a float array; a NaN, which would steer the bisection
    silently, raises DomainError naming the first."""
    y = np.asarray(y, dtype=float)
    if np.count_nonzero(bad := np.isnan(y)):
        raise DomainError(f"the function to invert is NaN at {_first(x, bad)!r}")
    return y


def _invert_monotone(fun: Callable, target, lo, hi, tol: float, table=None, unit=1.0):
    """Bisection solve of fun(m) = target for monotone fun on [lo, hi], to a
    bracket of width tol relative to max(unit, its ends' magnitudes) (see
    ``_bisecting``); elementwise over arrays of targets, brackets and
    units, each element stopping at its own tolerance or after
    ``_MAX_LEVELS`` levels.

    fun maps arrays elementwise.  ``table`` is the scan (xs, ys) of fun
    that callers take before a solve (see ``_monotone_direction``): rows
    from xs[0] = lo to xs[-1] = hi over the brackets' shape, and
    ys = fun(xs).  Its end rows give fun at the bracket ends, and the cell
    that holds each target seeds that root's first estimate (see
    ``_seeds``); without a table, fun is evaluated once at each bracket
    end, and those two rows are the table.  Then fun is evaluated once per
    round (see ``_paths``), or once per level past ``_PATH_ELEMENTS``
    elements; either way the brackets are bit for bit those of one level
    per call.  All points lie in [lo, hi].  A NaN at any point evaluated, or in a table's end rows, raises
    DomainError naming the first NaN of that call or row, the lower ends
    first, and an exception from fun passes through from the call that
    raises it.
    """
    if table is None:
        flo, fhi = _checked(lo, fun(lo)), _checked(hi, fun(hi))
        xs, ys = np.array(np.broadcast_arrays(lo, hi), dtype=float), np.array(np.broadcast_arrays(flo, fhi))
    else:
        xs, ys = table
        flo, fhi = _checked(xs[0], ys[0]), _checked(xs[-1], ys[-1])
    increasing = fhi >= flo
    # Floating-point drift can push the target marginally outside the bracket.
    target = np.minimum(np.maximum(target, np.minimum(flo, fhi)), np.maximum(flo, fhi))
    args = (target, increasing, _floats(lo), _floats(hi), flo, fhi, _floats(unit))
    if any(v.shape != target.shape for v in args):
        args = np.broadcast_arrays(*args)
    shape = args[0].shape
    target, increasing, a, b, ya, yb, unit = (v.reshape(-1) for v in args)
    if a.size <= _PATH_ELEMENTS:
        a, b = _paths(fun, target, increasing, a, b, ya, yb, tol, unit, _seeds(xs, ys, shape, target, increasing))
    else:
        for _ in range(_MAX_LEVELS):
            active = _bisecting(a, b, tol, unit)
            if not np.count_nonzero(active):
                break
            m = 0.5 * (a + b)
            raise_a = active & ((_checked(m, fun(m)) < target) == increasing)
            a, b = np.where(raise_a, m, a), np.where(active ^ raise_a, m, b)
    out = 0.5 * (a + b)
    return float(out[0]) if shape == () else out.reshape(shape)


def _seeds(xs, ys, shape, target, increasing) -> list[float]:
    """Each element's first estimate of its root: ``_estimate`` through the
    ends of the table cell that brackets the target and the next row above
    it (none past the last, so a two-row table gives the secant through the
    bracket ends).  On a monotone table the cell starts at the last row
    where one-level bisection would raise its lower end; one numpy pass
    counts those rows for all elements.  With none, or all, the root is at
    the bracket's lower or upper end, whatever the values near it (fun may
    be flat there, as where it underflows)."""
    n, m = len(xs), target.size
    XY = np.empty((2, n, *shape))
    lead = (n,) + (1,) * (len(shape) + 1 - xs.ndim)  # the rows over the elements' shape
    XY[0], XY[1] = xs.reshape(lead + xs.shape[1:]), ys.reshape(lead + ys.shape[1:])
    XY = XY.reshape(2, n, m)
    below = np.add.reduce((XY[1] < target) == increasing, axis=0)
    seeds = []
    for e, (i, t) in enumerate(zip(below.tolist(), target.tolist())):
        if i in (0, n):  # the root at a bracket end
            seeds.append(XY.item(0, min(i, n - 1), e))
            continue
        i -= 1
        a, ya, b, yb = XY.item(0, i, e), XY.item(1, i, e), XY.item(0, i + 1, e), XY.item(1, i + 1, e)
        c, yc = (XY.item(0, i + 2, e), XY.item(1, i + 2, e)) if i + 2 < n else (math.nan, math.nan)
        seeds.append(_estimate(a, ya, b, yb, c, yc, t))
    return seeds


def _paths(fun, target, increasing, a, b, ya, yb, tol, unit, seeds):
    """The brackets at which one-level bisection stops, from the flat arrays
    of ``_invert_monotone``.

    A round estimates each element's root, steps in floats along the
    bisection path toward it, and evaluates every midpoint of the path in
    one call.  The first round steps toward ``seeds``; later ones estimate
    from the values the rounds have evaluated.  Each element keeps the
    levels whose decisions, taken from fun's own values, match the path,
    and the first that does not, so every round confirms a level.  One
    array comparison finds each path's first level off it; up to there the
    decisions are the path's, so a walk back over the levels kept, only as
    far as the last move of each end, gives the bracket and the end c
    discarded last.  The first paths run to the tolerance; after c levels
    kept, the next runs at most 2c + 2, so a fun that defeats every
    estimate costs O(levels) float steps.
    """
    # each element's lo, fun(lo), hi, fun(hi), the end c it discarded last,
    # fun(c), its levels and the most levels of its next path, 0 once stopped
    S = [(*s, math.nan, math.nan, 0, _MAX_LEVELS) for s in zip(a.tolist(), ya.tolist(), b.tolist(), yb.tolist())]
    T, rising, units = target.tolist(), increasing.tolist(), unit.tolist()
    while True:
        paths, rs, mids = [], [], []
        for (lo, _, hi, _, _, _, k, d), r, rises, u in zip(S, seeds, rising, units):
            # where fun equals the target, bisection raises lo if fun falls
            # and lowers hi if it rises, so a falling path steps up at m <= r
            r = r if rises else math.nextafter(r, INF)
            path, cap = [], min(d, _MAX_LEVELS - k)
            for _ in range(cap):
                w = hi if hi > -lo else -lo  # _bisecting on floats
                if not hi - lo > tol * (w if w > u else u):
                    break
                path.append(m := 0.5 * (lo + hi))
                if m < r:
                    lo = m
                else:
                    hi = m
            paths.append((path, cap))
            rs.append(r)
            mids.append(0.5 * (lo + hi))
        D = max((len(p) for p, _ in paths), default=0)
        if not D:
            break
        # a shorter path, or none where an element has stopped, is padded
        # with the midpoint where it ends, and a NaN there raises too
        flat = []
        for (path, _), f in zip(paths, mids):
            flat += path
            flat += [f] * (D - len(path))
        P = np.array(flat).reshape(-1, D).T
        Y = _checked(P, fun(P))
        off = ((Y < target) == increasing) != (P < np.array(rs))  # fun's decision is not the path's
        for i, ((path, cap), r, j) in enumerate(zip(paths, rs, off.argmax(axis=0).tolist())):
            lo, ylo, hi, yhi, c, yc, k, _ = S[i]
            turned = j < len(path) and off.item(j, i)  # else the path is kept whole
            kept = j + 1 if turned else len(path)
            if kept:
                # fun's decision at the last level moves lo where it is up,
                # else hi; the levels before it moved the ends as the path did
                J = kept - 1
                up = (path[J] < r) != turned
                same = other = J - 1  # the last earlier level that moved the same end, and the other
                while same >= 0 and (path[same] < r) != up:
                    same -= 1
                while other >= 0 and (path[other] < r) == up:
                    other -= 1
                level = lambda t, end: (path[t], Y.item(t, i)) if t >= 0 else end  # end: none moved it
                if up:
                    (lo, ylo), (hi, yhi), (c, yc) = level(J, None), level(other, (hi, yhi)), level(same, (lo, ylo))
                else:
                    (lo, ylo), (hi, yhi), (c, yc) = level(other, (lo, ylo)), level(J, None), level(same, (hi, yhi))
            # a path kept whole that ended short of its cap ended at the tolerance
            more = turned or len(path) == cap > 0
            S[i] = (lo, ylo, hi, yhi, c, yc, k + kept, 2 * kept + 2 if more else 0)
        seeds = [_estimate(*s[:6], t) if s[7] else math.nan for s, t in zip(S, T)]
    return np.array([s[0] for s in S]), np.array([s[2] for s in S])


@dataclass(frozen=True)
class Generator:
    """Strictly increasing differentiable map with an explicit inverse.

    ``value``, ``inv`` and ``deriv`` map arrays elementwise (a float gives a
    float), with one errstate and one domain and result check per call; an
    error names the first bad element.  ``forward``, ``inverse`` and
    ``derivative`` may take only floats: such a callable (one that fails on
    a probe inside the domain, or the image) is wrapped once, when the
    generator is built.  Without ``derivative`` a central finite difference
    is used; a NaN derivative raises DomainError either way.  ``power_order``
    is the order d when the induced mean is the power mean P_d (identity 1,
    log 0, reciprocal -1, power:d d), else None.
    """

    id: str
    domain: Interval
    forward: Callable
    inverse: Callable
    derivative: Callable | None = None
    power_order: float | None = None

    def __post_init__(self) -> None:
        probe = _wrap_callables(self, ("forward", "derivative"))
        with contextlib.suppress(*UNDEFINED), np.errstate(all="ignore"):
            probe = self.forward(probe)  # the image, where the inverse is defined
        object.__setattr__(self, "inverse", _vectorized(self.inverse, probe)[0])

    def value(self, x):
        return _apply(self.forward, x, lambda: f"generator {self.id!r}", self.domain, np.isnan)

    def inv(self, y):
        return _apply(self.inverse, y, lambda: f"the inverse of generator {self.id!r}", None, np.isnan)

    def deriv(self, x):
        derivative = self.derivative or (lambda v: finite_difference(self.forward, v, self.domain))
        return _apply(derivative, x, lambda: f"the derivative of generator {self.id!r}", self.domain, np.isnan)

    def image(self) -> Interval:
        return _image(self.forward, self.domain.lo, self.domain.hi)

    def validate(self) -> "Generator":
        """Run sampled invariant checks where the values are finite normal
        floats (at least two); returns self so built-ins can chain.  With
        fewer than two on the domain's grid (a power of order in the
        thousands), a second grid spans the grid points bracketing them."""
        xs = self.domain.sample_grid(VALIDATION_POINTS)
        ys = self.value(xs)
        tiny = np.finfo(float).tiny
        kind = np.where(np.abs(ys) < tiny, 1, np.where(np.isfinite(ys), 0, 2))  # below, normal, above or NaN
        if np.count_nonzero(kind == 0) < 2 and len(ends := np.flatnonzero(np.diff(kind))):
            xs = Interval(xs[ends[0]], xs[ends[-1] + 1]).sample_grid(VALIDATION_POINTS)
            ys = self.value(xs)
        normal = np.isfinite(ys) & (np.abs(ys) >= tiny)
        if np.count_nonzero(normal) < 2:
            raise ParamError(f"generator {self.id!r} overflows or underflows on {self.domain.finite_window()}")
        xs, ys = xs[normal], ys[normal]
        if not np.all(np.diff(ys) > 0.0):
            raise ParamError(f"generator {self.id!r} is not strictly increasing")
        bad = np.abs(self.inv(ys) - xs) > ROUNDTRIP_RTOL * np.maximum(1.0, np.abs(xs))
        if bad.any():
            raise ParamError(f"generator {self.id!r} inverse round trip failed at {_first(xs, bad)!r}")
        bad = ~(self.deriv(xs) > 0.0)
        if bad.any():
            raise ParamError(f"generator {self.id!r} derivative not positive at {_first(xs, bad)!r}")
        return self


IDENTITY = Generator(
    "identity", Interval(), lambda x: x, lambda y: y, np.ones_like, power_order=1.0
).validate()

LOG = Generator(
    "log", Interval(0.0, INF), np.log, np.exp, lambda x: 1.0 / x, power_order=0.0
).validate()

#: Increasing representative of x -> 1/x; the induced (harmonic) mean is unchanged.
RECIPROCAL = Generator(
    "reciprocal",
    Interval(0.0, INF),
    lambda x: -1.0 / x,
    lambda y: -1.0 / y,
    lambda x: 1.0 / (x * x),
    power_order=-1.0,
).validate()

EXP = Generator("exp", Interval(), np.exp, np.log, np.exp).validate()

#: Below this magnitude a power generator is numerically indistinguishable
#: from its geometric (log) limit at the round-trip tolerance: orders up to
#: about 1.1e-6 fail validate(), every order swept from 2e-6 up passes.
_POWER_DELTA_MIN = 2e-6


def power_generator(delta: float) -> Generator:
    """Generator of the power mean P_delta on (0, inf).

    delta = 0 returns the geometric limit (log form).  For delta < 0 the
    increasing representative -x**delta is used.  Instances are memoized for
    up to MEMO_SIZE exponents, and a Generator compares its callables by
    identity: two calls with one exponent return equal generators only while
    the first instance is still in the memo.
    """
    return _power_generator_cached(float(delta))


@_memoize
def _power_generator_cached(delta: float) -> Generator:
    if delta == 0.0:
        return replace(LOG, id="power:0")
    if abs(delta) < _POWER_DELTA_MIN:
        raise ParamError(
            f"power generator with |delta|={abs(delta):g} < {_POWER_DELTA_MIN:g} "
            "cannot meet the inverse round-trip tolerance; use delta=0 (geometric limit)"
        )
    # Short form when it round-trips, so parse_mean(format_mean(m)) == m.
    name = f"power:{delta:g}" if float(f"{delta:g}") == delta else f"power:{delta!r}"
    s = 1.0 if delta > 0.0 else -1.0  # the sign of the increasing representative; exact
    return Generator(
        name,
        Interval(0.0, INF),
        lambda x: s * np.power(x, delta),
        lambda y: np.exp(np.log(s * y) / delta),
        lambda x: s * delta * x ** (delta - 1.0),
        power_order=delta,
    ).validate()


_BUILTINS = {g.id: g for g in (IDENTITY, LOG, RECIPROCAL, EXP)}


def get_generator(name: str) -> Generator:
    """Look up a generator by name: identity | log | reciprocal | exp | power:<delta>."""
    key = name.strip()
    if key in _BUILTINS:
        return _BUILTINS[key]
    if key.startswith("power:"):
        try:
            delta = float(key.split(":", 1)[1])
        except ValueError as exc:
            raise ParamError(f"bad power generator spec {name!r}") from exc
        return power_generator(delta)
    raise ParamError(f"unknown generator {name!r}")
