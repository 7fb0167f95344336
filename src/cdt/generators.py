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
from dataclasses import dataclass, replace
from functools import lru_cache
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


@dataclass(frozen=True)
class Interval:
    """Open real interval (lo, hi)."""

    lo: float = -INF
    hi: float = INF

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"empty interval ({self.lo}, {self.hi})")

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


def _floats(v) -> np.ndarray:
    """v as a float array, as ``_apply`` converts a callable's values; a
    float64 array is returned as it is."""
    return np.asarray(v, dtype=float)


def _outside(x, domain: Interval) -> np.ndarray:
    """The mask of the elements of x outside the open domain, NaN included."""
    return ~((x > domain.lo) & (x < domain.hi))


def _check_inside(x: np.ndarray, domain: Interval, what: str) -> None:
    """Raise DomainError naming the first element of x outside domain."""
    if np.count_nonzero(bad := _outside(x, domain)):  # cheaper than bad.any() on small arrays
        raise DomainError(f"{_first(x, bad)!r} outside domain {domain} of {what}")


def _apply(fn: Callable, x, what: str, domain: Interval | None = None, bad=None):
    """fn(x) elementwise as a float array (a float for a float), under one
    errstate.  Raises DomainError naming the first element of x outside
    ``domain``, at which fn raises one of ``UNDEFINED`` (ArithmeticError or
    ValueError), or whose value ``bad`` flags; a CdtError that fn raises
    itself passes through unchanged."""
    xa = np.asarray(x, dtype=float)
    if domain is not None:
        _check_inside(xa, domain, what)
    flat = xa.reshape(-1)  # a float takes the array path too, so both agree bit for bit
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(fn(flat), dtype=float)
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
    if bad is not None and np.count_nonzero(flags := bad(out)):
        raise DomainError(f"{what} is undefined at {_first(xa, flags)!r}")
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


def _raw(fn: Callable, x: np.ndarray) -> np.ndarray:
    """fn at x unchecked: called on x flattened and converted to float as
    ``_apply`` calls and converts it, in x's shape."""
    return _floats(fn(x.reshape(-1))).reshape(x.shape)


def _fused(raw: Callable, checked: Callable) -> Callable:
    """The values of ``raw``, checked as ``checked`` checks them, at about
    the cost of raw alone.

    raw(x) returns the values and a mask flagging every element that
    checked would reject.  It runs under one errstate, on x flattened as
    ``_apply`` flattens it, and converts each callable's values to float as
    ``_apply`` does, so its values are checked's bit for bit.  When raw
    raises, flags an element or returns a misshapen array, checked reruns
    on the same x, only to raise the typed error that names the culprit; if
    it raises none, its values are returned.
    """

    def fun(x):
        xa = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            try:
                out, bad = raw(xa.reshape(-1))
                out = _floats(out)
                clean = out.shape == (xa.size,) and not np.count_nonzero(bad)
            except Exception:  # whatever it was, the checked rerun raises it again
                clean = False
        if not clean:
            return checked(x)
        return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)

    return fun


def _monotone_direction(fun: Callable, lo, hi, n: int = 33):
    """+1 or -1 where fun is strictly increasing or decreasing on n equispaced
    points of [lo, hi], else 0 (sampled, so a falsification only); over
    arrays of brackets.  All n points of all brackets go to fun in one call,
    and fun checks them; a NaN value gives the verdict 0."""
    diffs = np.diff(np.asarray(fun(np.linspace(lo, hi, n)), dtype=float), axis=0)
    out = np.where(np.all(diffs > 0.0, axis=0), 1, np.where(np.all(diffs < 0.0, axis=0), -1, 0))
    return int(out) if out.ndim == 0 else out


#: Elements up to which ``_invert_monotone`` steps predicted paths in floats,
#: one element at a time: summed over the G' of the four certified cluster
#: triples (2-vCPU Xeon, numpy 2.4) paths took 0.61, 0.84, 0.96 and 1.01 of
#: the time of one level per call at 16, 24, 28 and 32 elements, 1.29 at 40.
_PATH_ELEMENTS = 32

#: Bisection levels after which ``_invert_monotone`` stops in any case.
_MAX_LEVELS = 200


def _bisecting(a, b, tol: float):
    """Where ``_invert_monotone`` still bisects the bracket [a, b]: wider
    than tol relative to max(1, |a|, |b|)."""
    # max(|a|, |b|) is max(b, -a) while a <= b
    return (b - a) > tol * np.maximum(1.0, np.maximum(b, -a))


def _estimate(a: float, ya: float, b: float, yb: float, c: float, yc: float, t: float) -> float:
    """Where in [a, b] the root of y = t is expected: inverse quadratic
    interpolation through a, b and c when it lands inside, else the secant
    through a and b (as in Brent, Algorithms for Minimization without
    Derivatives, 1973), clipped into [a, b]; the midpoint if not finite."""
    r = math.nan
    with contextlib.suppress(ZeroDivisionError):
        r = a + (t - ya) * (b - a) / (yb - ya)
        q = (
            a * (t - yb) * (t - yc) / ((ya - yb) * (ya - yc))
            + b * (t - ya) * (t - yc) / ((yb - ya) * (yb - yc))
            + c * (t - ya) * (t - yb) / ((yc - ya) * (yc - yb))
        )
        if a < q < b:
            r = q
    return min(max(r, a), b) if math.isfinite(r) else 0.5 * (a + b)


def _values(fun: Callable, x):
    """fun(x) as a float array; a NaN, which would steer the bisection
    silently, raises DomainError naming the first."""
    y = np.asarray(fun(x), dtype=float)
    if np.count_nonzero(bad := np.isnan(y)):
        raise DomainError(f"the function to invert is NaN at {_first(x, bad)!r}")
    return y


def _invert_monotone(fun: Callable, target, lo, hi, tol: float):
    """Bisection solve of fun(m) = target for monotone fun on [lo, hi], to a
    bracket of relative width tol; elementwise over arrays of targets and
    brackets, each element stopping at its own tolerance or after
    ``_MAX_LEVELS`` levels.

    fun maps arrays elementwise.  It is evaluated once at the bracket ends
    and then once per round (see ``_paths``), or once per level past
    ``_PATH_ELEMENTS`` elements; either way the brackets are bit for bit
    those of one level per call.  All points lie in [lo, hi], so callers
    check the bracket against their domains once and may pass raw kernels
    (see ``_fused``).  A NaN at any point evaluated raises DomainError
    naming the first NaN of that call, and an exception from fun passes
    through from the call that raises it.
    """
    flo, fhi = _values(fun, lo), _values(fun, hi)
    increasing = fhi >= flo
    # Floating-point drift can push the target marginally outside the bracket.
    target = np.minimum(np.maximum(target, np.minimum(flo, fhi)), np.maximum(flo, fhi))
    args = np.broadcast_arrays(target, increasing, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), flo, fhi)
    shape = args[0].shape
    target, increasing, a, b, ya, yb = (v.reshape(-1) for v in args)
    if a.size <= _PATH_ELEMENTS:
        a, b = _paths(fun, target, increasing, a, b, ya, yb, tol)
    else:
        for _ in range(_MAX_LEVELS):
            active = _bisecting(a, b, tol)
            if not np.count_nonzero(active):
                break
            m = 0.5 * (a + b)
            raise_a = active & ((_values(fun, m) < target) == increasing)
            a, b = np.where(raise_a, m, a), np.where(active ^ raise_a, m, b)
    out = 0.5 * (a + b)
    return float(out[0]) if shape == () else out.reshape(shape)


def _paths(fun, target, increasing, a, b, ya, yb, tol):
    """The brackets at which one-level bisection stops, from the flat arrays
    of ``_invert_monotone``.

    A round estimates each element's root, steps in floats along the
    bisection path toward it, and evaluates every midpoint of the path in
    one call.  Each element keeps the levels whose decisions, taken from
    fun's own values, match the path, and the first that does not, so every
    round confirms a level.  The first paths run to the tolerance; after c
    levels kept, the next runs at most 2c + 2, so a fun that defeats every
    estimate costs O(levels) float steps.
    """
    # each element's lo, fun(lo), hi, fun(hi), the end c it discarded last,
    # fun(c), its levels and the most levels of its next path
    S = [(*s, math.nan, math.nan, 0, _MAX_LEVELS) for s in zip(a.tolist(), ya.tolist(), b.tolist(), yb.tolist())]

    def live(lo, hi, k):  # _bisecting on floats, under the level cap
        return k < _MAX_LEVELS and hi - lo > tol * max(1.0, hi, -lo)

    while any(live(s[0], s[2], s[6]) for s in S):
        paths = []
        for (lo, ylo, hi, yhi, c, yc, k, d), t in zip(S, target.tolist()):
            r, path = _estimate(lo, ylo, hi, yhi, c, yc, t), []
            while len(path) < d and live(lo, hi, k + len(path)):
                path.append(m := 0.5 * (lo + hi))
                lo, hi = (m, hi) if m < r else (lo, m)
            paths.append((path, r, 0.5 * (lo + hi)))
        D = max(len(p) for p, _, _ in paths)
        # a shorter path, or none where an element has stopped, is padded
        # with the midpoint where it ends, and a NaN there raises too
        P = np.array([p + [f] * (D - len(p)) for p, _, f in paths]).T
        Y = _values(fun, P)
        ups = ((Y < target) == increasing).T.tolist()
        for i, ((path, r, _), ys, us) in enumerate(zip(paths, Y.T.tolist(), ups)):
            lo, ylo, hi, yhi, c, yc, k, _ = S[i]
            kept = len(path)
            for j, m in enumerate(path):
                if us[j]:
                    lo, ylo, c, yc = m, ys[j], lo, ylo
                else:
                    hi, yhi, c, yc = m, ys[j], hi, yhi
                if us[j] != (m < r):  # the first level off the path
                    kept = j + 1
                    break
            S[i] = (lo, ylo, hi, yhi, c, yc, k + kept, 2 * kept + 2)
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
        return _apply(self.forward, x, f"generator {self.id!r}", self.domain, np.isnan)

    def inv(self, y):
        return _apply(self.inverse, y, f"the inverse of generator {self.id!r}", None, np.isnan)

    def deriv(self, x):
        derivative = self.derivative or (lambda v: finite_difference(self.forward, v, self.domain))
        return _apply(derivative, x, f"the derivative of generator {self.id!r}", self.domain, np.isnan)

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
    increasing representative -x**delta is used.  Instances are cached per
    exponent, so equal exponents compare equal.
    """
    return _power_generator_cached(float(delta))


@lru_cache(maxsize=256)
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
