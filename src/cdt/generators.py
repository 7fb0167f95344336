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
        """A finite open sub-interval suitable for sampling.

        Unbounded ends are capped multiplicatively on the positive axis
        (generators such as log vary fastest near 0) and additively
        otherwise.
        """
        lo, hi = self.lo, self.hi
        if math.isinf(lo) and math.isinf(hi):
            return -100.0, 100.0
        if math.isinf(lo):  # the mirror image of (-hi, inf); negation is exact
            a, b = Interval(-hi, INF).finite_window()
            return -b, -a
        if math.isinf(hi):
            if lo >= 0.0:
                wlo = 1e-6 if lo == 0.0 else lo * (1.0 + 1e-9)
                return wlo, max(1e6, lo * 1e6)
            return lo + 1e-9 * abs(lo), lo + 1e6 * max(1.0, abs(lo))
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        if lo + pad >= hi - pad:
            pad = 1e-3 * (hi - lo)
        return lo + pad, hi - pad

    def sample_grid(self, n: int) -> np.ndarray:
        """n sample points: geometric spacing on positive windows, uniform otherwise."""
        a, b = self.finite_window()
        if a > 0.0:
            return np.geomspace(a, b, n)
        return np.linspace(a, b, n)


def _first(x, bad: np.ndarray) -> float:
    """The first element of x flagged in bad."""
    return float(np.broadcast_to(x, bad.shape)[bad].flat[0])


def _floats(v) -> np.ndarray:
    """v as a float array, as ``_apply`` converts a callable's values; a
    float64 array is returned as it is."""
    return np.asarray(v, dtype=float)


def _check_inside(x: np.ndarray, domain: Interval, what: str) -> None:
    """Raise DomainError naming the first element of x outside domain."""
    bad = ~((x > domain.lo) & (x < domain.hi))
    if np.count_nonzero(bad):  # cheaper than bad.any() on small arrays
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
    arrays of brackets.

    All n points of all brackets go to fun in one call, and fun checks
    them; a NaN value gives the verdict 0.  A fun that takes only floats,
    or raises on that call, is rerun one row of points at a time, so its
    error names the same culprit as a row-by-row scan would.
    """
    xs = np.linspace(lo, hi, n)
    try:
        ys = np.asarray(fun(xs), dtype=float)
        whole = ys.shape == xs.shape
    except Exception:  # the row-by-row rerun raises it again
        whole = False
    if not whole:
        ys = np.array([np.asarray(fun(x), dtype=float) for x in xs])
    diffs = np.diff(ys, axis=0)
    out = np.where(np.all(diffs > 0.0, axis=0), 1, np.where(np.all(diffs < 0.0, axis=0), -1, 0))
    return int(out) if out.ndim == 0 else out


#: Bisection levels that ``_invert_monotone`` evaluates per call of fun.
_DEPTH = 6

#: The most midpoints per call of fun: past about 32 elements, evaluating
#: the 2^d - 1 nodes of each element's tree costs more than the d - 1 calls
#: it saves, so ``_invert_monotone`` takes one level per call.
_TREE_POINTS = 2048

#: Bisection levels after which ``_invert_monotone`` stops in any case.
_MAX_LEVELS = 200


def _bisecting(a, b, tol: float):
    """Where ``_invert_monotone`` still bisects the bracket [a, b]: wider
    than tol relative to max(1, |a|, |b|)."""
    # max(|a|, |b|) is max(b, -a) while a <= b
    return (b - a) > tol * np.maximum(1.0, np.maximum(b, -a))


@lru_cache(maxsize=None)
def _tree(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables of the midpoint tree of depth d on grid positions 0..2^d, one
    row per leaf bracket [j, j + 1]:

    * turns: +1 at each of the leaf's d ancestors (node k sits at grid
      position k + 1) whose step goes up towards it, -1 at those that go
      down, 0 at every other node;
    * ups: the number of ancestors that go up, so that with a 0/1 vector
      of the steps' choices, ups - turns @ choices counts the ancestors
      that disagree with the leaf;
    * ends: the grid positions of the ends of each ancestor's bracket,
      level by level, followed by those of the leaf's own.
    """
    N = 1 << d
    half = N >> np.arange(1, d + 1)
    leaf = np.arange(N)[:, None]
    ancestor = leaf - leaf % (2 * half) + half
    up = leaf >= ancestor
    turns = np.zeros((N, N - 1))
    turns[leaf, ancestor - 1] = np.where(up, 1.0, -1.0)
    ends = np.stack([np.hstack([ancestor - half, leaf]), np.hstack([ancestor + half, leaf + 1])], axis=2)
    tables = turns, up.sum(axis=1)[:, None], ends
    for t in tables:
        t.flags.writeable = False  # shared by every call
    return tables


def _bisect_levels(fun: Callable, target, increasing, a, b, tol: float, d: int):
    """d levels of bisection on the brackets [a, b] (flat arrays, as are
    target and increasing) from one call of fun at all 2^d - 1 midpoints of
    each bracket's tree: bit for bit the brackets that d one-level steps
    reach, or None when that call raises, returns a misshapen array or a
    NaN anywhere.

    Level by level, each node of the tree is the midpoint of its bracket,
    computed as a one-level step computes it.  The step's choice at every
    node picks the one leaf whose ancestors all lead to it; along that
    path, the first bracket that fails the tolerance rule is where
    one-level steps stop, so it is returned in place of the leaf's.
    """
    N, n = 1 << d, a.size
    P = np.empty((N + 1, n))  # one column per element, so the nodes P[1:-1] are contiguous
    P[0], P[N] = a, b
    for k in range(d):
        s = N >> k
        P[s // 2 :: s] = 0.5 * (P[: -1 : s] + P[s::s])
    try:
        Y = np.asarray(fun(P[1:-1]), dtype=float)
    except Exception:  # the one-level replay raises it again
        return None
    if Y.shape != (N - 1, n) or np.count_nonzero(np.isnan(Y)):
        return None
    turns, ups, ends = _tree(d)
    # 0 at the leaf that every ancestor's step leads to, negative elsewhere
    leaf = np.argmax(turns @ ((Y < target) == increasing) - ups, axis=0)
    rows = np.arange(n)
    E = P[ends[leaf], rows[:, None, None]]
    lo, hi = E[:, :, 0], E[:, :, 1]
    active = _bisecting(lo, hi, tol)
    active[:, d] = False  # the leaf's bracket goes to the next round
    return E[rows, np.argmin(active, axis=1)].T


def _invert_monotone(fun: Callable, target, lo, hi, tol: float):
    """Bisection solve of fun(m) = target for monotone fun on [lo, hi], to a
    bracket of relative width tol; elementwise over arrays of targets and
    brackets, each element stopping at its own tolerance.

    fun is evaluated once at the bracket ends and then once per round of
    ``_DEPTH`` levels, at every midpoint those levels could visit (see
    ``_bisect_levels``), or of one level when the elements are so many that
    a round would exceed ``_TREE_POINTS`` midpoints; the result is bit for
    bit that of one level per call.  All points lie in [lo, hi], so callers
    check the bracket against their domains once and may pass raw kernels
    (see ``_fused``).  Every value is still checked: a NaN, which would
    steer the bisection silently, raises DomainError naming its point.  A
    round whose call raises, returns a misshapen array or a NaN anywhere in
    its tree is replayed one level per call, with the midpoints in the
    shape of the result, so an error names the point that one-level
    bisection meets first, a NaN off its path goes unseen, and a fun taking
    only floats works.
    """

    def values(x):
        y = np.asarray(fun(x), dtype=float)
        if np.count_nonzero(bad := np.isnan(y)):
            raise DomainError(f"the function to invert is NaN at {_first(x, bad)!r}")
        return y

    flo, fhi = values(lo), values(hi)
    increasing = fhi >= flo
    # Floating-point drift can push the target marginally outside the bracket.
    target = np.minimum(np.maximum(target, np.minimum(flo, fhi)), np.maximum(flo, fhi))
    args = np.broadcast_arrays(target, increasing, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape = args[0].shape
    target, increasing, a, b = (v.reshape(-1) for v in args)
    depth = _DEPTH if a.size * ((1 << _DEPTH) - 1) <= _TREE_POINTS else 1
    levels, replay = _MAX_LEVELS, 0
    while levels:
        active = _bisecting(a, b, tol)
        if not np.count_nonzero(active):
            break
        d = 1 if replay else min(depth, levels)
        if d == 1:
            m = 0.5 * (a + b)
            raise_a = active & ((values(m.reshape(shape)).reshape(-1) < target) == increasing)
            a, b = np.where(raise_a, m, a), np.where(active ^ raise_a, m, b)
            replay = max(replay - 1, 0)
        elif (bracket := _bisect_levels(fun, target, increasing, a, b, tol, d)) is not None:
            a, b = bracket
        else:
            replay = d
            continue
        levels -= d
    out = 0.5 * (a + b)
    return float(out[0]) if shape == () else out.reshape(shape)


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
        floats (at least two); returns self so built-ins can chain."""
        xs = self.domain.sample_grid(VALIDATION_POINTS)
        ys = self.value(xs)
        normal = np.isfinite(ys) & (np.abs(ys) >= np.finfo(float).tiny)
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
