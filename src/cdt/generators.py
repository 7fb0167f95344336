"""Strictly increasing scalar generators and interval utilities.

A generator is the building block of all quasi-arithmetic machinery: a
strictly increasing differentiable map bundled with its inverse.  Decreasing
candidates (such as x -> 1/x) are stored through their negated, increasing
representative, which leaves every induced mean unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, ParamError

INF = float("inf")

#: Relative step for finite-difference derivatives.
FD_STEP = 1e-6

#: Sample count for construction-time generator checks.
VALIDATION_POINTS = 64

#: Relative tolerance for the inverse(forward(x)) = x round trip.
ROUNDTRIP_RTOL = 1e-10


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
        if math.isinf(hi):
            if lo >= 0.0:
                wlo = 1e-6 if lo == 0.0 else lo * (1.0 + 1e-9)
                return wlo, max(1e6, lo * 1e6)
            return lo + 1e-9 * abs(lo), lo + 1e6 * max(1.0, abs(lo))
        if math.isinf(lo):
            if hi <= 0.0:
                whi = -1e-6 if hi == 0.0 else hi * (1.0 + 1e-9)
                return min(-1e6, hi * 1e6), whi
            return hi - 1e6 * max(1.0, abs(hi)), hi - 1e-9 * abs(hi)
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


def finite_difference(f: Callable[[float], float], x: float, domain: Interval = Interval()) -> float:
    """Central difference with step 1e-6*max(1,|x|), shrunk to stay inside domain."""
    h = FD_STEP * max(1.0, abs(x))
    lo_room = x - domain.lo
    hi_room = domain.hi - x
    h = min(h, 0.45 * lo_room, 0.45 * hi_room)
    if h <= 0.0 or not math.isfinite(h):
        raise DomainError(f"cannot differentiate at {x}: no room inside {domain}")
    return (float(f(x + h)) - float(f(x - h))) / (2.0 * h)


def _limit_value(fn: Callable[[float], float], x: float, side: int) -> float:
    """Value (or directional limit surrogate) of an increasing fn at an endpoint."""
    try:
        with np.errstate(all="ignore"):
            v = float(fn(x))
    except (ValueError, OverflowError, ZeroDivisionError):
        return -INF if side < 0 else INF
    if math.isnan(v):
        return -INF if side < 0 else INF
    return v


def _monotone_direction(fun: Callable[[float], float], lo: float, hi: float, n: int = 33) -> int:
    """+1 or -1 when fun is strictly increasing or decreasing on n equispaced
    points of [lo, hi], else 0 (sampled, so a falsification only)."""
    diffs = np.diff([float(fun(float(x))) for x in np.linspace(lo, hi, n)])
    if np.all(diffs > 0.0):
        return 1
    if np.all(diffs < 0.0):
        return -1
    return 0


def _invert_monotone(fun: Callable[[float], float], target: float, lo: float, hi: float, tol: float) -> float:
    """Bisection solve of fun(m) = target for monotone fun on [lo, hi], to a
    bracket of relative width tol."""
    flo, fhi = float(fun(lo)), float(fun(hi))
    increasing = fhi >= flo
    # Floating-point drift can push the target marginally outside the bracket.
    target = min(max(target, min(flo, fhi)), max(flo, fhi))
    a, b = lo, hi
    for _ in range(200):
        if (b - a) <= tol * max(1.0, abs(a), abs(b)):
            break
        m = 0.5 * (a + b)
        if (float(fun(m)) < target) == increasing:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


@dataclass(frozen=True)
class Generator:
    """Strictly increasing differentiable map with an explicit inverse.

    ``forward`` and ``inverse`` should accept floats (numpy arrays too, for
    the built-ins); ``derivative`` may be omitted, in which case a central
    finite difference with step 1e-6*max(1,|x|) is used.  ``power_order`` is
    the order d when the induced mean is the power mean P_d (identity 1,
    log 0, reciprocal -1, power:d d), and None otherwise.
    """

    id: str
    domain: Interval
    forward: Callable
    inverse: Callable
    derivative: Callable | None = None
    power_order: float | None = None

    def value(self, x: float) -> float:
        if not self.domain.contains(x):
            raise DomainError(f"{x!r} outside domain {self.domain} of generator {self.id!r}")
        try:
            with np.errstate(all="ignore"):
                v = float(self.forward(x))
        except OverflowError as exc:
            raise DomainError(f"generator {self.id!r} overflowed at {x!r}") from exc
        if math.isnan(v):
            raise DomainError(f"generator {self.id!r} returned NaN at {x!r}")
        return v

    def inv(self, y: float) -> float:
        try:
            with np.errstate(all="ignore"):
                v = float(self.inverse(y))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"{y!r} outside the image of generator {self.id!r}") from exc
        if math.isnan(v):
            raise DomainError(f"{y!r} outside the image of generator {self.id!r}")
        return v

    def deriv(self, x: float) -> float:
        if not self.domain.contains(x):
            raise DomainError(f"{x!r} outside domain {self.domain} of generator {self.id!r}")
        if self.derivative is not None:
            return float(self.derivative(x))
        return finite_difference(self.forward, x, self.domain)

    def image(self) -> Interval:
        lo = _limit_value(self.forward, self.domain.lo, -1)
        hi = _limit_value(self.forward, self.domain.hi, +1)
        return Interval(lo, hi)

    def validate(self) -> "Generator":
        """Run sampled invariant checks; returns self so built-ins can chain."""
        xs = self.domain.sample_grid(VALIDATION_POINTS)
        ys = [self.value(float(x)) for x in xs]
        for a, b in zip(ys, ys[1:]):
            if not a < b:
                raise ParamError(f"generator {self.id!r} is not strictly increasing")
        for x, y in zip(xs, ys):
            back = self.inv(y)
            if abs(back - float(x)) > ROUNDTRIP_RTOL * max(1.0, abs(float(x))):
                raise ParamError(
                    f"generator {self.id!r} inverse round trip failed at {float(x)!r}"
                )
            if not self.deriv(float(x)) > 0.0:
                raise ParamError(f"generator {self.id!r} derivative not positive at {float(x)!r}")
        return self


IDENTITY = Generator(
    "identity", Interval(), lambda x: x, lambda y: y, lambda x: 1.0, power_order=1.0
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
        return Generator(
            "power:0", Interval(0.0, INF), np.log, np.exp, lambda x: 1.0 / x, power_order=0.0
        )
    if abs(delta) < _POWER_DELTA_MIN:
        raise ParamError(
            f"power generator with |delta|={abs(delta):g} < {_POWER_DELTA_MIN:g} "
            "cannot meet the inverse round-trip tolerance; use delta=0 (geometric limit)"
        )
    # Short form when it round-trips, so parse_mean(format_mean(m)) == m.
    name = f"power:{delta:g}" if float(f"{delta:g}") == delta else f"power:{delta!r}"
    if delta > 0.0:
        return Generator(
            name,
            Interval(0.0, INF),
            lambda x: np.power(x, delta),
            lambda y: np.exp(np.log(y) / delta),
            lambda x: delta * x ** (delta - 1.0),
            power_order=delta,
        ).validate()
    return Generator(
        name,
        Interval(0.0, INF),
        lambda x: -np.power(x, delta),
        lambda y: np.exp(np.log(-y) / delta),
        lambda x: -delta * x ** (delta - 1.0),
        power_order=delta,
    ).validate()


_BUILTINS = {
    "identity": IDENTITY,
    "log": LOG,
    "reciprocal": RECIPROCAL,
    "exp": EXP,
}


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
