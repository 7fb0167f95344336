"""Abstract mean families: quasi-arithmetic, power, Lehmer, Gini, Lagrange,
Cauchy, Stolarsky, and dual means, with weighted variants and a sampled
dominance comparison.

Every mean here is symmetric; the weight convention throughout the package
puts weight (1 - alpha) on the first argument and alpha on the second.

All families share one kernel, :func:`weighted_means`, elementwise over
columns of arguments (Lagrange, Cauchy, Stolarsky and dual means only for two
arguments of weight 1/2); power, Lehmer and Gini means are Gini means
G_{r,s} (``MeanSpec.gini_orders``) and share one branch.  The scalar API
(:func:`mean_value`, :func:`weighted_mean`) requires arguments strictly
inside the domain; array callers may pass zeros, and a zero argument takes
the x -> 0+ limit of the mean: 0 log 0 counts as 0, and where the mean
collapses (a negative-order or geometric mean with a zero argument) it is
0.  Spec strings (``qa:log``, ``gini:1:2``, ``dual:power:1``) name means;
:func:`format_mean` and :func:`parse_mean` read one table of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    NonInvertibleDerivative,
    NonInvertibleRatio,
    ParamError,
    UnsupportedWeights,
    WeightError,
    require_int,
)
from .generators import IDENTITY, LOG, RECIPROCAL, Generator, Interval, get_generator, power_generator
from .generators import _apply, _check_inside, _first, _invert_monotone, _monotone_direction

WEIGHT_SUM_TOL = 1e-9

#: Relative argument gap below which Lagrange/Cauchy/Stolarsky means return the
#: midpoint (removable singularity, first-order accurate).
NEAR_EQUAL_REL = 1e-9

_GENERATOR = "generator name"  # a field read as a generator; any other is a float


class _Grammar(NamedTuple):
    head: str  # the spec's first token
    fields: tuple  # (MeanSpec field, the word parse errors name it by), in token order
    weighted: bool  # whether the family has weighted forms


#: The spec grammar of every family but ``dual``, which wraps a spec.
_GRAMMAR = {
    "quasi_arithmetic": _Grammar("qa", (("generator", _GENERATOR),), True),
    "power": _Grammar("power", (("delta", "power exponent"),), True),
    "lehmer": _Grammar("lehmer", (("delta", "lehmer order"),), True),
    "gini": _Grammar("gini", (("delta", "gini exponent"), ("delta2", "gini exponent")), True),
    "lagrange": _Grammar("lagrange", (("generator", _GENERATOR),), False),
    "cauchy": _Grammar("cauchy", (("generator", _GENERATOR), ("generator2", _GENERATOR)), False),
    "stolarsky": _Grammar("stolarsky", (("delta", "stolarsky exponent"),), False),
}
_FAMILY_OF_HEAD = {g.head: family for family, g in _GRAMMAR.items()}


@dataclass(frozen=True)
class MeanSpec:
    """Tagged description of a weighted bivariate or n-ary mean."""

    family: str
    generator: Generator | None = None
    generator2: Generator | None = None
    delta: float | None = None
    delta2: float | None = None
    inner: "MeanSpec | None" = None

    @property
    def supports_weights(self) -> bool:
        return self.family in _GRAMMAR and _GRAMMAR[self.family].weighted

    @property
    def gini_orders(self) -> tuple[float, float] | None:
        """The canonical (r, s) when this is the Gini mean G_{r,s} at every
        weight, else None: (d, 0) for a power mean P_d (``power:d``, ``qa:``
        of power order d), (d + 1, d) for the Lehmer mean L_d, and a Gini
        mean's exponents in decreasing order but for a zero one, put last."""
        if self.family in ("power", "quasi_arithmetic"):
            d = self.delta if self.family == "power" else self.generator.power_order
            return None if d is None else (d, 0.0)
        if self.family not in ("lehmer", "gini"):
            return None
        pair = (self.delta + 1.0, self.delta) if self.family == "lehmer" else (self.delta, self.delta2)
        r, s = sorted(pair, reverse=True)
        return (s, r) if r == 0.0 else (r, s)

    @property
    def scales_out(self) -> bool:
        """Whether :func:`weighted_means` gives M(x, 0) = x M(1, 0) and
        M(0, y) = y M(0, 1) bit for bit: the Gini kernel returns s g(X / s)
        with s the larger argument (or the smaller, which is then 0), and
        X / s is then exactly the unit column."""
        return self.gini_orders is not None

    @property
    def homogeneous(self) -> bool:
        if self.gini_orders is not None or self.family == "stolarsky":
            return True
        if self.family == "dual":
            return self.inner.homogeneous
        # Lagrange/Cauchy means are homogeneous only for special generators;
        # flag conservatively.
        return False

    def __str__(self) -> str:
        return format_mean(self)


def _num(x: float) -> str:
    f = float(x)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def quasi_arithmetic(gen: Generator) -> MeanSpec:
    return MeanSpec("quasi_arithmetic", generator=gen)


def power(delta: float) -> MeanSpec:
    return MeanSpec("power", delta=float(delta))


def lehmer(delta: float) -> MeanSpec:
    return MeanSpec("lehmer", delta=float(delta))


def gini(delta1: float, delta2: float) -> MeanSpec:
    return MeanSpec("gini", delta=float(delta1), delta2=float(delta2))


def lagrange(gen: Generator) -> MeanSpec:
    return MeanSpec("lagrange", generator=gen)


def cauchy(f: Generator, g: Generator) -> MeanSpec:
    return MeanSpec("cauchy", generator=f, generator2=g)


def stolarsky(p: float) -> MeanSpec:
    return MeanSpec("stolarsky", delta=float(p))


def dual(spec: MeanSpec) -> MeanSpec:
    if not spec.homogeneous:
        raise ParamError("dual mean requires a homogeneous base mean")
    return MeanSpec("dual", inner=spec)


ARITHMETIC = quasi_arithmetic(IDENTITY)
GEOMETRIC = quasi_arithmetic(LOG)
HARMONIC = quasi_arithmetic(RECIPROCAL)


def _wsum(W: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sum_i W[i] * Y[i], accumulated in argument order so that a column's
    value does not depend on how many columns share the call.  A single
    column is one ``np.add.accumulate`` down its arguments (sequential, so
    the same sum); over several columns a loop over the rows is faster."""
    if Y.shape[1:] == (1,):
        return np.add.accumulate(W.reshape(Y.shape) * Y, axis=0)[-1]
    acc = W[0] * Y[0]
    for i in range(1, len(W)):
        acc += W[i] * Y[i]
    return acc


#: Terms below which ``_exact_sum`` hands its array to ``math.fsum``: at
#: about this many, fsum's list costs as much as the numpy passes.
_EXACT_SUM_MIN = 700


def _exact_sum(v: np.ndarray) -> float:
    """``math.fsum(v.tolist())`` of a one-dimensional float64 array, bit for
    bit, without the list, and exactly rounded where fsum's partials overflow.

    Each term is M 2^(e-53) with M an integer of 53 bits (``np.frexp``),
    split into 27 high and 26 low bits.  ``np.bincount`` sums each half per
    exponent, exactly (integers below 2^53, since there are fewer than 2^26
    terms), and one Python integer per occupied exponent gathers the exact
    total, which one int division rounds correctly, as fsum rounds: a small
    superaccumulator (Neal 2015, arXiv:1505.05571).  Short arrays and
    non-finite terms go to fsum for its value or error, and finite terms
    come back when its partials overflow.  A zero total is +0.0, as fsum
    gives it; a total past the float range raises DomainError.
    """
    n = len(v)
    exact = n < 1 << 26 and np.isfinite(v).all()
    past = f"overflow past the float range: the exact sum of {n} terms is too large for a float"
    if n < _EXACT_SUM_MIN or not exact:
        try:
            return math.fsum(v.tolist())
        except OverflowError:  # of the partials; finite terms are summed exactly below
            if not exact:
                raise DomainError(past) from None
    m, e = np.frexp(v)
    m *= 2.0**27
    hi = np.trunc(m)
    m -= hi  # the low 26 bits, in units of 2^-26
    e0 = min(int(e.min()), 0)  # the total counts units of 2^(e0 - 53), at most 2^-53
    e -= e0
    H, L = np.bincount(e, hi), np.bincount(e, m) * 2.0**26
    bins = np.flatnonzero((H != 0.0) | (L != 0.0))
    total = 0
    for s, h, lo in zip(bins.tolist(), H[bins].tolist(), L[bins].tolist()):
        total += ((int(h) << 26) + int(lo)) << s
    try:
        return total / (1 << (53 - e0))
    except OverflowError:
        raise DomainError(past) from None


def _gini_means(r: float, s: float, X: np.ndarray, W: np.ndarray, lo, hi) -> np.ndarray:
    """Gini means G_{r,s} = (sum w x^r / sum w x^s)^(1/(r - s)) with r > s
    or s = 0, and their r = s limit exp(sum w x^s log x / sum w x^s).

    With xm the largest argument (the smallest for a power mean of negative
    order), L = log(X / xm) and E = exp(sL - max sL), so that no term
    overflows, log(G / xm) is log1p(S) / (r - s) with
    S = sum w E expm1((r - s) L) / sum w E: exact as r -> s, where the
    ratio of sums cancels, but not where S nears -1; below -1/2 the direct
    sum is exact instead.  At s = 0, the power mean P_r, E is 1 and nothing
    is normalized."""
    if s == 0.0 and r == 1.0:
        return _wsum(W, X)
    xm = lo if s == 0.0 and r < 0.0 else hi
    L = np.log(X / xm)
    if s == 0.0:
        avg = lambda Y: _wsum(W, Y)
    else:
        sL = s * L
        E = np.exp(sL - np.maximum.reduce(sL))
        total = _wsum(W, E)
        avg = lambda Y: _wsum(W, E * Y) / total
    d = r - s
    if d == 0.0:  # 0 log 0 = 0 where s > 0; a geometric mean collapses
        return xm * np.exp(avg(L if s == 0.0 else np.where(X == 0.0, 0.0, L)))
    dL = d * L
    S = avg(np.expm1(dL))
    logT = np.log1p(S)
    low = S < -0.5
    if np.logical_or.reduce(low):
        logT = np.where(low, np.log(avg(np.exp(dL))), logT)
    return xm * np.exp(logT / d)


def _generator_means(gen: Generator, X: np.ndarray, W: np.ndarray) -> np.ndarray:
    if np.any((X < gen.domain.lo) | (X > gen.domain.hi)):
        raise DomainError(f"argument outside the domain {gen.domain} of generator {gen.id!r}")
    what = f"generator {gen.id!r}"
    return _apply(gen.inverse, _wsum(W, _apply(gen.forward, X, what)), what)


def _mean_value_means(spec: MeanSpec, X: np.ndarray) -> np.ndarray:
    """Lagrange and Cauchy means (f'/g')^{-1}((f(q) - f(p)) / (g(q) - g(p)))
    of the columns (p, q) of X, solved in one bisection over all columns;
    nearly equal arguments give their midpoint."""
    f, g = spec.generator, spec.generator2 or IDENTITY
    FX, GX = f.value(X), g.value(X)
    p, q = X
    out = 0.5 * (p + q)
    far = np.abs(p - q) >= NEAR_EQUAL_REL * np.maximum(1.0, np.abs(p))
    if far.any():
        a, b = np.minimum(p, q)[far], np.maximum(p, q)[far]
        ratio = lambda x: f.deriv(x) / g.deriv(x)
        flat = _monotone_direction(ratio, a, b) == 0
        if flat.any():
            error = NonInvertibleRatio if spec.family == "cauchy" else NonInvertibleDerivative
            raise error(f"{f.id}'/{g.id}' is not monotone on [{_first(a, flat)!r}, {_first(b, flat)!r}]")
        target = ((FX[1] - FX[0]) / (GX[1] - GX[0]))[far]
        out[far] = _invert_monotone(ratio, target, a, b, 1e-14)
    return out


def _stolarsky_means(p: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Stolarsky means of the pairs (lo, hi); see :func:`stolarsky_mean`."""
    L = np.log1p((hi - lo) / lo)
    if abs(p) < 1e-7:
        out = lo * np.expm1(L) / L
    elif abs(p - 1.0) < 1e-7:
        out = lo * np.exp(L * hi / (hi - lo) - 1.0)
    elif p > 0.0:
        out = hi * (np.expm1(-p * L) / (p * np.expm1(-L))) ** (1.0 / (p - 1.0))
    else:
        out = lo * (np.expm1(p * L) / (p * np.expm1(L))) ** (1.0 / (p - 1.0))
    return np.where(L < NEAR_EQUAL_REL, 0.5 * (lo + hi), out)


def weighted_means(spec: MeanSpec, X, W) -> np.ndarray:
    """Elementwise weighted means M(X[0], ..., X[n-1]; W[0], ..., W[n-1]).

    ``X`` has shape (n, ...) with the n arguments along axis 0; ``W`` holds
    one normalized weight per argument (arguments of weight 0 are ignored),
    or one per argument and column, shaped like ``X``.  Lagrange, Cauchy,
    Stolarsky and dual means take n = 2 and weights 1/2 only, else raise
    UnsupportedWeights.  Callers validate their inputs.  Power, Lehmer and
    Gini means share one scaled Gini branch; other generators are evaluated
    once per array.  A zero argument takes the x -> 0+ limit (see the module
    docstring) unless another argument of its column is NaN; any other
    non-finite mean raises DomainError.
    """
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    if W.ndim == 1 and np.count_nonzero(W) < len(W):
        X, W = X[W != 0.0], W[W != 0.0]
    shape = X.shape[1:]
    X = X.reshape(len(X), -1)
    W = W.reshape(X.shape) if W.ndim > 1 else W
    lo, hi = np.minimum.reduce(X), np.maximum.reduce(X)
    fam, orders = spec.family, spec.gini_orders
    with np.errstate(all="ignore"):
        if not spec.supports_weights and (len(X) != 2 or np.any(np.abs(W - 0.5) > 1e-12)):
            raise UnsupportedWeights(f"{fam} mean has no weighted form (only two arguments of weight 1/2)")
        if orders is not None:
            out = _gini_means(*orders, X, W, lo, hi)
        elif fam == "quasi_arithmetic":
            out = _generator_means(spec.generator, X, W)
        elif fam in ("lagrange", "cauchy"):
            out = _mean_value_means(spec, X)
        elif fam == "stolarsky":
            out = _stolarsky_means(spec.delta, lo, hi)
        else:  # dual
            out = X[0] * X[1] / weighted_means(spec.inner, X, (0.5, 0.5))
        if not np.logical_and.reduce(np.isfinite(out)):
            bad = ~np.isfinite(out)
            other = bad & (np.isnan(X).any(axis=0) | ~(X == 0.0).any(axis=0))  # NaN never collapses
            if other.any():
                raise DomainError(f"{spec} mean is not finite at arguments {X[:, other][:, 0]!r}")
            out = np.where(bad, 0.0, out)  # collapsed in the x -> 0+ limit
    return np.minimum(np.maximum(out, lo), hi).reshape(shape)


def _checked_means(spec: MeanSpec, X, W) -> np.ndarray:
    """weighted_means of arguments that must lie strictly inside the domain:
    that of the mean's generators, else (0, inf)."""
    X = np.asarray(X, dtype=float)
    for gen in filter(None, (spec.generator, spec.generator2)):
        _check_inside(X, gen.domain, f"generator {gen.id!r}")
    if spec.generator is None and not np.all(X > 0.0):
        raise DomainError(f"{spec.family} mean requires strictly positive values")
    return weighted_means(spec, X, W)


def weighted_mean(spec: MeanSpec, values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted n-ary mean.

    For families without a barycentric form (Lagrange, Cauchy, Stolarsky,
    dual) only the plain bivariate call with weights (1/2, 1/2) is accepted.
    """
    values = [float(v) for v in values]
    weights = [float(w) for w in weights]
    if not values or len(values) != len(weights):
        raise WeightError("values and weights must be nonempty and of equal length")
    if any(w <= 0.0 for w in weights):
        raise WeightError("weights must be strictly positive")
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL:g}")
    return float(_checked_means(spec, values, weights))


def mean_value(spec: MeanSpec, x: float, y: float, alpha: float = 0.5) -> float:
    """Barycentric bivariate mean M(x, y; 1-alpha, alpha).

    alpha may take the closed endpoints 0 and 1, where the mean interpolates
    its arguments exactly.
    """
    x, y, alpha = float(x), float(y), float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise WeightError(f"alpha={alpha!r} outside [0, 1]")
    return float(_checked_means(spec, (x, y), (1.0 - alpha, alpha)))


def lagrange_mean(f: Generator, p: float, q: float) -> float:
    """Mean-value mean: (f')^{-1}((f(q) - f(p)) / (q - p)), the Cauchy mean
    with g = identity."""
    return mean_value(lagrange(f), p, q)


def cauchy_mean(f: Generator, g: Generator, p: float, q: float) -> float:
    """Cauchy mean-value mean: (f'/g')^{-1}((f(q) - f(p)) / (g(q) - g(p)))."""
    return mean_value(cauchy(f, g), p, q)


def stolarsky_mean(p_param: float, x: float, y: float) -> float:
    """Stolarsky mean ((y^p - x^p) / (p (y - x)))^(1/(p-1)): logarithmic at
    p = 0, identric at p = 1.

    With lo, hi = min, max and L = log1p((hi - lo) / lo) it is evaluated as
    hi (expm1(-pL) / (p expm1(-L)))^(1/(p-1)) for p > 0, as
    lo (expm1(pL) / (p expm1(L)))^(1/(p-1)) for p < 0, as lo expm1(L) / L
    for |p| < 1e-7 (accurate to first order in p) and as
    lo exp(L hi / (hi - lo) - 1) at p = 1.  Within 1e-5 of p = 1 the 1/(p-1)
    amplification leaves a relative error of about 2e-10.
    """
    return mean_value(stolarsky(p_param), x, y)


def dual_mean(spec: MeanSpec, x: float, y: float) -> float:
    """Dual mean M*(x, y) = xy / M(x, y) of a symmetric homogeneous mean."""
    return mean_value(dual(spec), x, y)


class Dominance(Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class DominanceResult:
    """Sampling verdict for mean dominance; a falsification, never a proof."""

    verdict: Dominance
    #: triple (x, y, alpha) where the first mean exceeded the second, if found
    above: tuple[float, float, float] | None
    #: triple (x, y, alpha) where the first mean fell below the second, if found
    below: tuple[float, float, float] | None


def dominates(
    a: MeanSpec,
    b: MeanSpec,
    domain: tuple[float, float] | Interval,
    samples: int = 10_000,
    seed: int = 0,
) -> DominanceResult:
    """Compare two means on sampled (x, y, alpha) triples over ``domain``.

    Returns DOMINATES when a >= b at every sample, DOMINATED_BY when a <= b at
    every sample (equality everywhere therefore reports DOMINATES), and
    INCOMPARABLE otherwise, with the counterexample triple of lowest sample
    index for each violated direction.  Each mean is evaluated once, over all
    samples.  A ``samples`` that is not an integer or is below one, or a
    domain whose width is not a finite float, raises ParamError.
    """
    lo, hi = map(float, (domain.lo, domain.hi) if isinstance(domain, Interval) else domain)
    require_int(samples, "samples")
    if samples < 1:
        raise ParamError(f"samples={samples!r}: dominance needs at least one sample")
    if not math.isfinite(hi - lo):  # numpy's uniform(lo, hi) would overflow forming it
        raise ParamError(f"cannot sample the window ({lo!r}, {hi!r}): its width is not a finite float")
    rng = np.random.default_rng(seed)
    xs, ys = X = rng.uniform(lo, hi, (2, samples))
    weighted = a.supports_weights and b.supports_weights
    als = rng.uniform(0.0, 1.0, samples) if weighted else np.full(samples, 0.5)
    W = np.stack([1.0 - als, als])
    va, vb = _checked_means(a, X, W), _checked_means(b, X, W)
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(va), np.abs(vb)))
    up, down = va > vb + tol, va < vb - tol
    above = (float(xs[up][0]), float(ys[up][0]), float(als[up][0])) if up.any() else None
    below = (float(xs[down][0]), float(ys[down][0]), float(als[down][0])) if down.any() else None
    if below is None:
        return DominanceResult(Dominance.DOMINATES, above, None)
    if above is None:
        return DominanceResult(Dominance.DOMINATED_BY, None, below)
    return DominanceResult(Dominance.INCOMPARABLE, above, below)


def format_mean(spec: MeanSpec) -> str:
    """Compact string form, e.g. ``qa:log``, ``power:2``, ``dual:power:1``."""
    if spec.family == "dual":
        return f"dual:{format_mean(spec.inner)}"
    grammar = _GRAMMAR[spec.family]
    values = (getattr(spec, name) for name, _ in grammar.fields)
    return ":".join([grammar.head, *(v.id if isinstance(v, Generator) else _num(v) for v in values)])


def _take(tokens: list[str], i: int, what: str) -> tuple[float | Generator, int]:
    """The field that ``what`` names, read at tokens[i] (a ``power`` generator
    also takes the exponent after it), and the index that follows."""
    if i >= len(tokens):
        raise ParamError(f"missing {what} in mean spec")
    tok = tokens[i]
    if what == _GENERATOR:
        if tok == "power":
            d, i = _take(tokens, i + 1, "power exponent")
            return power_generator(d), i
        return get_generator(tok), i + 1
    try:
        value = float(tok)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParamError(f"bad {what} {tok!r} in mean spec")
    return value, i + 1


def parse_mean(text: str) -> MeanSpec:
    """Parse the compact string form produced by :func:`format_mean`.

    A number that does not parse or is not finite (``power:inf``,
    ``lehmer:nan``) raises ParamError.
    """
    tokens = [t for t in text.strip().split(":") if t != ""]
    if not tokens:
        raise ParamError("empty mean spec")
    if tokens[0] == "dual":
        return dual(parse_mean(":".join(tokens[1:])))
    family = _FAMILY_OF_HEAD.get(tokens[0])
    if family is None:
        raise ParamError(f"unknown mean family {tokens[0]!r}")
    values, i = {}, 1
    for name, what in _GRAMMAR[family].fields:
        values[name], i = _take(tokens, i, what)
    if i != len(tokens):
        raise ParamError(f"trailing tokens in mean spec {text!r}")
    return MeanSpec(family, **values)
