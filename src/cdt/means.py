"""Abstract mean families: quasi-arithmetic, power, Lehmer, Gini, Lagrange,
Cauchy, Stolarsky, and dual means, with weighted variants and a sampled
dominance comparison.

Every mean here is symmetric; the weight convention throughout the package
puts weight (1 - alpha) on the first argument and alpha on the second.

All families share one kernel, :func:`weighted_means`, elementwise over
columns of arguments (Lagrange, Cauchy, Stolarsky and dual means only for two
arguments of weight 1/2); power, Lehmer and Gini means are Gini means
G_{r,s} (``MeanSpec.gini_orders``) and share one branch.  Its form follows
the order gap d = r - s.  Where |d| >= 1 the mean is a ratio of sums of
nonnegative terms raised to 1/d, which cannot cancel, with products and
square or cube roots for |d| = 1, 2, 3: H, P_-1 and P_2 take no
transcendental function, and a Lehmer mean (d = 1) only the log and exp
of its x^s factor.  Where 0 < |d| < 1 the ratio nears 1 as d -> 0 and its
1/d root would amplify its rounding by 1/|d|, so the branch takes expm1
and log1p of d log(x / xm).  Gaps below 1e-290, r = s included, take the
r = s limit.  The ratio forms of gaps 1, 2 and 3 were within 1.5 ulps of
a 50-digit oracle for power means; ``_gini_means`` states the bounds.

The scalar API (:func:`mean_value`, :func:`weighted_mean`) requires
arguments strictly inside the domain; array callers may pass zeros, and a
zero argument takes the x -> 0+ limit of the mean: 0 log 0 counts as 0,
and where the mean collapses (a negative-order or geometric mean with a
zero argument) it is 0.  Spec strings (``qa:log``, ``gini:1:2``,
``dual:power:1``) name means; :func:`format_mean` and :func:`parse_mean`
read one table of them.
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
    require_seed,
)
from .generators import IDENTITY, LOG, RECIPROCAL, Generator, Interval, get_generator, power_generator
from .generators import _apply, _check_inside, _checked, _first, _invert_monotone, _monotone_direction
from .quadrature import _WG, _WK, _XK

WEIGHT_SUM_TOL = 1e-9

#: Relative argument gap |p - q| / max(1, |p|) below which Lagrange, Cauchy
#: and Stolarsky means return the midpoint: the removable singularity, where
#: the midpoint is off by O(gap^2), within 1.8e-19 of a 50-digit oracle at
#: p = 3 for the 14 generator pairs of the solver pins.  At a one-ulp gap a
#: Lagrange or Cauchy solve would find f'/g' flat on its scan.
NEAR_EQUAL_REL = 1e-9

#: Relative gap |p - q| / min(|p|, |q|) from which Lagrange and Cauchy means
#: take their divided differences as quotients in any case.  At p = 3, over
#: the same 14 pairs, quotients were within 3.6e-15 to 6.8e-15 of the oracle
#: at gaps from 3e-2 to 0.16 (1.5e-14 at 2e-2), and K15 means within 5.9e-16
#: at 40 gaps from 1.01e-9 to 0.124.  The solver pins' closest far pair, at
#: 1/6, keeps its quotient bit for bit.
_QUOTIENT_REL = 0.125

#: |K15 - G7| relative to K15 up to which a closer pair takes the K15 mean of
#: each derivative (see ``_k15_mean``); past it the derivative varies too
#: much over [p, q] for 15 points, and the pair keeps its quotient.  Exp
#: varies on an absolute scale: on (400, 449.6) K15 was 4.8e-6 off, G7 8e-2
#: from it.  Over log, exp, reciprocal and powers from -30 to 40, at |p|
#: from 0.01 to 400 and gaps from 1e-9 to 0.124 (1008 brackets), rounding
#: alone gave distances up to 2.9e-15 (exp at 400), K15 went past 1e-14
#: only from a distance of 4.3e-4 up, and the quotient was within 1.5e-16
#: wherever the distance passed 1e-10.
_K15_REL = 1e-10

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


def _k15_mean(fun, a, b) -> tuple[np.ndarray, np.ndarray]:
    """The K15 sum of the mean of fun over [a, b] and its distance from the
    G7 sum on every other node, elementwise over arrays of brackets, in one
    call of fun on 15 points per bracket and summed as ``_wsum`` sums.  The
    mean of f' is the divided difference (f(b) - f(a)) / (b - a), which
    this form gives without cancellation for nearly equal a and b, while
    the distance stays small against it (see ``_K15_REL``)."""
    Y = fun(a + np.multiply.outer(0.5 + 0.5 * _XK, b - a))
    kronrod = _wsum(_WK, Y)
    return 0.5 * kronrod, 0.5 * np.abs(kronrod - _wsum(_WG, Y[1::2]))


#: Terms below which ``_exact_sum`` hands its array to ``math.fsum``: at
#: about this many, fsum's list costs as much as the two extraction passes.
_EXACT_SUM_MIN = 240


def _exact_sum(v: np.ndarray) -> float:
    """``math.fsum(v.tolist())`` of a one-dimensional float64 array, bit for
    bit, without the list, and exactly rounded where fsum's partials overflow.

    Two error-free extractions (Rump, Ogita and Oishi 2008, SIAM J. Sci.
    Comput. 31(1)): with 2^M >= n + 2 and sigma = 2^k >= 2^M max|v|,
    q = (v + sigma) - sigma and v - q are exact and numpy's sum of q is
    exact in any order.  If a second pass at sigma 2^(M-53) leaves v - q as
    it is, that sums exactly too, and one IEEE addition of the two sums
    rounds the exact total as fsum does.  A second residual, a sigma past
    the float range or a second unit sigma 2^(M-106) below the normal range
    sends the terms to a superaccumulator.  Short arrays and non-finite
    terms go to fsum for its value or error.  A zero total is +0.0, as fsum
    gives it; a total past the float range raises DomainError.
    """
    n = len(v)
    M = (n + 1).bit_length()  # the least M with 2^M >= n + 2
    if n < _EXACT_SUM_MIN or M > 26:  # the superaccumulator takes at most 2^26 terms
        exact = n < 1 << 26 and np.isfinite(v).all()
    else:
        q = np.abs(v)
        top = float(np.maximum.reduce(q))  # inf or NaN where a term is
        exact = math.isfinite(top)
        k = math.frexp(top)[1] + M
        if exact and k <= 1023 and k + M - 106 >= -1022:
            sigma = 2.0**k
            t1 = np.add.reduce(np.subtract(np.add(v, sigma, out=q), sigma, out=q))
            r = v - q
            sigma *= 2.0 ** (M - 53)
            np.subtract(np.add(r, sigma, out=q), sigma, out=q)
            if (q == r).all():
                return float(t1 + np.add.reduce(r))
            r -= q
            return _superaccumulated(np.concatenate(((t1, np.add.reduce(q)), r[r != 0.0])))
    try:
        if n < _EXACT_SUM_MIN or not exact:
            try:
                return math.fsum(v.tolist())
            except OverflowError:  # of the partials; finite terms are summed exactly below
                if not exact:
                    raise
        return _superaccumulated(v)
    except OverflowError:
        raise DomainError(f"overflow past the float range: the exact sum of {n} terms is too large for a float") from None


def _superaccumulated(v: np.ndarray) -> float:
    """The exactly rounded sum of at most 2^26 finite terms (Neal 2015,
    arXiv:1505.05571): ``np.bincount`` sums the 27 high and 26 low bits of
    the integer mantissas per exponent, one Python integer per exponent
    gathers them, and one int division rounds as fsum rounds (or overflows)."""
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
    return total / (1 << (53 - e0))


#: Order gaps |r - s| below which a Gini mean takes its r = s limit form.
#: Below about 2e-308 / |log(x / xm)| the product d log(x / xm) is no longer
#: a normal float and loses digits, while the limit is off by
#: O(|d| log^2(x / xm)): with |log(x / xm)| <= ~1500, below 1e-283 here.
_LIMIT_GAP = 1e-290


#: y -> y^n by products and t -> t^(1/n) by numpy's roots, for the order
#: gaps n = 1, 2, 3 of the Gini kernel's ratio form
_SMALL_GAPS = {
    1.0: (lambda y: y, lambda t: t),
    2.0: (lambda y: y * y, np.sqrt),
    3.0: (lambda y: y * y * y, np.cbrt),
}


def _gini_means(r: float, s: float, X: np.ndarray, W: np.ndarray, lo, hi) -> np.ndarray:
    """Gini means G_{r,s} = (sum w x^r / sum w x^s)^(1/(r - s)) with r > s
    or s = 0, and their r = s limit exp(sum w x^s log x / sum w x^s).

    With xm the largest argument (the smallest for a power mean of negative
    order), Y = X / xm and, at s != 0, E = exp(sL - max sL) with L = log Y,
    so that no term overflows; at s = 0, the power mean P_r, E is 1.  The
    form follows the order gap d = r - s:

    - |d| >= 1: G = xm (sum w E Y^d / sum w E)^(1/d).  Its sums have
      nonnegative terms, which cannot cancel, and the 1/d root does not
      amplify their rounding.  Powers and roots of |d| = 1, 2, 3 are
      products, a square or a cube root (``_SMALL_GAPS``), so H, P_-1 and
      P_2 take no transcendental function, and a Lehmer mean (d = 1) only
      E's log and exp.
    - 0 < |d| < 1: log(G / xm) = log1p(S) / d with
      S = sum w E expm1(dL) / sum w E.  Here the ratio of sums would cancel
      as r -> s and the root would amplify that by 1/|d|, while S is exact;
      but not where S nears -1, and below -1/2 the direct sum is taken.
    - |d| < ``_LIMIT_GAP``, r = s included: the limit form.

    Against a 50-digit oracle, over arguments from 1e-3 to 1, arguments up
    to 1e+-300 (at most the float range apart), near-equal pairs and
    weights down to 1e-15, the |d| >= 1 forms of gaps 1, 2 and 3 were within
    1.5 ulps (units of 2^-52) where s = 0; the expm1 form was within 15.3.
    Where s != 0, E's exponent costs up to |s| max |log(x / xm)| ulps more:
    2.6 ulps were seen at arguments from 1e-3 to 1 and 168 at 1e+-300 (the
    expm1 form: 4.0 and 596).  The tests hold these forms to 4 ulps plus
    that cost.  Other gaps |d| >= 1 add the rounding of 1/d in the root
    (6.1 ulps were seen for P_-1.5)."""
    if s == 0.0 and r == 1.0:
        return _wsum(W, X)
    xm = lo if s == 0.0 and r < 0.0 else hi
    Y = X / xm
    d = r - s
    if abs(d) < _LIMIT_GAP:
        d = 0.0
    direct = 1.0 <= abs(d) < math.inf  # a NaN or infinite order takes logarithms, which give NaN
    L = None if s == 0.0 and direct else np.log(Y)
    if s == 0.0:
        avg = lambda V: _wsum(W, V)
    else:
        sL = s * L
        E = np.exp(sL - np.maximum.reduce(sL))
        total = _wsum(W, E)
        avg = lambda V: _wsum(W, E * V) / total
    if d == 0.0:  # 0 log 0 = 0 where s > 0; a geometric mean collapses
        return xm * np.exp(avg(L if s == 0.0 else np.where(X == 0.0, 0.0, L)))
    if direct:  # a negative d takes the reciprocal of the power and of the root
        n = abs(d)
        power, root = _SMALL_GAPS.get(n) or (lambda y: y**n, lambda t: t ** (1.0 / n))
        if d > 0.0:
            return xm * root(avg(power(Y)))
        return xm / root(avg(1.0 / power(Y)))
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
    """Lagrange and Cauchy means (f'/g')^{-1}(f[p, q] / g[p, q]) of the
    columns (p, q) of X, solved in one bisection over all columns.

    Nearly equal arguments (``NEAR_EQUAL_REL``) give their midpoint.  Up to
    ``_QUOTIENT_REL`` each divided difference f[p, q] is the K15 mean of f'
    over [p, q], which does not cancel as (f(q) - f(p)) / (q - p) does,
    wherever both K15 means pass their G7 check (``_K15_REL``); the solve
    is then for the bracket fraction theta of xi = a + theta (b - a), so
    that its tolerance is relative to the gap, not to xi.  Other pairs take
    the quotients and solve for xi."""
    f, g = spec.generator, spec.generator2 or IDENTITY
    FX, GX = f.value(X), g.value(X)
    p, q = X
    out = 0.5 * (p + q)
    far = np.abs(p - q) >= NEAR_EQUAL_REL * np.maximum(1.0, np.abs(p))
    if far.any():
        a, b = np.minimum(p, q)[far], np.maximum(p, q)[far]
        ratio = lambda x: f.deriv(x) / g.deriv(x)
        target = ((FX[1] - FX[0]) / (GX[1] - GX[0]))[far]
        # Close pairs take K15 means where both pass their G7 check, and
        # solve for the bracket fraction y = (x - a) / (b - a); the rest
        # keep the quotients and solve for x itself (c = 0, s = 1: bit for
        # bit x).
        close = b - a < _QUOTIENT_REL * np.minimum(np.abs(a), np.abs(b))
        if close.any():
            ac, bc = a[close], b[close]
            (tf, ef), (tg, eg) = _k15_mean(f.deriv, ac, bc), _k15_mean(g.deriv, ac, bc)
            exact = (ef <= _K15_REL * np.abs(tf)) & (eg <= _K15_REL * np.abs(tg))
            close[close] = exact
            target[close] = (tf / tg)[exact]
        c, s = np.where(close, a, 0.0), np.where(close, b - a, 1.0)
        lo, hi = np.where(close, 0.0, a), np.where(close, 1.0, b)
        direction, scan = _monotone_direction(lambda y: ratio(c + s * y), lo, hi)
        flat = direction == 0
        if flat.any():
            error = NonInvertibleRatio if spec.family == "cauchy" else NonInvertibleDerivative
            raise error(f"{f.id}'/{g.id}' is not monotone on [{_first(a, flat)!r}, {_first(b, flat)!r}]")
        # The solve checks each value on the side of x, so that a NaN is
        # named by its argument, not by its bracket fraction.
        fun = lambda y: _checked(x := c + s * y, ratio(x))
        out[far] = c + s * _invert_monotone(fun, target, lo, hi, 1e-14, scan)
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
            Xb = X[:, np.flatnonzero(bad)]
            other = np.isnan(Xb).any(axis=0) | ~(Xb == 0.0).any(axis=0)  # NaN never collapses
            if other.any():
                raise DomainError(f"{spec} mean is not finite at arguments {Xb[:, other][:, 0]!r}")
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
    if any(not w > 0.0 for w in weights):  # a NaN weight too
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
    domain whose width is not a finite float or whose ends are reversed, or
    a seed that is not a nonnegative integer, raises ParamError.
    """
    lo, hi = map(float, (domain.lo, domain.hi) if isinstance(domain, Interval) else domain)
    require_int(samples, "samples")
    if samples < 1:
        raise ParamError(f"samples={samples!r}: dominance needs at least one sample")
    require_seed(seed)
    if not math.isfinite(hi - lo):  # numpy's uniform(lo, hi) would overflow forming it
        raise ParamError(f"cannot sample the window ({lo!r}, {hi!r}): its width is not a finite float")
    if not lo <= hi:  # numpy's uniform(lo, hi) would raise a bare ValueError
        raise ParamError(f"cannot sample the window ({lo!r}, {hi!r}): its ends are reversed")
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
