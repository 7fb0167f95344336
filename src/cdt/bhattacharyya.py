"""Comparative-mean Bhattacharyya affinities and distances.

For comparable means M <= N the distance is the negative log-ratio of the
two affinity coefficients

    c_alpha^M(p:q) = sum_i / integral  M(p_i, q_i; 1-alpha, alpha),

with weight 1-alpha on p throughout (so the classical skewed Bhattacharyya
distance, defined with exponent alpha on p, appears with alpha and 1-alpha
swapped).  The arithmetic-mean coefficient of two normalized distributions
is identically 1.

A discrete pair is held as one array of columns (a_i, b_i): the unit
columns (1, 0) and (0, 1), the joint support (both masses positive), the
bins where only p, then only q is positive, and the first bin zero in
both, if any, which contributes exactly 0.  Every kernel call reads a
column slice of it.  A mean that does not scale out evaluates every column
but the units in one call, so that a kernel undefined at 0 still raises.
The Gini kernel (power, Lehmer and Gini means) evaluates only the units
and the joint support: a one-sided bin takes the identity
M(x, 0) = x M(1, 0), bit for bit the kernel's value, and a block whose
unit value is +0.0 (the geometric mean and every Gini mean with a
negative order) is left out, since its terms add nothing to an exact sum
and the sum of no terms is +0.0 as well.  A -0.0 unit keeps its block,
since it could set the sign of an all-zero sum.  The identity holds in
each of the kernel's forms, since each returns xm g(X / xm) with xm an
argument.  An order gap |r - s| >= 1 is a ratio of sums of nonnegative
terms, so H, P_-1 and P_2 coefficients take no transcendental function
and a Lehmer coefficient only the log and exp of its x^s factor; a gap
below 1 takes expm1 and log1p, since there the ratio would cancel and the
1/|r - s| root amplify the loss (``means._gini_means`` states the
accuracy of each).
``means._exact_sum`` sums the terms exactly, bit for bit ``math.fsum``,
in two error-free extraction passes.

The column array is computed once per pair by ``_pair``, which keeps the
last pair in a single-entry memo, looked up by identity, for mass arrays
that are both read-only and own their data, as ``DiscreteDist.array`` is;
a writeable array is partitioned afresh on every call and never stored.
The memo holds that one pair alive, with a read-only column array of
about its size, until another pair replaces it.

A density pair's integrals run over the merged truncation of both
densities, split at each one's breakpoints and truncation ends.  Each is
one kernel of x and the rows (p(x), q(x)), which ``_density_integrals``
evaluates and checks nonnegative once per batch of points for every
kernel.  So ``cmbd`` and ``power_cmbd`` take both coefficients in one
joint pass, each bit for bit its own integral's; where it raises
anything, each is integrated alone, in order, with the values and errors
of separate integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .divergences import DivergenceValue, _zero_floor
from .errors import (
    DomainError,
    DominanceError,
    KindMismatch,
    LengthMismatch,
    ParamError,
    UnsupportedWeights,
    WeightError,
)
from .generators import Generator
from .means import GEOMETRIC, WEIGHT_SUM_TOL, MeanSpec, _exact_sum, dominates, power, quasi_arithmetic, weighted_means
from .quadrature import QuadratureConfig, _integrals, _vectorized, integrate, ladder_breakpoints


def _check_finite(x: np.ndarray, what: str) -> None:
    """Raise DomainError naming the first non-finite element of x."""
    bad = ~np.isfinite(x)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"{what}[{i}] = {float(x[i])!r} is not finite")


@dataclass(frozen=True)
class DiscreteDist:
    """Probability mass sequence; optionally carries a value grid.

    ``normalized=False`` admits unnormalized positive measures (used e.g. by
    homogeneity checks and unnormalized expectations).
    """

    masses: tuple[float, ...]
    values: tuple[float, ...] | None = None
    normalized: bool = True
    #: The masses as one read-only float64 array, built once, for every
    #: discrete computation.
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = tuple(float(v) for v in self.masses)
        object.__setattr__(self, "masses", m)
        if not m:
            raise WeightError("distribution must have at least one mass")
        a = np.array(m)
        a.flags.writeable = False
        object.__setattr__(self, "array", a)
        _check_finite(a, "masses")
        if np.any(a < 0.0):
            raise DomainError("masses must be nonnegative")
        if self.normalized:
            total = _total_mass(self)
            if abs(total - 1.0) > WEIGHT_SUM_TOL:
                raise WeightError(f"masses sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL:g}")
        if self.values is not None:
            vals = tuple(float(v) for v in self.values)
            object.__setattr__(self, "values", vals)
            if len(vals) != len(m):
                raise LengthMismatch("values and masses differ in length")
            _check_finite(np.array(vals), "values")


@dataclass(frozen=True)
class CauchyParam:
    """Scale of a centered Cauchy density s / (pi (x^2 + s^2))."""

    scale: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", float(self.scale))
        if not self.scale > 0.0:
            raise ParamError(f"Cauchy scale must be positive, got {self.scale!r}")


@dataclass(frozen=True)
class DensityModel:
    """Positive density with quadrature configuration.

    Unbounded supports are encoded through finite ``truncation`` bounds plus
    a ``tail_tol`` bound on the discarded mass; the normalization check at
    construction allows abs_tol + tail_tol.  ``breakpoints`` seed the panel
    decomposition of every integral against this density.  An ``eval`` that
    takes only floats is wrapped to map arrays elementwise, decided by one
    call on two points inside ``truncation``.
    """

    eval: Callable = field(repr=False)
    truncation: tuple[float, float] = (-1e6, 1e6)
    tail_tol: float = 0.0
    quadrature: QuadratureConfig = QuadratureConfig()
    breakpoints: tuple[float, ...] = ()
    normalized: bool = True

    def __post_init__(self) -> None:
        lo, hi = float(self.truncation[0]), float(self.truncation[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"truncation bounds must be finite and ordered, got {self.truncation!r}")
        object.__setattr__(self, "truncation", (lo, hi))
        object.__setattr__(self, "eval", _vectorized(self.eval, (lo + 0.5 * (hi - lo), lo + 0.25 * (hi - lo)))[0])
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        if self.normalized:
            total = _total_mass(self)
            budget = self.quadrature.abs_tol + self.tail_tol + 1e-12
            if abs(total - 1.0) > budget:
                raise WeightError(
                    f"density integrates to {total!r} over {self.truncation}, "
                    f"expected 1 within {budget:g}"
                )


def _total_mass(dist: DiscreteDist | DensityModel) -> float:
    """The exact sum of discrete masses, or a density's integral over its truncation."""
    if isinstance(dist, DiscreteDist):
        return _exact_sum(dist.array)
    return integrate(dist.eval, *dist.truncation, dist.quadrature, dist.breakpoints)


def cauchy_density(s: CauchyParam | float, cfg: QuadratureConfig = QuadratureConfig()) -> DensityModel:
    """Centered Cauchy density with scale s, truncated where the envelope is
    ~1e-14 of its peak; the discarded tail mass is charged to tail_tol."""
    scale = s.scale if isinstance(s, CauchyParam) else float(CauchyParam(s).scale)
    bound = 1e7 * scale
    tail = 2.0 * scale / (math.pi * bound)

    def pdf(x):
        return scale / (math.pi * (np.asarray(x, dtype=float) ** 2 + scale * scale))

    return DensityModel(
        eval=pdf,
        truncation=(-bound, bound),
        tail_tol=tail,
        quadrature=cfg,
        breakpoints=ladder_breakpoints(-bound, bound, 0.0, scale),
    )


def histogram_density(
    edges: Sequence[float],
    masses: Sequence[float],
    cfg: QuadratureConfig = QuadratureConfig(),
) -> DensityModel:
    """Piecewise-constant density from bin edges and bin probability masses."""
    e = np.asarray(edges, dtype=float)
    m = np.asarray(masses, dtype=float)
    if len(e) != len(m) + 1:
        raise LengthMismatch("need len(edges) == len(masses) + 1")
    _check_finite(e, "edges")
    _check_finite(m, "masses")
    if np.any(np.diff(e) <= 0.0):
        raise DomainError("edges must be strictly increasing")
    if np.any(m < 0.0):
        raise DomainError("masses must be nonnegative")
    # Heights padded with 0, the last edge raised one ulp: one search finds
    # the bin of x in [e[0], e[-1]] and a 0 outside it, at +-inf and at NaN.
    heights = np.concatenate(((0.0,), m / np.diff(e), (0.0,)))
    e2 = np.concatenate((e[:-1], (math.nextafter(e[-1], math.inf),)))

    def pdf(x):
        return heights[np.searchsorted(e2, x, side="right")]

    return DensityModel(
        eval=pdf,
        truncation=(float(e[0]), float(e[-1])),
        quadrature=cfg,
        breakpoints=tuple(float(v) for v in e[1:-1]),
    )


def _density_values(A, B) -> np.ndarray:
    """The rows (a, b) of two arrays of density values, checked nonnegative."""
    X = np.array((A, B), dtype=float)
    if not np.minimum.reduce(X, axis=None) >= 0.0:  # NaN propagates through the minimum
        raise DomainError("distribution values must be nonnegative and not NaN")
    return X


class _Pair(NamedTuple):
    """The kernel inputs of a pair of mass arrays (a, b)."""

    #: Read-only, shape (2, terms + 2 or + 3): the unit columns (1, 0) and
    #: (0, 1), the masses of the joint, only-a and only-b bins, and of the
    #: first bin zero in both, if any.
    cols: np.ndarray
    #: The number of joint and of only-a bins.
    joint: int
    only_a: int
    #: The number of bins where a mass is positive.
    terms: int


#: The last memoized pair, as (a, b, _Pair); replaced whole, never mutated.
_memo: tuple = (None, None, None)


def _pair(a: np.ndarray, b: np.ndarray) -> _Pair:
    """The partition of (a, b) into joint, only-a and only-b bins, as the
    columns every kernel call reads; memoized for one pair of read-only
    arrays that own their data (see the module docstring)."""
    global _memo
    frozen = not (a.flags.writeable or b.flags.writeable) and a.flags.owndata and b.flags.owndata
    memo = _memo
    if frozen and memo[0] is a and memo[1] is b:
        return memo[2]
    pa, pb = a > 0.0, b > 0.0
    joint, only_a, only_b = (np.flatnonzero(m) for m in (pa & pb, pa & ~pb, pb & ~pa))
    bins = np.concatenate((joint, only_a, only_b, np.flatnonzero(~(pa | pb))[:1]))
    cols = np.concatenate((np.eye(2), (a[bins], b[bins])), axis=1)
    cols.flags.writeable = False
    parts = _Pair(cols, len(joint), len(only_a), len(joint) + len(only_a) + len(only_b))
    if frozen:
        _memo = (a, b, parts)
    return parts


def _mass_terms(M: MeanSpec, alpha: float, parts: _Pair) -> np.ndarray:
    """M(a_i, b_i; 1-alpha, alpha) over the bins of a pair where a mass is
    positive, in the order of ``parts.cols``.  The kernel also sees the
    bin zero in both, if there is one, so that a kernel undefined at 0
    still raises; its mean is clipped to [0, 0] and left out."""
    return weighted_means(M, parts.cols[:, 2:], (1.0 - alpha, alpha))[: parts.terms]


def _mass_coefficient(M: MeanSpec, alpha: float, a: np.ndarray, b: np.ndarray) -> float:
    """The exact sum of ``_mass_terms``, scaling out where M does (see the
    module docstring)."""
    parts = _pair(a, b)
    if not M.scales_out:
        return _exact_sum(_mass_terms(M, alpha, parts))
    i, j = 2 + parts.joint, 2 + parts.joint + parts.only_a
    v = weighted_means(M, parts.cols[:, :i], (1.0 - alpha, alpha))
    kept = [v[2:]]
    for row, block in ((0, slice(i, j)), (1, slice(j, 2 + parts.terms))):
        if v[row] != 0.0 or np.signbit(v[row]):
            kept.append(parts.cols[row, block] * v[row])
    return _exact_sum(np.concatenate(kept))


def _check_kinds(p, q) -> bool:
    """True for the discrete case; raises on mixed operands."""
    if isinstance(p, DiscreteDist) and isinstance(q, DiscreteDist):
        if len(p.masses) != len(q.masses):
            raise LengthMismatch("distributions have different lengths")
        if p.values is not None and q.values is not None and p.values != q.values:
            raise KindMismatch("distributions are defined on different value grids")
        return True
    if isinstance(p, DensityModel) and isinstance(q, DensityModel):
        return False
    raise KindMismatch(f"mixed operands: {type(p).__name__} vs {type(q).__name__}")


def _merged_quadrature(p: DensityModel, q: DensityModel) -> tuple[float, float, QuadratureConfig, np.ndarray]:
    """Common bounds, the tighter quadrature, and both densities' truncation
    ends and breakpoints, where the pair's panels split (``integrate`` sorts
    them and drops repeats and the ends of its own interval)."""
    lo = min(p.truncation[0], q.truncation[0])
    hi = max(p.truncation[1], q.truncation[1])
    cfg = p.quadrature if p.quadrature.abs_tol <= q.quadrature.abs_tol else q.quadrature
    return lo, hi, cfg, np.concatenate((p.truncation, q.truncation, p.breakpoints, q.breakpoints))


def _density_integrals(kernels: Sequence[Callable], p: DensityModel, q: DensityModel) -> list[float]:
    """The integral over two densities of kernel(x, X) for each kernel, X the
    rows (p(x), q(x)) checked nonnegative: ``quadrature._integrals``."""
    lo, hi, cfg, brk = _merged_quadrature(p, q)
    return _integrals(lambda x: _density_values(p.eval(x), q.eval(x)), kernels, lo, hi, cfg, brk)


def _coefficients(means: Sequence[MeanSpec], alpha: float, p, q) -> list[float]:
    """The affinity coefficient of (p, q) under each mean, in order: the
    values, and the first error, of one coefficient per mean computed by
    itself.  A discrete pair takes one ``_mass_coefficient`` per mean.  A
    density pair is integrated in one joint pass (``quadrature._integrals``):
    each batch of points evaluates p, q and their nonnegativity check once,
    then each mean's kernel; where that pass raises anything, each mean's
    integral runs alone.  A mean without weights raises after the
    coefficients of the means before it."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ParamError(f"alpha={alpha!r} outside (0, 1)")
    n = next((i for i, M in enumerate(means) if not M.supports_weights), len(means))
    head, out = means[:n], []
    if head and _check_kinds(p, q):
        out = [_mass_coefficient(M, alpha, p.array, q.array) for M in head]
    elif head:
        w = (1.0 - alpha, alpha)
        out = _density_integrals([lambda x, X, M=M: weighted_means(M, X, w) for M in head], p, q)
    if n < len(means):
        raise UnsupportedWeights(f"mean {means[n]} does not support weights")
    return out


def bhat_coefficient(M: MeanSpec, alpha: float, p, q) -> float:
    """Generalized affinity coefficient: the total M-barycenter of (p, q)."""
    return _coefficients((M,), alpha, p, q)[0]


def _builtin_order(M: MeanSpec, N: MeanSpec) -> bool | None:
    """Whether M <= N for two Gini means, by theorem; None where undecided.
    log G_{r,s} is the slope of a chord of the convex t -> log sum w x^t, so
    G_{r,s} <= G_{r',s'} at every weight when r <= r' and s <= s', each pair
    taken in decreasing order (G_{r,s} = G_{s,r}), which decides the most."""
    if M.gini_orders is None or N.gini_orders is None:
        return None
    (r, s), (r2, s2) = (sorted(X.gini_orders, reverse=True) for X in (M, N))
    if r <= r2 and s <= s2:
        return True
    return False if r >= r2 and s >= s2 else None


def _value_window(p, q) -> tuple[float, float]:
    """Half the smallest and twice the largest positive mass or density
    value of p and q, where sampled dominance is checked."""
    if _check_kinds(p, q):
        parts = _pair(p.array, q.array)
        vals = parts.cols[:, 2 : 2 + parts.terms]
    else:
        vals = np.concatenate([np.asarray(d.eval(np.linspace(*d.truncation, 257)), float) for d in (p, q)])
    vals = vals[vals > 0.0]
    if not vals.size:
        raise DomainError("no positive mass: the means cannot be compared on an empty value window")
    return 0.5 * float(vals.min()), 2.0 * float(vals.max()) + 1e-12


def _log_ratio(c1: float, c2: float) -> float:
    """log(c1 / c2) of two affinity coefficients, both positive."""
    if c1 <= 0.0 or c2 <= 0.0:
        raise DomainError("affinity coefficient vanished; distributions are mutually singular")
    return math.log(c1 / c2)


def _check_order(M: MeanSpec, N: MeanSpec, p, q, trusted: bool = False, seed: int = 0) -> None:
    """Raise DominanceError unless M <= N.  Gini means ordered by theorem
    (``_builtin_order``: e.g. G <= A, H <= G, L_{-0.3} <= A) are decided at
    once, and a pair in the wrong order raises at once; other pairs are
    checked by sampling ``dominates`` over ``_value_window(p, q)`` unless
    ``trusted`` is set.  A sampled check where neither p nor q has a
    positive mass raises DomainError."""
    order = _builtin_order(M, N)
    if order is False:
        raise DominanceError(f"{M} lies above {N}: means are not ordered M <= N")
    if order is None and not trusted:
        res = dominates(M, N, _value_window(p, q), samples=2000, seed=seed)
        if res.above is not None:
            raise DominanceError(f"sampling found {M} > {N} at {res.above!r}; means are not ordered M <= N")


def cmbd(
    M: MeanSpec,
    N: MeanSpec,
    alpha: float,
    p,
    q,
    trusted_dominance: bool = False,
    seed: int = 0,
) -> DivergenceValue:
    """Comparative-mean skewed Bhattacharyya distance -log(c^M / c^N).

    Requires M <= N, checked by ``_check_order``: by theorem for Gini means
    ordered componentwise, else by sampling unless ``trusted_dominance`` is
    set.  Satisfies the skew-swap identity cmbd(alpha, q, p) =
    cmbd(1-alpha, p, q).
    """
    _check_order(M, N, p, q, trusted_dominance, seed)
    cM, cN = _coefficients((M, N), alpha, p, q)
    return DivergenceValue.create(-_log_ratio(cM, cN), ("p", "q"))


def power_cmbd(delta1: float, delta2: float, alpha: float, p, q) -> float:
    """Power-mean Bhattacharyya divergence:
    log(c^{P_delta1} / c^{P_delta2}) / (delta1 - delta2), both deltas nonzero."""
    delta1, delta2 = float(delta1), float(delta2)
    if delta1 == delta2:
        raise ParamError("delta1 and delta2 must differ")
    if abs(delta1) < 1e-12 or abs(delta2) < 1e-12:
        raise ParamError("zero delta: use cmbd with the geometric mean instead")
    c1, c2 = _coefficients((power(delta1), power(delta2)), alpha, p, q)
    value = _log_ratio(c1, c2) / (delta1 - delta2)
    return _zero_floor(value)


def alpha_divergence(alpha: float, p, q) -> float:
    """Alpha-divergence (1 - c_alpha) / (alpha(1-alpha)) with the geometric
    coefficient carrying exponent alpha on p and 1-alpha on q.  If p or q is
    unnormalized, 1 becomes alpha m_p + (1 - alpha) m_q of their total masses:
    Amari's form for positive measures, nonnegative by weighted AM-GM."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ParamError(f"alpha={alpha!r} outside (0, 1)")
    c = bhat_coefficient(GEOMETRIC, 1.0 - alpha, p, q)
    mass = 1.0 if p.normalized and q.normalized else alpha * _total_mass(p) + (1.0 - alpha) * _total_mass(q)
    value = (mass - c) / (alpha * (1.0 - alpha))
    return _zero_floor(value)


def cauchy_ha_closed_form(s1: CauchyParam | float, s2: CauchyParam | float, alpha: float) -> float:
    """Closed-form harmonic-arithmetic Bhattacharyya distance between two
    centered Cauchy densities.

    The weighted harmonic barycenter of the densities is itself of Cauchy
    shape: 1/pi(a x^2 + b) with a = (1-alpha)/s1 + alpha/s2 and
    b = (1-alpha) s1 + alpha s2, so c^H = 1/sqrt(ab) and the distance is
    log(ab)/2.  Confirmed against the adaptive-quadrature oracle.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ParamError(f"alpha={alpha!r} outside (0, 1)")
    v1 = s1.scale if isinstance(s1, CauchyParam) else CauchyParam(s1).scale
    v2 = s2.scale if isinstance(s2, CauchyParam) else CauchyParam(s2).scale
    a = (1.0 - alpha) / v1 + alpha / v2
    b = (1.0 - alpha) * v1 + alpha * v2
    return 0.5 * math.log(a * b)


def mean_gap_distance(f: Generator, g: Generator, p, q) -> float:
    """Symmetric distance gap sum/integral of M_g(p,q) - M_f(p,q).

    Requires M_f <= M_g, checked by ``_check_order`` as ``cmbd`` checks its
    means: by theorem for power generators, else by sampling over the value
    window of p and q.
    """
    Mf, Mg = quasi_arithmetic(f), quasi_arithmetic(g)
    _check_order(Mf, Mg, p, q)
    if _check_kinds(p, q):
        parts = _pair(p.array, q.array)
        return _zero_floor(_exact_sum(_mass_terms(Mg, 0.5, parts) - _mass_terms(Mf, 0.5, parts)))
    w = (0.5, 0.5)
    gap = _density_integrals([lambda x, X: weighted_means(Mg, X, w) - weighted_means(Mf, X, w)], p, q)[0]
    return _zero_floor(gap)
