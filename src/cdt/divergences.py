"""Generalized Jensen and Bregman divergences under comparative convexity.

The central closed form is the quasi-arithmetic Bregman divergence for a
(M_rho, M_tau)-convex generator F:

    B(p:q) = (tau(F(p)) - tau(F(q))) / tau'(F(q))
             - ((rho(p) - rho(q)) / rho'(q)) * F'(q)

obtained as the one-sided limit of skew Jensen divergences scaled by
1/(alpha(1-alpha)).  It factors as a conformal ordinary Bregman divergence
in the rho-embedded space with positive factor 1/tau'(F(q)).

One helper computes both sides of every Jensen gap N(F(X); W) - F(M(X; W))
here, certificate included.  A divergence is certified by the ``verdict``
it is given, else by the default certificate at ``seed``; a caller who
wants other sampling passes the verdict of a certificate that used it.

Orientation conventions: ``qabd`` anchors its expansion at q (second
argument); ``lehmer_bregman`` follows the Lehmer-mean expansion anchored at
p (first argument).  Both are kept as-is, with no silent reconciliation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .convexity import (
    ConvexityReport,
    FunctionModel,
    Verdict,
    _verdict,
    is_mn_convex,
    to_ordinary,
)
from .errors import (
    AffineGeneratorWarning,
    CdtError,
    ConvexityError,
    DerivativeError,
    DomainError,
    LengthMismatch,
    ParamError,
    UnsupportedWeights,
    WeightError,
    require_int,
)
from .generators import Generator, _first, _outside, _raw
from .means import WEIGHT_SUM_TOL, MeanSpec, _checked_means, lehmer

#: Values in [-ZERO_FLOOR, 0) are clamped to 0: floating-point cancellation
#: near p = q, not a convexity violation.
ZERO_FLOOR = 1e-12

_MIN_DERIVATIVE = 1e-300


@dataclass(frozen=True)
class DivergenceValue:
    """Nonnegative divergence value with its orientation (from, to)."""

    value: float
    orientation: tuple
    clamped: bool = False

    @classmethod
    def create(cls, raw: float, orientation: tuple) -> "DivergenceValue":
        raw = float(raw)
        return cls(float(_nonnegative(raw)), orientation, clamped=raw < 0.0)

    def __float__(self) -> float:
        return self.value


def _nonvanishing(d, what: str, at):
    """d, unless some |d| underflows below _MIN_DERIVATIVE (DerivativeError)."""
    if np.count_nonzero(small := np.abs(d) < _MIN_DERIVATIVE):
        raise DerivativeError(f"{what} underflowed at {_first(at, small)!r}")
    return d


def _zero_floor(value: float) -> float:
    """value, with [-ZERO_FLOOR, 0] made +0.0 and anything lower kept: for
    quadrature-backed values, whose error may exceed ZERO_FLOOR."""
    return 0.0 if -ZERO_FLOOR <= value <= 0.0 else value


def _nonnegative(raw):
    """Divergence values elementwise: [-ZERO_FLOOR, 0] is made +0.0 (so -0.0
    too), and anything lower (or NaN) raises ConvexityError."""
    if np.count_nonzero(bad := ~(np.asarray(raw) >= -ZERO_FLOOR)):
        value = _first(raw, bad)
        raise ConvexityError(f"negative divergence {value:.6e}: generator is not (M,N)-convex on this pair")
    return np.where(raw <= 0.0, 0.0, raw)


@dataclass(frozen=True)
class WeightedSet:
    """Finite point set with strictly positive weights summing to one."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        wts = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if len(pts) != len(wts):
            raise LengthMismatch("points and weights differ in length")
        if not pts:
            raise WeightError("weighted set must be nonempty")
        if any(w <= 0.0 for w in wts):
            raise WeightError("weights must be strictly positive")
        if abs(math.fsum(wts) - 1.0) > WEIGHT_SUM_TOL:
            raise WeightError(f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}")

    @staticmethod
    def uniform(points: Sequence[float]) -> "WeightedSet":
        n = len(points)
        return WeightedSet(tuple(points), tuple(1.0 / n for _ in range(n)))


def midpoint_verdict(
    F: FunctionModel,
    M: MeanSpec,
    N: MeanSpec,
    samples: int = 512,
    seed: int = 0,
) -> ConvexityReport:
    """Midpoint-sampling (M,N)-convexity certificate for arbitrary mean specs.

    Each pair (p, q), drawn uniformly in F's finite window (log-uniformly on
    a positive half-line, as ``Interval.sample_grid`` spaces points), gives
    the normalized gap between N(F(p), F(q)) and F(M(p, q)), and the gaps
    go to the verdict rule shared with :func:`is_mn_convex`: NOT_CONVEX when
    some gap is below -CONVEXITY_RTOL, otherwise CONVEX when some gap is
    above CONVEXITY_RTOL, otherwise AFFINE.
    The witness is (p, q, gap) with the unnormalized gap.

    Verdicts are deterministic in their arguments and cached.  F and each
    mean are evaluated once over all samples; a ``samples`` that is not an
    integer, or is below one, raises ParamError.
    """
    require_int(samples, "samples")
    if samples < 1:
        raise ParamError(f"samples={samples!r}: a midpoint certificate needs at least one sample")
    return _midpoint_verdict_cached(F, M, N, samples, seed)


@lru_cache(maxsize=512)
def _midpoint_verdict_cached(
    F: FunctionModel, M: MeanSpec, N: MeanSpec, samples: int, seed: int
) -> ConvexityReport:
    rng = np.random.default_rng(seed)
    a, b = F.domain.finite_window()
    if a > 0.0 and math.isinf(F.domain.hi):
        P = np.exp(rng.uniform(math.log(a), math.log(b), (2, samples)))
    else:
        P = rng.uniform(a, b, (2, samples))
    lhs, rhs = _jensen_sides(F, M, N, P, (0.5, 0.5))
    scales = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    gaps = (lhs - rhs) / scales
    return _verdict(gaps, lambda k: (float(P[0, k]), float(P[1, k]), float(gaps[k] * scales[k])))


def _require_certified(what: str, verdict, F: FunctionModel, M: MeanSpec, N: MeanSpec, seed) -> None:
    """Raise ConvexityError unless ``verdict`` (by default the midpoint
    certificate) holds."""
    rep = verdict or midpoint_verdict(F, M, N, seed=seed)
    if rep.verdict is Verdict.NOT_CONVEX:
        raise ConvexityError(f"{what}: certificate failed with witness {rep.witness!r}")


def jccd(
    F: FunctionModel,
    M: MeanSpec,
    N: MeanSpec,
    p: float,
    q: float,
    verdict: ConvexityReport | None = None,
    seed: int = 0,
) -> DivergenceValue:
    """Jensen divergence under (M,N)-convexity: N(F(p),F(q)) - F(M(p,q))."""
    _require_certified("jccd", verdict, F, M, N, seed)
    return DivergenceValue.create(_skew_values(F, M, N, np.array([0.5]), p, q)[0], (p, q))


def _jensen_sides(F: FunctionModel, M: MeanSpec, N: MeanSpec, X, W) -> tuple[np.ndarray, np.ndarray]:
    """N(F(X); W) and F(M(X; W)) over the columns of X, the two sides of
    every Jensen gap here; X must lie strictly inside the means' domains."""
    return _checked_means(N, F.value(X), W), F.value(_checked_means(M, X, W))


def _skew_values(F: FunctionModel, M: MeanSpec, N: MeanSpec, alpha: np.ndarray, p: float, q: float):
    """N_alpha(F(p), F(q)) - F(M_alpha(p, q)) for each alpha of an array."""
    W, X = np.stack([1.0 - alpha, alpha]), np.stack([np.full_like(alpha, p), np.full_like(alpha, q)])
    return np.subtract(*_jensen_sides(F, M, N, X, W))


def skew_jccd(
    F: FunctionModel,
    M: MeanSpec,
    N: MeanSpec,
    alpha: float,
    p: float,
    q: float,
    verdict: ConvexityReport | None = None,
    seed: int = 0,
) -> DivergenceValue:
    """Skew Jensen divergence N_alpha(F(p),F(q)) - F(M_alpha(p,q)), alpha in (0,1)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise WeightError(f"alpha={alpha!r} outside (0, 1); see extended_skew_jensen")
    if not (M.supports_weights and N.supports_weights):
        raise UnsupportedWeights(f"means {M} and {N} must both support weights")
    _require_certified("skew_jccd", verdict, F, M, N, seed)
    return DivergenceValue.create(_skew_values(F, M, N, np.array([alpha]), p, q)[0], (p, q))


def extended_skew_jensen(F: FunctionModel, alpha: float, p: float, q: float) -> float:
    """Arithmetic-means skew Jensen divergence extended to alpha outside [0,1]:

    sign(alpha(1-alpha)) * (A_alpha(F(p),F(q)) - F(A_alpha(p,q))),
    where A_alpha extrapolates linearly.  Nonnegative for convex F.
    """
    alpha = float(alpha)
    if alpha in (0.0, 1.0):
        raise ParamError("alpha must differ from 0 and 1")
    xm = (1.0 - alpha) * p + alpha * q
    if not F.domain.contains(xm):
        raise DomainError(f"extrapolated point {xm!r} leaves the domain of {F.id!r}")
    mixed = (1.0 - alpha) * F.value(p) + alpha * F.value(q)
    sign = 1.0 if alpha * (1.0 - alpha) > 0.0 else -1.0
    return sign * (mixed - F.value(xm))


def jensen_diversity(
    F: FunctionModel,
    M: MeanSpec,
    N: MeanSpec,
    points: WeightedSet,
    verdict: ConvexityReport | None = None,
    seed: int = 0,
) -> float:
    """Diversity index of a weighted set: N(F(x); w) - F(M(x; w)).

    With both means arithmetic this is the Bregman information of the set
    (the variance for F(x) = x^2).  Clamped as :func:`jccd`: [-ZERO_FLOOR, 0)
    reads 0, a lower value raises ConvexityError.
    """
    _require_certified("jensen_diversity", verdict, F, M, N, seed)
    lhs, rhs = _jensen_sides(F, M, N, np.array(points.points), points.weights)
    return float(_nonnegative(lhs - rhs))


def kappa(gamma: Generator, x: float, y: float) -> float:
    """Auxiliary function kappa_gamma(x:y) = (gamma(y) - gamma(x)) / gamma'(x).

    For the arithmetic generator this is y - x; for log, x*log(y/x); for the
    power generator, (y^d - x^d) / (d x^(d-1)).
    """
    d = _nonvanishing(gamma.deriv(x), f"derivative of generator {gamma.id!r}", x)
    return (gamma.value(y) - gamma.value(x)) / d


@dataclass(frozen=True)
class QabdSpec:
    """Certified quasi-arithmetic Bregman divergence specification.

    Construction re-checks (M_rho, M_tau)-convexity of F; a NOT_CONVEX
    verdict raises, an AFFINE verdict warns (the divergence is identically
    zero, which only forfeits the law of the indiscernible).
    """

    F: FunctionModel
    rho: Generator
    tau: Generator
    verdict: ConvexityReport | None = None
    seed: int = 0
    reduced: FunctionModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "reduced", to_ordinary(self.F, self.rho, self.tau))
        rep = self.verdict or is_mn_convex(self.F, self.rho, self.tau, seed=self.seed)
        if rep.verdict is Verdict.NOT_CONVEX:
            raise ConvexityError(
                f"{self.F.id!r} is not ({self.rho.id},{self.tau.id})-convex: witness {rep.witness!r}"
            )
        if rep.verdict is Verdict.AFFINE:
            warnings.warn(
                f"{self.F.id!r} is ({self.rho.id},{self.tau.id})-affine: divergence is identically zero",
                AffineGeneratorWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "verdict", rep)


def _qabd_checked(spec: QabdSpec, p, q):
    """Unclamped B(p:q) from checked calls: the first bad element raises the
    typed error that names it."""
    F, rho, tau = spec.F, spec.rho, spec.tau
    fp, fq = F.value(p), F.value(q)
    td = _nonvanishing(tau.deriv(fq), "tau'(F(q))", q)
    rd = _nonvanishing(rho.deriv(q), "rho'(q)", q)
    return (tau.value(fp) - tau.value(fq)) / td - ((rho.value(p) - rho.value(q)) / rd) * F.deriv(q)


def _qabd_raw(spec: QabdSpec, p, q):
    """Unclamped B(p:q) elementwise over broadcast arrays p and q.

    When F, rho and tau all have derivatives this runs first as one raw
    numpy chain under one errstate, each side on its own points and each
    callable through ``generators._raw``, so its values are those of
    ``_qabd_checked`` bit for bit.  Its mask restates every check of that
    chain: p and q inside the domains of F and rho, F(p) and F(q) inside
    tau's open domain (which also catches F not finite), tau'(F(q)) and
    rho'(q) not vanishing, and a NaN anywhere (which makes B NaN).  When
    the raw chain raises, flags an element or returns a misshapen array,
    the checked chain reruns only to raise its typed error; a check added
    there must be added to this mask too.
    """
    F, rho, tau = spec.F, spec.rho, spec.tau
    if None in (F.derivative, rho.derivative, tau.derivative):
        return _qabd_checked(spec, p, q)
    pa, qa = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    dom = F.domain.intersect(rho.domain)
    with np.errstate(all="ignore"):
        try:
            fp, fq = _raw(F.eval, pa), _raw(F.eval, qa)
            td, rd = _raw(tau.derivative, fq), _raw(rho.derivative, qa)
            out = (_raw(tau.forward, fp) - _raw(tau.forward, fq)) / td - (
                (_raw(rho.forward, pa) - _raw(rho.forward, qa)) / rd
            ) * _raw(F.derivative, qa)
            outside = _outside(pa, dom) | _outside(qa, dom) | _outside(fp, tau.domain) | _outside(fq, tau.domain)
            small = (np.abs(td) < _MIN_DERIVATIVE) | (np.abs(rd) < _MIN_DERIVATIVE)
            clean = out.shape == np.broadcast(pa, qa).shape and not np.count_nonzero(outside | small | np.isnan(out))
        except Exception:  # whatever it was, the checked rerun raises it again
            clean = False
    if not clean:
        return _qabd_checked(spec, p, q)
    return float(out) if out.ndim == 0 else out


def qabd(spec: QabdSpec, p: float, q: float) -> DivergenceValue:
    """Quasi-arithmetic Bregman divergence B(p:q), anchored at q."""
    return DivergenceValue.create(_qabd_raw(spec, p, q), (p, q))


def qabd_conformal(spec: QabdSpec, p: float, q: float) -> tuple[float, float]:
    """Conformal factorization (factor, base) with factor * base = qabd(p,q).

    factor = 1/tau'(F(q)) > 0; base is the ordinary Bregman divergence of the
    reduced generator G evaluated at (rho(p), rho(q)).
    """
    F, rho, tau = spec.F, spec.rho, spec.tau
    factor = 1.0 / _nonvanishing(tau.deriv(F.value(q)), "tau'(F(q))", q)
    G = spec.reduced
    u, v = rho.value(p), rho.value(q)
    base = G.value(u) - G.value(v) - (u - v) * G.deriv(v)
    return factor, base


def bccd_numeric(
    F: FunctionModel,
    M: MeanSpec,
    N: MeanSpec,
    p: float,
    q: float,
    alpha_sequence: Sequence[float],
    verdict: ConvexityReport | None = None,
    seed: int = 0,
) -> tuple[float, ...]:
    """Skew-Jensen approximants of the Bregman limit along alpha -> 1^-.

    For each a_i in the decreasing positive sequence, evaluates
    J_{F,alpha}(p:q) / (alpha(1-alpha)) at alpha = 1 - a_i.  The whole
    sequence is returned so callers can assert its decay; the last entry is
    the limit estimate.
    """
    seq = [float(a) for a in alpha_sequence]
    if not seq or not all(0.0 < a < 1.0 for a in seq):
        raise ParamError("alpha_sequence must lie strictly inside (0, 1)")
    if any(b >= a for a, b in zip(seq, seq[1:])):
        raise ParamError("alpha_sequence must be strictly decreasing")
    if not (M.supports_weights and N.supports_weights):
        raise UnsupportedWeights(f"means {M} and {N} must both support weights")
    _require_certified("bccd_numeric", verdict, F, M, N, seed)
    a = np.array(seq)
    alpha = 1.0 - a
    return tuple((_skew_values(F, M, N, alpha, p, q) / (alpha * a)).tolist())


def omega_divergence(
    F: FunctionModel,
    M: MeanSpec,
    N: MeanSpec,
    omega: float,
    p: float,
    q: float,
    verdict: ConvexityReport | None = None,
    seed: int = 0,
) -> float:
    """Symmetric-parameter divergence: skew Jensen at alpha = (1+omega)/2,
    scaled by 1/(1-omega^2) = 1/(4 alpha (1-alpha))."""
    omega = float(omega)
    if not -1.0 < omega < 1.0:
        raise WeightError(f"omega={omega!r} outside (-1, 1)")
    alpha = 0.5 * (1.0 + omega)
    return float(skew_jccd(F, M, N, alpha, p, q, verdict, seed)) / (1.0 - omega * omega)


def _chi(delta: float, a: float, b: float) -> float:
    return (b ** (1.0 + delta) - b**delta - a ** (1.0 + delta) + a**delta) / a**delta


def lehmer_bregman(
    F: FunctionModel,
    delta: float,
    delta2: float,
    p: float,
    q: float,
    verdict: ConvexityReport | None = None,
    seed: int = 0,
) -> float:
    """Bregman divergence from Lehmer-mean comparative convexity, anchored at p:

    chi_{delta2}(F(p):F(q)) - chi_delta(p:q) * F'(p),
    with chi_d(a:b) = (b^(1+d) - b^d - a^(1+d) + a^d) / a^d, clamped as
    :func:`jccd`.
    """
    p, q = float(p), float(q)
    if p <= 0.0 or q <= 0.0:
        raise DomainError("lehmer_bregman requires positive arguments")
    fp, fq = F.value(p), F.value(q)
    if fp <= 0.0 or fq <= 0.0:
        raise DomainError("lehmer_bregman requires positive generator values")
    _require_certified("lehmer_bregman", verdict, F, lehmer(delta), lehmer(delta2), seed)
    value = _chi(float(delta2), fp, fq) - _chi(float(delta), p, q) * F.deriv(p)
    return float(_nonnegative(value))


def jensen_bregman(spec: QabdSpec, p: float, q: float) -> float:
    """Mean of the two Bregman divergences to the rho-midpoint:

    (B(p : m) + B(q : m)) / 2 with m = M_rho(p, q).  Coincides with the
    plain Jensen divergence J(F, M_rho, A) when tau is the identity.
    """
    m = spec.rho.inv(0.5 * (spec.rho.value(p) + spec.rho.value(q)))
    m = min(max(m, min(p, q)), max(p, q))
    return 0.5 * (float(qabd(spec, p, m)) + float(qabd(spec, q, m)))


def separable_divergence(
    specs: Sequence[QabdSpec], P: Sequence[float], Q: Sequence[float]
) -> float:
    """Sum of componentwise quasi-arithmetic Bregman divergences."""
    if not (len(specs) == len(P) == len(Q)):
        raise LengthMismatch(
            f"got {len(specs)} specs, {len(P)} and {len(Q)} coordinates"
        )
    total = 0.0
    for i, (s, a, b) in enumerate(zip(specs, P, Q)):
        try:
            total += float(qabd(s, float(a), float(b)))
        except CdtError as exc:
            raise type(exc)(f"component {i}: {exc}") from exc
    return total
