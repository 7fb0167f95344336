"""Generalized Jensen and Bregman divergences under comparative convexity.

The generalized Bregman divergence of an (M, N)-convex generator F is the
one-sided limit of skew Jensen divergences scaled by 1/(alpha(1-alpha)):

    B(p:q) = T_N(F(q):F(p)) - F'(q) T_M(q:p),

with T_M(x:y) = d/dbeta M((x, y); (1 - beta, beta)) at beta = 0 the tangent
of a weighted mean at its x end (``bregman``; every tangent is ``_tangent``).
For quasi-arithmetic means M_rho and M_tau it is the closed form

    B(p:q) = (tau(F(p)) - tau(F(q))) / tau'(F(q))
             - ((rho(p) - rho(q)) / rho'(q)) * F'(q)

of ``qabd``, which factors as a conformal ordinary Bregman divergence in the
rho-embedded space with positive factor 1/tau'(F(q)).

One helper computes both sides of every Jensen gap N(F(X); W) - F(M(X; W))
here, certificate included.  A divergence is certified by the ``verdict``
it is given, else by the default certificate at ``seed``; a caller who
wants other sampling passes the verdict of a certificate that used it.

Orientation conventions: ``bregman`` and ``qabd`` anchor their expansion at
q (second argument); ``lehmer_bregman`` keeps the Lehmer-mean expansion
anchored at p (first argument), and is ``bregman`` with p and q swapped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    require_seed,
)
from .generators import Generator, Interval, _check_inside, _deferred, _first, _flag, _memoize
from .means import WEIGHT_SUM_TOL, MeanSpec, _checked_means, lehmer, quasi_arithmetic

#: Values in [-ZERO_FLOOR, 0) are clamped to 0: floating-point cancellation
#: near p = q, not a convexity violation.
ZERO_FLOOR = 1e-12

_MIN_DERIVATIVE = 1e-300

_POSITIVE = Interval(0.0, math.inf)


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
    """d, unless some |d| underflows below _MIN_DERIVATIVE (DerivativeError,
    flagged instead within an open chain, see ``generators._deferred``)."""
    if not _flag(small := np.abs(d) < _MIN_DERIVATIVE) and np.count_nonzero(small):
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
        pts = tuple(map(float, self.points))
        wts = tuple(map(float, self.weights))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if len(pts) != len(wts):
            raise LengthMismatch("points and weights differ in length")
        if not pts:
            raise WeightError("weighted set must be nonempty")
        total = math.fsum(wts) if min(wts) > 0.0 else math.nan
        if total != total:  # a NaN weight too, which min may pass over but fsum keeps
            raise WeightError("weights must be strictly positive")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise WeightError(f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}")

    @staticmethod
    def uniform(points: Sequence[float]) -> "WeightedSet":
        n = len(points)  # none raises WeightError
        return WeightedSet(tuple(points), (1.0 / n,) * n if n else ())


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

    Verdicts are deterministic in their arguments and memoized per
    (F, M, N, samples, seed), up to 512 entries; models that do not hash are
    certified on each call.  F and each mean are evaluated once over all
    samples; a ``samples`` that is not an integer or is below one, a seed
    that is not a nonnegative integer, or a window too wide for a float,
    raises ParamError.
    """
    require_int(samples, "samples")
    if samples < 1:
        raise ParamError(f"samples={samples!r}: a midpoint certificate needs at least one sample")
    require_seed(seed)
    return _midpoint_verdict_cached(F, M, N, samples, seed)


@_memoize
def _midpoint_verdict_cached(
    F: FunctionModel, M: MeanSpec, N: MeanSpec, samples: int, seed: int
) -> ConvexityReport:
    rng = np.random.default_rng(seed)
    a, b = F.domain.finite_window()
    if a > 0.0 and math.isinf(F.domain.hi):
        P = np.exp(rng.uniform(math.log(a), math.log(b), (2, samples)))
    elif math.isfinite(b - a):  # else numpy's uniform(a, b) would overflow forming it
        P = rng.uniform(a, b, (2, samples))
    else:
        raise ParamError(f"cannot sample F's window ({a!r}, {b!r}): its width is not a finite float")
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
    lhs, rhs = _jensen_sides(F, M, N, np.array(points.points), np.array(points.weights))
    return float(_nonnegative(lhs - rhs))


def _slope(M: MeanSpec, x, what: str, at):
    """rho'(x) of a quasi-arithmetic mean M_rho, which its tangent at x
    divides by, unless some |rho'(x)| underflows (DerivativeError naming
    ``what`` at the matching element of ``at``); None for a Gini mean."""
    if M.family != "quasi_arithmetic":
        return None
    return _nonvanishing(M.generator.deriv(x), what, at)


def _tangent(M: MeanSpec, x, y, slope):
    """The tangent T_M(x:y) = d/dbeta M((x, y); (1 - beta, beta)) at
    beta = 0 of a weighted mean at its x end, elementwise over arrays.

    A quasi-arithmetic mean M_rho gives kappa_rho(x:y) =
    (rho(y) - rho(x)) / rho'(x), with ``slope`` its ``_slope`` at x.  A Gini
    mean G_{r,s} (power, Lehmer and Gini means) gives
    x (y/x)^s expm1((r - s) log(y/x)) / (r - s), exact as r -> s, and
    x (y/x)^s log(y/x) at r = s, with log(y/x) taken as log1p((y - x)/x) for
    close arguments; at (1, 0) it gives y - x, as the Gini kernel gives the
    plain weighted sum there.  A Gini tangent takes arguments in (0, inf)
    and raises DomainError where it is not finite.
    """
    if M.family == "quasi_arithmetic":
        return (M.generator.value(y) - M.generator.value(x)) / slope
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    for v in (x, y):
        _check_inside(v, _POSITIVE, f"the {M} mean")
    r, s = M.gini_orders
    if (r, s) == (1.0, 0.0):
        return y - x
    d = r - s
    with np.errstate(all="ignore"):
        L = np.log1p((y - x) / x)
        out = x * np.power(y / x, s) * (L if d == 0.0 else np.expm1(d * L) / d)
    if np.count_nonzero(bad := ~np.isfinite(out)):
        raise DomainError(f"the tangent of the {M} mean is not finite at {_first(x, bad)!r}")
    return out


def kappa(gamma: Generator, x: float, y: float) -> float:
    """kappa_gamma(x:y) = (gamma(y) - gamma(x)) / gamma'(x), the tangent of
    the quasi-arithmetic mean M_gamma at x.

    For the arithmetic generator this is y - x; for log, x*log(y/x); for the
    power generator, (y^d - x^d) / (d x^(d-1)).  With M = M_rho and
    N = M_tau, kappa_tau(F(q):F(p)) - F'(q) kappa_rho(q:p) is
    :func:`bregman` (and :func:`qabd`), the exact alpha -> 1 limit.
    """
    M = quasi_arithmetic(gamma)
    return _tangent(M, x, y, _slope(M, x, f"derivative of generator {gamma.id!r}", x))


def _bregman_checked(F: FunctionModel, M: MeanSpec, N: MeanSpec, p, q):
    """Unclamped B(p:q) = T_N(F(q):F(p)) - F'(q) T_M(q:p) from checked calls,
    elementwise: the first bad element raises the typed error that names
    it.  Both slopes are checked before either tangent is formed; with
    M = M_rho and N = M_tau they are named tau'(F(q)) and rho'(q)."""
    fp, fq = F.value(p), F.value(q)
    sn, sm = _slope(N, fq, "tau'(F(q))", q), _slope(M, q, "rho'(q)", q)
    return _tangent(N, fq, fp, sn) - _tangent(M, q, p, sm) * F.deriv(q)


def bregman(
    F: FunctionModel,
    M: MeanSpec,
    N: MeanSpec,
    p: float,
    q: float,
    verdict: ConvexityReport | None = None,
    seed: int = 0,
) -> DivergenceValue:
    """Generalized Bregman divergence B(p:q) = T_N(F(q):F(p)) - F'(q) T_M(q:p),
    anchored at q, for any two means with weighted forms.

    T_M is the tangent of M at its first argument (see ``_tangent``), so B
    is the exact alpha -> 1 limit that :func:`bccd_numeric` approximates.
    Under quasi-arithmetic means it is :func:`qabd` bit for bit.  Certified
    and clamped as :func:`jccd`; a mean without weighted forms raises
    UnsupportedWeights.
    """
    if not (M.supports_weights and N.supports_weights):
        raise UnsupportedWeights(f"means {M} and {N} must both support weights")
    _require_certified("bregman", verdict, F, M, N, seed)
    return DivergenceValue.create(_bregman_checked(F, M, N, p, q), (p, q))


@dataclass(frozen=True)
class QabdSpec:
    """Certified quasi-arithmetic Bregman divergence specification.

    Construction re-checks (M_rho, M_tau)-convexity of F; a NOT_CONVEX
    verdict raises, an AFFINE verdict warns (the divergence is identically
    zero, which only forfeits the law of the indiscernible), on every
    construction.  The ``is_mn_convex`` report behind these checks is
    memoized per (F, rho, tau), up to 512 entries, so a repeat spec does
    not evaluate F again; models that do not hash are certified on each
    construction.  A callable's state is taken as fixed: after mutating
    one, build a new model.  ``qabd_conformal`` reduces F itself, through
    the memoized ``to_ordinary``; with a ``verdict`` supplied, construction
    checks nothing, not even that F's values stay in tau's domain.
    """

    F: FunctionModel
    rho: Generator
    tau: Generator
    verdict: ConvexityReport | None = None
    seed: int = 0

    def __post_init__(self) -> None:
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
    """Unclamped B(p:q) from checked calls: ``bregman``'s kernel on
    (M_rho, M_tau)."""
    return _bregman_checked(spec.F, quasi_arithmetic(spec.rho), quasi_arithmetic(spec.tau), p, q)


class _Anchors(NamedTuple):
    """The data side of B(. : q) at anchor points q, elementwise in q's
    shape: every term of ``qabd`` that depends on q alone."""

    q: np.ndarray
    tau_F: np.ndarray  # tau(F(q))
    tau_slope: np.ndarray  # tau'(F(q))
    rho: np.ndarray  # rho(q)
    rho_slope: np.ndarray  # rho'(q)
    F_slope: np.ndarray  # F'(q)

    def combine(self, tau_F, rho):
        """Unclamped B(p : q) from tau(F(p)) and rho(p), elementwise."""
        return (tau_F - self.tau_F) / self.tau_slope - ((rho - self.rho) / self.rho_slope) * self.F_slope


def _anchors(spec: QabdSpec, q) -> _Anchors:
    """The per-point table of ``qabd(. : q)``: one chain of checked calls,
    its checks deferred to its end (``generators._deferred``), in the order
    in which ``_qabd_checked`` reaches q: F(q), tau'(F(q)) and rho'(q),
    neither vanishing, then tau(F(q)), rho(q) and F'(q).  A bad q raises
    the typed error that names it."""
    F, rho, tau = spec.F, spec.rho, spec.tau

    def table(q):
        fq = F.value(q)
        tau_slope = _nonvanishing(tau.deriv(fq), "tau'(F(q))", q)
        rho_slope = _nonvanishing(rho.deriv(q), "rho'(q)", q)
        return _Anchors(q, tau.value(fq), tau_slope, rho.value(q), rho_slope, F.deriv(q))

    return _deferred(table, np.asarray(q, dtype=float))


def _qabd_at(spec: QabdSpec, anchors: _Anchors, p):
    """Unclamped B(p:q) over p broadcast against the anchors' q, evaluating
    F, rho and tau at p alone, in the order in which ``_qabd_checked``
    reaches p: one chain of checked calls, its checks deferred to its end,
    whose values are ``_qabd_checked``'s bit for bit.  With the table built
    once at the data, each distance call of ``kmeans_cluster`` at its
    centroids is this."""
    F, rho, tau = spec.F, spec.rho, spec.tau

    def combine(p):
        return anchors.combine(tau.value(F.value(p)), rho.value(p))

    return _deferred(combine, p)


def _qabd_raw(spec: QabdSpec, p, q):
    """Unclamped B(p:q) elementwise over broadcast arrays p and q:
    ``_qabd_checked`` with its checks deferred to its end, so its values
    and its errors are the checked chain's."""
    return _deferred(_qabd_checked, spec, p, q)


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
    G = to_ordinary(F, rho, tau)
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
    the limit estimate, and :func:`bregman` the exact limit.
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
    :func:`bregman` under (L_delta, L_delta2) at (q, p),

    T_{delta2}(F(p):F(q)) - T_delta(p:q) * F'(p),
    with T_d(a:b) = b^d (b - a) / a^d the tangent of the weighted Lehmer
    mean L_d at a.  Clamped as :func:`jccd`.
    """
    p, q = float(p), float(q)
    if p <= 0.0 or q <= 0.0:
        raise DomainError("lehmer_bregman requires positive arguments")
    fp, fq = F.value(p), F.value(q)
    if fp <= 0.0 or fq <= 0.0:
        raise DomainError("lehmer_bregman requires positive generator values")
    return bregman(F, lehmer(delta), lehmer(delta2), q, p, verdict, seed).value


def jensen_bregman(spec: QabdSpec, p: float, q: float) -> float:
    """Mean of the two Bregman divergences to the rho-midpoint:

    (B(p : m) + B(q : m)) / 2 with m = M_rho(p, q).  Coincides with the
    plain Jensen divergence J(F, M_rho, A) when tau is the identity.
    """
    m = float(_checked_means(quasi_arithmetic(spec.rho), (p, q), (0.5, 0.5)))
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
