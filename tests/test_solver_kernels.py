"""The monotone solver, on raw kernels and checked ones.

``to_ordinary``'s G' hands the solver a raw numpy kernel that flags bad
elements instead of checking them one call at a time, and ``qabd`` runs
as one raw chain with a checked rerun; the Lagrange/Cauchy ratio f'/g' is
the checked one, and the expression-generator inverse hands the solver the
expression checked for finiteness in one call.  These tests pin:

* fault injection: a NaN derivative at an interior bisection midpoint, F
  leaving tau's domain between two good bracket ends, a NaN inverse, an
  inverse far outside the domain and a derivative that raises on an array
  raise the typed error, with the message, that the checked chain raises;
* the solver's NaN check, which used to steer the bisection silently;
* evaluation counts: one scan call and one call per round along
  predicted bisection paths;
* the raw G' and ``qabd`` chains against the checked ones, bit for bit,
  G' also for callables that return float32;
* ``lagrange_mean`` and ``cauchy_mean`` against a 50-digit mpmath oracle on
  far pairs and on pairs just below and just above ``NEAR_EQUAL_REL``.
"""

import contextlib
import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_solver_pins import CAUCHY, CLUSTER, LAGRANGE, _cluster_case

import cdt.convexity
import cdt.divergences
from cdt.centroids import bregman_centroid
from cdt.convexity import TRUSTED_CONVEX, _pullback, function_model
from cdt.divergences import QabdSpec, WeightedSet, _qabd_checked, _qabd_raw, qabd
from cdt.errors import DerivativeError, DomainError
from cdt.expr import expression_generator, expression_model
from cdt.generators import (
    IDENTITY,
    INF,
    LOG,
    Generator,
    Interval,
    _invert_monotone,
    _monotone_direction,
    get_generator,
    power_generator,
)
from cdt.means import NEAR_EQUAL_REL, cauchy_mean, lagrange_mean


class Counted:
    def __init__(self, fn):
        self.fn, self.calls, self.points = fn, 0, 0

    def __call__(self, x):
        self.calls += 1
        self.points += np.size(x)
        return self.fn(x)


def near(c, width=1e-7):
    """Mask of the points within width of c: narrow enough that no data,
    scan or certificate point falls in it, only late bisection midpoints."""
    return lambda x: np.abs(x - c) < width


# ---------------------------------------------------------- fault injection

CENTROID_X2, CENTROID_EXP_X2 = CLUSTER[0][4], CLUSTER[2][4]


def centroid_with(F, rho, tau, case):
    _, pts, w = _cluster_case(case)
    return bregman_centroid(QabdSpec(F, rho, tau, verdict=TRUSTED_CONVEX), WeightedSet(pts, w))


def centroid_nan_derivative():
    bad = near(CENTROID_X2)
    F = function_model("x^2 bad-deriv", (0.2, 12.0), lambda x: x * x, lambda x: np.where(bad(x), np.nan, 2.0 * x))
    return centroid_with(F, IDENTITY, IDENTITY, 0)


def centroid_F_leaves_tau_domain():
    bad = near(CENTROID_EXP_X2)
    F = function_model(
        "exp(x^2) dip", (0.1, 2.5), lambda x: np.where(bad(x), -1.0, np.exp(x * x)), lambda x: 2.0 * x * np.exp(x * x)
    )
    return centroid_with(F, IDENTITY, LOG, 2)


def centroid_nan_inverse():
    bad = near(CENTROID_X2)
    rho = Generator("identity-nan", Interval(), lambda x: x, lambda y: np.where(bad(y), np.nan, y), np.ones_like)
    return centroid_with(expression_model("x^2", (0.2, 12.0)), rho, IDENTITY, 0)


def centroid_far_inverse():
    bad = near(CENTROID_X2)
    rho = Generator("identity-far", Interval(), lambda x: x, lambda y: np.where(bad(y), 50.0, y), np.ones_like)
    return centroid_with(expression_model("x^2", (0.2, 12.0)), rho, IDENTITY, 0)


LOG_NAN = Generator(
    "log-nan", Interval(0.0, INF), np.log, np.exp, lambda x: np.where(near(LAGRANGE[0][3])(x), np.nan, 1.0 / x)
)
CUBE_NAN = Generator(
    "cube-nan", Interval(0.0, INF), lambda x: x**3, np.cbrt, lambda x: np.where(near(CAUCHY[1][4])(x), np.nan, 3.0 * x * x)
)


def sq_raising_above_5():
    """x^2 on (0.1, 9) whose derivative raises ValueError on any array with
    a point above 5: not on the two points that decide how it is called, so
    the raw G' and qabd chains raise and the checked chain reruns."""

    def derivative(x):
        if np.any(np.asarray(x) > 5.0):
            raise ValueError("above 5")
        return 2.0 * np.asarray(x)

    F = function_model("sq", (0.1, 9.0), lambda x: x * x, derivative)
    assert F.derivative is derivative
    return QabdSpec(F, IDENTITY, IDENTITY, verdict=TRUSTED_CONVEX)


#: (case, expected message), recorded with the checked chain in the solver
FAULTS = [
    (centroid_nan_derivative, "the derivative of 'x^2 bad-deriv' is undefined at 3.5463893105091477"),
    (centroid_F_leaves_tau_domain,
     "-1.0 outside domain Interval(lo=0.0, hi=inf) of the derivative of generator 'log'"),
    (centroid_nan_inverse, "the inverse of generator 'identity-nan' is undefined at 3.5463893105091477"),
    (centroid_far_inverse, "3.5463893105091477 pulls back to 50.0, outside Interval(lo=0.2, hi=12.0)"),
    (lambda: lagrange_mean(LOG_NAN, 1.5, 7.0), "the derivative of generator 'log-nan' is undefined at 3.570396825671196"),
    (lambda: cauchy_mean(LOG_NAN, IDENTITY, 1.5, 7.0),
     "the derivative of generator 'log-nan' is undefined at 3.570396825671196"),
    (lambda: cauchy_mean(power_generator(2), CUBE_NAN, 0.4, 5.0),
     "the derivative of generator 'cube-nan' is undefined at 3.353086441755295"),
    # The inverse's own DomainError passes through Generator.inv unchanged.
    (lambda: expression_generator("x^3+x", (0.1, 5)).inv(200.0),
     "200.0 outside the image of 'x^3+x' on Interval(lo=0.1, hi=5.0)"),
    (lambda: bregman_centroid(sq_raising_above_5(), WeightedSet([1.0, 2.0, 6.0], [0.3, 0.3, 0.4])),
     "the derivative of 'sq' is undefined at 6.0"),
    (lambda: qabd(sq_raising_above_5(), 1.0, 6.0), "the derivative of 'sq' is undefined at 6.0"),
]


@pytest.mark.parametrize(
    "case,message",
    FAULTS,
    ids=["centroid-nan-F'", "centroid-F-outside-tau", "centroid-nan-rho^-1", "centroid-far-rho^-1",
         "lagrange-nan-f'", "cauchy-nan-f'", "cauchy-nan-g'", "expr-outside-image", "centroid-raising-F'",
         "qabd-raising-F'"],
)
def test_fault_raises_the_checked_chains_error(case, message):
    with pytest.raises(DomainError) as info:
        case()
    assert str(info.value) == message


def test_expression_inverse_raises_at_a_nan_midpoint():
    # The sixth bisection midpoint for y = 2 on the window of (0.1, 5); the
    # expression is NaN there only (0 * log 0), which the solver used to
    # follow silently to 0.9421875032812458 instead of 1.
    lo, hi = Interval(0.1, 5.0).finite_window()
    for _ in range(6):
        m = 0.5 * (lo + hi)
        lo, hi = (m, hi) if m**3 + m < 2.0 else (lo, m)
    gen = expression_generator(f"x^3+x+0*log(abs(x-{m!r}))", (0.1, 5))
    assert gen.inv(1.0) == expression_generator("x^3+x", (0.1, 5)).inv(1.0)
    with pytest.raises(DomainError) as info:
        gen.inv(2.0)
    assert str(info.value) == f"'x^3+x+0*log(abs(x-{m!r}))' is undefined at {m!r}"


# ------------------------------------------------------- the solver itself


def test_solver_raises_at_the_first_nan():
    with pytest.raises(DomainError, match="NaN at 2.0"):
        _invert_monotone(lambda x: np.where(x > 1.5, np.nan, x), 1.8, 0.0, 2.0, 1e-14)
    with pytest.raises(DomainError, match="NaN at 1.0"):
        _invert_monotone(lambda x: np.where(x == 1.0, np.nan, x), 0.4, 0.0, 2.0, 1e-14)
    with pytest.raises(DomainError, match="NaN at 0.75"):
        _invert_monotone(lambda x: np.where(x == 0.75, np.nan, x), np.array([0.4, 0.2]), 0.0, np.array([2.0, 1.5]), 1e-14)


def test_scan_makes_one_call():
    fun = Counted(np.exp)
    assert _monotone_direction(fun, np.array([-1.0, 0.0, 2.0]), np.array([2.0, 1.0, 3.0])).tolist() == [1, 1, 1]
    assert fun.calls == 1


def test_scan_of_a_raising_fun_names_the_row_by_row_culprit():
    # The checked chain tests every point's inverse before any point's F, so
    # an error from one call over all points would name the NaN inverse at 7;
    # row by row, the first bad row (x = 3) names F, as the scan always has.
    dom = Interval(0.0, 10.0)
    rho = Generator("nan-above-6", dom, lambda x: x, lambda y: np.where(y > 6.0, np.nan, y), np.ones_like)
    F = function_model("inf-at-3", dom, lambda x: np.where(np.abs(x - 3.0) < 0.01, np.inf, x), np.ones_like)
    G = QabdSpec(F, rho, IDENTITY, verdict=TRUSTED_CONVEX).reduced
    with pytest.raises(DomainError, match=r"^'inf-at-3' is undefined at 3.0$"):
        _monotone_direction(G.deriv, 1.0, 9.0, 5)


# -------------------------------------------------------- evaluation counts

#: per CLUSTER triple: (G' calls, F points) of one bregman_centroid: one
#: call at the 24 data points, one scan of 33, two at the bracket ends and
#: one per round along predicted paths, whose midpoints go to F as well as
#: the data.  G' of x^2 under (identity, identity) and of exp(x^2) under
#: (identity, log) is linear, so the secant finds the root and one round of
#: 42 and 40 levels confirms them all; the other two take rounds of 42, 8,
#: 14 and 19 levels and of 43, 10, 14 and 19.  (Six levels per call gave
#: 11, 11, 11 and 12 calls at 524, 524, 524 and 587 points; one level per
#: call gave 46, 46, 44 and 47 calls at 125, 125, 123 and 126 points.)
COUNTS = [(5, 125), (8, 166), (5, 123), (8, 169)]


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
def test_centroid_evaluation_counts(case):
    spec, pts, w = _cluster_case(case)
    counted = dataclasses.replace(spec.F, eval=Counted(spec.F.eval))
    spec = QabdSpec(counted, spec.rho, spec.tau, verdict=TRUSTED_CONVEX)
    G = spec.reduced
    gprime = Counted(G.derivative)
    object.__setattr__(G, "derivative", gprime)
    counted.eval.points = 0
    assert bregman_centroid(spec, WeightedSet(pts, w)) == CLUSTER[case][4]
    assert (gprime.calls, counted.eval.points) == COUNTS[case]


def test_lagrange_derivative_calls():
    fprime = Counted(LOG.derivative)
    gen = Generator("counted-log", LOG.domain, LOG.forward, LOG.inverse, fprime)
    assert lagrange_mean(gen, 1.5, 7.0) == LAGRANGE[0][3]
    # one probe when the generator is built, one scan, two calls at the
    # bracket ends and five rounds, of 47, 4, 6, 14 and 25 levels (six
    # levels per call gave 12, one level per call 52)
    assert fprime.calls == 9


# ------------------------------------------------ raw chain == checked chain


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
@settings(deadline=None, max_examples=40)
@given(t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_raw_chain_equals_checked_composition(case, t):
    spec = _cluster_case(case)[0]
    F, rho, tau = spec.F, spec.rho, spec.tau
    dom = F.domain.intersect(rho.domain)
    ulo, uhi = rho.value(np.array(dom.finite_window()))
    u = ulo + np.array(t) * (uhi - ulo)
    x = _pullback(rho, u, dom)
    want = tau.deriv(F.value(x)) * F.deriv(x) / rho.deriv(x)
    assert spec.reduced.deriv(u).tolist() == want.tolist()


def single(fn):
    """fn with its values rounded to float32."""
    return lambda x: np.asarray(fn(x)).astype(np.float32)


@contextlib.contextmanager
def checked_only(module):
    """Within, module's ``_fused`` returns the checked chain."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_fused", lambda raw, checked: checked)
        yield


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
def test_float32_model_gives_the_checked_chains_centroid(case):
    spec, pts, w = _cluster_case(case)
    F = function_model("single", spec.F.domain, single(spec.F.eval), single(spec.F.derivative))
    raw = QabdSpec(F, spec.rho, spec.tau, verdict=TRUSTED_CONVEX)
    with checked_only(cdt.convexity):
        checked = QabdSpec(F, spec.rho, spec.tau, verdict=TRUSTED_CONVEX)
    assert bregman_centroid(raw, WeightedSet(pts, w)) == bregman_centroid(checked, WeightedSet(pts, w))


# ------------------------------------------------- qabd's raw chain == checked

#: qabd(p : q) over a row of centers p and a column of points q
P_ROW, Q_COL = np.array([[1.0, 5.0, 9.0]]), np.array([[0.5], [2.0], [7.0]])
X2 = function_model("x^2", (0.2, 12.0), lambda x: x * x, lambda x: 2.0 * x)
X2_WIDE = function_model("x^2 wide", (-1.0, 12.0), lambda x: x * x, lambda x: 2.0 * x)


def at(c, bad, good):
    """good, with the value bad at the points equal to c."""
    return lambda x: np.where(x == c, bad, good(x))


def qabd_case(F=X2, rho=IDENTITY, tau=IDENTITY, p=P_ROW, q=Q_COL):
    return QabdSpec(F, rho, tau, verdict=TRUSTED_CONVEX), p, q


def identity_with(name, forward=lambda x: x, derivative=np.ones_like):
    return Generator(name, Interval(), forward, lambda y: y, derivative)


#: the identity on (0, inf): finite where it is not defined
POSITIVE_IDENTITY = Generator("positive", Interval(0.0, INF), lambda x: x, lambda y: y, np.ones_like)

#: (spec, p, q), the error type and its message, recorded with the checked chain
QABD_FAULTS = {
    "F-not-finite": (qabd_case(F=function_model("x^2 inf", (0.2, 12.0), at(2.0, np.inf, np.square), lambda x: 2.0 * x)),
                     DomainError, "'x^2 inf' is undefined at 2.0"),
    "p-outside-F": (qabd_case(p=np.array([[1.0, 5.0, 13.0]])),
                    DomainError, "13.0 outside domain Interval(lo=0.2, hi=12.0) of 'x^2'"),
    "q-outside-F": (qabd_case(q=np.array([[0.5], [0.1], [7.0]])),
                    DomainError, "0.1 outside domain Interval(lo=0.2, hi=12.0) of 'x^2'"),
    "q-outside-rho": (qabd_case(F=X2_WIDE, rho=LOG, q=np.array([[0.5], [-0.5], [7.0]])),
                      DomainError, "-0.5 outside domain Interval(lo=0.0, hi=inf) of the derivative of generator 'log'"),
    "p-outside-rho": (qabd_case(F=X2_WIDE, rho=LOG, p=np.array([[1.0, -0.5, 9.0]])),
                      DomainError, "-0.5 outside domain Interval(lo=0.0, hi=inf) of generator 'log'"),
    "F(q)-outside-tau": (qabd_case(F=function_model("x^2 dip", (0.2, 12.0), at(2.0, -1.0, np.square), lambda x: 2.0 * x),
                                   tau=LOG),
                         DomainError, "-1.0 outside domain Interval(lo=0.0, hi=inf) of the derivative of generator 'log'"),
    "F(p)-outside-tau": (qabd_case(F=function_model("x^2 dip", (0.2, 12.0), at(5.0, -1.0, np.square), lambda x: 2.0 * x),
                                   tau=LOG),
                         DomainError, "-1.0 outside domain Interval(lo=0.0, hi=inf) of generator 'log'"),
    "F(p)-outside-tau-finite": (qabd_case(F=function_model("x^2 dip", (0.2, 12.0), at(5.0, -1.0, np.square),
                                                           lambda x: 2.0 * x), tau=POSITIVE_IDENTITY),
                                DomainError, "-1.0 outside domain Interval(lo=0.0, hi=inf) of generator 'positive'"),
    "tau'-vanishes": (qabd_case(tau=identity_with("flat-at-4", derivative=at(4.0, 1e-305, np.ones_like))),
                      DerivativeError, "tau'(F(q)) underflowed at 2.0"),
    "rho'-vanishes": (qabd_case(rho=identity_with("flat-at-7", derivative=at(7.0, 1e-305, np.ones_like))),
                      DerivativeError, "rho'(q) underflowed at 7.0"),
    "nan-F'": (qabd_case(F=function_model("x^2 nan-at-7", (0.2, 12.0), np.square, at(7.0, np.nan, lambda x: 2.0 * x))),
               DomainError, "the derivative of 'x^2 nan-at-7' is undefined at 7.0"),
    "nan-tau": (qabd_case(tau=identity_with("nan-at-81", forward=at(81.0, np.nan, lambda x: x))),
                DomainError, "generator 'nan-at-81' is undefined at 81.0"),
    "nan-rho": (qabd_case(rho=identity_with("nan-at-5", forward=at(5.0, np.nan, lambda x: x))),
                DomainError, "generator 'nan-at-5' is undefined at 5.0"),
}


@pytest.mark.parametrize("name", sorted(QABD_FAULTS))
def test_qabd_fault_raises_the_checked_chains_error(name):
    (spec, p, q), error, message = QABD_FAULTS[name]
    for chain in (_qabd_raw, _qabd_checked):
        with pytest.raises(error) as info:
            chain(spec, p, q)
        assert str(info.value) == message


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
@settings(deadline=None, max_examples=40)
@given(s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4), t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_qabd_raw_chain_equals_checked_chain(case, s, t):
    spec = _cluster_case(case)[0]
    lo, hi = spec.F.domain.intersect(spec.rho.domain).finite_window()
    p, q = lo + np.array(s)[None, :] * (hi - lo), lo + np.array(t)[:, None] * (hi - lo)
    want = _qabd_checked(spec, p, q)
    assert _qabd_raw(spec, p, q).tobytes() == want.tobytes()
    assert _qabd_raw(spec, float(p[0, 0]), float(q[0, 0])) == want[0, 0]


def test_qabd_takes_the_raw_chain_on_clean_pairs():
    spec, p, q = qabd_case(tau=LOG, rho=LOG)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cdt.divergences, "_qabd_checked", None)  # any call of it fails
        raw = _qabd_raw(spec, p, q)
    assert raw.tobytes() == _qabd_checked(spec, p, q).tobytes()


# ------------------------------------------------------------ mpmath oracle

mp = mpmath.mp.clone()
mp.dps = 50


def mp_generator(name):
    """(f, f') of a built-in generator in mpmath."""
    if name == "identity":
        return (lambda x: x), (lambda x: mp.mpf(1))
    if name == "log":
        return mp.log, (lambda x: 1 / x)
    if name == "exp":
        return mp.exp, mp.exp
    if name == "reciprocal":
        return (lambda x: -1 / x), (lambda x: 1 / x**2)
    d = mp.mpf(name.split(":")[1])
    s = 1 if d > 0 else -1
    return (lambda x: s * x**d), (lambda x: s * d * x ** (d - 1))


def mp_cauchy(f, g, p, q):
    """(f'/g')^{-1}((f(q) - f(p)) / (g(q) - g(p))) to 50 digits."""
    (F, dF), (Gg, dG) = mp_generator(f), mp_generator(g)
    p, q = mp.mpf(p), mp.mpf(q)
    target = (F(q) - F(p)) / (Gg(q) - Gg(p))
    return mp.findroot(lambda x: dF(x) / dG(x) - target, (min(p, q), max(p, q)), solver="anderson")


def mean_of(f, g, p, q):
    if g == "identity":
        return lagrange_mean(get_generator(f), p, q)
    return cauchy_mean(get_generator(f), get_generator(g), p, q)


PAIRS = [(f, "identity") for f, *_ in LAGRANGE] + [(f, g) for f, g, *_ in CAUCHY]
FAR = [(f, "identity", p, q) for f, p, q, _ in LAGRANGE] + [(f, g, p, q) for f, g, p, q, _ in CAUCHY]


def rel_error(got, want):
    return float(abs((got - want) / want))


@pytest.mark.parametrize("f,g,p,q", FAR)
def test_far_pairs_match_oracle(f, g, p, q):
    assert rel_error(mean_of(f, g, p, q), mp_cauchy(f, g, p, q)) < 1e-14


# With p > 1 the near-equal cut-off |q - p| < NEAR_EQUAL_REL * p is relative.
BELOW = [0.5, 0.99]
ABOVE = [1.01, 2.0, 10.0]


@pytest.mark.parametrize("f,g", PAIRS)
@pytest.mark.parametrize("k", BELOW)
def test_pairs_below_the_cut_off_give_the_midpoint(f, g, k):
    p = 3.0
    q = p * (1.0 + k * NEAR_EQUAL_REL)
    assert mean_of(f, g, p, q) == 0.5 * (p + q)
    assert rel_error(mean_of(f, g, p, q), mp_cauchy(f, g, p, q)) < 1e-15


@pytest.mark.parametrize("f,g", PAIRS)
@pytest.mark.parametrize("k", ABOVE)
def test_pairs_above_the_cut_off_stay_inside_the_bracket(f, g, k):
    # Above the cut-off the bisection target (f(q) - f(p)) / (g(q) - g(p))
    # cancels to about eps / gap, so the solve is only as good as its
    # bracket: errors up to half the gap.
    p = 3.0
    q = p * (1.0 + k * NEAR_EQUAL_REL)
    got = mean_of(f, g, p, q)
    assert p <= got <= q
    assert rel_error(got, mp_cauchy(f, g, p, q)) <= 0.5 * k * NEAR_EQUAL_REL * (1.0 + 1e-6)


@pytest.mark.xfail(strict=True, reason="the bisection on a cancelled target loses all but the bracket just above "
                   "NEAR_EQUAL_REL, where the midpoint is accurate to about gap^2")
def test_pairs_just_above_the_cut_off_are_as_accurate_as_the_midpoint():
    p = 3.0
    q = p * (1.0 + 2.0 * NEAR_EQUAL_REL)
    assert rel_error(lagrange_mean(LOG, p, q), mp_cauchy("log", "identity", p, q)) < 1e-15
