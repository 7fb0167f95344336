"""The monotone solver, and the chains of checked calls it inverts.

The centroids solve h = tau'(F) F' / rho' in data coordinates, and
``kmeans_cluster`` combines a per-point table of the data with a chain at
the centers: each one chain of checked calls whose checks are deferred to
its end, with an eager rerun that raises (``generators._deferred``), as is
``qabd``, which is the checked chain itself.
The Lagrange/Cauchy ratio f'/g' is checked call by call, and the
expression-generator inverse hands the solver the expression checked for
finiteness in one call.  These tests pin:

* fault injection: a NaN derivative at an interior bisection midpoint, F
  leaving tau's domain between two good bracket ends, a derivative that
  raises on an array and a ratio f'/g' that is NaN where neither
  derivative is raise the typed error, with the message, that the checked
  chain raises, after the deferred pass and on the eager path alike;
  ``kmeans_cluster`` raises ``qabd``'s errors as the checked chain does,
  and no centroid reads rho^-1;
* the deferral: a model without derivatives takes the one chain, and a
  chain open in one thread defers no check of another;
* the solver's NaN check, which used to steer the bisection silently;
* evaluation counts: one scan call, whose rows seed the solve, and one
  call per round along predicted bisection paths; one F call at the data
  per ``kmeans_cluster``, and the checked chains of a ``kmeans_cluster``
  job, whose distances at the seeds are read from the table, bit for bit
  the chain's;
* the h and ``qabd`` chains against the checked composition, bit for bit,
  h also for callables that return float32;
* ``lagrange_mean`` and ``cauchy_mean`` against the 50-digit oracle on far
  pairs, on pairs just below and just above ``NEAR_EQUAL_REL``, on every
  relative gap from there to ``_QUOTIENT_REL``; the far pairs include exp
  pairs below it that are too wide for a K15 mean.
"""

import contextlib
import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import rel_error
from test_solver_pins import CAUCHY, CLUSTER, LAGRANGE, _cluster_case

import cdt.centroids
import cdt.divergences
import cdt.expr
from cdt.centroids import _gradient, bregman_centroid, kmeans_cluster
from cdt.convexity import TRUSTED_CONVEX, function_model, to_ordinary
from cdt.divergences import QabdSpec, WeightedSet, _anchors, _qabd_at, _qabd_checked, _qabd_raw, qabd
from cdt.errors import DerivativeError, DomainError
from cdt.expr import expression_generator, expression_model
from cdt.generators import (
    EXP,
    IDENTITY,
    INF,
    LOG,
    Generator,
    Interval,
    _deferred,
    _invert_monotone,
    _monotone_direction,
    get_generator,
    power_generator,
)
from cdt.means import NEAR_EQUAL_REL, _QUOTIENT_REL, cauchy_mean, lagrange_mean


class Counted:
    def __init__(self, fn):
        self.fn, self.calls, self.points, self.args = fn, 0, 0, []

    def __call__(self, x):
        self.calls += 1
        self.points += np.size(x)
        self.args.append(np.array(x))
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


LOG_NAN = Generator(
    "log-nan", Interval(0.0, INF), np.log, np.exp, lambda x: np.where(near(LAGRANGE[0][3])(x), np.nan, 1.0 / x)
)
CUBE_NAN = Generator(
    "cube-nan", Interval(0.0, INF), lambda x: x**3, np.cbrt, lambda x: np.where(near(CAUCHY[1][4])(x), np.nan, 3.0 * x * x)
)

#: the Cauchy mean of x^3 and x^2 on (3, 3.003), a pair closer than
#: _QUOTIENT_REL, which solves for the bracket fraction
CLOSE_CAUCHY = 3.0015002498750616


def close_cauchy_nan_ratio():
    """That mean with both derivatives inf near it, so that their ratio is
    NaN there while neither derivative is: the solve names the argument."""
    bad = near(CLOSE_CAUCHY)
    f = Generator("cube-inf", Interval(0.0, INF), lambda x: x**3, np.cbrt, lambda x: np.where(bad(x), INF, 3.0 * x * x))
    g = Generator("square-inf", Interval(0.0, INF), lambda x: x * x, np.sqrt, lambda x: np.where(bad(x), INF, 2.0 * x))
    return cauchy_mean(f, g, 3.0, 3.003)


def sq_raising_above_5():
    """x^2 on (0.1, 9) whose derivative raises ValueError on any array with
    a point above 5: not on the two points that decide how it is called, so
    the deferred h and qabd chains raise and their eager reruns name it."""

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
    (lambda: lagrange_mean(LOG_NAN, 1.5, 7.0), "the derivative of generator 'log-nan' is undefined at 3.570396825671196"),
    (lambda: cauchy_mean(LOG_NAN, IDENTITY, 1.5, 7.0),
     "the derivative of generator 'log-nan' is undefined at 3.570396825671196"),
    (lambda: cauchy_mean(power_generator(2), CUBE_NAN, 0.4, 5.0),
     "the derivative of generator 'cube-nan' is undefined at 3.353086441755295"),
    (close_cauchy_nan_ratio, "the function to invert is NaN at 3.0015001831054686"),
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
    ids=["centroid-nan-F'", "centroid-F-outside-tau", "lagrange-nan-f'", "cauchy-nan-f'", "cauchy-nan-g'",
         "cauchy-close-nan-f'/g'", "expr-outside-image", "centroid-raising-F'", "qabd-raising-F'"],
)
def test_fault_raises_the_checked_chains_error(case, message):
    with pytest.raises(DomainError) as info:
        case()
    assert str(info.value) == message


@pytest.mark.parametrize("wrong", [np.nan, 50.0], ids=["nan", "far"])
def test_a_broken_rho_inverse_leaves_the_centroid_unchanged(wrong):
    # The centroid is solved in x: no solve reads rho^-1, which returned a
    # NaN or a point far outside the domain near the centroid (and raised
    # there while the solve was in rho(x)).
    bad = near(CENTROID_X2)
    rho = Generator("identity-broken", Interval(), lambda x: x, lambda y: np.where(bad(y), wrong, y), np.ones_like)
    assert centroid_with(expression_model("x^2", (0.2, 12.0)), rho, IDENTITY, 0) == CENTROID_X2


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
    assert _monotone_direction(fun, np.array([-1.0, 0.0, 2.0]), np.array([2.0, 1.0, 3.0]))[0].tolist() == [1, 1, 1]
    assert fun.calls == 1


def test_scan_of_a_raising_fun_raises_the_error_of_its_one_call():
    # The checked chain tests every point's inverse before any point's F, so
    # the one call over all points names the NaN inverse at 7, not F's
    # infinity at 3, the first bad point in the order of the rows.
    dom = Interval(0.0, 10.0)
    rho = Generator("nan-above-6", dom, lambda x: x, lambda y: np.where(y > 6.0, np.nan, y), np.ones_like)
    F = function_model("inf-at-3", dom, lambda x: np.where(np.abs(x - 3.0) < 0.01, np.inf, x), np.ones_like)
    G = to_ordinary(F, rho, IDENTITY)
    with pytest.raises(DomainError, match=r"^the inverse of generator 'nan-above-6' is undefined at 7.0$"):
        _monotone_direction(G.deriv, 1.0, 9.0, 5)


# -------------------------------------------------------- evaluation counts

#: per CLUSTER triple: (h calls, F points) of one bregman_centroid: the
#: table's one F call at the 24 data points, one scan of 33, whose rows give
#: the solver the values at the bracket ends and its first estimate, and one
#: call per round along predicted paths.  h of x^2 under (identity,
#: identity) and of exp(x^2) under (identity, log) is linear, so one round
#: of 42 and 40 levels confirms them all; the other two take one round of
#: 41 levels and three of 41, 28 and 3.  (Solved in rho(x), G' took a call
#: at the data and tau'(F) another F call there: 3, 4, 3 and 5 G' calls at
#: 123, 150, 121 and 158 F points.)
COUNTS = [(2, 99), (2, 98), (2, 97), (4, 129)]


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
def test_centroid_evaluation_counts(case):
    spec, pts, w = _cluster_case(case)
    counted = dataclasses.replace(spec.F, eval=Counted(spec.F.eval))
    spec = QabdSpec(counted, spec.rho, spec.tau, verdict=TRUSTED_CONVEX)
    counted.eval.points, calls = 0, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cdt.centroids, "_gradient", lambda spec: calls.append(Counted(_gradient(spec))) or calls[-1])
        assert bregman_centroid(spec, WeightedSet(pts, w)) == CLUSTER[case][4]
    assert (calls[0].calls, counted.eval.points) == COUNTS[case]


#: F points of one kmeans_cluster at k = 3 per CLUSTER triple.  Case 0
#: evaluates F at [24, 99, 123, 3] points: the table's one call at the data,
#: the centroid solve's scan and one round for three clusters, and three at
#: the Lloyd distance call.  The seeds are data points, whose distances are
#: read from the table: evaluating F at each seed's distance call, once per
#: seeding call and three times for the first Lloyd sweep, cost 5 points
#: more (254, 254, 704 and 638).  With every distance call evaluating the
#: data side and the centroids solved in rho(x), the four took 374, 446,
#: 965 and 836 F points and 249, 321, 744 and 663 rho^-1 points.  A centre
#: below 1 costs a few more points than when the tolerance was absolute
#: below 1 (246, 696 and 627 for the last three): each solve of such a
#: centre steps its paths a level further.
KMEANS_F_POINTS = [249, 249, 699, 633]


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
def test_kmeans_evaluates_F_at_the_data_once_and_never_rho_inverse(case):
    spec, pts, w = _cluster_case(case)
    F = dataclasses.replace(spec.F, eval=Counted(spec.F.eval))
    rho = Generator("counted", spec.rho.domain, spec.rho.forward, Counted(spec.rho.inverse), spec.rho.derivative)
    spec = QabdSpec(F, rho, spec.tau, verdict=TRUSTED_CONVEX)
    F.eval.args.clear()
    F.eval.points = rho.inverse.calls = 0
    assert kmeans_cluster(spec, WeightedSet.uniform(pts), 3, seed=case).centers == CLUSTER[case][5]
    assert len([x for x in F.eval.args if np.isin(pts, x).all()]) == 1 and F.eval.points == KMEANS_F_POINTS[case]
    assert bregman_centroid(spec, WeightedSet(pts, w)) == CLUSTER[case][4]
    assert rho.inverse.calls == 0


#: checked chains (``generators._deferred`` calls) per CLUSTER triple: of
#: one kmeans_cluster at k = 3, and of one bregman_centroid, which is the
#: table and its COUNTS h calls.  Case 0's job runs the table, the scan and
#: one round of the one centroid solve, and the distance call at the
#: centroids; computing the distances at the seeds, which are data points,
#: by a chain of their own added three more (7, 7, 13 and 12).
KMEANS_CHAINS, CENTROID_CHAINS = [4, 4, 10, 9], [3, 3, 3, 5]

#: h calls of each centroid solve of that kmeans_cluster
KMEANS_H_CALLS = [[2], [2], [2, 2, 2], [3, 3]]


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
def test_kmeans_runs_each_chain_once(case):
    # a change that evaluates data points again fails here, not only in
    # the benchmark
    spec, pts, w = _cluster_case(case)
    chains, solves = [], []

    def counted(chain, *args):
        chains.append(chain)
        return _deferred(chain, *args)

    def gradient(spec):
        solves.append(Counted(_gradient(spec)))
        return solves[-1]

    with pytest.MonkeyPatch.context() as patch:
        for module in (cdt.centroids, cdt.divergences):
            patch.setattr(module, "_deferred", counted)
        patch.setattr(cdt.centroids, "_gradient", gradient)
        assert kmeans_cluster(spec, WeightedSet.uniform(pts), 3, seed=case).centers == CLUSTER[case][5]
        assert (len(chains), [h.calls for h in solves]) == (KMEANS_CHAINS[case], KMEANS_H_CALLS[case])
        chains.clear()
        assert bregman_centroid(spec, WeightedSet(pts, w)) == CLUSTER[case][4]
        assert len(chains) == CENTROID_CHAINS[case] == 1 + COUNTS[case][0]


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_distances_read_from_the_table_equal_the_chains(case, data):
    # kmeans_cluster reads the distances at its seeds from the table's rows;
    # at any data points taken as centres they are the chain's bit for bit
    spec, pts, _ = _cluster_case(case)
    pts = np.asarray(pts)
    idx = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=6))
    anchors = _anchors(spec, pts[:, None])
    read, chain = cdt.centroids._data_distances(anchors, idx), cdt.centroids._distances(spec, anchors, pts[idx])
    assert (read.shape, read.tobytes()) == (chain.shape, chain.tobytes())


def test_lagrange_derivative_calls():
    fprime = Counted(LOG.derivative)
    gen = Generator("counted-log", LOG.domain, LOG.forward, LOG.inverse, fprime)
    assert lagrange_mean(gen, 1.5, 7.0) == LAGRANGE[0][3]
    # one probe when the generator is built, one scan and three rounds, of
    # 48, 32 and 1 levels (evaluating the bracket ends again and starting
    # from their secant gave 9, six levels per call 12, one level per call
    # 52)
    assert fprime.calls == 5


def test_expression_inverse_calls():
    # One inverse of x^3 + x on (0.1, 5) evaluates the expression in three
    # rounds, of 49, 33 and 11 levels: the 65-point scan taken when the
    # generator was built gives the values at the bracket ends and the first
    # estimate (evaluating the ends again and starting from their secant
    # gave 8 calls at 104 points: 1, 1, 49, 8, 4, 10, 22 and 9).
    gen = expression_generator("x^3 + x", (0.1, 5))
    apply, sizes = cdt.expr._apply, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cdt.expr, "_apply", lambda fn, x, *rest: (sizes.append(np.size(x)), apply(fn, x, *rest))[1])
        assert gen.inv(2.0) == 1.0000000000000036
    assert sizes == [49, 33, 11]


# ------------------------------------------- h's chain == checked composition


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
@settings(deadline=None, max_examples=40)
@given(t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_raw_chain_equals_checked_composition(case, t):
    spec = _cluster_case(case)[0]
    F, rho, tau = spec.F, spec.rho, spec.tau
    lo, hi = F.domain.intersect(rho.domain).finite_window()
    x = lo + np.array(t) * (hi - lo)
    want = tau.deriv(F.value(x)) * F.deriv(x) / rho.deriv(x)
    assert _gradient(spec)(x).tolist() == want.tolist()


def single(fn):
    """fn with its values rounded to float32."""
    return lambda x: np.asarray(fn(x)).astype(np.float32)


def eager(chain, *args):
    """chain(*args) as ``generators._deferred`` reruns it: under one
    errstate, each checked call raising at once."""
    with np.errstate(all="ignore"):
        return chain(*args)


@contextlib.contextmanager
def eager_only():
    """Within, every chain of the centroids and of ``qabd`` runs eagerly."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (cdt.centroids, cdt.divergences):
            patch.setattr(module, "_deferred", eager)
        yield


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
def test_float32_model_gives_the_checked_chains_centroid(case):
    spec, pts, w = _cluster_case(case)
    F = function_model("single", spec.F.domain, single(spec.F.eval), single(spec.F.derivative))
    spec = QabdSpec(F, spec.rho, spec.tau, verdict=TRUSTED_CONVEX)
    with eager_only():
        checked = bregman_centroid(spec, WeightedSet(pts, w))
    assert bregman_centroid(spec, WeightedSet(pts, w)) == checked


# ------------------------------------------------ qabd's chain == checked

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
    # deferred, a fault is flagged and the eager rerun raises its error; a
    # fault at p or at q alone (the table's) raises it from the table too
    (spec, p, q), error, message = QABD_FAULTS[name]
    for path in (contextlib.nullcontext, eager_only):
        for chain in (_qabd_raw, _qabd_checked, lambda spec, p, q: _qabd_at(spec, _anchors(spec, q), p)):
            with path(), pytest.raises(error) as info:
                chain(spec, p, q)
            assert str(info.value) == message


#: the error of kmeans_cluster on the points of a QABD_FAULTS case (its q
#: column, then its p row), where it is not qabd's: a bad p is a data
#: point, which the checked chain reaches first as an anchor q
KMEANS_MESSAGES = {
    "F(p)-outside-tau": "-1.0 outside domain Interval(lo=0.0, hi=inf) of the derivative of generator 'log'",
    "F(p)-outside-tau-finite":
        "-1.0 outside domain Interval(lo=0.0, hi=inf) of the derivative of generator 'positive'",
    "p-outside-rho": "-0.5 outside domain Interval(lo=0.0, hi=inf) of the derivative of generator 'log'",
}


@pytest.mark.parametrize("name", sorted(QABD_FAULTS))
def test_kmeans_fault_raises_the_checked_chains_error(name):
    (spec, p, q), error, message = QABD_FAULTS[name]
    ws = WeightedSet.uniform(tuple(np.concatenate([q.ravel(), p.ravel()]).tolist()))
    for path in (contextlib.nullcontext, eager_only):
        for k, seed in ((2, 0), (3, 1)):
            with path(), pytest.raises(error) as info:
                kmeans_cluster(spec, ws, k, seed=seed)
            assert str(info.value) == KMEANS_MESSAGES.get(name, message)


@pytest.mark.parametrize("name", sorted(QABD_FAULTS))
def test_centroid_fault_raises_the_kmeans_error(name):
    # the centroid of the same points reads the same table, whose every
    # check raises; a vanishing tau' or rho' gave 0.5 or 9.0 here, far from
    # the arithmetic mean 4.08, and a NaN tau a value too
    (spec, p, q), error, message = QABD_FAULTS[name]
    ws = WeightedSet.uniform(tuple(np.concatenate([q.ravel(), p.ravel()]).tolist()))
    for path in (contextlib.nullcontext, eager_only):
        with path(), pytest.raises(error) as info:
            bregman_centroid(spec, ws)
        assert str(info.value) == KMEANS_MESSAGES.get(name, message)


def test_a_nan_rho_at_a_data_point_raises_from_the_centroid():
    # no solve in x reads rho, but the table checks every column
    spec = QABD_FAULTS["nan-rho"][0][0]
    with pytest.raises(DomainError, match=r"^generator 'nan-at-5' is undefined at 5\.0$"):
        bregman_centroid(spec, WeightedSet.uniform((1.0, 5.0, 9.0)))


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
    anchors = _anchors(spec, q)  # one table for every row, as in kmeans_cluster
    for row in (p, p[:, ::-1], p[:, :1]):
        assert _qabd_at(spec, anchors, row).tobytes() == _qabd_checked(spec, row, q).tobytes()


def test_qabd_takes_the_raw_chain_on_clean_pairs():
    # the deferred pass alone: F at p and at q once each, and no rerun
    F = function_model("x^2", (0.2, 12.0), Counted(np.square), lambda x: 2.0 * x)
    spec, p, q = qabd_case(F=F, tau=LOG, rho=LOG)
    F.eval.calls = 0
    raw = _qabd_raw(spec, p, q)
    assert F.eval.calls == 2
    assert raw.tobytes() == _qabd_checked(spec, p, q).tobytes()


def test_a_model_without_derivatives_takes_the_one_chain():
    # F' is deriv's central difference, on the deferred pass as on the
    # eager one: each chain runs once, with no rerun, and its values are the
    # checked ones
    F = function_model("x^2+e^x", (0.2, 5), Counted(lambda x: x * x + np.exp(x)))
    spec = QabdSpec(F, LOG, LOG)
    p, q, x = np.array([[0.3, 1.0, 4.9]]), np.array([[0.5], [2.0], [4.5]]), np.linspace(0.25, 4.75, 7)
    F.eval.calls = 0
    B, h = _qabd_at(spec, _anchors(spec, q), p), _gradient(spec)(x)
    assert F.eval.calls == 3 + 1 + 3  # F(q) and two for F'(q), F(p), F(x) and two for F'(x)
    assert B.tobytes() == _qabd_checked(spec, p, q).tobytes()
    assert h.tobytes() == (LOG.deriv(F.value(x)) * F.deriv(x) / LOG.deriv(x)).tobytes()


def test_an_open_chain_defers_no_check_of_another_thread():
    opened, checked, raised = threading.Event(), threading.Event(), []

    def chain():
        opened.set()
        checked.wait(10)  # open while the other thread calls
        return LOG.value(-1.0)

    def run():
        try:
            _deferred(chain)
        except DomainError as exc:
            raised.append(str(exc))

    thread = threading.Thread(target=run)
    thread.start()
    try:
        assert opened.wait(10)
        with pytest.raises(DomainError, match=r"^-1\.0 outside domain Interval\(lo=0\.0, hi=inf\) of generator 'log'$"):
            LOG.value(-1.0)
    finally:
        checked.set()
        thread.join(10)
    assert not thread.is_alive()
    assert raised == ["-1.0 outside domain Interval(lo=0.0, hi=inf) of generator 'log'"]


# ------------------------------------------------------------ 50-digit oracle


def mean_of(f, g, p, q):
    if g == "identity":
        return lagrange_mean(get_generator(f), p, q)
    return cauchy_mean(get_generator(f), get_generator(g), p, q)


PAIRS = [(f, "identity") for f, *_ in LAGRANGE] + [(f, g) for f, g, *_ in CAUCHY]
#: the far-pair pins, and exp pairs closer than _QUOTIENT_REL but too wide
#: for the 15 points of a K15 mean (9e-9 off at (400, 449)): all quotients
EXP_WIDE = [(400.0, 449.0), (200.0, 224.0), (-449.0, -400.0)]
FAR = (
    [(f, "identity", p, q) for f, p, q, _ in LAGRANGE]
    + [(f, g, p, q) for f, g, p, q, _ in CAUCHY]
    + [("exp", "identity", p, q) for p, q in EXP_WIDE]
)


@pytest.mark.parametrize("f,g,p,q", FAR)
def test_far_pairs_match_oracle(f, g, p, q):
    assert rel_error(mean_of(f, g, p, q), oracle.cauchy(f, g, p, q)) < 1e-14


# With p > 1 the near-equal cut-off |q - p| < NEAR_EQUAL_REL * p is relative.
BELOW = [0.5, 0.99]
ABOVE = [1.01, 2.0, 10.0]


@pytest.mark.parametrize("f,g", PAIRS)
@pytest.mark.parametrize("k", BELOW)
def test_pairs_below_the_cut_off_give_the_midpoint(f, g, k):
    p = 3.0
    q = p * (1.0 + k * NEAR_EQUAL_REL)
    assert mean_of(f, g, p, q) == 0.5 * (p + q)
    assert rel_error(mean_of(f, g, p, q), oracle.cauchy(f, g, p, q)) < 1e-15


@pytest.mark.parametrize("f,g", PAIRS)
@pytest.mark.parametrize("k", ABOVE)
def test_pairs_above_the_cut_off_stay_inside_the_bracket(f, g, k):
    # Above the cut-off the target f[p, q] / g[p, q] is a ratio of K15 means
    # of the derivatives, which does not cancel, and the solve is for the
    # bracket fraction, so the mean is as accurate as its arguments.
    p = 3.0
    q = p * (1.0 + k * NEAR_EQUAL_REL)
    got = mean_of(f, g, p, q)
    assert p <= got <= q
    assert rel_error(got, oracle.cauchy(f, g, p, q)) < 1e-15


#: relative gaps up to just below _QUOTIENT_REL, from the 2e-9 that this
#: test took alone (ABOVE takes 1.01e-9 to 1e-8)
CLOSE_GAPS = [2.0 * NEAR_EQUAL_REL, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.99 * _QUOTIENT_REL]


@pytest.mark.parametrize("f,g", PAIRS)
@pytest.mark.parametrize("gap", CLOSE_GAPS)
def test_pairs_just_above_the_cut_off_are_as_accurate_as_the_midpoint(f, g, gap):
    p = 3.0
    q = p * (1.0 + gap)
    assert rel_error(mean_of(f, g, p, q), oracle.cauchy(f, g, p, q)) < 1e-15

