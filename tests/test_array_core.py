"""The array evaluation path: one array call equals the stacked scalar calls
bit for bit, float-only callables are wrapped once and agree with their
numpy twins, evaluation counts do not grow with the input, samplers with
nothing to sample or a malformed setting raise ParamError, and the
Stolarsky mean against an arbitrary-precision oracle."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import rel_error

import cdt.means as means_module
from cdt.centroids import kmeans_cluster
from cdt.cli import config_from_argv, dispatch
from cdt.convexity import FunctionModel, function_model, is_mn_convex
from cdt.divergences import (
    QabdSpec,
    WeightedSet,
    _nonnegative,
    _qabd_raw,
    bccd_numeric,
    bregman,
    jccd,
    jensen_diversity,
    lehmer_bregman,
    midpoint_verdict,
    omega_divergence,
    qabd,
    skew_jccd,
)
from cdt.errors import DomainError, ParamError
from cdt.expr import expression_generator, expression_model
from cdt.generators import EXP, IDENTITY, LOG, RECIPROCAL, Generator, Interval, get_generator, power_generator
from cdt.means import (
    ARITHMETIC,
    GEOMETRIC,
    cauchy,
    dominates,
    dual,
    lagrange,
    lehmer,
    mean_value,
    power,
    quasi_arithmetic,
    stolarsky,
    stolarsky_mean,
    weighted_means,
)
from cdt.quadrature import QuadratureConfig

SETTINGS = settings(deadline=None, max_examples=40)


def stacked(fn, xs):
    return np.array([fn(float(x)) for x in xs])


def bitwise_equal(a, b):
    return np.asarray(a).tolist() == np.asarray(b).tolist()


# ----------------------------------------------------------- generators

POSITIVE = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8)
GENERATORS = [
    (IDENTITY, st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8)),
    (LOG, POSITIVE),
    (RECIPROCAL, POSITIVE),
    (EXP, st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8)),
    (power_generator(2.5), POSITIVE),
    (power_generator(-2.5), POSITIVE),
    (power_generator(0.3), POSITIVE),
    (expression_generator("x^3+x", (0.1, 5)), st.lists(st.floats(0.11, 4.99), min_size=1, max_size=8)),
]


@pytest.mark.parametrize("gen,points", GENERATORS, ids=[g.id for g, _ in GENERATORS])
@SETTINGS
@given(data=st.data())
def test_generator_array_equals_stacked_scalars(gen, points, data):
    xs = np.array(data.draw(points))
    ys = gen.value(xs)
    assert bitwise_equal(ys, stacked(gen.value, xs))
    assert bitwise_equal(gen.inv(ys), stacked(gen.inv, ys))
    assert bitwise_equal(gen.deriv(xs), stacked(gen.deriv, xs))


MODELS = [
    function_model("exp", Interval(0.2, 6.0), np.exp, np.exp),
    expression_model("x^2.5", (0.1, 5.0)),
    expression_model("x^3+x", (0.1, 5.0)),
    function_model("exp(log^2 x)", Interval(0.4, 7.0), lambda x: np.exp(np.log(x) ** 2)),
]


@pytest.mark.parametrize("F", MODELS, ids=[F.id for F in MODELS])
@SETTINGS
@given(xs=st.lists(st.floats(0.41, 4.99), min_size=1, max_size=8))
def test_function_model_array_equals_stacked_scalars(F, xs):
    xs = np.array(xs)
    assert bitwise_equal(F.value(xs), stacked(F.value, xs))
    assert bitwise_equal(F.deriv(xs), stacked(F.deriv, xs))


#: the four (F, domain, rho, tau) triples of the clustering benchmark
TRIPLES = [
    ("x^2", (0.2, 12.0), "identity", "identity"),
    ("exp(x)", (0.2, 4.0), "log", "log"),
    ("exp(x^2)", (0.1, 2.5), "identity", "log"),
    ("exp(x)", (0.5, 3.0), "power:2", "power:3"),
]
SPECS = [QabdSpec(expression_model(t, d), get_generator(r), get_generator(u)) for t, d, r, u in TRIPLES]


@pytest.mark.parametrize("case", range(len(TRIPLES)), ids=[f"{t[0]}|{t[2]},{t[3]}" for t in TRIPLES])
@SETTINGS
@given(data=st.data())
def test_array_qabd_equals_stacked_qabd(case, data):
    spec, (lo, hi) = SPECS[case], TRIPLES[case][1]
    pts = st.lists(st.floats(lo * 1.01, hi * 0.99), min_size=1, max_size=6)
    p, q = np.array(data.draw(pts)), np.array(data.draw(pts))
    matrix = _nonnegative(_qabd_raw(spec, p[None, :], q[:, None]))
    assert bitwise_equal(matrix, [[qabd(spec, float(a), float(b)).value for a in p] for b in q])


BIVARIATE = [
    stolarsky(0.5),
    stolarsky(-3.0),
    stolarsky(0.0),
    stolarsky(1.0),
    dual(power(2.0)),
    dual(GEOMETRIC),
    dual(lehmer(0.5)),
    lagrange(LOG),
    lagrange(EXP),
    cauchy(power_generator(2), power_generator(3)),
    cauchy(RECIPROCAL, LOG),
]


@pytest.mark.parametrize("spec", BIVARIATE, ids=[str(s) for s in BIVARIATE])
@settings(deadline=None, max_examples=25)
@given(pairs=st.lists(st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)), min_size=1, max_size=6))
def test_bivariate_kernel_equals_mean_value(spec, pairs):
    X = np.array(pairs).T
    want = [mean_value(spec, x, y) for x, y in pairs]
    assert bitwise_equal(weighted_means(spec, X, (0.5, 0.5)), want)


def test_per_column_weights_equal_scalar_calls():
    rng = np.random.default_rng(5)
    X = rng.uniform(0.1, 9.0, (2, 50))
    al = rng.uniform(0.0, 1.0, 50)
    for spec in (power(2.0), GEOMETRIC, lehmer(-0.3), quasi_arithmetic(EXP)):
        want = [mean_value(spec, x, y, a) for x, y, a in zip(X[0], X[1], al)]
        assert bitwise_equal(weighted_means(spec, X, np.stack([1.0 - al, al])), want)


# ------------------------------------------- float-only callables, wrapped once

MATH_LOG = Generator("math-log", Interval(0.0, math.inf), math.log, math.exp, lambda x: 1.0 / x)
NUMPY_LOG = Generator("numpy-log", Interval(0.0, math.inf), np.log, np.exp, lambda x: 1.0 / x)
MATH_F = function_model("math exp(x^2)", (0.1, 2.5), lambda x: math.exp(x * x))
NUMPY_F = function_model("numpy exp(x^2)", (0.1, 2.5), lambda x: np.exp(x * x))


def test_float_only_callables_are_wrapped_and_keep_the_shape():
    assert MATH_LOG.forward is not math.log and NUMPY_LOG.forward is np.log
    twins = [Generator("g", Interval(0.0, math.inf), math.log, math.exp) for _ in range(2)]
    assert twins[0] == twins[1] and hash(twins[0]) == hash(twins[1])
    X = np.array([[0.5, 2.0], [1.0, 1.5]])
    assert MATH_LOG.value(X).shape == (2, 2) and MATH_F.value(X).shape == (2, 2)
    assert MATH_LOG.value(X) == pytest.approx(np.log(X), rel=1e-15)


def test_a_failure_at_the_choosing_points_only_chooses_the_wrapper():
    # On (0, inf) the two points that choose how a callable is called are
    # 5e5 and 2.5e5: math.exp overflows there, and an array callable may be
    # undefined there; neither stops the build.
    G = Generator("e", Interval(0.0, math.inf), math.exp, math.log)
    F = FunctionModel("e", Interval(0.0, math.inf), math.exp)
    assert G.value(1.0) == F.value(1.0) == math.e and G.inv(math.e) == 1.0

    def capped(x):
        x = np.asarray(x, dtype=float)
        if np.any(x > 1e5):
            raise DomainError(f"capped is undefined at {float(x.max())!r}")
        return np.exp(-x)

    C = FunctionModel("capped", Interval(0.0, math.inf), capped)
    assert C.value(1.0) == math.exp(-1.0)
    assert C.value(np.array([1.0, 2.0])) == pytest.approx(np.exp([-1.0, -2.0]), rel=1e-15)


def test_float_only_twins_agree():
    rng = np.random.default_rng(11)
    X, W = rng.uniform(0.1, 2.4, (3, 40)), np.array([0.2, 0.5, 0.3])
    got = weighted_means(quasi_arithmetic(MATH_LOG), X, W)
    assert got == pytest.approx(weighted_means(quasi_arithmetic(NUMPY_LOG), X, W), rel=1e-15)
    for rho, tau in ((IDENTITY, LOG), (IDENTITY, IDENTITY), (LOG, LOG)):
        a, b = is_mn_convex(MATH_F, rho, tau), is_mn_convex(NUMPY_F, rho, tau)
        assert a.verdict is b.verdict and a.min_gap == pytest.approx(b.min_gap, rel=1e-15, abs=1e-15)
    sa, sb = QabdSpec(MATH_F, IDENTITY, LOG), QabdSpec(NUMPY_F, IDENTITY, LOG)
    for p, q in rng.uniform(0.2, 2.4, (20, 2)):
        assert qabd(sa, p, q).value == pytest.approx(qabd(sb, p, q).value, rel=1e-15, abs=1e-15)


# ---------------------------------------------------------- evaluation counts


class Counted:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def counted_model(text, dom):
    F = expression_model(text, dom)
    counter = Counted(F.eval)
    F = dataclasses.replace(F, eval=counter)
    counter.calls = 0
    return F, counter


def test_scalar_means_make_one_forward_and_one_inverse_call_each():
    fwd, inv = Counted(np.exp), Counted(np.log)
    spec = quasi_arithmetic(Generator("counted-exp", Interval(), fwd, inv, np.exp))
    fwd.calls = inv.calls = 0
    for k in range(10):
        mean_value(spec, 0.1 * k, 1.0)
    assert (fwd.calls, inv.calls) == (10, 10)


def test_qabd_spec_certificate_evaluates_F_a_few_times():
    F, counter = counted_model("exp(x^2)", (0.1, 2.5))
    QabdSpec(F, IDENTITY, LOG)
    assert counter.calls <= 10


def test_dominates_makes_one_kernel_call_per_mean(monkeypatch):
    calls = []
    kernel = means_module.weighted_means
    monkeypatch.setattr(means_module, "weighted_means", lambda *a: calls.append(1) or kernel(*a))
    dominates(lehmer(-0.3), ARITHMETIC, (0.5, 8.0), samples=2000)
    assert len(calls) == 2


def test_lloyd_sweeps_do_not_evaluate_F_per_point():
    F, counter = counted_model("exp(x^2)", (0.1, 2.5))
    spec = QabdSpec(F, IDENTITY, LOG)
    counts = []
    for n in (20, 200):
        counter.calls = 0
        kmeans_cluster(spec, WeightedSet.uniform(tuple(np.linspace(0.3, 2.2, n))), 1)
        counts.append(counter.calls)
    assert counts[0] == counts[1]


# ------------------------------------------------------ nothing to sample


def test_dominates_rejects_an_unbounded_domain():
    with pytest.raises(ParamError):
        dominates(power(2), power(1), (1.0, math.inf))


def test_windows_wider_than_the_float_range_raise_param_error():
    # numpy's uniform(lo, hi) forms hi - lo, which overflows here
    wide = function_model("x", (-1.7e308, math.inf), lambda x: x)
    with pytest.raises(ParamError, match=r"cannot sample the window \(-1\.7e\+308, 1\.7e\+308\)"):
        dominates(ARITHMETIC, ARITHMETIC, (-1.7e308, 1.7e308), samples=4)
    with pytest.raises(ParamError, match="cannot sample F's window"):
        midpoint_verdict(wide, ARITHMETIC, ARITHMETIC, samples=4)


def test_dominates_rejects_a_reversed_window():
    # numpy's uniform(3, 2) raises a bare ValueError: high - low < 0
    with pytest.raises(ParamError, match=r"^cannot sample the window \(3\.0, 2\.0\): its ends are reversed$"):
        dominates(ARITHMETIC, ARITHMETIC, (3.0, 2.0), samples=4)


def test_dominates_rejects_zero_samples():
    with pytest.raises(ParamError):
        dominates(power(2), power(1), (1.0, 2.0), samples=0)


def test_midpoint_verdict_rejects_zero_samples():
    with pytest.raises(ParamError):
        midpoint_verdict(MODELS[0], ARITHMETIC, ARITHMETIC, samples=0)


@pytest.mark.parametrize("grid", [0, 2])
def test_grid_scan_needs_three_points(grid):
    with pytest.raises(ParamError):
        is_mn_convex(MODELS[0], IDENTITY, IDENTITY, grid=grid)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: QuadratureConfig(abs_tol="1e-9"), "quadrature abs_tol must be a real number, got '1e-9'"),
        (lambda: QuadratureConfig(abs_tol=None), "quadrature abs_tol must be a real number, got None"),
        (lambda: midpoint_verdict(MODELS[0], ARITHMETIC, ARITHMETIC, samples=2.5),
         "samples must be an integer, got 2.5"),
        (lambda: midpoint_verdict(MODELS[0], ARITHMETIC, ARITHMETIC, samples=True),
         "samples must be an integer, got True"),
        (lambda: is_mn_convex(MODELS[0], IDENTITY, IDENTITY, grid=7.5), "grid must be an integer, got 7.5"),
        (lambda: dominates(power(2), power(1), (1.0, 2.0), samples=2.5), "samples must be an integer, got 2.5"),
    ],
    ids=["abs_tol-str", "abs_tol-none", "midpoint-float", "midpoint-bool", "grid-float", "dominates-float"],
)
def test_malformed_settings_raise_param_error(call, message):
    with pytest.raises(ParamError) as err:
        call()
    assert str(err.value) == message


def test_certificate_settings_that_no_caller_sets_are_gone():
    for fn in (jccd, skew_jccd, jensen_diversity, bccd_numeric, omega_divergence, lehmer_bregman, bregman):
        assert "samples" not in inspect.signature(fn).parameters, fn.__name__
        assert "seed" in inspect.signature(fn).parameters, fn.__name__
    assert "grid" not in {f.name for f in dataclasses.fields(QabdSpec)}
    assert "pair_samples" not in inspect.signature(is_mn_convex).parameters
    assert list(inspect.signature(MODELS[0].checked).parameters) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["dominates", "--a", "power:2", "--b", "power:1", "--domain", "0:inf"],
        ["dominates", "--a", "power:2", "--b", "power:1", "--domain", "1:2", "--samples", "0"],
        ["check-convexity", "--F", "exp(x)", "--domain", "0.5:8", "--grid", "0"],
        ["dominates", "--a", "qa:identity", "--b", "qa:identity", "--domain=-1.7e308:1.7e308"],
    ],
    ids=["unbounded-domain", "zero-samples", "zero-grid", "window-wider-than-floats"],
)
def test_cli_reports_param_errors(argv):
    code, out = dispatch(config_from_argv(argv))
    assert (code, out["error"]["type"]) == (3, "ParamError")


# ------------------------------------------------------- Stolarsky oracle


@pytest.mark.parametrize("p", [0.0, 2e-7, 1e-6, 1e-4, 0.5, 1.0, 1.5, 2.5, -3.0, 50.0, -50.0])
@pytest.mark.parametrize("x,y", [(5.0, 5.000001), (3.0, 3.0 * (1.0 + 2e-9)), (2.0, 7.0), (7.0, 2.0)])
def test_stolarsky_against_oracle(p, x, y):
    assert rel_error(stolarsky_mean(p, x, y), oracle.stolarsky(p, x, y)) <= 1e-14
