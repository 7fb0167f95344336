"""The weighted-mean kernel: an arbitrary-precision oracle for every weighted
family, pinned edge values, zero-argument limits, and agreement between one
array call and the stacked scalar calls."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import mp

from cdt.bhattacharyya import DiscreteDist, bhat_coefficient
from cdt.errors import DomainError
from cdt.generators import EXP, IDENTITY, LOG, RECIPROCAL, power_generator
from cdt.means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    format_mean,
    gini,
    lehmer,
    mean_value,
    parse_mean,
    power,
    quasi_arithmetic,
    weighted_mean,
    weighted_means,
)

POWER_ORDERS = (1e-9, -1e-9, 1e-7, -1e-7, 1e-6, -1e-6, 1e-4, 0.3, 1.0, 2.0, -1.0, 50.0)

ORACLES = (
    [
        (ARITHMETIC, oracle.gini(1, 0)),
        (GEOMETRIC, oracle.gini(0, 0)),
        (HARMONIC, oracle.gini(-1, 0)),
        (quasi_arithmetic(EXP), oracle.quasi_arithmetic("exp")),
    ]
    + [(quasi_arithmetic(power_generator(d)), oracle.gini(d, 0)) for d in (-2.5, -1e-4, 1e-4, 0.5, 1.2345678, 3.0)]
    + [(power(d), oracle.gini(d, 0)) for d in POWER_ORDERS]
    + [(lehmer(d), oracle.gini(d + 1, d)) for d in (-2.0, -1.0, -0.5, 0.0, 0.3, 1.0, 3.0)]
    + [
        (gini(d1, d2), oracle.gini(d1, d2))
        for d1, d2 in ((1, 2), (0.5, 0.4), (-1, 0.5), (2, -3), (0, 1), (1, 1), (-1, -1), (0.5, 0.5), (1e-9, 0))
    ]
    # the diagonal r - s -> 0, where a ratio of sums cancels
    + [(gini(1.5, 1.5 - gap), oracle.gini(1.5, 1.5 - gap)) for gap in (1, 1e-4, 1e-8, 1e-12, 1e-14)]
)


@pytest.mark.parametrize("spec,reference", ORACLES, ids=[format_mean(s) for s, _ in ORACLES])
@pytest.mark.parametrize("n", [2, 5])
def test_oracle_and_scalar_array_identity(spec, reference, n):
    rng = np.random.default_rng(n)
    m = 40
    X = np.exp(rng.uniform(math.log(0.1), math.log(50.0), (n, m)))
    w = rng.dirichlet(np.ones(n))
    w = w / math.fsum(w.tolist())
    arr = weighted_means(spec, X, w)
    assert arr.shape == (m,)
    wm = [mp.mpf(float(v)) for v in w]
    wm = [v / mp.fsum(wm) for v in wm]
    for j in range(m):
        want = reference([mp.mpf(float(v)) for v in X[:, j]], wm)
        assert abs(arr[j] - want) <= 1e-13 * abs(want), (j, arr[j], want)
        assert weighted_mean(spec, X[:, j].tolist(), w.tolist()) == arr[j]


def test_power_mean_does_not_overflow():
    want = 7.1063352e199
    assert mean_value(power(2), 1e200, 1e199) == pytest.approx(want, rel=1e-8)
    big = DiscreteDist((1e200,), normalized=False), DiscreteDist((1e199,), normalized=False)
    assert bhat_coefficient(power(2), 0.5, *big) == pytest.approx(want, rel=1e-8)
    # negative orders scale by the smallest argument: (1e-10)^-50 overflows
    tiny = mean_value(power(-50), 1e-10, 1.0)
    assert tiny == pytest.approx(1e-10 * 2.0 ** (1 / 50), rel=1e-13)


def test_gini_mean_does_not_overflow():
    # E = exp(sL - max sL): unshifted, exp(-log(1e-300 / 1e10)) overflows
    want = oracle.gini(0.5, -1)([mp.mpf(1e-300), mp.mpf(1e10)], [mp.mpf(0.5)] * 2)
    assert mean_value(gini(-1, 0.5), 1e-300, 1e10) == pytest.approx(float(want), rel=1e-13, abs=0.0)


def test_gini_equal_orders_zero_mass_coefficient():
    p = DiscreteDist((0.5, 0.5, 0.0))
    q = DiscreteDist((0.0, 0.5, 0.5))
    for alpha in (0.3, 0.5):
        assert bhat_coefficient(gini(1, 1), alpha, p, q) == pytest.approx(1.5, rel=1e-15)


def test_qa_power_generator_equals_power_mean():
    qa, pm = parse_mean("qa:power:1.2345678"), power(1.2345678)
    assert format_mean(qa) == "qa:power:1.2345678"
    assert parse_mean(format_mean(qa)) == qa
    X = np.exp(np.random.default_rng(3).uniform(-3.0, 3.0, (2, 50)))
    assert np.array_equal(weighted_means(qa, X, (0.3, 0.7)), weighted_means(pm, X, (0.3, 0.7)))
    assert mean_value(qa, 1.3, 7.9, 0.4) == mean_value(pm, 1.3, 7.9, 0.4)


#: Gini orders (r, s) whose gap r - s is 1, 2 or 3 in size: the kernel's
#: ratio of sums, with products and square or cube roots
RATIO_FORMS = [(-2, 0), (-1, 0), (2, 0), (3, 0), (2, 1), (1.5, 0.5), (0.7, -0.3), (-0.5, -1.5)]


def _draws(kind: str, rng, m: int):
    """m columns of two arguments and their weights (1 - a, a) in either
    order, a from 1e-15 to 1/2: arguments from 1e-3 to 1 ("unit"), pairs a
    relative 1e-16 to 1e-2 apart ("near"), or from 1e-300 to 1e300 and at
    most the float range apart ("huge")."""
    X = 10.0 ** rng.uniform(-3.0, 0.0, (2, m))
    if kind == "near":
        X[1] = X[0] * (1.0 + rng.choice((-1.0, 1.0), m) * 10.0 ** rng.uniform(-16.0, -2.0, m))
    elif kind == "huge":
        u = rng.uniform(-300.0, 300.0, m)
        X = 10.0 ** np.stack((u, rng.uniform(np.maximum(-300.0, u - 300.0), np.minimum(300.0, u + 300.0))))
    a = 10.0 ** rng.uniform(-15.0, math.log10(0.5), m)
    W = np.stack((1.0 - a, a))
    return X, np.where(rng.random(m) < 0.5, W, W[::-1])


@pytest.mark.parametrize("kind", ["unit", "near", "huge"])
@pytest.mark.parametrize("r,s", RATIO_FORMS)
def test_ratio_forms_are_within_their_bound_of_the_oracle(r, s, kind):
    # The bound of means._gini_means: 4 ulps, plus |s| max |log(x / xm)|
    # ulps that E's exponent can cost where s != 0.
    X, W = _draws(kind, np.random.default_rng(35), 40)
    got = weighted_means(gini(r, s), X, W)
    reference = oracle.gini(r, s)
    for j in range(X.shape[1]):
        x, w = X[:, j], W[:, j]
        xm = x.min() if s == 0 and r < 0 else x.max()
        cost = abs(s) * max(abs(math.log(v / xm)) for v in x)
        want = reference([mp.mpf(v) for v in x], [mp.mpf(v) for v in w])
        assert oracle.rel_error(got[j], want) <= (4.0 + cost) * 2.0**-52, (j, x, w)


@pytest.mark.parametrize("r,s", [(-1.0, 0.0), (2.0, 1.0), (1.5, 0.5), (0.7, -0.3)])
def test_the_ratio_and_expm1_forms_meet_at_a_gap_of_one(r, s):
    # r one ulp nearer s moves the gap below 1, to the expm1 form; the mean
    # itself moves by about an ulp.
    X, W = _draws("unit", np.random.default_rng(1), 200)
    inside = np.nextafter(r, s)
    assert abs(r - s) == 1.0 and abs(inside - s) < 1.0
    ratio, expm1 = weighted_means(gini(r, s), X, W), weighted_means(gini(inside, s), X, W)
    assert np.all(np.abs(ratio - expm1) <= 8 * 2.0**-52 * ratio)


@pytest.mark.parametrize("M", [power(5e-324), power(-5e-324), power(1e-310), power(-1e-310), gini(1e-310, -1e-310)],
                         ids=format_mean)
def test_a_subnormal_order_gap_takes_the_geometric_limit(M):
    # Gaps too small for d log(x / xm) to stay a normal float take the
    # r = s limit.
    x, w = (12.757385662063013, 1.67), (0.987, 0.013)
    want = oracle.gini(0, 0)([mp.mpf(v) for v in x], [mp.mpf(v) for v in w])
    assert float(want) == 12.424590874320527
    assert oracle.rel_error(weighted_mean(M, x, w), want) <= 4 * 2.0**-52


SCALING = [
    power(-2.5), HARMONIC, GEOMETRIC, power(0.5), ARITHMETIC, power(3.0), quasi_arithmetic(power_generator(1.5)),
    lehmer(0), lehmer(-1), lehmer(-0.3), lehmer(0.5), lehmer(2), gini(1, 1), gini(-0.5, -0.5), gini(0, 0),
    gini(2, 1), gini(0.5, -1), power(-2), power(2), power(-1.5), lehmer(-1.5), gini(3.5, 0.5), power(5e-324),
]


@pytest.mark.parametrize("M", SCALING, ids=format_mean)
@settings(deadline=None, max_examples=15)
@given(
    x=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=20),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_scaling_kernels_give_x_times_the_unit_mean(M, x, alpha):
    # The identity discrete Bhattacharyya coefficients use on one-sided
    # bins, in each of the Gini kernel's forms.
    assert M.scales_out
    x, W = np.array(x), (1.0 - alpha, alpha)
    z = np.zeros_like(x)
    u = weighted_means(M, np.eye(2), W)
    assert np.array_equal(weighted_means(M, (x, z), W), x * u[0])
    assert np.array_equal(weighted_means(M, (z, x), W), x * u[1])


def test_generator_means_do_not_scale_out():
    assert not quasi_arithmetic(EXP).scales_out


def test_gini_orders():
    assert (IDENTITY.power_order, LOG.power_order, RECIPROCAL.power_order) == (1.0, 0.0, -1.0)
    assert power_generator(0).power_order == 0.0
    assert power_generator(-2.5).power_order == -2.5
    assert EXP.power_order is None
    assert quasi_arithmetic(power_generator(1.5)).homogeneous
    assert not quasi_arithmetic(EXP).homogeneous
    assert (ARITHMETIC.gini_orders, GEOMETRIC.gini_orders, HARMONIC.gini_orders) == ((1, 0), (0, 0), (-1, 0))
    assert power(2.5).gini_orders == (2.5, 0) and quasi_arithmetic(EXP).gini_orders is None
    assert (lehmer(0).gini_orders, lehmer(-1).gini_orders, lehmer(-0.5).gini_orders) == ((1, 0), (-1, 0), (0.5, -0.5))
    assert (gini(1, 0).gini_orders, gini(0, -2).gini_orders, gini(-1, 0.5).gini_orders) == ((1, 0), (-2, 0), (0.5, -1))


# x -> 0+ limit of M(0, b; 1-a, a)
ZERO_LIMITS = [
    (ARITHMETIC, lambda b, a: a * b),
    (GEOMETRIC, lambda b, a: 0.0),
    (HARMONIC, lambda b, a: 0.0),
    (quasi_arithmetic(EXP), lambda b, a: math.log(1.0 - a + a * math.exp(b))),
    (quasi_arithmetic(power_generator(3)), lambda b, a: a ** (1 / 3) * b),
    (power(2), lambda b, a: math.sqrt(a) * b),
    (power(1e-9), lambda b, a: 0.0),
    (power(-0.5), lambda b, a: 0.0),
    (lehmer(0), lambda b, a: a * b),
    (lehmer(1), lambda b, a: b),
    (lehmer(-0.3), lambda b, a: 0.0),
    (lehmer(-2), lambda b, a: 0.0),
    (lehmer(-1.5), lambda b, a: 0.0),
    (power(-2), lambda b, a: 0.0),
    (power(3), lambda b, a: a ** (1 / 3) * b),
    (gini(1, 1), lambda b, a: b),
    (gini(2, 2), lambda b, a: b),
    (gini(0, 0), lambda b, a: 0.0),
    (gini(-1, -1), lambda b, a: 0.0),
    (gini(1, 2), lambda b, a: b),
    (gini(0, 1), lambda b, a: a * b),
    (gini(-1, 0.5), lambda b, a: 0.0),
    (gini(-1, -2), lambda b, a: 0.0),
]


@pytest.mark.parametrize("spec,limit", ZERO_LIMITS, ids=[format_mean(s) for s, _ in ZERO_LIMITS])
def test_zero_argument_takes_its_limit(spec, limit):
    for a in (0.3, 0.6):
        for b in (0.2, 3.0):
            want = limit(b, a)
            got = weighted_means(spec, [[0.0], [b]], (1.0 - a, a))[0]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
            assert weighted_means(spec, [[b], [0.0]], (a, 1.0 - a))[0] == got
            # continuity: the scalar mean at a tiny positive argument
            assert mean_value(spec, 1e-300, b, a) == pytest.approx(want, rel=1e-12, abs=1e-30)


def test_all_zero_arguments_give_zero():
    for spec in (ARITHMETIC, GEOMETRIC, HARMONIC, power(2), power(-2), lehmer(1), lehmer(-2), gini(1, 1), gini(1, 2)):
        assert weighted_means(spec, [[0.0], [0.0]], (0.5, 0.5))[0] == 0.0


def test_non_finite_values_raise():
    with pytest.raises(DomainError):
        weighted_mean(quasi_arithmetic(EXP), (700.0, 710.0), (0.5, 0.5))
    with pytest.raises(DomainError):
        weighted_means(power(2), [[math.nan], [1.0]], (0.5, 0.5))
    with pytest.raises(DomainError):
        weighted_means(quasi_arithmetic(LOG), [[-1.0], [1.0]], (0.5, 0.5))


@pytest.mark.parametrize(
    "spec", [GEOMETRIC, ARITHMETIC, HARMONIC, power(2), power(-2), power(3), lehmer(1), lehmer(-0.3), lehmer(-1.5)]
)
def test_nan_beside_a_zero_argument_raises(spec):
    # a NaN column with a zero argument is not a zero-argument collapse
    for X in ([[math.nan], [0.0]], [[0.0], [math.nan]]):
        with pytest.raises(DomainError, match="not finite"):
            weighted_means(spec, X, (0.5, 0.5))
    X = np.array([[0.0, 2.0, math.nan], [3.0, 8.0, 0.0]])
    with pytest.raises(DomainError, match=r"not finite at arguments array\(\[nan,  0\.\]\)"):
        weighted_means(spec, X, (0.5, 0.5))


def test_identity_accepts_negative_arguments():
    assert weighted_mean(ARITHMETIC, (-3.0, 1.0), (0.25, 0.75)) == 0.0
    assert mean_value(ARITHMETIC, -2.0, -4.0) == -3.0


def test_zero_weights_are_ignored():
    X = np.array([[2.0, 0.0], [5.0, 3.0]])
    for spec in (GEOMETRIC, power(2), lehmer(-2), gini(1, 1), quasi_arithmetic(EXP)):
        assert weighted_means(spec, X, (1.0, 0.0)).tolist() == [2.0, 0.0]
        assert weighted_means(spec, X, (0.0, 1.0)).tolist() == [5.0, 3.0]


SPECS = [
    ARITHMETIC, GEOMETRIC, HARMONIC, quasi_arithmetic(EXP), quasi_arithmetic(power_generator(0.7)),
    power(-3.0), power(1e-8), power(2.5), lehmer(-1.5), lehmer(0.5), gini(1, 1), gini(-0.5, 2),
]
positive = st.floats(1e-3, 1e3)


@settings(deadline=None, max_examples=60)
@given(
    spec=st.sampled_from(SPECS),
    cols=st.lists(st.tuples(positive, positive, positive), min_size=1, max_size=8),
    raw=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    alpha=st.floats(0.0, 1.0),
)
def test_array_call_equals_stacked_scalar_calls(spec, cols, raw, alpha):
    X = np.array(cols).T
    w = [v / sum(raw) for v in raw]
    for args, weights, scalar in (
        (X[:2], (1.0 - alpha, alpha), lambda j: mean_value(spec, X[0, j], X[1, j], alpha)),
        (X, w, lambda j: weighted_mean(spec, X[:, j].tolist(), w)),
    ):
        try:
            want = [scalar(j) for j in range(X.shape[1])]
        except DomainError:  # e.g. exp overflows: the array call fails alike
            with pytest.raises(DomainError):
                weighted_means(spec, args, weights)
            continue
        assert weighted_means(spec, args, weights).tolist() == want
