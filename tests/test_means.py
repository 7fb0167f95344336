import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdt.errors import (
    CdtError,
    DomainError,
    NonInvertibleRatio,
    ParamError,
    UnsupportedWeights,
    WeightError,
)
from cdt.generators import EXP, IDENTITY, LOG, Generator, Interval, power_generator
from cdt.means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    Dominance,
    cauchy,
    cauchy_mean,
    dominates,
    dual,
    dual_mean,
    format_mean,
    gini,
    lagrange,
    lagrange_mean,
    lehmer,
    mean_value,
    parse_mean,
    power,
    quasi_arithmetic,
    stolarsky,
    stolarsky_mean,
    weighted_mean,
)

HALF = (0.5, 0.5)


class TestWeightedMean:
    def test_geometric(self):
        assert weighted_mean(GEOMETRIC, (1, 4), HALF) == pytest.approx(2.0, rel=1e-12)

    def test_harmonic(self):
        assert weighted_mean(HARMONIC, (2, 6), HALF) == pytest.approx(3.0, rel=1e-12)

    def test_power_two_matches_direct_definition(self):
        oracle = math.sqrt((3**2 + 4**2) / 2)
        assert weighted_mean(power(2), (3, 4), HALF) == pytest.approx(oracle, rel=1e-12)
        assert weighted_mean(power(2), (3, 4), HALF) == pytest.approx(3.535533906, abs=5e-10)

    def test_contraharmonic(self):
        assert weighted_mean(lehmer(1), (3, 6), HALF) == pytest.approx(5.0, rel=1e-12)

    def test_gini_reduces_to_power(self):
        for d in (0.5, 2.0, -1.0):
            spec = gini(d, 0.0) if d > 0 else gini(0.0, d)
            got = weighted_mean(spec, (2, 5), (0.3, 0.7))
            want = weighted_mean(power(d), (2, 5), (0.3, 0.7))
            assert got == pytest.approx(want, rel=1e-12)

    def test_gini_equal_orders_product_branch(self):
        # (prod x_i^{w_i x_i^d})^{1 / sum w_i x_i^d}
        x, w, d = (2.0, 5.0), (0.4, 0.6), 1.5
        expo = [wi * xi**d for wi, xi in zip(w, x)]
        oracle = math.exp(sum(e * math.log(xi) for e, xi in zip(expo, x)) / sum(expo))
        assert weighted_mean(gini(d, d), x, w) == pytest.approx(oracle, rel=1e-12)

    def test_weight_errors(self):
        with pytest.raises(WeightError):
            weighted_mean(GEOMETRIC, (1, 4), (0.7, 0.7))
        with pytest.raises(WeightError):
            weighted_mean(GEOMETRIC, (1, 4), (1.2, -0.2))
        with pytest.raises(WeightError):
            weighted_mean(GEOMETRIC, (1, 4), (0.5,))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            weighted_mean(GEOMETRIC, (-1, 4), HALF)
        with pytest.raises(DomainError):
            weighted_mean(power(2), (0.0, 4), HALF)

    def test_unsupported_weights(self):
        with pytest.raises(UnsupportedWeights):
            weighted_mean(stolarsky(2), (1, 2, 3), (0.3, 0.3, 0.4))
        with pytest.raises(UnsupportedWeights):
            weighted_mean(lagrange(LOG), (1, 2), (0.3, 0.7))
        # the plain bivariate call is allowed
        assert weighted_mean(stolarsky(2), (3, 5), HALF) == pytest.approx(4.0)


class TestLagrange:
    def test_log_generator(self):
        assert lagrange_mean(LOG, 1.0, math.e) == pytest.approx(math.e - 1.0, rel=1e-9)

    def test_equal_arguments(self):
        assert lagrange_mean(LOG, 2.5, 2.5) == 2.5

    def test_logarithmic_mean_between_g_and_a(self, rng):
        for _ in range(1000):
            p, q = rng.uniform(0.05, 50.0, 2)
            L = lagrange_mean(LOG, p, q)
            assert math.sqrt(p * q) - 1e-9 <= L <= 0.5 * (p + q) + 1e-9


class TestLagrangeFailure:
    def test_non_monotone_derivative_rejected(self):
        # x^3 is strictly increasing on R but its derivative 3x^2 is not
        # monotone on segments spanning 0
        from cdt.errors import NonInvertibleDerivative

        cube = Generator(
            "cube", Interval(), lambda x: np.asarray(x, float) ** 3,
            lambda y: np.cbrt(y), lambda x: 3.0 * x * x + 1e-300,
        )
        with pytest.raises(NonInvertibleDerivative):
            lagrange_mean(cube, -1.0, 2.0)


class TestCauchy:
    def test_reflexive(self):
        assert cauchy_mean(LOG, IDENTITY, 3.3, 3.3) == 3.3

    def test_square_over_identity_is_arithmetic(self):
        assert cauchy_mean(power_generator(2), IDENTITY, 2, 6) == pytest.approx(4.0, rel=1e-9)

    def test_reinterpreted_as_lagrange(self, rng):
        # The Cauchy mean is the Lagrange mean of f o g^{-1} after the
        # g-change of variables: g(C_{f,g}(p,q)) = L_{f o g^{-1}}(g(p), g(q)).
        f, g = LOG, power_generator(2)
        comp = Generator(
            "log-of-sqrt", Interval(0.0, math.inf),
            lambda u: 0.5 * np.log(u), lambda y: np.exp(2.0 * y),
            lambda u: 0.5 / u,
        ).validate()
        for _ in range(50):
            p, q = rng.uniform(0.5, 8.0, 2)
            c = cauchy_mean(f, g, p, q)
            lag = lagrange_mean(comp, g.value(p), g.value(q))
            assert g.value(c) == pytest.approx(lag, abs=1e-8, rel=1e-8)
            assert c == pytest.approx(g.inv(lag), abs=1e-8, rel=1e-8)

    def test_non_invertible_ratio(self):
        # f'/g' = 2x/3x^2 = (2/3)/x is monotone; use f=g so the ratio is constant
        with pytest.raises(NonInvertibleRatio):
            cauchy_mean(IDENTITY, IDENTITY, 1.0, 2.0)


class TestStolarsky:
    def test_p2_is_arithmetic(self, rng):
        for _ in range(50):
            x, y = rng.uniform(0.1, 20.0, 2)
            assert stolarsky_mean(2, x, y) == pytest.approx(0.5 * (x + y), rel=1e-10)

    def test_p_minus_one_is_geometric(self, rng):
        for _ in range(50):
            x, y = rng.uniform(0.1, 20.0, 2)
            assert stolarsky_mean(-1, x, y) == pytest.approx(math.sqrt(x * y), rel=1e-10)

    def test_reflexive(self):
        for p in (-3.0, 0.0, 1.0, 2.5):
            assert stolarsky_mean(p, 4.2, 4.2) == 4.2

    def test_limit_branches_continuous(self):
        x, y = 2.0, 7.0
        assert stolarsky_mean(0.0, x, y) == pytest.approx(stolarsky_mean(1e-4, x, y), rel=1e-3)
        assert stolarsky_mean(1.0, x, y) == pytest.approx(stolarsky_mean(1.0 + 1e-4, x, y), rel=1e-3)
        # identric value at p=1, from the p->1 limit worked out by hand
        identric = math.exp((x * math.log(x) - y * math.log(y)) / (x - y) - 1.0)
        assert stolarsky_mean(1.0, x, y) == pytest.approx(identric, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            stolarsky_mean(2, -1.0, 3.0)


class TestDual:
    def test_dual_of_arithmetic_is_harmonic(self):
        assert dual_mean(ARITHMETIC, 2, 6) == pytest.approx(3.0, rel=1e-12)

    def test_involution(self, rng):
        for spec in (ARITHMETIC, GEOMETRIC, power(3), lehmer(0.5)):
            for _ in range(30):
                x, y = rng.uniform(0.1, 10.0, 2)
                assert dual_mean(dual(spec), x, y) == pytest.approx(
                    mean_value(spec, x, y), rel=1e-10
                )

    def test_geometric_self_dual(self, rng):
        for _ in range(30):
            x, y = rng.uniform(0.1, 10.0, 2)
            assert dual_mean(GEOMETRIC, x, y) == pytest.approx(math.sqrt(x * y), rel=1e-12)

    def test_requires_homogeneous(self):
        with pytest.raises(ParamError):
            dual(quasi_arithmetic(EXP))


class TestDominates:
    def test_am_gm(self):
        res = dominates(power(0), power(1), (0.01, 10.0), samples=10_000)
        assert res.verdict is Dominance.DOMINATED_BY

    def test_self_dominates(self):
        res = dominates(power(2), power(2), (0.01, 10.0), samples=1000)
        assert res.verdict is Dominance.DOMINATES

    def test_lehmer_order(self):
        res = dominates(lehmer(0.5), lehmer(1.5), (0.1, 10.0), samples=5000)
        assert res.verdict is Dominance.DOMINATED_BY

    def test_incomparable_with_verified_witnesses(self):
        a, b = lehmer(2), power(6)
        res = dominates(a, b, (0.5, 3.0), samples=4000, seed=0)
        assert res.verdict is Dominance.INCOMPARABLE
        x, y, al = res.above
        assert mean_value(a, x, y, al) > mean_value(b, x, y, al)
        x, y, al = res.below
        assert mean_value(a, x, y, al) < mean_value(b, x, y, al)

    def test_deterministic(self):
        r1 = dominates(lehmer(2), power(6), (0.5, 3.0), samples=2000, seed=7)
        r2 = dominates(lehmer(2), power(6), (0.5, 3.0), samples=2000, seed=7)
        assert r1 == r2


ALL_WEIGHTED = [
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    power(2),
    power(-0.5),
    lehmer(1),
    lehmer(-0.5),
    gini(1, 2),
    quasi_arithmetic(EXP),
]


class TestInvariants:
    def test_innerness(self, rng):
        trials = 10_000
        specs = ALL_WEIGHTED + [stolarsky(2.5), dual(power(2)), lagrange(LOG), cauchy(LOG, IDENTITY)]
        per = trials // len(specs)
        for spec in specs:
            xs = rng.uniform(0.05, 40.0, per)
            ys = rng.uniform(0.05, 40.0, per)
            als = rng.uniform(0.0, 1.0, per) if spec.supports_weights else np.full(per, 0.5)
            for x, y, al in zip(xs, ys, als):
                m = mean_value(spec, x, y, al)
                assert min(x, y) <= m <= max(x, y)

    def test_reflexivity(self, rng):
        for spec in ALL_WEIGHTED + [stolarsky(-2), dual(GEOMETRIC), lagrange(LOG)]:
            for x in rng.uniform(0.1, 30.0, 20):
                assert mean_value(spec, x, x) == pytest.approx(x, rel=1e-12)

    def test_interpolation_endpoints(self, rng):
        for spec in ALL_WEIGHTED:
            for _ in range(20):
                p, q = rng.uniform(0.2, 20.0, 2)
                assert mean_value(spec, p, q, 0.0) == pytest.approx(p, rel=1e-12)
                assert mean_value(spec, p, q, 1.0) == pytest.approx(q, rel=1e-12)

    def test_swap_identity(self, rng):
        for spec in ALL_WEIGHTED:
            for _ in range(30):
                p, q = rng.uniform(0.2, 20.0, 2)
                al = float(rng.uniform(0, 1))
                assert mean_value(spec, p, q, 1 - al) == pytest.approx(
                    mean_value(spec, q, p, al), rel=1e-12
                )

    def test_homogeneity(self, rng):
        specs = [power(2), power(-1), lehmer(1.5), gini(1, 2), GEOMETRIC, HARMONIC, stolarsky(3)]
        for spec in specs:
            assert spec.homogeneous
            for lam in (0.1, 3.0, 100.0):
                for _ in range(10):
                    x, y = rng.uniform(0.2, 10.0, 2)
                    assert mean_value(spec, lam * x, lam * y) == pytest.approx(
                        lam * mean_value(spec, x, y), rel=1e-10
                    )

    def test_exp_mean_not_flagged_homogeneous(self):
        assert not quasi_arithmetic(EXP).homogeneous

    def test_power_limit_to_geometric(self, rng):
        for _ in range(100):
            x, y = rng.uniform(0.2, 20.0, 2)
            g = math.sqrt(x * y)
            for d in (1e-5, -1e-5):
                assert mean_value(power(d), x, y) == pytest.approx(g, rel=1e-4)

    def test_power_50_near_max(self, rng):
        # P_50(x, y) = max * 2^(-1/50) (1 + o(1)) for separated pairs:
        # a 1.38% deficit, driven by the 1/2 weight alone.
        deficit = 2.0 ** (-1.0 / 50.0)
        for _ in range(100):
            x = float(rng.uniform(0.5, 5.0))
            y = x * float(rng.uniform(4.0, 50.0))
            p50 = mean_value(power(50), x, y)
            assert p50 <= y
            assert p50 >= deficit * y * (1 - 1e-6)
            assert abs(p50 - y) / y <= 0.014

    def test_lehmer_anchors(self, rng):
        for _ in range(200):
            x, y = rng.uniform(0.1, 20.0, 2)
            assert mean_value(lehmer(0), x, y) == pytest.approx(0.5 * (x + y), rel=1e-10)
            assert mean_value(lehmer(-1), x, y) == pytest.approx(2 * x * y / (x + y), rel=1e-10)
            assert mean_value(lehmer(-0.5), x, y) == pytest.approx(math.sqrt(x * y), rel=1e-10)

    def test_power_monotone_in_delta(self, rng):
        deltas = [-3, -1, -0.5, 0, 0.5, 1, 2, 3]
        specs = [power(d) for d in deltas]
        for _ in range(10_000 // len(deltas)):
            x, y = rng.uniform(0.05, 30.0, 2)
            al = float(rng.uniform(0, 1))
            vals = [mean_value(s, x, y, al) for s in specs]
            for lo, hi in zip(vals, vals[1:]):
                assert lo <= hi * (1 + 1e-12)

    def test_dual_reverses_order(self):
        # G <= A, so dual(A) = H <= dual(G) = G
        assert dominates(dual(ARITHMETIC), dual(GEOMETRIC), (0.1, 10.0), 3000).verdict \
            is Dominance.DOMINATED_BY
        # H <= G, so dual(G) = G <= dual(H) = A
        assert dominates(dual(GEOMETRIC), dual(HARMONIC), (0.1, 10.0), 3000).verdict \
            is Dominance.DOMINATED_BY


class TestSerialization:
    @pytest.mark.parametrize(
        "text",
        [
            "qa:log",
            "qa:identity",
            "qa:exp",
            "qa:power:3",
            "power:2",
            "lehmer:-0.5",
            "gini:1:2",
            "lagrange:log",
            "cauchy:log:identity",
            "stolarsky:2",
            "dual:power:1",
        ],
    )
    def test_round_trip(self, text):
        spec = parse_mean(text)
        assert format_mean(spec) == text
        assert parse_mean(format_mean(spec)) == spec

    def test_supports_weights_flags(self):
        assert parse_mean("qa:log").supports_weights
        assert parse_mean("power:2").supports_weights
        assert parse_mean("lehmer:1").supports_weights
        assert parse_mean("gini:1:2").supports_weights
        assert not parse_mean("lagrange:log").supports_weights
        assert not parse_mean("cauchy:log:identity").supports_weights
        assert not parse_mean("stolarsky:2").supports_weights
        assert not parse_mean("dual:power:1").supports_weights

    def test_bad_specs(self):
        for text in ("", "nope:1", "power", "gini:1", "qa:log:extra"):
            with pytest.raises(ParamError):
                parse_mean(text)

    # (spec, error class, message), recorded before the grammar became one table
    MALFORMED = [
        ("", ParamError, "empty mean spec"),
        (":", ParamError, "empty mean spec"),
        ("qa", ParamError, "missing generator name in mean spec"),
        ("qa:", ParamError, "missing generator name in mean spec"),
        ("qa:nope", ParamError, "unknown generator 'nope'"),
        ("qa:power", ParamError, "missing power exponent in mean spec"),
        ("qa:power:two", ParamError, "bad power exponent 'two' in mean spec"),
        ("power", ParamError, "missing power exponent in mean spec"),
        ("power:two", ParamError, "bad power exponent 'two' in mean spec"),
        ("power:2:3", ParamError, "trailing tokens in mean spec 'power:2:3'"),
        ("gini:1", ParamError, "missing gini exponent in mean spec"),
        ("gini:1:x", ParamError, "bad gini exponent 'x' in mean spec"),
        ("lehmer:", ParamError, "missing lehmer order in mean spec"),
        ("cauchy:log", ParamError, "missing generator name in mean spec"),
        ("lagrange", ParamError, "missing generator name in mean spec"),
        ("stolarsky:a", ParamError, "bad stolarsky exponent 'a' in mean spec"),
        ("lehmer:inf", ParamError, "bad lehmer order 'inf' in mean spec"),
        ("stolarsky:inf", ParamError, "bad stolarsky exponent 'inf' in mean spec"),
        ("qa:power:-inf", ParamError, "bad power exponent '-inf' in mean spec"),
        ("power:1e999", ParamError, "bad power exponent '1e999' in mean spec"),
        ("dual", ParamError, "empty mean spec"),
        ("dual:", ParamError, "empty mean spec"),
        ("dual:lagrange:log", ParamError, "dual mean requires a homogeneous base mean"),
        ("dual:power:1:2", ParamError, "trailing tokens in mean spec 'power:1:2'"),
        ("foo:1", ParamError, "unknown mean family 'foo'"),
        ("qa:log:extra", ParamError, "trailing tokens in mean spec 'qa:log:extra'"),
    ]

    @pytest.mark.parametrize("text, error, message", MALFORMED)
    def test_malformed_spec_messages(self, text, error, message):
        with pytest.raises(CdtError) as err:
            parse_mean(text)
        assert (type(err.value), str(err.value)) == (error, message)

    @pytest.mark.parametrize(
        "spec, text",
        [
            (quasi_arithmetic(power_generator(1.2345678)), "qa:power:1.2345678"),
            (quasi_arithmetic(LOG), "qa:log"),
            (power(-1.5), "power:-1.5"),
            (lehmer(2.0), "lehmer:2"),
            (gini(0.1, -3.0), "gini:0.1:-3"),
            (lagrange(EXP), "lagrange:exp"),
            (cauchy(power_generator(2.0), LOG), "cauchy:power:2:log"),
            (stolarsky(0.5), "stolarsky:0.5"),
            (dual(quasi_arithmetic(power_generator(-2.0))), "dual:qa:power:-2"),
        ],
    )
    def test_every_family_round_trips(self, spec, text):
        assert format_mean(spec) == text
        assert parse_mean(text) == spec
        assert parse_mean(format_mean(spec)) == spec

    @pytest.mark.parametrize(
        "spec, text, message",
        [
            pytest.param(power(math.nan), "power:nan", "bad power exponent 'nan'", id="power:nan"),
            pytest.param(power(math.inf), "power:inf", "bad power exponent 'inf'", id="power:inf"),
            pytest.param(lehmer(math.nan), "lehmer:nan", "bad lehmer order 'nan'", id="lehmer:nan"),
            pytest.param(gini(math.nan, 1.0), "gini:nan:1", "bad gini exponent 'nan'", id="gini:nan:1"),
            pytest.param(stolarsky(math.nan), "stolarsky:nan", "bad stolarsky exponent 'nan'", id="stolarsky:nan"),
        ],
    )
    def test_non_finite_exponents_format_and_raise_domain_error(self, spec, text, message):
        # The spec reader rejects the text; a spec built in code still
        # formats to it and fails when a mean is evaluated.
        assert format_mean(spec) == text
        with pytest.raises(ParamError, match=f"^{message} in mean spec$"):
            parse_mean(text)
        with pytest.raises(DomainError, match=f"^{text} mean is not finite"):
            mean_value(spec, 1.0, 2.0)


@settings(deadline=None, max_examples=80)
@given(
    x=st.floats(0.01, 1e4),
    y=st.floats(0.01, 1e4),
    alpha=st.floats(0.0, 1.0),
    delta=st.floats(-4.0, 4.0),
)
def test_power_mean_innerness_property(x, y, alpha, delta):
    m = mean_value(power(delta), x, y, alpha)
    assert min(x, y) <= m <= max(x, y)


@settings(deadline=None, max_examples=60)
@given(
    r=st.floats(-3.0, 3.0),
    s=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    dr=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    ds=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    seed=st.integers(0, 2**16),
)
def test_componentwise_ordered_gini_means_never_sample_a_violation(r, s, dr, ds, seed):
    # log G_{r,s} is the slope of a chord of the convex t -> log sum w x^t,
    # so it increases in r and in s at every weight.
    res = dominates(gini(r, s), gini(r + dr, s + ds), (0.05, 20.0), samples=500, seed=seed)
    assert res.above is None


@settings(deadline=None, max_examples=80)
@given(x=st.floats(0.01, 1e3), y=st.floats(0.01, 1e3))
def test_amgm_property(x, y):
    assert mean_value(GEOMETRIC, x, y) <= mean_value(ARITHMETIC, x, y) * (1 + 1e-12)


@pytest.mark.parametrize("alpha", [-0.1, 1.5, math.nan])
def test_mean_value_refuses_alpha_outside_the_closed_unit_interval(alpha):
    with pytest.raises(WeightError, match=r"outside \[0, 1\]"):
        mean_value(ARITHMETIC, 1.0, 2.0, alpha)
