import math
import warnings

import numpy as np
import pytest

from cdt.convexity import TRUSTED_CONVEX, Verdict, function_model, is_mn_convex, power_convexity_transform
from cdt.divergences import (
    DivergenceValue,
    QabdSpec,
    WeightedSet,
    bccd_numeric,
    extended_skew_jensen,
    jccd,
    jensen_bregman,
    jensen_diversity,
    kappa,
    lehmer_bregman,
    midpoint_verdict,
    omega_divergence,
    qabd,
    qabd_conformal,
    separable_divergence,
    skew_jccd,
)
from cdt.errors import (
    AffineGeneratorWarning,
    ConvexityError,
    DerivativeError,
    DomainError,
    LengthMismatch,
    ParamError,
    UnsupportedWeights,
    WeightError,
)
from cdt.generators import IDENTITY, LOG, RECIPROCAL, Interval, power_generator
from cdt.means import ARITHMETIC, GEOMETRIC, HARMONIC, lehmer, mean_value, quasi_arithmetic, stolarsky

F_SQ = function_model("x^2", Interval(-25.0, 25.0), lambda x: np.asarray(x, float) ** 2, lambda x: 2.0 * x)
F_SQ_POS = function_model("x^2", Interval(0.1, 25.0), lambda x: np.asarray(x, float) ** 2, lambda x: 2.0 * x)
F_EXP = function_model("exp", Interval(0.2, 5.0), np.exp, np.exp)
F_EXPSQ = function_model(
    "exp(x^2)", Interval(-2.0, 2.0), lambda x: np.exp(np.asarray(x, float) ** 2),
    lambda x: 2.0 * x * np.exp(np.asarray(x, float) ** 2),
)


def spec_sq():
    return QabdSpec(F_SQ, IDENTITY, IDENTITY)


class TestJccd:
    def test_zero_at_equal_points(self):
        assert float(jccd(F_SQ, ARITHMETIC, ARITHMETIC, 2.0, 2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_multiplicative_exp(self):
        # sqrt(e^1 * e^4) - e^sqrt(1*4), evaluated independently
        oracle = math.exp(2.5) - math.exp(2.0)
        got = float(jccd(F_EXP, GEOMETRIC, GEOMETRIC, 1.0, 4.0))
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_square_arithmetic(self):
        assert float(jccd(F_SQ, ARITHMETIC, ARITHMETIC, 1.0, 3.0)) == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_for_symmetric_means(self, rng):
        for _ in range(30):
            p, q = rng.uniform(0.5, 4.5, 2)
            a = float(jccd(F_EXP, GEOMETRIC, GEOMETRIC, p, q))
            b = float(jccd(F_EXP, GEOMETRIC, GEOMETRIC, q, p))
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_rejects_nonconvex(self):
        F_SQRT = function_model("sqrt", Interval(0.1, 20.0), np.sqrt)
        with pytest.raises(ConvexityError):
            jccd(F_SQRT, ARITHMETIC, ARITHMETIC, 1.0, 4.0)


class TestSkewJccd:
    def test_hand_value(self):
        assert float(skew_jccd(F_SQ, ARITHMETIC, ARITHMETIC, 0.25, 0.0, 4.0)) == pytest.approx(3.0, rel=1e-12)

    def test_boundary_alpha_small(self):
        v = float(skew_jccd(F_SQ, ARITHMETIC, ARITHMETIC, 1e-12, 1.0, 3.0))
        assert abs(v) <= 1e-8

    def test_swap_symmetry(self, rng):
        for _ in range(50):
            p, q = rng.uniform(0.4, 4.5, 2)
            al = float(rng.uniform(0.05, 0.95))
            a = float(skew_jccd(F_EXP, GEOMETRIC, GEOMETRIC, al, p, q))
            b = float(skew_jccd(F_EXP, GEOMETRIC, GEOMETRIC, 1.0 - al, q, p))
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_alpha_range(self):
        with pytest.raises(WeightError):
            skew_jccd(F_SQ, ARITHMETIC, ARITHMETIC, 1.5, 1.0, 2.0)

    def test_needs_weight_supporting_means(self):
        with pytest.raises(UnsupportedWeights):
            skew_jccd(F_SQ_POS, stolarsky(2), ARITHMETIC, 0.3, 1.0, 2.0)


class TestExtendedSkew:
    def test_reduces_to_skew_inside_unit_interval(self, rng):
        for _ in range(20):
            p, q = rng.uniform(-3.0, 3.0, 2)
            al = float(rng.uniform(0.1, 0.9))
            assert extended_skew_jensen(F_SQ, al, p, q) == pytest.approx(
                float(skew_jccd(F_SQ, ARITHMETIC, ARITHMETIC, al, p, q)), rel=1e-10, abs=1e-12
            )

    def test_alpha_two(self):
        assert extended_skew_jensen(F_SQ, 2.0, 1.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_alpha_minus_one(self):
        assert extended_skew_jensen(F_SQ, -1.0, 2.0, 3.0) == pytest.approx(2.0, rel=1e-12)

    def test_nonnegative_for_convex(self, rng):
        for _ in range(200):
            p, q = rng.uniform(-3.0, 3.0, 2)
            al = float(rng.choice([-2.5, -1.0, -0.3, 0.4, 1.7, 3.0]))
            assert extended_skew_jensen(F_SQ, al, p, q) >= -1e-12

    def test_domain_escape(self):
        with pytest.raises(DomainError):
            extended_skew_jensen(F_SQ, 40.0, 20.0, 24.0)

    def test_alpha_endpoints_rejected(self):
        with pytest.raises(ParamError):
            extended_skew_jensen(F_SQ, 1.0, 1.0, 2.0)


class TestJensenDiversity:
    def test_equal_points_zero(self):
        pts = WeightedSet.uniform((2.0, 2.0, 2.0))
        assert jensen_diversity(F_SQ, ARITHMETIC, ARITHMETIC, pts) == pytest.approx(0.0, abs=1e-12)

    def test_variance_style(self):
        pts = WeightedSet.uniform((1.0, 3.0))
        assert jensen_diversity(F_SQ, ARITHMETIC, ARITHMETIC, pts) == pytest.approx(1.0, rel=1e-12)

    def test_two_point_reduces_to_skew(self, rng):
        for _ in range(30):
            p, q = rng.uniform(0.4, 4.5, 2)
            w2 = float(rng.uniform(0.1, 0.9))
            pts = WeightedSet((p, q), (1.0 - w2, w2))
            a = jensen_diversity(F_EXP, GEOMETRIC, GEOMETRIC, pts)
            b = float(skew_jccd(F_EXP, GEOMETRIC, GEOMETRIC, w2, p, q))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


    @pytest.mark.parametrize("sign", [1.0, -1.0])  # sqrt(x) is concave: its negation is convex
    def test_two_points_agree_with_jccd_including_the_clamp(self, sign):
        F = function_model(
            "sqrt", Interval(0.1, 10.0), lambda x: sign * np.sqrt(x), lambda x: sign * 0.5 / np.sqrt(x)
        )
        pts = WeightedSet.uniform((1.0, 4.0))

        def outcome(fn):
            try:
                return float(fn())
            except ConvexityError as exc:
                return str(exc)

        a = outcome(lambda: jccd(F, ARITHMETIC, ARITHMETIC, 1.0, 4.0, verdict=TRUSTED_CONVEX))
        b = outcome(lambda: jensen_diversity(F, ARITHMETIC, ARITHMETIC, pts, verdict=TRUSTED_CONVEX))
        assert a == b
        if sign > 0:
            assert a == "negative divergence -8.113883e-02: generator is not (M,N)-convex on this pair"
        else:
            assert a == pytest.approx(math.sqrt(2.5) - 1.5, rel=1e-12)

    def test_cancellation_below_the_floor_reads_zero(self):
        F = function_model("x", Interval(-5.0, 5.0), lambda x: np.asarray(x, float), np.ones_like)
        pts = WeightedSet.uniform((0.1, 0.2, 0.7))  # exact value 0, float rounding below ZERO_FLOOR
        assert jensen_diversity(F, ARITHMETIC, ARITHMETIC, pts, verdict=TRUSTED_CONVEX) >= 0.0


class TestKappa:
    def test_arithmetic_row(self):
        assert kappa(IDENTITY, 2.0, 5.0) == pytest.approx(3.0, rel=1e-12)

    def test_geometric_row(self):
        assert kappa(LOG, 2.0, 4.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_power_row(self, rng):
        for d in (3.0, -2.0, 0.5):
            gen = power_generator(d)
            for _ in range(20):
                x, y = rng.uniform(0.3, 8.0, 2)
                want = (y**d - x**d) / (d * x ** (d - 1.0))
                assert kappa(gen, x, y) == pytest.approx(want, rel=1e-10)

    def test_harmonic_row_matches_power_minus_one(self, rng):
        # kappa is invariant under the increasing reparameterization, and the
        # harmonic row must equal the power row at delta = -1: x^2 (1/x - 1/y).
        for _ in range(20):
            x, y = rng.uniform(0.3, 8.0, 2)
            want = x * x * (1.0 / x - 1.0 / y)
            assert kappa(RECIPROCAL, x, y) == pytest.approx(want, rel=1e-10)
            assert kappa(power_generator(-1), x, y) == pytest.approx(want, rel=1e-10)

    def test_derivative_underflow(self):
        with pytest.raises(DerivativeError):
            kappa(power_generator(-2), 1e150, 2e150)


class TestQabd:
    def test_squared_loss(self):
        assert float(qabd(spec_sq(), 3.0, 1.0)) == pytest.approx(4.0, rel=1e-12)

    def test_zero_on_diagonal(self, rng):
        spec = spec_sq()
        for x in rng.uniform(-20.0, 20.0, 20):
            assert float(qabd(spec, x, x)) == pytest.approx(0.0, abs=1e-12)

    def test_affine_case_identically_zero(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AffineGeneratorWarning)
            spec = QabdSpec(F_EXP, IDENTITY, LOG)
        for _ in range(100):
            p, q = rng.uniform(0.3, 4.5, 2)
            assert abs(float(qabd(spec, p, q))) <= 1e-12

    def test_affine_construction_warns(self):
        with pytest.warns(AffineGeneratorWarning):
            QabdSpec(F_EXP, IDENTITY, LOG)

    def test_rejects_nonconvex(self):
        F_SQRT = function_model("sqrt", Interval(0.1, 20.0), np.sqrt)
        with pytest.raises(ConvexityError):
            QabdSpec(F_SQRT, IDENTITY, IDENTITY)

    def test_power_mean_specialization(self, rng):
        # rho = power:2, tau = power:3 must reproduce the direct power-form
        # expression built from x^delta generators.
        d1, d2 = 2.0, 3.0
        F = function_model("exp", Interval(0.5, 3.0), np.exp, np.exp)
        spec = QabdSpec(F, power_generator(d1), power_generator(d2))
        for _ in range(200):
            p, q = rng.uniform(0.55, 2.95, 2)
            fp, fq = F.value(p), F.value(q)
            want = (fp**d2 - fq**d2) / (d2 * fq ** (d2 - 1.0)) - (
                (p**d1 - q**d1) / (d1 * q ** (d1 - 1.0))
            ) * F.deriv(q)
            assert float(qabd(spec, p, q)) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_pythagorean_triple_formulas(self, rng):
        # Explicit q-anchored closed forms for the (A,A), (G,G), (H,H) cases,
        # cross-checked against the independent skew-Jensen limit.
        cases = [
            (
                QabdSpec(F_SQ, IDENTITY, IDENTITY),
                ARITHMETIC,
                lambda F, p, q: F.value(p) - F.value(q) - (p - q) * F.deriv(q),
                (-4.0, 4.0),
                F_SQ,
            ),
            (
                QabdSpec(F_EXP, LOG, LOG),
                GEOMETRIC,
                lambda F, p, q: F.value(q) * math.log(F.value(p) / F.value(q))
                + q * math.log(q / p) * F.deriv(q),
                (0.4, 3.0),
                F_EXP,
            ),
            (
                QabdSpec(
                    function_model("exp", Interval(0.25, 1.8), np.exp, np.exp),
                    RECIPROCAL,
                    RECIPROCAL,
                ),
                HARMONIC,
                lambda F, p, q: F.value(q) ** 2 * (1.0 / F.value(q) - 1.0 / F.value(p))
                + q * q * (1.0 / p - 1.0 / q) * F.deriv(q),
                (0.3, 1.7),
                None,
            ),
        ]
        for spec, mean_spec, formula, box, _ in cases:
            F = spec.F
            for _ in range(100):
                p, q = rng.uniform(*box, 2)
                assert float(qabd(spec, p, q)) == pytest.approx(
                    formula(F, p, q), rel=1e-12, abs=1e-12
                )
            # independent oracle: scaled skew-Jensen limit at alpha -> 1
            p, q = box[0] + 0.3 * (box[1] - box[0]), box[0] + 0.8 * (box[1] - box[0])
            est = bccd_numeric(F, mean_spec, mean_spec, p, q, (1e-3, 1e-5))[-1]
            assert float(qabd(spec, p, q)) == pytest.approx(est, rel=1e-3)


class TestConformal:
    def test_identity_case(self):
        factor, base = qabd_conformal(spec_sq(), 3.0, 1.0)
        assert factor == pytest.approx(1.0, rel=1e-12)
        assert base == pytest.approx(4.0, rel=1e-12)

    def test_factor_positive_and_product_identity(self, rng):
        spec = QabdSpec(F_EXP, LOG, LOG)
        for _ in range(1000):
            p, q = rng.uniform(0.3, 4.5, 2)
            factor, base = qabd_conformal(spec, p, q)
            assert factor > 0.0
            v = float(qabd(spec, p, q))
            assert factor * base == pytest.approx(v, rel=1e-9, abs=1e-13)


class TestBccdNumeric:
    def test_squared_loss_limit(self):
        seq = bccd_numeric(F_SQ, ARITHMETIC, ARITHMETIC, 3.0, 1.0, (1e-2, 1e-3, 1e-4))
        for v in seq:
            assert v == pytest.approx(4.0, rel=1e-9)

    def test_zero_on_diagonal(self):
        seq = bccd_numeric(F_SQ, ARITHMETIC, ARITHMETIC, 2.0, 2.0, (1e-2, 1e-3))
        assert all(abs(v) < 1e-12 for v in seq)

    def test_converges_to_multiplicative_qabd(self):
        spec = QabdSpec(F_EXP, LOG, LOG)
        want = float(qabd(spec, 2.0, 1.0))
        seq = bccd_numeric(F_EXP, GEOMETRIC, GEOMETRIC, 2.0, 1.0, (1e-2, 1e-3, 1e-4))
        assert seq[-1] == pytest.approx(want, rel=1e-3)
        errs = [abs(v - want) for v in seq]
        assert errs[0] > errs[1] > errs[2]

    def test_sequence_validation(self):
        with pytest.raises(ParamError):
            bccd_numeric(F_SQ, ARITHMETIC, ARITHMETIC, 3.0, 1.0, (1e-3, 1e-2))
        with pytest.raises(ParamError):
            bccd_numeric(F_SQ, ARITHMETIC, ARITHMETIC, 3.0, 1.0, ())

    def test_nan_in_the_sequence_is_rejected_as_outside_the_interval(self):
        with pytest.raises(ParamError, match=r"^alpha_sequence must lie strictly inside \(0, 1\)$"):
            bccd_numeric(F_SQ_POS, ARITHMETIC, ARITHMETIC, 1.0, 4.0, (0.5, math.nan))


class TestOmega:
    def test_midpoint_case(self, rng):
        for _ in range(20):
            p, q = rng.uniform(-4.0, 4.0, 2)
            lhs = omega_divergence(F_SQ, ARITHMETIC, ARITHMETIC, 0.0, p, q)
            rhs = float(jccd(F_SQ, ARITHMETIC, ARITHMETIC, p, q))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_zero_on_diagonal(self):
        assert omega_divergence(F_SQ, ARITHMETIC, ARITHMETIC, 0.5, 2.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert omega_divergence(F_SQ, ARITHMETIC, ARITHMETIC, 0.5, 0.0, 4.0) == pytest.approx(4.0, rel=1e-12)

    def test_omega_range(self):
        with pytest.raises(WeightError):
            omega_divergence(F_SQ, ARITHMETIC, ARITHMETIC, 1.0, 0.0, 4.0)


class TestLehmerBregman:
    def test_reduces_to_ordinary(self):
        # delta = delta' = 0: chi_0(p:q) = q - p, so the value is B_F(q:p)
        assert lehmer_bregman(F_SQ_POS, 0.0, 0.0, 1.0, 3.0) == pytest.approx(4.0, rel=1e-12)

    def test_zero_on_diagonal(self):
        assert lehmer_bregman(F_SQ_POS, 0.5, 1.0, 2.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_ordinary_anchor_on_random_pairs(self, rng):
        for _ in range(200):
            p, q = rng.uniform(0.3, 8.0, 2)
            want = F_SQ_POS.value(q) - F_SQ_POS.value(p) - (q - p) * F_SQ_POS.deriv(p)
            got = lehmer_bregman(F_SQ_POS, 0.0, 0.0, p, q)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_requires_positive_values(self):
        with pytest.raises(DomainError):
            lehmer_bregman(F_SQ_POS, 0.0, 0.0, -1.0, 2.0)

    def test_negative_value_raises_as_jccd(self):
        F = function_model("sqrt", Interval(0.1, 10.0), np.sqrt, lambda x: 0.5 / np.sqrt(x))
        with pytest.raises(ConvexityError, match=r"negative divergence -5\.000000e-01"):
            lehmer_bregman(F, 0.0, 0.0, 1.0, 4.0, verdict=TRUSTED_CONVEX)


class TestJensenBregman:
    def test_identity_tau_equals_jccd(self, rng):
        spec = QabdSpec(F_SQ_POS, IDENTITY, IDENTITY)
        for _ in range(50):
            p, q = rng.uniform(0.3, 8.0, 2)
            lhs = jensen_bregman(spec, p, q)
            rhs = float(jccd(F_SQ_POS, ARITHMETIC, ARITHMETIC, p, q))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_square_example(self):
        spec = QabdSpec(F_SQ, IDENTITY, IDENTITY)
        assert jensen_bregman(spec, 1.0, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_log_tau_differs_from_plain_jensen(self):
        # For the (A,G)-affine exponential the Jensen-Bregman value collapses
        # to zero while the plain Jensen divergence stays positive.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AffineGeneratorWarning)
            spec = QabdSpec(F_EXP, IDENTITY, LOG)
        jb = jensen_bregman(spec, 1.0, 3.0)
        plain = float(jccd(F_EXP, ARITHMETIC, ARITHMETIC, 1.0, 3.0))
        assert abs(jb) <= 1e-12
        assert plain > 0.1

    @pytest.mark.parametrize("rho", [LOG, RECIPROCAL, power_generator(0.5)], ids=lambda g: g.id)
    def test_midpoint_is_the_mean_kernels(self, rho):
        spec = QabdSpec(F_SQ_POS, rho, IDENTITY)
        for p, q in np.random.default_rng(3).uniform(0.2, 5.0, (40, 2)).tolist():
            m = mean_value(quasi_arithmetic(rho), p, q)
            assert jensen_bregman(spec, p, q) == 0.5 * (float(qabd(spec, p, m)) + float(qabd(spec, q, m)))


class TestSeparable:
    def test_single_component_reduces_to_qabd(self):
        assert separable_divergence([spec_sq()], (3.0,), (1.0,)) == pytest.approx(4.0, rel=1e-12)

    def test_zero_on_equal_vectors(self):
        s = spec_sq()
        assert separable_divergence([s, s], (1.0, 2.0), (1.0, 2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_componentwise_sum(self):
        s = spec_sq()
        assert separable_divergence([s, s], (3.0, 0.0), (1.0, 2.0)) == pytest.approx(8.0, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            separable_divergence([spec_sq()], (1.0, 2.0), (1.0,))

    def test_component_error_carries_index(self):
        s = spec_sq()
        with pytest.raises(DomainError, match="component 1"):
            separable_divergence([s, s], (1.0, 100.0), (1.0, 2.0))


class TestOrderingFromDominance:
    def test_bigger_codomain_mean_gives_bigger_jensen(self, rng):
        # For increasing convex-certified F: N1 = A >= N2 = G pointwise, so
        # J^{A,A} >= J^{A,G} at every pair.
        F = function_model("exp(x^2)", Interval(0.1, 2.0), lambda x: np.exp(np.asarray(x, float) ** 2))
        for _ in range(200):
            p, q = rng.uniform(0.15, 1.95, 2)
            hi = float(jccd(F, ARITHMETIC, ARITHMETIC, p, q))
            lo = float(jccd(F, ARITHMETIC, GEOMETRIC, p, q))
            assert hi >= lo - 1e-12

    def test_smaller_domain_mean_gives_bigger_jensen(self, rng):
        # M1 = G <= M2 = A and F increasing: J^{G,A} >= J^{A,A}.
        F = function_model("exp(x^2)", Interval(0.1, 2.0), lambda x: np.exp(np.asarray(x, float) ** 2))
        for _ in range(200):
            p, q = rng.uniform(0.15, 1.95, 2)
            hi = float(jccd(F, GEOMETRIC, ARITHMETIC, p, q))
            lo = float(jccd(F, ARITHMETIC, ARITHMETIC, p, q))
            assert hi >= lo - 1e-12


class TestDivergenceValue:
    def test_clamps_tiny_negative(self):
        v = DivergenceValue.create(-5e-13, (1.0, 2.0))
        assert v.value == 0.0
        assert v.clamped

    def test_rejects_material_negative(self):
        with pytest.raises(ConvexityError):
            DivergenceValue.create(-1e-6, (1.0, 2.0))

    def test_float_protocol(self):
        assert float(DivergenceValue.create(2.5, (0.0, 1.0))) == 2.5


class TestMidpointVerdict:
    def test_convex(self):
        assert midpoint_verdict(F_SQ, ARITHMETIC, ARITHMETIC).verdict is Verdict.CONVEX

    def test_affine(self):
        assert midpoint_verdict(F_EXP, ARITHMETIC, GEOMETRIC).verdict is Verdict.AFFINE

    def test_not_convex(self):
        F_SQRT = function_model("sqrt", Interval(0.1, 20.0), np.sqrt)
        rep = midpoint_verdict(F_SQRT, ARITHMETIC, ARITHMETIC)
        assert rep.verdict is Verdict.NOT_CONVEX
        p, q, gap = rep.witness
        assert gap < 0
        # recompute the witness violation
        mid = 0.5 * (F_SQRT.value(p) + F_SQRT.value(q))
        assert mid < F_SQRT.value(0.5 * (p + q))

    def test_lehmer_means_certificate(self):
        rep = midpoint_verdict(F_SQ_POS, lehmer(0.0), lehmer(0.0))
        assert rep.verdict is Verdict.CONVEX

    def test_certificate_holds_at_scale(self):
        # attached certificates must survive a dense midpoint sweep
        for F, M, N in ((F_SQ, ARITHMETIC, ARITHMETIC), (F_EXP, GEOMETRIC, GEOMETRIC)):
            rep = midpoint_verdict(F, M, N, samples=10_000)
            assert rep.verdict is Verdict.CONVEX
            assert rep.min_gap >= -1e-9


# ------------------------------------------- half-line certificates and unvisited edges


class TestMidpointVerdictOnHalfLines:
    CUBIC = function_model("x^3 - 3x^2", Interval(0.0, math.inf), lambda x: x**3 - 3.0 * x**2, lambda x: 3.0 * x**2 - 6.0 * x)

    def test_a_function_concave_below_one_is_not_certified(self):
        assert is_mn_convex(self.CUBIC, IDENTITY, IDENTITY).verdict is Verdict.NOT_CONVEX
        assert midpoint_verdict(self.CUBIC, ARITHMETIC, ARITHMETIC).verdict is Verdict.NOT_CONVEX
        with pytest.raises(ConvexityError, match="jccd: certificate failed"):
            jccd(self.CUBIC, ARITHMETIC, ARITHMETIC, 0.1, 0.5)

    def test_a_convex_function_stays_certified(self):
        square = function_model("x^2", Interval(0.0, math.inf), lambda x: x**2, lambda x: 2.0 * x)
        assert midpoint_verdict(square, ARITHMETIC, ARITHMETIC).verdict is Verdict.CONVEX

    def test_the_witness_pair_lies_where_f_is_concave(self):
        p, q, gap = midpoint_verdict(self.CUBIC, ARITHMETIC, ARITHMETIC).witness
        assert max(p, q) < 1.0 and gap < 0.0  # F'' = 6x - 6


F_SHIFTED = function_model("x-2", Interval(0.0, 5.0), lambda x: x - 2.0, lambda x: np.ones_like(x))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: power_convexity_transform(F_SQ, 1.0, 2.0), DomainError, "requires a positive domain"),
        (lambda: power_convexity_transform(F_SHIFTED, 1.0, 0.0).value(1.0), DomainError,
         "values of 'x-2' leave the domain of generator 'power:0'"),
        (lambda: power_convexity_transform(F_SHIFTED, 1.0, 0.5).value(1.0), DomainError,
         r"values of 'x-2' leave the domain of generator 'power:0\.5'"),
        (lambda: bccd_numeric(F_SQ_POS, stolarsky(2.0), ARITHMETIC, 1.0, 2.0, [0.5, 0.1]), UnsupportedWeights,
         "must both support weights"),
        (lambda: lehmer_bregman(F_SHIFTED, 0.0, 1.0, 1.0, 3.0), DomainError, "requires positive generator values"),
    ],
)
def test_unvisited_edges_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_a_supplied_verdict_skips_every_check_at_construction():
    # F's values leave log's domain.  Certified, the spec refuses to be
    # built; with a verdict supplied nothing runs until qabd_conformal
    # reduces F.
    with pytest.raises(DomainError, match="outside domain .* of generator 'log'"):
        QabdSpec(F_SHIFTED, IDENTITY, LOG)
    spec = QabdSpec(F_SHIFTED, IDENTITY, LOG, verdict=TRUSTED_CONVEX)
    with pytest.raises(DomainError, match="values of 'x-2' leave the domain of generator 'log'"):
        qabd_conformal(spec, 1.0, 3.0)
