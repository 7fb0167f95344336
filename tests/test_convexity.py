import math

import numpy as np
import pytest

from cdt.convexity import (
    CONVEXITY_RTOL,
    Verdict,
    _verdict,
    function_model,
    is_mn_convex,
    power_convexity_transform,
    relative_convexity_det,
    to_ordinary,
)
from cdt.divergences import QabdSpec, midpoint_verdict, qabd
from cdt.errors import DomainError, OrderError
from cdt.generators import IDENTITY, LOG, RECIPROCAL, Interval, power_generator
from cdt.means import ARITHMETIC, GEOMETRIC, quasi_arithmetic


def fm(name, lo, hi, f, d=None):
    return function_model(name, Interval(lo, hi), f, d)


F_EXP = fm("exp", 0.2, 6.0, np.exp, np.exp)
F_SQ = fm("x^2", 0.2, 12.0, lambda x: np.asarray(x, float) ** 2, lambda x: 2.0 * x)
F_SINH = fm("sinh", 0.1, 5.0, np.sinh, np.cosh)
F_EXPLOG2 = fm("exp(log^2 x)", 0.4, 7.0, lambda x: np.exp(np.log(x) ** 2))
F_INV = fm("1/x", 0.2, 6.0, lambda x: 1.0 / np.asarray(x, float), lambda x: -1.0 / x**2)


class TestToOrdinary:
    def test_identity_composition(self, rng):
        G = to_ordinary(F_SQ, IDENTITY, IDENTITY)
        for x in rng.uniform(0.3, 11.0, 50):
            assert G.value(x) == pytest.approx(F_SQ.value(x), rel=1e-12)

    def test_log_exp_gives_affine(self, rng):
        G = to_ordinary(F_EXP, IDENTITY, LOG)
        for x in rng.uniform(0.3, 5.5, 50):
            assert G.value(x) == pytest.approx(x, rel=1e-12)

    def test_multiplicative_reduction_of_exp(self, rng):
        G = to_ordinary(F_EXP, LOG, LOG)
        for x in rng.uniform(0.3, 5.5, 50):
            u = math.log(x)
            assert G.value(u) == pytest.approx(math.exp(u), rel=1e-10)

    def test_chain_rule_derivative(self, rng):
        G = to_ordinary(F_SQ, LOG, LOG)
        # G(u) = log((e^u)^2) = 2u, so G' = 2
        for u in rng.uniform(math.log(0.3), math.log(11.0), 20):
            assert G.deriv(u) == pytest.approx(2.0, rel=1e-9)

    def test_domain_violation(self):
        shifted = fm("x-5", 0.5, 8.0, lambda x: np.asarray(x, float) - 5.0)
        with pytest.raises(DomainError):
            to_ordinary(shifted, IDENTITY, LOG)


class TestIsMnConvex:
    def test_exp_multiplicatively_convex(self):
        assert is_mn_convex(F_EXP, LOG, LOG).verdict is Verdict.CONVEX

    def test_sq_not_log_convex(self):
        rep = is_mn_convex(F_SQ, IDENTITY, LOG, grid=129)
        assert rep.verdict is Verdict.NOT_CONVEX
        assert rep.witness is not None
        # witness violates the midpoint/chord inequality for G = log F
        x0, x1, x2 = sorted(rep.witness)
        g = lambda x: math.log(F_SQ.value(x))
        u = lambda x: x
        chord = g(x0) + (g(x2) - g(x0)) * (u(x1) - u(x0)) / (u(x2) - u(x0))
        assert chord < g(x1)

    def test_exp_log_convex_and_ordinary(self):
        assert is_mn_convex(F_EXP, IDENTITY, IDENTITY).verdict is Verdict.CONVEX
        assert is_mn_convex(F_EXP, LOG, IDENTITY).verdict is Verdict.CONVEX

    def test_exp_ag_affine(self):
        assert is_mn_convex(F_EXP, IDENTITY, LOG).verdict is Verdict.AFFINE

    def test_harmonic_harmonic_affine_for_reciprocal(self):
        # -1/F = -x is affine when F = 1/x
        assert is_mn_convex(F_INV, IDENTITY, RECIPROCAL).verdict is Verdict.AFFINE

    def test_genuinely_ah_convex_function(self):
        # F = 1/(10 - x^2): -1/F = x^2 - 10 is convex, so F is (A,H)-convex
        F = fm("1/(10-x^2)", -1.0, 1.0, lambda x: 1.0 / (10.0 - np.asarray(x, float) ** 2))
        assert is_mn_convex(F, IDENTITY, RECIPROCAL).verdict is Verdict.CONVEX

    def test_inverse_xlogx_is_ah_concave(self):
        # Direct midpoint witness: F(A(2,8)) > H(F(2), F(8)), so the sampled
        # verdict must reject (A,H)-convexity of 1/(x log x) on (1, inf).
        F = fm("1/(x log x)", 1.1, 12.0, lambda x: 1.0 / (np.asarray(x, float) * np.log(x)))
        Fp, Fq = F.value(2.0), F.value(8.0)
        assert F.value(5.0) > 2 * Fp * Fq / (Fp + Fq)
        assert is_mn_convex(F, IDENTITY, RECIPROCAL).verdict is Verdict.NOT_CONVEX


class TestClassInclusions:
    def test_ah_subset_ag_subset_ordinary(self):
        # (A,H)-convex implies (A,G)-convex implies ordinary convex
        F = fm("1/(10-x^2)", -1.0, 1.0, lambda x: 1.0 / (10.0 - np.asarray(x, float) ** 2))
        for tau in (RECIPROCAL, LOG, IDENTITY):
            assert is_mn_convex(F, IDENTITY, tau).verdict is Verdict.CONVEX

    def test_ag_convex_is_ordinary_convex(self):
        F = fm("exp(x^2)", -1.5, 1.5, lambda x: np.exp(np.asarray(x, float) ** 2))
        assert is_mn_convex(F, IDENTITY, LOG).verdict is Verdict.CONVEX
        assert is_mn_convex(F, IDENTITY, IDENTITY).verdict is Verdict.CONVEX


REDUCTION_CORPUS = [F_EXP, F_SINH, F_EXPLOG2, F_SQ, F_INV]
GENERATOR_PAIRS = [
    (IDENTITY, IDENTITY),
    (IDENTITY, LOG),
    (LOG, LOG),
    (LOG, IDENTITY),
    (IDENTITY, RECIPROCAL),
    (RECIPROCAL, RECIPROCAL),
]


@pytest.mark.parametrize("F", REDUCTION_CORPUS, ids=lambda f: f.id)
@pytest.mark.parametrize("rho,tau", GENERATOR_PAIRS, ids=lambda g: getattr(g, "id", ""))
def test_reduction_lemma_agreement(F, rho, tau):
    direct = is_mn_convex(F, rho, tau)
    reduced = is_mn_convex(to_ordinary(F, rho, tau), IDENTITY, IDENTITY)
    assert direct.verdict == reduced.verdict


class TestRelativeConvexityDet:
    ID = fm("id", 0.01, 100.0, lambda x: np.asarray(x, float))

    def test_square_triple(self):
        assert relative_convexity_det(self.ID, F_SQ, 1, 2, 3) == pytest.approx(2.0, rel=1e-12)

    def test_identical_columns(self):
        assert relative_convexity_det(F_SQ, F_SQ, 1, 2, 3) == pytest.approx(0.0, abs=1e-12)

    def test_log_not_convex_relative_to_identity(self):
        flog = fm("log", 0.01, 100.0, np.log)
        val = relative_convexity_det(self.ID, flog, 1, 2, 4)
        assert val == pytest.approx(2 * math.log(4) - 4 * math.log(2) - (math.log(4) - math.log(2)), rel=1e-12)
        assert val < 0

    def test_order_error(self):
        with pytest.raises(OrderError):
            relative_convexity_det(self.ID, F_SQ, 3, 2, 1)

    def test_identity_relative_matches_ordinary_verdict(self, rng):
        # identity <| f  iff  f is ordinary convex
        ident = fm("id", 0.1, 13.0, lambda x: np.asarray(x, float))
        fsqrt = fm("sqrt", 0.2, 12.0, np.sqrt)
        for F in (F_EXP, F_SQ, fsqrt):
            verdict = is_mn_convex(F, IDENTITY, IDENTITY).verdict
            dets = []
            for _ in range(300):
                x, y, z = np.sort(rng.uniform(F.domain.lo * 1.05, F.domain.hi * 0.95, 3))
                if x == y or y == z:
                    continue
                dets.append(relative_convexity_det(ident, F, float(x), float(y), float(z)))
            if verdict is Verdict.CONVEX:
                assert min(dets) >= -1e-9
            else:
                assert min(dets) < 0

    def test_matches_verdict_on_corpus(self, rng):
        # identity <| f  iff  f ordinary convex; log <| log f  iff  f is (G,G)-convex
        flog = fm("log", 0.2, 12.0, np.log)
        for F in (F_EXP, F_SQ, F_EXPLOG2):
            ge_verdict = is_mn_convex(F, LOG, LOG).verdict
            logF = fm(f"log({F.id})", F.domain.lo, F.domain.hi, lambda x, F=F: np.log(F.eval(x)))
            dets = []
            for _ in range(300):
                x, y, z = np.sort(rng.uniform(F.domain.lo * 1.01, F.domain.hi * 0.99, 3))
                if x == y or y == z:
                    continue
                dets.append(relative_convexity_det(flog, logF, float(x), float(y), float(z)))
            dmin = min(dets)
            if ge_verdict is Verdict.CONVEX:
                assert dmin >= -1e-9
            elif ge_verdict is Verdict.AFFINE:
                assert max(abs(d) for d in dets) <= 1e-9
            else:
                assert dmin < 0


class TestPowerConvexityTransform:
    def test_identity_branch(self, rng):
        F = F_SQ
        T = power_convexity_transform(F, 1.0, 1.0)
        for x in rng.uniform(0.3, 11.0, 30):
            assert T.value(x) == pytest.approx(F.value(x), rel=1e-12)

    def test_double_zero_branch_on_exp(self, rng):
        # log(exp(exp(u))) = exp(u)
        T = power_convexity_transform(F_EXP, 0.0, 0.0)
        for u in rng.uniform(math.log(0.3), math.log(5.5), 30):
            assert T.value(u) == pytest.approx(math.exp(u), rel=1e-10)
        assert is_mn_convex(T, IDENTITY, IDENTITY).verdict is Verdict.CONVEX

    def test_sqrt_branch(self, rng):
        # delta1=2, delta2=1 on the identity function gives sign(1) * u^(1/2)
        F = fm("id", 0.5, 9.0, lambda x: np.asarray(x, float))
        T = power_convexity_transform(F, 2.0, 1.0)
        for u in rng.uniform(0.3, 80.0, 30):
            assert T.value(u) == pytest.approx(math.sqrt(u), rel=1e-12)
        assert is_mn_convex(T, IDENTITY, IDENTITY).verdict is Verdict.NOT_CONVEX

    def test_negative_delta2_sign_factor(self, rng):
        # (P_1, P_-1)-convexity of F matches ordinary convexity of -F^{-1}
        F = fm("1/(10-x^2)", 0.2, 1.0, lambda x: 1.0 / (10.0 - np.asarray(x, float) ** 2))
        T = power_convexity_transform(F, 1.0, -1.0)
        for u in rng.uniform(0.25, 0.95, 30):
            assert T.value(u) == pytest.approx(-1.0 / F.value(u), rel=1e-12)

    def test_agreement_with_generator_verdicts(self):
        # transform convexity == (P_d1, P_d2) verdict through power generators
        cases = [
            (F_EXP, 1.0, 2.0),
            (F_SQ, 1.0, -1.0),
            (F_SQ, 2.0, 1.0),
            (F_EXP, 0.0, 0.0),
            (F_EXP, -1.0, 2.0),
            (F_SQ, -2.0, -0.5),
        ]
        for F, d1, d2 in cases:
            T = power_convexity_transform(F, d1, d2)
            lhs = is_mn_convex(T, IDENTITY, IDENTITY).verdict
            rho = power_generator(d1)
            tau = power_generator(d2)
            rhs = is_mn_convex(F, rho, tau).verdict
            assert lhs == rhs, (F.id, d1, d2, lhs, rhs)

    def test_negative_delta1_flip(self, rng):
        # u = x^-1 undoes the representative -x^-1: T(u) = F(1/u) = u^-2,
        # with F's exact derivative carried through, T'(u) = -2 u^-3
        T = power_convexity_transform(F_SQ, -1.0, 1.0)
        assert (T.domain.lo, T.domain.hi) == pytest.approx((1.0 / 12.0, 5.0), rel=1e-15)
        u = rng.uniform(0.1, 4.9, 30)
        np.testing.assert_allclose(T.value(u), u**-2.0, rtol=1e-14)
        np.testing.assert_allclose(T.deriv(u), -2.0 * u**-3.0, rtol=1e-14)

    def test_domain_requirement(self):
        F = fm("x", -2.0, 2.0, lambda x: np.asarray(x, float))
        with pytest.raises(DomainError):
            power_convexity_transform(F, 2.0, 1.0)

    def test_values_outside_the_power_domain_are_refused_as_by_the_generators(self):
        F = fm("x-2", 0.0, 5.0, lambda x: np.asarray(x, float) - 2.0, lambda x: np.ones_like(x))
        with pytest.raises(DomainError):
            is_mn_convex(F, power_generator(1.0), power_generator(2.0))
        with pytest.raises(DomainError, match="values of 'x-2' leave the domain of generator 'power:2'"):
            power_convexity_transform(F, 1.0, 2.0)


class TestOneVerdictRule:
    """is_mn_convex and midpoint_verdict classify their gaps with one rule."""

    F_X6 = fm("x^6", -1.0, 1.0, lambda x: np.asarray(x, float) ** 6, lambda x: 6.0 * np.asarray(x, float) ** 5)
    CASES = [
        (F, rho, tau)
        for F in (F_EXP, F_SINH, F_EXPLOG2, F_SQ, F_INV)
        for rho, tau in (
            (IDENTITY, IDENTITY),
            (IDENTITY, LOG),
            (LOG, LOG),
            (LOG, IDENTITY),
            (IDENTITY, RECIPROCAL),
            (RECIPROCAL, RECIPROCAL),
        )
    ] + [(F_X6, IDENTITY, IDENTITY)]

    @pytest.mark.parametrize(
        "F,rho,tau", CASES, ids=[f"{F.id}|{rho.id},{tau.id}" for F, rho, tau in CASES]
    )
    def test_grid_and_midpoint_certificates_agree(self, F, rho, tau):
        grid = is_mn_convex(F, rho, tau).verdict
        mid = midpoint_verdict(F, quasi_arithmetic(rho), quasi_arithmetic(tau)).verdict
        assert grid == mid

    def test_flat_centre_of_x6_is_convex(self):
        # second differences near 0 are ~1e-13: within tolerance, not violations
        assert is_mn_convex(self.F_X6, IDENTITY, IDENTITY).verdict is Verdict.CONVEX
        spec = QabdSpec(self.F_X6, IDENTITY, IDENTITY)
        assert qabd(spec, 0.5, -0.25).value == 0.019775390625

    def test_affine_stretch_with_a_strict_gap_is_convex(self):
        F = fm("max(x,0)^2", -1.0, 1.0, lambda x: np.maximum(np.asarray(x, float), 0.0) ** 2)
        assert is_mn_convex(F, IDENTITY, IDENTITY).verdict is Verdict.CONVEX
        assert midpoint_verdict(F, ARITHMETIC, ARITHMETIC).verdict is Verdict.CONVEX

    def test_rule(self):
        witness = lambda k: (float(k), 0.0, 0.0)
        tol = CONVEXITY_RTOL
        assert _verdict(np.array([0.0, 0.5 * tol, -0.5 * tol]), witness).verdict is Verdict.AFFINE
        assert _verdict(np.array([0.0, 2.0 * tol]), witness).verdict is Verdict.CONVEX
        rep = _verdict(np.array([5.0, -2.0 * tol, -3.0 * tol]), witness)
        assert (rep.verdict, rep.witness, rep.min_gap) == (Verdict.NOT_CONVEX, (2.0, 0.0, 0.0), -3.0 * tol)

    def test_midpoint_witness_holds_the_raw_gap(self):
        rep = midpoint_verdict(F_SQ, ARITHMETIC, GEOMETRIC)
        p, q, gap = rep.witness
        want = math.sqrt(F_SQ.value(p) * F_SQ.value(q)) - F_SQ.value(0.5 * (p + q))
        assert rep.verdict is Verdict.NOT_CONVEX
        assert gap == pytest.approx(want, rel=1e-9, abs=1e-12)
