import math

import numpy as np
import pytest

from cdt.bhattacharyya import (
    CauchyParam,
    DensityModel,
    DiscreteDist,
    alpha_divergence,
    bhat_coefficient,
    cauchy_density,
    cauchy_ha_closed_form,
    cmbd,
    histogram_density,
    mean_gap_distance,
    power_cmbd,
)
from cdt.divergences import skew_jccd
from cdt.convexity import function_model
from cdt.errors import (
    DominanceError,
    KindMismatch,
    LengthMismatch,
    ParamError,
    QuadratureFailure,
    UnsupportedWeights,
    WeightError,
)
from cdt.generators import IDENTITY, LOG, Interval
from cdt.means import ARITHMETIC, GEOMETRIC, HARMONIC, lehmer, power, quasi_arithmetic, stolarsky
from cdt.quadrature import QuadratureConfig

P = DiscreteDist((0.5, 0.5))
Q = DiscreteDist((0.9, 0.1))


def brute_coefficient(spec_fn, alpha, p, q):
    return math.fsum(spec_fn(a, b, alpha) for a, b in zip(p.masses, q.masses))


def geo(a, b, al):
    return a ** (1 - al) * b**al if a > 0 and b > 0 else 0.0


def ari(a, b, al):
    return (1 - al) * a + al * b


class TestCoefficient:
    def test_arithmetic_is_one(self, rng):
        for _ in range(20):
            m = rng.dirichlet(np.ones(5))
            n = rng.dirichlet(np.ones(5))
            c = bhat_coefficient(ARITHMETIC, float(rng.uniform(0.05, 0.95)), DiscreteDist(tuple(m)), DiscreteDist(tuple(n)))
            assert c == pytest.approx(1.0, abs=1e-9)

    def test_geometric_half(self):
        want = math.sqrt(0.45) + math.sqrt(0.05)
        assert bhat_coefficient(GEOMETRIC, 0.5, P, Q) == pytest.approx(want, rel=1e-12)

    def test_identical_inputs_give_one(self):
        for spec in (GEOMETRIC, HARMONIC, power(2), lehmer(0.5)):
            assert bhat_coefficient(spec, 0.3, P, P) == pytest.approx(1.0, rel=1e-9)

    def test_matches_brute_force_sum(self, rng):
        for _ in range(20):
            m = DiscreteDist(tuple(rng.dirichlet(np.ones(4))))
            n = DiscreteDist(tuple(rng.dirichlet(np.ones(4))))
            al = float(rng.uniform(0.1, 0.9))
            assert bhat_coefficient(GEOMETRIC, al, m, n) == pytest.approx(
                brute_coefficient(geo, al, m, n), rel=1e-12
            )
            assert bhat_coefficient(ARITHMETIC, al, m, n) == pytest.approx(
                brute_coefficient(ari, al, m, n), rel=1e-12
            )

    def test_zero_mass_handling(self):
        a = DiscreteDist((0.6, 0.4, 0.0))
        b = DiscreteDist((0.2, 0.0, 0.8))
        c = bhat_coefficient(GEOMETRIC, 0.5, a, b)
        assert c == pytest.approx(math.sqrt(0.12), rel=1e-12)
        ch = bhat_coefficient(HARMONIC, 0.5, a, b)
        assert ch == pytest.approx(2 * 0.6 * 0.2 / 0.8, rel=1e-12)

    def test_kind_and_length_errors(self):
        with pytest.raises(LengthMismatch):
            bhat_coefficient(GEOMETRIC, 0.5, P, DiscreteDist((0.2, 0.3, 0.5)))
        with pytest.raises(KindMismatch):
            bhat_coefficient(GEOMETRIC, 0.5, P, cauchy_density(1.0))
        with pytest.raises(UnsupportedWeights):
            bhat_coefficient(stolarsky(2), 0.5, P, Q)
        with pytest.raises(ParamError):
            bhat_coefficient(GEOMETRIC, 1.2, P, Q)


class TestCmbd:
    def test_zero_on_identical(self):
        assert float(cmbd(GEOMETRIC, ARITHMETIC, 0.3, P, P)) == pytest.approx(0.0, abs=1e-12)

    def test_classic_value(self):
        want = -math.log(math.sqrt(0.45) + math.sqrt(0.05))
        assert float(cmbd(GEOMETRIC, ARITHMETIC, 0.5, P, Q)) == pytest.approx(want, rel=1e-10)
        assert float(cmbd(GEOMETRIC, ARITHMETIC, 0.5, P, Q)) == pytest.approx(0.111572, abs=5e-7)

    def test_skew_swap(self, rng):
        for _ in range(30):
            m = DiscreteDist(tuple(rng.dirichlet(np.ones(4))))
            n = DiscreteDist(tuple(rng.dirichlet(np.ones(4))))
            al = float(rng.uniform(0.05, 0.95))
            a = float(cmbd(GEOMETRIC, ARITHMETIC, al, n, m))
            b = float(cmbd(GEOMETRIC, ARITHMETIC, 1.0 - al, m, n))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_classical_recovery_with_swapped_skew(self, rng):
        # cmbd carries weight 1-alpha on p, the classical distance carries
        # alpha on p: cmbd(alpha) == classical(1 - alpha).
        for _ in range(20):
            m = DiscreteDist(tuple(rng.dirichlet(np.ones(3))))
            n = DiscreteDist(tuple(rng.dirichlet(np.ones(3))))
            al = float(rng.uniform(0.1, 0.9))
            classic = -math.log(
                math.fsum(a**al * b ** (1 - al) for a, b in zip(m.masses, n.masses))
            )
            assert float(cmbd(GEOMETRIC, ARITHMETIC, 1.0 - al, m, n)) == pytest.approx(
                classic, rel=1e-12
            )

    def test_dominance_rejection(self):
        with pytest.raises(DominanceError):
            cmbd(ARITHMETIC, GEOMETRIC, 0.5, P, Q)  # A > G: wrong order

    def test_trusted_flag_skips_check(self):
        v = cmbd(quasi_arithmetic(LOG), ARITHMETIC, 0.5, P, Q, trusted_dominance=True)
        assert float(v) > 0

    def test_homogeneity_for_unnormalized_masses(self, rng):
        for lam in (0.5, 2.0, 10.0):
            for _ in range(10):
                m = rng.uniform(0.1, 1.0, 4)
                n = rng.uniform(0.1, 1.0, 4)
                al = float(rng.uniform(0.1, 0.9))
                base = float(cmbd(
                    GEOMETRIC, ARITHMETIC, al,
                    DiscreteDist(tuple(m), normalized=False),
                    DiscreteDist(tuple(n), normalized=False),
                ))
                scaled = float(cmbd(
                    GEOMETRIC, ARITHMETIC, al,
                    DiscreteDist(tuple(lam * m), normalized=False),
                    DiscreteDist(tuple(lam * n), normalized=False),
                ))
                assert scaled == pytest.approx(base, rel=1e-10, abs=1e-12)

    def test_bernoulli_exponential_family_bridge(self, rng):
        # cmbd(G, A, alpha, p, q) = J_{F,alpha}(theta_p : theta_q)
        #                         = J_{F,1-alpha}(theta_q : theta_p)
        F = function_model("log1pexp", Interval(-40.0, 40.0), lambda t: np.log1p(np.exp(t)))
        for _ in range(25):
            tp, tq = rng.uniform(-3.0, 3.0, 2)
            al = float(rng.uniform(0.1, 0.9))
            pb = DiscreteDist((1 / (1 + math.exp(tp)), 1 / (1 + math.exp(-tp))))
            qb = DiscreteDist((1 / (1 + math.exp(tq)), 1 / (1 + math.exp(-tq))))
            lhs = float(cmbd(GEOMETRIC, ARITHMETIC, al, pb, qb))
            assert lhs == pytest.approx(
                float(skew_jccd(F, ARITHMETIC, ARITHMETIC, al, tp, tq)), abs=1e-10
            )
            assert lhs == pytest.approx(
                float(skew_jccd(F, ARITHMETIC, ARITHMETIC, 1.0 - al, tq, tp)), abs=1e-10
            )


class TestPowerCmbd:
    def test_zero_on_identical(self):
        assert power_cmbd(2.0, 1.0, 0.4, P, P) == pytest.approx(0.0, abs=1e-12)

    def test_param_errors(self):
        with pytest.raises(ParamError):
            power_cmbd(1.0, 1.0, 0.5, P, Q)
        with pytest.raises(ParamError):
            power_cmbd(1.0, 0.0, 0.5, P, Q)

    def test_brute_force_value(self):
        c1 = math.fsum(math.sqrt(0.5 * a * a + 0.5 * b * b) for a, b in zip(P.masses, Q.masses))
        c2 = 1.0
        want = math.log(c1 / c2) / (2.0 - 1.0)
        got = power_cmbd(2.0, 1.0, 0.5, P, Q)
        assert got == pytest.approx(want, rel=1e-12)
        assert got > 0

    def test_nonnegative_and_order_symmetric(self, rng):
        for _ in range(20):
            m = DiscreteDist(tuple(rng.dirichlet(np.ones(4))))
            n = DiscreteDist(tuple(rng.dirichlet(np.ones(4))))
            al = float(rng.uniform(0.1, 0.9))
            v1 = power_cmbd(2.0, 0.5, al, m, n)
            v2 = power_cmbd(0.5, 2.0, al, m, n)
            assert v1 >= 0.0
            assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


class TestAlphaDivergence:
    def test_zero_on_identical(self):
        assert alpha_divergence(0.3, P, P) == pytest.approx(0.0, abs=1e-9)

    def test_half_value(self):
        want = 4.0 * (1.0 - (math.sqrt(0.45) + math.sqrt(0.05)))
        assert alpha_divergence(0.5, P, Q) == pytest.approx(want, rel=1e-10)
        assert alpha_divergence(0.5, P, Q) == pytest.approx(0.422291, abs=5e-7)

    def test_coefficient_distance_identity(self, rng):
        # c_alpha (exponent alpha on p) = exp(-classic Bhat_alpha), where the
        # classical distance is cmbd evaluated at 1-alpha.
        for _ in range(20):
            m = DiscreteDist(tuple(rng.dirichlet(np.ones(3))))
            n = DiscreteDist(tuple(rng.dirichlet(np.ones(3))))
            al = float(rng.uniform(0.1, 0.9))
            c = math.fsum(a**al * b ** (1 - al) for a, b in zip(m.masses, n.masses))
            bhat = float(cmbd(GEOMETRIC, ARITHMETIC, 1.0 - al, m, n))
            assert c == pytest.approx(math.exp(-bhat), rel=1e-12)
            assert alpha_divergence(al, m, n) == pytest.approx(
                (1.0 - c) / (al * (1.0 - al)), rel=1e-12
            )


class TestCauchy:
    def test_param_validation(self):
        with pytest.raises(ParamError):
            CauchyParam(-1.0)
        with pytest.raises(ParamError):
            cauchy_ha_closed_form(1.0, 3.0, 1.5)

    def test_identical_scales_zero(self):
        for al in (0.25, 0.5, 0.9):
            assert cauchy_ha_closed_form(2.0, 2.0, al) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_swap_symmetry(self, rng):
        for _ in range(30):
            s1, s2 = rng.uniform(0.3, 6.0, 2)
            al = float(rng.uniform(0.05, 0.95))
            assert cauchy_ha_closed_form(s1, s2, al) == pytest.approx(
                cauchy_ha_closed_form(s2, s1, 1.0 - al), rel=1e-12
            )

    def test_half_one_three_value(self):
        # adaptive-quadrature oracle puts the value at -log(sqrt(3)/2)
        assert cauchy_ha_closed_form(1.0, 3.0, 0.5) == pytest.approx(0.143841, abs=1e-5)

    def test_matches_quadrature_cmbd(self):
        got = float(cmbd(HARMONIC, ARITHMETIC, 0.5, cauchy_density(1.0), cauchy_density(3.0)))
        assert got == pytest.approx(cauchy_ha_closed_form(1.0, 3.0, 0.5), abs=1e-6)


class TestMeanGap:
    def test_zero_on_identical(self):
        assert mean_gap_distance(LOG, IDENTITY, P, P) == pytest.approx(0.0, abs=1e-12)

    def test_geometric_arithmetic_gap(self):
        want = 1.0 - (math.sqrt(0.45) + math.sqrt(0.05))
        assert mean_gap_distance(LOG, IDENTITY, P, Q) == pytest.approx(want, rel=1e-10)

    def test_symmetry(self, rng):
        for _ in range(20):
            m = DiscreteDist(tuple(rng.dirichlet(np.ones(4))))
            n = DiscreteDist(tuple(rng.dirichlet(np.ones(4))))
            assert mean_gap_distance(LOG, IDENTITY, m, n) == pytest.approx(
                mean_gap_distance(LOG, IDENTITY, n, m), rel=1e-12, abs=1e-12
            )

    def test_rejects_wrong_order(self):
        with pytest.raises(DominanceError):
            mean_gap_distance(IDENTITY, LOG, P, Q)  # exp <- wrong direction: log(id^-1) concave


class TestDensities:
    def test_histogram_matches_discrete(self):
        # piecewise-constant density over unit bins reproduces the discrete
        # cmbd for homogeneous means
        edges = (0.0, 1.0, 2.0)
        dp = histogram_density(edges, P.masses)
        dq = histogram_density(edges, Q.masses)
        pairs = [(GEOMETRIC, ARITHMETIC), (HARMONIC, ARITHMETIC), (ARITHMETIC, power(2))]
        for M, N in pairs:
            disc = float(cmbd(M, N, 0.3, P, Q))
            cont = float(cmbd(M, N, 0.3, dp, dq))
            assert cont == pytest.approx(disc, abs=1e-9)

    def test_normalization_check(self):
        with pytest.raises(WeightError):
            DensityModel(
                eval=lambda x: np.full_like(np.asarray(x, float), 0.4),
                support=Interval(0.0, 2.0),
                truncation=(0.0, 2.0),
            )

    def test_quadrature_failure_budget(self):
        with pytest.raises(QuadratureFailure):
            cauchy_density(1.0, QuadratureConfig(abs_tol=1e-13, max_depth=1))

    def test_mass_validation(self):
        with pytest.raises(WeightError):
            DiscreteDist((0.5, 0.1))
        with pytest.raises(WeightError):
            DiscreteDist(())


class TestOrderCheck:
    MISORDERED = [
        (ARITHMETIC, GEOMETRIC),
        (GEOMETRIC, HARMONIC),
        (power(2), power(-1)),
        (quasi_arithmetic(LOG), power(-0.5)),
        (lehmer(2), lehmer(1)),
        (lehmer(0), HARMONIC),
    ]

    def test_misordered_builtin_pairs_fail_without_sampling(self, monkeypatch):
        import cdt.bhattacharyya as bh

        def no_sampling(*args, **kwargs):
            raise AssertionError("built-in pairs must not be sampled")

        monkeypatch.setattr(bh, "dominates", no_sampling)
        for M, N in self.MISORDERED:
            with pytest.raises(DominanceError):
                cmbd(M, N, 0.5, P, Q)
            with pytest.raises(DominanceError):
                cmbd(M, N, 0.5, P, Q, trusted_dominance=True)
            assert float(cmbd(N, M, 0.5, P, Q)) >= 0.0

    def test_lehmer_minus_half_is_not_the_geometric_mean(self):
        # L_{-1/2} equals G only at alpha = 1/2, so the pair is sampled and
        # the order G <= L_{-1/2} fails at alpha = 0.1.
        p, q = DiscreteDist((0.7, 0.2, 0.1)), DiscreteDist((0.1, 0.3, 0.6))
        with pytest.raises(DominanceError):
            cmbd(GEOMETRIC, lehmer(-0.5), 0.1, p, q)
