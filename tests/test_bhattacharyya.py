import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from cdt.bhattacharyya import _mass_terms, _pair, _value_window
from cdt.divergences import _zero_floor, skew_jccd
from cdt.convexity import function_model
from cdt.expectations import qa_expected_value
from cdt.expr import expression_generator
from cdt.errors import (
    DomainError,
    DominanceError,
    KindMismatch,
    LengthMismatch,
    ParamError,
    QuadratureFailure,
    UnsupportedWeights,
    WeightError,
)
from cdt.generators import EXP, IDENTITY, LOG, RECIPROCAL, Interval, power_generator
from cdt.means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    gini,
    lehmer,
    power,
    quasi_arithmetic,
    stolarsky,
    weighted_means,
)
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
        # -log(c^M / c^N) is -0.0 when the coefficients are equal: +0.0 is returned
        for M, N in ((GEOMETRIC, ARITHMETIC), (HARMONIC, GEOMETRIC)):
            value = cmbd(M, N, 0.5, P, P)
            assert math.copysign(1.0, float(value)) == 1.0 and not value.clamped
        assert math.copysign(1.0, _zero_floor(-0.0)) == 1.0

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

    @pytest.mark.parametrize(
        "p, q",
        [(cauchy_density(1.0), cauchy_density(3.0)),
         (histogram_density((0.0, 1.0, 2.0, 3.0), (0.2, 0.5, 0.3)), histogram_density((0.0, 1.0, 2.0, 3.0), (0.6, 0.1, 0.3)))],
        ids=["cauchy", "histogram"],
    )
    def test_sampled_dominance_on_densities(self, p, q):
        # A <= qa:exp is no Gini order, so cmbd samples it on the window of
        # the density values; the reversed pair names the triple it found.
        E = quasi_arithmetic(EXP)
        assert float(cmbd(ARITHMETIC, E, 0.3, p, q)) >= 0.0
        with pytest.raises(DominanceError) as info:
            cmbd(E, ARITHMETIC, 0.3, p, q)
        found = re.fullmatch(r"sampling found qa:exp > qa:identity at \((.+), (.+), (.+)\); means are not ordered M <= N",
                             str(info.value))
        x, y, a = map(float, found.groups())
        lo, hi = _value_window(p, q)
        assert lo <= min(x, y) and max(x, y) <= hi and 0.0 < a < 1.0
        X, W = np.array([[x], [y]]), np.array([1.0 - a, a])
        assert weighted_means(E, X, W)[0] > weighted_means(ARITHMETIC, X, W)[0]

    def test_normalization_check(self):
        with pytest.raises(WeightError):
            DensityModel(
                eval=lambda x: np.full_like(np.asarray(x, float), 0.4),
                truncation=(0.0, 2.0),
            )

    def test_nan_density_value_is_reported_where_it_happens(self):
        # p is 0 on (1, 2], where q is NaN: the barycenter kernel must not see
        # a zero-argument column there and clear the NaN
        p = histogram_density((0.0, 1.0, 2.0), (1.0, 0.0))
        q = DensityModel(
            eval=lambda x: np.where(np.asarray(x, float) <= 1.5, 1.0 / 1.5, np.nan),
            truncation=(0.0, 2.0),
            normalized=False,
        )
        for M in (GEOMETRIC, ARITHMETIC, HARMONIC):
            with pytest.raises(DomainError, match="nonnegative and not NaN"):
                bhat_coefficient(M, 0.5, p, q)

    def test_scalar_only_densities_equal_their_array_twins(self):
        # Uniform and linear densities on [0, 2] whose eval takes one float,
        # against the same densities evaluated on arrays.  Lehmer below
        # arithmetic is checked by sampling over a window of density values.
        def twins(height):
            return (
                lambda x: height(x) if 0.0 <= x <= 2.0 else 0.0,
                lambda x: np.where((x >= 0.0) & (x <= 2.0), height(np.asarray(x, float)), 0.0),
            )

        (p, pa), (q, qa) = (
            [DensityModel(eval=f, truncation=(0.0, 2.0)) for f in twins(height)]
            for height in (lambda x: 0.5 + 0.0 * x, lambda x: 0.25 * (1.0 + x))
        )
        assert float(cmbd(lehmer(-0.3), ARITHMETIC, 0.5, p, q)) == float(cmbd(lehmer(-0.3), ARITHMETIC, 0.5, pa, qa))
        assert bhat_coefficient(GEOMETRIC, 0.3, p, q) == bhat_coefficient(GEOMETRIC, 0.3, pa, qa)
        assert qa_expected_value(EXP, q) == qa_expected_value(EXP, qa)
        # the normalization check: 0.4 on [0, 2] integrates to 0.8 either way
        messages = []
        for f in twins(lambda x: 0.4 + 0.0 * x):
            with pytest.raises(WeightError) as info:
                DensityModel(eval=f, truncation=(0.0, 2.0))
            messages.append(str(info.value))
        assert messages[0] == messages[1] and messages[0].startswith("density integrates to 0.7999999999999999 ")

    def test_quadrature_failure_budget(self):
        with pytest.raises(QuadratureFailure):
            cauchy_density(1.0, QuadratureConfig(abs_tol=1e-13, max_depth=1))

    def test_mass_validation(self):
        with pytest.raises(WeightError):
            DiscreteDist((0.5, 0.1))
        with pytest.raises(WeightError):
            DiscreteDist(())

    def test_non_finite_masses_and_edges_are_rejected(self):
        # A NaN passes every comparison check, and the support mask a > 0
        # would drop it silently.
        with pytest.raises(DomainError, match=r"^masses\[0\] = nan is not finite$"):
            DiscreteDist((math.nan, 1.0))
        with pytest.raises(DomainError, match=r"^masses\[1\] = inf is not finite$"):
            DiscreteDist((0.5, math.inf, math.nan), normalized=False)
        with pytest.raises(DomainError, match=r"^masses\[0\] = nan is not finite$"):
            histogram_density((0.0, 1.0, 2.0), (math.nan, 1.0))
        with pytest.raises(DomainError, match=r"^edges\[1\] = nan is not finite$"):
            histogram_density((0.0, math.nan, 2.0), (0.5, 0.5))
        with pytest.raises(DomainError, match=r"^edges\[2\] = -inf is not finite$"):
            histogram_density((0.0, 1.0, -math.inf), (0.5, 0.5))

    def test_non_finite_values_are_rejected(self):
        # A NaN grid would compare unequal to itself, so two equal grids
        # would raise KindMismatch.
        with pytest.raises(DomainError, match=r"^values\[0\] = nan is not finite$"):
            DiscreteDist((0.5, 0.5), values=(math.nan, 1.0))
        with pytest.raises(DomainError, match=r"^values\[1\] = inf is not finite$"):
            DiscreteDist((0.5, 0.5), values=(0.0, math.inf))

    def test_a_sum_past_the_float_range_raises_domain_error(self):
        with pytest.raises(DomainError, match="overflow past the float range"):
            DiscreteDist((1e308, 1e308))
        P = DiscreteDist((1e308, 1e308), normalized=False)
        with pytest.raises(DomainError, match="overflow past the float range"):
            bhat_coefficient(ARITHMETIC, 0.5, P, P)
        with pytest.raises(DomainError, match="overflow past the float range"):
            cmbd(GEOMETRIC, ARITHMETIC, 0.5, P, P)


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

    def test_componentwise_ordered_gini_pairs_are_decided_without_sampling(self, monkeypatch):
        # G_{r,s} <= G_{r',s'} when r <= r' and s <= s', with each pair of
        # orders in decreasing order: every other Gini pair is sampled.
        import cdt.bhattacharyya as bh

        def no_sampling(*args, **kwargs):
            raise AssertionError("componentwise-ordered Gini pairs must not be sampled")

        monkeypatch.setattr(bh, "dominates", no_sampling)
        p, q = DiscreteDist((0.7, 0.2, 0.1, 0.0)), DiscreteDist((0.1, 0.3, 0.4, 0.2))
        family = [M for M in WEIGHTED if M.gini_orders is not None] + [power(1)]
        decided = []
        for M, N in itertools.product(family, repeat=2):
            (r, s), (r2, s2) = sorted(M.gini_orders, reverse=True), sorted(N.gini_orders, reverse=True)
            if not (r <= r2 and s <= s2):
                continue
            decided.append((str(M), str(N)))
            assert not cmbd(M, N, 0.3, p, q).clamped, (M, N)  # c^M <= c^N, as the theorem says
            if (r, s) == (r2, s2):
                assert float(cmbd(N, M, 0.3, p, q)) == 0.0
            else:
                with pytest.raises(DominanceError):
                    cmbd(N, M, 0.3, p, q)
        named = {("lehmer:-0.3", "qa:identity"), ("gini:1:1", "gini:2:1"), ("lehmer:0", "power:1")}
        assert named <= set(decided) and len(decided) > 200

    def test_lehmer_minus_half_is_not_the_geometric_mean(self):
        # L_{-1/2} equals G only at alpha = 1/2, so the pair is sampled and
        # the order G <= L_{-1/2} fails at alpha = 0.1.
        p, q = DiscreteDist((0.7, 0.2, 0.1)), DiscreteDist((0.1, 0.3, 0.6))
        with pytest.raises(DominanceError):
            cmbd(GEOMETRIC, lehmer(-0.5), 0.1, p, q)


# ------------------------------------- sparse discrete coefficients, differential

#: Every weighted family: power orders < 0, 0, fractional and > 1 (also as
#: quasi-arithmetic means and Lehmer means of order 0 and -1), Lehmer of
#: both signs, Gini with equal and unequal orders, and a generator that is
#: not a power.
WEIGHTED = [
    power(-2.5), HARMONIC, GEOMETRIC, power(0.0), power(0.5), ARITHMETIC, power(3.0),
    quasi_arithmetic(power_generator(1.5)), quasi_arithmetic(RECIPROCAL), lehmer(0), lehmer(-1),
    lehmer(-0.3), lehmer(0.5), lehmer(2.0), gini(1, 1), gini(-0.5, -0.5), gini(0, 0), gini(2, 1),
    gini(0.5, -1), gini(1, 0), quasi_arithmetic(EXP),
]

MASS = st.one_of(
    st.just(0.0),
    st.floats(1e-300, 1.0),
    st.builds(lambda m, k: m * 10.0**k, st.floats(0.1, 1.0), st.integers(-300, 0)),
)
ALPHA = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def mass_pairs(draw):
    n = draw(st.integers(1, 25))
    a, b = (np.array(draw(st.lists(MASS, min_size=n, max_size=n))) for _ in range(2))
    if draw(st.booleans()):  # normalized
        assume(a.sum() > 0.0 and b.sum() > 0.0)
        a, b = a / math.fsum(a.tolist()), b / math.fsum(b.tolist())
        assume(abs(math.fsum(a.tolist()) - 1.0) <= 1e-9 and abs(math.fsum(b.tolist()) - 1.0) <= 1e-9)
        return DiscreteDist(tuple(a)), DiscreteDist(tuple(b))
    return DiscreteDist(tuple(a), normalized=False), DiscreteDist(tuple(b), normalized=False)


def _outcome(fn):
    """fn()'s value, or the class and message of its error."""
    try:
        return float(fn()).hex()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def dense_coefficient(M, alpha, p, q):
    X = np.array((p.masses, q.masses))
    return math.fsum(weighted_means(M, X, (1.0 - alpha, alpha)).tolist())


@settings(deadline=None, max_examples=300)
@given(pair=mass_pairs(), M=st.sampled_from(WEIGHTED), alpha=ALPHA)
def test_sparse_coefficient_equals_the_dense_sum_bit_for_bit(pair, M, alpha):
    p, q = pair
    assert _outcome(lambda: bhat_coefficient(M, alpha, p, q)) == _outcome(lambda: dense_coefficient(M, alpha, p, q))
    # Term by term as well, which a sum of many terms would round away: the
    # joint support, then the bins where only p, then only q is positive.
    a, b = p.array, q.array
    order = np.concatenate([np.flatnonzero(m) for m in ((a > 0) & (b > 0), (a > 0) & (b == 0), (a == 0) & (b > 0))])
    try:
        dense = weighted_means(M, np.array((a, b)), (1.0 - alpha, alpha))
    except DomainError:
        return
    assert np.array_equal(_mass_terms(M, alpha, _pair(a, b)), dense[order])
    if M.scales_out:
        # The identity by which a coefficient takes its one-sided terms from
        # the unit values alone.
        u = weighted_means(M, np.eye(2), (1.0 - alpha, alpha))
        only_a, only_b = (a > 0) & (b == 0), (a == 0) & (b > 0)
        assert np.array_equal(dense[only_a], a[only_a] * u[0]) and np.array_equal(dense[only_b], b[only_b] * u[1])


GAP_PAIRS = [(LOG, IDENTITY), (RECIPROCAL, LOG), (IDENTITY, EXP), (power_generator(-0.5), power_generator(2))]


@settings(deadline=None, max_examples=40)
@given(pair=mass_pairs(), gens=st.sampled_from(GAP_PAIRS))
def test_sparse_mean_gap_equals_the_dense_sum_bit_for_bit(pair, gens):
    (p, q), (f, g) = pair, gens
    X = np.array((p.masses, q.masses))
    gap = weighted_means(quasi_arithmetic(g), X, (0.5, 0.5)) - weighted_means(quasi_arithmetic(f), X, (0.5, 0.5))
    want = _outcome(lambda: _zero_floor(math.fsum(gap.tolist())))
    assert _outcome(lambda: mean_gap_distance(f, g, p, q)) == want


class TestSparseSupport:
    DISJOINT = DiscreteDist((0.5, 0.5, 0.0, 0.0)), DiscreteDist((0.0, 0.0, 0.3, 0.7))
    SAME = DiscreteDist((0.2, 0.0, 0.8, 0.0)), DiscreteDist((0.6, 0.0, 0.4, 0.0))

    def test_disjoint_supports_are_mutually_singular(self):
        p, q = self.DISJOINT
        for M in WEIGHTED:
            assert bhat_coefficient(M, 0.3, p, q) == dense_coefficient(M, 0.3, p, q)
        assert bhat_coefficient(GEOMETRIC, 0.3, p, q) == 0.0
        with pytest.raises(DomainError, match="mutually singular"):
            cmbd(GEOMETRIC, ARITHMETIC, 0.3, p, q)

    def test_identical_supports(self):
        p, q = self.SAME
        for M in WEIGHTED:
            assert bhat_coefficient(M, 0.3, p, q) == dense_coefficient(M, 0.3, p, q)
        assert bhat_coefficient(GEOMETRIC, 0.5, p, q) == pytest.approx(math.sqrt(0.12) + math.sqrt(0.32), rel=1e-15)
        assert float(cmbd(GEOMETRIC, ARITHMETIC, 0.4, p, p)) == pytest.approx(0.0, abs=1e-15)

    def test_single_bin(self):
        one = DiscreteDist((1.0,))
        for M in WEIGHTED:
            assert bhat_coefficient(M, 0.3, one, one) == 1.0
        assert float(cmbd(HARMONIC, ARITHMETIC, 0.3, one, one)) == 0.0

    def test_a_generator_undefined_at_zero_still_raises(self):
        # Both-zero bins are left out of the sum, but a kernel that cannot
        # take a zero still sees one.
        cube = quasi_arithmetic(expression_generator("x^3+x", (0.1, 5)))
        p, q = DiscreteDist((0.5, 0.5, 0.0)), DiscreteDist((0.5, 0.5, 0.0))
        with pytest.raises(DomainError, match="outside the domain"):
            dense_coefficient(cube, 0.5, p, q)
        with pytest.raises(DomainError, match="outside the domain"):
            bhat_coefficient(cube, 0.5, p, q)

    @pytest.mark.parametrize("M", [ARITHMETIC, GEOMETRIC, power(2), quasi_arithmetic(RECIPROCAL), lehmer(-1), gini(1, 1), gini(2, -1)])
    def test_one_kernel_call_over_the_joint_support_and_two_unit_columns(self, monkeypatch, M):
        import cdt.bhattacharyya as bh

        shapes = []

        def counted(spec, X, W):
            shapes.append(np.shape(X))
            return weighted_means(spec, X, W)

        monkeypatch.setattr(bh, "weighted_means", counted)
        p = DiscreteDist((0.1, 0.0, 0.3, 0.0, 0.2, 0.4))
        q = DiscreteDist((0.3, 0.2, 0.0, 0.0, 0.1, 0.4))  # joint support: bins 0, 4 and 5
        bhat_coefficient(M, 0.3, p, q)
        assert shapes == [(2, 3 + 2)]
        shapes.clear()
        bhat_coefficient(M, 0.3, *self.DISJOINT)
        assert shapes == [(2, 2)]

    @pytest.mark.parametrize("M", [GEOMETRIC, HARMONIC, power(-2)])
    def test_means_vanishing_at_zero_give_positive_zero_on_disjoint_supports(self, M):
        # M(1, 0) = M(0, 1) = +0.0: both one-sided blocks leave the sum,
        # which is then the sum of no terms.
        c = bhat_coefficient(M, 0.3, *self.DISJOINT)
        assert c == 0.0 and math.copysign(1.0, c) == 1.0


def sparse_pair(rng, n=3000):
    """Two 30%-empty mass arrays on n bins, past the length where
    ``_exact_sum`` stops deferring to fsum."""
    p, q = (np.where(rng.random(n) < 0.3, 0.0, rng.gamma(0.5, 1.0, n)) for _ in range(2))
    return DiscreteDist(tuple(p / p.sum()), normalized=False), DiscreteDist(tuple(q / q.sum()), normalized=False)


def _dense_terms(M, alpha, a, b):
    """The kernel over every bin, in ``_mass_terms``' order."""
    order = np.concatenate([np.flatnonzero(m) for m in ((a > 0) & (b > 0), (a > 0) & (b == 0), (a == 0) & (b > 0))])
    return weighted_means(M, np.array((a, b)), (1.0 - alpha, alpha))[order]


class TestPairMemo:
    MEANS = [GEOMETRIC, HARMONIC, power(-2), power(2), ARITHMETIC, lehmer(-0.3), gini(1, 1)]

    def test_interleaved_pairs_equal_the_dense_sum_bit_for_bit(self):
        rng = np.random.default_rng(5)
        P1, Q1 = sparse_pair(rng)
        Q2 = sparse_pair(rng)[0]
        for p, q in ((P1, Q1), (Q1, P1), (P1, Q2), (P1, Q1)):
            for M in self.MEANS:
                assert bhat_coefficient(M, 0.35, p, q).hex() == dense_coefficient(M, 0.35, p, q).hex()
                assert np.array_equal(_mass_terms(M, 0.35, _pair(p.array, q.array)), _dense_terms(M, 0.35, p.array, q.array))
            for f, g in GAP_PAIRS:
                X = np.array((p.array, q.array))
                gap = weighted_means(quasi_arithmetic(g), X, (0.5, 0.5)) - weighted_means(quasi_arithmetic(f), X, (0.5, 0.5))
                assert mean_gap_distance(f, g, p, q).hex() == _zero_floor(math.fsum(gap.tolist())).hex()

    def test_writeable_arrays_are_never_memoized(self):
        import cdt.bhattacharyya as bh

        a, b = np.array((0.5, 0.0, 0.5)), np.array((0.2, 0.8, 0.0))
        first = _mass_terms(GEOMETRIC, 0.5, _pair(a, b))
        assert bh._memo[0] is not a and bh._memo[1] is not b
        a[1] = 0.5  # the same array objects, with a new joint bin
        assert np.array_equal(_mass_terms(GEOMETRIC, 0.5, _pair(a, b)), _dense_terms(GEOMETRIC, 0.5, a, b))
        assert len(first) == 3 and bh._memo[0] is not a
        # A read-only view of a writeable array does not own its data.
        view = a[:]
        view.flags.writeable = False
        _pair(view, view)
        assert bh._memo[0] is not view

    def test_memoized_arrays_are_read_only(self):
        import cdt.bhattacharyya as bh

        p, q = TestSparseSupport.SAME
        parts = bh._pair(p.array, q.array)
        assert bh._memo == (p.array, q.array, parts) and bh._pair(p.array, q.array) is parts
        # One array: the unit columns, joint bins 0 and 2, and bin 1, zero in both.
        assert (parts.joint, parts.only_a, parts.terms) == (2, 0, 2)
        assert parts.cols.tolist() == [[1.0, 0.0, 0.2, 0.8, 0.0], [0.0, 1.0, 0.6, 0.4, 0.0]]
        with pytest.raises(ValueError):
            parts.cols[0, 0] = 1.0

    def test_threads_on_two_pairs_agree_with_serial_results(self):
        import sys
        import threading

        # The pairs share p, so a memo torn between its entries would hand
        # one pair's partition to the other.
        rng = np.random.default_rng(6)
        (p, q1), q2 = sparse_pair(rng, 40), sparse_pair(rng, 40)[0]
        pairs = [(p, q1), (p, q2)]
        want = [[bhat_coefficient(M, 0.4, *pair) for M in self.MEANS] for pair in pairs]
        got, errors = [[] for _ in range(4)], []

        def work(i):
            try:
                for _ in range(150):
                    got[i].append([bhat_coefficient(M, 0.4, *pairs[i % 2]) for M in self.MEANS])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert got == [[want[i % 2]] * 150 for i in range(4)]


class TestVanishingMass:
    Z = DiscreteDist((0.0, 0.0), normalized=False)

    def test_sampled_dominance_without_positive_mass(self):
        with pytest.raises(DomainError, match="no positive mass"):
            cmbd(ARITHMETIC, quasi_arithmetic(EXP), 0.5, self.Z, self.Z)

    def test_sampled_dominance_on_mixed_operands(self):
        with pytest.raises(KindMismatch):
            cmbd(ARITHMETIC, quasi_arithmetic(EXP), 0.5, P, cauchy_density(1.0))
        with pytest.raises(LengthMismatch):
            cmbd(ARITHMETIC, quasi_arithmetic(EXP), 0.5, P, DiscreteDist((0.2, 0.3, 0.5)))

    def test_power_cmbd_of_a_vanished_coefficient(self):
        with pytest.raises(DomainError, match="affinity coefficient vanished"):
            power_cmbd(2.0, -1.0, 0.5, self.Z, self.Z)  # c2 = 0
        with pytest.raises(DomainError, match="affinity coefficient vanished"):
            power_cmbd(-1.0, 2.0, 0.5, *TestSparseSupport.DISJOINT)  # c1 = 0

    @pytest.mark.parametrize("normalize", [False, True])
    def test_expected_value_of_no_mass(self, normalize):
        z = DiscreteDist((0.0, 0.0), values=(1.0, 2.0), normalized=False)
        with pytest.raises(DomainError, match="positive total mass"):
            qa_expected_value(LOG, z, normalize=normalize)

    def test_normalized_expected_value_of_a_zero_density(self):
        zero = DensityModel(eval=lambda x: 0.0 * np.asarray(x), truncation=(1.0, 2.0), normalized=False)
        with pytest.raises(DomainError, match="positive total mass"):
            qa_expected_value(LOG, zero, normalize=True)


class TestMassArray:
    def test_read_only_and_equal_to_the_masses(self):
        d = DiscreteDist((0.25, 0.0, 0.75))
        assert d.array.dtype == np.float64
        assert d.array.tolist() == list(d.masses)
        with pytest.raises(ValueError):
            d.array[0] = 0.5

    def test_left_out_of_eq_hash_and_repr(self):
        a, b = DiscreteDist((0.25, 0.75)), DiscreteDist([0.25, 0.75])
        assert a == b and hash(a) == hash(b) and a.array is not b.array
        assert repr(a) == "DiscreteDist(masses=(0.25, 0.75), values=None, normalized=True)"
        assert a != DiscreteDist((0.75, 0.25))

    def test_replace_rebuilds_it(self):
        d = dataclasses.replace(DiscreteDist((0.25, 0.75)), masses=(0.5, 0.5))
        assert d.array.tolist() == [0.5, 0.5] and not d.array.flags.writeable
        with pytest.raises(WeightError):
            dataclasses.replace(d, masses=(0.5, 0.6))


# ------------------------------------------- edges that no other test reaches


def _uniform_pdf(x):
    return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: DiscreteDist((1.5, -0.5)), DomainError, "masses must be nonnegative"),
        (lambda: DiscreteDist((0.5, 0.5), values=(1.0,)), LengthMismatch, "values and masses differ in length"),
        (lambda: DensityModel(_uniform_pdf, truncation=(1.0, 1.0)), DomainError, "finite and ordered"),
        (lambda: DensityModel(_uniform_pdf, truncation=(-math.inf, 1.0)), DomainError, "finite and ordered"),
        (lambda: histogram_density((0.0, 1.0), (0.5, 0.5)), LengthMismatch, r"len\(edges\) == len\(masses\) \+ 1"),
        (lambda: histogram_density((0.0, 1.0, 1.0), (0.5, 0.5)), DomainError, "edges must be strictly increasing"),
        (lambda: histogram_density((0.0, 1.0, 2.0), (1.5, -0.5)), DomainError, "masses must be nonnegative"),
        (lambda: alpha_divergence(1.0, DiscreteDist((1.0,)), DiscreteDist((1.0,))), ParamError, r"alpha=1.0 outside \(0, 1\)"),
    ],
)
def test_malformed_inputs_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestUnnormalizedAlphaDivergence:
    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_equal_measures_are_at_zero(self, alpha):
        P = DiscreteDist((1.0, 1.0), normalized=False)
        assert alpha_divergence(alpha, P, P) == 0.0

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.7])
    def test_amari_positive_measure_form(self, alpha):
        p, q = np.array([0.5, 2.0, 0.0, 1.0]), np.array([0.4, 0.1, 0.3, 0.2])
        P, Q = DiscreteDist(tuple(p), normalized=False), DiscreteDist(tuple(q))
        want = math.fsum(alpha * p + (1.0 - alpha) * q - p**alpha * q ** (1.0 - alpha)) / (alpha * (1.0 - alpha))
        assert alpha_divergence(alpha, P, Q) == pytest.approx(want, rel=1e-12)
        assert want > 0.0

    def test_unnormalized_densities(self):
        P = DensityModel(lambda x: np.where(np.abs(x - 1.0) <= 1.0, 1.0, 0.0), (0.0, 2.0), normalized=False)
        Q = histogram_density((0.0, 1.0, 2.0), (0.5, 0.5))
        alpha = 0.4
        want = (alpha * 2.0 + (1.0 - alpha) * 1.0 - 2.0 * 1.0**alpha * 0.5 ** (1.0 - alpha)) / (alpha * (1.0 - alpha))
        assert alpha_divergence(alpha, P, Q) == pytest.approx(want, rel=1e-9)


def test_mean_gap_distance_of_densities_integrates_the_gap():
    edges = (1.0, 2.0, 3.0, 4.0)
    pm, qm = np.array([0.2, 0.5, 0.3]), np.array([0.6, 0.1, 0.3])
    P, Q = histogram_density(edges, tuple(pm)), histogram_density(edges, tuple(qm))
    # unit-width bins: the density values are the masses, and the gap is constant on each bin
    want = math.fsum(0.5 * (pm + qm) - np.sqrt(pm * qm))
    assert mean_gap_distance(LOG, IDENTITY, P, Q) == pytest.approx(want, abs=1e-12)
