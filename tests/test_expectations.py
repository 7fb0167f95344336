import dataclasses
import math
import warnings

import numpy as np
import pytest

from cdt.bhattacharyya import DensityModel, DiscreteDist, histogram_density
from cdt.errors import DomainError, KindMismatch, QuadratureFailure
from cdt.expectations import qa_expected_value, qa_mean
from cdt.generators import EXP, IDENTITY, LOG, RECIPROCAL, power_generator
from cdt.means import quasi_arithmetic, weighted_mean
from cdt.quadrature import QuadratureConfig, integrate


def _counted(f):
    """f, recording the number of points of each call."""

    def g(x):
        g.sizes.append(np.size(x))
        return f(x)

    g.sizes = []
    return g


class TestQaMean:
    def test_geometric_triple(self):
        assert qa_mean(LOG, (1, 4, 16)) == pytest.approx(4.0, rel=1e-12)

    def test_reflexivity(self):
        assert qa_mean(LOG, (3.3, 3.3, 3.3)) == pytest.approx(3.3, rel=1e-12)

    def test_permutation_invariance(self, rng):
        xs = list(rng.uniform(0.2, 9.0, 7))
        perm = list(rng.permutation(xs))
        for gen in (IDENTITY, LOG, RECIPROCAL, power_generator(3)):
            assert qa_mean(gen, xs) == pytest.approx(qa_mean(gen, perm), rel=1e-12)

    def test_monotone_in_each_argument(self, rng):
        for gen in (IDENTITY, LOG, RECIPROCAL):
            xs = list(rng.uniform(0.5, 5.0, 5))
            base = qa_mean(gen, xs)
            for i in range(len(xs)):
                bumped = list(xs)
                bumped[i] += 0.25
                assert qa_mean(gen, bumped) > base

    def test_associativity_on_partition(self, rng):
        # replacing a prefix by its own mean (repeated) leaves the mean fixed
        for gen in (IDENTITY, LOG, power_generator(2)):
            xs = list(rng.uniform(0.3, 7.0, 6))
            for i in (2, 4):
                m_prefix = qa_mean(gen, xs[:i])
                replaced = [m_prefix] * i + xs[i:]
                assert qa_mean(gen, replaced) == pytest.approx(qa_mean(gen, xs), rel=1e-10)

    def test_empty(self):
        with pytest.raises(DomainError):
            qa_mean(LOG, ())


class TestQaExpectedValue:
    def test_identity_is_plain_expectation(self):
        d = DiscreteDist((0.25, 0.75), values=(2.0, 6.0))
        assert qa_expected_value(IDENTITY, d) == pytest.approx(5.0, rel=1e-12)

    def test_geometric_two_point(self):
        d = DiscreteDist((0.5, 0.5), values=(1.0, 4.0))
        assert qa_expected_value(LOG, d) == pytest.approx(2.0, rel=1e-12)

    def test_harmonic_two_point(self):
        d = DiscreteDist((0.5, 0.5), values=(2.0, 6.0))
        assert qa_expected_value(RECIPROCAL, d) == pytest.approx(3.0, rel=1e-12)

    def test_uniform_grid_coincides_with_sample_mean(self, rng):
        xs = tuple(sorted(rng.uniform(0.5, 9.0, 6)))
        d = DiscreteDist((1.0 / 6,) * 6, values=xs)
        for gen in (IDENTITY, LOG, RECIPROCAL, power_generator(2)):
            assert qa_expected_value(gen, d) == pytest.approx(qa_mean(gen, xs), rel=1e-12)

    def test_innerness(self, rng):
        for _ in range(50):
            xs = tuple(rng.uniform(0.5, 9.0, 5))
            w = rng.dirichlet(np.ones(5))
            d = DiscreteDist(tuple(w), values=xs)
            v = qa_expected_value(IDENTITY, d)
            assert min(xs) <= v <= max(xs)

    def test_geometric_below_arithmetic(self, rng):
        for _ in range(50):
            xs = tuple(rng.uniform(0.2, 9.0, 5))
            w = rng.dirichlet(np.ones(5))
            d = DiscreteDist(tuple(w), values=xs)
            assert qa_expected_value(LOG, d) <= qa_expected_value(IDENTITY, d) + 1e-12

    @pytest.mark.parametrize("gen", [LOG, RECIPROCAL, EXP, IDENTITY])
    def test_a_grid_gives_the_weighted_mean_bit_for_bit(self, gen):
        rng = np.random.default_rng(2111)
        for _ in range(100):
            n = int(rng.integers(2, 401))
            xs, w = rng.uniform(0.1, 10.0, n), rng.dirichlet(np.ones(n))
            d = DiscreteDist(tuple(w), values=tuple(xs))
            assert qa_expected_value(gen, d).hex() == weighted_mean(quasi_arithmetic(gen), xs, w).hex()

    def test_an_unnormalized_grid_gives_the_inverse_of_its_moment(self):
        # f^{-1}(sum w f(x)) at total mass 0.6, which no mean of the grid gives
        d = DiscreteDist((0.3, 0.3), values=(1.0, 4.0), normalized=False)
        assert qa_expected_value(LOG, d) == pytest.approx(4.0**0.3, rel=1e-14)
        assert qa_expected_value(power_generator(2), d) == pytest.approx(math.sqrt(5.1), rel=1e-14)
        assert qa_expected_value(RECIPROCAL, d) == pytest.approx(1.0 / 0.375, rel=1e-14)

    def test_an_overflowing_moment_is_refused_as_by_weighted_mean(self):
        # exp(1000) overflows: the expected value, about 999.31, has no finite
        # f-moment, so it is refused rather than clamped to the grid's end
        d = DiscreteDist((0.5, 0.5), values=(1.0, 1000.0))
        for call in (lambda: qa_expected_value(EXP, d), lambda: weighted_mean(quasi_arithmetic(EXP), d.values, d.masses)):
            with pytest.raises(DomainError, match="qa:exp mean is not finite"):
                call()

    def test_requires_value_grid(self):
        with pytest.raises(DomainError):
            qa_expected_value(LOG, DiscreteDist((0.5, 0.5)))

    def test_density_variant(self):
        # uniform density on (1, 3): E[X] = 2, geometric mean = exp(E log X)
        dens = histogram_density((1.0, 3.0), (1.0,))
        assert qa_expected_value(IDENTITY, dens) == pytest.approx(2.0, abs=1e-8)
        want_geo = math.exp((3 * math.log(3) - 1 * math.log(1) - 2) / 2.0)
        assert qa_expected_value(LOG, dens) == pytest.approx(want_geo, abs=1e-8)

    def test_unnormalized_with_normalize_flag(self):
        d = DiscreteDist((0.5, 0.5, 0.5, 0.5), values=(1.0, 2.0, 3.0, 4.0), normalized=False)
        assert qa_expected_value(IDENTITY, d, normalize=True) == pytest.approx(2.5, rel=1e-12)

    def test_a_density_without_mass_raises_unless_normalized(self):
        # Zero on [1, 2]: its LOG moment is 0, whose inverse 1.0 is no
        # expected value of anything.
        zero = DensityModel(eval=lambda x: 0.0 * np.asarray(x), truncation=(1.0, 2.0), normalized=False)
        with pytest.raises(DomainError, match="positive total mass"):
            qa_expected_value(LOG, zero)

    def test_an_unnormalized_measure_stays_inside_its_support(self):
        # Mass 2 on [1, 2]: the identity moment is 3, past the support, and
        # both kinds clamp it to the upper end alike.
        dens = DensityModel(eval=lambda x: 2.0 + 0.0 * np.asarray(x), truncation=(1.0, 2.0), normalized=False)
        grid = DiscreteDist((1.0, 1.0), values=(1.0, 2.0), normalized=False)
        assert qa_expected_value(IDENTITY, dens) == qa_expected_value(IDENTITY, grid) == 2.0
        assert qa_expected_value(IDENTITY, dens, normalize=True) == pytest.approx(1.5, abs=1e-12)

    def test_a_normalized_density_integrates_its_mass_only_when_asked(self, monkeypatch):
        import cdt.expectations as ex

        # One joint integral of the moment, with the mass only when asked.
        components = []

        def recorded(shared, kernels, *args):
            components.append(len(kernels))
            return ex_integrals(shared, kernels, *args)

        ex_integrals = ex._integrals
        monkeypatch.setattr(ex, "_integrals", recorded)
        dens = histogram_density((1.0, 2.0, 4.0), (0.25, 0.75))
        # The moment and the mass are both accepted on the two bins at depth
        # 0: the one pass evaluates the density in one call, as the moment
        # alone does, where an integral of the mass alone would call it again.
        moment = _counted(lambda x: dens.eval(x) * LOG.forward(x))
        integrate(moment, *dens.truncation, dens.quadrature, dens.breakpoints)
        assert moment.sizes == [30]
        counted = _counted(dens.eval)
        dens = dataclasses.replace(dens, eval=counted)
        for normalize, want in ((False, [1]), (True, [1, 2])):
            counted.sizes.clear()
            qa_expected_value(LOG, dens, normalize=normalize)
            assert counted.sizes == moment.sizes and components == want

    def test_the_moment_alone_ignores_the_densitys_floating_point_warnings(self):
        # The density overflows on the way to its value: the moment taken
        # alone gives the value of a quiet twin, and the mass raises the
        # overflow from the joint pass's second batch of points.
        def loud(x):
            return np.minimum(np.full(np.shape(x), 1e308) * 10.0, 0.25)

        with np.errstate(over="ignore"):
            dens = DensityModel(eval=loud, truncation=(1.0, 5.0))
        quiet = DensityModel(eval=lambda x: np.full(np.shape(x), 0.25), truncation=(1.0, 5.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert qa_expected_value(LOG, dens) == qa_expected_value(LOG, quiet)
            with pytest.raises(RuntimeWarning, match="overflow"):
                qa_expected_value(LOG, dens, normalize=True)


def _alone(f, dens):
    """The f-moment and the total mass of dens as two ``integrate`` calls."""
    args = (*dens.truncation, dens.quadrature, dens.breakpoints)
    with np.errstate(all="ignore"):
        moment = integrate(lambda x: np.asarray(dens.eval(x), dtype=float) * f.forward(x), *args)
    return moment, integrate(dens.eval, *args)


NORMALIZED_CASES = {
    "histogram, log": (LOG, lambda: histogram_density(np.geomspace(0.5, 8.0, 41),
                                                      np.random.default_rng(7).dirichlet(np.ones(40)))),
    "histogram, reciprocal": (RECIPROCAL, lambda: histogram_density((1.0, 2.0, 4.0), (0.25, 0.75))),
    "unnormalized 1/x, log, 1e-12": (LOG, lambda: DensityModel(
        eval=lambda x: 1.0 / np.asarray(x), truncation=(0.01, 1.0),
        quadrature=QuadratureConfig(abs_tol=1e-12), normalized=False)),
    "unnormalized 2 + sin, identity": (IDENTITY, lambda: DensityModel(
        eval=lambda x: 2.0 + np.sin(7.0 * np.asarray(x)), truncation=(-1.0, 3.0), normalized=False)),
}


@pytest.mark.parametrize("case", list(NORMALIZED_CASES))
def test_moment_and_mass_in_one_pass_equal_two_integrals(case):
    f, build = NORMALIZED_CASES[case]
    dens = build()
    moment, total = _alone(f, dens)
    lo, hi = dens.truncation
    assert qa_expected_value(f, dens, normalize=True) == min(max(f.inv(moment / total), lo), hi)
    if not dens.normalized:
        assert qa_expected_value(f, dens) == min(max(f.inv(moment), lo), hi)


def test_moment_and_mass_of_one_pass_refine_to_different_depths():
    # 1/x at abs_tol 1e-12: log(x)/x and 1/x split [0.01, 1] unequally,
    # so the joint pass must refine each only where its own run does
    dens = NORMALIZED_CASES["unnormalized 1/x, log, 1e-12"][1]()
    sizes = []
    for g in (lambda x: dens.eval(x) * LOG.forward(x), dens.eval):
        h = _counted(g)
        integrate(h, *dens.truncation, dens.quadrature)
        sizes.append(sum(h.sizes))
    assert sizes[0] != sizes[1]


def test_the_moment_error_comes_before_the_mass_error():
    # 1 then 2 past 1.3: both integrands jump inside [1, 2] and fail at
    # depth 3 with different ratios; the moment's failure is the one raised
    cfg = QuadratureConfig(max_depth=3)
    dens = DensityModel(eval=lambda x: np.where(np.asarray(x) < 1.3, 1.0, 2.0), truncation=(1.0, 2.0),
                        quadrature=cfg, normalized=False)
    errors = []
    for g in (lambda x: dens.eval(x) * LOG.forward(x), dens.eval):
        with pytest.raises(QuadratureFailure) as info:
            integrate(g, 1.0, 2.0, cfg)
        errors.append(str(info.value))
    assert errors[0] != errors[1]
    for normalize in (True, False):
        with pytest.raises(QuadratureFailure) as info:
            qa_expected_value(LOG, dens, normalize=normalize)
        assert str(info.value) == errors[0]


@pytest.mark.parametrize(
    "dist, error, message",
    [
        (histogram_density((-1.0, 0.0, 1.0), (0.5, 0.5)), DomainError, r"support \[-1.0, 1.0\] is not inside the domain"),
        ((0.5, 0.5), KindMismatch, "unsupported distribution type tuple"),
    ],
)
def test_unsupported_inputs_are_refused(dist, error, message):
    with pytest.raises(error, match=message):
        qa_expected_value(LOG, dist)
