import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import mp

from cdt import bhattacharyya, expectations
from cdt.bhattacharyya import (
    DensityModel,
    _coefficients,
    _density_values,
    _merged_quadrature,
    bhat_coefficient,
    cauchy_density,
    cauchy_ha_closed_form,
    cmbd,
    histogram_density,
    power_cmbd,
)
from cdt.cli import main
from cdt.divergences import DivergenceValue, _zero_floor
from cdt.errors import DomainError, ParamError, QuadratureFailure
from cdt.expectations import qa_expected_value
from cdt.expr import expression_model
from cdt.generators import LOG, RECIPROCAL
from cdt.means import ARITHMETIC, GEOMETRIC, HARMONIC, power, weighted_means
from cdt.quadrature import (
    _MAX_ACTIVE,
    _WG,
    _WK,
    _XK,
    QuadratureConfig,
    _integrals,
    gauss_kronrod,
    integrate,
)


def _counted(f):
    """f, counting its calls and recording the number of points of each."""

    def g(x):
        g.calls += 1
        g.sizes.append(np.size(x))
        return f(x)

    g.calls = 0
    g.sizes = []
    return g


def test_histogram_integral_probes_once():
    # 200 constant panels: one call at the 15 Kronrod nodes of all panels at
    # once, which accepts them all; no probe before it.
    edges = np.linspace(-2.0, 3.0, 201)
    masses = np.random.default_rng(5).dirichlet(np.ones(200))
    h = histogram_density(edges, masses)
    f = _counted(lambda x: h.eval(x) ** 2)
    got = integrate(f, *h.truncation, h.quadrature, h.breakpoints)
    assert got == 0.35679801523730764 == math.fsum((masses**2 / np.diff(edges)).tolist())
    assert f.calls == 1


def _counted_density(d):
    """d with its eval counted as ``_counted`` counts, from after its build."""
    e = _counted(d.eval)
    d = dataclasses.replace(d, eval=e)
    e.calls, e.sizes = 0, []
    return d, e


def _bhat_operation_densities(seed):
    """alpha and the Cauchy and histogram densities of one operation of the
    bhat benchmark workload, drawn as it draws them."""
    rng = np.random.default_rng(seed)
    alpha = float(rng.uniform(0.3, 0.7))
    for _ in range(2):  # the two sparse 10^4-bin mass vectors
        rng.gamma(2.0, 1.0, 10_000), rng.random(10_000)
    C1, C2 = (cauchy_density(float(s)) for s in rng.uniform(0.5, 2.0, 2))
    H1, H2 = (histogram_density(np.geomspace(0.5, 8.0, 201), h / h.sum()) for h in rng.gamma(2.0, 1.0, (2, 200)))
    return alpha, C1, C2, H1, H2


def test_density_integrals_of_a_bhat_operation_are_not_probed():
    # At seed 1 every panel is accepted at depth 0: each cmbd evaluates each
    # density once, on the 15 nodes of every panel (52 for the Cauchy pair,
    # 200 for the histograms), and each expected value its density once.
    alpha, *densities = _bhat_operation_densities(1)
    (C1, c1), (C2, c2), (H1, h1), (H2, h2) = map(_counted_density, densities)
    got = [
        float(cmbd(HARMONIC, ARITHMETIC, alpha, C1, C2)),
        float(cmbd(GEOMETRIC, ARITHMETIC, alpha, C1, C2)),
        float(cmbd(GEOMETRIC, ARITHMETIC, alpha, H1, H2)),
        qa_expected_value(LOG, H1),
        qa_expected_value(RECIPROCAL, H1),
    ]
    assert c1.sizes == c2.sizes == [780, 780] and h1.sizes == [3000] * 3 and h2.sizes == [3000]
    assert [v.hex() for v in got] == [
        "0x1.fd7301fbecce1p-5", "0x1.00b40284fadb5p-5", "0x1.c73448a25e3aap-4",
        "0x1.0e54b47f309b6p+1", "0x1.93653f2a0c9bcp+0",
    ]


@pytest.mark.parametrize("pair, counts", [
    # density points of one cmbd, p's and q's: one integral per mean
    # evaluated both densities at every node (3120 and 12000 points in all),
    # the joint pass evaluates them once per batch
    ("cauchy", (780, 780)),
    ("histogram", (3000, 3000)),
])
def test_one_cmbd_evaluates_each_density_once_per_batch(pair, counts):
    alpha, C1, C2, H1, H2 = _bhat_operation_densities(1)
    (p, pe), (q, qe) = map(_counted_density, (C1, C2) if pair == "cauchy" else (H1, H2))
    got = float(cmbd(GEOMETRIC, ARITHMETIC, alpha, p, q))
    joint = (sum(pe.sizes), sum(qe.sizes))
    assert joint == counts and pe.calls == qe.calls == 1
    pe.sizes.clear(), qe.sizes.clear()
    assert got == -math.log(_alone(GEOMETRIC, alpha, p, q) / _alone(ARITHMETIC, alpha, p, q))
    assert (sum(pe.sizes), sum(qe.sizes)) == (2 * counts[0], 2 * counts[1])


def test_integrate_accepts_scalar_only_integrands():
    # math.exp fails on an array, and the constant returns a float for one:
    # both are called point by point from their first batch on.
    assert integrate(math.exp, 0.0, 1.0, breakpoints=(0.5,)) == pytest.approx(math.e - 1.0, rel=1e-14)
    assert integrate(lambda x: 1.0, -1.0, 2.0, breakpoints=(0.5,)) == 3.0


def test_public_rules_probe_their_integrand():
    assert gauss_kronrod(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-14)
    assert gauss_kronrod(math.sin, math.pi, 0.0) == -gauss_kronrod(math.sin, 0.0, math.pi)


def test_array_integrands_are_called_once_per_level():
    # log(x - 5) is undefined at 0.25 and 0.5, where a probe on [0, 1] would
    # have looked; on [10, 20] every batch is one array call, never a point.
    f = _counted(expression_model("log(x-5)", (5.0, 30.0)).value)
    got = gauss_kronrod(f, 10.0, 20.0)
    assert f.sizes == [15, 30]  # one panel, then its two halves
    want = 15.0 * math.log(15.0) - 5.0 * math.log(5.0) - 10.0
    assert got == integrate(lambda x: np.log(x - 5.0), 10.0, 20.0) == pytest.approx(want, rel=1e-14)
    # empty intervals: 0.0 without a call, even where f is undefined
    assert gauss_kronrod(np.log, 0, 0) == 0.0 and integrate(np.log, 0, 0) == 0.0


def test_domain_error_of_the_first_batch_passes_through():
    raised = []

    def f(x):
        raised.append(DomainError("undefined here"))
        raise raised[-1]

    g = _counted(f)
    with pytest.raises(DomainError) as info:
        integrate(g, 0.0, 1.0, breakpoints=(0.5,))
    assert info.value is raised[0] and g.sizes == [30]


def test_kronrod_pair_constants():
    # The 7 Gauss nodes and weights are numpy's, to rounding, at the odd
    # positions of the 15 Kronrod nodes; K15 integrates x^k exactly up to
    # degree 22 and G7 up to degree 13, and neither beyond.
    x, w = np.polynomial.legendre.leggauss(7)
    assert np.all(np.diff(_XK) > 0) and np.array_equal(_XK, -_XK[::-1]) and np.array_equal(_WK, _WK[::-1])
    assert np.allclose(_XK[1::2], x, rtol=0, atol=4e-16) and np.allclose(_WG, w, rtol=0, atol=4e-16)

    def moment_error(nodes, weights, k):
        return abs(mp.fsum(mp.mpf(wi) * mp.mpf(xi) ** k for xi, wi in zip(nodes, weights)) - mp.mpf(2) / (k + 1))

    assert max(moment_error(_XK, _WK, k) for k in range(0, 23, 2)) < 1e-15
    assert max(moment_error(_XK[1::2], _WG, k) for k in range(0, 14, 2)) < 1e-15
    assert moment_error(_XK, _WK, 24) > 1e-12 and moment_error(_XK[1::2], _WG, 14) > 1e-6


# ------------------------------------------- batched core against per panel


def _kronrod_panel(fv, lo, hi, tol, depth, max_depth, accepted):
    """Adaptive G7K15 on one subinterval, depth first: accept the Kronrod sum
    when it is within tol of the Gauss sum, else split with tol halved."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = fv(mid + half * _XK)
    kronrod = half * np.sum(fx * _WK)
    if abs(kronrod - half * np.sum(fx[1::2] * _WG)) <= tol:
        accepted.append(kronrod)
    elif depth == max_depth:
        raise QuadratureFailure(f"[{lo!r}, {hi!r}] over its budget at depth {depth}")
    else:
        _kronrod_panel(fv, lo, mid, 0.5 * tol, depth + 1, max_depth, accepted)
        _kronrod_panel(fv, mid, hi, 0.5 * tol, depth + 1, max_depth, accepted)


def _per_panel(fv, lo, hi, cfg, breakpoints):
    """integrate as a loop over its panels: adaptive G7K15 per panel, then
    one fsum of the pieces accepted on every panel."""
    edges = [lo, *sorted({float(b) for b in breakpoints if lo < b < hi}), hi]
    accepted = []
    for a, b in zip(edges[:-1], edges[1:]):
        _kronrod_panel(fv, a, b, cfg.abs_tol, 0, cfg.max_depth, accepted)
    return math.fsum(accepted)


def _pair_integrand(M, alpha, p, q):
    lo, hi, cfg, brk = _merged_quadrature(p, q)
    return (lambda x: weighted_means(M, _density_values(p.eval(x), q.eval(x)), (1.0 - alpha, alpha))), lo, hi, brk


CONFIGS = st.sampled_from([QuadratureConfig(), QuadratureConfig(abs_tol=1e-13)])
MEANS = st.sampled_from([GEOMETRIC, HARMONIC])
ALPHAS = st.floats(0.05, 0.95)


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    M=MEANS,
    alpha=ALPHAS,
    cfg=CONFIGS,
)
def test_batched_equals_per_panel_on_histograms(n, seed, M, alpha, cfg):
    rng = np.random.default_rng(seed)
    edges = np.cumsum(np.concatenate([[rng.uniform(-3.0, 3.0)], rng.uniform(0.01, 2.0, n)]))
    p, q = (histogram_density(edges, m / m.sum(), cfg) for m in rng.gamma(2.0, 1.0, (2, n)))
    fv, lo, hi, brk = _pair_integrand(M, alpha, p, q)
    assert integrate(fv, lo, hi, cfg, brk) == _per_panel(fv, lo, hi, cfg, brk)


@settings(deadline=None, max_examples=20)
@given(s1=st.floats(0.05, 20.0), s2=st.floats(0.05, 20.0), M=MEANS, alpha=ALPHAS, cfg=CONFIGS)
def test_batched_equals_per_panel_on_cauchy_pairs(s1, s2, M, alpha, cfg):
    fv, lo, hi, brk = _pair_integrand(M, alpha, cauchy_density(s1, cfg), cauchy_density(s2, cfg))
    assert integrate(fv, lo, hi, cfg, brk) == _per_panel(fv, lo, hi, cfg, brk)


# --------------------------------------- joint pass against one per component


def _alone(M, alpha, p, q):
    """The coefficient of (p, q) under M as one ``integrate`` call."""
    f, lo, hi, brk = _pair_integrand(M, alpha, p, q)
    return integrate(f, lo, hi, _merged_quadrature(p, q)[2], brk)


TIGHT = QuadratureConfig(abs_tol=1e-12)


def _beta(a, b, cfg=QuadratureConfig()):
    """The Beta(a, b) density on [0, 1], integer a, b >= 1."""
    c = math.factorial(a + b - 1) / (math.factorial(a - 1) * math.factorial(b - 1))
    return DensityModel(eval=lambda x: c * x ** (a - 1) * (1.0 - x) ** (b - 1), truncation=(0.0, 1.0), quadrature=cfg)


def _histogram(edges, seed):
    m = np.random.default_rng(seed).gamma(2.0, 1.0, len(edges) - 1)
    return histogram_density(edges, m / m.sum())


PAIRS = {
    "cauchy 0.7, 1.9": lambda: (cauchy_density(0.7), cauchy_density(1.9)),
    "cauchy 0.05, 20": lambda: (cauchy_density(0.05), cauchy_density(20.0)),
    "histograms, shared grid": lambda: (_histogram(np.geomspace(0.5, 8.0, 41), 1),
                                        _histogram(np.geomspace(0.5, 8.0, 41), 2)),
    "histograms, different grids": lambda: (_histogram(np.geomspace(0.5, 8.0, 41), 1),
                                            _histogram(np.linspace(0.3, 9.0, 28), 3)),
    "beta 4,5 / 5,4 at 1e-12": lambda: (_beta(4, 5, TIGHT), _beta(5, 4, TIGHT)),
    "cauchy 0.7, 1.9 at 1e-12": lambda: (cauchy_density(0.7, TIGHT), cauchy_density(1.9, TIGHT)),
}
ORDERED = [(GEOMETRIC, ARITHMETIC), (HARMONIC, ARITHMETIC), (HARMONIC, GEOMETRIC), (power(-1.0), power(2.0))]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("pair", list(PAIRS))
def test_joint_coefficients_equal_one_integral_per_mean(pair, alpha):
    p, q = PAIRS[pair]()
    for M, N in ORDERED:
        cM, cN = _alone(M, alpha, p, q), _alone(N, alpha, p, q)
        assert _coefficients((M, N), alpha, p, q) == [cM, cN]
        assert bhat_coefficient(M, alpha, p, q) == cM
        assert cmbd(M, N, alpha, p, q) == DivergenceValue.create(-math.log(cM / cN), ("p", "q"))
    c2, c1 = _alone(power(2.0), alpha, p, q), _alone(power(-1.0), alpha, p, q)
    assert power_cmbd(2.0, -1.0, alpha, p, q) == _zero_floor(math.log(c2 / c1) / 3.0)


@pytest.mark.parametrize("pair", ["beta 4,5 / 5,4 at 1e-12", "cauchy 0.7, 1.9 at 1e-12"])
def test_tight_pairs_refine_their_means_to_different_depths(pair):
    # so the joint pass must refine each mean only where its own run does
    p, q = PAIRS[pair]()
    points = []
    for M in (GEOMETRIC, ARITHMETIC):
        f, lo, hi, brk = _pair_integrand(M, 0.3, p, q)
        g = _counted(f)
        integrate(g, lo, hi, TIGHT, brk)
        points.append(sum(g.sizes))
    assert points[0] != points[1]


def _jump_pair(q_right, cfg=QuadratureConfig()):
    """p uniform on [0, 1] and 0 on (1, 2]; q (unnormalized) 0.4 on [0, 1.3)
    and q_right on [1.3, 2]."""
    p = histogram_density((0.0, 1.0, 2.0), (1.0, 0.0), cfg)
    q = DensityModel(eval=lambda x: np.where(np.asarray(x) < 1.3, 0.4, q_right), truncation=(0.0, 2.0),
                     quadrature=cfg, normalized=False)
    return p, q


def test_only_the_upper_mean_over_budget_at_max_depth_fails_as_its_own_integral():
    # On (1, 2] p is 0: the geometric integrand is 0 there and the
    # arithmetic one jumps at 1.3, so only the arithmetic integral fails.
    p, q = _jump_pair(0.1, QuadratureConfig(max_depth=3))
    _alone(GEOMETRIC, 0.5, p, q)
    with pytest.raises(QuadratureFailure) as alone:
        _alone(ARITHMETIC, 0.5, p, q)
    for call in (lambda: cmbd(GEOMETRIC, ARITHMETIC, 0.5, p, q),
                 lambda: _coefficients((GEOMETRIC, ARITHMETIC), 0.5, p, q)):
        with pytest.raises(QuadratureFailure) as joint:
            call()
        assert str(joint.value) == str(alone.value)
        assert "exceeded 3 refinement levels" in str(joint.value)


def test_a_negative_density_value_fails_as_its_own_integral():
    p, q = _jump_pair(-0.1)
    with pytest.raises(DomainError) as alone:
        _alone(GEOMETRIC, 0.5, p, q)
    for call in (lambda: cmbd(GEOMETRIC, ARITHMETIC, 0.5, p, q), lambda: power_cmbd(2.0, -1.0, 0.5, p, q)):
        with pytest.raises(DomainError) as joint:
            call()
        assert str(joint.value) == str(alone.value) == "distribution values must be nonnegative and not NaN"


@settings(deadline=None, max_examples=30)
@given(freqs=st.lists(st.floats(0.0, 60.0), min_size=2, max_size=4), cfg=CONFIGS, n=st.integers(0, 5))
def test_joint_integrals_equal_separate_ones(freqs, cfg, n):
    brk = tuple(np.linspace(0.0, 3.0, n + 2)[1:-1])
    made, seen = [], [[] for _ in freqs]

    def shared(x):
        made.append(np.exp(-x))
        return made[-1]

    def kernel(i, w):
        return lambda x, e: seen[i].append(e) or np.sin(w * x) * e

    got = _integrals(shared, [kernel(i, w) for i, w in enumerate(freqs)], 0.0, 3.0, cfg, brk)
    assert got == [integrate(lambda x, w=w: np.sin(w * x) * np.exp(-x), 0.0, 3.0, cfg, brk) for w in freqs]
    # one joint pass: every kernel read each batch's one shared value, and
    # no kernel ran alone
    assert all(len(s) == len(made) and all(a is b for a, b in zip(s, made)) for s in seen)


def test_a_value_only_another_component_visits_sends_the_pass_to_separate_integrals():
    # f1 is NaN only at 0.25, the centre node of [0, 0.5], which f1's own
    # run never visits (it accepts [0, 1] at depth 0) but f0's refines.
    def f0(x):
        return np.sin(30.0 * x)

    def f1(x):
        return np.where(x == 0.25, np.nan, 1.0)

    shared, ran = _counted(lambda x: None), []
    kernels = [lambda x, s: ran.append(0) or f0(x), lambda x, s: ran.append(1) or f1(x)]
    assert _integrals(shared, kernels, 0.0, 1.0, QuadratureConfig(), ()) == [integrate(f0, 0.0, 1.0),
                                                                            integrate(f1, 0.0, 1.0)]
    alone = _counted(f0)
    integrate(alone, 0.0, 1.0)
    # the pass met the NaN on its second call; then f0 ran alone, then f1
    assert shared.sizes == [15, 30, *alone.sizes, 15]
    assert ran == [0, 1, 0, 1] + [0] * alone.calls + [1]


def test_panels_past_the_active_bound_keep_their_results():
    # 100 panels that need several subintervals each: together they
    # outgrow _MAX_ACTIVE, so a level takes several calls, none of which
    # evaluates more than the bound's subintervals, and the value is the
    # per-panel one bit for bit.
    sizes = []

    def f(x):
        sizes.append(len(x))
        return np.sin(300.0 * x) * np.exp(-x)

    cfg = QuadratureConfig(abs_tol=1e-13)
    brk = tuple(np.linspace(0.0, 10.0, 101)[1:-1])
    got = integrate(f, 0.0, 10.0, cfg, brk)
    assert max(sizes) == len(_XK) * _MAX_ACTIVE
    assert got == _per_panel(f, 0.0, 10.0, cfg, brk)
    assert got == pytest.approx((300.0 * (1.0 - math.exp(-10.0) * math.cos(3000.0))
                                 - math.exp(-10.0) * math.sin(3000.0)) / (1.0 + 300.0**2), abs=1e-14)


def test_many_panels_start_in_groups():
    # 600 constant panels: 3 groups of at most _MAX_ACTIVE panels, each
    # accepted in one call.
    edges = np.linspace(0.0, 6.0, 601)
    h = histogram_density(edges, np.random.default_rng(3).dirichlet(np.ones(600)))
    f = _counted(lambda x: h.eval(x) ** 2)
    got = integrate(f, *h.truncation, h.quadrature, h.breakpoints)
    assert f.calls == 3
    assert got == _per_panel(lambda x: h.eval(x) ** 2, *h.truncation, h.quadrature, h.breakpoints)


def test_reversed_bounds_flip_the_sign():
    brk = (0.25, 0.5)
    assert integrate(np.exp, 1.0, 0.0, breakpoints=brk) == -integrate(np.exp, 0.0, 1.0, breakpoints=brk)
    assert integrate(np.exp, 0.5, 0.5) == 0.0


def _cauchy_ha_gap(s1, s2, alpha):
    quad = float(cmbd(HARMONIC, ARITHMETIC, alpha, cauchy_density(s1), cauchy_density(s2)))
    return abs(quad - cauchy_ha_closed_form(s1, s2, alpha))


@settings(deadline=None, max_examples=40)
@given(s1=st.floats(0.05, 20.0), s2=st.floats(0.05, 20.0), alpha=st.floats(0.01, 0.99))
def test_cauchy_closed_form_matches_quadrature(s1, s2, alpha):
    assert _cauchy_ha_gap(s1, s2, alpha) <= 1e-6


# Adaptive Simpson accepted a smooth panel at depth 0 here because its two
# estimates agreed by chance ([6.982421875, 12.8], error 6.8e-7 against 1e-9),
# and missed the closed form by 1.4e-6 and 1.1e-6.
@pytest.mark.parametrize("s1,s2,alpha", [(6.982421875, 0.05, 0.01171875), (4.0, 1.801521215876553, 0.01)])
def test_cauchy_closed_form_false_convergence(s1, s2, alpha):
    assert _cauchy_ha_gap(s1, s2, alpha) <= 1e-6


# ------------------------------------------------------- 50-digit oracles


def test_cauchy_geometric_coefficient_matches_mpmath():
    # The integral over the merged truncation [-L, L] that the coefficient
    # approximates, split where the density's ladder splits it.
    s1, s2, alpha = 0.7, 1.9, 0.35
    p, q = cauchy_density(s1), cauchy_density(s2)
    got = bhat_coefficient(GEOMETRIC, alpha, p, q)
    lo, hi, _, brk = _merged_quadrature(p, q)
    f, g = oracle.cauchy_density(s1), oracle.cauchy_density(s2)
    want = mp.quad(lambda x: f(x) ** (1 - alpha) * g(x) ** alpha, [lo, *np.unique(brk).tolist(), hi])
    assert abs(got - want) <= 1e-14


def test_log_expected_value_of_a_histogram_matches_mpmath():
    edges = np.geomspace(0.5, 8.0, 41)
    masses = np.random.default_rng(7).gamma(2.0, 1.0, 40)
    masses /= masses.sum()
    got = qa_expected_value(LOG, histogram_density(edges, masses))
    bins = zip(masses.tolist(), edges[:-1].tolist(), edges[1:].tolist())
    want = mp.exp(mp.fsum(m / (mp.mpf(b) - a) * mp.quad(mp.log, [a, b]) for m, a, b in bins))
    assert abs(got - want) <= 1e-14 * want


# ------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rule": "simpson"},
        {"rule": "gauss-legendre"},
        {"nodes": 0},
        {"nodes": -3},
        {"abs_tol": 0.0},
        {"abs_tol": -1.0},
        {"abs_tol": float("nan")},
        {"abs_tol": float("inf")},
        {"max_depth": -1},
        {"rule": "adaptive_simpson"},
        {"nodes": 2.5},
        {"nodes": True},
        {"max_depth": 20.0},
        {"max_depth": False},
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    # rule and nodes went with Gauss-Legendre: they are unknown fields now
    error = TypeError if kwargs.keys() & {"rule", "nodes"} else ParamError
    with pytest.raises(error):
        QuadratureConfig(**kwargs)


def test_config_has_only_a_tolerance_and_a_depth():
    assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["abs_tol", "max_depth"]


def test_config_takes_numpy_integers():
    for depth in (np.int64(8), np.int32(3)):
        cfg = QuadratureConfig(max_depth=depth)
        assert integrate(np.exp, 0.0, 1.0, cfg) == pytest.approx(math.e - 1.0, rel=1e-14)


def test_public_rules_validate_their_parameters():
    with pytest.raises(ParamError):
        gauss_kronrod(math.sin, 0.0, 1.0, abs_tol=-1.0)
    with pytest.raises(ParamError, match="max_depth must be an integer, got 2.5"):
        gauss_kronrod(np.exp, 0.0, 1.0, max_depth=2.5)
    with pytest.raises(ParamError, match="max_depth must be an integer"):
        gauss_kronrod(np.exp, 0.0, 1.0, max_depth=True)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)])
def test_bounds_must_be_finite(lo, hi):
    f = _counted(lambda x: np.exp(-np.abs(x)))
    for call in (
        lambda: integrate(f, lo, hi),
        lambda: integrate(f, lo, hi, breakpoints=(0.5,)),
        lambda: gauss_kronrod(f, lo, hi),
    ):
        with pytest.raises(ParamError, match="bounds must be finite"):
            call()
    assert f.calls == 0


def test_non_finite_integrand_raises_in_the_call_that_sees_it():
    nan = _counted(lambda x: np.full(np.shape(x), np.nan))
    with pytest.raises(DomainError, match=r"^integrand is nan at x = "):
        integrate(nan, 0.0, 1.0)
    assert nan.calls == 1  # the first batch

    # infinite beyond 0.75: the error names the first such point of the call
    pole = _counted(lambda x: np.where(x > 0.75, np.inf, 1.0))
    with pytest.raises(DomainError) as info:
        integrate(pole, 0.0, 1.0, breakpoints=(0.5,))
    first = float((0.75 + 0.25 * _XK)[_XK > 0.0][0])  # in the second panel, [0.5, 1]
    assert str(info.value) == f"integrand is inf at x = {first!r}"
    assert pole.calls == 1


def test_non_finite_integrand_of_a_public_rule():
    with pytest.raises(DomainError, match="integrand is nan"):
        gauss_kronrod(lambda x: math.log(x) if x > 0.5 else math.nan, 0.0, 1.0)
    with pytest.raises(DomainError, match="integrand is -inf"):
        gauss_kronrod(lambda x: np.where(x < 0.5, -np.inf, x), 0.0, 1.0)


def test_cli_rejects_the_removed_rule(capsys):
    argv = ["bhat", "--M", "qa:reciprocal", "--alpha", "0.5", "--p", "u.json", "--q", "u.json"]
    for flag in (["--quad-rule", "gauss_legendre"], ["--quad-nodes", "32"]):
        with pytest.raises(SystemExit) as info:
            main(argv + flag)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--quad-tol", "0"], ["--quad-tol", "nan"]])
def test_cli_rejects_bad_quadrature_options(tmp_path, capsys, flag):
    u = tmp_path / "u.json"
    u.write_text(json.dumps({"type": "cauchy", "scale": 1.0}), encoding="utf-8")
    argv = ["bhat", "--M", "qa:reciprocal", "--N", "qa:identity", "--alpha", "0.5", "--p", str(u), "--q", str(u)]
    assert main(argv + flag) == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParamError"


# --------------------------------------------------------------- failures


def _jumpy(x):
    return np.sign(np.sin(2e5 * x))


JUMPY_EDGES = np.linspace(0.0, 1.0, 201)


def _peak_bytes(fn):
    fn()  # first call: lazy imports and caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_failure_names_the_worst_subinterval():
    with pytest.raises(QuadratureFailure) as info:
        integrate(_jumpy, 0.0, 1.0, breakpoints=tuple(JUMPY_EDGES[1:-1]))
    msg = str(info.value)
    m = re.search(r"the worst, \[(\S+), (\S+)\] at depth 20 in panel \[0\.0, 0\.005\], has \|err\|/tol = (\S+)$", msg)
    assert msg.startswith("adaptive Gauss-Kronrod exceeded 20 refinement levels"), msg
    assert m, msg
    lo, hi = float(m[1]), float(m[2])
    assert 0.0 <= lo < hi <= 0.005 and hi - lo == pytest.approx(0.005 / 2**20)
    # the named subinterval holds a jump of the integrand
    assert _jumpy(lo) != _jumpy(hi) and float(m[3]) > 1.0


def test_failure_names_the_larger_of_two_jumps():
    with pytest.raises(QuadratureFailure) as info:
        integrate(lambda x: (x > 0.3) + 100.0 * (x > 0.7), 0.0, 1.0, QuadratureConfig(max_depth=12))
    lo, hi = map(float, re.search(r"the worst, \[(\S+), (\S+)\]", str(info.value)).groups())
    assert "2 subintervals" in str(info.value) and lo < 0.7 < hi


def test_failing_integral_over_many_panels_stays_within_one_panel_memory():
    # Panel by panel, the integral gives up on its first panel, so its peak
    # is the first panel's alone (the same core on that panel); all 200
    # panels at once must stay within 2x.
    def batched():
        with pytest.raises(QuadratureFailure):
            integrate(_jumpy, 0.0, 1.0, breakpoints=tuple(JUMPY_EDGES[1:-1]))

    def first_panel():
        with pytest.raises(QuadratureFailure):
            gauss_kronrod(_jumpy, 0.0, 0.005)

    assert _peak_bytes(batched) <= 2 * _peak_bytes(first_panel)


def test_one_failing_panel_holds_a_bounded_chunk_per_level():
    # sin(1e9 x) converges nowhere on [0, 1]: one panel whose every level
    # fails.  Each call evaluates at most _MAX_ACTIVE subintervals, so the
    # peak grows with the depth, not with the 2^depth subintervals of a
    # level (about 16x from depth 10 to 14 if a level were one call).
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return np.sin(1e9 * x)

    def fail_at(depth):
        def run():
            with pytest.raises(QuadratureFailure, match=f"exceeded {depth} refinement levels: "
                               f"{_MAX_ACTIVE} subintervals of the last integrand call"):
                integrate(f, 0.0, 1.0, QuadratureConfig(max_depth=depth))

        return run

    assert _peak_bytes(fail_at(14)) <= 2 * _peak_bytes(fail_at(10))
    assert max(sizes) == len(_XK) * _MAX_ACTIVE


def test_a_wide_interval_without_breakpoints_is_split_by_the_ladder():
    # (-1e6, 1e6) is wider than 1e4 max(1, |lo + hi|): integrate panels it
    # geometrically around 0, where a Cauchy density's mass sits.
    f = _counted(lambda x: 1.0 / (math.pi * (1.0 + np.asarray(x) ** 2)))
    assert integrate(f, -1e6, 1e6) == pytest.approx(2.0 * math.atan(1e6) / math.pi, abs=1e-9)
    assert f.sizes[0] > 15  # the first call already spans several panels
