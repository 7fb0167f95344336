import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdt.bhattacharyya import (
    _barycenters,
    _merged_quadrature,
    cauchy_density,
    cauchy_ha_closed_form,
    cmbd,
    histogram_density,
)
from cdt.cli import main
from cdt.errors import ParamError, QuadratureFailure
from cdt.means import ARITHMETIC, GEOMETRIC, HARMONIC
from cdt.quadrature import _MAX_ACTIVE, QuadratureConfig, adaptive_simpson, gauss_legendre, integrate


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def test_histogram_integral_probes_once():
    # 200 constant panels: one probe for the whole integral, then one
    # 3-point batch and one 2-point refinement over all panels at once.
    edges = np.linspace(-2.0, 3.0, 201)
    masses = np.random.default_rng(5).dirichlet(np.ones(200))
    h = histogram_density(edges, masses)
    f = _counted(lambda x: h.eval(x) ** 2)
    assert integrate(f, *h.truncation, h.quadrature, h.breakpoints) == 0.35679801523730764
    assert f.calls == 3


def test_integrate_accepts_scalar_only_integrands():
    for rule in ("adaptive_simpson", "gauss_legendre"):
        got = integrate(math.exp, 0.0, 1.0, QuadratureConfig(rule=rule), (0.5,))
        assert got == pytest.approx(math.e - 1.0, rel=1e-10)


def test_public_rules_probe_their_integrand():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-10)
    assert gauss_legendre(math.sin, math.pi, 0.0) == pytest.approx(-2.0, rel=1e-12)


# ------------------------------------------- batched core against per panel


def _per_panel(fv, lo, hi, cfg, breakpoints):
    """integrate as a loop over its panels: the public rule on each panel,
    sampled on the panel's clipped interior, then fsum over the panels."""
    edges = [lo, *sorted({b for b in breakpoints if lo < b < hi}), hi]
    parts = []
    for a, b in zip(edges[:-1], edges[1:]):
        pad = 1e-12 * (b - a)
        g = lambda x, a=a, b=b, pad=pad: fv(np.clip(x, a + pad, b - pad))
        if cfg.rule == "gauss_legendre":
            parts.append(gauss_legendre(g, a, b, cfg.nodes))
        else:
            parts.append(adaptive_simpson(g, a, b, cfg.abs_tol, cfg.max_depth))
    return math.fsum(parts)


def _pair_integrand(M, alpha, p, q):
    lo, hi, cfg, brk = _merged_quadrature(p, q)
    return (lambda x: _barycenters(M, alpha, p.eval(x), q.eval(x))), lo, hi, brk


RULES = st.sampled_from([QuadratureConfig(), QuadratureConfig(rule="gauss_legendre")])
MEANS = st.sampled_from([GEOMETRIC, HARMONIC])
ALPHAS = st.floats(0.05, 0.95)


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    M=MEANS,
    alpha=ALPHAS,
    cfg=RULES,
)
def test_batched_equals_per_panel_on_histograms(n, seed, M, alpha, cfg):
    rng = np.random.default_rng(seed)
    edges = np.cumsum(np.concatenate([[rng.uniform(-3.0, 3.0)], rng.uniform(0.01, 2.0, n)]))
    p, q = (histogram_density(edges, m / m.sum(), cfg) for m in rng.gamma(2.0, 1.0, (2, n)))
    fv, lo, hi, brk = _pair_integrand(M, alpha, p, q)
    assert integrate(fv, lo, hi, cfg, brk) == _per_panel(fv, lo, hi, cfg, brk)


@settings(deadline=None, max_examples=20)
@given(s1=st.floats(0.05, 20.0), s2=st.floats(0.05, 20.0), M=MEANS, alpha=ALPHAS, cfg=RULES)
def test_batched_equals_per_panel_on_cauchy_pairs(s1, s2, M, alpha, cfg):
    fv, lo, hi, brk = _pair_integrand(M, alpha, cauchy_density(s1, cfg), cauchy_density(s2, cfg))
    assert integrate(fv, lo, hi, cfg, brk) == _per_panel(fv, lo, hi, cfg, brk)


def test_panels_past_the_active_bound_keep_their_results():
    # 100 panels that need dozens of subintervals each: together they
    # outgrow _MAX_ACTIVE, so panels are refined on their own (more calls
    # than one level each), and no refinement call exceeds the bound.
    sizes = []

    def f(x):
        sizes.append(len(x))
        return np.sin(30.0 * x) * np.exp(-x)

    cfg = QuadratureConfig(abs_tol=1e-13)
    brk = tuple(np.linspace(0.0, 10.0, 101)[1:-1])
    got = integrate(f, 0.0, 10.0, cfg, brk)
    assert len(sizes) > cfg.max_depth + 2 and max(sizes[2:]) <= 2 * _MAX_ACTIVE
    assert got == _per_panel(f, 0.0, 10.0, cfg, brk)


def test_many_panels_start_in_groups():
    # 600 constant panels: a probe, then 3 groups of at most _MAX_ACTIVE
    # panels, each a 3-point batch and one refinement.
    edges = np.linspace(0.0, 6.0, 601)
    h = histogram_density(edges, np.random.default_rng(3).dirichlet(np.ones(600)))
    f = _counted(lambda x: h.eval(x) ** 2)
    got = integrate(f, *h.truncation, h.quadrature, h.breakpoints)
    assert f.calls == 7
    assert got == _per_panel(lambda x: h.eval(x) ** 2, *h.truncation, h.quadrature, h.breakpoints)


def test_reversed_bounds_flip_the_sign():
    brk = (0.25, 0.5)
    assert integrate(np.exp, 1.0, 0.0, breakpoints=brk) == -integrate(np.exp, 0.0, 1.0, breakpoints=brk)
    assert integrate(np.exp, 0.5, 0.5) == 0.0


def _cauchy_ha_gap(s1, s2, alpha):
    quad = float(cmbd(HARMONIC, ARITHMETIC, alpha, cauchy_density(s1), cauchy_density(s2)))
    return abs(quad - cauchy_ha_closed_form(s1, s2, alpha))


# Derandomized: random draws hit the false convergence pinned below about
# once in 60 runs of 40 examples, which would make the property flaky.
@settings(deadline=None, max_examples=40, derandomize=True)
@given(s1=st.floats(0.05, 20.0), s2=st.floats(0.05, 20.0), alpha=st.floats(0.01, 0.99))
def test_cauchy_closed_form_matches_quadrature(s1, s2, alpha):
    assert _cauchy_ha_gap(s1, s2, alpha) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="adaptive Simpson accepts a smooth panel at depth 0 where its two estimates "
    "agree by chance, e.g. [6.982421875, 12.8] with an error of 6.8e-7 against 1e-9",
)
@pytest.mark.parametrize("s1,s2,alpha", [(6.982421875, 0.05, 0.01171875), (4.0, 1.801521215876553, 0.01)])
def test_cauchy_closed_form_false_convergence(s1, s2, alpha):
    assert _cauchy_ha_gap(s1, s2, alpha) <= 1e-6


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
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ParamError):
        QuadratureConfig(**kwargs)


def test_public_rules_validate_their_parameters():
    with pytest.raises(ParamError):
        adaptive_simpson(math.sin, 0.0, 1.0, abs_tol=-1.0)
    with pytest.raises(ParamError):
        gauss_legendre(math.sin, 0.0, 1.0, nodes=0)


@pytest.mark.parametrize("flag", [["--quad-tol", "0"], ["--quad-nodes", "0"]])
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
    assert msg.startswith("adaptive Simpson exceeded 20 refinement levels"), msg
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
    # is the first panel's alone; all 200 panels at once must stay within 2x.
    def batched():
        with pytest.raises(QuadratureFailure):
            integrate(_jumpy, 0.0, 1.0, breakpoints=tuple(JUMPY_EDGES[1:-1]))

    def first_panel():
        with pytest.raises(QuadratureFailure):
            _per_panel(_jumpy, 0.0, 0.005, QuadratureConfig(), ())

    assert _peak_bytes(batched) <= 2 * _peak_bytes(first_panel)
