import math

import numpy as np
import pytest

from cdt.bhattacharyya import histogram_density
from cdt.quadrature import QuadratureConfig, adaptive_simpson, gauss_legendre, integrate


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def test_histogram_integral_probes_once():
    # 200 constant panels: one probe for the whole integral, then one
    # 3-point and one 2-point batch per panel.
    edges = np.linspace(-2.0, 3.0, 201)
    masses = np.random.default_rng(5).dirichlet(np.ones(200))
    h = histogram_density(edges, masses)
    f = _counted(lambda x: h.eval(x) ** 2)
    assert integrate(f, *h.truncation, h.quadrature, h.breakpoints) == 0.35679801523730764
    assert f.calls == 401


def test_integrate_accepts_scalar_only_integrands():
    for rule in ("adaptive_simpson", "gauss_legendre"):
        got = integrate(math.exp, 0.0, 1.0, QuadratureConfig(rule=rule), (0.5,))
        assert got == pytest.approx(math.e - 1.0, rel=1e-10)


def test_public_rules_probe_their_integrand():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-10)
    assert gauss_legendre(math.sin, math.pi, 0.0) == pytest.approx(-2.0, rel=1e-12)
