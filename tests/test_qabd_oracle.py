"""The quasi-arithmetic Bregman divergence against a 50-digit oracle.

B(p:q) = (tau(F(p)) - tau(F(q))) / tau'(F(q)) - ((rho(p) - rho(q)) / rho'(q)) F'(q)
is evaluated by the 50-digit oracle on the exact float inputs, and ``qabd``
and ``qabd_conformal`` must match it closely.  The closed form needs F'(q), so
this pins the exactness of the expression derivative: a finite-difference
F' misses the oracle by 1e-11 to 1e-8 here.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from oracle import rel_error

from cdt.divergences import QabdSpec, qabd, qabd_conformal
from cdt.expr import expression_model
from cdt.generators import get_generator

#: (F, domain, rho, tau): the four triples of the clustering benchmark, and
#: one expression that is not a built-in form
TRIPLES = [
    ("x^2", (0.2, 12.0), "identity", "identity"),
    ("exp(x)", (0.2, 4.0), "log", "log"),
    ("exp(x^2)", (0.1, 2.5), "identity", "log"),
    ("exp(x)", (0.5, 3.0), "power:2", "power:3"),
    ("x^2+exp(x)", (0.1, 5.0), "identity", "identity"),
]
SPECS = [QabdSpec(expression_model(t, d), get_generator(r), get_generator(u)) for t, d, r, u in TRIPLES]
IDS = [f"{t}|{r},{u}" for t, _, r, u in TRIPLES]

#: Gaps stop at 0.01: closer pairs lose digits to cancellation in the
#: closed form itself, whatever the derivative (about 1e-4 at gap 1e-6).
GAPS = [1.0, 0.1, 0.01]


@pytest.mark.parametrize("gap", GAPS)
@pytest.mark.parametrize("case", range(len(TRIPLES)), ids=IDS)
def test_qabd_matches_oracle(case, gap):
    (text, _, rho, tau), p, q = TRIPLES[case], 1.0 + gap, 1.0
    assert rel_error(qabd(SPECS[case], p, q).value, oracle.qabd(text, rho, tau, p, q)) < 1e-12


@pytest.mark.parametrize("gap", GAPS)
@pytest.mark.parametrize("case", range(len(TRIPLES)), ids=IDS)
def test_qabd_conformal_matches_oracle(case, gap):
    (text, _, rho, tau), p, q = TRIPLES[case], 1.0 + gap, 1.0
    factor, base = qabd_conformal(SPECS[case], p, q)
    assert rel_error(factor * base, oracle.qabd(text, rho, tau, p, q)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(case=st.integers(0, len(TRIPLES) - 1), s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
def test_qabd_is_conformal_product(case, s, t):
    lo, hi = TRIPLES[case][1]
    p, q = lo + (hi - lo) * (0.001 + 0.998 * np.array([s, t]))
    assume(abs(p / q - 1.0) >= 0.01)  # see GAPS
    spec = SPECS[case]
    factor, base = qabd_conformal(spec, p, q)
    assert factor * base == pytest.approx(qabd(spec, p, q).value, rel=1e-9)
