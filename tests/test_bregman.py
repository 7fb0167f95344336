"""The generalized Bregman divergence: one tangent per weighted mean.

``bregman(F, M, N, p, q)`` = T_N(F(q):F(p)) - F'(q) T_M(q:p), with T_M the
tangent of M at its first argument, is the alpha -> 1 limit of the skew
Jensen divergence over alpha(1 - alpha).  It is pinned here to the 50-digit
oracle's beta-derivative of that gap, to ``bccd_numeric``'s approximants,
and to ``qabd`` under quasi-arithmetic means.

The certificate of every case below is ``midpoint_verdict``, which samples
weight 1/2 only.  For Gini means that does not imply convexity at other
weights: a pair it certifies can have a negative Bregman divergence
(``tests/test_known_defects.py``).  The cases here were chosen where the
divergence is nonnegative over a 300 x 300 grid of the window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import rel_error

from cdt.convexity import TRUSTED_CONVEX, Verdict, function_model
from cdt.divergences import QabdSpec, bccd_numeric, bregman, lehmer_bregman, midpoint_verdict, qabd
from cdt.errors import DomainError, UnsupportedWeights
from cdt.expr import expression_model
from cdt.generators import IDENTITY, LOG, RECIPROCAL
from cdt.means import ARITHMETIC, GEOMETRIC, gini, lagrange, lehmer, power, quasi_arithmetic, stolarsky

DOMAIN = (0.1, 5.0)
EPS = 2.0**-52

#: (F, M, N): midpoint-certified Gini pairs over power, Lehmer and Gini
#: means, r = s and negative orders included
CASES = [
    ("x^2+exp(x)", lehmer(0.0), lehmer(1.0)),
    ("x^2+exp(x)", power(-1.0), gini(3.0, -1.0)),
    ("x^2+exp(x)", gini(0.5, 0.5), lehmer(2.0)),
    ("exp(x)", power(0.0), power(0.0)),
    ("exp(x)", lehmer(-0.5), gini(1.5, 0.5)),
    ("exp(x)", power(-1.0), power(2.0)),
    ("x^2", lehmer(0.0), lehmer(1.0)),
    ("x^2", gini(1.0, 1.0), lehmer(2.0)),
    ("x^2", power(2.0), power(2.0)),
    ("x^3", gini(3.0, -1.0), lehmer(0.0)),
    ("x^3", lehmer(2.0), gini(1.0, 1.0)),
    ("x^3", power(2.0), gini(0.5, 0.5)),
]
IDS = [f"{f}|{M},{N}" for f, M, N in CASES]
MODELS = {f: expression_model(f, DOMAIN) for f in {c[0] for c in CASES}}


def oracle_bregman(f, M, N, p, q):
    return oracle.bregman(f, oracle.gini(*M.gini_orders), oracle.gini(*N.gini_orders), p, q)


#: (p, q) at relative gaps 1, 0.1 and 0.01, anchored below and above, in the
#: middle and at both ends of the window
PAIRS = [(a, b) for g in (1.0, 0.1, 0.01) for a, b in
         ((1.0 + g, 1.0), (1.0, 1.0 + g), (4.5, 4.5 / (1.0 + g)), (0.3 * (1.0 + g), 0.3))]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_bregman_matches_the_oracle(case):
    """Within 16 ulps of B or of F's values: F(p) rounded to a float is
    already half an ulp of F(p) off, which near p = q is many ulps of B
    (3e-11 of it at gap 0.01 for exp at 0.3)."""
    f, M, N = case
    F = MODELS[f]
    assert midpoint_verdict(F, M, N).verdict is Verdict.CONVEX
    for p, q in PAIRS:
        got, want = bregman(F, M, N, p, q).value, oracle_bregman(f, M, N, p, q)
        assert abs(got - want) <= 16 * EPS * (abs(want) + abs(F.value(p)) + abs(F.value(q))), (p, q)
        if abs(p - q) >= max(p, q) / 2.0:
            assert rel_error(got, want) < 1e-14, (p, q)


def test_lehmer_bregman_of_a_certified_pair_is_the_tangent_limit():
    F = MODELS["x^2"]
    assert midpoint_verdict(F, lehmer(0.0), lehmer(1.0)).verdict is Verdict.CONVEX
    got = lehmer_bregman(F, 0.0, 1.0, 0.5, 0.9)
    assert got == pytest.approx(1.4144, rel=1e-13)
    assert rel_error(got, oracle_bregman("x^2", lehmer(0.0), lehmer(1.0), 0.9, 0.5)) < 1e-13


def test_lehmer_bregman_is_bregman_anchored_at_p():
    F = MODELS["x^2+exp(x)"]
    got = lehmer_bregman(F, 0.0, 1.0, 1.0, 2.0)
    assert got == bregman(F, lehmer(0.0), lehmer(1.0), 2.0, 1.0).value
    assert got == pytest.approx(18.7772, rel=1e-5)
    assert rel_error(got, oracle_bregman("x^2+exp(x)", lehmer(0.0), lehmer(1.0), 2.0, 1.0)) < 1e-13


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_bccd_numeric_converges_to_bregman(case):
    f, M, N = case
    F = MODELS[f]
    for p, q in ((2.0, 1.0), (0.6, 3.5)):
        limit = bregman(F, M, N, p, q).value
        errors = np.abs(np.array(bccd_numeric(F, M, N, p, q, (1e-2, 1e-3, 1e-4, 1e-5))) - limit)
        # the approximants are off by O(1 - alpha): each error a tenth of the last
        assert np.all(errors[1:] < 0.15 * errors[:-1]) and errors[-1] < 1e-3 * limit, (p, q, errors)


@settings(deadline=None, max_examples=200)
@given(case=st.sampled_from(CASES), s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
def test_bregman_is_nonnegative_on_certified_pairs(case, s, t):
    f, M, N = case
    lo, hi = MODELS[f].domain.finite_window()
    p, q = lo * (hi / lo) ** s, lo * (hi / lo) ** t
    assert bregman(MODELS[f], M, N, p, q).value >= 0.0


#: (rho, tau) of the quasi-arithmetic pairs (A, A), (G, A), (G, G) and (H, A)
QA_TRIPLES = [(IDENTITY, IDENTITY), (LOG, IDENTITY), (LOG, LOG), (RECIPROCAL, IDENTITY)]


@pytest.mark.parametrize("rho,tau", QA_TRIPLES, ids=["A,A", "G,A", "G,G", "H,A"])
def test_bregman_is_qabd_bit_for_bit_under_quasi_arithmetic_means(rho, tau):
    F = MODELS["x^2+exp(x)"]
    spec = QabdSpec(F, rho, tau)
    rng = np.random.default_rng(31)
    for p, q in rng.uniform(*DOMAIN, (200, 2)).tolist():
        assert bregman(F, quasi_arithmetic(rho), quasi_arithmetic(tau), p, q) == qabd(spec, p, q)


def test_a_gini_tangent_refuses_a_nonpositive_argument():
    F = function_model("x^2", (-1.0, 5.0), np.square, lambda x: 2.0 * x)
    with pytest.raises(DomainError, match=r"-0\.5 outside domain Interval\(lo=0\.0, hi=inf\) of the lehmer:1 mean"):
        bregman(F, lehmer(1.0), ARITHMETIC, 2.0, -0.5, verdict=TRUSTED_CONVEX)


@pytest.mark.parametrize("M,N", [(stolarsky(2.0), ARITHMETIC), (GEOMETRIC, lagrange(LOG))])
def test_means_without_weighted_forms_are_refused(M, N):
    with pytest.raises(UnsupportedWeights):
        bregman(MODELS["x^2"], M, N, 1.0, 2.0, verdict=TRUSTED_CONVEX)
