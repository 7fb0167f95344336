"""Known defects, each a strict xfail named after its ROADMAP item.

Each test asserts what its item promises, against the 50-digit oracle: no
error and 1e-12 relative, or a nonnegative divergence on a certified pair.
So each one passes, and must lose its marker, when its item lands.
"""

import pytest

import oracle
from oracle import mp, rel_error

from cdt.convexity import Verdict
from cdt.divergences import QabdSpec, jccd, midpoint_verdict, qabd
from cdt.errors import ConvexityError, QuadratureFailure
from cdt.expr import expression_model
from cdt.generators import IDENTITY
from cdt.means import ARITHMETIC, GEOMETRIC, gini, power
from cdt.quadrature import integrate

#: F of items 2 and 3, on (0.1, 5)
F = "x^2+exp(x)"
A, G = oracle.gini(1, 0), oracle.gini(0, 0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 2: qabd's closed form subtracts O(1) terms, 6.05e-5 off at gap 1e-6")
def test_item_2_qabd_of_a_near_equal_pair():
    p, q = 1.0 + 1e-6, 1.0
    got = qabd(QabdSpec(expression_model(F, (0.1, 5.0)), IDENTITY, IDENTITY), p, q).value
    assert rel_error(got, oracle.qabd(F, "identity", "identity", p, q)) < 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 3: the Jensen gap cancels to 0.0 at gap 1e-8")
def test_item_3_jccd_of_a_near_equal_pair():
    p, q = 1.0, 1.0 + 1e-8
    got = jccd(expression_model(F, (0.1, 5.0)), ARITHMETIC, ARITHMETIC, p, q).value
    assert rel_error(got, oracle.jensen(F, A, A, p, q)) < 1e-12


@pytest.mark.xfail(strict=True, raises=ConvexityError,
                   reason="item 3: a cancelled Jensen gap reads as a negative divergence, -4.272461e-04")
def test_item_3_certified_pair_raises_no_convexity_error():
    exp = expression_model("exp(x)", (20.0, 30.0))
    assert midpoint_verdict(exp, GEOMETRIC, ARITHMETIC).verdict is Verdict.CONVEX
    p, q = 26.369616873214543, 26.369616880328714
    got = jccd(exp, GEOMETRIC, ARITHMETIC, p, q).value
    assert rel_error(got, oracle.jensen("exp(x)", G, A, p, q)) < 1e-12


@pytest.mark.xfail(strict=True, raises=QuadratureFailure,
                   reason="item 4: each subinterval's budget halves, so an infinite f' at an end never converges")
def test_item_4_integral_of_sqrt_from_zero():
    assert rel_error(integrate(lambda x: x**0.5, 0.0, 1.0), mp.mpf(2) / 3) < 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 11: midpoint_verdict samples weight 1/2 only, and certifies x^2 under (P_2, G_{1/2,1/2}), "
                          "whose Bregman divergence at (2, 1) is -0.2274")
def test_item_11_a_certified_gini_pair_is_convex_at_every_weight():
    M, N = power(2.0), gini(0.5, 0.5)
    certified = midpoint_verdict(expression_model("x^2", (0.1, 5.0)), M, N).verdict is Verdict.CONVEX
    assert not certified or oracle.bregman("x^2", oracle.gini(2, 0), oracle.gini(0.5, 0.5), 2.0, 1.0) >= 0
