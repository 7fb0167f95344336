import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle

from cdt import convexity, generators
from cdt.centroids import bregman_centroid
from cdt.divergences import QabdSpec, WeightedSet, qabd
from cdt.errors import DomainError, ParamError, ParseError
from cdt.expr import (
    Bin,
    Call,
    Neg,
    Num,
    Var,
    compile_expression,
    expression_generator,
    expression_model,
    parse_expression,
)
from cdt.expr import _compile
from cdt.generators import EXP, IDENTITY, LOG, RECIPROCAL, Interval, _invert_monotone, get_generator
from cdt.quadrature import _Pointwise

class TestParsing:
    def test_power_node(self):
        ast = parse_expression("x^2")
        assert isinstance(ast, Bin) and ast.op == "^"
        assert isinstance(ast.left, Var) and isinstance(ast.right, Num)

    def test_call_node(self):
        ast = parse_expression("exp(x*x)")
        assert isinstance(ast, Call) and ast.fn == "exp"
        assert isinstance(ast.arg, Bin) and ast.arg.op == "*"

    def test_right_associative_power(self):
        assert compile_expression("2^3^2")(0.0) == pytest.approx(512.0)

    def test_precedence(self):
        assert compile_expression("2+3*4")(0.0) == pytest.approx(14.0)
        assert compile_expression("(2+3)*4")(0.0) == pytest.approx(20.0)
        assert compile_expression("2-3-1")(0.0) == pytest.approx(-2.0)

    def test_unary_minus(self):
        assert compile_expression("-x")(3.0) == pytest.approx(-3.0)
        assert compile_expression("--x")(3.0) == pytest.approx(3.0)
        # per the grammar, '-' binds the atom before '^' applies
        assert compile_expression("-x^2")(3.0) == pytest.approx(9.0)

    def test_scientific_notation(self):
        assert compile_expression("1.5e-3 + x")(0.0) == pytest.approx(1.5e-3)

    def test_parse_error_offset_and_expected(self):
        with pytest.raises(ParseError) as ei:
            parse_expression("x +* 2")
        assert ei.value.offset == 3
        assert "number" in ei.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as ei:
            parse_expression("sin(x)")
        assert ei.value.offset == 0

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError) as ei:
            parse_expression("exp(x")
        assert ei.value.expected == (")",)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("x 2")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_expression("   ")


class TestEvaluation:
    @pytest.mark.parametrize(
        "text,ref",
        [
            ("log(x)", math.log),
            ("exp(x)", math.exp),
            ("sqrt(x)", math.sqrt),
            ("abs(x)", abs),
            ("1/x", lambda x: 1.0 / x),
            ("x^3", lambda x: x**3),
        ],
    )
    def test_matches_reference(self, text, ref, rng):
        f = compile_expression(text)
        for x in rng.uniform(0.1, 10.0, 40):
            assert f(float(x)) == pytest.approx(ref(float(x)), rel=1e-15, abs=1e-300)

    def test_vectorized(self):
        f = compile_expression("exp(x) + x^2")
        xs = np.array([0.0, 1.0, 2.0])
        out = np.asarray(f(xs))
        assert out.shape == xs.shape

    def test_expression_matches_builtin_generators(self, rng):
        pairs = [("log(x)", LOG), ("exp(x)", EXP), ("x", IDENTITY)]
        for text, gen in pairs:
            f = compile_expression(text)
            for x in rng.uniform(0.2, 8.0, 64):
                assert float(f(float(x))) == pytest.approx(gen.value(float(x)), rel=1e-15)


class TestExpressionGenerator:
    def test_recognized_forms(self):
        assert expression_generator("log(x)") is LOG
        assert expression_generator("exp(x)") is EXP
        assert expression_generator("x") is IDENTITY
        assert expression_generator("1/x") is RECIPROCAL
        assert expression_generator("x^2").id == "power:2"

    @pytest.mark.parametrize(
        "text, want",
        [
            ("(x)^2", "power:2"),
            ("x^(2)", "power:2"),
            ("x ^ -2", "power:-2"),
            ("x^(1/2)", "power:0.5"),
            ("sqrt((x))", "power:0.5"),
            ("log((x))", "log"),
            ("exp( x )", "exp"),
            ("((x))", "identity"),
            ("1/(x)", "reciprocal"),
            ("(-1)/x", "reciprocal"),
            ("-(1.0/x)", "reciprocal"),
        ],
    )
    def test_recognized_on_the_tree_not_the_text(self, text, want):
        assert expression_generator(text).id == want
        assert expression_generator(text) is get_generator(want)

    @pytest.mark.parametrize("text", ["x^x", "x^(x-x)", "x^(0*2)", "2/x", "log(2*x)", "x^(1/0)"])
    def test_other_trees_are_not_built_in(self, text):
        with pytest.raises(ParamError, match="not a recognized form"):
            expression_generator(text)

    def test_built_in_form_outside_its_domain_is_an_expression(self):
        gen = expression_generator("x ^ 3", (-2.0, 2.0))
        assert gen.id == "expr:x^3"
        assert gen.inv(gen.value(-1.5)) == pytest.approx(-1.5, abs=1e-12)

    def test_unparseable_text(self):
        with pytest.raises(ParamError, match="not a recognized form"):
            expression_generator("foo")
        with pytest.raises(ParseError):
            expression_generator("foo", (0.1, 5.0))

    def test_custom_monotone(self):
        gen = expression_generator("x + x^3", (0.1, 10.0))
        for x in (0.5, 2.0, 7.0):
            assert gen.inv(gen.value(x)) == pytest.approx(x, abs=1e-10)

    def test_decreasing_expression_normalized(self):
        gen = expression_generator("-x", (0.1, 10.0))
        assert gen.value(2.0) == pytest.approx(2.0)  # increasing representative

    def test_non_monotone_rejected(self):
        with pytest.raises(ParamError):
            expression_generator("x^2", (-2.0, 2.0))

    def test_unrecognized_needs_domain(self):
        with pytest.raises(ParamError):
            expression_generator("x + exp(x)")

    def test_x_to_the_zero_is_not_a_generator(self):
        # x^0 is the constant 1, not the geometric (log) limit of x^d
        with pytest.raises(ParamError, match="not a recognized form"):
            expression_generator("x^0")
        with pytest.raises(ParamError, match="not strictly monotone"):
            expression_generator("x^0", (0.1, 5.0))

    def test_exact_derivative(self):
        gen = expression_generator("x + x^3", (0.1, 10.0))
        assert gen.deriv(2.0) == 13.0
        gen = expression_generator("-x - exp(x)", (0.1, 10.0))  # decreasing: negated
        assert gen.deriv(1.0) == pytest.approx(1.0 + math.e, rel=1e-15)


class TestExpressionModel:
    def test_analytic_derivative_for_powers(self):
        F = expression_model("x^2", Interval(-5.0, 5.0))
        assert F.deriv(1.0) == pytest.approx(2.0, rel=1e-15)

    def test_exact_derivative_of_sum(self):
        F = expression_model("exp(x) + x^2", Interval(-2.0, 2.0))
        assert F.deriv(0.5) == pytest.approx(math.exp(0.5) + 1.0, rel=1e-15)

    def test_finiteness_check(self):
        with pytest.raises(DomainError):
            expression_model("1/x", Interval(-1.0, 1.0))

    def test_nan_derivative_is_a_domain_error(self):
        F = expression_model("abs(x)^0.5", (-1.0, 1.0))
        assert F.value(0.0) == 0.0
        with pytest.raises(DomainError, match=r"derivative of 'abs\(x\)\^0.5' is undefined at 0.0"):
            F.deriv(np.array([0.5, 0.0]))
        gen = expression_generator("x*abs(x)^0.5", (-1.0, 1.0))  # sign(x) |x|^1.5
        assert gen.deriv(0.25) == 0.75
        with pytest.raises(DomainError, match=r"derivative of generator 'expr:x\*abs\(x\)\^0.5' is undefined"):
            gen.deriv(0.0)


#: (expression, domain): one case per rule of differentiation
RULES = [
    ("3", (-2.0, 2.0)),  # constant
    ("x", (-2.0, 2.0)),
    ("-exp(x)", (-2.0, 2.0)),  # unary minus
    ("x^2 + x", (0.1, 5.0)),
    ("x^3 - exp(-x)", (0.1, 5.0)),
    ("x*exp(x)", (0.1, 3.0)),
    ("exp(x)/(2+x)", (0.1, 3.0)),  # quotient
    ("1/x", (0.1, 5.0)),  # constant numerator
    ("x/3", (0.1, 5.0)),  # constant denominator
    ("x^2.5", (0.1, 5.0)),  # u^c
    ("(1+x^2)^-1.5", (0.1, 3.0)),
    ("x^-2", (-4.0, -0.5)),  # u^c on a negative domain, no log(x)
    ("2^x", (-2.0, 3.0)),  # c^v
    ("x^x", (0.5, 3.0)),  # u^v
    ("exp(2*x)", (-2.0, 2.0)),
    ("log(1+x^2)", (0.1, 3.0)),
    ("sqrt(1+x^2)", (0.1, 3.0)),
    ("abs(x^3)", (-3.0, -0.5)),
]


@pytest.mark.parametrize("text,domain", RULES, ids=[t for t, _ in RULES])
def test_derivative_rules_match_mpmath(text, domain):
    F, exact = expression_model(text, domain), oracle.expression(text)
    assert not isinstance(F.eval, _Pointwise) and not isinstance(F.derivative, _Pointwise)
    xs = np.linspace(*domain, 11)[1:-1]
    got = F.deriv(xs)
    for x, d in zip(xs, got):
        want = oracle.mp.diff(exact, oracle.mp.mpf(float(x)))
        assert abs(d - want) <= 1e-13 * abs(want)


#: the closed forms the expression derivative replaced, bit for bit
CLOSED_FORMS = [
    ("x", np.ones_like),
    ("exp(x)", np.exp),
    ("log(x)", lambda x: 1.0 / x),
    ("sqrt(x)", lambda x: 0.5 / np.sqrt(x)),
    ("1/x", lambda x: -1.0 / x**2),
    ("x^2", lambda x: 2.0 * x**1.0),
    ("x^-2", lambda x: -2.0 * x**-3.0),
    ("x^0.5", lambda x: 0.5 * x**-0.5),
    ("x^3.7", lambda x: 3.7 * x**2.7),
]


@pytest.mark.parametrize("text,closed", CLOSED_FORMS, ids=[t for t, _ in CLOSED_FORMS])
def test_derivative_keeps_closed_form_bits(text, closed, rng):
    xs = np.exp(rng.uniform(-5.0, 5.0, 10_000))
    F = expression_model(text, (1e-3, 200.0))
    assert F.deriv(xs).tolist() == closed(xs).tolist()


def test_no_expression_uses_finite_differences(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("finite_difference called")

    monkeypatch.setattr(generators, "finite_difference", refuse)
    monkeypatch.setattr(convexity, "finite_difference", refuse)
    xs = np.array([0.3, 1.0, 2.2])
    for text, domain in RULES:
        lo, hi = domain
        expression_model(text, domain).deriv(lo + (hi - lo) * xs / 2.5)
    for text in ("x + x^3", "-x - exp(x)", "x*exp(x)", "sqrt(x) + log(x)"):
        expression_generator(text, (0.1, 2.5)).deriv(xs)
    spec = QabdSpec(expression_model("exp(x^2)", (0.1, 2.5)), IDENTITY, LOG)
    assert qabd(spec, 2.0, 1.0).value > 0.0
    assert bregman_centroid(spec, WeightedSet.uniform(xs)) > 0.0


@settings(deadline=None, max_examples=60)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(0.1, 5, allow_nan=False),
    x=st.floats(0.1, 8, allow_nan=False),
)
def test_linear_expression_property(a, b, x):
    f = compile_expression(f"{a!r} + {b!r}*x")
    assert float(f(x)) == pytest.approx(a + b * x, rel=1e-12, abs=1e-12)


def test_an_unknown_character_names_its_offset_and_the_expected_tokens():
    with pytest.raises(ParseError) as err:
        parse_expression("x $ 2")
    assert (err.value.offset, err.value.expected) == (2, ("number", "name", "operator"))


def test_a_generator_expression_not_finite_on_its_domain_names_the_point():
    with pytest.raises(DomainError, match="'1/x' is undefined at 0.0"):
        expression_generator("1/x", (-1.0, 1.0))


@pytest.mark.parametrize("text, domain", [("x^3 + x", (-2.0, 2.0)), ("-exp(-x)", (-3.0, 3.0)), ("1/(1+x)", (0.0, 10.0))])
def test_expression_generator_values_and_inverses_are_the_compiled_closures(text, domain):
    gen = expression_generator(text, domain)
    node = parse_expression(text)
    f = _compile(node)[0]
    lo, hi = Interval(*domain).finite_window()
    with np.errstate(all="ignore"):
        if f(hi) < f(lo):  # the increasing representative
            f = _compile(Neg(node))[0]
        xs = np.linspace(lo, hi, 101)
        ys = np.linspace(float(f(lo)), float(f(hi)), 101)
        assert gen.value(xs).tobytes() == np.asarray(f(xs), dtype=float).tobytes()
        assert gen.inv(ys).tobytes() == _invert_monotone(f, ys, lo, hi, 1e-14).tobytes()
