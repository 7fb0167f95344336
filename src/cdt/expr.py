"""Tiny expression language for user-supplied scalar functions.

Grammar (whitespace insensitive, ``^`` right-associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' factor)?
    atom   := number | 'x' | func '(' expr ')' | '(' expr ')' | '-' atom
    func   := exp | log | sqrt | abs

The AST is compiled once into numpy closures, mapping arrays elementwise, of
the function and its exact derivative by the rules of differentiation
(Griewank and Walther, *Evaluating Derivatives*, SIAM 2008, ch. 1).
Well-known forms (x, log(x), exp(x), x^d, ...) are recognized as built-in
generators; other monotone expressions get a bisection inverse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .convexity import FunctionModel, function_model
from .errors import DomainError, ParamError, ParseError
from .generators import EXP, IDENTITY, LOG, RECIPROCAL, Generator, Interval, power_generator
from .generators import _apply, _first, _invert_monotone, _monotone_direction

FUNCTIONS = ("exp", "log", "sqrt", "abs")
_VALUE_START = ("number", "x") + FUNCTIONS + ("(", "-")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[a-zA-Z_]+)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Var, Neg, Bin, Call]


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while m := _TOKEN_RE.match(text, pos):  # every match consumes a token
        tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    if rest := text[pos:].lstrip():
        bad = len(text) - len(rest)
        raise ParseError(f"unexpected character {text[bad]!r}", bad, ("number", "name", "operator"))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        self.i += 1
        return self.tokens[self.i - 1]

    def _accept(self, op: str) -> bool:
        """Consume the current token if it is the operator ``op``."""
        if self.current.kind == "op" and self.current.text == op:
            self.i += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept(op):
            tok = self.current
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.offset, (op,))

    def parse(self) -> Node:
        node = self.expr()
        tok = self.current
        if tok.kind != "end":
            expected = ("+", "-", "*", "/", "^", "end")
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset, expected)
        return node

    def _left_assoc(self, ops: str, operand) -> Node:
        node = operand()
        while self.current.kind == "op" and self.current.text in ops:
            node = Bin(self._advance().text, node, operand())
        return node

    def expr(self) -> Node:
        return self._left_assoc("+-", self.term)

    def term(self) -> Node:
        return self._left_assoc("*/", self.factor)

    def factor(self) -> Node:
        node = self.atom()
        return Bin("^", node, self.factor()) if self._accept("^") else node  # right associative

    def atom(self) -> Node:
        tok = self.current
        if tok.kind == "number":
            self._advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self._advance()
            if tok.text == "x":
                return Var()
            if tok.text in FUNCTIONS:
                self._expect_op("(")
                arg = self.expr()
                self._expect_op(")")
                return Call(tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset, ("x",) + FUNCTIONS)
        if self._accept("("):
            node = self.expr()
            self._expect_op(")")
            return node
        if self._accept("-"):
            return Neg(self.atom())
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.offset, _VALUE_START)


def parse_expression(text: str) -> Node:
    """Parse ``text`` into an AST; raises ParseError with offset and expected set."""
    if not text.strip():
        raise ParseError("empty expression", 0, _VALUE_START)
    return _Parser(text).parse()


_CALLS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs}
#: (f(u))' of each function from u and u'
_CALL_RULES = {
    "exp": lambda u, du: np.exp(u) * du,
    "log": lambda u, du: du / u,
    "sqrt": lambda u, du: 0.5 / np.sqrt(u) * du,
    "abs": lambda u, du: np.sign(u) * du,
}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def _sum(a, b):
    """The closure of a(x) + b(x), where None stands for 0."""
    return (a or b) if a is None or b is None else (lambda x: a(x) + b(x))


def _rules(node: Node):
    """(f, f') for the AST: numpy closures of x, f' by the rules of
    differentiation, or None for a subtree without x (f' = 0)."""
    if isinstance(node, Num):
        return (lambda x, value=node.value: value), None
    if isinstance(node, Var):
        return (lambda x: x), np.ones_like
    if isinstance(node, Neg):
        f, df = _rules(node.child)
        return (lambda x: np.negative(f(x))), df and (lambda x: np.negative(df(x)))
    if isinstance(node, Call):
        fn, rule = _CALLS[node.fn], _CALL_RULES[node.fn]
        u, du = _rules(node.arg)
        return (lambda x: fn(u(x))), du and (lambda x: rule(u(x), du(x)))
    op, (u, du), (v, dv) = _BINARY[node.op], _rules(node.left), _rules(node.right)
    f = lambda x: op(u(x), v(x))
    if node.op in "+-":
        return f, _sum(du, dv if node.op == "+" else dv and (lambda x: np.negative(dv(x))))
    if node.op == "*":
        return f, _sum(du and (lambda x: du(x) * v(x)), dv and (lambda x: u(x) * dv(x)))
    if node.op == "/":
        dquot = dv and (lambda x: np.negative(u(x) * dv(x)) / v(x) ** 2)
        return f, _sum(du and (lambda x: du(x) / v(x)), dquot)
    if dv is None:  # u^c, c free of x
        with np.errstate(all="ignore"):
            c = float(v(0.0))
        return f, du and (lambda x: (c * u(x) ** (c - 1.0)) * du(x))
    # u^v = exp(v log u)
    dlog = _sum(lambda x: dv(x) * np.log(u(x)), du and (lambda x: v(x) * du(x) / u(x)))
    return f, lambda x: f(x) * dlog(x)


def _compile(node: Node):
    """(F, F'): numpy closures of x for the AST, F' exact by the rules of
    differentiation.  A constant expression maps x to arrays shaped like x.
    The closures run numpy unguarded: call them under an errstate."""
    f, df = _rules(node)
    if df is None:
        return (lambda x: np.full(np.shape(x), f(x))), (lambda x: np.zeros(np.shape(x)))
    return f, df


def compile_expression(text: str):
    """Parse and compile once; returns a callable of x (float or ndarray)."""
    fn = _compile(parse_expression(text))[0]
    return lambda x: _apply(fn, x, repr(text))


def expression_model(text: str, domain: Interval | tuple[float, float], id: str | None = None) -> FunctionModel:
    """FunctionModel from expression text, finiteness-checked on its domain,
    with the exact derivative of the expression."""
    return function_model(id or text.strip(), domain, *_compile(parse_expression(text)))


_BUILTIN_FORMS = {
    Var(): IDENTITY,
    Call("log", Var()): LOG,
    Call("exp", Var()): EXP,
    Call("sqrt", Var()): power_generator(0.5),
    Bin("/", Num(1.0), Var()): RECIPROCAL,
    Bin("/", Neg(Num(1.0)), Var()): RECIPROCAL,
    Neg(Bin("/", Num(1.0), Var())): RECIPROCAL,
}


def _builtin_form(node: Node) -> Generator | None:
    """The built-in generator an AST spells, if any: the trees of
    ``_BUILTIN_FORMS``, or x^c with c free of x, finite and nonzero."""
    if node in _BUILTIN_FORMS:
        return _BUILTIN_FORMS[node]
    if isinstance(node, Bin) and node.op == "^" and node.left == Var():
        c, dc = _rules(node.right)
        if dc is None:
            with np.errstate(all="ignore"):
                c = float(c(0.0))
            if np.isfinite(c) and c != 0.0:  # x^0 is constant, not the log limit
                return power_generator(c)
    return None


def expression_generator(text: str, domain: Interval | tuple[float, float] | None = None) -> Generator:
    """Generator from expression text.

    Recognized forms (x, log(x), exp(x), 1/x, sqrt(x), x^d with d != 0,
    matched on the parsed tree, so (x)^2 is x^2) give built-in generators
    when they fit the domain; other strictly monotone expressions get their
    exact derivative and a bisection inverse on the given domain (required
    then).
    """
    if domain is not None and not isinstance(domain, Interval):
        domain = Interval(float(domain[0]), float(domain[1]))
    try:
        node = parse_expression(text)
    except ParseError:
        if domain is not None:
            raise
        node = None  # reported as an unrecognized form below
    gen = None if node is None else _builtin_form(node)
    if gen is not None and (domain is None or (gen.domain.lo <= domain.lo and domain.hi <= gen.domain.hi)):
        return gen
    if domain is None:
        raise ParamError(f"expression generator {text!r} is not a recognized form; a finite domain is required")
    f, df = _compile(node)
    # reads f when called: after a decreasing scan, the increasing representative
    finite = lambda x: _apply(f, x, repr(text), None, lambda v: ~np.isfinite(v))
    lo, hi = domain.finite_window()
    direction, (xs, ys) = _monotone_direction(finite, lo, hi, 65)
    if direction == 0:
        raise ParamError(f"expression {text!r} is not strictly monotone on {domain}")
    if direction < 0:  # the increasing representative, whose values negate exactly
        f, df = _compile(Neg(node))
        ys = -ys
    flo, fhi = float(ys[0]), float(ys[-1])

    def inverse(y):
        y = np.asarray(y, dtype=float)
        outside = ~((flo <= y) & (y <= fhi))
        if outside.any():
            raise DomainError(f"{_first(y, outside)!r} outside the image of {text!r} on {domain}")
        return _invert_monotone(finite, y, lo, hi, 1e-14, (xs, ys))

    canon = re.sub(r"\s+", "", text)
    return Generator(f"expr:{canon}", domain, f, inverse, df)
