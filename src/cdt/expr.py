"""Tiny expression language for user-supplied scalar functions.

Grammar (whitespace insensitive, ``^`` right-associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' factor)?
    atom   := number | 'x' | func '(' expr ')' | '(' expr ')' | '-' atom
    func   := exp | log | sqrt | abs

The AST is compiled once into one numpy closure that maps arrays
elementwise.  Well-known forms (x, log(x), exp(x), x^d, ...) are recognized and
mapped to built-in generators with analytic derivatives; anything else falls
back to finite differences and, for generators, a bisection inverse.
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
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad, ("number", "name", "operator"))
        if m.lastgroup == "number":
            tokens.append(_Token("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "name":
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self.current
        if tok.kind == "op" and tok.text == op:
            self._advance()
            return
        raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.offset, (op,))

    def parse(self) -> Node:
        node = self.expr()
        tok = self.current
        if tok.kind != "end":
            raise ParseError(
                f"unexpected trailing input {tok.text!r}", tok.offset, ("+", "-", "*", "/", "^", "end")
            )
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self._advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self._advance().text
            node = Bin(op, node, self.factor())
        return node

    def factor(self) -> Node:
        node = self.atom()
        if self.current.kind == "op" and self.current.text == "^":
            self._advance()
            node = Bin("^", node, self.factor())  # right associative
        return node

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
            raise ParseError(
                f"unknown identifier {tok.text!r}", tok.offset, ("x",) + FUNCTIONS
            )
        if tok.kind == "op" and tok.text == "(":
            self._advance()
            node = self.expr()
            self._expect_op(")")
            return node
        if tok.kind == "op" and tok.text == "-":
            self._advance()
            return Neg(self.atom())
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.offset,
            ("number", "x") + FUNCTIONS + ("(", "-"),
        )


def parse_expression(text: str) -> Node:
    """Parse ``text`` into an AST; raises ParseError with offset and expected set."""
    if not text.strip():
        raise ParseError("empty expression", 0, ("number", "x") + FUNCTIONS + ("(", "-"))
    return _Parser(text).parse()


_CALLS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def _compile(node: Node):
    """One numpy closure of x for the AST."""
    if isinstance(node, Num):
        value = node.value
        return lambda x: value
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Neg):
        child = _compile(node.child)
        return lambda x: np.negative(child(x))
    if isinstance(node, Call):
        fn, arg = _CALLS[node.fn], _compile(node.arg)
        return lambda x: fn(arg(x))
    op, left, right = _BINARY[node.op], _compile(node.left), _compile(node.right)
    return lambda x: op(left(x), right(x))


def compile_expression(text: str):
    """Parse and compile once; returns a callable of x (float or ndarray)."""
    fn = _compile(parse_expression(text))
    return lambda x: _apply(fn, x, repr(text))


_POWER_FORM = re.compile(r"^x\^(-?\d+\.?\d*(?:[eE][+-]?\d+)?)$")


def _analytic_derivative(canon: str):
    """Analytic derivative for recognized expression forms, else None."""
    table = {
        "x": lambda x: np.ones_like(np.asarray(x, dtype=float)),
        "exp(x)": np.exp,
        "log(x)": lambda x: 1.0 / np.asarray(x, dtype=float),
        "sqrt(x)": lambda x: 0.5 / np.sqrt(x),
        "1/x": lambda x: -1.0 / np.asarray(x, dtype=float) ** 2,
    }
    if canon in table:
        return table[canon]
    m = _POWER_FORM.match(canon)
    if m:
        d = float(m.group(1))
        return lambda x: d * np.asarray(x, dtype=float) ** (d - 1.0)
    return None


def expression_model(text: str, domain: Interval | tuple[float, float], id: str | None = None) -> FunctionModel:
    """FunctionModel from expression text, finiteness-checked on its domain.

    Recognized forms (x, x^d, exp(x), log(x), sqrt(x), 1/x) carry analytic
    derivatives; everything else falls back to central finite differences.
    """
    canon = re.sub(r"\s+", "", text)
    return function_model(
        id or text.strip(), domain, compile_expression(text), _analytic_derivative(canon)
    )


_CANONICAL_GENERATORS = {
    "x": IDENTITY,
    "log(x)": LOG,
    "exp(x)": EXP,
    "1/x": RECIPROCAL,
    "-1/x": RECIPROCAL,
    "-(1/x)": RECIPROCAL,
}


def expression_generator(text: str, domain: Interval | tuple[float, float] | None = None) -> Generator:
    """Generator from expression text.

    Recognized built-in forms keep their analytic derivatives and inverses;
    other strictly monotone expressions get a finite-difference derivative
    and a bisection inverse on the given domain (required in that case).
    """
    canon = re.sub(r"\s+", "", text)
    if domain is not None and not isinstance(domain, Interval):
        domain = Interval(float(domain[0]), float(domain[1]))

    def _fits(gen: Generator) -> bool:
        return domain is None or (gen.domain.lo <= domain.lo and domain.hi <= gen.domain.hi)

    if canon in _CANONICAL_GENERATORS and _fits(_CANONICAL_GENERATORS[canon]):
        return _CANONICAL_GENERATORS[canon]
    m = _POWER_FORM.match(canon)
    if m and _fits(power_generator(float(m.group(1)))):
        return power_generator(float(m.group(1)))
    if canon == "sqrt(x)" and _fits(power_generator(0.5)):
        return power_generator(0.5)
    if domain is None:
        raise ParamError(
            f"expression generator {text!r} is not a recognized form; a finite domain is required"
        )
    fn = compile_expression(text)
    lo, hi = domain.finite_window()
    if not np.all(np.isfinite(fn(np.linspace(lo, hi, 65)))):
        raise DomainError(f"expression {text!r} is not finite on {domain}")
    direction = _monotone_direction(fn, lo, hi, 65)
    if direction == 0:
        raise ParamError(f"expression {text!r} is not strictly monotone on {domain}")
    if direction < 0:
        raw = fn
        fn = lambda x: -np.asarray(raw(x), dtype=float)  # increasing representative
    flo, fhi = float(fn(lo)), float(fn(hi))

    def inverse(y):
        y = np.asarray(y, dtype=float)
        outside = ~((flo <= y) & (y <= fhi))
        if outside.any():
            raise DomainError(f"{_first(y, outside)!r} outside the image of {text!r} on {domain}")
        return _invert_monotone(fn, y, lo, hi, 1e-14)

    return Generator(f"expr:{canon}", domain, fn, inverse, None)
