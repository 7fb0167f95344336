"""The test suite's 50-digit reference, and its only mpmath import.

Values are computed on the exact float inputs.  ``tests/test_oracle.py``
pins each construction here to a closed form it does not compute through.
"""

import operator

import mpmath

from cdt.expr import Bin, Call, Neg, Var, parse_expression

mp = mpmath.mp.clone()
mp.dps = 50


def rel_error(got, want) -> float:
    return float(abs((mp.mpf(got) - want) / want))


_GENERATORS = {
    "identity": (lambda x: x, lambda x: mp.mpf(1), lambda y: y),
    "log": (mp.log, lambda x: 1 / x, mp.exp),
    "exp": (mp.exp, mp.exp, mp.log),
    "reciprocal": (lambda x: -1 / x, lambda x: x**-2, lambda y: -1 / y),
}


def generator(name: str):
    """(f, f', f^-1) of a built-in generator id; ``power:d`` (d != 0) is the
    increasing representative sign(d) x^d."""
    if name in _GENERATORS:
        return _GENERATORS[name]
    d = mp.mpf(name.split(":")[1])
    s = 1 if d > 0 else -1
    return (lambda x: s * x**d), (lambda x: s * d * x ** (d - 1)), (lambda y: (s * y) ** (1 / d))


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}
_CALLS = {"exp": mp.exp, "log": mp.log, "sqrt": mp.sqrt, "abs": abs}


def _evaluate(node, x):
    if isinstance(node, Bin):
        return _BINARY[node.op](_evaluate(node.left, x), _evaluate(node.right, x))
    if isinstance(node, Call):
        return _CALLS[node.fn](_evaluate(node.arg, x))
    if isinstance(node, Neg):
        return -_evaluate(node.child, x)
    return x if isinstance(node, Var) else mp.mpf(node.value)


def expression(text: str):
    """The expression as a function of one mpf, through its parsed AST."""
    node = parse_expression(text)
    return lambda x: _evaluate(node, x)


def gini(d1, d2):
    """The weighted Gini mean G_{d1,d2}(x; w) of lists of mpf: the power mean
    P_d is G_{d,0} and the Lehmer mean L_d is G_{d+1,d}."""
    a, b = mp.mpf(d1), mp.mpf(d2)

    def mean(x, w):
        if d1 == d2:
            t = [wi * xi**a for xi, wi in zip(x, w)]
            return mp.exp(mp.fsum(ti * mp.log(xi) for ti, xi in zip(t, x)) / mp.fsum(t))
        ratio = mp.fsum(wi * xi**a for xi, wi in zip(x, w)) / mp.fsum(wi * xi**b for xi, wi in zip(x, w))
        return ratio ** (1 / (a - b))

    return mean


def quasi_arithmetic(name: str):
    """The weighted mean f^-1(sum w f(x)) of a generator id."""
    f, _, inv = generator(name)
    return lambda x, w: inv(mp.fsum(wi * f(xi) for xi, wi in zip(x, w)))


def stolarsky(p, x, y):
    p, x, y = mp.mpf(p), mp.mpf(x), mp.mpf(y)
    if p == 0:
        return (y - x) / (mp.log(y) - mp.log(x))
    if p == 1:
        return mp.exp((y * mp.log(y) - x * mp.log(x)) / (y - x) - 1)
    return ((y**p - x**p) / (p * (y - x))) ** (1 / (p - 1))


def cauchy(f: str, g: str, p, q):
    """(f'/g')^{-1}(f[p, q] / g[p, q]) by a root search in log(f'/g') on
    [p, q]; g = "identity" gives the Lagrange mean."""
    (F, dF, _), (G, dG, _) = generator(f), generator(g)
    p, q = mp.mpf(p), mp.mpf(q)
    target = (F(q) - F(p)) / (G(q) - G(p))
    return mp.findroot(lambda x: mp.log(dF(x) / dG(x) / target), (min(p, q), max(p, q)), solver="anderson")


def qabd(F: str, rho: str, tau: str, p, q):
    """(tau(F(p)) - tau(F(q))) / tau'(F(q)) - (rho(p) - rho(q)) F'(q) / rho'(q)."""
    F, (r, dr, _), (t, dt, _) = expression(F), generator(rho), generator(tau)
    p, q = mp.mpf(p), mp.mpf(q)
    return (t(F(p)) - t(F(q))) / dt(F(q)) - (r(p) - r(q)) / dr(q) * mp.diff(F, q)


def centroid(F: str, rho: str, tau: str, points, weights):
    """The minimizer c of sum w_i qabd(c : p_i): the root in [min p, max p]
    of h(c) = sum w'_i h(p_i) / sum w'_i, with h = tau'(F) F' / rho' and
    w'_i = w_i / tau'(F(p_i)), F' by ``mp.diff``."""
    F, (_, dr, _), (_, dt, _) = expression(F), generator(rho), generator(tau)
    p, w = [mp.mpf(v) for v in points], [mp.mpf(v) for v in weights]

    def h(x):
        return dt(F(x)) * mp.diff(F, x) / dr(x)

    if min(p) == max(p):
        return p[0]
    wp = [wi / dt(F(pi)) for pi, wi in zip(p, w)]
    target = mp.fsum(wi * h(pi) for pi, wi in zip(p, wp)) / mp.fsum(wp)
    return mp.findroot(lambda x: h(x) - target, (min(p), max(p)), solver="anderson")


def bregman(F: str, M, N, p, q):
    """B(p:q) = d/dbeta [N((F(q), F(p)); (1 - beta, beta)) - F(M((q, p); (1 - beta, beta)))]
    at beta = 0+, by ``mp.diff`` on weights in [0, 1]: the alpha -> 1 limit
    of the skew Jensen gap over alpha(1 - alpha), anchored at q."""
    F, p, q = expression(F), mp.mpf(p), mp.mpf(q)
    fp, fq = F(p), F(q)
    return mp.diff(lambda b: N([fq, fp], [1 - b, b]) - F(M([q, p], [1 - b, b])), 0, direction=1)


def jensen(F: str, M, N, p, q):
    """N(F(p), F(q)) - F(M(p, q)), M and N weighted means at weights 1/2."""
    F, half, p, q = expression(F), [mp.mpf(0.5)] * 2, mp.mpf(p), mp.mpf(q)
    return N([F(p), F(q)], half) - F(M([p, q], half))


def cauchy_density(s):
    s = mp.mpf(s)
    return lambda x: s / (mp.pi * (x * x + s * s))
