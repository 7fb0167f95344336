"""Independent numpy references for every output the benchmark checks.

Nothing here imports cdt: each formula is written from its definition
(closed forms, continuous limits at zero masses, exact per-bin sums), so a
change to cdt cannot move a reference along with the value it checks.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------- generators
# name -> (value, derivative, inverse), all increasing representatives.


def generator(name: str):
    if name == "identity":
        return (lambda x: np.asarray(x, float), lambda x: np.ones_like(np.asarray(x, float)), lambda y: y)
    if name == "log":
        return (np.log, lambda x: 1.0 / np.asarray(x, float), np.exp)
    if name.startswith("power:"):
        d = float(name.split(":", 1)[1])
        if d > 0.0:
            return (lambda x: np.asarray(x, float) ** d, lambda x: d * np.asarray(x, float) ** (d - 1.0),
                    lambda y: np.asarray(y, float) ** (1.0 / d))
    raise ValueError(f"no reference generator {name!r}")


#: F -> (value, analytic derivative)
FUNCTIONS = {
    "x^2": (lambda x: np.asarray(x, float) ** 2, lambda x: 2.0 * np.asarray(x, float)),
    "exp(x)": (np.exp, np.exp),
    "exp(x^2)": (lambda x: np.exp(np.asarray(x, float) ** 2),
                 lambda x: 2.0 * np.asarray(x, float) * np.exp(np.asarray(x, float) ** 2)),
}


def qabd(F: str, rho: str, tau: str, p, q) -> np.ndarray:
    """B(p:q) = (tau(F(p)) - tau(F(q)))/tau'(F(q)) - (rho(p) - rho(q))/rho'(q) * F'(q)."""
    f, df = FUNCTIONS[F]
    r, dr, _ = generator(rho)
    t, dt, _ = generator(tau)
    p, q = np.asarray(p, float), np.asarray(q, float)
    fq = f(q)
    return (t(f(p)) - t(fq)) / dt(fq) - (r(p) - r(q)) / dr(q) * df(q)


def centroid_residual(F: str, rho: str, tau: str, points, weights, c: float) -> float:
    """d/dc of sum_i w_i B(c : p_i), divided by the total positive part."""
    f, df = FUNCTIONS[F]
    _, dr, _ = generator(rho)
    _, dt, _ = generator(tau)
    x, w = np.asarray(points, float), np.asarray(weights, float)
    left = float(dt(f(c)) * df(c)) * float(np.sum(w / dt(f(x))))
    right = float(dr(c)) * float(np.sum(w * df(x) / dr(x)))
    return (left - right) / max(abs(left), abs(right), 1e-300)


def centroid_ok(F: str, rho: str, tau: str, points, weights, c: float, rel: float = 1e-6) -> bool:
    """The gradient of the centroid objective vanishes at c: it is tiny there
    or changes sign across c +- rel*|c|."""
    if abs(centroid_residual(F, rho, tau, points, weights, c)) <= 1e-9:
        return True
    h = rel * max(abs(c), 1e-12)
    lo = centroid_residual(F, rho, tau, points, weights, c - h)
    hi = centroid_residual(F, rho, tau, points, weights, c + h)
    return lo <= 0.0 <= hi or hi <= 0.0 <= lo


def jensen_information(F: str, rho: str, tau: str, points) -> float:
    """tau^{-1}(mean tau(F(x))) - F(rho^{-1}(mean rho(x))) for uniform weights."""
    f, _ = FUNCTIONS[F]
    r, _, rinv = generator(rho)
    t, _, tinv = generator(tau)
    x = np.asarray(points, float)
    return float(tinv(np.mean(t(f(x))))) - float(f(rinv(np.mean(r(x)))))


# ------------------------------------------------- barycentric means on masses


def bary(spec: str, A, B, alpha: float, zero_limit: bool = True) -> np.ndarray:
    """M(a, b; 1-alpha, alpha) elementwise on nonnegative arrays.

    With ``zero_limit`` a zero argument takes the continuous limit of the
    mean; without it every entry with a zero argument is 0 (the value a
    zero-substituting implementation returns).
    """
    A, B = np.asarray(A, float), np.asarray(B, float)
    w0, w1 = 1.0 - alpha, alpha
    both = (A > 0.0) & (B > 0.0)
    a = np.where(both, A, 1.0)
    b = np.where(both, B, 1.0)
    fam, _, arg = spec.partition(":")
    if spec == "qa:identity":
        val = w0 * a + w1 * b
        limit = w0 * A + w1 * B
    elif spec == "qa:log":
        val = a**w0 * b**w1
        limit = np.zeros_like(A)
    elif spec == "qa:reciprocal":
        val = 1.0 / (w0 / a + w1 / b)
        limit = np.zeros_like(A)
    elif fam == "power":
        d = float(arg)
        val = (w0 * a**d + w1 * b**d) ** (1.0 / d)
        limit = (w0 * A**d + w1 * B**d) ** (1.0 / d) if d > 0.0 else np.zeros_like(A)
    elif fam == "lehmer" and float(arg) < 0.0:
        d = float(arg)
        val = (w0 * a ** (d + 1.0) + w1 * b ** (d + 1.0)) / (w0 * a**d + w1 * b**d)
        limit = np.zeros_like(A)
    elif spec == "gini:1:1":
        t0, t1 = w0 * a, w1 * b
        val = np.exp((t0 * np.log(a) + t1 * np.log(b)) / (t0 + t1))
        limit = np.maximum(A, B)
    else:
        raise ValueError(f"no reference mean {spec!r}")
    val = np.minimum(np.maximum(val, np.minimum(a, b)), np.maximum(a, b))
    if not zero_limit:
        limit = np.zeros_like(A)
    return np.where(both, val, np.where((A > 0.0) | (B > 0.0), limit, 0.0))


def coefficient(spec: str, p, q, alpha: float, zero_limit: bool = True) -> float:
    return math.fsum(bary(spec, p, q, alpha, zero_limit).tolist())


def cmbd(M: str, N: str, p, q, alpha: float) -> float:
    return -math.log(coefficient(M, p, q, alpha) / coefficient(N, p, q, alpha))


# ------------------------------------------------------------------ densities


def cauchy_ha(s1: float, s2: float, alpha: float) -> float:
    """Harmonic/arithmetic distance of centered Cauchy densities, log(ab)/2."""
    a = (1.0 - alpha) / s1 + alpha / s2
    b = (1.0 - alpha) * s1 + alpha * s2
    return 0.5 * math.log(a * b)


def cauchy_geometric_coefficient(s1: float, s2: float, alpha: float, nodes: int = 400) -> float:
    """integral p^(1-alpha) q^alpha over the real line, by Gauss-Legendre after
    x = s tan(theta), which maps Cauchy tails onto a smooth finite integrand."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * t
    s = math.sqrt(s1 * s2)
    x = s * np.tan(theta)
    jac = s / np.cos(theta) ** 2
    p = s1 / (math.pi * (x * x + s1 * s1))
    q = s2 / (math.pi * (x * x + s2 * s2))
    return float(0.5 * math.pi * np.dot(w, p ** (1.0 - alpha) * q**alpha * jac))


def histogram_geometric_coefficient(edges, m1, m2, alpha: float) -> float:
    width = np.diff(np.asarray(edges, float))
    h1, h2 = np.asarray(m1, float) / width, np.asarray(m2, float) / width
    return math.fsum((width * h1 ** (1.0 - alpha) * h2**alpha).tolist())


def histogram_expected(edges, masses, gen: str) -> float:
    """f^{-1} of the exact integral of f against a piecewise-constant density."""
    e = np.asarray(edges, float)
    h = np.asarray(masses, float) / np.diff(e)
    if gen == "log":
        anti = e * np.log(e) - e
        return math.exp(math.fsum((h * np.diff(anti)).tolist()))
    if gen == "reciprocal":
        moment = math.fsum((-h * np.log(e[1:] / e[:-1])).tolist())
        return -1.0 / moment
    raise ValueError(f"no reference expectation for {gen!r}")


def close(value: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - want) <= max(abs_, rel * max(abs(want), abs(value)))
