"""The 50-digit oracle against closed forms it does not compute through.

Every other accuracy test compares with ``tests/oracle.py``, so an error in
the oracle itself (a wrong root bracket, a wrong AST rule) would shift them
all at once.  Each value check here holds to 1e-40.
"""

import ast
from pathlib import Path

import pytest

import oracle
from oracle import mp, rel_error

PAIRS = [(1.5, 7.0), (9.0, 0.25), (3.0, 3.0 * (1.0 + 1e-6))]


@pytest.mark.parametrize("p,q", PAIRS)
def test_lagrange_mean_of_log_is_the_logarithmic_mean(p, q):
    P, Q = mp.mpf(p), mp.mpf(q)
    assert rel_error(oracle.cauchy("log", "identity", p, q), (Q - P) / mp.log(Q / P)) < 1e-40


@pytest.mark.parametrize("p,q", PAIRS)
def test_lagrange_mean_of_the_square_is_the_midpoint(p, q):
    assert rel_error(oracle.cauchy("power:2", "identity", p, q), (mp.mpf(p) + q) / 2) < 1e-40


@pytest.mark.parametrize("p,q", [(400.0, 449.0), (-449.0, -400.0)])
def test_lagrange_mean_of_exp_is_the_log_of_its_divided_difference(p, q):
    P, Q = mp.mpf(p), mp.mpf(q)
    assert rel_error(oracle.cauchy("exp", "identity", p, q), mp.log((mp.exp(Q) - mp.exp(P)) / (Q - P))) < 1e-40


@pytest.mark.parametrize("p,q", PAIRS)
def test_stolarsky_mean_of_order_2_is_the_midpoint(p, q):
    assert rel_error(oracle.stolarsky(2, p, q), (mp.mpf(p) + q) / 2) < 1e-40


def test_gini_1_0_is_the_weighted_arithmetic_mean():
    x = [mp.mpf(v) for v in (0.1, 2.5, 7.0, 40.0)]
    w = [mp.mpf(v) / 10 for v in (1, 2, 3, 4)]
    assert rel_error(oracle.gini(1, 0)(x, w), mp.fsum(wi * xi for xi, wi in zip(x, w))) < 1e-40


@pytest.mark.parametrize("p,q", PAIRS)
def test_qabd_of_the_square_is_the_squared_gap(p, q):
    assert rel_error(oracle.qabd("x^2", "identity", "identity", p, q), (mp.mpf(p) - q) ** 2) < 1e-40


@pytest.mark.parametrize("p,q", PAIRS)
def test_bregman_of_the_square_under_arithmetic_means_is_the_squared_gap(p, q):
    A = oracle.gini(1, 0)
    assert rel_error(oracle.bregman("x^2", A, A, p, q), (mp.mpf(p) - q) ** 2) < 1e-40


@pytest.mark.parametrize("p,q", PAIRS)
def test_bregman_of_the_identity_under_geometric_and_arithmetic_means(p, q):
    P, Q = mp.mpf(p), mp.mpf(q)
    got = oracle.bregman("x", oracle.gini(0, 0), oracle.gini(1, 0), p, q)
    assert rel_error(got, P - Q - Q * mp.log(P / Q)) < 1e-40


POINTS, WEIGHTS = (0.3, 1.1, 2.0, 2.4), (0.1, 0.2, 0.3, 0.4)


def test_centroid_of_the_square_is_the_weighted_arithmetic_mean():
    want = mp.fsum(mp.mpf(p) * w for p, w in zip(POINTS, WEIGHTS)) / mp.fsum(mp.mpf(w) for w in WEIGHTS)
    assert rel_error(oracle.centroid("x^2", "identity", "identity", POINTS, WEIGHTS), want) < 1e-40


def test_centroid_of_exp_x2_under_identity_and_log_is_a_weighted_mean():
    # h(x) = 2x and w'_i = w_i exp(p_i^2), so c = sum w'_i p_i / sum w'_i
    wp = [mp.mpf(w) * mp.exp(mp.mpf(p) ** 2) for p, w in zip(POINTS, WEIGHTS)]
    want = mp.fsum(w * p for p, w in zip(POINTS, wp)) / mp.fsum(wp)
    assert rel_error(oracle.centroid("exp(x^2)", "identity", "log", POINTS, WEIGHTS), want) < 1e-40


@pytest.mark.parametrize("x", [0.1, 1.0, 4.75])
def test_expression_follows_its_ast(x):
    X = mp.mpf(x)
    assert rel_error(oracle.expression("x^2+exp(x)")(X), X**2 + mp.exp(X)) < 1e-40


def test_no_other_test_file_imports_mpmath():
    """The oracle stays the suite's one 50-digit reference, pinned here."""
    importers = set()
    for path in Path(__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "mpmath" for m in modules):
                importers.add(path.name)
    assert importers == {"oracle.py"}
