"""Pinned outputs of the bisection solver and its callers.

Every mean-value mean, expression-generator inverse and Bregman centroid
inverts a monotone function with ``generators._invert_monotone``.  The
values below were recorded when each of these callers still ran its own
bisection loop; the shared solver must reproduce them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import mp, rel_error

from cdt.centroids import bregman_centroid, kmeans_cluster
from cdt.divergences import QabdSpec, WeightedSet
from cdt.errors import NonInvertibleDerivative, NonInvertibleRatio
from cdt.expr import expression_generator, expression_model
from cdt.generators import EXP, IDENTITY, LOG, RECIPROCAL, get_generator, power_generator
from cdt.means import cauchy_mean, lagrange_mean

LAGRANGE = [
    ("log", 1.5, 7.0, 3.570396770934658),
    ("log", 9.0, 0.25, 2.4417339911617004),
    ("exp", -1.0, 2.5, 1.2165743152491735),
    ("exp", 3.0, 3.5, 3.2603950509927557),
    ("reciprocal", 0.3, 4.0, 1.0954451150103293),
    ("power:3", 0.5, 6.0, 3.6170890690351216),
    ("power:-2", 1.0, 1.7, 1.2888074110647088),
    ("power:0.5", 2.0, 50.0, 18.00000000000003),
]

CAUCHY = [
    ("log", "identity", 1.5, 7.0, 3.570396770934658),
    ("power:2", "power:3", 0.4, 5.0, 3.3530864197530996),
    ("exp", "power:2", 1.5, 3.1, 2.4797131043217293),
    ("reciprocal", "log", 2.0, 0.5, 0.9241962407465953),
    ("power:3", "reciprocal", 1.2, 9.0, 4.280319536670037),
    ("log", "power:-1.5", 0.2, 0.9, 0.37037658812317675),
]

#: (y, x) with x the inverse of x^3 + x on (0.1, 5) at y
EXPR_INVERSE = [
    (0.102, 0.10097059851184301),
    (0.5, 0.4238537990697857),
    (1.0, 0.6823278038280159),
    (2.0, 1.0000000000000036),
    (10.0, 1.9999999999999913),
    (42.0, 3.380156712489087),
    (129.9, 4.998683868674423),
]

#: (F, domain, rho, tau, weighted centroid, k-means centres with k = 3).
#: The exp(x^2) row holds for the exact F'; test_exp_x2_centroids_match_oracle
#: checks it against the closed-form centroid.  The two rows with rho other
#: than the identity were recorded when the centroid was solved in x; in
#: rho(x) they read 2.789160741952692 and 0.9964176611871663, with centres
#: just as close to the oracle (test_centroids_match_oracle).  The first
#: centres of the last three rows lie below 1 and were recorded with the
#: solve's tolerance relative to the bracket all the way down; with it
#: relative to max(1, |bracket ends|) they read 0.704365327134493,
#: 0.6402243975979439 and 0.8658741562084045, all within 5e-13 of the
#: oracle as these are.
CLUSTER = [
    ("x^2", (0.2, 12.0), "identity", "identity", 3.546389323652038,
     (1.5693061474025045, 10.311259297968936, 5.139093022981189)),
    ("exp(x)", (0.2, 4.0), "log", "log", 2.7891607419532005,
     (0.7043653271342804, 3.1432146103898537, 1.8835879068700918)),
    ("exp(x^2)", (0.1, 2.5), "identity", "log", 2.2687072397827555,
     (0.6402243975981872, 2.3324650437170797, 1.812684174202059)),
    ("exp(x)", (0.5, 3.0), "power:2", "power:3", 0.9964176611871879,
     (0.8658741562086433, 2.014295335078231, 2.579395800598855)),
]


@pytest.mark.parametrize("gen,p,q,want", LAGRANGE)
def test_lagrange_mean_pinned(gen, p, q, want):
    assert lagrange_mean(get_generator(gen), p, q) == want


@pytest.mark.parametrize("f,g,p,q,want", CAUCHY)
def test_cauchy_mean_pinned(f, g, p, q, want):
    assert cauchy_mean(get_generator(f), get_generator(g), p, q) == want


def test_expression_inverse_pinned():
    gen = expression_generator("x^3+x", (0.1, 5))
    assert [gen.inv(y) for y, _ in EXPR_INVERSE] == [x for _, x in EXPR_INVERSE]


def _cluster_case(case):
    """The spec, points and weights of CLUSTER[case]."""
    text, (lo, hi), rho, tau = CLUSTER[case][:4]
    rng = np.random.default_rng(100 + case)
    pts = tuple(np.exp(rng.uniform(np.log(lo) + 0.05, np.log(hi) - 0.05, 24)))
    w = tuple(rng.dirichlet(np.ones(24)))
    return QabdSpec(expression_model(text, (lo, hi)), get_generator(rho), get_generator(tau)), pts, w


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
def test_centroid_and_kmeans_pinned(case):
    spec, pts, w = _cluster_case(case)
    centroid, centres = CLUSTER[case][4:]
    assert bregman_centroid(spec, WeightedSet(pts, w)) == centroid
    assert kmeans_cluster(spec, WeightedSet.uniform(pts), 3, seed=case).centers == centres


def test_exp_x2_centroids_match_oracle():
    # With F = exp(x^2), rho = identity and tau = log, G(u) = u^2 and
    # w'_i = w_i e^(p_i^2), so the centroid is sum w'_i p_i / sum w'_i.
    case = 2
    spec, pts, w = _cluster_case(case)

    def centroid(points, weights):
        wp = [mp.mpf(wi) * mp.exp(mp.mpf(p) ** 2) for p, wi in zip(points, weights)]
        return mp.fsum(wi * p for wi, p in zip(wp, points)) / mp.fsum(wp)

    assert rel_error(bregman_centroid(spec, WeightedSet(pts, w)), centroid(pts, w)) < 1e-12
    cl = kmeans_cluster(spec, WeightedSet.uniform(pts), 3, seed=case)
    for j, c in enumerate(cl.centers):
        members = [p for p, a in zip(pts, cl.assignments) if a == j]
        assert rel_error(c, centroid(members, [1.0] * len(members))) < 1e-12


@pytest.mark.parametrize("case", range(len(CLUSTER)), ids=[f"{c[0]}|{c[2]},{c[3]}" for c in CLUSTER])
def test_centroids_match_oracle(case):
    text, _, rho, tau = CLUSTER[case][:4]
    spec, pts, w = _cluster_case(case)
    assert rel_error(bregman_centroid(spec, WeightedSet(pts, w)), oracle.centroid(text, rho, tau, pts, w)) < 1e-12
    cl = kmeans_cluster(spec, WeightedSet.uniform(pts), 3, seed=case)
    for j, c in enumerate(cl.centers):
        members = [p for p, a in zip(pts, cl.assignments) if a == j]
        assert rel_error(c, oracle.centroid(text, rho, tau, members, [1.0] * len(members))) < 1e-12


#: (F, domain, rho, tau) with data far below 1, where a tolerance absolute
#: below 1 would stop the solve about 1e-7 relative off the centroid
SMALL = [
    ("exp(x)", (1e-9, 1.0), "log", "log"),
    ("exp(x^2)", (1e-9, 2.5), "identity", "log"),
    ("x^2", (1e-9, 2.5), "identity", "identity"),
]


@pytest.mark.parametrize("case", SMALL, ids=[f"{c[0]}|{c[2]},{c[3]}" for c in SMALL])
def test_centroids_of_small_points_match_oracle(case):
    text, dom, rho, tau = case
    spec = QabdSpec(expression_model(text, dom), get_generator(rho), get_generator(tau))
    rng = np.random.default_rng(7)
    pts = tuple(np.exp(rng.uniform(np.log(1e-7), np.log(1e-6), 15)))
    w = tuple(rng.dirichlet(np.ones(15)))
    assert rel_error(bregman_centroid(spec, WeightedSet(pts, w)), oracle.centroid(text, rho, tau, pts, w)) < 1e-12
    cl = kmeans_cluster(spec, WeightedSet.uniform(pts), 2, seed=1)
    for j, c in enumerate(cl.centers):
        members = [p for p, a in zip(pts, cl.assignments) if a == j]
        assert rel_error(c, oracle.centroid(text, rho, tau, members, [1.0] * len(members))) < 1e-12


@settings(deadline=None, max_examples=80)
@given(
    f=st.sampled_from([LOG, EXP, RECIPROCAL, power_generator(3), power_generator(-2), power_generator(0.5)]),
    p=st.floats(0.01, 30.0),
    q=st.floats(0.01, 30.0),
)
def test_lagrange_is_cauchy_with_identity(f, p, q):
    try:
        want = cauchy_mean(f, IDENTITY, p, q)
    except NonInvertibleRatio:
        with pytest.raises(NonInvertibleDerivative):
            lagrange_mean(f, p, q)
        return
    assert lagrange_mean(f, p, q) == want
