import math
import re

import numpy as np
import pytest

from cdt import centroids
from cdt.centroids import Clustering, bregman_centroid, cluster_information, kmeans_cluster
from cdt.convexity import function_model
from cdt.divergences import QabdSpec, WeightedSet, _anchors, qabd
from cdt.errors import AffineGeneratorWarning, LengthMismatch, NonInvertibleGradient, ParamError, WeightError
from cdt.expr import expression_model
from cdt.generators import IDENTITY, LOG, Interval, get_generator
from cdt.means import ARITHMETIC, WEIGHT_SUM_TOL, _exact_sum, weighted_mean

F_SQ = function_model("x^2", Interval(-50.0, 50.0), lambda x: np.asarray(x, float) ** 2, lambda x: 2.0 * x)
F_EXP = function_model("exp", Interval(0.2, 8.0), np.exp, np.exp)
F_EXPSQ = function_model(
    "exp(x^2)", Interval(-2.5, 2.5), lambda x: np.exp(np.asarray(x, float) ** 2),
    lambda x: 2.0 * x * np.exp(np.asarray(x, float) ** 2),
)

SPEC_SQ = QabdSpec(F_SQ, IDENTITY, IDENTITY)
SPEC_GG = QabdSpec(F_EXP, LOG, LOG)
SPEC_AG = QabdSpec(F_EXPSQ, IDENTITY, LOG)


def objective(spec, wset, c):
    return math.fsum(w * float(qabd(spec, c, p)) for p, w in zip(wset.points, wset.weights))


def golden_section(fn, lo, hi, tol=1e-10):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol * max(1.0, abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


class TestWeightedSet:
    def test_validation(self):
        with pytest.raises(WeightError, match=f"^weights must sum to 1 within {WEIGHT_SUM_TOL:g}$"):
            WeightedSet((1.0, 2.0), (0.5, 0.6))
        with pytest.raises(WeightError):
            WeightedSet((1.0, 2.0), (1.5, -0.5))
        with pytest.raises(LengthMismatch):
            WeightedSet((1.0,), (0.5, 0.5))

    def test_a_nan_weight_is_not_positive(self):
        # a NaN passes w <= 0 and leaves the sum's distance from 1 NaN
        with pytest.raises(WeightError, match="^weights must be strictly positive$"):
            WeightedSet((1.0, 2.0, 3.0), (0.5, math.nan, 0.5))
        with pytest.raises(WeightError, match="^weights must be strictly positive$"):
            weighted_mean(ARITHMETIC, (1.0, 2.0, 3.0), (0.5, math.nan, 0.5))

    def test_uniform(self):
        ws = WeightedSet.uniform((1.0, 2.0, 3.0, 4.0))
        assert ws.weights == (0.25, 0.25, 0.25, 0.25)


class TestCentroid:
    def test_squared_loss_is_weighted_mean(self):
        ws = WeightedSet.uniform((1.0, 3.0))
        assert bregman_centroid(SPEC_SQ, ws) == pytest.approx(2.0, abs=1e-9)
        ws2 = WeightedSet((1.0, 5.0), (0.25, 0.75))
        assert bregman_centroid(SPEC_SQ, ws2) == pytest.approx(4.0, abs=1e-9)

    def test_single_point(self):
        assert bregman_centroid(SPEC_GG, WeightedSet.uniform((2.5,))) == 2.5

    def test_multiplicative_matches_fine_grid_minimizer(self):
        ws = WeightedSet.uniform((1.0, 2.0, 4.0))
        c = bregman_centroid(SPEC_GG, ws)
        grid = np.arange(1.0, 4.0 + 1e-6, 1e-6)
        # vectorized objective for rho = tau = log, F = exp:
        # qabd(c:p) = e^p (c - p) - p e^p log(c/p)
        pts = np.asarray(ws.points)[:, None]
        wts = np.asarray(ws.weights)[:, None]
        vals = (wts * (np.exp(pts) * (grid[None, :] - pts) - pts * np.exp(pts) * np.log(grid[None, :] / pts))).sum(axis=0)
        best = float(grid[int(np.argmin(vals))])
        assert c == pytest.approx(best, abs=2e-6)

    def test_first_order_optimality(self, rng):
        for spec, box in ((SPEC_SQ, (-5.0, 5.0)), (SPEC_GG, (0.5, 6.0)), (SPEC_AG, (-1.8, 1.8))):
            for _ in range(15):
                n = int(rng.integers(2, 7))
                pts = rng.uniform(*box, n)
                w = rng.dirichlet(np.ones(n))
                ws = WeightedSet(tuple(pts), tuple(w))
                c = bregman_centroid(spec, ws)
                base = objective(spec, ws, c)
                span = max(pts) - min(pts) + 1e-3
                for eps in (1e-3, 1e-2):
                    for sgn in (-1.0, 1.0):
                        cand = c + sgn * eps * span
                        if spec.F.domain.contains(cand) and spec.rho.domain.contains(cand):
                            assert base <= objective(spec, ws, cand) + 1e-12

    def test_affine_reduced_generator_rejected(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AffineGeneratorWarning)
            affine = QabdSpec(F_EXP, IDENTITY, LOG)  # reduced generator is u -> u
        with pytest.raises(NonInvertibleGradient, match=r"' is not monotone on \[1\.0, 3\.0\]$"):
            bregman_centroid(affine, WeightedSet.uniform((1.0, 2.0, 3.0)))

    def test_a_non_monotone_gradient_names_the_bracket_in_data_coordinates(self):
        # G(u) = u for log x under (log, identity): h = G'(log x) is 1, and
        # the bracket named is that of the points, not [log 1, log 3]
        F = function_model("log(x)", Interval(0.0, math.inf), np.log, lambda x: 1.0 / x)
        with pytest.warns(AffineGeneratorWarning):
            affine = QabdSpec(F, LOG, IDENTITY)
        with pytest.raises(NonInvertibleGradient) as info:
            bregman_centroid(affine, WeightedSet.uniform((1.0, 2.0, 3.0)))
        assert str(info.value) == "identity'(log(x)) log(x)'/log' is not monotone on [1.0, 3.0]"

    def test_a_root_at_zero_stops_at_the_scale_of_its_bracket(self, monkeypatch):
        # A bracket that shrinks onto 0 never meets a tolerance relative to
        # its ends: this solve took all 200 levels (h at 233 points) and
        # returned -6.2e-61.  The bracket [-1, 1] holds 0, so it stops at
        # 1e-12 of 1: h at the 33 points of the scan and 41 more.
        F = function_model("x^2", (-5.0, 5.0), lambda x: x * x, lambda x: 2.0 * x)
        gradient, points = centroids._gradient, []

        def counted(spec):
            h = gradient(spec)
            return lambda x: points.append(np.size(x)) or h(x)

        monkeypatch.setattr(centroids, "_gradient", counted)
        c = bregman_centroid(QabdSpec(F, IDENTITY, IDENTITY), WeightedSet.uniform((-1.0, 1.0, -0.5, 0.5)))
        assert abs(c) <= 1e-12
        assert sum(points) <= 80

    def test_matches_golden_section(self, rng):
        for spec, box in ((SPEC_SQ, (-5.0, 5.0)), (SPEC_GG, (0.5, 6.0))):
            for _ in range(10):
                n = int(rng.integers(2, 6))
                pts = rng.uniform(*box, n)
                w = rng.dirichlet(np.ones(n))
                ws = WeightedSet(tuple(pts), tuple(w))
                c = bregman_centroid(spec, ws)
                gs = golden_section(lambda x: objective(spec, ws, x), min(pts), max(pts))
                assert c == pytest.approx(gs, abs=1e-6)


class TestKmeans:
    def test_k_equals_distinct_points_zero_objective(self):
        ws = WeightedSet.uniform((1.0, 2.0, 5.0))
        out = kmeans_cluster(SPEC_SQ, ws, 3, seed=0)
        assert out.objective == pytest.approx(0.0, abs=1e-12)
        assert sorted(out.centers) == pytest.approx([1.0, 2.0, 5.0])

    def test_k_one_matches_centroid(self):
        ws = WeightedSet.uniform((1.0, 2.0, 4.0, 9.0))
        out = kmeans_cluster(SPEC_SQ, ws, 1, seed=3)
        assert out.centers[0] == pytest.approx(bregman_centroid(SPEC_SQ, ws), abs=1e-9)

    def test_matches_exhaustive_partition_search(self):
        pts = (0.8, 1.0, 1.2, 1.4, 8.6, 9.0, 9.3, 9.7)
        ws = WeightedSet.uniform(pts)
        out = kmeans_cluster(SPEC_SQ, ws, 2, seed=0)
        best = math.inf
        n = len(pts)
        for mask in range(1, 2 ** (n - 1)):
            sides = [(mask >> i) & 1 for i in range(n)]
            obj = 0.0
            for side in (0, 1):
                sub = [p for p, s in zip(pts, sides) if s == side]
                if not sub:
                    break
                subws = WeightedSet.uniform(sub)
                c = bregman_centroid(SPEC_SQ, subws)
                obj += sum(float(qabd(SPEC_SQ, c, p)) / n for p in sub)
            else:
                best = min(best, obj)
        assert out.objective == pytest.approx(best, rel=1e-10, abs=1e-12)

    def test_objective_consistency(self):
        ws = WeightedSet.uniform((0.5, 0.8, 4.0, 4.4, 7.0))
        out = kmeans_cluster(SPEC_GG, ws, 2, seed=1)
        recomputed = math.fsum(
            w * float(qabd(SPEC_GG, out.centers[a], p))
            for p, w, a in zip(ws.points, ws.weights, out.assignments)
        )
        assert out.objective == pytest.approx(recomputed, abs=1e-10)

    def test_deterministic_for_fixed_seed(self):
        ws = WeightedSet.uniform((0.5, 0.8, 4.0, 4.4, 7.0, 7.7))
        a = kmeans_cluster(SPEC_SQ, ws, 3, seed=11)
        b = kmeans_cluster(SPEC_SQ, ws, 3, seed=11)
        assert a == b

    def test_k_validation(self):
        ws = WeightedSet.uniform((1.0, 1.0, 2.0))
        with pytest.raises(ParamError):
            kmeans_cluster(SPEC_SQ, ws, 3, seed=0)  # only 2 distinct points
        with pytest.raises(ParamError):
            kmeans_cluster(SPEC_SQ, ws, 0, seed=0)

    @pytest.mark.parametrize("k", [2.7, math.nan, True, "2"])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ParamError, match=f"^k must be an integer, got {re.escape(repr(k))}$"):
            kmeans_cluster(SPEC_SQ, WeightedSet.uniform((1.0, 2.0, 3.0)), k)

    def test_a_numpy_integer_k(self):
        ws = WeightedSet.uniform((0.5, 0.8, 4.0, 4.4, 7.0, 7.7))
        assert kmeans_cluster(SPEC_SQ, ws, np.int64(3), seed=11) == kmeans_cluster(SPEC_SQ, ws, 3, seed=11)

    def test_assignments_are_python_ints(self):
        # ints, not numpy integers: equal, hashable alike, and printed alike
        ws = WeightedSet.uniform((0.5, 0.8, 4.0, 4.4, 7.0, 7.7))
        out = kmeans_cluster(SPEC_SQ, ws, 3, seed=11)
        assert all(type(a) is int for a in out.assignments)
        assert repr(out.assignments) == repr(tuple(int(a) for a in out.assignments))
        assert sorted(set(out.assignments)) == [0, 1, 2]


def recomputing_lloyd(spec, wset, k, seed=0, sweeps=None, reseeds=None):
    """Lloyd's loop without the fixed-point stop: every sweep solves the
    centroids, rebuilds the distance matrix and re-sums the objective, and
    only the objective plateau ends it, reporting the last objective.  An
    emptied cluster takes the farthest point (the first on ties) of a
    cluster with another member.  ``sweeps`` receives each sweep's
    assignment after the reseed, ``reseeds`` the sweep of every reseed."""
    rng = np.random.default_rng(seed)
    pts = np.asarray(wset.points)
    wts = np.asarray(wset.weights)
    anchors = _anchors(spec, pts[:, None])
    centers = np.array(centroids._seed_centers(spec, anchors, pts, wts, k, rng))
    prev_obj = math.inf
    history = []
    dmat = centroids._distances(spec, anchors, centers)
    for iterations in range(1, 101):
        assign = np.argmin(dmat, axis=1)
        for j in range(k):
            if not np.any(assign == j):
                if reseeds is not None:
                    reseeds.append(iterations)
                nearest, sizes = np.min(dmat, axis=1), np.bincount(assign, minlength=k)
                assign[max((i for i in range(len(pts)) if sizes[assign[i]] > 1), key=lambda i: nearest[i])] = j
        if sweeps is not None:
            sweeps.append(tuple(int(a) for a in assign))
        sub_w = np.empty(len(pts))
        for j in range(k):
            mask = assign == j
            sub_w[mask] = wts[mask] / wts[mask].sum()
        centers = centroids._centroids(spec, anchors, sub_w, assign, k)
        dmat = centroids._distances(spec, anchors, centers)
        obj = _exact_sum(wts * dmat[np.arange(len(pts)), assign])
        history.append(obj)
        if prev_obj - obj < 1e-10:
            break
        prev_obj = obj
    return Clustering(
        assignments=tuple(int(a) for a in assign),
        centers=tuple(float(c) for c in centers),
        objective=float(obj),
        iterations=iterations,
        history=tuple(history),
    )


def assert_same_clustering(out, ref):
    assert out == ref
    assert np.asarray(out.centers).tobytes() == np.asarray(ref.centers).tobytes()
    assert np.asarray(out.history).tobytes() == np.asarray(ref.history).tobytes()


#: The four certified (F, rho, tau) triples of the benchmark's cluster jobs.
WORKLOAD_TRIPLES = {
    "x^2 id/id": ("x^2", (0.2, 12.0), "identity", "identity"),
    "exp log/log": ("exp(x)", (0.2, 4.0), "log", "log"),
    "exp(x^2) id/log": ("exp(x^2)", (0.1, 2.5), "identity", "log"),
    "exp power:2/power:3": ("exp(x)", (0.5, 3.0), "power:2", "power:3"),
}


def spy_solves(monkeypatch):
    """The k of every ``_centroids`` solve made from now on."""
    solve, solves = centroids._centroids, []
    monkeypatch.setattr(centroids, "_centroids", lambda *a: solves.append(a[-1]) or solve(*a))
    return solves


def workload_job(name, seed, n=200):
    """A spec and n points in three tight log-normal clusters, as the
    benchmark's cluster jobs draw them."""
    text, (lo, hi), rho, tau = WORKLOAD_TRIPLES[name]
    spec = QabdSpec(expression_model(text, (lo, hi)), get_generator(rho), get_generator(tau))
    rng = np.random.default_rng(seed)
    L, H = math.log(lo), math.log(hi)
    centers = L + (H - L) * (np.array([0.2, 0.5, 0.8]) + rng.uniform(-0.02, 0.02, 3))
    logs = centers[np.arange(n) % 3] + 0.002 * (H - L) * rng.standard_normal(n)
    pts = np.exp(np.clip(logs, L + 0.02 * (H - L), H - 0.02 * (H - L)))
    return spec, WeightedSet.uniform(tuple(pts.tolist()))


class TestLloydFixedPoint:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", list(WORKLOAD_TRIPLES))
    def test_workload_jobs_match_the_recomputing_loop(self, name, seed):
        spec, ws = workload_job(name, seed)
        for k in (1, 2, 3):
            assert_same_clustering(kmeans_cluster(spec, ws, k, seed=seed), recomputing_lloyd(spec, ws, k, seed=seed))

    @pytest.mark.parametrize("name", list(WORKLOAD_TRIPLES))
    def test_k_equal_to_the_distinct_points(self, name):
        spec, ws = workload_job(name, 7, n=6)
        for seed in range(4):
            out = kmeans_cluster(spec, ws, 6, seed=seed)
            assert_same_clustering(out, recomputing_lloyd(spec, ws, 6, seed=seed))
            assert sorted(out.centers) == sorted(ws.points)

    def test_emptied_cluster_is_reseeded_before_the_comparison(self, monkeypatch):
        # The two near points are 0 apart in the clamped distance, so the
        # second of them loses its own center on the tie and the reseed
        # hands that center the first point, in every sweep: the argmin
        # never repeats the last assignment, the reseeded one does.
        spec, ws = SPEC_SQ, WeightedSet.uniform((1.0, 1.0 + 1e-9, 5.0))
        reseeded = 0
        for seed in range(6):
            reseeds = []
            ref = recomputing_lloyd(spec, ws, 3, seed=seed, reseeds=reseeds)
            solves = spy_solves(monkeypatch)
            out = kmeans_cluster(spec, ws, 3, seed=seed)
            monkeypatch.undo()
            assert_same_clustering(out, ref)
            assert len(solves) == out.iterations - 1
            reseeded += reseeds == [1, 2]
        assert reseeded >= 2

    @pytest.mark.parametrize("name", list(WORKLOAD_TRIPLES))
    def test_a_repeated_assignment_ends_the_loop_without_a_solve(self, monkeypatch, name):
        spec, ws = workload_job(name, 11)
        sweeps = []
        ref = recomputing_lloyd(spec, ws, 3, seed=11, sweeps=sweeps)
        assert sweeps[-1] == sweeps[-2]
        solves = spy_solves(monkeypatch)
        out = kmeans_cluster(spec, ws, 3, seed=11)
        assert out.iterations == ref.iterations == len(sweeps)
        assert len(solves) == out.iterations - 1
        assert out.history[-1] == out.history[-2] == out.objective
        assert_same_clustering(out, ref)


def returned_objective(spec, wset, out):
    """The objective of the clustering ``out`` returns, summed exactly."""
    return _exact_sum(np.array([w * float(qabd(spec, out.centers[a], p))
                                for p, w, a in zip(wset.points, wset.weights, out.assignments)]))


#: Three points within 2e-9 and two far ones: ties in the clamped distance
#: empty clusters, two in one sweep at some seeds.
NEAR_TIES = WeightedSet.uniform((1.0, 1.0 + 1e-9, 1.0 + 2e-9, 5.0, 6.0))


class TestDegenerateClusters:
    def test_two_emptied_clusters_take_different_points(self):
        # At seeds 1 and 5 a sweep empties two clusters, which both took the
        # same farthest point, so one stayed empty; at seed 3 the farthest
        # point was alone in its cluster, which it left empty.
        twice = []
        for seed in range(6):
            reseeds = []
            ref = recomputing_lloyd(SPEC_SQ, NEAR_TIES, 5, seed=seed, reseeds=reseeds)
            out = kmeans_cluster(SPEC_SQ, NEAR_TIES, 5, seed=seed)
            assert_same_clustering(out, ref)
            assert sorted(out.centers) == sorted(NEAR_TIES.points) and out.objective == 0.0
            if any(reseeds.count(t) > 1 for t in reseeds):
                twice.append(seed)
        assert twice == [1, 5]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_near_ties_at_every_k_match_the_recomputing_loop(self, k):
        for seed in range(6):
            out = kmeans_cluster(SPEC_SQ, NEAR_TIES, k, seed=seed)
            assert_same_clustering(out, recomputing_lloyd(SPEC_SQ, NEAR_TIES, k, seed=seed))
            assert out.objective == returned_objective(SPEC_SQ, NEAR_TIES, out) == out.history[-1]

    def test_plateau_stop_reports_the_returned_clustering(self):
        # The objective rises by rounding in the second sweep, which ends
        # the loop; the value reported is that sweep's, not the smaller one.
        out = kmeans_cluster(SPEC_SQ, NEAR_TIES, 4, seed=2)
        assert out.history[0] < out.history[1] == out.objective
        assert out.objective == returned_objective(SPEC_SQ, NEAR_TIES, out)

    def test_a_cluster_one_ulp_wide_is_solved_by_its_midpoint(self):
        # G' shows no change on [2, 2 + 2^-51]; the bracket is already within
        # the solver's tolerance, so its midpoint (rounded to 2.0) is the
        # centroid.
        ws = WeightedSet.uniform((2.0, 2.0000000000000004, 7.0))
        for seed in range(6):
            out = kmeans_cluster(SPEC_SQ, ws, 2, seed=seed)
            a = out.assignments
            assert a[0] == a[1] != a[2] and out.centers[a[0]] == 2.0 and out.centers[a[2]] == 7.0
        assert bregman_centroid(SPEC_SQ, WeightedSet.uniform((2.0, 2.0000000000000004))) == 2.0


class TestClusterInformation:
    def test_variance_style(self):
        ws = WeightedSet.uniform((1.0, 3.0))
        assert cluster_information(SPEC_SQ, ws) == pytest.approx(1.0, rel=1e-12)
        assert cluster_information((F_SQ, ARITHMETIC, ARITHMETIC), ws) == pytest.approx(1.0, rel=1e-12)

    def test_singleton_zero(self):
        assert cluster_information(SPEC_SQ, WeightedSet.uniform((4.2,))) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            pts = rng.uniform(0.5, 6.0, n)
            w = rng.dirichlet(np.ones(n))
            assert cluster_information(SPEC_GG, WeightedSet(tuple(pts), tuple(w))) >= 0.0
