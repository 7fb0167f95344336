"""Closed-form Bregman centroids and k-means-style clustering.

The weighted objective sum_i w_i B(c : p_i) for a quasi-arithmetic Bregman
divergence has a unique minimizer, a weighted quasi-arithmetic mean of the
points under h = tau'(F) F' / rho' = G' . rho (Banerjee, Merugu, Dhillon
and Ghosh, JMLR 2005; Nielsen and Nock, IEEE Trans. Inf. Theory 2009):

    h(c) = sum_i (w'_i / W') h(p_i),   w'_i = w_i / tau'(F(p_i)).

h(p_i) and tau'(F(p_i)) are columns of the per-point table of
``divergences._anchors``, so the solve needs no rho^{-1}.  h has no closed
inverse in general, so c is computed in x by bisection on the bracket
spanned by each cluster's points, to tolerance 1e-12 relative to
max(|bracket ends|) at every magnitude (of their starting max where the
bracket holds 0), for all clusters at once.  h, like the table and each
distance call, is one chain of checked calls whose checks are deferred to
its end (``generators._deferred``), so a bad point raises the typed error
that names it.  The
33-point scan that checks h is monotone on each bracket seeds the solve:
each call of h evaluates the bisection path toward a root interpolated from
the values already known, the scan's first (about 40 levels in one to three
calls after the scan, see ``generators._invert_monotone``).  A Lloyd sweep
is the matrix form of Bregman hard clustering; ``kmeans_cluster`` builds
the table at the data once, so each distance call evaluates F, rho and tau
at the centers alone.  The k-means++ seeds are data points, so the
distances to them, for the seeding and the first sweep, are read from the
table's rows, whose checks have already run.  Lloyd's iteration is at its
fixed point once a sweep reproduces the previous assignment: the
centroids, distances and objective are functions of the assignment alone,
so that sweep ends the loop without solving them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import QabdSpec, WeightedSet, _anchors, _Anchors, _nonnegative, _qabd_at, jensen_diversity
from .errors import NonInvertibleGradient, ParamError, require_int, require_seed
from .generators import _bisecting, _deferred, _first, _invert_monotone, _monotone_direction
from .means import _exact_sum, quasi_arithmetic


@dataclass(frozen=True)
class Clustering:
    """Assignment of points to centers with the achieved objective.

    ``history`` records the objective after every assign/update sweep; Lloyd
    iterations keep it non-increasing up to rounding, and a rise ends the
    loop.  A sweep that repeats the previous assignment ends the loop
    without a solve, and its entry repeats the last objective.
    """

    assignments: tuple[int, ...]
    centers: tuple[float, ...]
    objective: float
    iterations: int
    history: tuple[float, ...] = ()


def bregman_centroid(spec: QabdSpec, wset: WeightedSet) -> float:
    """Unique minimizer of sum_i w_i * qabd(c : p_i)."""
    pts = np.asarray(wset.points)
    return float(_centroids(spec, _anchors(spec, pts), np.asarray(wset.weights), np.zeros(len(pts), dtype=int), 1)[0])


def _gradient(spec: QabdSpec):
    """h(x) = tau'(F(x)) F'(x) / rho'(x) elementwise, which the centroid
    solve inverts: one chain of checked calls, its checks deferred to its
    end (``generators._deferred``).  Reading h from the columns of
    ``_anchors`` instead, which costs tau(F(x)), rho(x) and their checks
    at every point, took ``cluster`` from 264 to 250 ops/s (median of five
    alternating 8 s pairs, 2-vCPU Xeon).
    """
    F, rho, tau = spec.F, spec.rho, spec.tau

    def h(x):
        return tau.deriv(F.value(x)) * F.deriv(x) / rho.deriv(x)

    return lambda x: _deferred(h, x)


def _centroids(spec: QabdSpec, anchors: _Anchors, wts: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """bregman_centroid of each cluster ``labels == j`` (weights normalized
    per cluster) of the points of ``anchors``, from their table and one
    bisection in x for all clusters."""
    pts = anchors.q.reshape(-1)
    hd = (anchors.tau_slope * anchors.F_slope / anchors.rho_slope).reshape(-1)
    wprime = wts / anchors.tau_slope.reshape(-1)
    lo, hi, target = (np.empty(k) for _ in range(3))
    for j in range(k):
        m = labels == j
        p, w = pts[m], wprime[m]
        lo[j], hi[j] = p.min(), p.max()
        target[j] = np.dot(w / w.sum(), hd[m])
    solve = lo < hi  # else the cluster is a single point
    if solve.any():
        # relative in x at every magnitude, so data far below 1 keeps its
        # digits; a bracket that holds 0 stops at tol of its starting
        # max(|a|, |b|), since one shrinking onto a root at 0 never meets a
        # relative tolerance
        a, b, tol = lo[solve], hi[solve], 1e-12
        unit = np.where((a <= 0.0) & (b >= 0.0), np.maximum(b, -a), 0.0)
        h = _gradient(spec)
        direction, scan = _monotone_direction(h, a, b)
        # a bracket within the solver's tolerance is solved by its midpoint
        if not direction.all() and (flat := (direction == 0) & _bisecting(a, b, tol, unit)).any():
            F, rho, tau = spec.F.id, spec.rho.id, spec.tau.id
            raise NonInvertibleGradient(
                f"{tau}'({F}) {F}'/{rho}' is not monotone on [{_first(a, flat)!r}, {_first(b, flat)!r}]"
            )
        lo[solve] = _invert_monotone(h, target[solve], a, b, tol, scan, unit)
    return lo


def _distances(spec: QabdSpec, anchors: _Anchors, centers) -> np.ndarray:
    """The n x k matrix qabd(centers[j] : pts[i]) over a table built at the
    column of points pts[:, None]."""
    return _nonnegative(_qabd_at(spec, anchors, np.asarray(centers)[None, :]))


def _data_distances(anchors: _Anchors, idx) -> np.ndarray:
    """``_distances`` at the centers pts[idx], read from their rows of the
    table, which has already checked F, rho and tau there:
    ``_Anchors.combine`` is elementwise, so these are the chain's values
    bit for bit."""
    with np.errstate(all="ignore"):  # as in the chain
        return _nonnegative(anchors.combine(anchors.tau_F[idx].T, anchors.rho[idx].T))


def _seed_centers(anchors: _Anchors, wts: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """The indices of k data points seeded by k-means++ (Arthur and
    Vassilvitskii, SODA 2007) with qabd(candidate-center : point)
    distances; every candidate is a data point, so its distances are read
    from the table (``_data_distances``)."""
    pts = anchors.q.reshape(-1)
    seeds = [int(rng.choice(len(pts), p=wts / wts.sum()))]
    dists = np.full(len(pts), math.inf)
    while len(seeds) < k:
        dists = np.minimum(dists, _data_distances(anchors, seeds[-1:])[:, 0])
        probs = wts * dists
        total = probs.sum()
        if total <= 0.0:
            taken = pts[seeds].tolist()
            fresh = [i for i, p in enumerate(pts.tolist()) if p not in taken]
            seeds.append(fresh[int(rng.integers(0, len(fresh)))])
            continue
        seeds.append(int(rng.choice(len(pts), p=probs / total)))
    return seeds


def kmeans_cluster(spec: QabdSpec, wset: WeightedSet, k: int, seed: int = 0) -> Clustering:
    """Lloyd iteration under the quasi-arithmetic Bregman divergence.

    Assignment minimizes qabd(center : point) with ties broken toward the
    lowest cluster index; updates recompute the closed-form centroid of each
    cluster.  Each emptied cluster, in index order, is re-seeded at the point
    farthest from its nearest center among the points whose cluster keeps
    another member.  The loop stops when a sweep's assignment, after that
    re-seeding, equals the previous sweep's: the update would solve the same
    centroids again, so the sweep appends the last objective to ``history``
    and stops without solving.  Otherwise it stops when the objective falls
    by less than 1e-10 (or rises), or after 100 sweeps.  The objective
    returned is always that of the clustering returned.  Deterministic for a
    fixed seed; a seed that is not a nonnegative integer raises ParamError.
    """
    require_int(k, "k")
    if k < 1:
        raise ParamError("k must be at least 1")
    require_seed(seed)
    distinct = len(set(wset.points))
    if k > distinct:
        raise ParamError(f"k={k} exceeds the {distinct} distinct points")
    rng = np.random.default_rng(seed)
    pts = np.asarray(wset.points)
    wts = np.asarray(wset.weights)
    anchors = _anchors(spec, pts[:, None])
    seeds = _seed_centers(anchors, wts, k, rng)
    centers = pts[seeds]
    prev_obj = math.inf
    assign = None
    iterations = 0
    history: list[float] = []
    dmat = _data_distances(anchors, seeds)
    for iterations in range(1, 101):
        last, assign = assign, np.argmin(dmat, axis=1)  # argmin takes the lowest index on ties
        # a reseed empties no cluster, so the empty ones are known up front
        for j in np.flatnonzero(np.bincount(assign, minlength=k) == 0).tolist():
            shared = np.bincount(assign, minlength=k)[assign] > 1  # moving it empties no cluster
            assign[int(np.argmax(np.where(shared, np.min(dmat, axis=1), -np.inf)))] = j
        if last is not None and np.array_equal(assign, last):
            history.append(prev_obj)
            break
        sub_w = np.empty(len(pts))
        for j in range(k):
            mask = assign == j
            w = wts[mask]
            sub_w[mask] = w / w.sum()
        centers = _centroids(spec, anchors, sub_w, assign, k)
        dmat = _distances(spec, anchors, centers)
        obj = _exact_sum(wts * dmat[np.arange(len(pts)), assign])
        history.append(obj)
        plateau = prev_obj - obj < 1e-10
        prev_obj = obj
        if plateau:
            break
    return Clustering(
        assignments=tuple(assign.tolist()),
        centers=tuple(float(c) for c in centers),
        objective=float(prev_obj),
        iterations=iterations,
        history=tuple(history),
    )


def cluster_information(spec_or_means, wset: WeightedSet) -> float:
    """Diversity (Bregman information) of a weighted set.

    Accepts either a QabdSpec, whose generators induce the two means, or a
    (FunctionModel, MeanSpec, MeanSpec) triple.
    """
    if isinstance(spec_or_means, QabdSpec):
        spec = spec_or_means
        return jensen_diversity(
            spec.F,
            quasi_arithmetic(spec.rho),
            quasi_arithmetic(spec.tau),
            wset,
            verdict=spec.verdict,
        )
    F, M, N = spec_or_means
    return jensen_diversity(F, M, N, wset)
