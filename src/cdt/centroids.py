"""Closed-form Bregman centroids and k-means-style clustering.

The weighted objective sum_i w_i B(c : p_i) for a quasi-arithmetic Bregman
divergence has a unique minimizer obtained in the rho-embedded space via

    G'(c') = sum_i (w'_i / W') G'(rho(p_i)),   w'_i = w_i / tau'(F(p_i)),

with c = rho^{-1}((G')^{-1}(...)).  (G')^{-1} has no closed inverse in
general, so it is computed by bisection on the bracketing interval spanned
by the embedded data, to tolerance 1e-12, for all clusters at once.  The
33-point scan that checks G' is monotone on each bracket seeds the solve:
each call of G' evaluates the bisection path toward a root interpolated
from the values already known, the scan's first (about 40 levels in one to
three calls after the scan, see ``generators._invert_monotone``).  A Lloyd
sweep is the matrix form of Bregman hard clustering (Banerjee, Merugu,
Dhillon and Ghosh, JMLR 2005).  Lloyd's iteration is at its fixed point
once a sweep reproduces the previous assignment: the centroids, distances
and objective are functions of the assignment alone, so that sweep ends the
loop without solving them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import QabdSpec, WeightedSet, _nonnegative, _qabd_raw, jensen_diversity
from .errors import NonInvertibleGradient, ParamError, require_int, require_seed
from .generators import _bisecting, _first, _invert_monotone, _monotone_direction
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
    return float(_centroids(spec, pts, np.asarray(wset.weights), np.zeros(len(pts), dtype=int), 1)[0])


def _centroids(spec: QabdSpec, pts: np.ndarray, wts: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """bregman_centroid of each cluster ``labels == j`` (weights normalized
    per cluster), from one evaluation of each function over all points and
    one bisection for all clusters."""
    G = spec.reduced
    us = spec.rho.value(pts)
    gd, td = G.deriv(us), spec.tau.deriv(spec.F.value(pts))
    lo, hi, plo, phi, target = (np.empty(k) for _ in range(5))
    for j in range(k):
        m = labels == j
        lo[j], hi[j], plo[j], phi[j] = us[m].min(), us[m].max(), pts[m].min(), pts[m].max()
        wprime = wts[m] / td[m]
        target[j] = np.dot(wprime / wprime.sum(), gd[m])
    solve = lo < hi  # else the cluster is a single point
    if solve.any():
        a, b, tol = lo[solve], hi[solve], 1e-12
        # a bracket within the solver's tolerance is solved by its midpoint
        direction, scan = _monotone_direction(G.deriv, a, b)
        flat = (direction == 0) & _bisecting(a, b, tol)
        if flat.any():
            raise NonInvertibleGradient(f"{G.id!r}' is not monotone on [{_first(a, flat)!r}, {_first(b, flat)!r}]")
        c = spec.rho.inv(_invert_monotone(G.deriv, target[solve], a, b, tol, scan))
        plo[solve] = np.clip(c, plo[solve], phi[solve])
    return plo


def _distances(spec: QabdSpec, centers, pts: np.ndarray) -> np.ndarray:
    """The n x k matrix qabd(centers[j] : pts[i])."""
    return _nonnegative(_qabd_raw(spec, np.asarray(centers)[None, :], pts[:, None]))


def _seed_centers(spec: QabdSpec, wset: WeightedSet, k: int, rng: np.random.Generator) -> list[float]:
    """k-means++ seeding (Arthur and Vassilvitskii, SODA 2007) with
    qabd(candidate-center : point) distances."""
    pts = np.asarray(wset.points)
    wts = np.asarray(wset.weights)
    first = int(rng.choice(len(pts), p=wts / wts.sum()))
    centers = [pts[first]]
    dists = np.full(len(pts), math.inf)
    while len(centers) < k:
        dists = np.minimum(dists, _distances(spec, centers[-1:], pts)[:, 0])
        probs = wts * dists
        total = probs.sum()
        if total <= 0.0:
            fresh = [i for i, p in enumerate(pts) if p not in centers]
            centers.append(pts[fresh[int(rng.integers(0, len(fresh)))]])
            continue
        centers.append(pts[int(rng.choice(len(pts), p=probs / total))])
    return centers


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
    centers = np.array(_seed_centers(spec, wset, k, rng))
    prev_obj = math.inf
    assign = None
    iterations = 0
    history: list[float] = []
    dmat = _distances(spec, centers, pts)
    for iterations in range(1, 101):
        last, assign = assign, np.argmin(dmat, axis=1)  # argmin takes the lowest index on ties
        for j in range(k):
            if not np.any(assign == j):
                shared = np.bincount(assign, minlength=k)[assign] > 1  # moving it empties no cluster
                assign[int(np.argmax(np.where(shared, np.min(dmat, axis=1), -np.inf)))] = j
        if last is not None and np.array_equal(assign, last):
            history.append(prev_obj)
            break
        sub_w = np.empty(len(pts))
        for j in range(k):
            mask = assign == j
            sub_w[mask] = wts[mask] / wts[mask].sum()
        centers = _centroids(spec, pts, sub_w, assign, k)
        dmat = _distances(spec, centers, pts)
        obj = _exact_sum(wts * dmat[np.arange(len(pts)), assign])
        history.append(obj)
        plateau = prev_obj - obj < 1e-10
        prev_obj = obj
        if plateau:
            break
    return Clustering(
        assignments=tuple(int(a) for a in assign),
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
