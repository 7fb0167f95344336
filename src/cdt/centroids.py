"""Closed-form Bregman centroids and k-means-style clustering.

The weighted objective sum_i w_i B(c : p_i) for a quasi-arithmetic Bregman
divergence has a unique minimizer obtained in the rho-embedded space via

    G'(c') = sum_i (w'_i / W') G'(rho(p_i)),   w'_i = w_i / tau'(F(p_i)),

with c = rho^{-1}((G')^{-1}(...)).  (G')^{-1} has no closed inverse in
general, so it is computed by bisection on the bracketing interval spanned
by the embedded data, to tolerance 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import QabdSpec, WeightedSet, jensen_diversity, qabd
from .errors import NonInvertibleGradient, ParamError
from .generators import _invert_monotone, _monotone_direction
from .means import quasi_arithmetic


@dataclass(frozen=True)
class Clustering:
    """Assignment of points to centers with the achieved objective.

    ``history`` records the objective after every assign/update sweep; Lloyd
    iterations guarantee it is non-increasing.
    """

    assignments: tuple[int, ...]
    centers: tuple[float, ...]
    objective: float
    iterations: int
    history: tuple[float, ...] = ()


def bregman_centroid(spec: QabdSpec, wset: WeightedSet) -> float:
    """Unique minimizer of sum_i w_i * qabd(c : p_i)."""
    pts = np.asarray(wset.points)
    wts = np.asarray(wset.weights)
    if len(pts) == 1:
        return float(pts[0])
    us = np.array([spec.rho.value(float(p)) for p in pts])
    lo, hi = float(np.min(us)), float(np.max(us))
    if lo == hi:
        return float(pts[0])
    G = spec.reduced
    if not _monotone_direction(G.deriv, lo, hi):
        raise NonInvertibleGradient(f"derivative of {G.id!r} is not monotone on [{lo!r}, {hi!r}]")
    wprime = np.array(
        [w / spec.tau.deriv(spec.F.value(float(p))) for w, p in zip(wts, pts)]
    )
    wprime = wprime / wprime.sum()
    target = float(np.dot(wprime, [G.deriv(float(u)) for u in us]))
    c = spec.rho.inv(_invert_monotone(G.deriv, target, lo, hi, 1e-12))
    return min(max(c, float(np.min(pts))), float(np.max(pts)))


def _objective(spec: QabdSpec, wset: WeightedSet, assign: np.ndarray, centers: list[float]) -> float:
    return math.fsum(
        w * float(qabd(spec, centers[k], p))
        for p, w, k in zip(wset.points, wset.weights, assign)
    )


def _seed_centers(spec: QabdSpec, wset: WeightedSet, k: int, rng: np.random.Generator) -> list[float]:
    """k-means++ style seeding with qabd(candidate-center : point) distances."""
    pts = list(wset.points)
    wts = np.asarray(wset.weights)
    first = int(rng.choice(len(pts), p=wts / wts.sum()))
    centers = [pts[first]]
    while len(centers) < k:
        dists = np.array(
            [min(float(qabd(spec, c, p)) for c in centers) for p in pts]
        )
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
    cluster.  An emptied cluster is re-seeded at the point farthest from its
    nearest center.  Deterministic for a fixed seed.
    """
    k = int(k)
    if k < 1:
        raise ParamError("k must be at least 1")
    distinct = len(set(wset.points))
    if k > distinct:
        raise ParamError(f"k={k} exceeds the {distinct} distinct points")
    rng = np.random.default_rng(seed)
    pts = list(wset.points)
    wts = list(wset.weights)
    centers = _seed_centers(spec, wset, k, rng)
    prev_obj = math.inf
    assign = np.zeros(len(pts), dtype=int)
    iterations = 0
    history: list[float] = []
    for iterations in range(1, 101):
        dmat = np.array(
            [[float(qabd(spec, c, p)) for c in centers] for p in pts]
        )
        assign = np.argmin(dmat, axis=1)  # argmin takes the lowest index on ties
        for j in range(k):
            if not np.any(assign == j):
                far = int(np.argmax(np.min(dmat, axis=1)))
                assign[far] = j
        for j in range(k):
            mask = assign == j
            sub_w = np.asarray(wts)[mask]
            sub = WeightedSet(
                tuple(np.asarray(pts)[mask].tolist()),
                tuple((sub_w / sub_w.sum()).tolist()),
            )
            centers[j] = bregman_centroid(spec, sub)
        obj = _objective(spec, wset, assign, centers)
        history.append(obj)
        if prev_obj - obj < 1e-10:
            prev_obj = min(prev_obj, obj)
            break
        prev_obj = obj
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
