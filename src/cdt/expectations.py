"""Quasi-arithmetic means of samples and expected values of distributions.

The n-ary form f^{-1}((1/n) sum f(x_i)) is the constructive characterization
of means satisfying reflexivity, symmetry, monotone continuity, and
associativity; the expectation form f^{-1}(E[f(X)]) extends it to discrete
and continuous laws (e.g. geometric and harmonic expected values).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bhattacharyya import DensityModel, DiscreteDist, _total_mass
from .errors import DomainError, KindMismatch
from .generators import Generator
from .means import _checked_means, quasi_arithmetic, weighted_mean
from .quadrature import _integrals


def qa_mean(f: Generator, samples: Sequence[float]) -> float:
    """f^{-1} of the arithmetic mean of f-images."""
    xs = [float(x) for x in samples]
    if not xs:
        raise DomainError("qa_mean requires at least one sample")
    return weighted_mean(quasi_arithmetic(f), xs, [1.0 / len(xs)] * len(xs))


def qa_expected_value(f: Generator, dist, normalize: bool = False) -> float:
    """Quasi-arithmetic expected value f^{-1}(E[f(X)]).

    For a DiscreteDist the value grid is required, and a normalized grid
    gives ``weighted_mean`` of its values and masses, bit for bit.  With
    ``normalize=True`` the f-moment is divided by the total mass, extending
    the definition to positive unnormalized measures; without it an
    unnormalized grid of total mass m gives f^{-1}(m f(M)), M its mean
    under the masses divided by m.  The total mass is taken when
    ``normalize`` is set or ``dist`` is not normalized, and must then be
    positive; a density's comes in one quadrature pass with its f-moment,
    each bit for bit its own integral.  The f-moment ignores floating-point
    warnings of f, and when it is the only integral, of the density too.
    The value is clamped to the support: the span of the grid, or a
    density's truncation.
    """
    if isinstance(dist, DiscreteDist):
        if dist.values is None:
            raise DomainError("qa_expected_value needs a DiscreteDist with a value grid")
        xs = np.asarray(dist.values)
        lo, hi = float(np.min(xs)), float(np.max(xs))
        total = _total_mass(dist) if normalize or not dist.normalized else 1.0
    elif isinstance(dist, DensityModel):
        lo, hi = dist.truncation
        if not (f.domain.contains(lo) and f.domain.contains(hi)):
            raise DomainError(f"support [{lo!r}, {hi!r}] is not inside the domain of generator {f.id!r}")

        def f_moment(x, d):
            with np.errstate(all="ignore"):
                return d * f.forward(x)

        kernels = (f_moment, lambda x, d: d) if normalize or not dist.normalized else (f_moment,)
        with np.errstate(all="ignore" if len(kernels) == 1 else None):  # None changes nothing
            moment, *mass = _integrals(lambda x: np.asarray(dist.eval(x), dtype=float), kernels, lo, hi,
                                       dist.quadrature, dist.breakpoints)
        total = mass[0] if mass else 1.0
    else:
        raise KindMismatch(f"unsupported distribution type {type(dist).__name__}")
    if not total > 0.0:
        raise DomainError(f"total mass is {total!r}: qa_expected_value needs a positive total mass")
    if isinstance(dist, DiscreteDist):
        value = float(_checked_means(quasi_arithmetic(f), xs, dist.array / total))
        if not (normalize or dist.normalized):
            value = f.inv(total * f.value(value))
    else:
        value = f.inv(moment / total if normalize else moment)
    return min(max(value, lo), hi)
