"""Semantic exception hierarchy shared by every module of the toolkit."""

from __future__ import annotations

import numbers


class CdtError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CdtError, ValueError):
    """An input lies outside the domain of a generator, function, or mean."""


class WeightError(CdtError, ValueError):
    """Weights are nonpositive, unnormalized, or otherwise invalid."""


class UnsupportedWeights(CdtError):
    """The mean family has no weighted (barycentric) form."""


class NonInvertibleDerivative(CdtError):
    """f' failed the sampled monotonicity check on the requested segment."""


class NonInvertibleRatio(CdtError):
    """f'/g' failed the sampled monotonicity check on the requested segment."""


class NonInvertibleGradient(CdtError):
    """The centroid map h = tau'(F) F' / rho' is not monotone on the range of
    a cluster's points, named in data coordinates: the reduced generator's
    derivative G' = h . rho^{-1} is not monotone on its image."""


class ConvexityError(CdtError):
    """A generator failed the convexity certificate required by a divergence."""


class OrderError(CdtError, ValueError):
    """Arguments violate a required ordering precondition."""


class DerivativeError(CdtError, ArithmeticError):
    """A derivative underflowed where a formula needs to divide by it."""


class LengthMismatch(CdtError, ValueError):
    """Sequences that must be index-aligned have different lengths."""


class KindMismatch(CdtError, TypeError):
    """Mixed discrete/continuous operands where matched kinds are required."""


class QuadratureFailure(CdtError, ArithmeticError):
    """Adaptive refinement exhausted its budget before reaching tolerance."""


class DominanceError(CdtError):
    """Sampling falsified the mean dominance required by the operation."""


class ParamError(CdtError, ValueError):
    """A numeric parameter is outside the admissible set for the operation."""


def require_int(value, what: str) -> None:
    """ParamError unless ``value`` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParamError(f"{what} must be an integer, got {value!r}")


def require_seed(seed) -> None:
    """ParamError unless ``seed`` is a nonnegative integer, the seeds that
    ``np.random.default_rng`` takes and a run can replay."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ParamError(f"seed must be a nonnegative integer, got {seed!r}")


class ConfigError(CdtError, ValueError):
    """Command-line configuration failed validation before dispatch."""


class ParseError(CdtError, ValueError):
    """Expression text could not be parsed.

    Carries the byte offset of the failure and the set of token kinds that
    would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = int(offset)
        self.expected = tuple(expected)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.expected:
            return f"{base} at offset {self.offset} (expected one of: {', '.join(self.expected)})"
        return f"{base} at offset {self.offset}"


class AffineGeneratorWarning(UserWarning):
    """The certified generator is affine: the induced divergence is identically zero."""
