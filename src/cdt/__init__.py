"""Comparative-convexity divergence toolkit.

Abstract mean families, (M,N)-convexity certificates, generalized
Jensen/Bregman divergences with quasi-arithmetic closed forms,
comparative-mean Bhattacharyya distances, and Bregman centroids/clustering.
"""

from .bhattacharyya import (
    CauchyParam,
    DensityModel,
    DiscreteDist,
    alpha_divergence,
    bhat_coefficient,
    cauchy_density,
    cauchy_ha_closed_form,
    cmbd,
    histogram_density,
    mean_gap_distance,
    power_cmbd,
)
from .centroids import Clustering, bregman_centroid, cluster_information, kmeans_cluster
from .convexity import (
    TRUSTED_CONVEX,
    ConvexityReport,
    FunctionModel,
    Verdict,
    function_model,
    is_mn_convex,
    power_convexity_transform,
    relative_convexity_det,
    to_ordinary,
)
from .divergences import (
    DivergenceValue,
    QabdSpec,
    WeightedSet,
    bccd_numeric,
    extended_skew_jensen,
    jccd,
    jensen_bregman,
    jensen_diversity,
    kappa,
    lehmer_bregman,
    midpoint_verdict,
    omega_divergence,
    qabd,
    qabd_conformal,
    separable_divergence,
    skew_jccd,
)
from .errors import (
    AffineGeneratorWarning,
    CdtError,
    ConfigError,
    ConvexityError,
    DerivativeError,
    DomainError,
    DominanceError,
    KindMismatch,
    LengthMismatch,
    NonInvertibleDerivative,
    NonInvertibleGradient,
    NonInvertibleRatio,
    ParamError,
    ParseError,
    QuadratureFailure,
    UnsupportedWeights,
    WeightError,
)
from .expectations import qa_expected_value, qa_mean
from .expr import compile_expression, expression_generator, expression_model, parse_expression
from .generators import EXP, IDENTITY, LOG, RECIPROCAL, Generator, Interval, get_generator, power_generator
from .means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    Dominance,
    DominanceResult,
    MeanSpec,
    cauchy,
    cauchy_mean,
    dominates,
    dual,
    dual_mean,
    format_mean,
    gini,
    lagrange,
    lagrange_mean,
    lehmer,
    mean_value,
    parse_mean,
    power,
    quasi_arithmetic,
    stolarsky,
    stolarsky_mean,
    weighted_mean,
    weighted_means,
)
from .quadrature import QuadratureConfig, gauss_kronrod, integrate

__version__ = "0.1.0"
