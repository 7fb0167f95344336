"""Comparative-convexity divergence toolkit.

Abstract mean families, (M,N)-convexity certificates, generalized
Jensen/Bregman divergences with quasi-arithmetic closed forms,
comparative-mean Bhattacharyya distances, and Bregman centroids/clustering.

``import cdt`` loads no layer module.  Each exported name, and each layer
submodule (``cdt.means``, ...), is imported on first access and then bound
here, so every later access is a plain attribute (PEP 562).
"""

import importlib

__version__ = "0.1.0"

#: The exported names of each layer module.
_LAYERS = {
    "bhattacharyya": (
        "CauchyParam", "DensityModel", "DiscreteDist", "alpha_divergence", "bhat_coefficient",
        "cauchy_density", "cauchy_ha_closed_form", "cmbd", "histogram_density", "mean_gap_distance",
        "power_cmbd",
    ),
    "centroids": ("Clustering", "bregman_centroid", "cluster_information", "kmeans_cluster"),
    "convexity": (
        "TRUSTED_CONVEX", "ConvexityReport", "FunctionModel", "Verdict", "function_model", "is_mn_convex",
        "power_convexity_transform", "relative_convexity_det", "to_ordinary",
    ),
    "divergences": (
        "DivergenceValue", "QabdSpec", "WeightedSet", "bccd_numeric", "bregman", "extended_skew_jensen", "jccd",
        "jensen_bregman", "jensen_diversity", "kappa", "lehmer_bregman", "midpoint_verdict",
        "omega_divergence", "qabd", "qabd_conformal", "separable_divergence", "skew_jccd",
    ),
    "errors": (
        "AffineGeneratorWarning", "CdtError", "ConfigError", "ConvexityError", "DerivativeError",
        "DomainError", "DominanceError", "KindMismatch", "LengthMismatch", "NonInvertibleDerivative",
        "NonInvertibleGradient", "NonInvertibleRatio", "ParamError", "ParseError", "QuadratureFailure",
        "UnsupportedWeights", "WeightError",
    ),
    "expectations": ("qa_expected_value", "qa_mean"),
    "expr": ("compile_expression", "expression_generator", "expression_model", "parse_expression"),
    "generators": ("EXP", "IDENTITY", "LOG", "RECIPROCAL", "Generator", "Interval", "get_generator", "power_generator"),
    "means": (
        "ARITHMETIC", "GEOMETRIC", "HARMONIC", "Dominance", "DominanceResult", "MeanSpec", "cauchy",
        "cauchy_mean", "dominates", "dual", "dual_mean", "format_mean", "gini", "lagrange", "lagrange_mean",
        "lehmer", "mean_value", "parse_mean", "power", "quasi_arithmetic", "stolarsky", "stolarsky_mean",
        "weighted_mean", "weighted_means",
    ),
    "quadrature": ("QuadratureConfig", "gauss_kronrod", "integrate"),
}

#: The layer module that defines each exported name.
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None and name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer or name}")
    value = module if layer is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_LAYERS})
