"""The package's exports and what each process imports.

``cdt`` exports 99 names, each resolved from its layer module on first
access.  A bare ``import cdt`` loads no layer module, and a ``cdt`` process
loads only the layers of its subcommand: the benchmark's CLI processes
compile every module they import, so each module left out is start-up time
saved.  The memo of reductions and certificates adds no module to any of
them.  The module sets are taken in fresh interpreters.  Every name the
benchmark's tracer hooks into exists.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdt

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

#: The exported names of each layer module.
EXPORTS = {
    "bhattacharyya": "CauchyParam DensityModel DiscreteDist alpha_divergence bhat_coefficient cauchy_density "
                     "cauchy_ha_closed_form cmbd histogram_density mean_gap_distance power_cmbd",
    "centroids": "Clustering bregman_centroid cluster_information kmeans_cluster",
    "convexity": "TRUSTED_CONVEX ConvexityReport FunctionModel Verdict function_model is_mn_convex "
                 "power_convexity_transform relative_convexity_det to_ordinary",
    "divergences": "DivergenceValue QabdSpec WeightedSet bccd_numeric bregman extended_skew_jensen jccd jensen_bregman "
                   "jensen_diversity kappa lehmer_bregman midpoint_verdict omega_divergence qabd qabd_conformal "
                   "separable_divergence skew_jccd",
    "errors": "AffineGeneratorWarning CdtError ConfigError ConvexityError DerivativeError DomainError "
              "DominanceError KindMismatch LengthMismatch NonInvertibleDerivative NonInvertibleGradient "
              "NonInvertibleRatio ParamError ParseError QuadratureFailure UnsupportedWeights WeightError",
    "expectations": "qa_expected_value qa_mean",
    "expr": "compile_expression expression_generator expression_model parse_expression",
    "generators": "EXP IDENTITY LOG RECIPROCAL Generator Interval get_generator power_generator",
    "means": "ARITHMETIC GEOMETRIC HARMONIC Dominance DominanceResult MeanSpec cauchy cauchy_mean dominates dual "
             "dual_mean format_mean gini lagrange lagrange_mean lehmer mean_value parse_mean power "
             "quasi_arithmetic stolarsky stolarsky_mean weighted_mean weighted_means",
    "quadrature": "QuadratureConfig gauss_kronrod integrate",
}
HOME = {name: layer for layer, names in EXPORTS.items() for name in names.split()}


def test_every_name_the_benchmark_tracer_hooks_into_exists():
    # bench/tracing.py wraps its METHODS on their classes and every public
    # function of its LAYERS; bench/cdt_child.py wraps
    # cdt.expr.compile_expression.  Loading tracing.py runs no harness.
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(tracing.METHODS) <= set(tracing.LAYERS)
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"cdt.{layer}")
        for cls, meth in tracing.METHODS.get(layer, ()):
            assert callable(vars(getattr(module, cls)).get(meth)), f"cdt.{layer}.{cls}.{meth}"
    assert callable(importlib.import_module("cdt.expr").compile_expression)


def test_all_lists_the_99_exported_names():
    assert len(HOME) == 99
    assert len(cdt.__all__) == len(set(cdt.__all__)) == 99
    assert set(cdt.__all__) == set(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_each_name_is_its_defining_modules_object(name):
    module = importlib.import_module(f"cdt.{HOME[name]}")
    assert getattr(cdt, name) is getattr(module, name)


def test_star_import_and_dir_cover_every_name():
    namespace = {}
    exec("from cdt import *", namespace)
    assert set(HOME) <= set(namespace)
    assert set(HOME) | set(EXPORTS) <= set(dir(cdt))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'cdt' has no attribute 'no_such_name'"):
        cdt.no_such_name
    assert not hasattr(cdt, "weighted_mean_")


def run_fresh(code, *args, cwd=None):
    """stdout of ``code`` run in a fresh interpreter on this checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("CDT_SEED", None)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_bare_import_loads_no_layer_and_binds_what_it_resolves():
    code = (
        "import json, sys, cdt\n"
        "before = sorted(m for m in sys.modules if m.split('.')[0] == 'cdt')\n"
        "cmbd = cdt.cmbd\n"
        "print(json.dumps([before, 'cmbd' in vars(cdt), cdt.means.weighted_mean is cdt.weighted_mean,\n"
        "                  cmbd is sys.modules['cdt.bhattacharyya'].cmbd]))\n"
    )
    assert json.loads(run_fresh(code)) == [["cdt"], True, True, True]


#: Every subcommand loads these (``TOLERANCES`` and ``DEFAULT_GRID`` come
#: from divergences and convexity).
CORE = {"cdt", "cdt.cli", "cdt.errors", "cdt.quadrature", "cdt.generators", "cdt.means", "cdt.convexity",
        "cdt.divergences"}

#: (id, argv, exit code, layers loaded beyond CORE)
SUBCOMMANDS = [
    ("mean", ["mean", "--spec", "power:2", "3", "4"], 0, ()),
    ("mean-data", ["mean", "--spec", "qa:log", "--data", "pts.csv"], 0, ()),
    ("malformed-spec", ["mean", "--spec", "power:two", "1", "2"], 3, ()),
    ("dominates", ["dominates", "--a", "power:2", "--b", "power:1", "--domain", "0.5:8", "--samples", "100"], 0, ()),
    ("bhat", ["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", "u.json", "--q", "v.json"], 0, ("bhattacharyya",)),
    ("alpha-div", ["alpha-div", "--alpha", "0.5", "--p", "u.json", "--q", "v.json"], 0, ("bhattacharyya",)),
    ("expect", ["expect", "--f", "log", "--data", "grid.json"], 0, ("bhattacharyya", "expectations")),
    ("expect-expr", ["expect", "--f", "1/x", "--data", "grid.json"], 0, ("bhattacharyya", "expectations", "expr")),
    ("div-bregman", ["div", "bregman", "--F", "x^2", "3", "1"], 0, ("expr",)),
    ("div-jensen", ["div", "jensen", "--F", "x^2", "1", "3"], 0, ("expr",)),
    ("diversity", ["diversity", "--F", "x^2", "--M", "qa:identity", "--N", "qa:identity", "--data", "pts.csv"],
     0, ("expr",)),
    ("check-convexity", ["check-convexity", "--F", "x^2", "--domain", "0:1"], 0, ("expr",)),
    ("centroid", ["centroid", "--F", "x^2", "--data", "pts.csv"], 0, ("centroids", "expr")),
    ("cluster", ["cluster", "--F", "x^2", "--data", "pts.csv", "--k", "2"], 0, ("centroids", "expr")),
]

#: The one module outside cdt that the memo of reductions and certificates
#: (``generators._memoize``) imports.  The interpreter loads it before
#: ``cdt``, so the memo adds no import to a subcommand's process.
MEMO_IMPORTS = ["functools"]


@pytest.mark.parametrize("argv, code, extra", [c[1:] for c in SUBCOMMANDS], ids=[c[0] for c in SUBCOMMANDS])
def test_a_subcommand_loads_only_its_layers(tmp_path, argv, code, extra):
    (tmp_path / "pts.csv").write_text("1.0\n2.0\n9.0\n", encoding="utf-8")
    (tmp_path / "u.json").write_text(json.dumps({"type": "discrete", "masses": [0.5, 0.5]}), encoding="utf-8")
    (tmp_path / "v.json").write_text(json.dumps({"type": "discrete", "masses": [0.9, 0.1]}), encoding="utf-8")
    grid = {"type": "grid", "xs": [1.0, 4.0], "ps": [0.5, 0.5]}
    (tmp_path / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
    script = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from cdt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'cdt'),\n"
        f"                  sorted(set({MEMO_IMPORTS!r}) - before)]))\n"
    )
    got_code, loaded, memo_added = json.loads(run_fresh(script, *argv, cwd=tmp_path))
    assert got_code == code
    assert set(loaded) == CORE | {f"cdt.{layer}" for layer in extra}
    assert memo_added == []
