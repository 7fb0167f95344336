"""Golden CLI transcripts: exit code and exact stdout of `cdt` invocations.

Every subcommand, every `div` kind, the three output formats, the
validation errors and the numeric error exits run against small input
files written into a temporary directory, so that the provenance (which
echoes argv) holds only relative names.  ``cli_golden.json`` holds the
expected transcripts; regenerate it with ``python tests/test_cli_golden.py``
and review the diff, since a changed byte there is a changed CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from cdt.cli import build_parser, main

GOLDEN = Path(__file__).with_name("cli_golden.json")

FILES = {
    "pts.csv": "# three clusters\n0.9\n1.0\n1.1\n\n8.9\n9.0\n9.1\n",
    "wpts.csv": "1.0,2\n3.0,2\n",
    "mixed.csv": "# value[,weight]\n1.0,0.5\n2.0\n\n4.0, 0.25\n",
    "empty.csv": "# no rows\n\n",
    "dist.csv": "2.0,0.5\n6.0,0.5\n",
    "dist2.csv": "# same grid\n2.0,1\n6.0,3\n",
    "list.json": [1.0, 2.0, 4.0],
    "obj.json": {"points": [0.5, 1.5, 2.5, 6.0], "weights": [1, 2, 3, 2]},
    "objnw.json": {"points": [1.0, 3.0]},
    "none.json": [],
    "short.json": {"points": [1.0, 2.0, 3.0], "weights": [1.0, 1.0]},
    "u.json": {"type": "discrete", "masses": [0.5, 0.5]},
    "v.json": {"type": "discrete", "masses": [0.9, 0.1]},
    "c1.json": {"type": "cauchy", "scale": 1.0},
    "c3.json": {"type": "cauchy", "scale": 3.0},
    "grid.json": {"type": "grid", "xs": [1.0, 4.0], "ps": [0.5, 0.5]},
    "grid2.json": {"type": "grid", "xs": [1.0, 4.0], "ps": [1, 3]},
    "mystery.json": {"type": "mystery"},
    "bad.csv": "1.0\nabc\n",
    "broken.json": "{not json",
    "scalar.json": 3,
    "nops.json": {"type": "grid", "xs": [1.0, 2.0]},
    "nan.csv": "1.0,0.5\n2.0,nan\n3.0,0.5\n",
}

CUBIC = ["--F", "(x^3+x)^2", "--rho", "x^3+x"]

#: (id, argv, environment overrides)
CASES = [
    # div: every kind
    ("div-bregman", ["div", "bregman", "--F", "x^2", "--rho", "identity", "--tau", "identity", "3", "1"], {}),
    ("div-bregman-log", ["div", "bregman", "--F", "exp(x)", "--rho", "log", "--tau", "log", "2", "1"], {}),
    ("div-bregman-rho-expr", ["div", "bregman", *CUBIC, "--domain", "0.1:5", "2", "1"], {}),
    ("div-bregman-affine", ["div", "bregman", "--F", "x^2", "--rho", "power:2", "3", "1"], {}),
    ("div-bregman-log-identity", ["div", "bregman", "--F", "x^2", "--rho", "log", "2.5", "1.5"], {}),
    ("div-bregman-plain", ["div", "bregman", "--F", "x^2", "--format", "plain", "3", "1"], {}),
    ("div-jensen", ["div", "jensen", "--F", "x^2", "1", "3"], {}),
    ("div-jensen-means", ["div", "jensen", "--F", "exp(x)", "--M", "qa:log", "--N", "qa:log", "1.2", "2.5"], {}),
    ("div-jensen-csv", ["div", "jensen", "--F", "x^2", "--M", "qa:log", "--format", "csv", "1", "9"], {}),
    ("div-jensen-domain", ["div", "jensen", "--F", "x^4", "--domain", "0:10", "1", "3"], {}),
    ("div-skew", ["div", "skew", "--F", "x^2", "--alpha", "0.25", "0", "4"], {}),
    ("div-skew-extended", ["div", "skew", "--F", "x^2", "--extended", "--alpha", "2", "1", "2"], {}),
    ("div-omega", ["div", "omega", "--F", "x^2", "--omega", "0.5", "0", "4"], {}),
    ("div-lehmer-bregman", ["div", "lehmer-bregman", "--F", "x^2", "--delta", "0", "--delta2", "0", "1", "3"], {}),
    ("div-jensen-bregman", ["div", "jensen-bregman", "--F", "x^2", "1", "3"], {}),
    ("div-jensen-bregman-rho-expr", ["div", "jensen-bregman", *CUBIC, "--domain", "0.1:5", "1", "3"], {}),
    # div: errors
    ("div-skew-no-alpha", ["div", "skew", "--F", "x^2", "0", "4"], {}),
    ("div-skew-alpha-range", ["div", "skew", "--F", "x^2", "--alpha", "3", "1", "2"], {}),
    ("div-skew-extended-alpha-1", ["div", "skew", "--F", "x^2", "--extended", "--alpha", "1", "1", "2"], {}),
    ("div-omega-missing", ["div", "omega", "--F", "x^2", "0", "4"], {}),
    ("div-omega-range", ["div", "omega", "--F", "x^2", "--omega", "1.5", "0", "4"], {}),
    ("div-omega-range-plain", ["div", "omega", "--F", "x^2", "--omega", "-1", "--format", "plain", "0", "4"], {}),
    ("div-lehmer-bregman-no-delta2", ["div", "lehmer-bregman", "--F", "x^2", "--delta", "0", "1", "3"], {}),
    ("div-jensen-not-convex", ["div", "jensen", "--F", "sqrt(x)", "1", "4"], {}),
    ("div-bregman-not-convex", ["div", "bregman", "--F", "log(x)", "--domain", "0.5:4", "2", "1"], {}),
    ("div-bad-domain", ["div", "bregman", "--F", "x^2", "--domain", "1-2", "2", "1"], {}),
    ("div-bad-domain-csv", ["div", "bregman", "--F", "x^2", "--domain", "a:b", "--format", "csv", "2", "1"], {}),
    ("div-parse-error", ["div", "bregman", "--F", "x^^2", "2", "1"], {}),
    ("div-unknown-rho", ["div", "bregman", "--F", "x^2", "--rho", "foo", "2", "1"], {}),
    ("div-rho-expr-no-domain", ["div", "bregman", *CUBIC, "2", "1"], {}),
    ("div-tau-expr", ["div", "bregman", "--F", "x^2", "--tau", "x^3+x", "--domain", "0.1:5", "2", "1"], {}),
    ("div-jensen-log-negative", ["div", "jensen", "--F", "x^2", "--M", "qa:log", "--", "-1", "2"], {}),
    ("div-bregman-log-domain", ["div", "bregman", "--F", "x^2", "--rho", "log", "--domain=-1:4", "2", "1"], {}),
    ("div-empty-domain", ["div", "jensen", "--F", "x^2", "--domain", "", "1", "3"], {}),
    ("div-unknown-mean", ["div", "jensen", "--F", "x^2", "--M", "qa:nope", "1", "2"], {}),
    # mean
    ("mean", ["mean", "--spec", "power:2", "3", "4"], {}),
    ("mean-weights", ["mean", "--spec", "qa:identity", "--weights", "0.25,0.75", "0", "4"], {}),
    ("mean-weights-normalized", ["mean", "--spec", "qa:log", "--weights", "1,3", "1", "4"], {}),
    ("mean-weights-zero-sum", ["mean", "--spec", "qa:identity", "--weights", "0,0", "1", "4"], {}),
    ("mean-weights-length", ["mean", "--spec", "qa:identity", "--weights", "0.5,0.5", "1", "2", "3"], {}),
    ("mean-weights-nonpositive", ["mean", "--spec", "qa:identity", "--weights", "2,-1", "1", "2"], {}),
    ("mean-no-values", ["mean", "--spec", "qa:identity"], {}),
    ("mean-bad-spec", ["mean", "--spec", "power:two", "1", "2"], {}),
    ("mean-domain-error", ["mean", "--spec", "qa:log", "--", "-1", "4"], {}),
    ("mean-domain-error-csv", ["mean", "--spec", "qa:log", "--format", "csv", "--", "-1", "4"], {}),
    ("mean-csv-comments", ["mean", "--spec", "qa:log", "--data", "pts.csv"], {}),
    ("mean-csv-weights", ["mean", "--spec", "qa:identity", "--data", "wpts.csv"], {}),
    ("mean-csv-mixed", ["mean", "--spec", "power:2", "--data", "mixed.csv"], {}),
    ("mean-csv-empty", ["mean", "--spec", "qa:identity", "--data", "empty.csv"], {}),
    ("mean-json-list", ["mean", "--spec", "qa:reciprocal", "--data", "list.json"], {}),
    ("mean-json-object", ["mean", "--spec", "lehmer:0.5", "--data", "obj.json"], {}),
    ("mean-json-object-unweighted", ["mean", "--spec", "qa:identity", "--data", "objnw.json"], {}),
    ("mean-json-empty", ["mean", "--spec", "qa:identity", "--data", "none.json"], {}),
    ("mean-json-length", ["mean", "--spec", "qa:identity", "--data", "short.json"], {}),
    ("mean-plain", ["mean", "--spec", "qa:identity", "--format", "plain", "1", "3"], {}),
    ("mean-csv", ["mean", "--spec", "qa:identity", "--format", "csv", "1", "3"], {}),
    ("mean-seed-env", ["mean", "--spec", "qa:identity", "1", "3"], {"CDT_SEED": "77"}),
    ("mean-bad-seed-env", ["mean", "--spec", "qa:identity", "1", "3"], {"CDT_SEED": "seven"}),
    ("mean-weights-nan", ["mean", "--spec", "qa:identity", "--weights", "1,nan,1", "1", "2", "3"], {}),
    # diversity
    ("diversity", ["diversity", "--F", "x^2", "--M", "qa:identity", "--N", "qa:identity", "--data", "pts.csv"], {}),
    ("diversity-log", ["diversity", "--F", "exp(x)", "--M", "qa:log", "--N", "qa:log", "--data", "obj.json"], {}),
    ("diversity-domain", ["diversity", "--F", "x^2", "--M", "qa:identity", "--N", "qa:identity",
                          "--data", "list.json", "--domain", "0:10"], {}),
    ("diversity-not-convex", ["diversity", "--F", "sqrt(x)", "--M", "qa:identity", "--N", "qa:identity",
                              "--data", "pts.csv"], {}),
    # bhat
    ("bhat", ["bhat", "--M", "qa:log", "--N", "qa:identity", "--alpha", "0.5", "--p", "u.json", "--q", "v.json"], {}),
    ("bhat-power", ["bhat", "--delta1", "2", "--delta2", "1", "--alpha", "0.5", "--p", "u.json", "--q", "v.json"], {}),
    ("bhat-coefficient", ["bhat", "--M", "qa:log", "--alpha", "0.5", "--coefficient", "--p", "u.json", "--q", "v.json"],
     {}),
    ("bhat-cauchy", ["bhat", "--M", "qa:reciprocal", "--N", "qa:identity", "--alpha", "0.5",
                     "--p", "c1.json", "--q", "c3.json"], {}),
    # the Gauss-Legendre flags are gone: argparse rejects them
    ("bhat-cauchy-gauss", ["bhat", "--M", "qa:reciprocal", "--alpha", "0.3", "--quad-rule", "gauss_legendre",
                           "--quad-nodes", "32", "--p", "c1.json", "--q", "c3.json"], {}),
    ("bhat-grid", ["bhat", "--M", "qa:log", "--alpha", "0.4", "--p", "grid.json", "--q", "grid2.json"], {}),
    ("bhat-csv-dist", ["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", "dist.csv", "--q", "dist2.csv"], {}),
    ("bhat-grid-mismatch", ["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", "dist.csv", "--q", "wpts.csv"], {}),
    ("bhat-length-mismatch", ["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", "dist.csv", "--q", "mixed.csv"], {}),
    ("bhat-misordered", ["bhat", "--M", "qa:identity", "--N", "qa:log", "--alpha", "0.5",
                         "--p", "u.json", "--q", "v.json"], {}),
    ("bhat-both", ["bhat", "--M", "qa:log", "--delta1", "2", "--delta2", "1", "--alpha", "0.5",
                   "--p", "u.json", "--q", "v.json"], {}),
    ("bhat-neither", ["bhat", "--alpha", "0.5", "--p", "u.json", "--q", "v.json"], {}),
    ("bhat-mystery", ["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", "mystery.json", "--q", "u.json"], {}),
    ("bhat-alpha-range", ["bhat", "--M", "qa:log", "--alpha", "1.5", "--p", "u.json", "--q", "v.json"], {}),
    ("bhat-quad-tol-zero", ["bhat", "--M", "qa:log", "--alpha", "0.5", "--quad-tol", "0",
                            "--p", "c1.json", "--q", "c3.json"], {}),
    ("bhat-nan-mass", ["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", "nan.csv", "--q", "nan.csv"], {}),
    ("bhat-csv", ["bhat", "--M", "qa:log", "--alpha", "0.5", "--format", "csv", "--p", "u.json", "--q", "v.json"], {}),
    # alpha-div
    ("alpha-div", ["alpha-div", "--alpha", "0.5", "--p", "u.json", "--q", "v.json"], {}),
    ("alpha-div-cauchy", ["alpha-div", "--alpha", "0.25", "--p", "c1.json", "--q", "c3.json"], {}),
    # expect
    ("expect", ["expect", "--f", "log", "--data", "grid.json"], {}),
    ("expect-csv-expr", ["expect", "--f", "1/x", "--data", "dist.csv"], {}),
    ("expect-normalize", ["expect", "--f", "power:2", "--data", "grid2.json", "--normalize"], {}),
    ("expect-discrete", ["expect", "--f", "exp", "--data", "v.json"], {}),
    ("expect-expr-no-domain", ["expect", "--f", "x^3+x", "--data", "grid.json"], {}),
    # centroid
    ("centroid", ["centroid", "--F", "x^2", "--data", "pts.csv"], {}),
    ("centroid-log", ["centroid", "--F", "exp(x)", "--rho", "log", "--tau", "log", "--data", "obj.json"], {}),
    ("centroid-rho-expr", ["centroid", *CUBIC, "--domain", "0.1:20", "--data", "pts.csv"], {}),
    ("centroid-plain", ["centroid", "--F", "x^2", "--data", "wpts.csv", "--format", "plain"], {}),
    ("centroid-not-convex", ["centroid", "--F", "sqrt(x)", "--data", "pts.csv"], {}),
    # cluster
    ("cluster", ["cluster", "--F", "x^2", "--data", "pts.csv", "--k", "2", "--seed", "4"], {}),
    ("cluster-log", ["cluster", "--F", "exp(x)", "--rho", "log", "--tau", "log", "--data", "pts.csv", "--k", "2"], {}),
    ("cluster-csv", ["cluster", "--F", "x^2", "--data", "mixed.csv", "--k", "2", "--format", "csv"], {}),
    ("cluster-k0", ["cluster", "--F", "x^2", "--data", "pts.csv", "--k", "0"], {}),
    ("cluster-negative-seed-env", ["cluster", "--F", "x^2", "--data", "pts.csv", "--k", "2"], {"CDT_SEED": "-1"}),
    ("cluster-rho-expr", ["cluster", *CUBIC, "--domain", "0.1:20", "--data", "pts.csv", "--k", "2"], {}),
    # check-convexity
    ("check-convexity", ["check-convexity", "--F", "exp(x)", "--rho", "log", "--tau", "log", "--domain", "0.5:5"], {}),
    ("check-convexity-witness", ["check-convexity", "--F", "sqrt(x)", "--domain", "0.5:5"], {}),
    ("check-convexity-rho-expr", ["check-convexity", *CUBIC, "--domain", "0.1:5"], {}),
    ("check-convexity-plain", ["check-convexity", "--F", "x^2", "--domain=-1:1", "--format", "plain"], {}),
    ("check-convexity-csv", ["check-convexity", "--F", "x", "--domain", "0:1", "--format", "csv"], {}),
    ("check-convexity-empty-domain", ["check-convexity", "--F", "x^2", "--domain", ""], {}),
    ("check-convexity-grid-zero", ["check-convexity", "--F", "x^2", "--domain", "0:1", "--grid", "0"], {}),
    ("check-convexity-bad-domain", ["check-convexity", "--F", "x^2", "--domain", "0:1:2"], {}),
    # dominates
    ("dominates", ["dominates", "--a", "power:0", "--b", "power:1", "--domain", "0.01:10", "--samples", "3000"], {}),
    ("dominates-above", ["dominates", "--a", "power:2", "--b", "power:1", "--domain", "0.5:8", "--seed", "3"], {}),
    ("dominates-lehmer", ["dominates", "--a", "lehmer:-0.3", "--b", "qa:identity", "--domain", "0.1:10",
                                "--samples", "500"], {}),
    ("dominates-plain", ["dominates", "--a", "qa:log", "--b", "qa:identity", "--domain", "1:2", "--samples", "50",
                         "--format", "plain"], {}),
    ("dominates-negative-seed", ["dominates", "--a", "qa:log", "--b", "qa:identity", "--domain", "1:2",
                                 "--seed", "-1"], {}),
    ("dominates-samples-zero", ["dominates", "--a", "qa:log", "--b", "qa:identity", "--domain", "1:2",
                                "--samples", "0"], {}),
    # missing or malformed input: ConfigError, exit 2
    ("mean-missing-data", ["mean", "--spec", "qa:identity", "--data", "missing.csv"], {}),
    ("mean-bad-row", ["mean", "--spec", "qa:identity", "--data", "bad.csv"], {}),
    ("mean-bad-weights", ["mean", "--spec", "qa:identity", "--weights", "a,b", "1", "2"], {}),
    ("mean-broken-json", ["mean", "--spec", "qa:identity", "--data", "broken.json"], {}),
    ("centroid-scalar-json", ["centroid", "--F", "x^2", "--data", "scalar.json"], {}),
    ("bhat-missing-p", ["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", "missing.json", "--q", "u.json"], {}),
    ("bhat-broken-json", ["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", "broken.json", "--q", "u.json"], {}),
    ("expect-grid-without-ps", ["expect", "--f", "log", "--data", "nops.json"], {}),
    ("bhat-delta1-only", ["bhat", "--delta1", "1", "--alpha", "0.5", "--p", "u.json", "--q", "v.json"], {}),
    ("bhat-delta2-only", ["bhat", "--delta2", "1", "--alpha", "0.5", "--p", "u.json", "--q", "v.json"], {}),
    # argparse rejections: exit 2, usage on stderr, nothing on stdout
    ("argparse-format", ["mean", "--spec", "qa:identity", "--format", "xml", "1"], {}),
    ("argparse-missing-F", ["div", "bregman", "3", "1"], {}),
    ("argparse-kind", ["div", "tsallis", "--F", "x^2", "3", "1"], {}),
]


def _write_files(root: Path) -> None:
    for name, content in FILES.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (root / name).write_text(text, encoding="utf-8")


def invoke(argv: list[str], env: dict[str, str]) -> dict:
    """Run ``main(argv)`` in the current directory; the exit code and stdout."""
    saved = {k: os.environ.get(k) for k in ("CDT_SEED", *env)}
    os.environ.pop("CDT_SEED", None)
    os.environ.update(env)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return {"code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_cases_are_many_and_named_once():
    ids = [c[0] for c in CASES]
    assert len(ids) == len(set(ids)) >= 60


@pytest.mark.parametrize("case_id, argv, env", CASES, ids=[c[0] for c in CASES])
def test_transcript(case_id, argv, env, golden, workdir):
    assert invoke(argv, env) == golden[case_id]


@pytest.mark.parametrize(
    "sub", ["mean", "div", "diversity", "bhat", "alpha-div", "expect", "centroid", "cluster",
            "check-convexity", "dominates"]
)
def test_help_exits_zero(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([sub, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cdt " + sub)


def test_expression_rho_takes_the_domain(workdir):
    """An expression --rho is built on --domain: B = (rho(2) - rho(1))^2 for
    F = rho^2 with rho(x) = x^3 + x and tau the identity."""
    argv = ["div", "bregman", *CUBIC, "--domain", "0.1:5", "--format", "plain", "2", "1"]
    assert invoke(argv, {}) == {"code": 0, "stdout": "64.0\n"}
    argv = ["centroid", *CUBIC, "--domain", "0.1:20", "--data", "objnw.json", "--format", "json"]
    doc = json.loads(invoke(argv, {})["stdout"])
    # G = F o rho^-1 is u^2, so the centroid solves rho(c) = (rho(1) + rho(3)) / 2 = 16
    root = math.sqrt(64.0 + 1.0 / 27.0)
    assert doc["value"] == pytest.approx(np.cbrt(8.0 + root) + np.cbrt(8.0 - root), rel=1e-12)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            record = {case_id: invoke(argv, env) for case_id, argv, env in CASES}
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} transcripts to {GOLDEN}", file=sys.stderr)
