import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdt.cli import _domain, config_from_argv, dispatch, main
from cdt.errors import ConfigError
from cdt.generators import Interval


def run(argv):
    try:
        cfg = config_from_argv([str(a) for a in argv])
    except ConfigError as exc:
        return 2, {"error": {"type": "ConfigError", "message": str(exc)}}
    return dispatch(cfg)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestDiv:
    def test_bregman_example(self):
        code, out = run(["div", "bregman", "--F", "x^2", "--rho", "identity", "--tau", "identity", "3", "1"])
        assert code == 0
        assert out["value"] == 4.0

    def test_jensen(self):
        code, out = run(["div", "jensen", "--F", "x^2", "--M", "qa:identity", "--N", "qa:identity", "1", "3"])
        assert code == 0
        assert out["value"] == pytest.approx(1.0, rel=1e-12)

    def test_skew_and_extended(self):
        code, out = run(["div", "skew", "--F", "x^2", "--alpha", "0.25", "0", "4"])
        assert code == 0 and out["value"] == pytest.approx(3.0, rel=1e-12)
        code, out = run(["div", "skew", "--F", "x^2", "--extended", "--alpha", "2", "1", "2"])
        assert code == 0 and out["value"] == pytest.approx(2.0, rel=1e-12)

    def test_omega(self):
        code, out = run(["div", "omega", "--F", "x^2", "--omega", "0.5", "0", "4"])
        assert code == 0 and out["value"] == pytest.approx(4.0, rel=1e-12)

    def test_lehmer_bregman(self):
        code, out = run(["div", "lehmer-bregman", "--F", "x^2", "--delta", "0", "--delta2", "0", "1", "3"])
        assert code == 0 and out["value"] == pytest.approx(4.0, rel=1e-10)

    def test_jensen_bregman(self):
        code, out = run(["div", "jensen-bregman", "--F", "x^2", "--rho", "identity", "--tau", "identity", "1", "3"])
        assert code == 0 and out["value"] == pytest.approx(1.0, rel=1e-10)

    def test_multiplicative_convexity_via_log_generators(self):
        code, out = run(["div", "bregman", "--F", "exp(x)", "--rho", "log", "--tau", "log", "2", "1"])
        assert code == 0
        want = math.e * (2 - 1) - 1 * math.e * math.log(2 / 1)
        assert out["value"] == pytest.approx(want, rel=1e-9)


class TestBhat:
    def test_classic_example(self, tmp_path):
        u = write_json(tmp_path, "u.json", {"type": "discrete", "masses": [0.5, 0.5]})
        v = write_json(tmp_path, "v.json", {"type": "discrete", "masses": [0.9, 0.1]})
        code, out = run(["bhat", "--M", "qa:log", "--N", "qa:identity", "--alpha", "0.5", "--p", u, "--q", v])
        assert code == 0
        assert out["value"] == pytest.approx(0.111572, abs=5e-7)

    def test_power_variant(self, tmp_path):
        u = write_json(tmp_path, "u.json", {"type": "discrete", "masses": [0.5, 0.5]})
        v = write_json(tmp_path, "v.json", {"type": "discrete", "masses": [0.9, 0.1]})
        code, out = run(["bhat", "--delta1", "2", "--delta2", "1", "--alpha", "0.5", "--p", u, "--q", v])
        assert code == 0 and out["value"] > 0

    def test_coefficient(self, tmp_path):
        u = write_json(tmp_path, "u.json", {"type": "discrete", "masses": [0.5, 0.5]})
        v = write_json(tmp_path, "v.json", {"type": "discrete", "masses": [0.9, 0.1]})
        code, out = run(["bhat", "--M", "qa:log", "--alpha", "0.5", "--coefficient", "--p", u, "--q", v])
        assert code == 0
        assert out["value"] == pytest.approx(math.sqrt(0.45) + math.sqrt(0.05), rel=1e-12)

    def test_cauchy_files(self, tmp_path):
        u = write_json(tmp_path, "u.json", {"type": "cauchy", "scale": 1.0})
        v = write_json(tmp_path, "v.json", {"type": "cauchy", "scale": 3.0})
        code, out = run(["bhat", "--M", "qa:reciprocal", "--N", "qa:identity", "--alpha", "0.5", "--p", u, "--q", v])
        assert code == 0
        assert out["value"] == pytest.approx(0.143841, abs=1e-5)

    def test_misordered_means_exit_3_with_dominance_error(self, tmp_path):
        u = write_json(tmp_path, "u.json", {"type": "discrete", "masses": [0.5, 0.5]})
        v = write_json(tmp_path, "v.json", {"type": "discrete", "masses": [0.9, 0.1]})
        code, out = run(["bhat", "--M", "qa:identity", "--N", "qa:log", "--alpha", "0.5", "--p", u, "--q", v])
        assert code == 3
        assert out["error"]["type"] == "DominanceError"

    def test_check_dominance_flag_is_gone(self, tmp_path):
        u = write_json(tmp_path, "u.json", {"type": "discrete", "masses": [0.5, 0.5]})
        with pytest.raises(SystemExit):
            config_from_argv(["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", u, "--q", u, "--check-dominance"])

    @pytest.mark.parametrize("doc", [{"type": "discrete", "masses": [0.5, 0.5]}, {"type": "cauchy", "scale": 1.0}])
    def test_identical_inputs_print_positive_zero(self, tmp_path, capsys, doc):
        # -log(c^M / c^N) is -0.0 when the two coefficients are equal
        u = write_json(tmp_path, "u.json", doc)
        assert main(["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", u, "--q", u]) == 0
        text = capsys.readouterr().out
        assert '"value": 0.0,' in text and math.copysign(1.0, json.loads(text)["value"]) == 1.0

    def test_alpha_div(self, tmp_path):
        u = write_json(tmp_path, "u.json", {"type": "discrete", "masses": [0.5, 0.5]})
        v = write_json(tmp_path, "v.json", {"type": "discrete", "masses": [0.9, 0.1]})
        code, out = run(["alpha-div", "--alpha", "0.5", "--p", u, "--q", v])
        assert code == 0
        assert out["value"] == pytest.approx(0.422291, abs=5e-7)


class TestOtherSubcommands:
    def test_mean(self):
        code, out = run(["mean", "--spec", "power:2", "3", "4"])
        assert code == 0
        assert out["value"] == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_mean_with_weights(self):
        code, out = run(["mean", "--spec", "qa:identity", "--weights", "0.25,0.75", "0", "4"])
        assert code == 0 and out["value"] == pytest.approx(3.0, rel=1e-12)

    def test_check_convexity(self):
        code, out = run(["check-convexity", "--F", "exp(x)", "--rho", "log", "--tau", "log", "--domain", "0.5:5"])
        assert code == 0
        assert out["verdict"] == "convex"

    def test_check_convexity_rejects(self):
        code, out = run(["check-convexity", "--F", "sqrt(x)", "--rho", "identity", "--tau", "identity", "--domain", "0.5:5"])
        assert code == 0
        assert out["verdict"] == "not_convex"
        assert "witness" in out

    def test_dominates(self):
        code, out = run(["dominates", "--a", "power:0", "--b", "power:1", "--domain", "0.01:10", "--samples", "3000"])
        assert code == 0
        assert out["verdict"] == "dominated_by"

    def test_expect(self, tmp_path):
        g = write_json(tmp_path, "g.json", {"type": "grid", "xs": [1.0, 4.0], "ps": [0.5, 0.5]})
        code, out = run(["expect", "--f", "log", "--data", g])
        assert code == 0 and out["value"] == pytest.approx(2.0, rel=1e-12)

    def test_expect_csv_values_and_masses(self, tmp_path):
        d = tmp_path / "d.csv"
        d.write_text("2.0,0.5\n6.0,0.5\n", encoding="utf-8")
        code, out = run(["expect", "--f", "1/x", "--data", str(d)])
        assert code == 0 and out["value"] == pytest.approx(3.0, rel=1e-12)

    def test_diversity(self, tmp_path):
        d = tmp_path / "pts.csv"
        d.write_text("1.0\n3.0\n", encoding="utf-8")
        code, out = run(["diversity", "--F", "x^2", "--M", "qa:identity", "--N", "qa:identity", "--data", str(d)])
        assert code == 0 and out["value"] == pytest.approx(1.0, rel=1e-12)

    def test_centroid_and_cluster(self, tmp_path):
        d = tmp_path / "pts.csv"
        d.write_text("0.9\n1.0\n1.1\n8.9\n9.0\n9.1\n", encoding="utf-8")
        code, out = run(["centroid", "--F", "x^2", "--data", str(d)])
        assert code == 0 and out["value"] == pytest.approx(5.0, abs=1e-6)
        code, out = run(["cluster", "--F", "x^2", "--data", str(d), "--k", "2", "--seed", "4"])
        assert code == 0
        assert sorted(out["centers"]) == pytest.approx([1.0, 9.0], abs=1e-6)
        assert out["iterations"] >= 1
        assert len(out["assignments"]) == 6
        assert out["objective"] == pytest.approx(2 * 0.01 / 6 * 2, rel=1e-6)


class TestIngestion:
    def test_csv_weight_normalization_warns(self, tmp_path):
        d = tmp_path / "pts.csv"
        d.write_text("1.0,2\n3.0,2\n", encoding="utf-8")
        code, out = run(["mean", "--spec", "qa:identity", "--data", str(d)])
        assert code == 0
        assert out["value"] == pytest.approx(2.0, rel=1e-12)
        assert any("normalized" in w for w in out["warnings"])

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["centroid", "--F", "x^2", "--data", "pts.csv"], "nan"),
            (["cluster", "--F", "x^2", "--k", "2", "--data", "pts.csv"], "nan"),
            (["mean", "--spec", "qa:log", "--data", "pts.csv"], "nan"),
            (["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", "pts.csv", "--q", "pts.csv"], "nan"),
            (["mean", "--spec", "qa:log", "--weights", "1,nan,1", "1", "2", "3"], "nan"),
            (["mean", "--spec", "qa:log", "--weights", "1,inf,1", "1", "2", "3"], "inf"),
        ],
        ids=["centroid", "cluster", "mean", "bhat", "mean-weights", "mean-weights-inf"],
    )
    def test_a_nan_weight_is_a_weight_error(self, tmp_path, monkeypatch, capsys, argv, bad):
        """The first non-finite weight is named before the weights are
        normalized: dividing by their sum would spread it over every weight."""
        (tmp_path / "pts.csv").write_text("1.0,0.5\n2.0,nan\n3.0,0.5\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "WeightError", "message": f"weights must be finite; weight 1 is {bad}"}

    def test_bad_distribution_type(self, tmp_path):
        p = write_json(tmp_path, "u.json", {"type": "mystery"})
        code, out = run(["bhat", "--M", "qa:log", "--alpha", "0.5", "--p", p, "--q", p])
        assert code == 2
        assert out["error"]["type"] == "ConfigError"


class TestContract:
    def test_validation_exit_code(self):
        code, out = run(["div", "skew", "--F", "x^2", "--alpha", "3", "1", "2"])
        assert code == 2
        assert out["error"]["type"] == "ConfigError"

    def test_numeric_exit_code(self):
        # geometric mean of data containing a negative value
        code, out = run(["mean", "--spec", "qa:log", "--", "-1", "4"])
        assert code == 3
        assert out["error"]["type"] == "DomainError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["dominates", "--a", "power:0", "--b", "power:1", "--domain", "0.1:5"],
            ["cluster", "--F", "x^2", "--data", "pts.csv", "--k", "2"],
            ["check-convexity", "--F", "x^2", "--domain", "0:1"],
            ["div", "jensen", "--F", "x^2", "1", "3"],
        ],
        ids=["dominates", "cluster", "check-convexity", "div-jensen"],
    )
    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_a_negative_seed_is_a_config_error(self, tmp_path, monkeypatch, capsys, argv, how):
        (tmp_path / "pts.csv").write_text("1.0\n2.0\n9.0\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        if how == "flag":
            argv = [*argv[:1], "--seed", "-1", *argv[1:]]
        else:
            monkeypatch.setenv("CDT_SEED", "-1")
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "ConfigError", "message": "seed must be a nonnegative integer, got -1"}

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("CDT_SEED", "77")
        cfg = config_from_argv(["dominates", "--a", "power:0", "--b", "power:1", "--domain", "0.1:5", "--seed", "3"])
        assert cfg.seed == 77
        monkeypatch.delenv("CDT_SEED")

    def test_provenance_replay_bit_identical(self, tmp_path):
        argv = ["div", "bregman", "--F", "exp(x)", "--rho", "log", "--tau", "log", "2.2", "1.1"]
        code1, out1 = run(argv)
        code2, out2 = run(out1["provenance"]["argv"])
        assert code1 == code2 == 0
        assert out1["value"] == out2["value"]
        assert json.dumps(out1) == json.dumps(out2)

    def test_json_output_reparseable(self, capsys):
        code = main(["mean", "--spec", "qa:identity", "1", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 2.0

    def test_plain_format(self, capsys):
        code = main(["mean", "--spec", "qa:identity", "--format", "plain", "1", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2.0"

    def test_csv_format(self, capsys):
        code = main(["mean", "--spec", "qa:identity", "--format", "csv", "1", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "value,2.0"


def test_python_m_cdt_cli_runs_console_main():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("CDT_SEED", None)
    ok = subprocess.run(
        [sys.executable, "-m", "cdt.cli", "mean", "--spec", "power:2", "3", "4"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert ok.returncode == 0, ok.stderr
    doc = json.loads(ok.stdout)
    assert doc["value"] == pytest.approx(math.sqrt(12.5), rel=1e-12)
    assert doc["provenance"]["argv"] == ["mean", "--spec", "power:2", "3", "4"]
    bad = subprocess.run(
        [sys.executable, "-m", "cdt.cli", "mean", "--spec", "qa:log", "--", "-1", "4"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert bad.returncode == 3
    assert json.loads(bad.stdout)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("anchors, domain", [((2.0, 2.0), (0.25, 12.0)), ((-2.0, -2.0), (-8.0, 4.0))])
def test_equal_anchors_get_a_window_around_them(anchors, domain):
    assert _domain({}, anchors) == Interval(*domain)


def test_plain_format_prints_an_error_line(capsys):
    code = main(["mean", "--spec", "qa:nope", "--format", "plain", "1", "3"])
    assert code != 0
    assert capsys.readouterr().out.strip() == "error: unknown generator 'nope'"
