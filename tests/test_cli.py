import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ftgamma
from ftgamma.cli import main
from ftgamma.fit import FitResult


DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFit:
    def test_bundled_all_matches_reference_table(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--bundled", "--family", "all",
                                 "--json")
        assert code == 0
        payload = json.loads(out)
        par = payload["pareto"]["params"]
        ftg = payload["ftg"]["params"]
        assert par["alpha"] == pytest.approx(-0.45, abs=0.01)
        assert par["sigma"] == pytest.approx(1.38, abs=0.05)
        assert payload["pareto"]["loglik"] == pytest.approx(-174.44, abs=0.05)
        assert ftg["alpha"] == pytest.approx(-0.20, abs=0.02)
        assert ftg["sigma"] == pytest.approx(0.65, abs=0.05)
        assert payload["ftg"]["loglik"] == pytest.approx(-172.37, abs=0.05)
        assert payload["lrt"]["statistic"] == pytest.approx(4.14, abs=0.1)
        assert payload["lrt"]["p_value"] == pytest.approx(0.042, abs=0.002)
        assert '"manifest"' in err

    def test_json_round_trips_fit_result(self, capsys, ftg_fit):
        code, out, _ = run_cli(capsys, "fit", "--bundled", "--family", "ftg",
                               "--json")
        assert code == 0
        payload = json.loads(out)
        restored = FitResult.from_dict(payload["ftg"])
        assert restored.params.alpha == ftg_fit.params.alpha
        assert restored.params.rho == ftg_fit.params.rho
        assert restored.loglik == ftg_fit.loglik
        assert restored.converged == ftg_fit.converged
        assert np.allclose(restored.observed_info, ftg_fit.observed_info)
        assert restored.to_dict() == payload["ftg"]

    def test_empty_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run_cli(capsys, "fit", "--data", str(path))
        assert code == 2
        assert "data error" in err

    def test_bad_lines_reported_with_numbers(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nfoo\n-3.0\n2.0\n")
        code, _, err = run_cli(capsys, "fit", "--data", str(path))
        assert code == 2
        assert "lines 2, 3" in err

    def test_data_digest_reads_file_in_blocks(self, tmp_path):
        # the manifest digest is the SHA-256 of the whole file, though the
        # file is hashed 1 MB at a time
        import argparse
        import hashlib

        from ftgamma.cli import _load

        path = tmp_path / "large.txt"
        x = np.random.default_rng(8).pareto(1.0, 100_000)
        path.write_text("\n".join(map(repr, x.tolist())) + "\n")
        assert path.stat().st_size > 1 << 20
        smp, digest = _load(argparse.Namespace(bundled=False, data=str(path), column=None))
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        assert np.array_equal(smp.values, x)

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--data", "/nonexistent/x.txt")
        assert code == 2

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--bundled", "--family", "pareto")
        assert code == 0
        assert "Pareto distribution" in out and "loglik" in out

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "fit.json"
        code, out, _ = run_cli(capsys, "fit", "--bundled", "--family", "pareto",
                               "--json", "--out", str(target))
        assert code == 0
        assert out == ""  # primary output went to the file
        payload = json.loads(target.read_text())
        assert payload["pareto"]["params"]["alpha"] == pytest.approx(-0.45, abs=0.01)

    def test_csv_column_index(self, capsys, tmp_path):
        path = tmp_path / "losses.csv"
        path.write_text("id,loss\n1,1.5\n2,2.5\n3,3.5\n")
        code, out, _ = run_cli(capsys, "fit", "--data", str(path), "--column",
                               "1", "--family", "pareto", "--json")
        # tiny sample: the fit may or may not converge, but parsing must work
        assert code in (0, 3)


class TestSample:
    def test_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "sample", "--family", "ftg",
                                 "--alpha", "-0.2", "--sigma", "1", "--rho",
                                 "0.02", "-n", "5", "--seed", "99")
        code2, out2, _ = run_cli(capsys, "sample", "--family", "ftg",
                                 "--alpha", "-0.2", "--sigma", "1", "--rho",
                                 "0.02", "-n", "5", "--seed", "99")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 5

    def test_zero_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--family", "pareto",
                               "--alpha", "-0.5", "--sigma", "1", "-n", "0")
        assert code == 1

    def test_missing_param_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--family", "ftg",
                             "--alpha", "-0.2", "-n", "3")
        assert code == 1

    def test_unseeded_run_reports_seed(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--family", "pareto",
                                 "--alpha", "-0.5", "--sigma", "1", "-n", "2")
        assert code == 0
        manifest = json.loads(err.splitlines()[0])["manifest"]
        assert manifest["seed"] is not None

    def test_manifest_fields(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--bundled", "--family", "pareto")
        assert code == 0
        manifest = json.loads(err.splitlines()[0])["manifest"]
        assert manifest["command"] == "fit"
        assert manifest["parameters"]["family"] == "pareto"
        assert manifest["input_digest"]
        assert manifest["tool_version"]
        assert manifest["timestamp"]


class TestRisk:
    def test_ftg_risk_json(self, capsys):
        code, out, err = run_cli(capsys, "risk", "--bundled", "--family", "ftg",
                                 "--n-sims", "20000", "--seed", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert 10820.4 / 1.4 < payload["risk_capital"] < 10820.4 * 1.4
        assert payload["infinite_mean_severity"] is False

    def test_pareto_warns_infinite_mean(self, capsys):
        code, out, err = run_cli(capsys, "risk", "--bundled", "--family",
                                 "pareto", "--n-sims", "20000", "--seed", "5",
                                 "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["infinite_mean_severity"] is True
        assert "infinite mean" in err
        assert math.log10(payload["risk_capital"]) == pytest.approx(9.8, abs=1.2)

    def test_pareto_severity_model_json(self, capsys):
        _, out, _ = run_cli(capsys, "risk", "--bundled", "--family", "pareto",
                            "--n-sims", "20000", "--seed", "5", "--json")
        model = json.loads(out)["severity_model"]
        assert model.keys() == {"family", "alpha", "sigma"}
        assert model["family"] == "pareto"

    def test_ftg_severity_on_the_pareto_edge(self, capsys):
        # an FTG fit on the Pareto edge still reports as FTG: four parameters
        # in JSON, and a rho column in text (the sample is
        # ftg_rvs(FtgParams.pareto(-1.5, 1.0), 40, RngStream(4242).child(40, 16)))
        args = ("risk", "--data", str(DATA / "pareto_edge_sample.txt"), "--family",
                "ftg", "--n-sims", "20000", "--seed", "3")
        _, out, _ = run_cli(capsys, *args, "--json")
        model = json.loads(out)["severity_model"]
        assert model["family"] == "ftg"
        assert model["theta"] == 0.0 and model["rho"] == 0.0
        _, out, _ = run_cli(capsys, *args)
        assert "rho=0.0000e+00" in out.splitlines()[1]

    def test_ftg_severity_on_the_gamma_edge_prints_theta(self, capsys):
        # sigma = rho / theta is 0 on the gamma edge; theta sets the scale
        # (the sample is 400 draws of RngStream(1234).generator.gamma(3.0))
        code, out, _ = run_cli(capsys, "risk", "--data",
                               str(DATA / "gamma_edge_sample.txt"), "--family",
                               "ftg", "--n-sims", "20000", "--seed", "3")
        assert code == 0
        assert out.splitlines()[1] == "  alpha=2.8897 theta=9.8909e-01"

    def test_byte_identical_reruns(self, capsys):
        args = ("risk", "--bundled", "--family", "ftg", "--n-sims", "15000",
                "--seed", "12", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_bootstrap_table(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "--bundled", "--bootstrap", "10",
                               "--keep-every", "5", "--n-sims", "10000",
                               "--seed", "3")
        assert code == 0
        assert "Pareto distribution" in out and "ln(theta)" in out
        assert "orig" in out

    def test_nonpositive_lambda_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "risk", "--bundled", "--lambda", "0")
        assert code == 1


class TestGof:
    def test_pareto_gof_json(self, capsys):
        code, out, _ = run_cli(capsys, "gof", "--bundled", "--family", "pareto",
                               "--n-boot", "99", "--seed", "17", "--json")
        assert code == 0
        payload = json.loads(out)
        assert 1.0 / 100.0 <= payload["p_w2"] <= 1.0
        assert payload["w2"] > 0.0


class TestPinnedStdout:
    # text stdout captured before the fitter's specfun and statistics passes
    # were merged: a speed change must not move a printed digit

    def test_fit_bundled_all(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--bundled", "--family", "all")
        assert code == 0
        assert out.encode() == (DATA / "fit_bundled_all.txt").read_bytes()

    # samples whose FTG fit lies on an edge, stored so that the pins do not
    # follow NumPy's gamma stream: gamma_edge_sample.txt is 400 draws of
    # RngStream(1234).generator.gamma(3.0), and pareto_edge_sample.txt is
    # ftg_rvs(FtgParams.pareto(-1.5, 1.0), 40, RngStream(4242).child(40, 16))
    @pytest.mark.parametrize("edge", ["gamma", "pareto"])
    @pytest.mark.parametrize("argv, pin", [
        (("fit", "--family", "all"), "fit_all.txt"),
        (("plotdata", "--mode", "survival"), "plotdata_survival.txt"),
        (("risk", "--family", "ftg", "--n-sims", "20000", "--seed", "3",
          "--json"), "risk.json"),
    ], ids=["fit", "plotdata", "risk"])
    @pytest.mark.filterwarnings("ignore:LRT computed from a fit that did not")
    def test_edge_sample(self, capsys, edge, argv, pin):
        data = DATA / f"{edge}_edge_sample.txt"
        code, out, _ = run_cli(capsys, argv[0], "--data", str(data), *argv[1:])
        # the Pareto fit of the gamma sample runs off towards alpha -> -inf
        # without converging, so fit exits with the numeric-failure code
        assert code == (3 if (edge, argv[0]) == ("gamma", "fit") else 0)
        assert out.encode() == (DATA / f"{edge}_edge_{pin}").read_bytes()

    def test_gof_ftg_statistics(self, capsys):
        # W^2 and A^2 of the bundled fit use no random draws; the p-values
        # follow NumPy's Generator stream and are left out
        code, out, _ = run_cli(capsys, "gof", "--bundled", "--family", "ftg",
                               "--n-boot", "99", "--seed", "7")
        assert code == 0
        stats = [line.split("   p = ")[0] for line in out.splitlines()
                 if line.startswith(("W^2", "A^2"))]
        want = (DATA / "gof_ftg_bundled_statistics.txt").read_text().splitlines()
        assert stats == want


class TestPlotdata:
    def test_survival_columns(self, capsys):
        code, out, _ = run_cli(capsys, "plotdata", "--bundled", "--mode",
                               "survival")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["x", "empirical", "ftg", "pareto"]
        rows = {float(r.split()[0]): r.split()[1:] for r in lines[1:]}
        # one exceedance above the second-largest loss
        assert float(rows[864.88][0]) == pytest.approx(1.0 / 40.0)
        # fitted survival at the maximum
        assert float(rows[891.62][1]) == pytest.approx(0.0265, abs=0.002)
        assert float(rows[891.62][2]) == pytest.approx(0.0552, abs=0.002)

    def test_histogram_cyclone_preset_grid(self, capsys, tmp_path):
        gen = np.random.default_rng(5)
        vals = 2.01e10 * ((1.0 - gen.random(400)) ** (1 / -1.63) - 1.0)
        path = tmp_path / "pdi.txt"
        path.write_text("\n".join(f"{v:.6g}" for v in vals))
        code, out, _ = run_cli(capsys, "plotdata", "--data", str(path),
                               "--mode", "histogram", "--preset", "cyclone")
        assert code == 0
        lines = out.strip().splitlines()
        pts = np.array([float(r.split()[0]) for r in lines[1:]])
        # evaluation points sit on the 10^(8 + s/5) grid
        s = 5.0 * (np.log10(pts) - 8.0)
        assert np.allclose(s, np.round(s), atol=1e-9)

    def test_histogram_default_origin(self, capsys):
        code, out, _ = run_cli(capsys, "plotdata", "--bundled", "--mode",
                               "histogram")
        assert code == 0
        assert len(out.strip().splitlines()) > 3

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "plotdata", "--bundled", "--mode",
                               "survival", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["x", "empirical", "ftg", "pareto"]
        assert len(payload["rows"]) == 40

    def test_bootstrap_json(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "--bundled", "--bootstrap", "4",
                               "--keep-every", "2", "--n-sims", "10000",
                               "--seed", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "bootstrap"
        ids = [r["sample_id"] for r in payload["rows"]]
        assert 0 in ids and len(ids) == 3


def child_env():
    # a child imports the same ftgamma as this process, installed or not
    src = os.path.dirname(os.path.dirname(ftgamma.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_module(*argv, timeout):
    return subprocess.run([sys.executable, "-m", "ftgamma.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=child_env())


class TestEntryPoint:
    def test_installed_script(self):
        proc = run_module("fit", "--bundled", "--family", "pareto", timeout=120)
        assert proc.returncode == 0
        assert "Pareto distribution" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = run_module("fit", "--family", "nope", timeout=60)
        assert proc.returncode == 1
        assert "invalid choice: 'nope'" in proc.stderr


class TestWithoutScipy:
    # ftgamma imports no SciPy: a child with sys.modules["scipy"] = None
    # fails on any SciPy import, and must print what an unblocked one does
    _BLOCK = ("import sys\n"
              "if sys.argv[1] == 'block':\n"
              "    sys.modules['scipy'] = None\n")

    @staticmethod
    def _assert_same_stdout(child, argv=()):
        blocked, free = [
            subprocess.run([sys.executable, "-c", child, mode, *argv],
                           capture_output=True, text=True, timeout=300, env=child_env())
            for mode in ("block", "free")]
        assert blocked.returncode == 0, blocked.stderr
        assert free.returncode == 0, free.stderr
        assert blocked.stdout == free.stdout

    @pytest.mark.parametrize("argv", [
        "fit --bundled --family all",
        "gof --bundled --family ftg --n-boot 99 --seed 1",
        "risk --bundled --n-sims 20000 --seed 1",
        "risk --bundled --bootstrap 10 --n-sims 20000 --seed 1",
        "plotdata --bundled --mode survival",
    ])
    def test_same_stdout_with_scipy_blocked(self, argv):
        self._assert_same_stdout(self._BLOCK + "from ftgamma.cli import main\n"
                                 "sys.exit(main(sys.argv[2:]))\n", argv.split())

    def test_quantile_with_scipy_blocked(self):
        self._assert_same_stdout(
            self._BLOCK + "from ftgamma import FtgParams, quantile\n"
            "print(repr(quantile(FtgParams(-0.2, 0.001, 4.3e-4), 0.999)))\n")
