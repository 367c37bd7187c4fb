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

from helpers import child_env, fit_result_from_dict, near_constant_sample, set_usable_cpus


DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def manifest_of(err):
    return json.loads(err.splitlines()[0])["manifest"]


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

    # each family and both FTG edges, with the Pareto fit that stops on its
    # exponential limit: the JSON is the library's fit of the same data, and
    # the fit rebuilt from its stored fields writes it again, its std_errors
    # recomputed from the information
    @pytest.mark.parametrize("data, family", [
        ("bundled", "ftg"), ("bundled", "pareto"), ("bundled", "gamma"),
        ("gamma_edge_sample.txt", "ftg"), ("gamma_edge_sample.txt", "pareto"),
        ("pareto_edge_sample.txt", "ftg"),
    ])
    def test_json_round_trips_fit_result(self, capsys, losses, data, family):
        if data == "bundled":
            source, smp = ["--bundled"], losses
        else:
            source, smp = ["--data", str(DATA / data)], ftgamma.read_dataset(str(DATA / data))
        code, out, _ = run_cli(capsys, "fit", *source, "--family", family, "--json")
        assert code == 0
        payload = json.loads(out)[family]
        want = getattr(ftgamma, f"fit_{family}")(smp)
        assert payload == json.loads(json.dumps(want.to_dict()))
        assert fit_result_from_dict(payload).to_dict() == payload

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

    def test_gamma_fit_of_a_zero_is_numerical_failure(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("1.0\n0\n2.5\n")
        code, _, err = run_cli(capsys, "fit", "--data", str(path), "--family", "gamma")
        assert code == 3
        assert "ftg: numerical failure: gamma fit needs every observation > 0" in err

    def test_bundled_gamma_fit(self, capsys, losses):
        want = ftgamma.fit_gamma(losses)
        code, out, _ = run_cli(capsys, "fit", "--bundled", "--family", "gamma")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Gamma distribution"
        assert lines[1].split()[:2] == ["alpha", "0.2712"]
        assert lines[2].split()[:2] == ["theta", "0.0027"]
        assert lines[3].split()[:2] == ["loglik", "-181.9381"]
        code, out, _ = run_cli(capsys, "fit", "--bundled", "--family", "gamma", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pareto"] is None and payload["ftg"] is None
        assert payload["gamma"] == json.loads(json.dumps(want.to_dict()))

    def test_data_digest_hashes_the_values(self, capsys, tmp_path):
        # the digest is taken from the values analysed, not the file's
        # bytes: a plain file and a CSV column of the same values share it,
        # and two columns of one CSV do not
        import hashlib

        x = np.random.default_rng(8).pareto(1.0, 200)
        plain = tmp_path / "losses.txt"
        plain.write_text("\n".join(map(repr, x.tolist())) + "\n")
        csv = tmp_path / "losses.csv"
        csv.write_text("year,loss\n" + "".join(f"{2000 + i},{v!r}\n"
                                               for i, v in enumerate(x.tolist())))
        want = hashlib.sha256(x.astype(np.float64).tobytes()).hexdigest()[:16]
        digests = {}
        for path, column in [(plain, None), (csv, "loss"), (csv, "year")]:
            argv = ["--column", column] if column else []
            code, _, err = run_cli(capsys, "fit", "--data", str(path),
                                   "--family", "pareto", *argv)
            assert code == 0
            digests[column] = manifest_of(err)["input_digest"]
        assert digests[None] == digests["loss"] == want
        assert digests["year"] != want

    def test_data_read_from_a_pipe(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ftgamma.cli", "fit", "--data", "/dev/stdin"],
            input=(Path(ftgamma.__file__).parent / "data" / "external_fraud.txt").read_text(),
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_module("fit", "--bundled", timeout=120).stdout
        assert manifest_of(proc.stderr)["input_digest"] == "27bfde434be7c0e2"

    def test_directory_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", "--data", str(tmp_path))
        assert code == 2
        assert err.startswith("ftg: data error:")
        assert "Traceback" not in err

    def test_unreadable_file_is_data_error(self, capsys, monkeypatch):
        # chmod cannot deny a read to root, so the reader is replaced
        def denied(path, column=None):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(ftgamma.cli, "read_dataset", denied)
        code, out, err = run_cli(capsys, "fit", "--data", "losses.txt")
        assert code == 2
        assert out == ""
        assert err == "ftg: data error: [Errno 13] Permission denied: 'losses.txt'\n"

    # the sniff reads the first lines; NumPy's reader and the line scan
    # meet a bad byte past the first 8 KiB that the sniff decodes
    @pytest.mark.parametrize("head", [0, 5000], ids=["sniff", "reader"])
    def test_non_utf8_is_data_error(self, capsys, tmp_path, head):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1.5\n" * head + b"\xff2.5\n3.5\n")
        code, _, err = run_cli(capsys, "fit", "--data", str(path))
        assert code == 2
        assert err == f"ftg: data error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--data", "/nonexistent/x.txt")
        assert code == 2
        assert "data error" in err

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


class TestOut:
    # --out receives the bytes stdout would, and is opened before the work
    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("fit", "--bundled", "--family", "pareto"),
        ("sample", "--family", "ftg", "--alpha", "-0.2", "--sigma", "1", "--rho",
         "0.02", "-n", "5", "--seed", "9"),
        ("risk", "--bundled", "--family", "pareto", "--n-sims", "20000", "--seed", "5"),
        ("gof", "--bundled", "--family", "pareto", "--n-boot", "99", "--seed", "5"),
        ("plotdata", "--bundled", "--mode", "survival"),
    ], ids=lambda argv: argv[0])
    def test_file_gets_the_stdout_bytes(self, capsys, tmp_path, argv, fmt):
        code, out, _ = run_cli(capsys, *argv, *fmt)
        assert code == 0
        target = tmp_path / "report"
        code, to_stdout, _ = run_cli(capsys, *argv, *fmt, "--out", str(target))
        assert code == 0
        assert to_stdout == ""
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_path_fails_before_the_fit(self, capsys, tmp_path, monkeypatch,
                                                  where):
        def no_fit(_):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(ftgamma.cli, "fit_ftg", no_fit)
        target = tmp_path / "missing" / "x.txt" if where == "missing-dir" else tmp_path
        code, out, err = run_cli(capsys, "fit", "--bundled", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("ftg: cannot write --out: ")
        assert len(err.splitlines()) == 1

    def test_failed_run_leaves_the_file_empty(self, capsys, tmp_path):
        target = tmp_path / "fit.txt"
        target.write_text("an earlier report\n")
        code, _, err = run_cli(capsys, "fit", "--data", str(tmp_path / "none.txt"),
                               "--out", str(target))
        assert code == 2
        assert "data error" in err
        assert target.read_bytes() == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_is_an_output_error(self):
        proc = run_module("fit", "--bundled", "--family", "pareto", "--out", "/dev/full",
                          timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("ftg: cannot write --out: ")


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

    def test_zero_n_is_invalid_request(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--family", "pareto",
                                 "--alpha", "-0.5", "--sigma", "1", "-n", "0")
        assert code == 1
        assert out == ""
        assert err.endswith("ftg: invalid request: n must be >= 1, got 0\n")

    def test_missing_param_is_invalid_request(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--family", "ftg",
                               "--alpha", "-0.2", "-n", "3")
        assert code == 1
        assert err == "ftg: invalid request: ftg needs --rho (plus --theta or --sigma)\n"

    @pytest.mark.parametrize("alpha", ["-2e-1", "-2E-1", "-.2e0", "-2.e-1"])
    def test_negative_float_with_exponent_is_a_value(self, capsys, alpha):
        # argparse alone reads -2e-1 as an option and exits 1
        argv = ("sample", "--family", "pareto", "--sigma", "1", "-n", "2", "--seed", "1")
        code, out, _ = run_cli(capsys, *argv, "--alpha", alpha)
        assert code == 0
        assert out == run_cli(capsys, *argv, "--alpha", "-0.2")[1]

    @pytest.mark.parametrize("family, scale", [("pareto", ()), ("ftg", ("--rho", "1"))])
    def test_infinite_sigma_is_invalid_request(self, capsys, family, scale):
        code, out, err = run_cli(capsys, "sample", "--family", family, "--alpha", "-1.5",
                                 "--sigma", "inf", *scale, "-n", "3", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("ftg: invalid request: ") and "sigma" in err

    def test_overflowing_envelope_rate_is_invalid_request(self, capsys):
        # the shifted exponential's rate once ended in an OverflowError
        # traceback; test_sample.py has the other laws it refuses
        code, out, err = run_cli(capsys, "sample", "--family", "ftg", "--alpha", "1e160",
                                 "--rho", "1", "--theta", "1", "-n", "3", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("ftg: invalid request: the sampler's rate")
        assert "Traceback" not in err

    def test_negative_nan_sigma_is_a_value(self, capsys):
        # not -n with the value an, which argparse alone would read
        code, out, err = run_cli(capsys, "sample", "--family", "pareto", "--alpha", "-1.5",
                                 "--sigma", "-nan", "-n", "3", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("ftg: invalid request: ") and "sigma" in err

    def test_unseeded_run_reports_seed(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--family", "pareto",
                                 "--alpha", "-0.5", "--sigma", "1", "-n", "2")
        assert code == 0
        assert manifest_of(err)["seed"] is not None

    def test_vanishing_truncation_terminates(self):
        # rho = 1e-20 once made the shifted exponential's rate 0 and the
        # sampler loop forever: a child process times out instead of hanging
        proc = run_module("sample", "--family", "ftg", "--alpha", "2", "--theta", "1",
                          "--rho", "1e-20", "-n", "1000", "--seed", "7", timeout=60)
        assert proc.returncode == 0, proc.stderr
        vals = np.array(proc.stdout.split(), dtype=float)
        assert vals.size == 1000 and np.all(np.isfinite(vals)) and np.all(vals >= 0.0)

    def test_manifest_fields(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--bundled", "--family", "pareto")
        assert code == 0
        manifest = manifest_of(err)
        assert manifest["command"] == "fit"
        assert manifest["parameters"] == {"bundled": True, "column": None, "data": None,
                                          "family": "pareto", "json": False, "out": None}
        assert manifest["input_digest"] == "27bfde434be7c0e2"
        assert manifest["seed"] is None
        assert manifest["tool_version"]
        assert manifest["timestamp"]


class TestManifest:
    # the parameters are keyed by argparse dest: --lambda is lam
    @pytest.mark.parametrize("argv, other, dest", [
        (("fit", "--bundled"), ("--json",), "json"),
        (("plotdata", "--bundled", "--mode", "histogram", "--bins-per-decade", "4"),
         ("--bins-per-decade", "6"), "bins_per_decade"),
        (("risk", "--bundled", "--n-sims", "20000", "--seed", "1", "--lambda", "20"),
         ("--lambda", "30"), "lam"),
    ], ids=["json", "bins", "lambda"])
    def test_manifest_records_every_argument(self, capsys, argv, other, dest):
        # runs whose stdout differs must not share a manifest
        manifests, outs = [], []
        for extra in ((), other):
            code, out, err = run_cli(capsys, *argv, *extra)
            assert code == 0
            manifest = manifest_of(err)
            del manifest["timestamp"]
            manifests.append(manifest)
            outs.append(out)
        assert outs[0] != outs[1]
        before, after = (m.pop("parameters") for m in manifests)
        assert manifests[0] == manifests[1]
        assert {k for k in before if before[k] != after[k]} == {dest}


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

    def test_bootstrap_table_shows_fit_failures(self, capsys, monkeypatch):
        fit = ftgamma.risk.fit_ftg
        calls = []

        def failing(smp):
            calls.append(None)
            if len(calls) == 3:  # the resample with sample id 3
                raise ftgamma.FitError("injected")
            return fit(smp)

        monkeypatch.setattr(ftgamma.risk, "fit_ftg", failing)
        code, out, _ = run_cli(capsys, "risk", "--bundled", "--bootstrap", "10",
                               "--keep-every", "5", "--n-sims", "10000",
                               "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        # the failed row follows the kept rows; the original comes last
        assert lines[-2:-1] == ["     3    fit failed: injected"]
        assert lines[-1].split()[0] == "orig"

    @pytest.mark.parametrize("rate", ["1e19", "inf"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bootstrap_simulation_failures_keep_their_fits(self, capsys, monkeypatch,
                                                           cpus, rate):
        # a Poisson rate this large fails every simulation; each row reads
        # as a failed simulation, and its fits are those of a study that
        # simulates, since the row choice depends on the fits alone
        set_usable_cpus(monkeypatch, cpus)
        study = ("risk", "--bundled", "--bootstrap", "10", "--keep-every", "5",
                 "--n-sims", "10000", "--seed", "3")
        code, out, _ = run_cli(capsys, *study, "--lambda", rate)
        assert code == 0
        assert out.splitlines()[2:] == [
            f"{tag:>6}    simulation failed: lam value too large"
            for tag in ("   1", "   7", "orig")]
        code, out, _ = run_cli(capsys, *study, "--lambda", rate, "--json")
        assert code == 0
        failed = json.loads(out)["rows"]
        _, out, _ = run_cli(capsys, *study, "--json")
        simulated = {r["sample_id"]: r for r in json.loads(out)["rows"]}
        assert [r["sample_id"] for r in failed] == [1, 7, 0]
        for row in failed:
            assert (row["ok"], row["error"]) == (False, "lam value too large")
            assert row["pareto_risk_capital"] is None and row["ftg_risk_capital"] is None
            fits = simulated[row["sample_id"]]
            assert row["pareto"] == fits["pareto"] is not None
            assert row["ftg"] == fits["ftg"] is not None

    def test_level_outside_the_unit_interval_is_invalid_request(self, capsys):
        code, _, err = run_cli(capsys, "risk", "--bundled", "--level", "1.5")
        assert code == 1
        assert "ftg: invalid request: quantile_level must be in (0, 1)" in err

    def test_nonpositive_lambda_is_invalid_request(self, capsys):
        code, out, err = run_cli(capsys, "risk", "--bundled", "--lambda", "0")
        assert code == 1
        assert out == ""
        assert err.endswith("ftg: invalid request: lambda must be > 0, got 0.0\n")

    @pytest.mark.parametrize("argv", [
        ("--lambda", "0"), ("--level", "1.5"), ("--n-sims", "100"),
        ("--bootstrap", "0"), ("--bootstrap", "5", "--keep-every", "0"),
    ], ids=["lambda", "level", "n-sims", "bootstrap", "keep-every"])
    def test_request_is_refused_before_the_data_are_read(self, capsys, tmp_path, argv):
        # a file with an unparseable line would be a data error (exit 2):
        # the request is refused first
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nfoo\n2.5\n")
        code, out, err = run_cli(capsys, "risk", "--data", str(path), *argv)
        assert code == 1
        assert out == ""
        assert "ftg: invalid request:" in err and "data error" not in err

    def test_zero_bootstrap_is_invalid_request(self, capsys):
        # --bootstrap 0 asks for a study, not for the single-risk report
        code, out, err = run_cli(capsys, "risk", "--bundled", "--bootstrap", "0",
                                 "--n-sims", "20000", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.endswith("ftg: invalid request: need n_bootstrap >= keep_every >= 1\n")


class TestGof:
    def test_pareto_gof_json(self, capsys):
        code, out, _ = run_cli(capsys, "gof", "--bundled", "--family", "pareto",
                               "--n-boot", "99", "--seed", "17", "--json")
        assert code == 0
        payload = json.loads(out)
        assert 1.0 / 100.0 <= payload["p_w2"] <= 1.0
        assert payload["w2"] > 0.0


class TestNearConstantData:
    # a gamma fit of these values once ended in a ZeroDivisionError
    # traceback and exit code 1, the usage-error code
    @pytest.mark.parametrize("argv", [
        ("fit", "--family", "all"),
        ("risk", "--family", "ftg", "--n-sims", "20000", "--seed", "1"),
    ], ids=["fit", "risk"])
    def test_fits_or_reports_a_fit_error(self, capsys, tmp_path, argv):
        path = tmp_path / "near_constant.txt"
        np.savetxt(path, near_constant_sample(), fmt="%.17g")
        code, _, err = run_cli(capsys, argv[0], "--data", str(path), *argv[1:])
        assert code in (0, 3)
        assert "Traceback" not in err


class TestFarScaledData:
    # sigma**2 and sigma**3 leave the float range in the fit: each command
    # once ended in a traceback and exit code 1, the usage-error code
    @pytest.mark.parametrize("scale", [1e-110, 1e110])
    @pytest.mark.parametrize("argv", [
        ("fit", "--family", "all"),
        ("risk", "--family", "ftg", "--n-sims", "20000", "--seed", "1"),
        ("gof", "--family", "ftg", "--n-boot", "99", "--seed", "1"),
        ("plotdata", "--mode", "survival"),
    ], ids=["fit", "risk", "gof", "plotdata"])
    def test_reports_a_fit_error(self, capsys, tmp_path, losses, argv, scale):
        path = tmp_path / "far_scaled.txt"
        np.savetxt(path, losses.values * scale, fmt="%.17g")
        code, _, err = run_cli(capsys, argv[0], "--data", str(path), *argv[1:])
        assert code == 3
        assert "ftg: numerical failure: " in err
        assert "Traceback" not in err


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
    def test_edge_sample(self, capsys, edge, argv, pin):
        data = DATA / f"{edge}_edge_sample.txt"
        code, out, _ = run_cli(capsys, argv[0], "--data", str(data), *argv[1:])
        # the Pareto fit of the gamma sample stops on its exponential limit,
        # unconverged but no numerical failure
        assert code == 0
        assert out.encode() == (DATA / f"{edge}_edge_{pin}").read_bytes()

    # the bootstrap study's resamples and simulated capitals follow NumPy's
    # Generator stream, like the edge samples' risk.json pins
    @pytest.mark.parametrize("argv, pin", [
        (("--bootstrap", "20", "--keep-every", "5", "--n-sims", "20000",
          "--seed", "7"), "risk_bootstrap_bundled.txt"),
        (("--bootstrap", "10", "--keep-every", "1", "--n-sims", "10000",
          "--seed", "3", "--json"), "risk_bootstrap_bundled.json"),
    ], ids=["text", "json"])
    def test_bootstrap_study(self, capsys, argv, pin):
        code, out, _ = run_cli(capsys, "risk", "--bundled", *argv)
        assert code == 0
        assert out.encode() == (DATA / pin).read_bytes()

    # the benchmark's risk-ftg command: ~2e6 two-piece draws, folded into
    # 1e5 years
    def test_risk_ftg_bundled(self, capsys, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        code, out, _ = run_cli(capsys, "risk", "--bundled", "--family", "ftg",
                               "--n-sims", "100000", "--seed", "7")
        assert code == 0
        assert out.encode() == (DATA / "risk_ftg_bundled.txt").read_bytes()

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

    @pytest.mark.parametrize("origin", ["1e300", "-1e300", "inf", "-inf", "1e16", "-1e16",
                                        "nan", "1e12", "1e13", "1e14", "-1e14"])
    def test_far_origin_is_invalid_request(self, origin):
        proc = run_module("plotdata", "--bundled", "--mode", "histogram",
                          f"--origin={origin}", timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = [ln for ln in proc.stderr.splitlines() if not ln.startswith('{"manifest"')]
        assert len(lines) == 1 and lines[0].startswith("ftg: invalid request: "), proc.stderr

    # argparse alone reads -inf as an option, and -nan as -n with the value an
    @pytest.mark.parametrize("origin", ["-inf", "-Infinity", "-nan"])
    def test_negative_inf_and_nan_origins_are_values(self, capsys, origin):
        code, out, err = run_cli(capsys, "plotdata", "--bundled", "--mode", "histogram",
                                 "--origin", origin)
        assert code == 1
        assert out == ""
        lines = [ln for ln in err.splitlines() if not ln.startswith('{"manifest"')]
        assert len(lines) == 1 and lines[0].startswith("ftg: invalid request: "), err

    @pytest.mark.parametrize("origin", ["nan", "-nan"])
    def test_nan_origin_is_not_a_number(self, capsys, origin):
        # once refused as too far from the data's decades
        code, out, err = run_cli(capsys, "plotdata", "--bundled", "--mode", "histogram",
                                 "--origin", origin)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == "ftg: invalid request: decade origin is not a number"

    def test_negative_origin_with_exponent_is_a_value(self, capsys):
        argv = ("plotdata", "--bundled", "--mode", "histogram", "--origin")
        code, out, _ = run_cli(capsys, *argv, "-1e3")
        assert code == 0
        assert out == run_cli(capsys, *argv, "-1000")[1]

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "plotdata", "--bundled", "--mode",
                               "survival", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["x", "empirical", "ftg", "pareto"]
        assert len(payload["rows"]) == 40

    @pytest.mark.parametrize("mode", ["survival", "histogram"])
    def test_json_rows_carry_the_computed_floats(self, capsys, mode):
        # full double precision, not the text's six digits
        code, out, _ = run_cli(capsys, "plotdata", "--bundled", "--mode", mode, "--json")
        assert code == 0
        rows = np.array(json.loads(out)["rows"])
        fit = ftgamma.fit_ftg(ftgamma.load_external_fraud())
        if mode == "survival":
            assert (rows[:, 2] == ftgamma.survival(fit.params, rows[:, 0])).all()
            assert (rows[:, 3] == ftgamma.survival(fit.pareto_fit.params, rows[:, 0])).all()
        else:
            assert rows[:, 2].tolist() == [ftgamma.pdf(fit.params, x) for x in rows[:, 0]]

    def test_bootstrap_json(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "--bundled", "--bootstrap", "4",
                               "--keep-every", "2", "--n-sims", "10000",
                               "--seed", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "bootstrap"
        ids = [r["sample_id"] for r in payload["rows"]]
        assert 0 in ids and len(ids) == 3


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
