import contextlib
import copy
import io
import re

import pytest

import ftgamma.cli
import workloads

REF = workloads.load_reference()


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert ftgamma.cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def gof_out():
    return cli_stdout(workloads.WORKLOADS["gof-ftg"].argv(7, None))


@pytest.fixture(scope="module")
def boot_out():
    return cli_stdout(workloads.WORKLOADS["boot-study"].argv(7, None))


def test_gof_failures_match_the_printed_count(gof_out):
    printed = int(re.search(r"failures: (\d+)", gof_out)[1])
    outcome = workloads.check("gof-ftg", gof_out, 0, REF)
    assert outcome.problems == []
    assert (outcome.attempted, outcome.failed) == (workloads.GOF_N_BOOT, printed)
    # a run with refit failures: the replicates left plus the failures make N
    n = workloads.GOF_N_BOOT
    faked = gof_out.replace(f"replicates: {n} (failures: 0)",
                            f"replicates: {n - 3} (failures: 3)")
    assert "failures: 3" in faked
    assert workloads.check("gof-ftg", faked, 0, REF).failed == 3


def test_boot_failed_rows_match_the_printed_rows(boot_out):
    outcome = workloads.check("boot-study", boot_out, 0, REF)
    assert outcome.problems == []
    assert outcome.attempted == workloads.BOOT_B + 1
    assert outcome.failed == boot_out.count("fit failed")
    # a failed resample is listed before the original-sample row
    lines = boot_out.splitlines(keepends=True)
    faked = "".join(lines[:-1] + ["    17    fit failed: profile search failed\n", lines[-1]])
    outcome = workloads.check("boot-study", faked, 0, REF)
    assert outcome.problems == []
    assert outcome.failed == 1


@pytest.mark.parametrize("workload, section, key, change", [
    ("gof-ftg", "exact", "w2", lambda v: v + 0.001),
    ("gof-ftg", "band", "p_a2", lambda b: {**b, "center": b["center"] + 0.5}),
    ("boot-study", "exact", "ftg_ln_rho", lambda v: v + 0.01),
    ("boot-study", "band", "ftg_capital", lambda b: {**b, "center": b["center"] + 1.0}),
])
def test_a_wrong_reference_fails_the_gate(gof_out, boot_out, workload, section, key, change):
    out = gof_out if workload == "gof-ftg" else boot_out
    wrong = copy.deepcopy(REF)
    wrong[workload][section][key] = change(wrong[workload][section][key])
    outcome = workloads.check(workload, out, 0, wrong)
    assert outcome.problems and outcome.failed == outcome.attempted


def test_fit_large_gate_checks_the_generating_law():
    out = (
        "Pareto distribution\n"
        "  alpha      -0.4759   (s.e. 0.0007)\n"
        "  sigma       1.6304   (s.e. 0.0061)\n"
        "  loglik -4332846.8380   converged=True\n"
        "FTG distribution\n"
        "  alpha      -0.2001   (s.e. 0.0011)\n"
        "  sigma       0.6495   (s.e. 0.0036)\n"
        "  rho    4.2893e-04   (s.e. 2.6993e-06)\n"
        "  loglik -4287574.0497   converged=True\n"
        "LRT (Pareto within FTG)  statistic=90545.5765  p-value=0.0000\n"
    )
    assert workloads.check("fit-large", out, 0, REF).problems == []
    wrong = copy.deepcopy(REF)
    wrong["fit-large"]["law"]["alpha"] = -0.25
    assert workloads.check("fit-large", out, 0, wrong).problems
    assert workloads.check("fit-large", out, 3, REF).failed == 1


def test_large_input_is_reproducible_and_follows_the_law():
    import numpy as np
    from scipy.stats import kstest

    from ftgamma import FtgParams, cdf

    x = workloads.draw_large_input(11, 4000)
    assert np.array_equal(x, workloads.draw_large_input(11, 4000))
    law = workloads.LARGE_LAW
    p = FtgParams.from_sigma(law["alpha"], law["sigma"], law["rho"])
    assert kstest(x, lambda v: np.array([cdf(p, float(t)) for t in np.atleast_1d(v)])).pvalue > 1e-3
