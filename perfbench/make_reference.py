"""Recompute reference.json from the program as it stands.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs the workload commands in this process on reference seeds that the
benchmark never uses. Deterministic fields come from the first seed and
must print identically on every seed. Each Monte Carlo field gets a band of
BAND_SD standard deviations around its mean over the seeds, in log scale
for quantiles and capitals. Rerun only when the program's outputs are meant
to change, and say so where the change is recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics

import workloads

BAND_SD = 6.0
REF_SEED0 = 10**6
N_SEEDS = {"gof-ftg": 20, "risk-ftg": 40, "boot-study": 20}
EXACT = {
    "gof-ftg": ("w2", "a2"),
    "risk-ftg": ("alpha", "sigma", "rho", "loglik"),
    "boot-study": ("pareto_alpha", "pareto_sigma", "ftg_alpha", "ftg_ln_theta",
                   "ftg_ln_rho"),
}
BANDS = {
    "gof-ftg": {"p_w2": "linear", "p_a2": "linear"},
    "risk-ftg": {"q0.5": "log", "q0.9": "log", "q0.99": "log", "q0.999": "log",
                 "tail": "log"},
    "boot-study": {"pareto_capital": "log", "ftg_capital": "log"},
}


def run_cli(argv: list[str]) -> str:
    import ftgamma.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = ftgamma.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv} exited with {rc}")
    return out.getvalue()


def main() -> None:
    ref = {
        "note": "made by perfbench/make_reference.py; bands are "
                f"{BAND_SD} sd of the field over the reference seeds",
        "fit-large": {"law": workloads.LARGE_LAW, "max_se": 6.0},
    }
    for name, n_seeds in N_SEEDS.items():
        w = workloads.WORKLOADS[name]
        parsed = [workloads.PARSERS[name](run_cli(w.argv(REF_SEED0 + i, None)))
                  for i in range(n_seeds)]
        exact = {}
        for key in EXACT[name]:
            values = {p[key][0] for p in parsed}
            if len(values) != 1:
                raise RuntimeError(f"{name}.{key} is not deterministic: {values}")
            exact[key] = values.pop()
        band = {}
        for key, scale in BANDS[name].items():
            xs = [math.log(p[key]) if scale == "log" else p[key] for p in parsed]
            sd = statistics.stdev(xs)
            band[key] = {"center": statistics.fmean(xs), "halfwidth": BAND_SD * sd,
                         "sd": sd, "n_seeds": n_seeds, "scale": scale}
        ref[name] = {"exact": exact, "band": band}
        print(name, json.dumps(ref[name]), flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
