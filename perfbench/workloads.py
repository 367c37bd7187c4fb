"""The four benchmark workloads: their commands, inputs and correctness checks.

Each workload is one ``ftg`` command line. ``argv`` builds it for a seed,
``check`` parses what the command printed and compares it with
``reference.json``:

- deterministic values (the bundled MLEs, the observed W^2 / A^2, the
  original-sample row of the bootstrap study) must match the reference to
  the last printed digit;
- Monte Carlo values (p-values, quantiles, risk capitals) must lie inside a
  stated band around the reference, so a sampler that changes the variates
  but not their law still passes;
- ``fit-large`` must recover the law its input was drawn from, within a
  stated number of the standard errors the command prints.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# generating law of the fit-large input: the bundled FTG fit, rounded
LARGE_LAW = {"alpha": -0.2, "sigma": 0.65, "rho": 4.3e-4}
LARGE_N = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: str
    ops_per_command: int  # base count of fail_frac for one command
    argv: Callable[[int, str | None], list[str]]  # (command seed, input path)


GOF_N_BOOT = 99
BOOT_B, BOOT_KEEP, BOOT_SIMS = 20, 10, 20_000

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gof-ftg",
            "fit + specfun: ~40 FTG refits of 40-point samples per replicate, "
            "with the rare 1-d inner-solve fallbacks that form the fit's slow tail",
            f"--n-boot {GOF_N_BOOT} on the bundled 40 losses",
            GOF_N_BOOT,
            lambda s, _: ["gof", "--bundled", "--family", "ftg",
                          "--n-boot", str(GOF_N_BOOT), "--seed", str(s)],
        ),
        Workload(
            "risk-ftg",
            "sample + risk: one 7 ms fit, then ~2e6 two-piece FTG draws, bincount "
            "and sort; specfun and fit stay nearly idle",
            "--n-sims 100000 on the bundled 40 losses",
            1,
            lambda s, _: ["risk", "--bundled", "--family", "ftg",
                          "--n-sims", "100000", "--seed", str(s)],
        ),
        Workload(
            "boot-study",
            "mixed: Pareto-edge refits of resampled real data next to "
            "~4e5 draws per row, so a trade between fit and sample shows",
            f"--bootstrap {BOOT_B} --keep-every {BOOT_KEEP} --n-sims {BOOT_SIMS}",
            BOOT_B + 1,
            lambda s, _: ["risk", "--bundled", "--bootstrap", str(BOOT_B),
                          "--keep-every", str(BOOT_KEEP),
                          "--n-sims", str(BOOT_SIMS), "--seed", str(s)],
        ),
        Workload(
            "fit-large",
            "data + array-bound fit: parsing 1e6 lines and O(n) sufficient "
            "statistics at every profile point; specfun per call is negligible",
            f"--family all on {LARGE_N} losses drawn from FTG{tuple(LARGE_LAW.values())}",
            1,
            lambda _, path: ["fit", "--data", path, "--family", "all"],
        ),
    )
}


def draw_large_input(seed: int, n: int = LARGE_N):
    """n FTG losses from LARGE_LAW, drawn with the benchmark's own numpy.

    T = rho + theta X has density t^(alpha-1) e^-t on (rho, inf). For
    alpha < 0 propose T from the power law t^(alpha-1) on (rho, inf) by
    inversion and accept with probability e^-(T - rho). Independent of
    ftgamma.sample, so a sampler change cannot change this input.
    """
    import numpy as np

    alpha, sigma, rho = LARGE_LAW["alpha"], LARGE_LAW["sigma"], LARGE_LAW["rho"]
    gen = np.random.default_rng(seed)
    parts, have = [], 0
    while have < n:
        k = 2 * (n - have) + 1000
        t = rho * (1.0 - gen.random(k)) ** (1.0 / alpha)
        t = t[gen.random(k) <= np.exp(-(t - rho))]
        parts.append(t)
        have += t.size
    return (np.concatenate(parts)[:n] - rho) * (sigma / rho)


def write_large_input(seed: int, path: Path, n: int = LARGE_N) -> None:
    """One loss per line, printed so that it reads back exactly."""
    path.write_text("\n".join(map(repr, draw_large_input(seed, n).tolist())) + "\n")


# ------------------------------------------------------------------ parsing
_NUM = r"([-+]?[0-9.]+(?:e[-+]?[0-9]+)?)"


def _field(token: str) -> tuple[float, float]:
    """A printed number and the size of one unit in its last printed digit."""
    mant, _, exp = token.partition("e")
    return float(token), 10.0 ** (int(exp or 0) - len(mant.partition(".")[2]))


def parse_gof(out: str) -> dict:
    m = re.fullmatch(
        rf"family: ftg   bootstrap replicates: (\d+) \(failures: (\d+)\)\n"
        rf"W\^2 = {_NUM}   p = {_NUM}\n"
        rf"A\^2 = {_NUM}   p = {_NUM}\n",
        out,
    )
    if m is None:
        raise ValueError("gof output not recognised")
    return {
        "replicates": int(m[1]), "failures": int(m[2]),
        "w2": _field(m[3]), "p_w2": float(m[4]),
        "a2": _field(m[5]), "p_a2": float(m[6]),
    }


def parse_risk(out: str) -> dict:
    m = re.fullmatch(
        rf"severity family: ftg\n"
        rf"  alpha={_NUM} sigma={_NUM} rho={_NUM}\n"
        rf"loglik {_NUM}\n"
        rf"aggregate quantiles \(lambda=20.0, (\d+) sims, seed=(\d+)\):\n"
        rf"((?:  +{_NUM} +{_NUM}\n)+)"
        rf"risk capital \(0.9990\): {_NUM}\n"
        rf"expected loss beyond risk capital: {_NUM}\n",
        out,
    )
    if m is None:
        raise ValueError("risk output not recognised")
    quantiles = {}
    for line in m[7].splitlines():
        level, q = line.split()
        quantiles[f"q{float(level):g}"] = float(q)
    return {
        "alpha": _field(m[1]), "sigma": _field(m[2]), "rho": _field(m[3]),
        "loglik": _field(m[4]), "n_sims": int(m[5]), "seed": int(m[6]),
        **quantiles, "capital": float(m[10]), "tail": float(m[11]),
    }


_ROW = re.compile(
    rf" *(orig|\d+) +{_NUM} +{_NUM} +{_NUM} +{_NUM} +"
    rf"(?:{_NUM} +{_NUM}|\((\w+) boundary\)) +{_NUM}"
)
_FAILED_ROW = re.compile(r" *(\d+)    fit failed: .*")
_BOOT_HEADER = (
    "          Pareto distribution             FTG distribution\n"
    "sample    alpha   sigma   risk capital    alpha  ln(theta)  ln(rho)  risk capital\n"
)


def parse_boot(out: str) -> dict:
    if not out.startswith(_BOOT_HEADER):
        raise ValueError("bootstrap header not recognised")
    ok_rows, failed_rows, orig = 0, 0, None
    for line in out[len(_BOOT_HEADER):].splitlines():
        if _FAILED_ROW.fullmatch(line):
            failed_rows += 1
            continue
        m = _ROW.fullmatch(line)
        if m is None:
            raise ValueError(f"bootstrap row not recognised: {line!r}")
        if m[1] == "orig":
            orig = m
        else:
            ok_rows += 1
    if orig is None or orig[8] is not None or not out.rstrip("\n").endswith(orig[0]):
        raise ValueError("interior original-sample row missing or not last")
    return {
        "ok_rows": ok_rows, "failed_rows": failed_rows,
        "pareto_alpha": _field(orig[2]), "pareto_sigma": _field(orig[3]),
        "pareto_capital": float(orig[4]),
        "ftg_alpha": _field(orig[5]), "ftg_ln_theta": _field(orig[6]),
        "ftg_ln_rho": _field(orig[7]), "ftg_capital": float(orig[9]),
    }


def parse_fit(out: str) -> dict:
    m = re.fullmatch(
        rf"Pareto distribution\n"
        rf"  alpha +{_NUM}   \(s\.e\. {_NUM}\)\n"
        rf"  sigma +{_NUM}   \(s\.e\. {_NUM}\)\n"
        rf"  loglik +{_NUM}   converged=(True|False)\n"
        rf"FTG distribution\n"
        rf"  alpha +{_NUM}   \(s\.e\. {_NUM}\)\n"
        rf"  sigma +{_NUM}   \(s\.e\. {_NUM}\)\n"
        rf"  rho +{_NUM}   \(s\.e\. {_NUM}\)\n"
        rf"  loglik +{_NUM}   converged=(True|False)\n"
        rf"LRT \(Pareto within FTG\)  statistic={_NUM}  p-value={_NUM}\n",
        out,
    )
    if m is None:
        raise ValueError("fit output not recognised (boundary fit?)")
    return {
        "pareto_converged": m[6] == "True",
        "alpha": (float(m[7]), float(m[8])),
        "sigma": (float(m[9]), float(m[10])),
        "rho": (float(m[11]), float(m[12])),
        "ftg_converged": m[14] == "True",
        "lrt": float(m[15]),
    }


PARSERS = {"gof-ftg": parse_gof, "risk-ftg": parse_risk,
           "boot-study": parse_boot, "fit-large": parse_fit}


# -------------------------------------------------------------------- gate
@dataclass
class Outcome:
    """One command judged: operations attempted and failed, and why."""

    attempted: int
    failed: int
    problems: list[str]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def _exact(problems, parsed, ref):
    for key, want in ref.items():
        got, ulp = parsed[key]
        if abs(got - want) > 1.01 * ulp:
            problems.append(f"{key} = {got} but the reference is {want}")


def _banded(problems, parsed, ref):
    for key, band in ref.items():
        got = parsed[key]
        x = math.log(got) if band["scale"] == "log" and got > 0 else got
        if band["scale"] == "log" and got <= 0:
            problems.append(f"{key} = {got} is not positive")
        elif abs(x - band["center"]) > band["halfwidth"]:
            problems.append(
                f"{key} = {got} outside the sampling band "
                f"{band['center']:.6g} +- {band['halfwidth']:.3g} ({band['scale']} scale)"
            )


def check(name: str, out: str, rc: int, ref: dict) -> Outcome:
    """Judge one command's stdout; a failed check fails every operation."""
    w = WORKLOADS[name]
    ops = w.ops_per_command
    if rc != 0:
        return Outcome(ops, ops, [f"exit code {rc}"])
    try:
        parsed = PARSERS[name](out)
    except ValueError as exc:
        return Outcome(ops, ops, [str(exc)])
    problems: list[str] = []
    r = ref[name]
    _exact(problems, parsed, r.get("exact", {}))
    _banded(problems, parsed, r.get("band", {}))
    failed = 0
    if name == "gof-ftg":
        failed = parsed["failures"]
        if parsed["replicates"] + failed != GOF_N_BOOT:
            problems.append("replicates + failures != --n-boot")
    elif name == "boot-study":
        failed = parsed["failed_rows"]
        kept = min(-(-(BOOT_B - failed) // BOOT_KEEP), BOOT_B // BOOT_KEEP)
        if parsed["ok_rows"] != kept:
            problems.append(f"{parsed['ok_rows']} kept rows, expected {kept}")
    elif name == "risk-ftg":
        if parsed["capital"] != parsed["q0.999"]:
            problems.append("risk capital differs from the 0.999 quantile")
        if not parsed["tail"] > parsed["capital"]:
            problems.append("expected loss beyond capital is not above it")
    elif name == "fit-large":
        k = r["max_se"]
        for key, want in r["law"].items():
            got, se = parsed[key]
            if abs(got - want) > k * se:
                problems.append(f"{key} = {got} is more than {k} s.e. from the law's {want}")
        if not (parsed["ftg_converged"] and parsed["pareto_converged"]):
            problems.append("a fit did not converge")
        if not parsed["lrt"] > 0.0:
            problems.append("LRT statistic is not positive")
    if problems:
        return Outcome(ops, ops, problems)
    return Outcome(ops, failed, [])
