"""Helpers that only tests use: reading a fit back from its JSON form, the
paper's log-log slope of a binned density, the threshold rescaling of raw
exceedances, a near-constant sample, the usable CPUs a test pretends to have,
a check that no forked worker was left behind and the environment of a child
interpreter."""

import os
from dataclasses import fields

import numpy as np
import pytest

import ftgamma
from ftgamma import FitResult, FtgParams, Sample
from ftgamma.gof import LogBinnedHistogram


def model_from_dict(d: dict) -> FtgParams:
    """The parameter point that dist.model_to_dict wrote as d."""
    if d["family"] == "pareto" or d["theta"] == 0.0:
        return FtgParams.pareto(d["alpha"], d["sigma"])
    return FtgParams(d["alpha"], d["theta"], d["rho"])


def fit_result_from_dict(d: dict) -> FitResult:
    """The fit that FitResult.to_dict wrote as d (without its pareto_fit),
    built from its stored fields alone: std_errors is recomputed."""
    stored = {f.name: d[f.name] for f in fields(FitResult) if f.name in d}
    return FitResult(**{**stored, "params": model_from_dict(d["params"]),
                        **{k: np.asarray(v) for k, v in stored.items()
                           if k in FitResult._ARRAYS}})


def loglog_least_squares(hist: LogBinnedHistogram) -> tuple[float, float]:
    """Ordinary least squares of log10 density on log10 evaluation point,
    over nonempty bins. Returns (slope, intercept)."""
    mask = hist.counts > 0
    if np.count_nonzero(mask) < 2:
        raise ValueError("need at least 2 nonempty bins")
    u = np.log10(hist.eval_points[mask])
    v = np.log10(hist.densities[mask])
    slope, intercept = np.polyfit(u, v, 1)
    return float(slope), float(intercept)


def rescale_to_threshold(raw, threshold: float, target_mean: float) -> Sample:
    """Shift exceedances of a threshold to origin zero and rescale to a
    target mean: y = target_mean * (x - u) / (mean(x) - u)."""
    smp = Sample.coerce(raw)
    x = smp.values
    if np.any(x <= threshold):
        raise ValueError("every observation must exceed the threshold")
    if not target_mean > 0.0:
        raise ValueError("target_mean must be > 0")
    shifted = x - threshold
    return Sample(target_mean * shifted / shifted.mean())


def near_constant_sample(seed: int = 1, spread: float = 3e-8) -> np.ndarray:
    """40 values in [1, 1 + spread): so close together that log(mean) -
    mean(log) is a few ulps of rounding, and the gamma shape equation's
    root, near 1/gap, runs to 1e15 and beyond."""
    return 1.0 + spread * np.random.default_rng(seed).random(40)


def set_usable_cpus(monkeypatch, cpus: int):
    """Let gof's fork map, which runs the gof bootstrap's replicates and the
    risk study's simulations, see `cpus` usable CPUs, whatever this machine
    has; the sampler draws on the calling thread whatever it is."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def child_env() -> dict:
    """The environment of a child interpreter that imports the same ftgamma
    as this process, installed or not."""
    src = os.path.dirname(os.path.dirname(ftgamma.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
