"""Helpers that only tests use: reading a fit back from its JSON form, the
paper's log-log slope of a binned density, the threshold rescaling of raw
exceedances, and a near-constant sample."""

import numpy as np

from ftgamma import FitResult, FtgParams, Sample
from ftgamma.gof import LogBinnedHistogram


def model_from_dict(d: dict) -> FtgParams:
    """The parameter point that dist.model_to_dict wrote as d."""
    if d["family"] == "pareto" or d["theta"] == 0.0:
        return FtgParams.pareto(d["alpha"], d["sigma"])
    return FtgParams(d["alpha"], d["theta"], d["rho"])


def fit_result_from_dict(d: dict) -> FitResult:
    """The fit that FitResult.to_dict wrote as d (without its pareto_fit)."""
    return FitResult(**{**d, "params": model_from_dict(d["params"]),
                        **{k: np.asarray(d[k]) for k in FitResult._ARRAYS}})


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
