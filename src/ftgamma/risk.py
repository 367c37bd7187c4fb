"""Peaks-over-threshold operational-risk pipeline.

Aggregate annual loss S = sum_{i=1}^N L_i with N ~ Poisson(lambda) and
i.i.d. severities L_i drawn from a fitted tail model. Risk capital is the
empirical 99.9% quantile of simulated aggregates; the bootstrap study
refits resampled datasets with both severity families to expose how
unstable the Pareto capital estimate is next to the full-tails gamma one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Sample
from .dist import FtgParams, conditional_mean_excess, model_to_dict, moments
from .errors import FitError
from .fit import FitResult, fit_ftg, fit_pareto
from .sample import RngStream, ftg_rvs

_REPORT_LEVELS = (0.5, 0.9, 0.99, 0.999)


@dataclass(frozen=True)
class RiskConfig:
    """Simulation settings for the aggregate-loss distribution."""

    lam: float
    quantile_level: float = 0.999
    n_sims: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if not 0.0 < self.quantile_level < 1.0:
            raise ValueError("quantile_level must be in (0, 1)")
        if self.n_sims * (1.0 - self.quantile_level) < 10.0:
            raise ValueError(
                "n_sims too small for the requested quantile: need at least "
                "10 simulated points beyond it"
            )


@dataclass(frozen=True)
class RiskReport:
    risk_capital: float
    severity_model: FtgParams
    aggregate_quantiles: dict[float, float]
    n_sims: int
    seed: int
    lam: float
    quantile_level: float
    tail_expectation: float | None = None
    infinite_mean_severity: bool = False
    fit: FitResult | None = None

    def to_dict(self) -> dict:
        """JSON form; severity_model is tagged with the fit's family, or as
        "ftg" when the report has no fit."""
        family = self.fit.family if self.fit else "ftg"
        return {
            "risk_capital": self.risk_capital,
            "severity_model": model_to_dict(self.severity_model, family),
            "aggregate_quantiles": {str(k): v for k, v in self.aggregate_quantiles.items()},
            "n_sims": self.n_sims,
            "seed": self.seed,
            "lambda": self.lam,
            "quantile_level": self.quantile_level,
            "tail_expectation": self.tail_expectation,
            "infinite_mean_severity": self.infinite_mean_severity,
        }


def _empirical_quantile(sorted_vals: np.ndarray, level: float) -> float:
    """Order statistic at ceil(level * n), no interpolation."""
    n = sorted_vals.size
    k = min(max(int(math.ceil(level * n)), 1), n)
    return float(sorted_vals[k - 1])


def simulate_aggregate(severity: FtgParams, cfg: RiskConfig,
                       rng: RngStream | None = None) -> RiskReport:
    """Simulate cfg.n_sims draws of the aggregate loss and read off quantiles.

    Counts and severities come from separate child streams of the seed, so
    reports are reproducible; an infinite-mean Pareto severity is simulated
    as-is (inversion needs no moments) and only flagged.
    """
    if rng is None:
        rng = RngStream(cfg.seed)
    counts = rng.child(0).generator.poisson(cfg.lam, cfg.n_sims)
    total = int(counts.sum())
    sevs = ftg_rvs(severity, total, rng.child(1))
    agg = np.bincount(
        np.repeat(np.arange(cfg.n_sims), counts), weights=sevs, minlength=cfg.n_sims
    )
    agg.sort()
    levels = sorted(set(_REPORT_LEVELS) | {cfg.quantile_level})
    quantiles = {lvl: _empirical_quantile(agg, lvl) for lvl in levels}
    return RiskReport(
        risk_capital=quantiles[cfg.quantile_level],
        severity_model=severity,
        aggregate_quantiles=quantiles,
        n_sims=cfg.n_sims,
        seed=cfg.seed,
        lam=cfg.lam,
        quantile_level=cfg.quantile_level,
        infinite_mean_severity=moments(severity).infinite_mean,
    )


def risk_capital(sample, family: str, cfg: RiskConfig,
                 rng: RngStream | None = None) -> RiskReport:
    """Fit the severity family, then simulate the aggregate distribution.

    tail_expectation is E[X | X > risk_capital] for a single severity loss
    X of the fitted model (infinite for a Pareto severity with
    alpha >= -1), not the aggregate expected shortfall
    E[S | S > risk_capital] of the simulated annual loss S.
    """
    smp = Sample.coerce(sample)
    if family == "ftg":
        fit = fit_ftg(smp)
    elif family == "pareto":
        fit = fit_pareto(smp)
    else:
        raise ValueError(f"unknown family {family!r}")
    report = simulate_aggregate(fit.params, cfg, rng)
    tail = conditional_mean_excess(fit.params, report.risk_capital)
    return replace(report, tail_expectation=tail, fit=fit)


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


@dataclass(frozen=True)
class BootstrapRow:
    sample_id: int
    pareto_fit: FitResult | None
    pareto_risk_capital: float | None
    ftg_fit: FitResult | None
    ftg_risk_capital: float | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class BootstrapStudy:
    rows: list[BootstrapRow]
    original: BootstrapRow
    selection_rule: str

    def all_rows(self) -> list[BootstrapRow]:
        return [*self.rows, self.original]


def _study_row(smp: Sample, cfg: RiskConfig, rng: RngStream, sample_id: int) -> BootstrapRow:
    try:
        ftg = fit_ftg(smp)
        pareto = ftg.pareto_fit
        rc_p = simulate_aggregate(pareto.params, cfg, rng.child(sample_id, 0))
        rc_f = simulate_aggregate(ftg.params, cfg, rng.child(sample_id, 1))
        return BootstrapRow(
            sample_id=sample_id,
            pareto_fit=pareto,
            pareto_risk_capital=rc_p.risk_capital,
            ftg_fit=ftg,
            ftg_risk_capital=rc_f.risk_capital,
        )
    except (FitError, ValueError) as exc:
        return BootstrapRow(
            sample_id=sample_id,
            pareto_fit=None,
            pareto_risk_capital=None,
            ftg_fit=None,
            ftg_risk_capital=None,
            error=str(exc),
        )


def bootstrap_study(sample, n_bootstrap: int, keep_every: int,
                    cfg: RiskConfig) -> BootstrapStudy:
    """Resample-with-replacement stability study of both risk capitals.

    Fits Pareto and FTG to each of n_bootstrap resamples, simulates both
    risk capitals, sorts rows by the Pareto tail parameter, keeps every
    keep_every-th row, and appends the original-sample row. Rows whose fits
    fail are kept with their error recorded rather than aborting the study.
    """
    if keep_every < 1 or n_bootstrap < keep_every:
        raise ValueError("need n_bootstrap >= keep_every >= 1")
    smp = Sample.coerce(sample)
    rng = RngStream(cfg.seed)
    resample_gen = rng.child(0).generator
    rows = []
    for b in range(1, n_bootstrap + 1):
        boot = smp.resample(resample_gen)
        rows.append(_study_row(boot, cfg, rng, b))
    ok = [r for r in rows if r.ok]
    failed = [r for r in rows if not r.ok]
    ok.sort(key=lambda r: r.pareto_fit.params.alpha)
    kept = ok[::keep_every][: n_bootstrap // keep_every] if ok else []
    original = _study_row(smp, cfg, rng, 0)
    return BootstrapStudy(
        rows=kept + failed,
        original=original,
        selection_rule=(
            f"sorted by Pareto alpha, kept every {keep_every}-th of "
            f"{n_bootstrap} resamples; fit failures listed last"
        ),
    )
