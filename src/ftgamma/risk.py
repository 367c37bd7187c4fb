"""Peaks-over-threshold operational-risk pipeline.

Aggregate annual loss S = sum_{i=1}^N L_i with N ~ Poisson(lambda) and
i.i.d. severities L_i drawn from a fitted tail model. Risk capital is the
empirical 99.9% quantile of simulated aggregates; the bootstrap study
refits resampled datasets with both severity families to expose how
unstable the Pareto capital estimate is next to the full-tails gamma one.
It fits every resample but simulates only the rows it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Sample
from .dist import FtgParams, conditional_mean_excess, model_to_dict, moments
from .errors import FitError
from .fit import FitResult, _fit_family, fit_ftg
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


def risk_capital(sample, family: str, cfg: RiskConfig) -> RiskReport:
    """Fit the severity family, then simulate the aggregate distribution.

    tail_expectation is E[X | X > risk_capital] for a single severity loss
    X of the fitted model (infinite for a Pareto severity with
    alpha >= -1), not the aggregate expected shortfall
    E[S | S > risk_capital] of the simulated annual loss S.
    """
    smp = Sample.coerce(sample)
    fit = _fit_family(smp, family)
    report = simulate_aggregate(fit.params, cfg)
    tail = conditional_mean_excess(fit.params, report.risk_capital)
    return replace(report, tail_expectation=tail, fit=fit)


@dataclass(frozen=True)
class BootstrapRow:
    sample_id: int
    pareto_risk_capital: float | None = None
    ftg_fit: FitResult | None = None
    ftg_risk_capital: float | None = None
    error: str | None = None

    @property
    def pareto_fit(self) -> FitResult | None:
        """The Pareto fit that the row's FTG fit made as its edge candidate."""
        return self.ftg_fit.pareto_fit if self.ftg_fit else None

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


def _failed_row(sample_id: int, exc: Exception) -> BootstrapRow:
    return BootstrapRow(sample_id, error=str(exc))


def _fit_row(smp: Sample, sample_id: int) -> BootstrapRow:
    try:
        ftg = fit_ftg(smp)
    except (FitError, ValueError) as exc:
        return _failed_row(sample_id, exc)
    return BootstrapRow(sample_id, ftg_fit=ftg)


def _simulate_row(row: BootstrapRow, cfg: RiskConfig, rng: RngStream) -> BootstrapRow:
    """Both risk capitals of a fitted row, each from its own child stream of
    the row's sample id, so a row's capitals do not depend on which other
    rows are simulated."""
    if not row.ok:
        return row
    try:
        rc_p = simulate_aggregate(row.pareto_fit.params, cfg, rng.child(row.sample_id, 0))
        rc_f = simulate_aggregate(row.ftg_fit.params, cfg, rng.child(row.sample_id, 1))
    except (FitError, ValueError) as exc:
        return _failed_row(row.sample_id, exc)
    return replace(row, pareto_risk_capital=rc_p.risk_capital,
                   ftg_risk_capital=rc_f.risk_capital)


def bootstrap_study(sample, n_bootstrap: int, keep_every: int,
                    cfg: RiskConfig) -> BootstrapStudy:
    """Resample-with-replacement stability study of both risk capitals.

    Fits Pareto and FTG to each of n_bootstrap resamples, sorts the fitted
    rows by the Pareto tail parameter and keeps every keep_every-th row.
    Only the kept rows and the original sample are then simulated, so the
    choice of rows depends on the fits alone. Rows whose fit or simulation
    fails are listed last, in sample-id order, with their error recorded
    rather than aborting the study.
    """
    if keep_every < 1 or n_bootstrap < keep_every:
        raise ValueError("need n_bootstrap >= keep_every >= 1")
    smp = Sample.coerce(sample)
    rng = RngStream(cfg.seed)
    resample_gen = rng.child(0).generator
    rows = [_fit_row(smp.resample(resample_gen), b) for b in range(1, n_bootstrap + 1)]
    fitted = sorted((r for r in rows if r.ok), key=lambda r: r.pareto_fit.params.alpha)
    chosen = fitted[::keep_every][: n_bootstrap // keep_every]
    kept = [_simulate_row(r, cfg, rng) for r in chosen]
    failed = sorted((r for r in rows + kept if not r.ok), key=lambda r: r.sample_id)
    return BootstrapStudy(
        rows=[r for r in kept if r.ok] + failed,
        original=_simulate_row(_fit_row(smp, 0), cfg, rng),
        selection_rule=(
            f"sorted by Pareto alpha, kept every {keep_every}-th of "
            f"{n_bootstrap} resamples; fit failures listed last"
        ),
    )
