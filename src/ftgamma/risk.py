"""Peaks-over-threshold operational-risk pipeline.

Aggregate annual loss S = sum_{i=1}^N L_i with N ~ Poisson(lambda) and
i.i.d. severities L_i drawn from a fitted tail model. Risk capital is the
empirical 99.9% quantile of simulated aggregates; the bootstrap study
refits resampled datasets with both severity families to expose how
unstable the Pareto capital estimate is next to the full-tails gamma one.
It fits every resample, one after another in the calling process, but
simulates only the rows it reports; those simulations run apart, on
gof's forked workers where they pay for their start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Sample
from .dist import FtgParams, conditional_mean_excess, model_to_dict, moments
from .errors import FitError
from .fit import FitResult, _fit_family, fit_ftg
from .gof import _map_replicates
from .sample import _BLOCK, RngStream, ftg_rvs

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
    fit: FitResult | None = None

    @property
    def infinite_mean_severity(self) -> bool:
        """Whether the severity model has an infinite mean."""
        return moments(self.severity_model).infinite_mean

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


def _annual_totals(severity: FtgParams, counts: np.ndarray,
                   rng: RngStream) -> np.ndarray:
    """The total loss of each year y: the sum of its counts[y] severities,
    drawn year after year from rng.

    The losses are folded into the totals as the sampler hands them over, so
    no array of all of them, nor of their years, is ever built. Each fold
    step sums the partial sum carried for the first unfinished year, then
    its losses in order, in one np.bincount over local year indices; the
    sum of the year it leaves unfinished is carried on. As 0.0 + s == s,
    every total is bit for bit the left-to-right sum from 0.0 that a single
    bincount over all the losses forms. The carry and the losses are
    copied into one weights buffer, reused by every step.
    """
    ends = np.cumsum(counts)  # one past the index of each year's last loss
    totals = np.zeros(counts.size)
    # the first year not yet summed, the sum of its losses so far, and the
    # number of losses folded
    year, carry, drawn = 0, 0.0, 0
    weights = np.empty(min(_BLOCK, int(ends[-1])) + 1)

    def fold(losses: np.ndarray) -> None:
        nonlocal year, carry, drawn
        first, drawn = drawn, drawn + losses.size
        done = int(np.searchsorted(ends, drawn, side="right"))
        # the carry at -1, then the losses of the years finished here and of
        # the one left unfinished
        sizes = np.diff(ends[year:done] - first, prepend=-1, append=losses.size)
        w = weights[:losses.size + 1]
        w[0] = carry
        w[1:] = losses
        sums = np.bincount(np.repeat(np.arange(sizes.size), sizes), weights=w,
                           minlength=sizes.size)
        totals[year:done] = sums[:-1]
        year, carry = done, sums[-1]

    ftg_rvs(severity, int(ends[-1]), rng, take=fold)
    return totals


def simulate_aggregate(severity: FtgParams, cfg: RiskConfig,
                       rng: RngStream | None = None) -> RiskReport:
    """Simulate cfg.n_sims draws of the aggregate loss and read off quantiles.

    Counts and severities come from separate child streams of the seed, so
    reports are reproducible; an infinite-mean Pareto severity is simulated
    as-is (inversion needs no moments) and only flagged. The simulation
    holds the counts, the annual totals and a sampler block, never the
    cfg.n_sims * lam or so losses themselves.
    """
    if rng is None:
        rng = RngStream(cfg.seed)
    counts = rng.child(0).generator.poisson(cfg.lam, cfg.n_sims)
    agg = _annual_totals(severity, counts, rng.child(1))
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


def _fit_row(smp: Sample, sample_id: int) -> BootstrapRow:
    try:
        ftg = fit_ftg(smp)
    except (FitError, ValueError) as exc:
        return BootstrapRow(sample_id, error=str(exc))
    return BootstrapRow(sample_id, ftg_fit=ftg)


# A simulation costs some 28-34 ns per variate, drawn and folded into the
# annual totals, and a forked worker some 12 ms to start (see gof._PER_WORKER;
# 2-core x86_64, Python 3.11). A worker's share of the study's simulations
# must draw at least _WORKER_VARIATES variates, about 36 ms of work, so
# that its start stays near a third of it, as in gof: one worker for three
# or more simulations of 2e4 years at lambda = 20, none for a study of 1e4
# years at lambda = 0.3.
_WORKER_VARIATES = 1_200_000


def _sims_per_worker(cfg: RiskConfig) -> int:
    """The simulations a forked worker's share must hold to draw
    _WORKER_VARIATES variates, at about cfg.lam * cfg.n_sims each; at least
    one, also for an infinite rate."""
    return max(1, math.ceil(_WORKER_VARIATES / max(cfg.lam * cfg.n_sims, 1.0)))


def _simulate_rows(rows: list[BootstrapRow], cfg: RiskConfig,
                   rng: RngStream) -> list[BootstrapRow]:
    """rows, with both risk capitals of each fitted one.

    Each capital comes from its own child stream of the row's sample id, so
    a row's capitals do not depend on which other rows are simulated, and
    the simulations run apart, as gof's replicates do (see
    gof._map_replicates). They are folded here in the serial order, the
    Pareto then the FTG simulation of each row, and one that warned or
    raised where it ran runs again here; a row whose Pareto simulation
    fails keeps its fits, records the error and runs no FTG simulation.
    """
    tasks = [(row, side) for row in rows if row.ok for side in (0, 1)]

    def simulate(i: int) -> float:
        row, side = tasks[i]
        fit = row.ftg_fit if side else row.pareto_fit
        return simulate_aggregate(fit.params, cfg,
                                  rng.child(row.sample_id, side)).risk_capital

    ran = _map_replicates(simulate, len(tasks), _sims_per_worker(cfg))

    def capital(i: int) -> float:
        return ran[i] if i in ran else simulate(i)

    simulated, i = [], 0
    for row in rows:
        if row.ok:
            try:
                rc_p = capital(i)
                rc_f = capital(i + 1)
            except (FitError, ValueError) as exc:
                row = replace(row, error=str(exc))
            else:
                row = replace(row, pareto_risk_capital=rc_p, ftg_risk_capital=rc_f)
            i += 2
        simulated.append(row)
    return simulated


def _check_study(n_bootstrap: int, keep_every: int) -> None:
    """Refuse a study that would keep no row (ValueError)."""
    if keep_every < 1 or n_bootstrap < keep_every:
        raise ValueError("need n_bootstrap >= keep_every >= 1")


def bootstrap_study(sample, n_bootstrap: int, keep_every: int,
                    cfg: RiskConfig) -> BootstrapStudy:
    """Resample-with-replacement stability study of both risk capitals.

    Fits Pareto and FTG to each of n_bootstrap resamples, sorts the fitted
    rows by the Pareto tail parameter and keeps every keep_every-th row.
    Only the kept rows and the original sample are then simulated, so the
    choice of rows depends on the fits alone. The fits run one after
    another here, the resamples drawn from one generator, then the original
    sample's; the simulations run apart, on forked workers where more than
    one CPU is usable and their variates pay for a worker's start (see
    _simulate_rows), and the rows, errors and warnings are those of one
    process running them in order, on any number of CPUs. Rows whose fit
    or simulation fails are listed last, in sample-id order, with their
    error recorded rather than aborting the study; a failed simulation
    keeps its row's fits.
    """
    _check_study(n_bootstrap, keep_every)
    smp = Sample.coerce(sample)
    rng = RngStream(cfg.seed)
    resample_gen = rng.child(0).generator
    rows = [_fit_row(smp.resample(resample_gen), b) for b in range(1, n_bootstrap + 1)]
    fitted = sorted((r for r in rows if r.ok), key=lambda r: r.pareto_fit.params.alpha)
    chosen = fitted[::keep_every][: n_bootstrap // keep_every]
    *kept, original = _simulate_rows([*chosen, _fit_row(smp, 0)], cfg, rng)
    failed = sorted((r for r in rows + kept if not r.ok), key=lambda r: r.sample_id)
    return BootstrapStudy(
        rows=[r for r in kept if r.ok] + failed,
        original=original,
        selection_rule=(
            f"sorted by Pareto alpha, kept every {keep_every}-th of "
            f"{n_bootstrap} resamples; fit failures listed last"
        ),
    )
