import math

import numpy as np
import pytest

from ftgamma import (
    FtgParams,
    RiskConfig,
    RngStream,
    Sample,
    bootstrap_study,
    rescale_to_threshold,
    risk_capital,
    simulate_aggregate,
)

from ftgamma.dist import cdf

from oracles import compound_poisson_fft, poisson_quantile_exact


class TestRiskConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RiskConfig(lam=0.0)
        with pytest.raises(ValueError):
            RiskConfig(lam=20.0, quantile_level=1.0)
        with pytest.raises(ValueError):
            RiskConfig(lam=20.0, quantile_level=0.999, n_sims=1000)


class TestSimulateAggregate:
    def test_vanishing_frequency(self):
        cfg = RiskConfig(lam=1e-9, quantile_level=0.99, n_sims=2_000, seed=4)
        rep = simulate_aggregate(FtgParams(1.0, 1.0, 0.5), cfg)
        assert rep.risk_capital == 0.0

    def test_degenerate_severity_reduces_to_poisson(self):
        # near-point-mass at 1: the aggregate is essentially the Poisson count
        cfg = RiskConfig(lam=20.0, n_sims=50_000, seed=9)
        rep = simulate_aggregate(FtgParams.gamma(1e6, 1e6), cfg)
        assert poisson_quantile_exact(20.0, 0.999) == 35
        assert rep.risk_capital == pytest.approx(35.0, abs=1.0)

    @pytest.mark.parametrize("severity, infinite", [
        (FtgParams.pareto(-1.0, 2.0), True),
        (FtgParams.pareto(-1.01, 2.0), False),
        (FtgParams.gamma(0.5, 1.0), False),
        (FtgParams(-0.5, 1.0, 0.3), False),
    ])
    def test_infinite_mean_flag_is_the_severity_mean(self, severity, infinite):
        cfg = RiskConfig(lam=2.0, quantile_level=0.99, n_sims=2_000, seed=4)
        assert simulate_aggregate(severity, cfg).infinite_mean_severity is infinite

    def test_quantiles_monotone(self, ftg_fit):
        cfg = RiskConfig(lam=20.0, n_sims=20_000, seed=30)
        rep = simulate_aggregate(ftg_fit.params, cfg)
        levels = sorted(rep.aggregate_quantiles)
        vals = [rep.aggregate_quantiles[l] for l in levels]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert rep.risk_capital == rep.aggregate_quantiles[0.999]

    def test_walds_identity(self, ftg_fit):
        from ftgamma import moments

        cfg = RiskConfig(lam=20.0, n_sims=50_000, seed=8)
        rep = simulate_aggregate(ftg_fit.params, cfg)
        # recompute the aggregate sample for its mean
        rng = RngStream(cfg.seed)
        counts = rng.child(0).generator.poisson(cfg.lam, cfg.n_sims)
        from ftgamma import ftg_rvs

        sevs = ftg_rvs(ftg_fit.params, int(counts.sum()), rng.child(1))
        agg = np.bincount(np.repeat(np.arange(cfg.n_sims), counts), weights=sevs,
                          minlength=cfg.n_sims)
        mean_l = moments(ftg_fit.params).mean
        se = agg.std(ddof=1) / math.sqrt(cfg.n_sims)
        assert agg.mean() == pytest.approx(cfg.lam * mean_l, abs=3 * se)

    def test_reproducible(self, ftg_fit):
        cfg = RiskConfig(lam=20.0, n_sims=10_000, seed=77)
        a = simulate_aggregate(ftg_fit.params, cfg)
        b = simulate_aggregate(ftg_fit.params, cfg)
        assert a.risk_capital == b.risk_capital
        assert a.aggregate_quantiles == b.aggregate_quantiles

    def test_doubling_sims_stays_within_mc_noise(self, ftg_fit):
        cfg1 = RiskConfig(lam=20.0, n_sims=50_000, seed=31)
        cfg2 = RiskConfig(lam=20.0, n_sims=100_000, seed=31)
        rc1 = simulate_aggregate(ftg_fit.params, cfg1).risk_capital
        rc2 = simulate_aggregate(ftg_fit.params, cfg2).risk_capital
        # batching estimate of the quantile's MC standard error
        batches = [
            simulate_aggregate(
                ftg_fit.params, RiskConfig(lam=20.0, n_sims=10_000, seed=1000 + b)
            ).risk_capital
            for b in range(10)
        ]
        se_10k = np.std(batches, ddof=1)
        se = se_10k / math.sqrt(5.0)  # scale from 10k batches to 50k runs
        assert abs(rc2 - rc1) < 3.0 * max(se, 1.0)

    def test_compound_exponential_median_vs_oracle(self):
        # FTG(1, theta, rho) severities are exponential; check the aggregate
        # median against a large independent simulation
        sev = FtgParams(1.0, 0.01, 0.3)
        cfg = RiskConfig(lam=5.0, quantile_level=0.5, n_sims=100_000, seed=21)
        rep = simulate_aggregate(sev, cfg)
        gen = np.random.default_rng(987654321)
        counts = gen.poisson(5.0, 1_000_000)
        sevs = gen.standard_exponential(int(counts.sum())) / 0.01
        agg = np.bincount(np.repeat(np.arange(counts.size), counts), weights=sevs,
                          minlength=counts.size)
        oracle = float(np.quantile(agg, 0.5))
        assert rep.risk_capital == pytest.approx(oracle, rel=0.02)

    def test_quantiles_vs_fft_compound_law(self, ftg_fit):
        # each simulated quantile is an order statistic: its level under the
        # FFT law of the same compound Poisson sum must lie within 4 binomial
        # standard errors of the level it estimates
        p = ftg_fit.params
        cfg = RiskConfig(lam=20.0, n_sims=100_000, seed=20260808)
        rep = simulate_aggregate(p, cfg)
        grid, mass = compound_poisson_fft(lambda x: cdf(p, x), 20.0, 2.0, 2**15)
        assert mass.sum() == pytest.approx(1.0, abs=1e-12)
        for level, q in rep.aggregate_quantiles.items():
            got = float(mass[grid <= q].sum())
            bound = 4.0 * math.sqrt(level * (1.0 - level) / cfg.n_sims)
            assert abs(got - level) <= bound, (level, q, got, bound)

class TestRiskCapital:
    def test_ftg_pipeline(self, losses):
        cfg = RiskConfig(lam=20.0, n_sims=100_000, seed=606)
        rep = risk_capital(losses, "ftg", cfg)
        assert 10820.4 / 1.3 < rep.risk_capital < 10820.4 * 1.3
        assert not rep.infinite_mean_severity
        assert math.isfinite(rep.tail_expectation)
        assert rep.tail_expectation > rep.risk_capital

    def test_pareto_pipeline(self, losses):
        cfg = RiskConfig(lam=20.0, n_sims=100_000, seed=607)
        rep = risk_capital(losses, "pareto", cfg)
        assert rep.infinite_mean_severity
        assert math.isinf(rep.tail_expectation)
        assert math.log10(rep.risk_capital) == pytest.approx(9.76, abs=1.0)

    def test_unknown_family(self, losses):
        with pytest.raises(ValueError):
            risk_capital(losses, "weibull", RiskConfig(lam=20.0))


class TestRescaleToThreshold:
    def test_identity_when_already_scaled(self, losses):
        out = rescale_to_threshold(losses, 0.0, 100.0)
        assert out.values.mean() == pytest.approx(100.0, abs=1e-12)
        assert np.allclose(out.values, losses.values * (100.0 / losses.mean))

    def test_two_point_example(self):
        u = 7.0
        out = rescale_to_threshold(Sample(np.array([u + 1.0, u + 3.0])), u, 100.0)
        assert np.allclose(out.values, [50.0, 150.0])

    def test_mean_is_exact(self):
        gen = RngStream(3).generator
        xs = 5.0 + gen.random(50) * 100.0
        out = rescale_to_threshold(Sample(xs), 5.0, 100.0)
        assert out.values.mean() == pytest.approx(100.0, abs=1e-12)

    def test_rejects_below_threshold(self):
        with pytest.raises(ValueError):
            rescale_to_threshold(Sample(np.array([1.0, 5.0])), 2.0, 100.0)


class TestBootstrapStudy:
    def test_single_resample(self, losses):
        cfg = RiskConfig(lam=20.0, n_sims=10_000, seed=41)
        study = bootstrap_study(losses, 1, 1, cfg)
        assert len(study.rows) == 1
        assert study.original.sample_id == 0

    def test_reproducible(self, losses):
        cfg = RiskConfig(lam=20.0, n_sims=10_000, seed=42)
        a = bootstrap_study(losses, 5, 1, cfg)
        b = bootstrap_study(losses, 5, 1, cfg)
        for ra, rb in zip(a.all_rows(), b.all_rows()):
            assert ra.pareto_risk_capital == rb.pareto_risk_capital
            assert ra.ftg_risk_capital == rb.ftg_risk_capital

    def test_stability_contrast(self, losses):
        # the headline claim: resampling barely moves the FTG capital while
        # the Pareto capital swings across orders of magnitude
        cfg = RiskConfig(lam=20.0, n_sims=20_000, seed=314)
        study = bootstrap_study(losses, 100, 10, cfg)
        assert len(study.rows) == 10
        ok = [r for r in study.all_rows() if r.ok]
        assert len(ok) == 11
        ftg_rcs = np.array([r.ftg_risk_capital for r in ok])
        par_rcs = np.array([r.pareto_risk_capital for r in ok])
        # the reference ten-row study spans roughly [3.3e3, 1.7e4]; other
        # resample draws wander a little wider, but never by much: spread
        # under two orders of magnitude against four-plus for Pareto
        assert np.all(ftg_rcs >= 1.5e3) and np.all(ftg_rcs <= 4e4)
        assert ftg_rcs.max() / ftg_rcs.min() < 1e2
        assert par_rcs.max() / par_rcs.min() > 1e4
        # rows come back ordered by the Pareto tail parameter
        alphas = [r.pareto_fit.params.alpha for r in study.rows]
        assert alphas == sorted(alphas)

    def test_validation(self, losses):
        with pytest.raises(ValueError):
            bootstrap_study(losses, 5, 10, RiskConfig(lam=20.0, n_sims=10_000))
