import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from ftgamma import (
    FitError,
    FtgParams,
    NumericsError,
    RiskConfig,
    RiskReport,
    RngStream,
    Sample,
    bootstrap_study,
    risk_capital,
    simulate_aggregate,
)

from ftgamma import gof, risk
from ftgamma.dist import cdf

from helpers import no_child_left, rescale_to_threshold, set_usable_cpus
from oracles import aggregate_direct, compound_poisson_fft, poisson_quantile_exact


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
        agg = aggregate_direct(ftg_fit.params, cfg, RngStream(cfg.seed))
        mean_l = moments(ftg_fit.params).mean
        se = agg.std(ddof=1) / math.sqrt(cfg.n_sims)
        assert agg.mean() == pytest.approx(cfg.lam * mean_l, abs=3 * se)

    # the bundled interior fit (two-piece envelope), the shifted exponential
    # and both edges; lam 0.3 leaves most years empty, lam 20 over 1e5
    # years has years that straddle the sampler's blocks, and years of
    # about 2e5 losses span several pieces (4e4 to 6.5e4 variates), so most
    # fold steps finish no year
    @pytest.mark.parametrize("lam, n_sims, level", [(0.3, 20_000, 0.999),
                                                    (20.0, 100_000, 0.999),
                                                    (2e5, 20, 0.5)])
    @pytest.mark.parametrize("law", [None, FtgParams(2.0, 1.0, 1.0),
                                     FtgParams.pareto(-0.5, 1.0),
                                     FtgParams.gamma(2.0, 1.0)],
                             ids=["bundled", "shifted-exp", "pareto", "gamma"])
    def test_bit_identical_to_the_direct_sum(self, ftg_fit, monkeypatch, lam,
                                             n_sims, level, law):
        set_usable_cpus(monkeypatch, 2)
        law = law or ftg_fit.params
        cfg = RiskConfig(lam=lam, quantile_level=level, n_sims=n_sims, seed=11)
        agg = aggregate_direct(law, cfg, RngStream(cfg.seed))
        rng = RngStream(cfg.seed)
        counts = rng.child(0).generator.poisson(lam, n_sims)
        totals = np.sort(risk._annual_totals(law, counts, rng.child(1)))
        assert totals.tobytes() == agg.tobytes()
        quantiles = {lvl: risk._empirical_quantile(agg, lvl)
                     for lvl in sorted({0.5, 0.9, 0.99, 0.999})}
        assert simulate_aggregate(law, cfg) == RiskReport(
            risk_capital=quantiles[level], severity_model=law,
            aggregate_quantiles=quantiles, n_sims=n_sims, seed=11, lam=lam,
            quantile_level=level)

    def test_peak_memory_holds_no_array_of_all_losses(self, ftg_fit, monkeypatch):
        # the ~2e6 losses alone would take 16 MB; the simulation holds the
        # counts, their running sums and the totals (0.8 MB each) and one of
        # the sampler's blocks
        set_usable_cpus(monkeypatch, 2)
        cfg = RiskConfig(lam=20.0, n_sims=100_000, seed=7)
        tracemalloc.start()
        try:
            simulate_aggregate(ftg_fit.params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, peak

    @pytest.mark.parametrize("law", [FtgParams.pareto(-0.5, 1.0), FtgParams.gamma(2.0, 1.0)],
                             ids=["pareto", "gamma"])
    def test_edge_law_peak_memory_holds_no_array_of_all_losses(self, law):
        # the edges are drawn in blocks as well: their ~2e6 losses alone
        # would take 16 MB, and one call for all of them once peaked at 19.5 MB
        cfg = RiskConfig(lam=20.0, n_sims=100_000, seed=7)
        tracemalloc.start()
        try:
            simulate_aggregate(law, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, peak

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

    def test_simulates_only_the_kept_rows(self, losses, monkeypatch):
        calls = {"fit": 0, "simulate": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        # the counts are this process's: at one usable CPU it runs every
        # simulation itself
        set_usable_cpus(monkeypatch, 1)
        monkeypatch.setattr(risk, "fit_ftg", counted("fit", risk.fit_ftg))
        monkeypatch.setattr(risk, "simulate_aggregate",
                            counted("simulate", risk.simulate_aggregate))
        cfg = RiskConfig(lam=20.0, n_sims=20_000, seed=7)
        study = bootstrap_study(losses, 20, 10, cfg)
        # every resample and the original are fitted, but only the two kept
        # rows and the original are simulated, twice each
        assert len(study.rows) == 2 and all(r.ok for r in study.all_rows())
        assert calls == {"fit": 21, "simulate": 6}
        # each capital is the one its own child stream gives alone
        rng = RngStream(cfg.seed)
        for row in study.all_rows():
            pareto = simulate_aggregate(row.pareto_fit.params, cfg,
                                        rng.child(row.sample_id, 0))
            ftg = simulate_aggregate(row.ftg_fit.params, cfg,
                                     rng.child(row.sample_id, 1))
            assert row.pareto_risk_capital == pareto.risk_capital
            assert row.ftg_risk_capital == ftg.risk_capital

    def test_simulation_failure_keeps_the_row_choice(self, losses, monkeypatch):
        cfg = RiskConfig(lam=20.0, n_sims=10_000, seed=7)
        clean = bootstrap_study(losses, 20, 5, cfg)
        doomed = [clean.rows[0], clean.rows[-1]]
        simulate = risk.simulate_aggregate

        def failing(severity, *args):
            if any(severity == r.ftg_fit.params for r in doomed):
                raise ValueError("injected")
            return simulate(severity, *args)

        monkeypatch.setattr(risk, "simulate_aggregate", failing)
        study = bootstrap_study(losses, 20, 5, cfg)
        # the rows are chosen from the fits alone: the survivors keep their
        # order and capitals, and the failed rows follow in sample-id order
        def capitals(rows):
            return [(r.sample_id, r.pareto_risk_capital, r.ftg_risk_capital)
                    for r in rows]

        survivors = clean.rows[1:-1]
        failed_ids = sorted(r.sample_id for r in doomed)
        # the doomed rows' alpha order is not their sample-id order
        assert failed_ids != [r.sample_id for r in doomed]
        n = len(survivors)
        assert capitals(study.rows[:n]) == capitals(survivors)
        assert [r.sample_id for r in study.rows[n:]] == failed_ids
        # a failed simulation keeps the row's fits
        for row, fitted in zip(study.rows[n:], sorted(doomed, key=lambda r: r.sample_id)):
            assert row.error == "injected"
            assert row.pareto_fit.params == fitted.pareto_fit.params
            assert row.ftg_fit.params == fitted.ftg_fit.params
            assert row.pareto_risk_capital is None and row.ftg_risk_capital is None
        assert capitals([study.original]) == capitals([clean.original])

    def test_fit_failures_come_last_with_their_errors(self, losses, monkeypatch):
        fit = risk.fit_ftg
        calls = []

        def failing(smp):
            # the resamples are fitted in sample-id order, the original last
            calls.append(None)
            if len(calls) in (7, 3):
                raise FitError(f"injected {len(calls)}")
            return fit(smp)

        monkeypatch.setattr(risk, "fit_ftg", failing)
        study = bootstrap_study(losses, 10, 5, RiskConfig(lam=20.0, n_sims=10_000, seed=7))
        # two of the eight fitted resamples are kept, then the two failures
        assert len(calls) == 11 and len(study.rows) == 4
        assert all(r.ok for r in study.rows[:2]) and study.original.ok
        assert [(r.sample_id, r.ok, r.error) for r in study.rows[2:]] == [
            (3, False, "injected 3"), (7, False, "injected 7")]


    def test_every_fit_failing_simulates_nothing(self, losses, monkeypatch):
        def failing(smp):
            raise FitError("injected")

        monkeypatch.setattr(risk, "fit_ftg", failing)
        study = bootstrap_study(losses, 4, 2, RiskConfig(lam=20.0, n_sims=10_000, seed=7))
        assert [(r.sample_id, r.error) for r in study.all_rows()] == [
            (b, "injected") for b in (1, 2, 3, 4, 0)]

def _capitals(study):
    return [(r.sample_id, r.pareto_risk_capital, r.ftg_risk_capital, r.error)
            for r in study.all_rows()]


class TestStudyOnWorkers:
    """The study's simulations spread over gof's forked workers; every row,
    error and warning is that of one process running them in order."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_rows_equal_the_serial_study(self, losses, monkeypatch, cpus):
        fork, forked = os.fork, []

        def counted():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        for seed in (7, 8):
            cfg = RiskConfig(lam=20.0, n_sims=20_000, seed=seed)
            # the serial study, and each of its capitals drawn on its own
            set_usable_cpus(monkeypatch, 1)
            serial = bootstrap_study(losses, 20, 10, cfg)
            rng = RngStream(seed)
            assert _capitals(serial) == [
                (r.sample_id,
                 simulate_aggregate(r.pareto_fit.params, cfg,
                                    rng.child(r.sample_id, 0)).risk_capital,
                 simulate_aggregate(r.ftg_fit.params, cfg,
                                    rng.child(r.sample_id, 1)).risk_capital,
                 None)
                for r in serial.all_rows()]
            set_usable_cpus(monkeypatch, cpus)
            study = bootstrap_study(losses, 20, 10, cfg)
            no_child_left()
            assert _capitals(study) == _capitals(serial), seed
        # six simulations of 4e5 variates in each study: two workers' worth,
        # where the CPUs allow, and none in the serial ones
        assert len(forked) == 2 * min(cpus - 1, 2)

    @staticmethod
    def _inject(monkeypatch, cpus, effect, log):
        """At `cpus` usable CPUs, let effect(sample_id, side) run at the start
        of each simulation, in whichever process runs it, and append that
        process's id and the simulation to the file log; returns the
        simulations this process ran, in order."""
        parent, here = os.getpid(), []

        def injected(severity, cfg, rng):
            task = rng._path
            if os.getpid() == parent:
                here.append(task)
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {task}\n")
            effect(*task)
            return simulate_aggregate(severity, cfg, rng)

        set_usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(risk, "simulate_aggregate", injected)
        return here

    @staticmethod
    def _ran_in_a_worker(log) -> bool:
        return any(int(line.split()[0]) != os.getpid()
                   for line in log.read_text().splitlines())

    def test_failures_and_warnings_are_the_serial_studys(self, losses, monkeypatch,
                                                          tmp_path):
        cfg = RiskConfig(lam=20.0, n_sims=20_000, seed=7)
        # every FTG simulation warns, and the first kept row's Pareto
        # simulation fails, so that its FTG one never runs in order
        def effect(sample_id, side):
            if (sample_id, side) == (16, 0):
                raise ValueError(f"injected at {sample_id}")
            if side == 1:
                warnings.warn(f"injected at {sample_id}")

        results = {}
        for cpus in (1, 2, 3):
            log = tmp_path / f"ran-{cpus}"
            self._inject(monkeypatch, cpus, effect, log)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                study = bootstrap_study(losses, 20, 10, cfg)
            no_child_left()
            results[cpus] = _capitals(study), [str(w.message) for w in caught]
            if cpus > 1:
                assert self._ran_in_a_worker(log)
        rows, messages = results[1]
        assert messages == ["injected at 15", "injected at 0"]
        # the failed row keeps its fits and comes after the kept one
        assert [r[0] for r in rows] == [15, 16, 0]
        assert rows[1] == (16, None, None, "injected at 16")
        assert results[2] == results[1] and results[3] == results[1]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_an_error_raises_in_the_caller_at_its_simulation(self, losses, monkeypatch,
                                                             cpus, tmp_path):
        def effect(sample_id, side):
            if (sample_id, side) in ((15, 0), (0, 1)):
                raise NumericsError(f"injected at {sample_id}")

        log = tmp_path / "ran"
        here = self._inject(monkeypatch, cpus, effect, log)
        with pytest.raises(NumericsError, match="injected at 15"):
            bootstrap_study(losses, 20, 10, RiskConfig(lam=20.0, n_sims=20_000, seed=7))
        no_child_left()
        assert here[-1] == (15, 0)
        if cpus > 1:
            assert self._ran_in_a_worker(log)

    def test_worker_rule(self, monkeypatch):
        for cpus in range(1, 9):
            set_usable_cpus(monkeypatch, cpus)
            for n_boot in (99, 100, 999, 5000):
                assert (gof._worker_count(n_boot, gof._PER_WORKER)
                        == min(cpus - 1, n_boot // 25)), (cpus, n_boot)
        # the benchmark's study: six simulations of 2e4 years at lambda = 20
        set_usable_cpus(monkeypatch, 2)
        boot = RiskConfig(lam=20.0, n_sims=20_000)
        assert gof._worker_count(6, risk._sims_per_worker(boot)) == 1
        # 1e4 years at lambda = 0.3 draw some 3,000 variates: no worker pays
        sparse = RiskConfig(lam=0.3, n_sims=10_000)
        for cpus in (2, 8):
            set_usable_cpus(monkeypatch, cpus)
            assert gof._worker_count(6, risk._sims_per_worker(sparse)) == 0
        # an infinite rate, whose simulations fail at once, asks for one each
        assert risk._sims_per_worker(RiskConfig(lam=math.inf, n_sims=10_000)) == 1
