import math

import numpy as np
import pytest

from ftgamma import (
    FitError,
    FtgParams,
    RngStream,
    Sample,
    cvm_ad_statistics,
    bootstrap_pvalue,
    empirical_survival,
    ftg_rvs,
    log_binned_histogram,
    quantile,
    scale,
)
from ftgamma import gof
from ftgamma.fit import _fit_family

from helpers import loglog_least_squares


class TestCvmAdStatistics:
    def test_perfectly_spaced_transforms(self):
        # x_i placed at the model's (2i-1)/(2n) quantiles makes the W^2 sum
        # term vanish exactly
        n = 25
        model = FtgParams.pareto(-1.0, 1.0)
        xs = [quantile(model, (2 * i - 1) / (2 * n)) for i in range(1, n + 1)]
        w2, a2 = cvm_ad_statistics(Sample(np.array(xs)), model)
        assert w2 == pytest.approx(1.0 / (12 * n), abs=1e-12)

    def test_single_median_point(self):
        # n = 1 at the model median: A^2 = -1 + 2 log 2
        model = FtgParams.pareto(-1.0, 1.0)
        x = quantile(model, 0.5)
        w2, a2 = cvm_ad_statistics(Sample(np.array([x])), model)
        assert a2 == pytest.approx(-1.0 + 2.0 * math.log(2.0), abs=1e-12)
        assert w2 == pytest.approx((0.5 - 0.5) ** 2 + 1.0 / 12.0, abs=1e-12)

    def test_null_mean_of_w2(self):
        # under the null, E[W^2] = 1/6 (+O(1/n)); check the mean over many
        # replicates within 3 simulation standard errors
        model = FtgParams.pareto(-1.0, 1.0)
        gen = RngStream(2718).generator
        reps = 400
        n = 100
        vals = []
        for _ in range(reps):
            u = gen.random(n)
            xs = u / (1.0 - u)  # Pareto(-1, 1) inversion
            w2, _ = cvm_ad_statistics(Sample(xs), model)
            vals.append(w2)
        se = np.std(vals, ddof=1) / math.sqrt(reps)
        assert np.mean(vals) == pytest.approx(1.0 / 6.0, abs=3 * se)

    def test_exact_transform_clamped_with_warning(self):
        model = FtgParams.pareto(-1.0, 1.0)
        with pytest.warns(UserWarning, match="clamped"):
            w2, a2 = cvm_ad_statistics(Sample(np.array([0.0, 1.0, 2.0])), model)
        assert math.isfinite(a2)

    def test_invariant_under_common_rescaling(self):
        gen = RngStream(1).generator
        xs = gen.gamma(2.0, size=60)
        model = FtgParams.gamma(2.0, 1.0)
        base = cvm_ad_statistics(Sample(xs), model)
        c = 250.0
        scaled = cvm_ad_statistics(Sample(xs * c), scale(model, c))
        assert base == pytest.approx(scaled, rel=1e-12)



class TestBootstrapPvalue:
    def test_requires_99(self, losses):
        with pytest.raises(ValueError):
            bootstrap_pvalue(losses, "pareto", 50, RngStream(1))

    def test_fitted_losses_report(self, losses):
        rpt = bootstrap_pvalue(losses, "pareto", 199, RngStream(7))
        assert rpt.n_bootstrap + rpt.n_refit_failures == 199
        for p in (rpt.p_w2, rpt.p_a2):
            assert 1.0 / 200.0 <= p <= 1.0
        assert rpt.w2 >= 0.0 and rpt.a2 > -1.0

    def test_ftg_family_smoke(self, losses):
        rpt = bootstrap_pvalue(losses, "ftg", 99, RngStream(21))
        assert 1.0 / 100.0 <= rpt.p_w2 <= 1.0
        assert rpt.n_refit_failures <= 9

    def test_null_uniformity(self):
        # data drawn from the fitted null: p-values should look uniform, so
        # p < 0.05 should occur in 0..8 of 50 repetitions
        model = FtgParams.pareto(-0.9, 1.4)
        gen_stream = RngStream(60601)
        hits_w2 = hits_a2 = 0
        for rep in range(50):
            xs = ftg_rvs(model, 40, gen_stream.child(rep, 0))
            rpt = bootstrap_pvalue(Sample(xs), "pareto", 99,
                                   gen_stream.child(rep, 1))
            hits_w2 += rpt.p_w2 < 0.05
            hits_a2 += rpt.p_a2 < 0.05
        assert 0 <= hits_w2 <= 8
        assert 0 <= hits_a2 <= 8

    def test_reproducible(self, losses):
        a = bootstrap_pvalue(losses, "pareto", 99, RngStream(5))
        b = bootstrap_pvalue(losses, "pareto", 99, RngStream(5))
        assert a == b

    def test_sampler_passes_its_own_gof(self, ftg_fit):
        # data generated from the fitted model must not be rejected by the
        # fitted-model goodness-of-fit machinery
        vals = ftg_rvs(ftg_fit.params, 2_000, RngStream(4242))
        rpt = bootstrap_pvalue(Sample(vals), "ftg", 99, RngStream(4243))
        assert rpt.p_w2 > 0.01 and rpt.p_a2 > 0.01


class TestBootstrapRefitFailures:
    @staticmethod
    def _run(losses, monkeypatch, failing):
        """bootstrap_pvalue on the losses with the refits of the replicates
        in failing raising FitError, and every statistic it computed."""
        calls, seen = [], []

        def fit_family(smp, family):
            # call 1 fits the data, call b + 2 refits replicate b
            calls.append(None)
            if len(calls) - 2 in failing:
                raise FitError("injected")
            return _fit_family(smp, family)

        def statistics(smp, model):
            seen.append(cvm_ad_statistics(smp, model))
            return seen[-1]

        monkeypatch.setattr(gof, "_fit_family", fit_family)
        monkeypatch.setattr(gof, "cvm_ad_statistics", statistics)
        return bootstrap_pvalue(losses, "pareto", 99, RngStream(5)), seen

    def test_failures_counted_and_left_out_of_the_pvalues(self, losses, monkeypatch):
        clean, seen = self._run(losses, monkeypatch, ())
        assert clean.n_refit_failures == 0
        (w2_obs, a2_obs), replicates = seen[0], seen[1:]
        failing = {0, 17, 50, 98}
        rpt, _ = self._run(losses, monkeypatch, failing)
        kept = [stat for b, stat in enumerate(replicates) if b not in failing]
        assert rpt.n_refit_failures == 4 and rpt.n_bootstrap == 95
        assert (rpt.w2, rpt.a2) == (w2_obs, a2_obs)
        assert rpt.p_w2 == (1 + sum(w2 >= w2_obs for w2, _ in kept)) / 96
        assert rpt.p_a2 == (1 + sum(a2 >= a2_obs for _, a2 in kept)) / 96

    def test_more_than_a_tenth_failing_aborts(self, losses, monkeypatch):
        rpt, _ = self._run(losses, monkeypatch, set(range(0, 99, 11)))
        assert rpt.n_refit_failures == 9 and rpt.n_bootstrap == 90
        with pytest.raises(FitError, match="10 bootstrap refits failed out of 91"):
            self._run(losses, monkeypatch, set(range(0, 99, 10)))


class TestLogBinnedHistogram:
    def test_single_observation(self):
        hist = log_binned_histogram(Sample(np.array([3.0e8])), decade_origin=8.0)
        assert hist.counts.sum() == 1
        j = int(np.flatnonzero(hist.counts)[0])
        width = hist.bin_edges[j + 1] - hist.bin_edges[j]
        assert hist.densities[j] == pytest.approx(1.0 / width, rel=1e-12)
        assert (hist.densities[np.arange(len(hist.counts)) != j] == 0).all()

    def test_geometric_edges(self):
        hist = log_binned_histogram(Sample(np.array([1e8, 5e9])), decade_origin=8.0)
        ratios = hist.bin_edges[1:] / hist.bin_edges[:-1]
        assert np.allclose(ratios, 10.0 ** 0.2, rtol=1e-12)
        # preset constant: l_s = 0.5 * 10^(8 + s/5) * 11^(1/5)
        s = np.log10(hist.bin_edges / (0.5 * 11.0 ** 0.2)) - 8.0
        assert np.allclose(5.0 * s, np.round(5.0 * s), atol=1e-9)

    def test_eval_points_inside_bins(self):
        hist = log_binned_histogram(Sample(np.array([2.0, 300.0])),
                                    decade_origin=0.0, bins_per_decade=5)
        assert np.all(hist.eval_points > hist.bin_edges[:-1])
        assert np.all(hist.eval_points <= hist.bin_edges[1:])

    def test_values_on_edges_count_in_the_bin_they_close(self):
        # bins are (l_s, l_s+1]: a value on an edge counts in the bin below
        # it, and one on the first edge in no bin
        edges = log_binned_histogram(Sample(np.array([1.0, 100.0])), decade_origin=0.0,
                                     x_range=(1.0, 100.0)).bin_edges
        ranged = np.array([edges[0], edges[4], edges[4], 10.0, edges[-1]])
        hist = log_binned_histogram(Sample(ranged), decade_origin=0.0,
                                    x_range=(1.0, 100.0))
        np.testing.assert_array_equal(hist.bin_edges, edges)
        assert hist.counts.tolist() == [0, 0, 0, 2, 0, 1, 0, 0, 0, 0, 1]
        # without x_range the smallest value lies strictly inside the first
        # bin, and the largest here is the last edge
        free = np.array([1.0, edges[2], edges[5], edges[8]])
        hist_free = log_binned_histogram(Sample(free), decade_origin=0.0)
        np.testing.assert_array_equal(hist_free.bin_edges, edges[:9])
        assert hist_free.counts.tolist() == [1, 1, 0, 0, 1, 0, 0, 1]
        for h, xs in ((hist, ranged), (hist_free, free)):
            assert h.counts.dtype.kind == "i"
            np.testing.assert_array_equal(
                h.densities, h.counts / (xs.size * np.diff(h.bin_edges)))

    def test_mass_equals_inrange_fraction(self):
        gen = RngStream(33).generator
        xs = gen.pareto(1.3, size=500) * 10.0
        smp = Sample(xs)
        hist = log_binned_histogram(smp, decade_origin=0.0, x_range=(1.0, 100.0))
        mass = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        in_range = np.count_nonzero((xs > hist.bin_edges[0]) & (xs <= hist.bin_edges[-1]))
        assert mass == pytest.approx(in_range / len(smp), rel=1e-12)

    def test_power_law_slope(self):
        # Pareto density decays like x^(alpha - 1) only far beyond sigma
        # (the local slope at x/sigma ~ 10 is still -2.4), so the fit runs
        # over bins two to three decades above sigma, with enough draws to
        # populate them
        model = FtgParams.pareto(-1.63, 2.01e10)
        xs = ftg_rvs(model, 1_000_000, RngStream(404))
        hist = log_binned_histogram(Sample(xs), decade_origin=12.0,
                                    bins_per_decade=5, x_range=(2e12, 2e13))
        slope, _ = loglog_least_squares(hist)
        assert slope == pytest.approx(-2.63, abs=0.1)


class TestLogLogLeastSquares:
    def test_exact_power_law(self):
        edges = 10.0 ** (np.arange(7) / 5.0)
        pts = 10.0 ** ((np.arange(6) + 0.5) / 5.0)
        dens = 3.0 * pts ** -2.2
        hist = type("H", (), {})()
        from ftgamma.gof import LogBinnedHistogram

        hist = LogBinnedHistogram(bin_edges=edges, eval_points=pts,
                                  densities=dens, counts=np.ones(6, dtype=int), n=6)
        slope, intercept = loglog_least_squares(hist)
        assert slope == pytest.approx(-2.2, abs=1e-12)
        assert intercept == pytest.approx(math.log10(3.0), abs=1e-12)

    def test_two_points_interpolate(self):
        from ftgamma.gof import LogBinnedHistogram

        hist = LogBinnedHistogram(
            bin_edges=np.array([1.0, 10.0, 100.0]),
            eval_points=np.array([2.0, 20.0]),
            densities=np.array([5.0, 0.05]),
            counts=np.array([1, 1]),
            n=2,
        )
        slope, intercept = loglog_least_squares(hist)
        assert 10.0 ** (intercept + slope * math.log10(2.0)) == pytest.approx(5.0)
        assert 10.0 ** (intercept + slope * math.log10(20.0)) == pytest.approx(0.05)

    def test_needs_two_nonempty(self):
        from ftgamma.gof import LogBinnedHistogram

        hist = LogBinnedHistogram(
            bin_edges=np.array([1.0, 10.0, 100.0]),
            eval_points=np.array([2.0, 20.0]),
            densities=np.array([5.0, 0.0]),
            counts=np.array([1, 0]),
            n=1,
        )
        with pytest.raises(ValueError):
            loglog_least_squares(hist)


class TestEmpiricalSurvival:
    def test_step_values(self, losses):
        xs, surv = empirical_survival(losses)
        assert xs[0] == 0.07 and surv[-1] == 0.0
        # the step function is 1 below the smallest point: no pair sits there
        assert np.searchsorted(xs, 0.05, side="right") == 0
        assert surv[0] == pytest.approx(39.0 / 40.0)
        # at the largest point below 100 the curve reads 8/40
        i = np.searchsorted(xs, 100.0, side="right") - 1
        assert surv[i] == pytest.approx(8.0 / 40.0)

    def test_ties(self):
        xs, surv = empirical_survival(Sample(np.array([1.0, 2.0, 2.0, 5.0])))
        assert list(xs) == [1.0, 2.0, 2.0, 5.0]
        assert list(surv) == [0.75, 0.25, 0.25, 0.0]
