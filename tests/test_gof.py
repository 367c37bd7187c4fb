import contextlib
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

from ftgamma import (
    FitError,
    FtgParams,
    NumericsError,
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

from helpers import child_env, loglog_least_squares, no_child_left, set_usable_cpus


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

    def test_refits_invert_no_information(self, losses, monkeypatch):
        # a replicate reads only its refit's params, and standard errors
        # are computed when first read, so no refit builds an inverse
        set_usable_cpus(monkeypatch, 1)
        calls = []

        def counted(name):
            real = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("inv", "pinv"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        rpt = bootstrap_pvalue(losses, "ftg", 99, RngStream(1))
        assert rpt.n_bootstrap + rpt.n_refit_failures == 99
        assert calls == []

    def test_sampler_passes_its_own_gof(self, ftg_fit):
        # data generated from the fitted model must not be rejected by the
        # fitted-model goodness-of-fit machinery
        vals = ftg_rvs(ftg_fit.params, 2_000, RngStream(4242))
        rpt = bootstrap_pvalue(Sample(vals), "ftg", 99, RngStream(4243))
        assert rpt.p_w2 > 0.01 and rpt.p_a2 > 0.01


def _replicates(losses, family, seed, n_boot=99):
    """{bytes of replicate b's values: b}: how a replaced refit tells which
    replicate it was handed, in whichever process runs it."""
    model = _fit_family(losses, family).params
    stream = RngStream(seed)
    return {ftg_rvs(model, len(losses), stream.child(b + 1)).tobytes(): b
            for b in range(n_boot)}


class TestBootstrapRefitFailures:
    @staticmethod
    def _run(losses, monkeypatch, failing, cpus):
        """bootstrap_pvalue on the losses at `cpus` usable CPUs, with the
        refits of the replicates in failing raising FitError."""
        which = _replicates(losses, "pareto", 5)

        def fit_family(smp, family):
            if which.get(smp.values.tobytes()) in failing:
                raise FitError("injected")
            return _fit_family(smp, family)

        set_usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(gof, "_fit_family", fit_family)
        try:
            return bootstrap_pvalue(losses, "pareto", 99, RngStream(5))
        finally:
            no_child_left()

    @staticmethod
    def _statistics(losses):
        """The observed (W^2, A^2), and every replicate's in order b, from a
        loop of this test's own."""
        model = _fit_family(losses, "pareto").params
        stream = RngStream(5)
        replicates = []
        for b in range(99):
            sim = Sample(ftg_rvs(model, len(losses), stream.child(b + 1)))
            replicates.append(cvm_ad_statistics(sim, _fit_family(sim, "pareto").params))
        return cvm_ad_statistics(losses, model), replicates

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failures_counted_and_left_out_of_the_pvalues(self, losses, monkeypatch, cpus):
        clean = self._run(losses, monkeypatch, (), cpus)
        assert clean.n_refit_failures == 0
        (w2_obs, a2_obs), replicates = self._statistics(losses)
        failing = {0, 17, 50, 98}
        rpt = self._run(losses, monkeypatch, failing, cpus)
        kept = [stat for b, stat in enumerate(replicates) if b not in failing]
        assert rpt.n_refit_failures == 4 and rpt.n_bootstrap == 95
        assert (rpt.w2, rpt.a2) == (w2_obs, a2_obs)
        assert rpt.p_w2 == (1 + sum(w2 >= w2_obs for w2, _ in kept)) / 96
        assert rpt.p_a2 == (1 + sum(a2 >= a2_obs for _, a2 in kept)) / 96

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_more_than_a_tenth_failing_aborts(self, losses, monkeypatch, cpus):
        rpt = self._run(losses, monkeypatch, set(range(0, 99, 11)), cpus)
        assert rpt.n_refit_failures == 9 and rpt.n_bootstrap == 90
        with pytest.raises(FitError, match="10 bootstrap refits failed out of 91"):
            self._run(losses, monkeypatch, set(range(0, 99, 10)), cpus)


class TestBootstrapOnWorkers:
    """The replicates spread over forked workers; every figure, error and
    warning is that of one process running them in order."""

    # GofReport fields of bootstrap_pvalue(losses, family, 99, RngStream(seed)),
    # captured from the serial loop before the replicates were spread
    PINNED = {
        ("ftg", 11): (0.05829705937500183, 0.37369268422494883, 0.19, 0.2, 99, 0),
        ("ftg", 12): (0.05829705937500183, 0.37369268422494883, 0.25, 0.24, 99, 0),
        ("ftg", 13): (0.05829705937500183, 0.37369268422494883, 0.17, 0.21, 99, 0),
        ("pareto", 11): (0.04662673333139112, 0.34312747943306476, 0.46, 0.46, 99, 0),
        ("pareto", 12): (0.04662673333139112, 0.34312747943306476, 0.52, 0.53, 99, 0),
        ("pareto", 13): (0.04662673333139112, 0.34312747943306476, 0.48, 0.47, 99, 0),
    }

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_reports_equal_the_serial_loop(self, losses, monkeypatch, cpus):
        set_usable_cpus(monkeypatch, cpus)
        for (family, seed), fields in self.PINNED.items():
            rpt = bootstrap_pvalue(losses, family, 99, RngStream(seed))
            no_child_left()
            assert tuple(rpt.to_dict().values()) == fields, (family, seed)

    @staticmethod
    def _inject(losses, monkeypatch, cpus, effect):
        """At `cpus` usable CPUs, let effect(b) run at the start of replicate
        b's refit, in whichever process runs it; returns the replicates whose
        refit this process ran, in order."""
        which = _replicates(losses, "ftg", 11)
        parent, here = os.getpid(), []

        def fit_family(smp, family):
            b = which.get(smp.values.tobytes())
            if b is not None:
                if os.getpid() == parent:
                    here.append(b)
                effect(b)
            return _fit_family(smp, family)

        set_usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(gof, "_fit_family", fit_family)
        return here

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_an_error_raises_in_the_parent_at_its_replicate(self, losses, monkeypatch, cpus):
        def effect(b):
            if b in (30, 70):
                raise NumericsError(f"injected at {b}")

        here = self._inject(losses, monkeypatch, cpus, effect)
        with pytest.raises(NumericsError, match="injected at 30"):
            bootstrap_pvalue(losses, "ftg", 99, RngStream(11))
        no_child_left()
        assert here[-1] == 30

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_warnings_come_once_from_the_parent_in_order(self, losses, monkeypatch, cpus):
        # ten replicates warn, so that workers run some of them
        warned = range(3, 99, 10)

        def effect(b):
            if b in warned:
                warnings.warn(f"injected at {b}")

        here = self._inject(losses, monkeypatch, cpus, effect)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rpt = bootstrap_pvalue(losses, "ftg", 99, RngStream(11))
        no_child_left()
        assert [str(w.message) for w in caught] == [f"injected at {b}" for b in warned]
        assert tuple(rpt.to_dict().values()) == self.PINNED["ftg", 11]
        assert set(warned) <= set(here)

    def test_a_slow_worker_claims_fewer_chunks(self, losses, monkeypatch):
        run_share, parent, claimed = gof._run_share, os.getpid(), []

        def share(replicate, *args):
            if os.getpid() != parent:
                return run_share(lambda b: (time.sleep(0.02), replicate(b))[1], *args)
            ran = run_share(replicate, *args)
            claimed.append(len(ran))
            return ran

        set_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(gof, "_run_share", share)
        rpt = bootstrap_pvalue(losses, "ftg", 99, RngStream(11))
        no_child_left()
        assert tuple(rpt.to_dict().values()) == self.PINNED["ftg", 11]
        assert 99 - claimed[0] > 0  # the worker ran, and claimed less
        assert claimed[0] > 99 - claimed[0]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
    def test_a_killed_caller_leaves_no_worker_running(self):
        # a worker holds its caller's stdout: one that went on claiming after
        # its caller was killed would hold the pipe open for its whole share,
        # here some 99,999 replicates
        script = textwrap.dedent("""
            import os
            from ftgamma import RngStream, bootstrap_pvalue, gof, load_external_fraud
            os.sched_getaffinity = lambda pid: {0, 1}
            run_share, parent = gof._run_share, os.getpid()
            def share(*args):
                if os.getpid() != parent:
                    print(os.getpid(), flush=True)
                return run_share(*args)
            gof._run_share = share
            bootstrap_pvalue(load_external_fraud(), "ftg", 99_999, RngStream(1))
        """)
        proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=child_env())
        worker = None
        try:
            worker = int(proc.stdout.readline())
            proc.terminate()
            proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
            if worker is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(worker, signal.SIGKILL)  # reaped by init, if it lived on


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

    def test_far_origin_refused_promptly(self):
        # 1e300 once hung the loop that moves the first edge below the
        # data, inf raised OverflowError and 1e16 gave edges that were not
        # increasing and NaN densities: each is a ValueError, in a child
        # that must finish
        code = textwrap.dedent("""
            import math
            import numpy as np
            from ftgamma import Sample, log_binned_histogram
            smp = Sample(np.array([1.5, 20.0, 900.0]))
            for origin in (1e300, -1e300, math.inf, -math.inf, 1e16, -1e16, math.nan):
                try:
                    log_binned_histogram(smp, decade_origin=origin)
                except ValueError as exc:
                    assert "decade origin" in str(exc), exc
                else:
                    raise SystemExit(f"origin {origin} accepted")
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=child_env())
        assert proc.returncode == 0, proc.stderr

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
