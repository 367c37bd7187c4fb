import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ftgamma import (
    FtgParams,
    RngStream,
    Sample,
    chi2_survival_1df,
    fit_ftg,
    fit_gamma,
    fit_pareto,
    ftg_rvs,
    inner_solve,
    log_pdf,
    loglik_ftg,
    loglik_pareto,
    lrt_pareto_vs_ftg,
    observed_information,
    score_ftg,
    sufficient_stats,
)
from ftgamma.data import read_dataset
from ftgamma.errors import FitError
from ftgamma.specfun import inc_gamma_eval, log_upper_inc_gamma

from helpers import fit_result_from_dict, near_constant_sample
from oracles import fd_gradient, fd_hessian, loglik_sample_free

DATA = Path(__file__).parent / "data"

# printed three-decimal estimates for the external-fraud losses
REF_FTG = (-0.197, 0.654, 4.3016e-4)
REF_PARETO = (-0.448, 1.382)


def _random_points(rng, n):
    pts = []
    while len(pts) < n:
        a = rng.uniform(-2.0, 2.5)
        s = 10 ** rng.uniform(-1.5, 1.5)
        r = 10 ** rng.uniform(-3.0, 0.5)
        pts.append((float(a), float(s), float(r)))
    return pts


class TestSufficientStats:
    def test_values_and_inequality(self, losses):
        st = sufficient_stats(losses, 2.0)
        x = losses.values
        assert st.r_bar == pytest.approx(1.0 + x.mean() / 2.0, rel=1e-14)
        assert st.s_bar == pytest.approx(np.log1p(x / 2.0).mean(), rel=1e-14)
        assert st.r_bar > 1.0 and st.s_bar > 0.0
        assert st.r_bar >= math.exp(st.s_bar)  # AM-GM on 1 + x/sigma

    def test_sigma_derivatives_fd(self, losses):
        h = 1e-6
        for sig in (0.5, 3.0):
            st = sufficient_stats(losses, sig)
            up = sufficient_stats(losses, sig + h)
            dn = sufficient_stats(losses, sig - h)
            assert st.r_bar_sigma == pytest.approx((up.r_bar - dn.r_bar) / (2 * h), rel=1e-7)
            assert st.s_bar_sigma == pytest.approx((up.s_bar - dn.s_bar) / (2 * h), rel=1e-7)
            assert st.r_bar_sigma_sigma == pytest.approx(
                (up.r_bar_sigma - dn.r_bar_sigma) / (2 * h), rel=1e-6
            )
            assert st.s_bar_sigma_sigma == pytest.approx(
                (up.s_bar_sigma - dn.s_bar_sigma) / (2 * h), rel=1e-6
            )

    @pytest.mark.parametrize("n", [40, 100_000])
    def test_fields_equal_the_plain_numpy_expressions(self, n):
        # one statistics pass, with the same arithmetic and the same
        # pairwise sums as x.mean(): every field keeps its bits
        x = ftg_rvs(FtgParams.from_sigma(-0.2, 0.65, 4.3e-4), n, RngStream(40).child(n))
        sigma = 0.65
        st = sufficient_stats(Sample(x), sigma)
        xbar = float(x.mean())
        q = x / (x + sigma)
        q1, q2 = float(q.mean()), float((q * q).mean())
        assert st.n == n and st.sigma == sigma
        assert st.r_bar == 1.0 + xbar / sigma
        assert st.s_bar == float(np.log1p(x / sigma).mean())
        assert st.r_bar_sigma == -xbar / sigma**2
        assert st.r_bar_sigma_sigma == 2.0 * xbar / sigma**3
        assert st.s_bar_sigma == -q1 / sigma
        assert st.s_bar_sigma_sigma == (2.0 * q1 - q2) / sigma**2

    def test_one_scratch_array(self):
        # a million-point fit holds the sample and one array of its size
        smp = Sample(RngStream(41).generator.exponential(1.0, 100_000))
        tracemalloc.start()
        try:
            sufficient_stats(smp, 0.65)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * smp.values.nbytes

    def test_stats_stand_in_for_the_sample(self, losses):
        alpha, sigma, rho = REF_FTG
        st = sufficient_stats(losses, sigma)
        assert loglik_ftg(st, alpha, sigma, rho) == loglik_ftg(losses, alpha, sigma, rho)
        assert score_ftg(st, alpha, sigma, rho) == score_ftg(losses, alpha, sigma, rho)
        assert np.array_equal(observed_information(st, alpha, sigma, rho),
                              observed_information(losses, alpha, sigma, rho))
        assert inner_solve(st, sigma) == inner_solve(losses, sigma)
        with pytest.raises(ValueError, match="statistics are for sigma"):
            loglik_ftg(st, alpha, 2.0 * sigma, rho)


class TestLoglik:
    def test_reference_ftg_value(self, losses):
        assert loglik_ftg(losses, *REF_FTG) == pytest.approx(-172.37, abs=0.05)

    def test_single_zero_observation(self):
        assert loglik_ftg(Sample(np.array([0.0])), 1.0, 1.0, 1.0) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_matches_pointwise_density(self, losses):
        for a, s, r in [(-0.3, 1.0, 0.1), (0.9, 4.0, 0.7), REF_FTG]:
            p = FtgParams.from_sigma(a, s, r)
            direct = sum(log_pdf(p, float(x)) for x in losses.values)
            assert loglik_ftg(losses, a, s, r) == pytest.approx(direct, rel=1e-10)

    def test_reference_pareto_value(self, losses):
        assert loglik_pareto(losses, *REF_PARETO) == pytest.approx(-174.44, abs=0.05)

    def test_pareto_single_point(self):
        assert loglik_pareto(Sample(np.array([0.0])), -1.0, 1.0) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_pareto_matches_pointwise_density(self, losses):
        p = FtgParams.pareto(-0.7, 2.2)
        direct = sum(log_pdf(p, float(x)) for x in losses.values)
        assert loglik_pareto(losses, -0.7, 2.2) == pytest.approx(direct, rel=1e-12)


class TestScore:
    def test_zero_at_mle(self, losses, ftg_fit):
        p = ftg_fit.params
        n = len(losses)
        score = score_ftg(losses, p.alpha, p.sigma, p.rho)
        assert max(abs(s) for s in score) < 1e-6 * n

    def test_matches_fd_gradient(self, losses):
        a, s, r = -0.3, 1.0, 0.1
        score = score_ftg(losses, a, s, r)
        fd = fd_gradient(lambda v: loglik_ftg(losses, *v), (a, s, r))
        for got, ref in zip(score, fd):
            assert got == pytest.approx(ref, rel=1e-4)

    def test_fd_gradient_at_random_points(self, losses):
        rng = np.random.default_rng(1009)
        for a, s, r in _random_points(rng, 50):
            score = np.array(score_ftg(losses, a, s, r))
            fd = fd_gradient(lambda v: loglik_ftg(losses, *v), (a, s, r))
            scale_ref = max(np.max(np.abs(fd)), 1.0)
            assert np.max(np.abs(score - fd)) < 1e-4 * scale_ref, (a, s, r)

    def test_single_point_alpha_component(self):
        # n = 1, x = {1}, sigma = 1: l_alpha = -(d_alpha - log rho - log 2)
        smp = Sample(np.array([1.0]))
        rho = 0.4
        la, _, _ = score_ftg(smp, 1.0, 1.0, rho)
        h = 1e-6
        d_a = (log_upper_inc_gamma(1.0 + h, rho) - log_upper_inc_gamma(1.0 - h, rho)) / (2 * h)
        assert la == pytest.approx(-(d_a - math.log(rho) - math.log(2.0)), abs=1e-9)


class TestObservedInformation:
    def test_matches_fd_hessian_at_mle(self, losses, ftg_fit):
        p = ftg_fit.params
        x0 = (p.alpha, p.sigma, p.rho)
        info = observed_information(losses, *x0)
        fd = -fd_hessian(lambda v: loglik_ftg(losses, *v), x0)
        assert np.max(np.abs(info - fd)) < 1e-3 * np.max(np.abs(fd))

    def test_positive_definite_at_mle(self, losses, ftg_fit):
        p = ftg_fit.params
        info = observed_information(losses, p.alpha, p.sigma, p.rho)
        assert np.all(np.linalg.eigvalsh(info) > 0.0)

    def test_fd_hessian_at_random_points(self, losses):
        rng = np.random.default_rng(77)
        for a, s, r in _random_points(rng, 50):
            info = observed_information(losses, a, s, r)
            fd = -fd_hessian(lambda v: loglik_ftg(losses, *v), (a, s, r))
            assert np.max(np.abs(info - fd)) < 1e-3 * np.max(np.abs(fd)), (a, s, r)

    def test_alpha_standard_error_near_reference(self, losses, ftg_fit):
        # reference: s.e.(alpha) = 0.16; sigma 0.59 and rho 6.2e-4 are not
        # reproducible from the observed information at the exact optimum
        # (they come out 0.49 and 4.1e-4), so only order-of-magnitude
        # agreement is asserted for those two
        se = ftg_fit.std_errors
        assert se[0] == pytest.approx(0.16, rel=0.15)
        assert 0.59 / 2 < se[1] < 0.59 * 2
        assert 6.2e-4 / 2 < se[2] < 6.2e-4 * 2


class TestInnerSolve:
    def test_at_reference_sigma(self, losses):
        y = losses.values / losses.values.mean()
        a, r, _ = inner_solve(Sample(y), 0.654 / losses.values.mean())
        assert a == pytest.approx(-0.197, abs=0.02)
        assert r == pytest.approx(4.3e-4, rel=0.3)

    def test_residual_at_solution(self, losses):
        n = len(losses)
        for sigma in (0.5, 0.654, 2.0):
            a, r, _ = inner_solve(losses, sigma)
            la, _, lr = score_ftg(losses, a, sigma, r)
            assert abs(la) < 1e-9 * n
            assert abs(lr) < 1e-9 * n

    def test_matches_grid_search(self, losses):
        sigma = 0.654
        a_hat, r_hat, _ = inner_solve(losses, sigma)
        alphas = np.linspace(a_hat - 0.5, a_hat + 0.5, 400)
        rhos = np.exp(np.linspace(math.log(r_hat) - 2, math.log(r_hat) + 2, 400))
        st = sufficient_stats(losses, sigma)
        d = np.array([[log_upper_inc_gamma(float(a), float(r)) for r in rhos]
                      for a in alphas])
        A = alphas[:, None]
        R = rhos[None, :]
        ll = -st.n * (
            d + math.log(sigma) - A * np.log(R) - (A - 1.0) * st.s_bar + R * st.r_bar
        )
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        assert abs(alphas[i] - a_hat) <= alphas[1] - alphas[0]
        assert abs(math.log(rhos[j]) - math.log(r_hat)) <= math.log(rhos[1] / rhos[0])

    def test_boundary_regime_raises(self, losses):
        # at sigma = 1 on standardized data the supremum is the Pareto edge
        from ftgamma.fit import InnerBoundaryError

        y = Sample(losses.values / losses.values.mean())
        with pytest.raises(InnerBoundaryError):
            inner_solve(y, 1.0)

    def test_cold_start_finds_the_root_over_the_sigma_range(self, losses, ftg_fit):
        # the likelihood is concave in (alpha, rho), so a root of the
        # (alpha, rho) score is the inner maximum: the fixed cold start must
        # reach one, at or above the previous sigma's root, at every sigma
        # from 1e-3 to 1e3 times the mean, on the bundled losses and on 20
        # bootstrap replicates of their fit
        from ftgamma.fit import InnerBoundaryError

        samples = [losses] + [
            Sample(ftg_rvs(ftg_fit.params, 40, RngStream(2000).child(b)))
            for b in range(1, 21)
        ]
        roots = 0
        for smp in samples:
            y = Sample(smp.values / smp.values.mean())
            n = len(y)
            prev = None
            for sigma in np.logspace(-3.0, 3.0, 25):
                sigma = float(sigma)
                try:
                    a, r, _ = inner_solve(y, sigma)
                except InnerBoundaryError:
                    continue
                roots += 1
                l_a, _, l_r = score_ftg(y, a, sigma, r)
                assert abs(l_a) < 1e-10 * n and abs(r * l_r) < 1e-10 * n, sigma
                if prev is not None:
                    a_prev, r_prev = prev
                    assert (loglik_ftg(y, a, sigma, r)
                            >= loglik_ftg(y, a_prev, sigma, r_prev) - 1e-9), (sigma, prev)
                prev = (a, r)
        assert roots > 100

    @staticmethod
    def _record_evaluations(monkeypatch):
        import ftgamma.fit

        points = []
        real = ftgamma.fit.inc_gamma_eval

        def recording(alpha, rho):
            points.append((alpha, rho))
            return real(alpha, rho)

        monkeypatch.setattr(ftgamma.fit, "inc_gamma_eval", recording)
        return points

    @pytest.mark.parametrize("s_bar", [0.6, 0.75])
    def test_root_a_newton_step_from_rho_zero_keeps_rho_positive(self, s_bar,
                                                                 monkeypatch):
        # statistics just inside the Pareto test of _check_interior_exists,
        # r_bar (1 - s_bar) = 1 - 1.5e-10: the inner root lies within one
        # Newton step of the Pareto limit rho -> 0, and the last step, taken
        # once the scores pass, would cross rho = 0 (to -2.3e-15 and -6.9e-29)
        from ftgamma.fit import (SufficientStats, _check_interior_exists,
                                 _inner_solve_stats)

        st = SufficientStats(1.0, 40, (1.0 - 1.5e-10) / (1.0 - s_bar), s_bar,
                             0.0, 0.0, 0.0, 0.0)
        _check_interior_exists(st)
        points = self._record_evaluations(monkeypatch)
        alpha, rho, _ = _inner_solve_stats(st, 200)
        # the guard returns the evaluated point whose scores passed
        assert rho > 0.0 and (alpha, rho) == points[-1]
        ev = inc_gamma_eval(alpha, rho)
        g1 = ev.d_alpha - math.log(rho) - s_bar
        g2 = st.r_bar - math.exp(ev.log_value_up - math.log(rho) - ev.log_value)
        assert abs(g1) < 1e-9 and abs(g2) < 1e-9 * st.r_bar

    def test_replicate_whose_root_is_a_step_from_rho_zero(self, monkeypatch):
        # a replicate of the bundled fit whose profile passes a sigma where
        # the inner root lies within one Newton step of rho -> 0: returning
        # that last step gave rho = -4e-35, and the profile point raised in
        # inc_gamma_eval
        p = FtgParams(-0.1964803671608535, 0.0006594575534190036, 0.0004295490596932579)
        smp = Sample(ftg_rvs(p, 40, RngStream(1202005).child(52)))
        y = Sample(smp.values / smp.values.mean())
        points = self._record_evaluations(monkeypatch)
        alpha, rho, _ = inner_solve(y, 0.22313062563470307)
        assert rho > 0.0 and (alpha, rho) == points[-1]
        fit = fit_ftg(smp)
        assert fit.boundary is None and fit.converged

    def test_solve_past_the_rho_cap_stops_on_the_cap(self, monkeypatch):
        # light-tailed data whose inner optimum at this sigma lies past the
        # rho cap (the truncated-normal edge): once the alpha-score vanishes
        # on the cap with the likelihood still rising in rho, the solve
        # raises, instead of halving its steps toward the cap until max_iter
        import ftgamma.fit
        from ftgamma.fit import InnerBoundaryError

        gen = np.random.default_rng(3)
        gen.exponential(1.0, 20)
        x = gen.exponential(1.0, 40)
        y = Sample(x / x.mean())
        calls = []
        real = ftgamma.fit.inc_gamma_eval

        def counting(alpha, rho):
            calls.append(rho)
            return real(alpha, rho)

        monkeypatch.setattr(ftgamma.fit, "inc_gamma_eval", counting)
        with pytest.raises(FitError, match="rho cap") as raised:
            inner_solve(y, 100.0)
        assert not isinstance(raised.value, InnerBoundaryError)
        assert len(calls) < 50


class TestProfile:
    @pytest.mark.parametrize("offset", [-0.3, 0.1, 0.5, "pareto-edge"])
    def test_slope_and_curvature_match_central_differences(self, losses, ftg_fit,
                                                           offset):
        # the slope is l_sigma at the inner optimum (envelope theorem) and the
        # curvature the Schur complement of the (alpha, rho) information;
        # where no interior inner optimum exists both come from the closed-
        # form Pareto profile. All are derivatives in log sigma.
        from ftgamma.fit import InnerBoundaryError, _Profile

        y = Sample(losses.values / losses.values.mean())
        if offset == "pareto-edge":
            log_sigma = 0.0
            with pytest.raises(InnerBoundaryError):
                inner_solve(y, 1.0)
        else:
            log_sigma = math.log(ftg_fit.params.sigma / losses.mean)
            log_sigma += offset
        prof = _Profile(y)
        value, slope, curvature = prof.value(log_sigma)
        h = 1e-3
        up, down = prof.value(log_sigma + h)[0], prof.value(log_sigma - h)[0]
        assert slope == pytest.approx((up - down) / (2.0 * h), rel=1e-5)
        assert curvature == pytest.approx((up - 2.0 * value + down) / h**2, rel=1e-5)


class TestRefineMaximum:
    def test_stops_when_the_newton_step_rounds_onto_a_bracket_end(self):
        # the slope at the optimum reads -1e-17, so x becomes the bracket's
        # upper end and the next Newton step rounds onto x; bisecting from
        # there took 25 more evaluations and stopped short of the optimum
        from ftgamma.fit import _refine_maximum

        calls = []

        def fun(x):
            calls.append(x)
            return -0.5 * (x - 0.3) ** 2, -(x - 0.3) - 1e-17, -1.0

        x = _refine_maximum(fun, 0.0, fun(0.0), 1.0, fun(1.0), xatol=1e-8)
        assert x == 0.3
        assert len(calls) == 3


class TestFitFtg:
    def test_reference_table(self, losses, ftg_fit):
        p = ftg_fit.params
        assert ftg_fit.converged
        assert p.alpha == pytest.approx(-0.20, abs=0.02)
        assert p.sigma == pytest.approx(0.65, abs=0.05)
        assert p.rho == pytest.approx(4.3e-4, rel=0.30)
        assert ftg_fit.loglik == pytest.approx(-172.37, abs=0.05)

    def test_recovers_simulated_parameters(self):
        true = FtgParams(2.0, 1.0, 1.0)
        vals = ftg_rvs(true, 10_000, RngStream(314))
        fit = fit_ftg(Sample(vals))
        assert fit.converged
        assert abs(fit.params.alpha - 2.0) < 3.0 * fit.std_errors[0]

    def test_exponential_data_handled_on_ridge(self):
        # exponential data lives where the gamma and Pareto boundaries meet:
        # the FTG likelihood has no interior maximum (which closure edge wins
        # is a sampling coin flip), so the fit must either converge on a
        # tolerance-stationary ridge point or flag the Pareto edge -- and in
        # both cases beat the exponential loglik by at most chi-square noise
        gen = RngStream(555).generator
        vals = gen.standard_exponential(10_000)
        fit = fit_ftg(Sample(vals))
        assert fit.converged or fit.boundary == "pareto"
        lam = 1.0 / vals.mean()
        ll_exp = vals.size * (math.log(lam) - 1.0)
        assert fit.loglik >= ll_exp - 1e-6
        assert fit.loglik - ll_exp < 3.0  # two extra parameters of slack

    def test_gamma_data_reports_gamma_boundary(self):
        # with no evidence of truncation the optimum runs to the rho -> 0
        # gamma edge; the fit must say so and return the gamma model
        gen = RngStream(1234).generator
        vals = gen.gamma(3.0, size=400)
        fit = fit_ftg(Sample(vals))
        assert fit.boundary == "gamma"
        assert fit.params.is_gamma
        gam = fit_gamma(Sample(vals))
        assert fit.loglik == pytest.approx(gam.loglik, abs=1e-9)
        # the text renderer must cope with two-parameter boundary results
        from ftgamma.cli import _fit_text

        text = _fit_text(None, fit, None, None)
        assert "gamma edge" in text

    def test_near_exponential_interior_ridge_reports_large_rho_se(self):
        # just inside the interior (alpha slightly below 1) the rho direction
        # is almost flat: the fit converges and the rho standard error dwarfs
        # the estimate, which is how the ridge is surfaced
        vals = ftg_rvs(FtgParams(0.85, 1.0, 0.5), 4_000, RngStream(808))
        fit = fit_ftg(Sample(vals))
        assert fit.converged or fit.boundary == "pareto"
        if fit.converged and not fit.boundary:
            assert fit.std_errors[2] > 0.3 * fit.params.rho

    @pytest.mark.parametrize("case, boundary", [("interior", None), ("pareto", "pareto"),
                                                 ("gamma", "gamma")])
    def test_one_pareto_fit_per_fit(self, losses, ftg_fit, monkeypatch, case, boundary):
        # the Pareto fit of the sample is both an edge candidate and a
        # profile start; every result carries it, and a winning edge is
        # returned without a refit
        import ftgamma.fit

        smp = {
            "interior": losses,
            "pareto": Sample(ftg_rvs(FtgParams.pareto(-3.0, 1.0), 200,
                                     RngStream(4242).child(200, 4))),
            "gamma": Sample(ftg_rvs(ftg_fit.params, 40, RngStream(1003).child(24))),
        }[case]
        seen = []
        real = ftgamma.fit.fit_pareto

        def counting(arg):
            seen.append(arg)
            return real(arg)

        monkeypatch.setattr(ftgamma.fit, "fit_pareto", counting)
        fit = fit_ftg(smp)
        assert fit.boundary == boundary
        assert len(seen) == 1 and seen[0] is smp
        assert fit.pareto_fit is not None and fit.pareto_fit.family == "pareto"
        assert fit.pareto_fit.loglik == real(smp).loglik
        if boundary == "pareto":
            assert fit.loglik == fit.pareto_fit.loglik
        elif boundary == "gamma":
            assert fit.loglik == fit_gamma(smp).loglik

    def test_fit_all_makes_one_pareto_fit(self, capsys, monkeypatch):
        import ftgamma.cli
        import ftgamma.fit

        seen = []
        real = ftgamma.fit.fit_pareto

        def counting(arg):
            seen.append(arg)
            return real(arg)

        monkeypatch.setattr(ftgamma.fit, "fit_pareto", counting)
        monkeypatch.setattr(ftgamma.cli, "fit_pareto", counting)
        assert ftgamma.cli.main(["fit", "--bundled", "--family", "all"]) == 0
        assert "Pareto distribution" in capsys.readouterr().out
        assert len(seen) == 1

    @pytest.mark.parametrize(
        "seed, child, printed",
        [
            (1008, 39, ("-0.263724", "0.001083", "-149.544292")),
            (1009, 95, ("-0.232075", "0.0007348", "-179.053637")),
            (1010, 8, ("-0.020556", "0.0002513", "-190.296402")),
            (1003, 32, ("0.360745", "0.000787", "-195.812577")),
            (1003, 71, ("0.164299", "0.000159", "-191.631547")),
            (1004, 86, ("0.195062", "0.003101", "-177.428132")),
            (1005, 6, ("0.135721", "4.485e-05", "-196.111196")),
        ],
    )
    def test_slow_bootstrap_replicates_fit_without_rescue(self, ftg_fit, monkeypatch,
                                                          seed, child, printed):
        # bootstrap replicates of the bundled fit on which the inner solve
        # used to stall. The first three sent central-difference
        # alpha-derivatives and a g2 row built from 1/rho-sized terms into a
        # rescue path and left sentinels on the profile; on the last four,
        # Newton in (alpha, log rho) walked log rho down to the flat
        # likelihood below -46 and ran out of iterations there. Newton in
        # the concave (alpha, rho) coordinates converges on every inner
        # solve, and the estimates keep the digits they printed before.
        import inspect

        import ftgamma.fit

        real_solve = ftgamma.fit.inner_solve
        max_iter = inspect.signature(real_solve).parameters["max_iter"].default
        iterations = []

        def solve(*args, **kwargs):
            out = real_solve(*args, **kwargs)
            iterations.append(out[2])
            return out

        sentinels = []
        real_value = ftgamma.fit._Profile.value

        def value(self, log_sigma):
            out = real_value(self, log_sigma)
            if out[0] == ftgamma.fit._Profile._SENTINEL:
                sentinels.append(log_sigma)
            return out

        monkeypatch.setattr(ftgamma.fit, "inner_solve", solve)
        monkeypatch.setattr(ftgamma.fit._Profile, "value", value)
        x = ftg_rvs(ftg_fit.params, 40, RngStream(seed).child(child))
        fit = fit_ftg(Sample(x))
        assert sentinels == []
        assert iterations and max(iterations) <= max_iter
        assert fit.converged and fit.boundary is None
        p = fit.params
        assert (f"{p.alpha:.6f}", f"{p.rho:.4g}", f"{fit.loglik:.6f}") == printed

    def test_bundled_fit_evaluation_budget(self, losses, monkeypatch):
        # safeguarded Newton on the profile's analytic slope and curvature,
        # with a bracket walked by the slope's sign: the bounded Brent
        # search it replaced made 35 inner solves here
        import ftgamma.fit

        calls = []
        real = ftgamma.fit.inner_solve

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(ftgamma.fit, "inner_solve", counting)
        fit = fit_ftg(losses)
        assert fit.converged and fit.boundary is None
        assert len(calls) <= 20

    def test_inner_solve_reads_its_ratio_off_the_same_evaluation(self, losses, ftg_fit,
                                                                monkeypatch):
        # R = Gamma(alpha+1, rho) / (rho Gamma(alpha, rho)) comes from
        # inc_gamma_eval's log_value_up: no value-only call at alpha + 1
        # (there used to be about 70 per fit)
        import ftgamma.fit

        calls = []
        real = ftgamma.fit.log_upper_inc_gamma

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ftgamma.fit, "log_upper_inc_gamma", counting)
        fit_ftg(losses)
        for b in range(1, 21):
            fit_ftg(Sample(ftg_rvs(ftg_fit.params, 40, RngStream(1000).child(b))))
        assert calls == []

    def test_iterations_count_profile_evaluations(self, losses, monkeypatch):
        # as for fit_pareto, iterations counts the profile evaluations
        import ftgamma.fit

        calls = []
        real = ftgamma.fit._Profile.value

        def counting(self, log_sigma):
            calls.append(log_sigma)
            return real(self, log_sigma)

        monkeypatch.setattr(ftgamma.fit._Profile, "value", counting)
        fit = fit_ftg(losses)
        assert fit.boundary is None
        assert fit.iterations == len(calls) > 0

    @pytest.mark.parametrize("n, i", [(40, 2), (40, 4), (200, 2), (200, 3), (200, 8)])
    def test_rho_cap_samples(self, n, i):
        # samples of an interior law whose profile maximum lies on the rho
        # cap (the truncated-normal edge, which has no edge fit yet): the
        # fit stays interior and unconverged, and never scores below the
        # Pareto and gamma edges
        smp = Sample(ftg_rvs(FtgParams.from_sigma(1.5, 1.0, 0.5), n,
                             RngStream(4242).child(n, i)))
        fit = fit_ftg(smp)
        assert fit.boundary is None and not fit.converged
        assert fit.loglik >= max(fit_pareto(smp).loglik, fit_gamma(smp).loglik) - 1e-6

    @staticmethod
    def _assert_on_edge(x, boundary):
        # the Pareto and gamma laws are closure edges of the family, so the
        # FTG fit can never score below the better of their fits
        smp = Sample(x)
        fit = fit_ftg(smp)
        assert fit.boundary == boundary
        assert fit.loglik >= max(fit_pareto(smp).loglik, fit_gamma(smp).loglik) - 1e-6

    @pytest.mark.parametrize("seed, child", [(1003, 24), (2, 635), (7, 365), (12, 351)])
    def test_gamma_edge_replicates(self, ftg_fit, seed, child):
        # bundled-fit replicates that used to return interior fits 0.35-2.45
        # below their gamma fit
        self._assert_on_edge(ftg_rvs(ftg_fit.params, 40, RngStream(seed).child(child)),
                             "gamma")

    def test_two_maxima_replicate(self, ftg_fit):
        # the profile of the sample divided by its mean has two local
        # maxima: -2.89999 at log sigma -8.22, below the gamma fit's
        # -1.28679, and -1.12309 at -17.55. A walk that stops short of the
        # second returns the gamma edge; the fit is interior, with sigma
        # below the smallest observation and a loglik (-180.03214, mpmath
        # agrees to 1e-14) 0.164 above the gamma fit's
        smp = Sample(ftg_rvs(ftg_fit.params, 40, RngStream(2).child(939)))
        fit = fit_ftg(smp)
        assert fit.boundary is None and fit.converged
        assert fit.loglik >= fit_gamma(smp).loglik + 0.16

    def test_pareto_edge_sample(self):
        # used to return an interior fit 0.026 below its Pareto fit
        x = ftg_rvs(FtgParams.pareto(-3.0, 1.0), 200, RngStream(4242).child(200, 4))
        self._assert_on_edge(x, "pareto")

    def test_degenerate_samples_rejected(self):
        with pytest.raises(FitError):
            fit_ftg(Sample(np.array([1.0, 2.0])))
        with pytest.raises(FitError):
            fit_ftg(Sample(np.array([3.0, 3.0, 3.0, 3.0])))
        for values in ([0.0, 3.0, 3.0, 3.0], [0.0, 0.0, 5.0, 5.0]):
            with pytest.raises(FitError, match="two distinct positive values"):
                fit_ftg(Sample(np.array(values)))

    def test_two_distinct_positive_values_accepted(self):
        fit = fit_ftg(Sample(np.array([0.0, 1.0, 2.0])))
        assert fit.pareto_fit is not None

    def test_scale_equivariance(self, losses, ftg_fit):
        c = 37.5
        fit_scaled = fit_ftg(Sample(losses.values * c))
        n = len(losses)
        assert fit_scaled.params.alpha == pytest.approx(ftg_fit.params.alpha, abs=1e-6)
        assert fit_scaled.params.rho == pytest.approx(ftg_fit.params.rho, rel=1e-5)
        assert fit_scaled.params.sigma == pytest.approx(ftg_fit.params.sigma * c, rel=1e-6)
        assert fit_scaled.loglik == pytest.approx(ftg_fit.loglik - n * math.log(c), abs=1e-5)

    UNIT_INPUTS = {
        "bundled": lambda losses: losses.values,
        "gamma(0.5)": lambda _: ftg_rvs(FtgParams.gamma(0.5, 1.0), 40,
                                        RngStream(4242).child(40, 1)),
        "pareto-edge": lambda _: read_dataset(DATA / "pareto_edge_sample.txt").values,
        "gamma-edge": lambda _: read_dataset(DATA / "gamma_edge_sample.txt").values,
        "ftg(2,1,1)": lambda _: ftg_rvs(FtgParams(2.0, 1.0, 1.0), 200,
                                        RngStream(4242).child(200, 1)),
    }

    @pytest.mark.parametrize("name", list(UNIT_INPUTS))
    def test_unit_independence(self, losses, name):
        # the flags come from the log-scale score, so no unit of the data
        # changes them: the natural-scale sigma-score grows as 1/sigma, and
        # read that way the gamma(0.5) sample failed its bar at 1e-3. The
        # fit works on the data as given, with its window and start set by
        # the mean, so across 15 decades of units the fits keep their flags
        # and alpha, and the loglik moves by n log c alone, on interior,
        # Pareto-edge and gamma-edge samples
        x = self.UNIT_INPUTS[name](losses)
        base = fit_ftg(Sample(x))
        for c in (1e-6, 1e-3, 1e3, 1e9):
            fit = fit_ftg(Sample(x * c))
            assert fit.boundary == base.boundary, c
            assert fit.converged == base.converged, c
            assert fit.params.alpha == pytest.approx(base.params.alpha, rel=1e-8), c
            assert fit.loglik + x.size * math.log(c) == pytest.approx(base.loglik,
                                                                      rel=1e-12), c
        if name in ("bundled", "gamma(0.5)"):
            assert base.converged

    def test_interior_result_reuses_its_profile_point(self, losses, monkeypatch):
        # one statistics pass per Pareto profile point, one for the Pareto
        # result and one per FTG profile point: the interior result reads
        # its loglik, score and information off the best point's statistics
        import ftgamma.fit

        calls = []
        real = ftgamma.fit.sufficient_stats

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(ftgamma.fit, "sufficient_stats", counting)
        fit = fit_ftg(losses)
        assert fit.boundary is None
        assert len(calls) == fit.pareto_fit.iterations + 1 + fit.iterations == 20

    def test_fit_holds_no_copy_of_the_data(self, ftg_fit):
        # the fit searches the sample itself: beside it, only the mask of
        # its input check and one scratch array at a time, the statistics'
        # or the gamma edge's log x
        smp = Sample(ftg_rvs(ftg_fit.params, 100_000, RngStream(7)))
        tracemalloc.start()
        try:
            fit_ftg(smp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * smp.values.nbytes

    def test_profile_sample_free_form(self, losses):
        # at inner-solve solutions the sample drops out of the profile value
        n = len(losses)
        for sigma in (0.4, 0.654, 1.1):
            a, r, _ = inner_solve(losses, sigma)
            direct = loglik_ftg(losses, a, sigma, r)
            free = loglik_sample_free(n, a, sigma, r)
            assert direct == pytest.approx(free, abs=1e-8 * max(1.0, abs(direct)))

    def test_matches_3d_grid_refinement(self, losses, ftg_fit):
        p = ftg_fit.params
        lo = np.array([p.alpha - 0.3, math.log(p.sigma) - 1.0, math.log(p.rho) - 1.5])
        hi = np.array([p.alpha + 0.3, math.log(p.sigma) + 1.0, math.log(p.rho) + 1.5])
        best = None
        for _ in range(4):
            alphas = np.linspace(lo[0], hi[0], 21)
            lsigs = np.linspace(lo[1], hi[1], 21)
            lrhos = np.linspace(lo[2], hi[2], 21)
            best = None
            for ls in lsigs:
                st = sufficient_stats(losses, math.exp(ls))
                d = np.array(
                    [[log_upper_inc_gamma(float(a), math.exp(float(lr)))
                      for lr in lrhos] for a in alphas]
                )
                ll = -st.n * (
                    d
                    + ls
                    - np.outer(alphas, lrhos)
                    - np.outer(alphas - 1.0, np.ones_like(lrhos)) * st.s_bar
                    + np.exp(lrhos)[None, :] * st.r_bar
                )
                i, j = np.unravel_index(np.argmax(ll), ll.shape)
                if best is None or ll[i, j] > best[0]:
                    best = (ll[i, j], alphas[i], ls, lrhos[j])
            center = np.array([best[1], best[2], best[3]])
            width = (hi - lo) / 6.0
            lo, hi = center - width, center + width
        ll_grid, a_g, ls_g, lr_g = best
        # grid refinement cannot beat the converged optimum, and must agree
        # with it to the final grid resolution
        assert ll_grid <= ftg_fit.loglik + 1e-9
        assert abs(a_g - p.alpha) < 0.01
        assert abs(ls_g - math.log(p.sigma)) < 0.05
        assert abs(lr_g - math.log(p.rho)) < 0.1
        assert ftg_fit.loglik - ll_grid < 1e-4


class TestFitPareto:
    def test_reference_table(self, losses, pareto_fit):
        p = pareto_fit.params
        assert pareto_fit.converged
        assert p.alpha == pytest.approx(-0.45, abs=0.01)
        assert p.sigma == pytest.approx(1.38, abs=0.05)
        assert pareto_fit.loglik == pytest.approx(-174.44, abs=0.05)
        # reference s.e.: 0.10 and 0.73
        assert pareto_fit.std_errors[0] == pytest.approx(0.10, abs=0.015)
        assert pareto_fit.std_errors[1] == pytest.approx(0.73, abs=0.08)

    def test_stationarity_relation(self, losses, pareto_fit):
        p = pareto_fit.params
        st = sufficient_stats(losses, p.sigma)
        assert p.alpha * st.s_bar == pytest.approx(-1.0, rel=1e-10)

    def test_matches_grid_search(self, losses, pareto_fit):
        p = pareto_fit.params
        alphas = np.linspace(p.alpha - 0.2, p.alpha + 0.2, 300)
        sigmas = np.exp(np.linspace(math.log(p.sigma) - 1, math.log(p.sigma) + 1, 300))
        best = (-np.inf, None, None)
        for s in sigmas:
            sb = float(np.log1p(losses.values / s).mean())
            ll = len(losses) * (np.log(-alphas) - math.log(s) + (alphas - 1.0) * sb)
            i = int(np.argmax(ll))
            if ll[i] > best[0]:
                best = (ll[i], alphas[i], s)
        assert best[0] <= pareto_fit.loglik + 1e-9
        assert abs(best[1] - p.alpha) <= alphas[1] - alphas[0]

    def test_needs_two_points(self):
        with pytest.raises(FitError):
            fit_pareto(Sample(np.array([1.5])))

    def test_light_tails_stop_on_the_exponential_limit(self, pareto_fit):
        # 400 gamma(3) draws: the profile rises past the window's upper end
        fit = fit_pareto(read_dataset(DATA / "gamma_edge_sample.txt").values)
        assert fit.boundary == "exponential" and not fit.converged
        assert not fit.failed
        assert pareto_fit.boundary is None and not pareto_fit.failed


class TestFitGamma:
    def test_recovers_simulated(self):
        gen = RngStream(777).generator
        vals = gen.gamma(3.0, size=20_000) / 2.0
        fit = fit_gamma(Sample(vals))
        assert fit.converged
        assert abs(fit.params.alpha - 3.0) < 3.0 * fit.std_errors[0]
        assert abs(fit.params.theta - 2.0) < 3.0 * fit.std_errors[1]

    def test_rejects_zeros(self):
        with pytest.raises(FitError):
            fit_gamma(Sample(np.array([0.0, 1.0, 2.0])))

    @pytest.mark.parametrize("spread", [1e-8, 3e-8])
    def test_near_constant_samples_fit_or_raise_fit_error(self, spread):
        # the shape equation's derivative 1/alpha - psi'(alpha) rounds to 0
        # near alpha = 1e16, which once divided by zero
        for seed in range(50):
            try:
                fit = fit_gamma(near_constant_sample(seed, spread))
            except FitError:
                continue
            assert fit.params.alpha > 0.0 and fit.params.theta > 0.0

    def test_shape_inside_the_closed_form_bracket(self):
        # 1/(2a) < log a - psi(a) < 1/a puts the root in [1/(2 gap), 1/gap]
        for shape in (0.05, 0.6, 3.0, 50.0, 1e4):
            x = RngStream(5).generator.gamma(shape, size=200)
            gap = math.log(x.mean()) - np.log(x).mean()
            fit = fit_gamma(x)
            assert fit.converged
            assert 1.0 / (2.0 * gap) <= fit.params.alpha <= 1.0 / gap

    def test_ftg_fit_of_a_near_constant_sample(self):
        try:
            fit = fit_ftg(near_constant_sample())
        except FitError:
            return
        assert fit.family == "ftg"


class TestLrt:
    def test_reference_values(self, ftg_fit):
        stat, p = lrt_pareto_vs_ftg(ftg_fit)
        assert stat == pytest.approx(4.14, abs=0.1)
        assert p == pytest.approx(0.042, abs=0.002)

    def test_nonnegative_on_pareto_data(self):
        vals = ftg_rvs(FtgParams.pareto(-0.8, 1.0), 300, RngStream(42))
        stat, p = lrt_pareto_vs_ftg(fit_ftg(Sample(vals)))
        assert stat >= -1e-8
        assert 0.0 <= p <= 1.0

    def test_chi2_map(self):
        assert chi2_survival_1df(24.96) == pytest.approx(5.8e-7, abs=1e-8)

    def test_no_warning_at_the_exponential_limit(self):
        ftg = fit_ftg(read_dataset(DATA / "gamma_edge_sample.txt").values)
        assert ftg.boundary == "gamma" and ftg.pareto_fit.boundary == "exponential"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lrt_pareto_vs_ftg(ftg)

    def test_needs_an_ftg_fit(self, pareto_fit):
        with pytest.raises(ValueError, match="fit_ftg"):
            lrt_pareto_vs_ftg(pareto_fit)


# a sample whose FTG fit lands on the Pareto edge
PARETO_EDGE_SAMPLE = ftg_rvs(FtgParams.pareto(-1.5, 1.0), 40, RngStream(4242).child(40, 16))


class TestFitResultJson:
    # every fit holds an FtgParams; the JSON tag comes from the fit's family,
    # so only a Pareto fit writes the two-parameter form, and an FTG fit on
    # either edge writes all four parameters
    FOUR = {"family", "alpha", "theta", "rho", "sigma"}

    @staticmethod
    def _round_trip(fit) -> dict:
        d = json.loads(json.dumps(fit.to_dict()))
        assert fit_result_from_dict(d).to_dict() == d
        return d

    def test_pareto_fit(self):
        d = self._round_trip(fit_pareto(Sample(PARETO_EDGE_SAMPLE)))
        assert d["family"] == "pareto"
        assert d["params"].keys() == {"family", "alpha", "sigma"}
        assert d["params"]["family"] == "pareto"

    def test_ftg_fit_on_the_pareto_edge(self):
        fit = fit_ftg(Sample(PARETO_EDGE_SAMPLE))
        assert fit.boundary == "pareto"
        d = self._round_trip(fit)
        assert d["params"].keys() == self.FOUR
        assert d["params"]["family"] == "ftg"
        assert d["params"]["theta"] == 0.0 and d["params"]["rho"] == 0.0
        assert d["params"]["alpha"] == fit.pareto_fit.params.alpha
        assert d["params"]["sigma"] == fit.pareto_fit.params.sigma

    def test_ftg_fit_on_the_gamma_edge(self):
        fit = fit_ftg(Sample(RngStream(1234).generator.gamma(3.0, size=400)))
        assert fit.boundary == "gamma"
        d = self._round_trip(fit)
        assert d["params"].keys() == self.FOUR
        assert d["params"]["family"] == "ftg"
        assert d["params"]["rho"] == 0.0 and d["params"]["theta"] > 0.0
