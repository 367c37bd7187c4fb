import math
from dataclasses import asdict

import numpy as np
import pytest

from ftgamma.specfun import (
    chi2_survival_1df,
    digamma_trigamma,
    inc_gamma_eval,
    log_upper_inc_gamma,
)

from oracles import central_diff, d_rho_rho, erfc_series, quad_log_upper_gamma


class TestLogUpperIncGamma:
    def test_exponential_shape(self):
        # Gamma(1, rho) = e^-rho
        assert log_upper_inc_gamma(1.0, 0.5) == pytest.approx(-0.5, abs=1e-14)

    def test_zero_shape_is_e1(self):
        # frozen from the quadrature oracle: E1(1) = Gamma(0, 1)
        frozen = quad_log_upper_gamma(0.0, 1.0)
        assert math.exp(frozen) == pytest.approx(0.21938393439552026, rel=1e-11)
        assert log_upper_inc_gamma(0.0, 1.0) == pytest.approx(frozen, abs=1e-12)

    def test_negative_half_shape_recurrence_oracle(self):
        # Gamma(-1/2, 1) = (Gamma(1/2, 1) - e^-1) / (-1/2), with
        # Gamma(1/2, 1) = sqrt(pi) erfc(1) and erfc from the series oracle
        g_half = math.sqrt(math.pi) * erfc_series(1.0)
        expected = (g_half - math.exp(-1.0)) / (-0.5)
        assert expected == pytest.approx(0.1781477, abs=5e-8)
        got = math.exp(log_upper_inc_gamma(-0.5, 1.0))
        assert got == pytest.approx(expected, rel=1e-11)

    def test_zero_rho_reduces_to_gamma_function(self):
        assert log_upper_inc_gamma(2.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert log_upper_inc_gamma(3.5, 0.0) == pytest.approx(
            math.lgamma(3.5), abs=1e-14
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_upper_inc_gamma(1.0, -0.1)
        with pytest.raises(ValueError):
            log_upper_inc_gamma(0.0, 0.0)
        with pytest.raises(ValueError):
            log_upper_inc_gamma(-2.0, 0.0)

    def test_quadrature_agreement_grid(self):
        # 20 x 20 grid, 1e-9 relative on Gamma (absolute on the log)
        alphas = np.linspace(-8.0, 12.0, 20) + 0.37
        rhos = np.logspace(-3, 2, 20)
        worst = 0.0
        for a in alphas:
            for r in rhos:
                got = log_upper_inc_gamma(float(a), float(r))
                ref = quad_log_upper_gamma(float(a), float(r))
                worst = max(worst, abs(got - ref))
        assert worst < 1e-9

    def test_recurrence_consistency(self):
        # Gamma(a+1, r) = a Gamma(a, r) + r^a e^-r, 1e-10 relative
        for a in np.linspace(-5.0, 5.0, 21):
            for r in np.logspace(math.log10(0.01), math.log10(50.0), 15):
                a = float(a)
                r = float(r)
                up = math.exp(log_upper_inc_gamma(a + 1.0, r))
                lo = math.exp(log_upper_inc_gamma(a, r))
                term = math.exp(a * math.log(r) - r)
                assert up == pytest.approx(a * lo + term, rel=1e-10)

    def test_small_rho_limit(self):
        # rho^alpha / Gamma(alpha, rho) -> -alpha as rho -> 0 for alpha < 0.
        # The approach is O(rho^-alpha), so the rho reaching a 1e-4 band
        # depends strongly on alpha: 1e-8 suffices for alpha = -1.63 but
        # alpha = -0.2 needs rho ~ 1e-21 (at 1e-8 the true deviation is
        # 3.01e-2, confirmed by quadrature).
        def ratio(a, r):
            return math.exp(a * math.log(r) - log_upper_inc_gamma(a, r))

        assert ratio(-1.63, 1e-8) == pytest.approx(1.63, rel=1e-4)
        assert ratio(-0.2, 1e-21) == pytest.approx(0.2, rel=1e-4)
        assert ratio(-0.2, 1e-8) == pytest.approx(0.2, rel=3.5e-2)
        # monotone approach to the limit
        devs = [abs(ratio(-0.2, r) - 0.2) for r in (1e-6, 1e-8, 1e-10)]
        assert devs[0] > devs[1] > devs[2]

    def test_infinite_rho_is_minus_infinity(self):
        # Gamma(alpha, inf) = 0 on every branch's side of the seams, for a
        # number and inside an array
        for a in (-50.0, -12.5, -0.5, 0.0, 0.3, 2.0, 200.0):
            assert log_upper_inc_gamma(a, math.inf) == -math.inf
            got = log_upper_inc_gamma(a, np.array([0.3, math.inf, 1.5, math.inf]))
            assert got[[1, 3]].tolist() == [-math.inf, -math.inf]
            assert got[[0, 2]].tolist() == [log_upper_inc_gamma(a, 0.3),
                                            log_upper_inc_gamma(a, 1.5)]
        with pytest.raises(ValueError):
            inc_gamma_eval(2.0, math.inf)
        # a 2-D array mixing rho = 0 (alpha > 0), rho = inf and interior
        # points on both sides of the continued fraction's seam, for shapes
        # on the continued fraction everywhere (alpha <= -30), the step-down
        # chain, the small-shape anchor, the series at alpha + 1 with one
        # step down and the lower series: element for element the number
        # calls' bits
        for a in (-50.0, -12.5, -0.5, 0.0, 0.3, 0.75, 2.0, 200.0):
            seam = max(1.0, a + 1.0)
            rho = np.array([[0.0, 1e-12, 0.3, math.inf],
                            [seam, seam * (1.0 + 1e-9), math.inf, 700.0],
                            [0.0, 4.3e-4, 30.0, 0.999 * seam]])
            if a <= 0.0:
                rho[rho == 0.0] = 0.05
            got = log_upper_inc_gamma(a, rho)
            assert got.shape == rho.shape
            want = [[log_upper_inc_gamma(a, r) for r in row] for row in rho.tolist()]
            assert got.tolist() == want, a
            assert got[np.isinf(rho)].tolist() == [-math.inf] * 2
            if a > 0.0:
                assert got[rho == 0.0].tolist() == [math.lgamma(a)] * 2

    def test_extreme_corners_stay_finite(self):
        for a, r in [(-50.0, 1e-12), (-50.0, 700.0), (200.0, 1e-12), (200.0, 700.0)]:
            v = log_upper_inc_gamma(a, r)
            assert math.isfinite(v)


class TestIncGammaEval:
    def test_d_rho_exponential_shape(self):
        ev = inc_gamma_eval(1.0, 0.7)
        assert ev.d_rho == pytest.approx(-1.0, abs=1e-13)
        assert d_rho_rho(1.0, 0.7, ev.d_rho) == pytest.approx(0.0, abs=1e-12)

    def test_d_alpha_against_fd_oracle(self):
        # parameter point from the cyclone-scale fit regime
        a, r = 0.28, 0.02
        ev = inc_gamma_eval(a, r)
        ref = central_diff(lambda t: log_upper_inc_gamma(t, r), a, 1e-5)
        assert ev.d_alpha == pytest.approx(ref, abs=1e-7)

    def test_d_rho_against_fd_oracle(self):
        for a, r in [(0.28, 0.02), (-0.2, 0.5), (2.5, 1.3), (-1.63, 0.04)]:
            ev = inc_gamma_eval(a, r)
            ref = central_diff(lambda t: log_upper_inc_gamma(a, t), r, 1e-7 * max(r, 1e-3))
            assert ev.d_rho == pytest.approx(ref, rel=1e-6)

    def test_d_rho_rho_identity(self):
        # the oracle's closed form against a central difference of d_rho
        for a, r in [(0.28, 0.02), (-0.45, 1.2), (3.0, 0.3)]:
            closed = d_rho_rho(a, r, inc_gamma_eval(a, r).d_rho)
            h = 1e-4 * max(r, 0.01)
            fd = central_diff(lambda t: inc_gamma_eval(a, t).d_rho, r, h)
            assert closed == pytest.approx(fd, rel=2e-5)

    def test_second_alpha_derivative_fd(self):
        for a, r in [(0.5, 0.3), (-0.8, 0.9), (1.7, 2.5)]:
            ev = inc_gamma_eval(a, r)
            fd = central_second_diff_loggamma(a, r)
            assert ev.d_alpha_alpha == pytest.approx(fd, rel=5e-4, abs=1e-6)

    def test_cross_derivative_symmetry_fd(self):
        # d/drho of d_alpha should match d/dalpha of d_rho
        a, r = -0.3, 0.6
        ev = inc_gamma_eval(a, r)
        fd = central_diff(lambda t: inc_gamma_eval(a, t).d_alpha, r, 1e-5)
        assert ev.d_alpha_rho == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            inc_gamma_eval(1.0, 0.0)

    def test_value_matches_the_value_only_call(self):
        # the value inc_gamma_eval carries with its partials is the one a
        # value-only call returns: the same bits where the series and the
        # step-down chain serve, and within 1e-15 (relative to
        # max(1, |value|)) on the continued fraction, whose derivatives
        # can take a step or two more to settle than the value
        alphas = (-50.0, -30.0, -12.5, -3.3, -1.0, -0.5, -0.196, 0.0, 0.3, 0.5,
                  0.75, 1.0, 2.5, 12.0, 200.0, 650.0)
        rhos = (1e-12, 1e-8, 4.3e-4, 0.05, 0.3, 0.7, 0.999, 1.0, 1.001, 1.5, 3.0,
                30.0, 300.0, 700.0)
        for a in alphas:
            for r in rhos:
                got = inc_gamma_eval(a, r).log_value
                want = log_upper_inc_gamma(a, r)
                if r > max(1.0, a + 1.0) or a <= -30.0:
                    assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), (a, r)
                else:
                    assert got == want, (a, r)


class TestMpmathOracle:
    """All six outputs of inc_gamma_eval, and d_rho_rho from the oracle's
    closed form in its d_rho, against mpmath at 60 digits.

    The points cover the box alpha in [-50, 200] x rho in [1e-12, 700] and
    every branch seam: rho = max(1, alpha + 1) and just above it, alpha at
    and just above -30, -0.5, 0.5 and 1, and chain anchors at a = 0
    (alpha = 0, -1, -30 + 1e-9). Derivatives come from mpmath's own
    differentiation of log Gamma(alpha, rho) and of the closed-form d_rho;
    log_value_up is checked against log Gamma(alpha + 1, rho).

    Measured maxima of |error| / max(1, |reference|) on these points:
    log_value 6.5e-15, d_alpha 6.1e-14, d_rho 2.5e-13, d_alpha_alpha
    6.0e-13, d_alpha_rho 1.8e-13, d_rho_rho 6.3e-12, log_value_up 2.6e-15.
    On the inner solve's region (alpha in [-3, 1], rho up to 1.6; see
    test_value_up_where_the_inner_solve_reads_it) log_value_up is within
    4.1e-14, at (-2.022, 0.604), where a value-only call at alpha + 1 has
    the same error: there log_value_up is that call's chain link. The
    small-shape series' own log_value_up, alpha in (-0.5, 0.5], was within
    2.9e-15 over 2,000 random points. A 1,000-point random
    sweep of the box, weighted toward the seams, found at most 8.6e-14 on
    the value, 1.2e-12 on d_alpha and 4.5e-11 on d_alpha_alpha, just above
    alpha = 0.05, where the small-shape head leaves its Taylor series for
    math.lgamma(1 + a). The inner solve's score tolerance, 1e-9, sits
    nearly three orders above that d_alpha figure. Central differences,
    used before, were off by 6.5e-9 in d_alpha, 1.5e-6 in d_alpha_alpha and
    1.1e-7 in d_alpha_rho on these points.
    """

    ALPHAS = (-50.0, -30.0, -30.0 + 1e-9, -12.5, -1.0, -0.5, -0.5 + 1e-9, -0.196,
              0.0, 1e-6, 0.3, 0.5, 0.5 + 1e-9, 1.0, 1.0 + 1e-9, 12.0, 200.0)
    TOL = {
        "log_value": 1e-12,
        "d_alpha": 1e-10,
        "d_rho": 1e-11,
        "d_alpha_alpha": 1e-7,
        "d_alpha_rho": 1e-10,
        "d_rho_rho": 1e-10,
        "log_value_up": 1e-12,
    }

    @staticmethod
    def _reference(mp, a, x):
        a, x = mp.mpf(a), mp.mpf(x)

        def d(t, y):
            return mp.log(mp.gammainc(t, y))

        def dr(t, y):
            return -(y ** (t - 1)) * mp.exp(-y) / mp.gammainc(t, y)

        return {
            "log_value": d(a, x),
            "d_alpha": mp.diff(lambda t: d(t, x), a),
            "d_rho": dr(a, x),
            "d_alpha_alpha": mp.diff(lambda t: d(t, x), a, 2),
            "d_alpha_rho": mp.diff(lambda t: dr(t, x), a),
            "d_rho_rho": mp.diff(lambda y: dr(a, y), x),
            "log_value_up": d(a + 1, x),
        }

    def test_value_and_partials_over_box_and_seams(self):
        mpmath = pytest.importorskip("mpmath")
        worst = dict.fromkeys(self.TOL, (0.0, None))
        with mpmath.workdps(60):
            for a in self.ALPHAS:
                seam = max(1.0, a + 1.0)
                for r in (1e-12, 4.3e-4, 0.7, 1.5, seam, seam * (1.0 + 1e-9), 30.0,
                          700.0):
                    ev = inc_gamma_eval(a, r)
                    got = {**asdict(ev), "d_rho_rho": d_rho_rho(a, r, ev.d_rho)}
                    for name, want in self._reference(mpmath, a, r).items():
                        err = float(abs(got[name] - want) / max(1, abs(want)))
                        if err > worst[name][0]:
                            worst[name] = (err, (a, r))
        for name, (err, point) in worst.items():
            assert err <= self.TOL[name], (name, err, point)

    def test_array_values_across_every_branch_and_seam(self):
        # one array call per shape: the continued fraction past
        # rho = max(1, alpha + 1) and, for alpha <= -30, everywhere; the
        # lower series for alpha > 1; the series at alpha + 1 with one step
        # down for alpha in (0.5, 1]; the small-shape anchor with its steps
        # down below; rho = 0 where alpha > 0. Measured: 6.5e-15 at most
        # (relative to max(1, |reference|)), at (-0.196, 1)
        mpmath = pytest.importorskip("mpmath")
        worst = (0.0, None)
        with mpmath.workdps(60):
            for a in self.ALPHAS:
                seam = max(1.0, a + 1.0)
                rho = np.array([0.0, 1e-12, 4.3e-4, 0.3, 0.7, seam * (1.0 - 1e-9), seam,
                                seam * (1.0 + 1e-9), 1.5, 30.0, 700.0, 0.3])
                if a <= 0.0:
                    rho = rho[1:]
                got = log_upper_inc_gamma(a, rho)
                assert got.shape == rho.shape
                for r, v in zip(rho.tolist(), got.tolist()):
                    want = (mpmath.loggamma(a) if r == 0.0
                            else mpmath.log(mpmath.gammainc(a, r)))
                    err = float(abs(v - want) / max(1, abs(want)))
                    worst = max(worst, (err, (a, r)))
        assert worst[0] <= self.TOL["log_value"], worst

    def test_value_up_where_the_inner_solve_reads_it(self):
        # log Gamma(alpha + 1, rho) for the inner solve's ratio, where fits
        # of heavy-tailed data read it: step-down chains of up to three
        # links, their small-shape anchors, and the continued fraction just
        # past rho = 1
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(187)
        points = [(-2.022, 0.604)]
        points += [(float(rng.uniform(-3.0, 1.0)),
                    float(10.0 ** rng.uniform(-12.0, math.log10(1.6))))
                   for _ in range(400)]
        worst = (0.0, None)
        with mpmath.workdps(60):
            for a, r in points:
                want = mpmath.log(mpmath.gammainc(mpmath.mpf(a) + 1, r))
                err = float(abs(inc_gamma_eval(a, r).log_value_up - want)
                            / max(1, abs(want)))
                worst = max(worst, (err, (a, r)))
        assert worst[0] <= self.TOL["log_value_up"], worst

    def test_digamma_trigamma(self):
        # psi and psi' serve the small-shape series here and the gamma fit's
        # Newton steps; checked on x in [1e-4, 1e5], at the root of psi and
        # on both sides of the recurrence's x = 10 switch to the asymptotic
        # series. Measured: 7.0e-16 on psi (relative to max(1, |psi|)) and
        # 4.3e-16 relative on psi'.
        mpmath = pytest.importorskip("mpmath")
        xs = [float(x) for x in np.logspace(-4.0, 5.0, 181)]
        xs += [1.4616321449683622, 10.0 - 1e-9, 10.0, 10.0 + 1e-9]
        worst_psi = worst_psi1 = 0.0
        with mpmath.workdps(40):
            for x in xs:
                psi, psi1 = digamma_trigamma(x)
                ref, ref1 = mpmath.psi(0, x), mpmath.psi(1, x)
                worst_psi = max(worst_psi, float(abs(psi - ref) / max(1, abs(ref))))
                worst_psi1 = max(worst_psi1, float(abs(psi1 - ref1) / ref1))
        assert worst_psi <= 1e-14
        assert worst_psi1 <= 1e-14


def central_second_diff_loggamma(a, r, h=2e-4):
    return (
        log_upper_inc_gamma(a + h, r)
        - 2.0 * log_upper_inc_gamma(a, r)
        + log_upper_inc_gamma(a - h, r)
    ) / (h * h)


class TestChi2Survival:
    def test_reference_pvalues(self):
        assert chi2_survival_1df(24.96) == pytest.approx(5.8e-7, abs=1e-8)
        assert chi2_survival_1df(4.14) == pytest.approx(0.042, abs=1e-3)

    def test_edge_cases(self):
        assert chi2_survival_1df(0.0) == 1.0
        with pytest.raises(ValueError):
            chi2_survival_1df(-1e-9)

    def test_against_erfc_series_oracle(self):
        for x in (0.5, 1.7, 4.14):
            assert chi2_survival_1df(x) == pytest.approx(
                erfc_series(math.sqrt(x / 2.0)), abs=1e-10
            )
