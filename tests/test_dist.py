import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from ftgamma import (
    FtgParams,
    cdf,
    conditional_mean_excess,
    log_pdf,
    mgf,
    moments,
    pdf,
    quantile,
    scale,
    survival,
    truncate,
)

from ftgamma.specfun import log_upper_inc_gamma

from oracles import central_second_diff, pareto_limit_distance, pdf_quadrature_norm

# Reference fits of the bundled external-fraud losses, three decimal
# places, with the FTG rates given on the natural-log scale
PARETO_REF = FtgParams.pareto(-0.448, 1.382)
FTG_REF = FtgParams(-0.197, math.exp(-7.325), math.exp(-7.754))

GRID = [
    FtgParams.from_sigma(a, s, r)
    for a in (-1.5, -0.2, 0.28, 1.0, 2.0)
    for s in (0.1 / 0.02, 1.0)
    for r in (0.001, 0.02, 1.0)
]


class TestParams:
    def test_interior_sigma_derived(self):
        p = FtgParams(0.5, 2.0, 1.0)
        assert p.sigma == 0.5
        assert p.is_interior

    def test_gamma_boundary_requires_positive_shape(self):
        assert FtgParams.gamma(2.0, 1.0).is_gamma
        with pytest.raises(ValueError):
            FtgParams(-1.0, 1.0, 0.0)

    def test_pareto_boundary_requires_sigma(self):
        p = FtgParams.pareto(-0.5, 2.0)
        assert p.is_pareto and p.sigma == 2.0
        with pytest.raises(ValueError):
            FtgParams(-0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            FtgParams.pareto(0.5, 1.0)

    def test_rho_without_theta_rejected(self):
        with pytest.raises(ValueError):
            FtgParams(-0.5, 0.0, 1.0)

    def test_from_sigma_matches_direct(self):
        p = FtgParams.from_sigma(0.28, 0.09, 0.02)
        assert p.theta == pytest.approx(0.02 / 0.09, rel=1e-15)

    def test_pareto_params_validation(self):
        with pytest.raises(ValueError):
            FtgParams.pareto(0.1, 1.0)
        with pytest.raises(ValueError):
            FtgParams.pareto(-0.5, 0.0)
        with pytest.raises(ValueError):
            FtgParams.pareto(-0.5, -1.0)


class TestPdf:
    def test_exponential_collapse(self):
        # alpha = 1 collapses to the exponential with rate theta, any rho
        p = FtgParams(1.0, 2.0, 0.3)
        assert pdf(p, 0.5) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_pareto_at_origin(self):
        p = FtgParams.pareto(-0.2, 1.0)
        assert pdf(p, 0.0) == pytest.approx(0.2, rel=1e-14)

    def test_interior_matches_normalized_kernel(self):
        p = FtgParams.from_sigma(0.28, 0.09, 0.02)
        kernel = lambda x: (p.rho + p.theta * x) ** (p.alpha - 1.0) * math.exp(
            -(p.rho + p.theta * x)
        )
        norm = pdf_quadrature_norm(kernel)
        assert pdf(p, 1.0) == pytest.approx(kernel(1.0) / norm, rel=1e-9)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            log_pdf(FtgParams(1.0, 1.0, 1.0), -0.5)

    def test_normalization_across_grid(self):
        for p in GRID:
            total = pdf_quadrature_norm(
                lambda x: pdf(p, x),
                pieces=(p.sigma / 10, p.sigma, 1.0, 10.0 / p.theta, 100.0 / p.theta),
            )
            assert total == pytest.approx(1.0, abs=1e-8), p


class TestCdfSurvival:
    def test_zero(self):
        for p in (FTG_REF, PARETO_REF, FtgParams.gamma(2.0, 1.0)):
            assert cdf(p, 0.0) == 0.0
            assert survival(p, 0.0) == 1.0

    def test_exceedance_probability_of_maximum(self):
        # P(X > max observed loss): about 5.5% under Pareto, 2.65% under FTG
        assert survival(PARETO_REF, 891.62) == pytest.approx(0.0552, abs=0.002)
        assert survival(FTG_REF, 891.62) == pytest.approx(0.0265, abs=0.002)

    def test_cdf_plus_survival(self):
        for p in GRID:
            for x in (0.01, 1.0, 7.3):
                assert cdf(p, x) + survival(p, x) == pytest.approx(1.0, abs=1e-12)

    def test_arrays_match_numbers(self):
        # one array call per law, its points on both sides of the continued
        # fraction's seam and at x <= 0, against one call per point
        xs = np.array([[-1.0, 0.0, 1e-3, 0.01, 1.0], [7.3, 50.0, 400.0, 891.62, 1e4]])
        for p in GRID + [FTG_REF, PARETO_REF]:
            for f in (cdf, survival):
                got = f(p, xs)
                assert got.shape == xs.shape
                want = [[f(p, float(x)) for x in row] for row in xs]
                assert got == pytest.approx(np.array(want), rel=1e-14, abs=1e-300), (p, f)
        assert cdf(FTG_REF, xs)[0, :2].tolist() == [0.0, 0.0]
        assert survival(FTG_REF, xs)[0, :2].tolist() == [1.0, 1.0]

    def test_infinite_loss(self):
        # Gamma(alpha, inf) = 0: no loss exceeds infinity, for a number and
        # inside an array, on both edges and inside
        for p in GRID + [FTG_REF, PARETO_REF, FtgParams.gamma(2.0, 1.0)]:
            assert survival(p, math.inf) == 0.0
            assert cdf(p, math.inf) == 1.0
            got = cdf(p, np.array([1.0, math.inf]))
            assert got[0] == pytest.approx(cdf(p, 1.0), rel=1e-14)
            assert got[1] == 1.0
            assert survival(p, np.array([1.0, math.inf]))[1] == 0.0

    def test_monotone(self):
        xs = np.linspace(0, 50, 200)
        for p in (FTG_REF, PARETO_REF):
            vals = [cdf(p, float(x)) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestQuantile:
    def test_zero_prob(self):
        assert quantile(FTG_REF, 0.0) == 0.0

    def test_reference_high_quantiles(self):
        assert quantile(PARETO_REF, 0.999) == pytest.approx(6.95e6, rel=0.10)
        assert quantile(FTG_REF, 0.999) == pytest.approx(3.93e3, rel=0.10)

    def test_pareto_closed_form_keeps_the_lower_tail(self):
        # sigma ((1 - prob)^(1/alpha) - 1) at 50 digits; in double precision
        # 1 - prob rounds to 1 at prob 1e-20, and loses four digits at 1e-12
        mpmath = pytest.importorskip("mpmath")
        p = FtgParams.pareto(-1.5, 2.0)
        with mpmath.workdps(50):
            for prob in (1e-20, 1e-12, 0.5, 0.999):
                want = 2 * ((1 - mpmath.mpf(prob)) ** (mpmath.mpf(-2) / 3) - 1)
                assert quantile(p, prob) == pytest.approx(float(want), rel=1e-13, abs=0.0)

    def test_round_trip(self):
        for p in (FTG_REF, PARETO_REF, FtgParams.gamma(2.0, 1.0),
                  FtgParams.from_sigma(-1.5, 1.0, 0.02)):
            for prob in (0.001, 0.5, 0.99, 0.999, 0.9999):
                assert cdf(p, quantile(p, prob)) == pytest.approx(prob, abs=1e-8)

    @pytest.mark.parametrize("p", [
        FTG_REF, FtgParams(-0.2, 0.001, 4.3e-4),
        FtgParams.gamma(0.3, 1.0), FtgParams.gamma(2.0, 1.0), FtgParams.gamma(50.0, 0.1),
        FtgParams.from_sigma(-30.0, 1.0, 0.02), FtgParams.from_sigma(-5.0, 2.0, 1.0),
        FtgParams.from_sigma(-1.5, 1.0, 0.02), FtgParams.from_sigma(0.28, 5.0, 1e-3),
        FtgParams.from_sigma(1.0, 1.0, 1.0), FtgParams.from_sigma(20.0, 0.5, 3.0),
        FtgParams.from_sigma(150.0, 1.0, 100.0),
    ])
    def test_matches_brentq(self, p):
        # an independent solver as the reference: Brent's method on a
        # bracket doubled up from the mean
        for prob in (1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-8):
            def fun(x, target=1.0 - prob):
                return survival(p, x) - target

            hi = moments(p).mean
            while fun(hi) > 0.0:
                hi *= 2.0
            ref = brentq(fun, 0.0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
            assert quantile(p, prob) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("theta", [1e-200, 1e300])
    def test_extreme_scales(self, theta):
        # theta is a pure scale, so theta x_p does not depend on it; the
        # search starts from moments(p), whose variance once divided by
        # theta**2 and raised ZeroDivisionError or OverflowError here
        for law in (lambda t: FtgParams.gamma(1.0, t), lambda t: FtgParams(1.5, t, 0.5)):
            assert quantile(law(theta), 0.5) * theta == pytest.approx(
                quantile(law(1.0), 0.5), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            quantile(FTG_REF, 1.0)
        with pytest.raises(ValueError):
            quantile(FTG_REF, -0.01)


class TestMgf:
    def test_at_zero(self):
        assert mgf(FTG_REF, 0.0) == 1.0

    def test_exponential_value(self):
        p = FtgParams(1.0, 2.0, 0.5)
        assert mgf(p, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_against_quadrature(self):
        p = FtgParams(0.28, 0.222, 0.02)
        tilted = lambda x: math.exp(0.1 * x + log_pdf(p, x))
        val, _ = quad(tilted, 0, np.inf, limit=400)
        assert mgf(p, 0.1) == pytest.approx(val, rel=1e-8)

    def test_pareto_closed_form_against_mpmath(self):
        # E[e^(tX)] = (-alpha) e^s s^(-alpha) Gamma(alpha, s), s = -t sigma,
        # at 40 digits; quadrature was 7.9% off at (-0.2, 1, -1e-6)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for a in (-0.2, -0.45, -1.0, -3.0, -10.0):
                for sig in (0.1, 1.0, 100.0):
                    for t in (-1e-6, -1e-3, -0.1, -1.0, -10.0):
                        s = -mpmath.mpf(t) * sig
                        want = -a * mpmath.exp(s) * s**-a * mpmath.gammainc(a, s)
                        got = mgf(FtgParams.pareto(a, sig), t)
                        assert got == pytest.approx(float(want), rel=1e-12), (a, sig, t)

    def test_domain(self):
        with pytest.raises(ValueError):
            mgf(FtgParams(1.0, 2.0, 0.5), 2.0)
        with pytest.raises(ValueError):
            mgf(PARETO_REF, 0.1)

    def test_cumulants_match_moments(self):
        for p in (FtgParams(0.28, 0.222, 0.02), FtgParams(-0.5, 1.0, 0.8),
                  FtgParams(2.0, 0.5, 1.0)):
            m = moments(p)
            k = lambda t: math.log(mgf(p, t))
            h = 5e-4 * p.theta
            mean_fd = (k(h) - k(-h)) / (2 * h)
            var_fd = central_second_diff(k, 0.0, h)
            assert mean_fd == pytest.approx(m.mean, rel=1e-5)
            assert var_fd == pytest.approx(m.variance, rel=1e-5)


class TestMoments:
    def test_exponential_case(self):
        m = moments(FtgParams(1.0, 3.0, 0.7))
        assert m.mean == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert m.variance == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_gamma_boundary(self):
        m = moments(FtgParams.gamma(2.0, 1.0))
        assert (m.mean, m.variance) == (2.0, 2.0)

    def test_fitted_mean_against_quadrature(self):
        p = FTG_REF
        val, _ = quad(lambda x: x * pdf(p, x), 0, np.inf, limit=500)
        assert moments(p).mean == pytest.approx(val, rel=1e-6)

    def test_pareto_infinite_mean_flag(self):
        m = moments(FtgParams.pareto(-0.448, 1.382))
        assert math.isinf(m.mean) and m.infinite_mean
        heavy = moments(FtgParams.pareto(-1.8, 1.0))
        assert heavy.mean == pytest.approx(1.0 / 0.8, rel=1e-12)
        assert math.isinf(heavy.variance)  # finite only for alpha < -2
        v = moments(FtgParams.pareto(-3.5, 2.0))
        # Lomax variance: sigma^2 a / ((a-1)^2 (a-2)) with a = 3.5
        assert v.variance == pytest.approx(4.0 * 3.5 / (2.5**2 * 1.5), rel=1e-12)


GAMMA_LAWS = [
    FtgParams.gamma(a, th)
    for a in (0.05, 0.5, 1.0, 2.5, 40.0, 900.0)
    for th in (1e-12, 1e-3, 0.7, 1.0, 3e4, 1e15)
]


class TestGammaEdge:
    """The gamma edge is the interior formula at rho = 0. survival, cdf and
    moments keep the bits of the edge's own closed forms; log_pdf and mgf
    match SciPy's gamma law and the gamma MGF to 1e-13."""

    @staticmethod
    def points(p):
        # 50 points from far below the mode to far into the tail
        return [q / p.theta for q in np.geomspace(1e-4, 4.0, 50) * (p.alpha + 10.0)]

    @pytest.mark.parametrize("p", GAMMA_LAWS, ids=repr)
    def test_tail_and_moments_equal_closed_forms(self, p):
        a, th = p.alpha, p.theta
        for x in self.points(p):
            log_s = log_upper_inc_gamma(a, th * x) - math.lgamma(a)
            assert survival(p, x) == math.exp(log_s)
            assert cdf(p, x) == -math.expm1(log_s)
        m = moments(p)
        assert (m.mean, m.variance, m.mu) == (a / th, a / th / th, 0.0)

    @pytest.mark.parametrize("p", GAMMA_LAWS, ids=repr)
    def test_log_pdf_and_mgf_against_scipy(self, p):
        stats = pytest.importorskip("scipy.stats")
        ref = stats.gamma(p.alpha, scale=1.0 / p.theta)
        for x in self.points(p):
            assert log_pdf(p, x) == pytest.approx(ref.logpdf(x), rel=1e-13)
        for t in (-3.0, -0.5, 0.25, 0.9):
            if abs(p.alpha * math.log1p(-t)) < 700.0:  # E[e^(tX)] is a float
                want = (1.0 - t) ** -p.alpha
                assert mgf(p, t * p.theta) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_density_at_the_origin(self, alpha):
        stats = pytest.importorskip("scipy.stats")
        p = FtgParams.gamma(alpha, 0.7)
        want = stats.gamma(alpha, scale=1.0 / 0.7).logpdf(0.0)
        assert log_pdf(p, 0.0) == pytest.approx(want, rel=1e-13)
        assert pdf(p, 0.0) == pytest.approx(math.exp(want), rel=1e-13)


class TestConditionalMeanExcess:
    def test_threshold_zero_is_mean(self):
        for p in (FTG_REF, FtgParams(1.0, 2.0, 0.1)):
            assert conditional_mean_excess(p, 0.0) == pytest.approx(
                moments(p).mean, rel=1e-12
            )

    def test_exponential_memorylessness(self):
        p = FtgParams(1.0, 2.0, 0.1)
        assert conditional_mean_excess(p, 5.0) == pytest.approx(5.5, rel=1e-12)

    def test_against_quadrature(self):
        p = FTG_REF
        u = quantile(p, 0.999)
        s = survival(p, u)
        num, _ = quad(lambda x: x * pdf(p, x), u, np.inf, limit=500)
        assert conditional_mean_excess(p, u) == pytest.approx(num / s, rel=1e-7)

    def test_truncation_identity(self):
        # E[X | X > u] - u equals the mean of the exceedance distribution
        for p in (FTG_REF, FtgParams(-0.45, 0.3, 0.4), FtgParams.pareto(-2.2, 1.5)):
            for u in (0.0, 0.7, 12.0):
                lhs = conditional_mean_excess(p, u) - u
                rhs = moments(truncate(p, u)).mean
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pareto_infinite(self):
        assert math.isinf(conditional_mean_excess(FtgParams.pareto(-0.448, 1.382), 3.0))


class TestClosureTransforms:
    def test_scale_identity(self):
        p = FtgParams(0.5, 2.0, 1.0)
        assert scale(p, 1.0) == p

    def test_scale_formula(self):
        q = scale(FtgParams(0.5, 2.0, 1.0), 4.0)
        assert (q.alpha, q.theta, q.rho) == (0.5, 0.5, 1.0)

    def test_scale_pdf_identity(self):
        p = FtgParams(-0.2, 0.1, 0.1)
        lam, x = 2.5, 0.37
        assert pdf(scale(p, lam), x) == pytest.approx(pdf(p, x / lam) / lam, rel=1e-12)

    def test_scale_pareto(self):
        q = scale(FtgParams.pareto(-0.5, 2.0), 3.0)
        assert q.is_pareto and q.sigma == 6.0

    def test_truncate_identity(self):
        p = FtgParams(2.0, 1.0, 0.3)
        assert truncate(p, 0.0) is p

    def test_truncate_gamma_boundary(self):
        u = 1.5
        q = truncate(FtgParams.gamma(2.0, 1.0), u)
        assert q.is_interior and q.rho == pytest.approx(u)

    def test_exceedance_pdf_identity(self):
        p = FtgParams(-0.45, 0.3, 0.4)
        u, x = 1.7, 0.9
        lhs = pdf(truncate(p, u), x)
        rhs = pdf(p, x + u) / survival(p, u)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_truncate_pareto(self):
        q = truncate(FtgParams.pareto(-0.5, 2.0), 1.0)
        assert q.is_pareto and q.sigma == 3.0


class TestParetoLimit:
    def test_small_rho_distance(self):
        # the L1 gap shrinks like rho^-alpha, so alpha = -0.2 needs a far
        # smaller rho than heavier tails before dipping below 1e-3; the
        # value at 1e-6 is pinned from the independent max-CDF-gap oracle
        assert pareto_limit_distance(-0.2, 1.0, 1e-6) == pytest.approx(
            0.1375519811, rel=1e-6
        )
        assert pareto_limit_distance(-0.2, 1.0, 1e-18) < 1e-3
        assert pareto_limit_distance(-1.63, 1.0, 1e-6) < 1e-3

    def test_distances_decrease(self):
        d = [pareto_limit_distance(-0.2, 1.0, r) for r in (1e-2, 1e-3, 1e-4)]
        assert d[0] > d[1] > d[2] > 0.0

    def test_cyclone_scale_point(self):
        assert pareto_limit_distance(-1.63, 2.01, 1e-8) < 1e-4

    def test_against_max_cdf_gap_oracle(self):
        # the single density crossing makes the L1 distance equal twice the
        # maximal CDF gap, which a direct search can find independently
        alpha, sigma, rho = -0.6, 1.3, 5e-3
        f = FtgParams.from_sigma(alpha, sigma, rho)
        g = FtgParams.pareto(alpha, sigma)

        gap = lambda lx: -(cdf(f, math.exp(lx)) - cdf(g, math.exp(lx)))
        res = minimize_scalar(gap, bounds=(-8, 14), method="bounded",
                              options={"xatol": 1e-10})
        assert pareto_limit_distance(alpha, sigma, rho) == pytest.approx(
            -2.0 * res.fun, rel=1e-6
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            pareto_limit_distance(0.2, 1.0, 0.01)
