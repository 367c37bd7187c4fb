import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from ftgamma import (
    FtgParams,
    RngStream,
    cdf,
    ftg_rvs,
    quantile,
    sample_ftg,
)

from oracles import quad_log_upper_gamma

GRID = [
    FtgParams.from_sigma(a, s, r)
    for a in (-1.5, -0.2, 0.28)
    for s in (5.0, 1.0)
    for r in (0.001, 0.02, 1.0)
]
PARETO_PTS = [FtgParams.pareto(-0.448, 1.382), FtgParams.pareto(-1.63, 2.01)]


def _cdf_vec(p):
    return np.vectorize(lambda x: cdf(p, float(x)))


def _assert_quantile_shares(p, vals):
    # the share of draws at or below quantile(q) is binomial(n, q); a
    # scale error of 2% in the draws moves it by several s.e.
    n = vals.size
    for q in (0.1, 0.5, 0.9):
        share = np.count_nonzero(vals <= quantile(p, q)) / n
        z = (share - q) / math.sqrt(q * (1.0 - q) / n)
        assert abs(z) <= 4.5, (p, q, z)


class TestRngStream:
    def test_reproducible(self):
        a = sample_ftg(GRID[0], 500, RngStream(42, 7))
        b = sample_ftg(GRID[0], 500, RngStream(42, 7))
        assert np.array_equal(a.values, b.values)
        assert a.attempts == b.attempts

    def test_distinct_streams_differ(self):
        a = sample_ftg(GRID[0], 100, RngStream(42, 0))
        b = sample_ftg(GRID[0], 100, RngStream(42, 1))
        assert not np.array_equal(a.values, b.values)

    def test_children_are_independent_keys(self):
        r = RngStream(5)
        g1 = r.child(1).generator.random(4)
        g2 = r.child(2).generator.random(4)
        g1b = RngStream(5).child(1).generator.random(4)
        assert not np.array_equal(g1, g2)
        assert np.array_equal(g1, g1b)


class TestSampleFtg:
    def test_alpha_one_accepts_everything(self):
        p = FtgParams(1.0, 0.5, 0.5)
        batch = sample_ftg(p, 100_000, RngStream(11))
        assert batch.acceptance_rate == 1.0
        assert batch.attempts == 100_000
        # exponential with rate 1/2: mean 2
        assert batch.values.mean() == pytest.approx(2.0, abs=3 * 2.0 / math.sqrt(1e5))

    def test_fitted_losses_ks_band(self, ftg_fit):
        p = ftg_fit.params
        batch = sample_ftg(p, 100_000, RngStream(2024))
        stat = kstest(batch.values, _cdf_vec(p)).statistic
        assert stat < 1.63 / math.sqrt(100_000)  # 99% Kolmogorov band

    def test_acceptance_rate_prediction(self):
        # below alpha = 1 the envelope is t^(alpha-1) e^-rho on (rho, c] plus
        # c^(alpha-1) e^-t on (c, inf), c = max(rho, 1): the two-piece
        # envelope where rho < 1 (c = 1), and where rho >= 1 the shifted
        # exponential rho + Exp(1), whose first piece is empty. Either
        # accepts at the rate Gamma(alpha, rho) / (m1 + m2), the ratio of
        # the masses
        n = 40_000
        for i, (alpha, rho) in enumerate([(-0.2, 1.0), (-1.5, 1e-3), (0.28, 0.02), (0.5, 3.0)]):
            c = max(rho, 1.0)
            m1 = math.exp(-rho) * (c**alpha - rho**alpha) / alpha
            m2 = c ** (alpha - 1.0) * math.exp(-c)
            predicted = math.exp(quad_log_upper_gamma(alpha, rho)) / (m1 + m2)
            batch = sample_ftg(FtgParams(alpha, 1.0, rho), n, RngStream(3, i))
            se = math.sqrt(predicted * (1.0 - predicted) / batch.attempts)
            assert batch.acceptance_rate == pytest.approx(predicted, abs=3 * se), (alpha, rho)

    def test_ks_across_grid(self):
        # 20 simultaneous tests at the 1% level: run under one fixed seed
        # (chance failures across reseeding are expected for a correct
        # sampler at this level)
        for i, p in enumerate(GRID + PARETO_PTS):
            n = 1_500
            batch = sample_ftg(p, n, RngStream(906, i))
            pv = kstest(batch.values, _cdf_vec(p)).pvalue
            assert pv > 0.01, (p, pv)

    def test_truncated_gamma_route_for_large_shapes(self):
        # alpha >= 1 goes through the shifted-exponential envelope
        for i, p in enumerate([FtgParams(1.7, 1.0, 0.5), FtgParams(4.0, 2.0, 3.0)]):
            batch = sample_ftg(p, 1_500, RngStream(901, i))
            assert kstest(batch.values, _cdf_vec(p)).pvalue > 0.01

    def test_gamma_boundary(self):
        p = FtgParams.gamma(2.0, 1.0)
        batch = sample_ftg(p, 1_500, RngStream(902))
        assert kstest(batch.values, _cdf_vec(p)).pvalue > 0.01

    def test_scale_trick_consistency(self):
        p = FtgParams(-0.4, 0.25, 0.8)
        direct = sample_ftg(p, 4_000, RngStream(55, 0)).values
        reduced = sample_ftg(FtgParams(-0.4, 0.8, 0.8), 4_000, RngStream(55, 1)).values
        rescaled = reduced * (0.8 / 0.25)
        assert ks_2samp(direct, rescaled).pvalue > 0.01

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            sample_ftg(GRID[0], 0, RngStream(1))

    def test_envelope_beyond_float_range(self):
        # rho^alpha overflows a double here; the envelope's masses and its
        # power-law proposal never form it
        for i, (alpha, rho) in enumerate([(-30.0, 1e-12), (-50.0, 1e-7)]):
            p = FtgParams.from_sigma(alpha, 1.0, rho)
            _assert_quantile_shares(p, sample_ftg(p, 200_000, RngStream(13, i)).values)


class TestBulkSampler:
    def test_matches_diagnostic_sampler(self, ftg_fit):
        # one sampler per regime: the diagnostic values are the bulk values
        for i, p in enumerate([ftg_fit.params, PARETO_PTS[0], FtgParams.gamma(2.0, 1.0),
                               FtgParams(1.7, 1.0, 0.5)]):
            a = ftg_rvs(p, 300_000, RngStream(77, i))
            b = sample_ftg(p, 300_000, RngStream(77, i)).values
            assert np.array_equal(a, b), p

    def test_quantile_shares_away_from_fit(self):
        # every proposal branch, each over several blocks: the shifted
        # exponential at rate 1 (alpha < 1, rho >= 1) and at its optimal
        # rate (alpha = 2), and the two-piece envelope, its power-law piece
        # dense and its exponential piece patched, at p1 near 1 (rho = 1e-3;
        # alpha = 0 is its log form), near 1/2 (alpha = -0.2, rho = 0.5,
        # p1 = 0.55) and small (alpha = 0.28, rho = 0.9, p1 = 0.10). Below
        # rho ~ 1e-16 alpha the optimal rate's textbook form cancels to 0,
        # which once made every proposal inf and the loop endless
        pts = [FtgParams(a, 0.5, r) for a in (-1.5, -0.2, 0.28, 2.0) for r in (1e-3, 1.0)]
        pts += [FtgParams(0.0, 0.5, 1e-3), FtgParams(-0.2, 0.5, 0.5), FtgParams(0.28, 0.5, 0.9)]
        pts += [FtgParams(2.0, 1.0, r) for r in (1e-12, 1e-20, 1e-300)]
        for i, p in enumerate(pts):
            _assert_quantile_shares(p, ftg_rvs(p, 200_000, RngStream(905, i)))

    def test_peak_memory_stays_near_the_result(self, ftg_fit):
        # proposals go in cache-sized blocks, so beyond the result only a
        # few block-sized temporaries are ever live
        tracemalloc.start()
        try:
            vals = ftg_rvs(ftg_fit.params, 2_000_000, RngStream(908))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * vals.nbytes, (peak, vals.nbytes)

    def test_ks_across_grid(self):
        for i, p in enumerate(GRID + PARETO_PTS):
            vals = ftg_rvs(p, 1_500, RngStream(903, i))
            assert kstest(vals, _cdf_vec(p)).pvalue > 0.01, p

    def test_far_truncation_with_underflowing_envelope(self):
        # c^(alpha-1) e^-c underflows to 0 at rho = 700, alpha = -50
        p = FtgParams(-50.0, 1.0, 700.0)
        vals = ftg_rvs(p, 1_500, RngStream(907))
        assert kstest(vals, _cdf_vec(p)).pvalue > 0.01

    def test_extreme_truncation_stays_fast(self):
        # the bundled fit's truncation: the envelope still accepts nearly every proposal
        p = FtgParams.from_sigma(-0.197, 0.0065, 4.3e-4)
        vals = ftg_rvs(p, 50_000, RngStream(904))
        assert kstest(vals, _cdf_vec(p)).pvalue > 0.01

    def test_empty_request(self):
        assert ftg_rvs(GRID[0], 0, RngStream(1)).size == 0

    # SHA-256 of ftg_rvs(law, 300_000, RngStream(77, i)).tobytes(), i the
    # position in this list; the pins follow NumPy's Generator stream. Each
    # regime's sampler is pinned: the two-piece envelope (the bundled fit,
    # and alpha = 0), the shifted exponential at rate 1 (alpha < 1 with
    # rho >= 1, and beyond float range at rho = 700) and both edges
    PINNED = [
        (None, "ead5c4da6e20efe3a959df528a2ebbc4eab83bec4e95b1e4fc3e7116ae48e533"),
        (FtgParams(0.0, 0.5, 1e-3),
         "4fcf9c1326e7d9d683684f4674faba3fdad9ed3038656769d263f9c83965f76c"),
        (FtgParams(-0.2, 0.5, 1.0),
         "f502a7e6b92fac11a7fe71cfb3d54578b3dfb53864ff594c5b3017cf133bd3d0"),
        (FtgParams(0.5, 1.0, 3.0),
         "26eab42d4be8aad6f497f53c77d2b64583aea7197c6651bd587afbcd219da0cf"),
        (FtgParams(-50.0, 1.0, 700.0),
         "3920cfb3742f98cc9e90d9816493acb5e7dbd089723fe596723830bccbd87cd8"),
        (PARETO_PTS[0], "5c7fcb04c174a72f0064a7ae64a279e36e529072aa43e36816831ca9a13900ac"),
        (FtgParams.gamma(2.0, 1.0),
         "040ce70195ca32973d6ff24bb7d37f0e7de018d37430adacbf8225981c68c428"),
    ]

    def test_pinned_digests(self, ftg_fit):
        for i, (p, digest) in enumerate(self.PINNED):
            vals = ftg_rvs(p or ftg_fit.params, 300_000, RngStream(77, i))
            assert hashlib.sha256(vals.tobytes()).hexdigest() == digest, (i, p)
