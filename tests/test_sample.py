import hashlib
import math
import sys
import threading
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

from helpers import set_usable_cpus
from oracles import quad_log_upper_gamma

GRID = [
    FtgParams.from_sigma(a, s, r)
    for a in (-1.5, -0.2, 0.28)
    for s in (5.0, 1.0)
    for r in (0.001, 0.02, 1.0)
]
PARETO_PTS = [FtgParams.pareto(-0.448, 1.382), FtgParams.pareto(-1.63, 2.01)]
# the bundled fit to the last bit, as fit_ftg returned it when the sampler
# digests below were captured: they pin the sampler, while the fit's last
# digits follow the rounding of log Gamma
BUNDLED_FIT = FtgParams(-0.19648036716085465, 0.000659457553419004, 0.0004295490596932636)


def _cdf_vec(p):
    return lambda x: cdf(p, x)


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

    @pytest.mark.parametrize("alpha, rho", [(1e160, 1.0), (-1e300, 1.0), (2.0, 1e160)])
    def test_shifted_exponential_rate_overflow_refused(self, alpha, rho):
        # (rho - alpha)^2 overflows: once an OverflowError from the rate
        p = FtgParams(alpha, 1.0, rho)
        with pytest.raises(ValueError, match="rate overflows"):
            sample_ftg(p, 3, RngStream(1))
        with pytest.raises(ValueError, match="rate overflows"):
            ftg_rvs(p, 3, RngStream(1), take=lambda x: None)


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

    @pytest.mark.parametrize("law", [BUNDLED_FIT, FtgParams(1.7, 1.0, 0.5), PARETO_PTS[0],
                                     FtgParams.gamma(2.0, 1.0)],
                             ids=["two-piece", "shifted-exp", "pareto", "gamma"])
    def test_request_for_nothing_draws_nothing(self, law):
        fresh = RngStream(12).generator.random()
        rng = RngStream(12)
        assert ftg_rvs(law, 0, rng).size == 0
        assert rng.generator.random() == fresh
        taken = []
        rng = RngStream(12)
        assert ftg_rvs(law, 0, rng, take=taken.append) is None
        assert taken == [] and rng.generator.random() == fresh

    @pytest.mark.parametrize("law", [BUNDLED_FIT, FtgParams(1.7, 1.0, 0.5), PARETO_PTS[0],
                                     FtgParams.gamma(2.0, 1.0)],
                             ids=["two-piece", "shifted-exp", "pareto", "gamma"])
    def test_blocks_reuse_one_buffer(self, law):
        # every piece of a request is a view of the memory of its first, so
        # no block allocates (and page-faults) arrays of its own
        starts = []
        ftg_rvs(law, 65536 * 3 + 17, RngStream(15),
                take=lambda x: starts.append(x.__array_interface__["data"][0]))
        assert len(starts) >= 4 and len(set(starts)) == 1

    @pytest.mark.parametrize("law", [PARETO_PTS[0], FtgParams.gamma(0.5, 2.0),
                                     FtgParams.gamma(3.0, 1.0)],
                             ids=["pareto", "gamma-0.5", "gamma-3"])
    def test_edge_blocks_equal_one_call(self, law):
        # the edges draw at most 65536 variates per generator call; NumPy
        # fills in order, so the blocks hold the bits of one call for all n
        # and leave the generator where that call does
        n = 65536 * 3 + 17
        one = RngStream(14).generator
        if law.is_pareto:
            want = law.sigma * ((1.0 - one.random(n)) ** (1.0 / law.alpha) - 1.0)
        else:
            want = one.gamma(law.alpha, size=n) / law.theta
        rng = RngStream(14)
        pieces = []
        # a piece is valid until take returns
        ftg_rvs(law, n, rng, take=lambda x: pieces.append(x.copy()))
        assert [x.size for x in pieces] == [65536] * 3 + [17]
        assert np.concatenate(pieces).tobytes() == want.tobytes()
        assert ftg_rvs(law, n, RngStream(14)).tobytes() == want.tobytes()
        assert rng.generator.random() == one.random()

    # SHA-256 of ftg_rvs(law, 300_000, RngStream(77, i)).tobytes(), i the
    # position in this list; the pins follow NumPy's Generator stream. Each
    # regime's sampler is pinned: the two-piece envelope (the bundled fit,
    # and alpha = 0), the shifted exponential at rate 1 (alpha < 1 with
    # rho >= 1, and beyond float range at rho = 700) and both edges
    PINNED = [
        (BUNDLED_FIT, "ead5c4da6e20efe3a959df528a2ebbc4eab83bec4e95b1e4fc3e7116ae48e533"),
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

    def test_pinned_digests(self):
        for i, (p, digest) in enumerate(self.PINNED):
            vals = ftg_rvs(p, 300_000, RngStream(77, i))
            assert hashlib.sha256(vals.tobytes()).hexdigest() == digest, (i, p)


class _FaultyGenerator:
    """A generator whose fill number fail_at (counting every random and
    standard_exponential call) raises, or with short=True returns one value
    too few, which the envelope's arithmetic then refuses; it counts the
    fills and records the thread of the faulty one."""

    def __init__(self, gen, fail_at, short=False):
        self._gen, self._left, self._short = gen, fail_at, short
        self.fills = 0
        self.faulty_thread = None

    def _fill(self, name, size, out):
        self.fills += 1
        self._left -= 1
        if self._left == 0:
            self.faulty_thread = threading.current_thread()
            if not self._short:
                raise _DrawFailed(name)
            if out is None:
                size -= 1
            else:
                out = out[:-1]
        return getattr(self._gen, name)(size=size, out=out)

    def random(self, size=None, out=None):
        return self._fill("random", size, out)

    def standard_exponential(self, size=None, out=None):
        return self._fill("standard_exponential", size, out)


class _DrawFailed(RuntimeError):
    pass


class TestBlockLoop:
    """Every block is drawn on the calling thread, when the previous piece
    has been taken; the figures below are those of that serial loop."""

    # captured from the serial loop: the SHA-256 of ftg_rvs(law, n,
    # RngStream(seed, stream)).tobytes(), the attempts of sample_ftg on the
    # same stream, and the generator's next random() after either call.
    # 65536 * 2 + 17 draws end in short blocks; BUNDLED_FIT is a two-piece
    # envelope; (1.7, 1, 0.5) is the shifted exponential at its optimal
    # rate, (-0.2, 0.5, 1) at rate 1
    PINNED = [
        (BUNDLED_FIT, 2_000_000, (77, 9),
         "552a6b8bd932c1c0e6c1fe21c85a7b2d76288c934e8c639031d9d593ef58be7e",
         2_135_028, 0.8127784386989783),
        (BUNDLED_FIT, 65536 * 2 + 17, (78, 0),
         "f93d43e846c4357d50b49fbc48b7d78091b89ac0615e8a8cbf07396e3405d5d9",
         140_044, 0.7490720588672485),
        (FtgParams(1.7, 1.0, 0.5), 65536 * 2 + 17, (78, 1),
         "4056ff6e4c4fd885fd342bb1cadf6b4b350810e7056c3eed0528cce9a92b5ab5",
         151_393, 0.0542238647468547),
        (FtgParams(-0.2, 0.5, 1.0), 65536 * 2 + 17, (78, 2),
         "b2212eaef495d22663dc55da9bb9471ed1d93a0d23d9c26c467d8a0d7c50fb83",
         239_719, 0.2914411074136809),
    ]

    def test_pinned_from_the_serial_loop(self, monkeypatch):
        # two usable CPUs, where a helper that drew ahead would act; no
        # code under test reads the count
        set_usable_cpus(monkeypatch, 2)
        for p, n, key, digest, attempts, after in self.PINNED:
            rng = RngStream(*key)
            vals = ftg_rvs(p, n, rng)
            assert hashlib.sha256(vals.tobytes()).hexdigest() == digest, (p, n)
            assert rng.generator.random() == after, (p, n)
            rng = RngStream(*key)
            assert sample_ftg(p, n, rng).attempts == attempts, (p, n)
            assert rng.generator.random() == after, (p, n)

    def test_concurrent_requests_under_fast_switching(self, monkeypatch):
        # more requests than cores, each on a thread of its own and its own
        # stream, with the interpreter switching threads every 10 us: a
        # request that touched another's state would change the bits or hang
        set_usable_cpus(monkeypatch, 2)
        got = {}

        def run(i, p, n, key):
            got[i] = hashlib.sha256(ftg_rvs(p, n, RngStream(*key)).tobytes())

        workers = [threading.Thread(target=run, args=(i, p, n, key))
                   for i, (p, n, key, *_) in enumerate(self.PINNED[1:] * 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for i, (_, _, _, digest, *_) in enumerate(self.PINNED[1:] * 2):
            assert got[i].hexdigest() == digest, i

    def test_large_request_starts_no_thread(self, ftg_fit, monkeypatch):
        # two usable CPUs and 2e6 draws: every block is still drawn here
        set_usable_cpus(monkeypatch, 2)
        before = threading.active_count()
        alive = set()
        ftg_rvs(ftg_fit.params, 2_000_000, RngStream(1),
                take=lambda x: alive.add(threading.active_count()))
        assert alive == {before}

    # fills per block: two-piece u, w, exponential; shifted exponential
    # exponential, uniform. Fill 3 is in block 1, fill 4 in block 2 of the
    # two-piece envelope and fill 3 in block 2 of the shifted exponential
    @pytest.mark.parametrize("law, fail_at", [
        (None, 3),
        (None, 4),
        (FtgParams(1.7, 1.0, 0.5), 3),
    ])
    def test_draw_failure_reaches_the_caller(self, ftg_fit, monkeypatch, law, fail_at):
        set_usable_cpus(monkeypatch, 2)
        gen = _FaultyGenerator(RngStream(3).generator, fail_at)
        monkeypatch.setattr(RngStream, "generator", property(lambda self: gen))
        with pytest.raises(_DrawFailed):
            ftg_rvs(law or ftg_fit.params, 2_000_000, RngStream(3))
        assert gen.faulty_thread is threading.current_thread()
        assert gen.fills == fail_at  # nothing is drawn after the failure

    def test_arithmetic_failure_ends_the_draw(self, ftg_fit, monkeypatch):
        # block 2's uniforms come one short: the arithmetic on them raises,
        # and no later block is drawn
        set_usable_cpus(monkeypatch, 2)
        gen = _FaultyGenerator(RngStream(3).generator, 4, short=True)
        monkeypatch.setattr(RngStream, "generator", property(lambda self: gen))
        with pytest.raises(ValueError):
            ftg_rvs(ftg_fit.params, 2_000_000, RngStream(3))
        assert gen.fills == 6  # blocks 1 and 2, three fills each
