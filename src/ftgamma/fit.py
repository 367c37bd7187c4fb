"""Maximum-likelihood estimation for the FTG and Pareto families.

Estimation uses the (alpha, sigma, rho) parameterization: for fixed
dispersion sigma the FTG is a full exponential model in the canonical
statistics (1 + x/sigma, log(1 + x/sigma)) with natural parameters
(alpha - 1, -rho), so the log-likelihood is concave in (alpha, rho) and the
inner problem has at most one root of the score, found by damped Newton in
those coordinates. The outer problem maximizes the profile log-likelihood
over log sigma by safeguarded Newton: its slope is exact by the envelope
theorem, and its curvature is the Schur complement of the (alpha, rho)
block of the observed information.

The family is closed under scaling: alpha and rho do not depend on the
data's units, and sigma scales with them. So rescaling the data only shifts
the profile along log sigma and the log-likelihood by n log c, and the fit
works on the data as given, with its search window and second start placed
relative to the sample mean. The second start runs only where it can
matter (see fit_ftg).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import Sample
from .dist import FtgParams, model_to_dict
from .errors import FitError
from .specfun import (chi2_survival_1df, digamma_trigamma, inc_gamma_eval,
                      log_upper_inc_gamma)

_LOG_RHO_MAX = math.log(700.0)
_INNER_TOL = 1e-9


# ---------------------------------------------------------------- statistics
@dataclass(frozen=True)
class SufficientStats:
    """Sample means of r = 1 + x/sigma and s = log(1 + x/sigma), with the
    sigma-derivatives of both means (used by the score and information).

    Every field is computed when the statistics are made: each profile point
    reads all of them.
    """

    sigma: float
    n: int
    r_bar: float
    s_bar: float
    r_bar_sigma: float
    r_bar_sigma_sigma: float
    s_bar_sigma: float
    s_bar_sigma_sigma: float


def sufficient_stats(sample, sigma: float) -> SufficientStats:
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    x = Sample.coerce(sample).values
    n = x.size
    # np.add.reduce(x) / n is x.mean() without its dispatch: the same
    # pairwise sum, so the same bits
    xbar = float(np.add.reduce(x) / n)
    # one scratch array the size of x holds q = x/(sigma + x), then q^2,
    # then log(1 + x/sigma)
    w = x + sigma
    np.divide(x, w, out=w)
    q1 = float(np.add.reduce(w) / n)
    np.multiply(w, w, out=w)
    q2 = float(np.add.reduce(w) / n)
    np.divide(x, sigma, out=w)
    np.log1p(w, out=w)
    # s_bar_sigma_sigma is the mean of x (2 sigma + x) / (sigma (sigma + x))^2
    # = q (2 - q) / sigma^2; q^2 <= q on [0, 1), so the difference never
    # cancels
    return SufficientStats(sigma, n, 1.0 + xbar / sigma, float(np.add.reduce(w) / n),
                           -xbar / sigma**2, 2.0 * xbar / sigma**3, -q1 / sigma,
                           (2.0 * q1 - q2) / sigma**2)


def _stats(sample, sigma: float) -> SufficientStats:
    """Statistics of a sample at sigma; already computed ones pass through."""
    if isinstance(sample, SufficientStats):
        if sample.sigma != sigma:
            raise ValueError(f"statistics are for sigma={sample.sigma}, not {sigma}")
        return sample
    return sufficient_stats(sample, sigma)


# --------------------------------------------------------------- likelihoods
def loglik_ftg(sample, alpha: float, sigma: float, rho: float) -> float:
    """FTG log-likelihood in the (alpha, sigma, rho) parameterization.

    Like every function here that takes (sample, sigma), it accepts the
    sample's SufficientStats at that sigma in place of the sample."""
    st = _stats(sample, sigma)
    return _loglik_from_stats(st, alpha, rho, log_upper_inc_gamma(alpha, rho))


def _loglik_from_stats(st: SufficientStats, alpha: float, rho: float,
                       d: float) -> float:
    """Log-likelihood from statistics, given d = log Gamma(alpha, rho)."""
    return -st.n * (
        d
        + math.log(st.sigma)
        - alpha * math.log(rho)
        - (alpha - 1.0) * st.s_bar
        + rho * st.r_bar
    )


def loglik_pareto(sample, alpha: float, sigma: float) -> float:
    if alpha >= 0.0:
        raise ValueError("Pareto alpha must be < 0")
    st = _stats(sample, sigma)
    return st.n * (math.log(-alpha) - math.log(sigma) + (alpha - 1.0) * st.s_bar)


def score_ftg(sample, alpha: float, sigma: float, rho: float):
    """Score vector (l_alpha, l_sigma, l_rho)."""
    st = _stats(sample, sigma)
    ev = inc_gamma_eval(alpha, rho)
    return _score_from_stats(st, ev, alpha, rho)


def _score_from_stats(st: SufficientStats, ev, alpha: float, rho: float):
    n = st.n
    l_a = -n * (ev.d_alpha - math.log(rho) - st.s_bar)
    l_s = -n * (1.0 / st.sigma - (alpha - 1.0) * st.s_bar_sigma + rho * st.r_bar_sigma)
    # -R in place of d_rho - alpha/rho, which cancels (see the inner solve)
    l_r = -n * (st.r_bar - _ratio(ev, rho))
    return l_a, l_s, l_r


def observed_information(sample, alpha: float, sigma: float, rho: float) -> np.ndarray:
    """Observed information (negative Hessian of the log-likelihood), 3x3,
    in the order (alpha, sigma, rho)."""
    st = _stats(sample, sigma)
    ev = inc_gamma_eval(alpha, rho)
    return _information_from_stats(st, ev, alpha, rho)


def _information_from_stats(st: SufficientStats, ev, alpha: float, rho: float) -> np.ndarray:
    n = st.n
    # the (alpha, rho) block is J diag(1, 1/rho), free of the cancelling
    # d_rho_rho + alpha/rho^2 and d_alpha_rho - 1/rho
    j11, _, j21, j22 = _inner_jacobian(ev, rho, _ratio(ev, rho))
    m = np.array(
        [
            [j11, -st.s_bar_sigma, j21],
            [
                -st.s_bar_sigma,
                -1.0 / st.sigma**2
                - (alpha - 1.0) * st.s_bar_sigma_sigma
                + rho * st.r_bar_sigma_sigma,
                st.r_bar_sigma,
            ],
            [j21, st.r_bar_sigma, j22 / rho],
        ]
    )
    return n * m


def pareto_observed_information(sample, alpha: float, sigma: float) -> np.ndarray:
    """2x2 observed information of the Pareto likelihood, order (alpha, sigma)."""
    st = _stats(sample, sigma)
    n = st.n
    return n * np.array(
        [
            [1.0 / alpha**2, -st.s_bar_sigma],
            [-st.s_bar_sigma, -1.0 / sigma**2 - (alpha - 1.0) * st.s_bar_sigma_sigma],
        ]
    )


# ---------------------------------------------------------------- fit result
@dataclass(frozen=True)
class FitResult:
    """Converged estimate with curvature-based uncertainty.

    observed_info and std_errors are in natural parameter scale; the
    log-scale information (parameters alpha, log sigma, log rho, or
    alpha, log sigma for Pareto) is exposed alongside because the optimizer
    works there and heavy-tail fits are better conditioned in it.

    iterations counts profile-likelihood evaluations for every fit (over
    both starts of an interior fit_ftg, or the first alone where the second
    was skipped); an FTG fit on an edge carries the count of that edge's
    own fit.

    pareto_fit is set on every fit_ftg result: the Pareto fit of the same
    sample, which fit_ftg makes once as an edge candidate and profile
    start, so a caller that also reports the Pareto model reads it here
    instead of fitting it again. It is None on Pareto and gamma fits.

    boundary names the limit a fit stopped on: "pareto" or "gamma" for an
    FTG fit on that edge, "exponential" for a Pareto fit whose profile
    runs past its window's upper end.
    """

    family: str
    params: FtgParams
    loglik: float
    score_norm: float
    observed_info: np.ndarray = field(repr=False)
    std_errors: np.ndarray
    converged: bool
    iterations: int
    observed_info_log: np.ndarray = field(repr=False)
    boundary: str | None = None
    pareto_fit: "FitResult | None" = None

    _ARRAYS = ("observed_info", "std_errors", "observed_info_log")

    def to_dict(self) -> dict:
        """JSON form of every field but pareto_fit; params are tagged with
        the fit's family (see model_to_dict)."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        del d["pareto_fit"]
        return {**d, "params": model_to_dict(self.params, self.family),
                **{k: d[k].tolist() for k in self._ARRAYS}}

    @property
    def failed(self) -> bool:
        """A numerical failure: neither converged nor stopped on a named
        limit (the FTG's Pareto edge, the Pareto's exponential limit)."""
        return not (self.converged or self.boundary in ("pareto", "exponential"))


def _std_errors(info: np.ndarray) -> np.ndarray:
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(info)
    diag = np.diag(cov).copy()
    bad = diag <= 0.0
    if np.any(bad):
        # indefinite curvature (ridge / boundary): flag with inf, not nan
        diag[bad] = np.inf
    return np.sqrt(diag)


def _fit_result(family: str, params, loglik: float, score, info: np.ndarray,
                log_scale, iterations: int, n: int,
                pareto_fit: FitResult | None = None) -> FitResult:
    """FitResult at an interior estimate from its score and observed
    information.

    log_scale is the diagonal of the Jacobian from the log-scale parameters
    to the natural ones (1 for alpha, the value itself for sigma and rho).
    score_norm is the largest component of the log-scale score, so it and
    the converged flag do not depend on the data's units.
    """
    score_norm = max(abs(s * j) for s, j in zip(score, log_scale))
    jac = np.diag(log_scale)
    return FitResult(
        family=family,
        params=params,
        loglik=loglik,
        score_norm=score_norm,
        observed_info=info,
        std_errors=_std_errors(info),
        converged=bool(score_norm < 1e-6 * n),
        iterations=iterations,
        observed_info_log=jac @ info @ jac,
        pareto_fit=pareto_fit,
    )


# --------------------------------------------------------------- inner solve
class InnerBoundaryError(FitError):
    """For this sigma the likelihood supremum over (alpha, rho) sits at the
    Pareto limit rho -> 0 instead of an interior point.

    The family is not steep at that edge: along the slice matching the
    log-statistic, the reachable mean of 1 + x/sigma is capped at
    1 / (1 - s_bar), so samples with r_bar at or above the cap have no
    interior root of the score.
    """

    def __init__(self, sigma: float, s_bar: float, r_bar: float):
        super().__init__(
            f"no interior (alpha, rho) optimum at sigma={sigma}: "
            f"r_bar={r_bar:.6g} >= 1/(1 - s_bar)={1.0 / (1.0 - s_bar):.6g}"
        )


def inner_solve(sample, sigma: float, max_iter: int = 200):
    """Joint root of the alpha- and rho-score equations for fixed sigma.

    Returns (alpha_hat, rho_hat, iterations). For fixed sigma the model is a
    truncated-gamma exponential family with natural parameters affine in
    (alpha, rho), so the log-likelihood is concave there and damped Newton
    with backtracking on the likelihood converges from any interior start.

    Raises InnerBoundaryError when no interior root exists (the supremum is
    the Pareto limit), and FitError on outright non-convergence.
    """
    st = _stats(sample, sigma)
    _check_interior_exists(st)
    return _inner_solve_stats(st, max_iter)


def _check_interior_exists(st: SufficientStats) -> None:
    if st.r_bar <= math.exp(st.s_bar) * (1.0 + 1e-12):
        raise FitError(
            "degenerate statistics: mean of 1 + x/sigma does not exceed the "
            "geometric counterpart (all observations equal?)"
        )
    if st.s_bar < 1.0 and st.r_bar * (1.0 - st.s_bar) >= 1.0 - 1e-10:
        raise InnerBoundaryError(st.sigma, st.s_bar, st.r_bar)


def _ratio(ev, rho: float) -> float:
    """R = Gamma(alpha+1, rho) / (rho Gamma(alpha, rho)) from one evaluation."""
    return math.exp(ev.log_value_up - math.log(rho) - ev.log_value)


def _inner_jacobian(ev, rho: float, ratio: float):
    """Jacobian of the inner scores (g1, g2) in (alpha, log rho), from the
    partials of log Gamma(alpha, rho) and R = Gamma(alpha+1, rho) /
    (rho Gamma(alpha, rho)), which the inner solve reads off the same
    evaluation (ev.log_value_up) and the profile takes as r_bar at the root.
    n J diag(1, 1/rho) is the (alpha, rho) block of the observed
    information."""
    # the g2 row is built from R and h = rho^alpha e^-rho / Gamma(alpha, rho)
    # = -rho d_rho: dg2/dlog rho = R + h (1 - R) has no 1/rho-sized terms to
    # cancel
    j12 = ev.d_alpha_rho * rho - 1.0
    h = -rho * ev.d_rho
    return ev.d_alpha_alpha, j12, j12 / rho, ratio + h * (1.0 - ratio)


def _inner_solve_stats(st: SufficientStats, max_iter: int):
    rho_max = math.exp(_LOG_RHO_MAX)
    alpha, rho = max(-1.0 / st.s_bar, -30.0), 1e-3
    ev = inc_gamma_eval(alpha, rho)
    merit = _loglik_from_stats(st, alpha, rho, ev.log_value) / st.n
    g1_tol = _INNER_TOL * max(1.0, abs(st.s_bar))
    for it in range(1, max_iter + 1):
        # inner scores g1 = d_alpha - log rho - s_bar and g2 = r_bar - R, with
        # R = Gamma(alpha+1, rho) / (rho Gamma(alpha, rho)); d_rho - alpha/rho
        # equals -R by the recurrence, but only the ratio form never cancels.
        # Both logs come from one special-function pass
        g1 = ev.d_alpha - math.log(rho) - st.s_bar
        ratio = _ratio(ev, rho)
        g2 = st.r_bar - ratio
        j11, j12, j21, j22 = _inner_jacobian(ev, rho, ratio)
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            break
        # the Newton step in (alpha, rho), where the likelihood is concave
        da = -(g1 * j22 - g2 * j12) / det
        dr = -rho * (j11 * g2 - j21 * g1) / det
        if not math.isfinite(da + dr):
            break
        if abs(g1) < g1_tol and abs(g2) < _INNER_TOL * max(1.0, st.r_bar):
            # the scores already pass here; the last Newton step polishes
            # them as long as it keeps rho > 0, which it need not for a root
            # within one step of the Pareto limit rho -> 0
            return (alpha + da, rho + dr, it) if rho + dr > 0.0 else (alpha, rho, it)
        if rho == rho_max and g2 < 0.0 and abs(g1) < g1_tol:
            # the alpha-score vanishes on the rho cap and the likelihood still
            # rises in rho: this is the box maximum, and by concavity no
            # interior root exists
            raise FitError(
                f"inner optimum at sigma={st.sigma} lies beyond the rho cap "
                f"{rho_max:g} (alpha={alpha})"
            )
        if rho + dr > rho_max:
            # the Newton model's maximum lies past the cap: take its maximum
            # on the cap, where alpha alone is free (j21 is the alpha-rho
            # curvature in these coordinates)
            dr = rho_max - rho
            da = -(g1 + j21 * dr) / j11
        # halve until rho stays positive and the likelihood does not fall;
        # t -> 0 returns the current point, so this ends
        t = 1.0
        while True:
            a_new, r_new = alpha + t * da, min(rho + t * dr, rho_max)
            if r_new > 0.0:
                # the trial point's evaluation serves the next iteration if taken
                ev_new = inc_gamma_eval(a_new, r_new)
                m_new = _loglik_from_stats(st, a_new, r_new, ev_new.log_value) / st.n
                if m_new >= merit - 1e-14 * max(1.0, abs(merit)):
                    break
            t *= 0.5
        alpha, rho, merit, ev = a_new, r_new, m_new, ev_new
    raise FitError(
        f"inner score equations did not converge at sigma={st.sigma} "
        f"(last alpha={alpha}, rho={rho})"
    )


# ------------------------------------------------------------- profile fits
def _pareto_profile(st: SufficientStats, log_sigma: float):
    """Pareto profile log-likelihood n (-log s_bar - log sigma - 1 - s_bar),
    at its closed-form alpha = -1/s_bar, with its slope and curvature in
    log sigma."""
    s_bar = st.s_bar
    # u = d s_bar / d log sigma, and du its own log-sigma derivative
    u = st.sigma * st.s_bar_sigma
    du = u + st.sigma**2 * st.s_bar_sigma_sigma
    return (st.n * (-math.log(s_bar) - log_sigma - 1.0 - s_bar),
            -st.n * (u / s_bar + 1.0 + u),
            -st.n * (du / s_bar - (u / s_bar) ** 2 + du))


def fit_pareto(sample) -> FitResult:
    """Two-parameter Pareto MLE via the closed-form profile alpha(sigma) = -1/s_bar.

    One bracketing walk and safeguarded Newton on the profile's slope search
    log sigma over a fixed window, from e^-28 / 1e4 to 1e4 times the sample
    mean; a maximum past either end is reported at that end. Light-tailed
    data heads past the upper one for the exponential limit, but there
    s_bar < 1e-4, so -alpha already exceeds any practical tail weight: that
    stop is flagged boundary="exponential" and stays unconverged.
    """
    smp = Sample.coerce(sample)
    x = smp.values
    n = x.size
    if n < 2:
        raise FitError("Pareto fit needs at least 2 observations")
    if np.count_nonzero(x > 0) < 1:
        raise FitError("Pareto fit needs positive observations")
    evals = 0

    def profile(log_sigma: float):
        nonlocal evals
        evals += 1
        return _pareto_profile(sufficient_stats(smp, math.exp(log_sigma)), log_sigma)

    x0 = math.log(float(x.mean()))
    hi = x0 + 4.0 * math.log(10.0)
    bracket, x0 = _bracket_maximum(profile, x0, x0 - 4.0 * math.log(10.0) - 28.0, hi)
    if bracket is not None:
        x0 = _refine_maximum(profile, *bracket, xatol=1e-10)
    sigma = math.exp(x0)
    st = sufficient_stats(smp, sigma)
    alpha = -1.0 / st.s_bar
    ll = loglik_pareto(st, alpha, sigma)
    score = (
        n * (1.0 / alpha + st.s_bar),
        n * (-1.0 / sigma + (alpha - 1.0) * st.s_bar_sigma),
    )
    info = pareto_observed_information(st, alpha, sigma)
    fit = _fit_result("pareto", FtgParams.pareto(alpha, sigma), ll, score, info,
                      [1.0, sigma], evals, n)
    return replace(fit, boundary="exponential") if bracket is None and x0 == hi else fit


def fit_gamma(sample) -> FitResult:
    """Gamma MLE: safeguarded Newton on the profile over u = log alpha, with
    theta = alpha / xbar. The slope's root solves log alpha - psi(alpha) =
    gap = log(xbar) - mean(log x), and 1/(2a) < log a - psi(a) < 1/a puts
    it in the closed-form bracket alpha in [1/(2 gap), 1/gap]."""
    x = Sample.coerce(sample).values
    n = x.size
    if n < 2:
        raise FitError("gamma fit needs >= 2 observations")
    if np.any(x <= 0.0):
        raise FitError("gamma fit needs every observation > 0")
    xbar = float(x.mean())
    mean_log = float(np.log(x).mean())
    gap = math.log(xbar) - mean_log  # > 0 unless degenerate
    if gap <= 0.0:
        raise FitError("degenerate sample: all values equal")
    hi = math.log(1.0 / gap)
    if not math.isfinite(hi):
        raise FitError(f"gamma shape equation has no finite root (gap={gap:g})")
    evals = 0

    def profile(u: float):
        # the value only picks the first end of the search: 0 at both is lo
        nonlocal evals
        evals += 1
        alpha = math.exp(u)
        psi, psi1 = digamma_trigamma(alpha)
        slope = n * alpha * (u - psi - gap)
        return 0.0, slope, slope + n * alpha * (1.0 - alpha * psi1)

    lo = hi - math.log(2.0)
    alpha = math.exp(_refine_maximum(profile, lo, profile(lo), hi, profile(hi), xatol=1e-14))
    theta = alpha / xbar
    psi, psi1 = digamma_trigamma(alpha)
    ll = n * (alpha * math.log(theta) - math.lgamma(alpha) + (alpha - 1.0) * mean_log
              - theta * xbar)
    score = (n * (math.log(theta) - psi + mean_log), n * (alpha / theta - xbar))
    info = n * np.array([[psi1, -1.0 / theta], [-1.0 / theta, alpha / theta**2]])
    return _fit_result("gamma", FtgParams.gamma(alpha, theta), ll, score, info,
                       [1.0, theta], evals, n)


class _Profile:
    """Profile log-likelihood over l = log sigma, with a cold inner solve at
    each point.

    Each evaluation returns the profile's value with its slope and curvature
    in l. By the envelope theorem the slope is sigma l_sigma at the inner
    optimum; the curvature is the Schur complement of the (alpha, rho) block
    in the observed information (Murphy & van der Vaart, JASA 95, 2000).
    Where no interior inner optimum exists the profile takes its supremum,
    the Pareto profile at that sigma; genuine numerical failures are
    replaced by a sentinel value with NaN derivatives so the search can
    route around them. ``best`` holds the highest interior point evaluated
    so far, as (value, log_sigma, alpha, rho, st, ev) with that point's
    SufficientStats and IncGammaEval, and ``evals`` counts the evaluations.
    """

    _SENTINEL = -1e15

    def __init__(self, smp: Sample):
        self.smp = smp
        self.best: tuple | None = None
        self.evals = 0

    def value(self, log_sigma: float):
        """(value, slope, curvature) of the profile at log_sigma."""
        self.evals += 1
        # one statistics pass serves the inner solve and the value
        st = sufficient_stats(self.smp, math.exp(log_sigma))
        try:
            a, r, _ = inner_solve(st, st.sigma)
        except InnerBoundaryError:
            return _pareto_profile(st, log_sigma)
        except FitError:
            return self._SENTINEL, math.nan, math.nan
        ev = inc_gamma_eval(a, r)
        out = _loglik_from_stats(st, a, r, ev.log_value)
        if self.best is None or out > self.best[0]:
            self.best = (out, log_sigma, a, r, st, ev)
        sigma, n = st.sigma, st.n
        # l-derivatives of the statistics, and of the log-likelihood at fixed
        # (alpha, rho): the slope sigma l_sigma, and the curvature
        # sigma^2 l_sigma_sigma + sigma l_sigma
        u_s, u_r = sigma * st.s_bar_sigma, sigma * st.r_bar_sigma
        slope = -n * (1.0 - (a - 1.0) * u_s + r * u_r)
        fixed = slope - n * (-1.0 - (a - 1.0) * sigma**2 * st.s_bar_sigma_sigma
                             + r * sigma**2 * st.r_bar_sigma_sigma)
        # (alpha, rho) following sigma adds sigma^2 I_s,th I_th,th^-1 I_th,s,
        # with I_th,th = n J diag(1, 1/rho) and R = r_bar at the root
        j11, j12, j21, j22 = _inner_jacobian(ev, r, st.r_bar)
        schur = n * (j22 * u_s**2 + 2.0 * j12 * u_s * u_r + r * j11 * u_r**2) / (
            j11 * j22 - j12 * j21)
        return out, slope, fixed + schur


def _bracket_maximum(fun, x0: float, lo: float, hi: float):
    """Walk uphill from x0 inside [lo, hi], as the slope points, until the
    slope turns.

    fun returns (value, slope, curvature); a NaN slope (a failed evaluation)
    ends the walk as a turned one does. Steps double from 0.5, so the walk
    reaches either end of a finite window. Returns (bracket, x): bracket is
    (a, fun(a), c, fun(c)), the slope positive at a and not at c, or None
    when the walk ran into an end of the window or fun failed at x0; x is
    the last point walked.
    """
    x0 = min(max(x0, lo + 1e-9), hi - 1e-9)
    p0 = fun(x0)
    if math.isnan(p0[1]):
        return None, x0
    up, step = p0[1] > 0.0, 0.5
    while True:
        x1 = min(hi, x0 + step) if up else max(lo, x0 - step)
        if x1 == x0:
            return None, x0
        p1 = fun(x1)
        if not (p1[1] > 0.0 if up else p1[1] <= 0.0):
            return ((x0, p0, x1, p1) if up else (x1, p1, x0, p0)), x1
        x0, p0, step = x1, p1, 2.0 * step


def _refine_maximum(fun, a: float, pa, c: float, pc, xatol: float) -> float:
    """Safeguarded Newton on the slope inside a bracket (a, fun(a), c, fun(c))
    whose slope is positive at a and not at c, as _bracket_maximum returns.

    Starts from the higher end; a step that leaves (a, c), or a curvature
    that is not negative, is replaced by bisection. A failed evaluation
    (NaN slope) takes the place of the bracket end that failed, or of c.
    Stops once a Newton step, proposed or taken, or the bracket is shorter
    than xatol (or after 200 evaluations), and returns the last point.
    """
    x, (_, g, h) = (a, pa) if pa[0] >= pc[0] else (c, pc)
    a_failed = math.isnan(pa[1])
    for _ in range(200):
        if c - a <= xatol:
            break
        xn = x - g / h if h < 0.0 else math.nan
        if abs(xn - x) < xatol:
            # converged. Once x has become a bracket end, a step this short
            # can round onto x itself, and bisecting from there would walk
            # the whole bracket down again
            break
        if not a < xn < c:
            xn = 0.5 * (a + c)
        step, x = abs(xn - x), xn
        _, g, h = fun(x)
        if g > 0.0 or (math.isnan(g) and a_failed):
            a = x
        elif g == 0.0:
            break
        else:
            c = x
        if step < xatol:
            break
    return x


def fit_ftg(sample) -> FitResult:
    """Three-parameter FTG MLE by profile likelihood in sigma.

    Fits the family's two closure edges once: the Pareto (theta -> 0) and
    the gamma (rho -> 0). The profile is searched from the Pareto fit's
    sigma and then from sigma = the sample mean. From each start, the
    profile's slope sign walks out a bracket of its maximum inside the one
    window sigma in [1e-22, 1e22] times the mean, and safeguarded Newton on
    the slope refines it, unless the bracket already holds the other
    start's optimum. A walk that runs into an end of the window is heading
    for a closure-edge supremum, which the edge fits stand for. The second
    start is skipped when the first has found an interior point above the
    better edge by more than 1e-6 and that edge is the Pareto fit: where
    the gamma edge leads, the profile can hold a higher mode that only the
    walk from the mean finds. Over the 788 fits of tests/fit_parity.py and
    2,970 gof refits of the bundled law, skipping it moved no loglik and
    saved 23% and 38% of the profile evaluations. The interior optimum is
    the highest profile point evaluated, and ``iterations`` counts the
    profile evaluations of the starts that ran.

    The edge is decided once: of the interior optimum and the two edge
    fits, the highest log-likelihood wins, and an edge wins any tie within
    1e-6. A winning edge is reported as fitted, with boundary="pareto" or
    "gamma" (see _edge_result); an interior optimum is reported from the
    statistics and special-function evaluation of its profile point. Every
    result carries the Pareto fit in pareto_fit.
    """
    smp = Sample.coerce(sample)
    x = smp.values
    n = x.size
    if n < 3:
        raise FitError("FTG fit needs at least 3 observations")
    pos = x > 0  # checked in place: a copy of the positives costs the data's size
    n_pos = np.count_nonzero(pos)
    if n_pos < 2 or np.min(x, where=pos, initial=np.inf) == x.max():
        raise FitError("FTG fit needs at least two distinct positive values")

    pareto = fit_pareto(smp)
    edges = [pareto]
    if n_pos == n:
        try:
            edges.append(fit_gamma(smp))
        except FitError:
            pass

    edge = max(edges, key=lambda f: f.loglik)
    log_mean = math.log(smp.mean)
    prof = _Profile(smp)
    for x0 in (math.log(pareto.params.sigma), log_mean):
        other = prof.best
        # the first walk starts from the Pareto fit's sigma. Once it has
        # beaten the better edge and that edge is the Pareto, the walk from
        # the mean is skipped; where the gamma edge leads, the profile can
        # hold a second, higher mode that only that walk finds
        if other and edge is pareto and other[0] > edge.loglik + 1e-6:
            break
        bracket, _ = _bracket_maximum(prof.value, x0, log_mean + math.log(1e-22),
                                      log_mean + math.log(1e22))
        # a bracket around the other start's optimum holds nothing new
        if bracket and not (other and bracket[0] <= other[1] <= bracket[2]):
            _refine_maximum(prof.value, *bracket, xatol=1e-8)

    # the optimum is read off the profile's own bookkeeping: the last point
    # may sit on a failed-evaluation cliff
    if prof.best is None or edge.loglik >= prof.best[0] - 1e-6:
        return _edge_result(edge, pareto)
    ll, _, alpha, rho, st, ev = prof.best
    return _fit_result("ftg", FtgParams.from_sigma(alpha, st.sigma, rho), ll,
                       _score_from_stats(st, ev, alpha, rho),
                       _information_from_stats(st, ev, alpha, rho),
                       [1.0, st.sigma, rho], prof.evals, n, pareto_fit=pareto)


def _edge_result(edge_fit: FitResult, pareto: FitResult) -> FitResult:
    """FTG fit whose optimum lies on the gamma or Pareto edge: the boundary
    model's own fit, flagged, rather than a fake interior optimum. A Pareto
    edge is never reported as converged."""
    return replace(edge_fit, family="ftg", boundary=edge_fit.family,
                   converged=edge_fit.converged and edge_fit.family != "pareto",
                   pareto_fit=pareto)


def _fit_family(sample, family: str) -> FitResult:
    """fit_ftg or fit_pareto by name, for the commands that fit either."""
    if family == "ftg":
        return fit_ftg(sample)
    if family == "pareto":
        return fit_pareto(sample)
    raise ValueError(f"unknown family {family!r} (expected 'pareto' or 'ftg')")


def lrt_pareto_vs_ftg(ftg: FitResult) -> tuple[float, float]:
    """Likelihood-ratio test of the Pareto null inside the FTG alternative,
    from a fit_ftg result and the Pareto fit it carries in pareto_fit.

    statistic = 2 (l_FTG - l_Pareto), referenced to chi-square with one
    degree of freedom. The Pareto sits on the rho = 0 edge of the parameter
    space, so the chi-square(1) reference is the conventional (not
    boundary-corrected) choice. The FTG family contains the Pareto, so a
    statistic below 0 (an FTG fit short of the Pareto likelihood) is read
    as 0.
    """
    pareto = ftg.pareto_fit
    if pareto is None:
        raise ValueError("the LRT needs a fit_ftg result, which carries its Pareto fit")
    if ftg.failed or pareto.failed:
        warnings.warn("LRT computed from a fit that did not fully converge")
    stat = max(2.0 * (ftg.loglik - pareto.loglik), 0.0)
    return stat, chi2_survival_1df(stat)
