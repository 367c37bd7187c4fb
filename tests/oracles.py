"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's own code paths: quadrature goes
through the raw defining integral with its own transform, erfc through its
Maclaurin series, derivatives through finite differences, and Poisson tail
probabilities through direct summation of the pmf. The last two helpers,
the sample-free profile value and the L1 distance to the Pareto limit, do
build on the library's incomplete gamma function; only tests use them.
"""

import math

import numpy as np
from scipy.integrate import quad

from ftgamma import NumericsError, inc_gamma_eval, log_upper_inc_gamma


def quad_log_upper_gamma(alpha: float, rho: float) -> float:
    """log of int_rho^inf t^(a-1) e^-t dt by adaptive quadrature in u = log t,
    with the integrand's peak factored out."""
    u_lo = math.log(rho)
    u_peak = max(u_lo, math.log(alpha)) if alpha > 0 else u_lo
    log_peak = alpha * u_peak - math.exp(u_peak)

    def f(u):
        return math.exp(alpha * u - math.exp(u) - log_peak)

    u_hi = max(u_peak, math.log(max(abs(alpha), 1.0) + 745.0)) + 1.0
    total = 0.0
    pieces = sorted({u_lo, min(u_peak + 2.0, u_hi), u_hi})
    for a, b in zip(pieces[:-1], pieces[1:]):
        if b > a:
            v, _ = quad(f, a, b, epsabs=1e-300, epsrel=1e-13, limit=500)
            total += v
    return log_peak + math.log(total)


def erfc_series(x: float, terms: int = 200) -> float:
    """erfc via the Maclaurin series of erf; fine for |x| <= 3."""
    s = 0.0
    term = x
    for n in range(terms):
        if n > 0:
            term *= -x * x / n
        s += term / (2 * n + 1)
    return 1.0 - 2.0 / math.sqrt(math.pi) * s


def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_second_diff(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def fd_gradient(f, x0, rel=1e-6):
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        h = rel * max(abs(x0[i]), 1e-6)
        e = np.zeros_like(x0)
        e[i] = h
        g[i] = (f(x0 + e) - f(x0 - e)) / (2.0 * h)
    return g


def fd_hessian(f, x0, rel=1e-4):
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    H = np.zeros((n, n))
    h = rel * np.maximum(np.abs(x0), 1e-8)
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ei[i] = h[i]
            ej = np.zeros(n)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return H


def poisson_quantile_exact(lam: float, level: float) -> int:
    """Smallest k with P(N <= k) >= level, by direct pmf summation."""
    p = math.exp(-lam)
    cum = p
    k = 0
    while cum < level:
        k += 1
        p *= lam / k
        cum += p
        if k > 100000:
            raise RuntimeError("summation ran away")
    return k


def pdf_quadrature_norm(kernel, lo=0.0, pieces=(1e-3, 0.1, 1.0, 10.0, 100.0, 1e4)):
    """Integrate a nonnegative kernel over (lo, inf) piecewise."""
    cuts = [lo] + [c for c in pieces if c > lo]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        v, _ = quad(kernel, a, b, epsabs=1e-14, epsrel=1e-12, limit=400)
        total += v
    v, _ = quad(kernel, cuts[-1], np.inf, epsabs=1e-14, epsrel=1e-12, limit=400)
    return total + v


def compound_poisson_fft(severity_cdf, lam: float, h: float, n: int):
    """Law of S = L_1 + ... + L_N, N ~ Poisson(lam), on the grid k*h, k < n.

    Each severity is rounded to the nearest grid point (the cell of k*h is
    ((k - 1/2) h, (k + 1/2) h]; the last cell takes the whole upper tail),
    and the compound law follows from exp(lam (phi - 1)) of the discrete
    transform, zero-padded to 2n so that no mass wraps around. Returns the
    grid and the probability mass on it. The rounding moves every loss by
    at most h/2, so with thin tails beyond n*h the law is exact to O(h).
    """
    edges = (np.arange(n - 1) + 0.5) * h
    cum = np.array([severity_cdf(float(e)) for e in edges])
    mass = np.diff(np.concatenate([[0.0], cum, [1.0]]))
    phi = np.fft.rfft(mass, 2 * n)
    agg = np.fft.irfft(np.exp(lam * (phi - 1.0)), 2 * n)[:n]
    return np.arange(n) * h, np.clip(agg, 0.0, None)


def tail_var_es(grid, mass, level: float):
    """Quantile at level (smallest grid point with P(S <= x) >= level) and
    the expected shortfall E[S | S > quantile] of a discrete law."""
    k = int(np.searchsorted(np.cumsum(mass), level))
    beyond = mass[k + 1:]
    return float(grid[k]), float((beyond * grid[k + 1:]).sum() / beyond.sum())


def loglik_sample_free(n: int, alpha: float, sigma: float, rho: float) -> float:
    """Profile log-likelihood value written without the sample.

    Valid only at inner-solve solutions (score in alpha and rho both zero),
    where the sufficient statistics can be eliminated:
    -n (d - log(rho/sigma) - (alpha-1) d_alpha - rho d_rho + alpha).
    """
    ev = inc_gamma_eval(alpha, rho)
    return -n * (
        ev.log_value
        - math.log(rho / sigma)
        - (alpha - 1.0) * ev.d_alpha
        - rho * ev.d_rho
        + alpha
    )


def pareto_limit_distance(alpha: float, sigma: float, rho: float) -> float:
    """L1 distance between FTG(alpha, rho/sigma, rho) and Pareto(alpha, sigma).

    The density ratio is monotone in x, so the two densities cross exactly
    once; the head |f - p| is integrated by adaptive quadrature in
    y = log(1 + x/sigma) and the tail beyond the crossing is the exact
    difference of the two survival functions. Used by the convergence
    tests of the Pareto boundary.
    """
    if not (alpha < 0.0 and sigma > 0.0 and rho > 0.0):
        raise ValueError("requires alpha < 0, sigma > 0, rho > 0")

    d0 = log_upper_inc_gamma(alpha, rho)
    # log of f/p at exceedance coordinate y: log_c - rho e^y, with
    # f(x) dy-density = e^(alpha y) * c * e^(-rho e^y), p -> -alpha e^(alpha y)
    log_c = alpha * math.log(rho) - d0 - math.log(-alpha)
    if log_c <= rho:
        raise NumericsError(
            "density ratio never exceeds 1; crossing assumption violated "
            f"(alpha={alpha}, rho={rho})"
        )
    y0 = math.log(log_c / rho)

    log_ratio_scale = alpha * math.log(rho) - d0

    def integrand(y: float) -> float:
        return math.exp(alpha * y) * (
            math.exp(log_ratio_scale - rho * math.exp(y)) + alpha
        )

    head, err = quad(integrand, 0.0, y0, epsabs=1e-14, epsrel=1e-11, limit=400)
    if err > max(1e-12, 1e-6 * abs(head)):
        raise NumericsError(
            f"L1 head quadrature did not converge (err={err:.2e})"
        )
    # tail: integral of (p - f) over (y0, inf) = S_pareto(y0) - S_ftg(y0)
    tail = math.exp(alpha * y0) - math.exp(
        log_upper_inc_gamma(alpha, rho * math.exp(y0)) - d0
    )
    return head + tail
