"""Upper incomplete gamma function for arbitrary real shape, in log scale.

The integral Gamma(a, x) = int_x^inf t^(a-1) e^-t dt converges for every
real a as long as x > 0, but standard libraries only evaluate it for a > 0.
This module provides log Gamma(a, x) over a in [-50, 200], x in [1e-12, 700]
with relative error of Gamma below 1e-12, plus the partial derivatives of
d(a, x) = log Gamma(a, x) needed for likelihood work, and the chi-square(1)
tail probability used by likelihood-ratio tests.

Everything is computed in log scale: Gamma(a, x) itself overflows already
for moderately negative a when x is small (it grows like x^a / (-a)).

Each branch carries the first two shape derivatives through its own
recurrence in the same pass as the value, as Moore's AS 187 (Appl. Stat. 31,
1982) does for the regularized integral: the continued fraction, the lower
series and the small-shape series are differentiated term by term, and the
downward recurrence passes both derivatives down the chain. The other three
partials follow in closed form. Against mpmath at 60 digits over the box,
at the branch seams and at 1,000 random points, the errors relative to
max(1, |reference|) are at most 1.2e-12 on d_alpha and 4.5e-11 on
d_alpha_alpha (largest just above |alpha - k| = 0.05 for integer k <= 0,
where the small-shape head switches from its Taylor series to
math.lgamma); see tests/test_specfun.py.

The same pass returns log Gamma(alpha + 1, rho), which the fitter's inner
solve needs for the ratio Gamma(alpha + 1, rho) / (rho Gamma(alpha, rho)):
on the step-down chain it is the previous link, and at the small-shape
anchor the series' terms t_k give it as Gamma(1 + a) + x^a sum k t_k, the
lower series of Gamma(a + 1, x) with no pole to cancel. Off the chain it
takes one more value-only evaluation at alpha + 1. Against mpmath it is
within 4.0e-14 where the inner solve reads it, the error of a separate
value-only call at alpha + 1 there.

Each branch has two implementations. The value-and-partials ones above work
on one float at a time, for the inner solve's per-call latency; they serve
only inc_gamma_eval. Every value-only evaluation, log_upper_inc_gamma on a
number or an array and d_up off the chain, runs the array ones below: the
branch is picked per element by mask, the lower and small-shape series run
over all their elements at once until the slowest has converged, and the
step-down chain walks them together. The continued fraction alone runs
element by element (see _cf_values). A number runs the same code on NumPy
scalars, at a cost: on a 2-core x86_64 machine (median of 8 alternating
runs), a number takes 19.9 us at (-0.2, 0.3) against 10.7 us on the former
float-only value branches, and 58.7 us at (-0.2, 1.2) against 40.2 us,
while the 40 probability transforms of the bundled fit take 133 us in one
call against 426 us as 40 calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

_EULER = 0.5772156649015328606
_TINY = 1e-300

# zeta(2) ... zeta(8), for the Taylor series of lgamma(1+a) at a = 0
_ZETAS = (
    (1.0040773561979443, 8),
    (1.0083492773819228, 7),
    (1.0173430619844491, 6),
    (1.0369277551433699, 5),
    (1.0823232337111382, 4),
    (1.2020569031595943, 3),
    (1.6449340668482264, 2),
)

# Taylor coefficients c_1 ... c_17 of Gamma(1+a) at a = 0
_GAMMA1P_TAYLOR = (
    -0.57721566490153286061,
    0.98905599532797255540,
    -0.90747907608088628902,
    0.98172808683440018734,
    -0.98199506890314520210,
    0.99314911462127619315,
    -0.99600176044243153397,
    0.99810569378312892198,
    -0.99902526762195486779,
    0.99951565607277744107,
    -0.99975659750860128703,
    0.99987827131513327573,
    -0.99993906420644431684,
    0.99996951776348210450,
    -0.99998475269937704874,
    0.99999237447907321586,
    -0.99999618658947331203,
)

# B_2k / (2k) and B_2k, k = 1 ... 8, for the asymptotic series of digamma
# and trigamma
_PSI_ASYMPTOTIC = (
    0.083333333333333333333, -0.0083333333333333333333,
    0.0039682539682539682540, -0.0041666666666666666667,
    0.0075757575757575757576, -0.021092796092796092796,
    0.083333333333333333333, -0.44325980392156862745,
)
_PSI1_ASYMPTOTIC = (
    0.16666666666666666667, -0.033333333333333333333,
    0.023809523809523809524, -0.033333333333333333333,
    0.075757575757575757576, -0.25311355311355311355,
    1.1666666666666666667, -7.0921568627450980392,
)


def digamma_trigamma(x: float) -> tuple[float, float]:
    """psi(x) and psi'(x) for x > 0: upward recurrence to x >= 10, then the
    asymptotic series, whose omitted terms are below 1e-16 there."""
    psi = psi1 = 0.0
    while x < 10.0:
        inv = 1.0 / x
        psi -= inv
        psi1 += inv * inv
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    s = t = 0.0
    for cp, ct in zip(reversed(_PSI_ASYMPTOTIC), reversed(_PSI1_ASYMPTOTIC)):
        s = (s + cp) * inv2
        t = (t + ct) * inv2
    psi += math.log(x) - 0.5 * inv - s
    psi1 += inv + 0.5 * inv2 + t * inv
    return psi, psi1


def _log_continued_fraction(alpha: float, rho: float):
    """Legendre continued fraction, modified Lentz recurrence, with the
    first two shape derivatives.

    Converges for rho > max(1, alpha + 1); valid for negative alpha. The
    fraction is 1/E_0 times the product of the Lentz factors C_i / E_i, where
    C_i and E_i = 1/D_i obey the same recurrence x_i = b_i + a_i / x_{i-1}
    from different starts. The first and second log shape derivatives of
    both follow from that recurrence differentiated in alpha (b_i' = -1,
    a_i' = i), and those of the fraction are their running sums.
    """
    b = rho + 1.0 - alpha
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    # x'/x and x''/x for x = C_i (p, q) and x = E_i (r, s); h1, h2 are the
    # first and second shape derivatives of log h
    p = q = s = 0.0
    r = -d
    h1, h2 = d, d * d
    hits = 0
    for i in range(1, 100_001):
        ia = i - alpha
        an = -i * ia
        b += 2.0
        c_prev, d_prev = c, d
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        # x'/x = (i u - a_i u p - 1) / x and
        # x''/x = (a_i u (2 p^2 - q) - 2 i u p) / x, u = 1/x_{i-1}
        uc, ue = i / c_prev, i * d_prev
        wc, we = uc * ia, ue * ia  # -a_i u
        inv_c = 1.0 / c
        q = (wc * (q - 2.0 * p * p) - 2.0 * uc * p) * inv_c
        p = (uc + wc * p - 1.0) * inv_c
        s = (we * (s - 2.0 * r * r) - 2.0 * ue * r) * d
        r = (ue + we * r - 1.0) * d
        inc1, inc2 = p - r, q - s - p * p + r * r
        h1 += inc1
        h2 += inc2
        # require two consecutive converged steps: lone |delta - 1| dips
        # below tolerance can occur before the tail has settled
        if (abs(delta - 1.0) < 1e-16 and abs(inc1) < 1e-16 * (1.0 + abs(h1))
                and abs(inc2) < 1e-16 * (1.0 + abs(h2))):
            hits += 1
            if hits >= 2:
                lr = math.log(rho)
                return -rho + alpha * lr + math.log(h), lr + h1, h2
        else:
            hits = 0
    raise NumericsError(
        f"incomplete gamma continued fraction stalled at alpha={alpha}, rho={rho}"
    )


def _log_series(alpha: float, rho: float):
    """log Gamma(alpha, rho) via the lower-gamma power series, alpha > 1,
    with the first two shape derivatives.

    gamma(alpha, rho) = rho^alpha e^-rho sum_k t_k with
    t_k = rho^k / (alpha (alpha+1) ... (alpha+k)), so t_k'/t_k = -H_k and
    t_k''/t_k = H_k^2 + H2_k for the partial sums H_k, H2_k of 1/(alpha+j)
    and 1/(alpha+j)^2.
    """
    ap = alpha
    delt = 1.0 / alpha
    s = delt
    hk = delt
    h2k = delt * delt
    s1 = -delt * hk
    s2 = delt * (hk * hk + h2k)
    for _ in range(10_000):
        ap += 1.0
        delt *= rho / ap
        s += delt
        inv = 1.0 / ap
        hk += inv
        h2k += inv * inv
        s1 -= delt * hk
        s2 += delt * (hk * hk + h2k)
        if abs(delt) < abs(s) * 1e-17:
            break
    lgam = math.lgamma(alpha)
    lr = math.log(rho)
    log_p = alpha * lr - rho + math.log(s) - lgam
    value = lgam + math.log1p(-math.exp(log_p))
    # Gamma(alpha, rho) = Gamma(alpha) (1 - P), P the regularized lower part
    psi, psi1 = digamma_trigamma(alpha)
    lp1 = lr + s1 / s - psi
    lp2 = s2 / s - (s1 / s) ** 2 - psi1
    w = math.exp(log_p) / -math.expm1(log_p)  # P / (1 - P)
    return value, psi - w * lp1, psi1 - w * (lp1 * lp1 + lp2) - (w * lp1) ** 2


def _lgamma1p(a: float) -> float:
    """lgamma(1 + a) without the argument-rounding loss near a = 0."""
    if abs(a) >= 0.01:
        return math.lgamma(1.0 + a)
    lg = 0.0
    for zk, k in _ZETAS:
        lg = (lg + ((-1) ** k) * zk / k) * a
    return (lg - _EULER) * a


def _small_shape_head_partials(a: float, lx: float, head: float, xa: float,
                               g: float):
    """First two a-derivatives of head = (Gamma(1+a) - xa)/a, xa = x^a,
    g = Gamma(1+a), stable at a = 0.

    Away from a = 0 they come from differentiating
    a head = Gamma(1+a) - x^a, with digamma and trigamma at 1 + a. Where
    both a and a log x are small that quotient cancels, and the Taylor
    series head = sum_k (c_{k+1} - (log x)^(k+1)/(k+1)!) a^k serves instead.
    """
    if abs(a) >= 0.05 or abs(a * lx) >= 0.25:
        psi, psi1 = digamma_trigamma(1.0 + a)
        h1 = (g * psi - xa * lx - head) / a
        return h1, (g * (psi * psi + psi1) - xa * lx * lx - 2.0 * h1) / a
    h1 = h2 = 0.0
    lk = lx  # (log x)^(k+1) / (k+1)!
    pw, pw2 = 1.0, 0.0  # a^(k-1), a^(k-2)
    for k in range(1, len(_GAMMA1P_TAYLOR)):
        lk *= lx / (k + 1)
        e = _GAMMA1P_TAYLOR[k] - lk
        h1 += k * e * pw
        h2 += k * (k - 1) * e * pw2
        pw, pw2 = pw * a, pw
    return h1, h2


def _log_small_shape(a: float, x: float, lx: float):
    """log Gamma(a, x) for |a| <= 0.5, 0 < x <= 2, including a = 0 exactly,
    with its first two a-derivatives and log Gamma(a+1, x).

    Rearranged power series with the 1/a pole cancelled analytically:

        Gamma(a, x) = (Gamma(a+1) - x^a)/a - x^a sum_{k>=1} t_k,
        t_k = (-x)^k / (k! (a+k))

    Each piece is evaluated in a form that stays stable as a -> 0, where the
    naive Gamma(a) - gamma(a, x) subtraction loses all precision. The sum's
    a-derivatives come term by term. The same terms also give
    log Gamma(a+1, x) = log(Gamma(1+a) + x^a sum_{k>=1} k t_k), whose sum is
    the lower series of gamma(a+1, x) with no pole to cancel.
    """
    lg1p = _lgamma1p(a)
    if a == 0.0:
        head = -_EULER - lx
    else:
        head = (math.expm1(lg1p) - math.expm1(a * lx)) / a
    term = 1.0
    s = s1 = s2 = s_up = 0.0
    for k in range(1, 500):
        term *= -x / k
        t = term / (a + k)
        s += t
        s_up += k * t
        inv = 1.0 / (a + k)
        t *= inv
        s1 -= t
        s2 += t * inv
        if abs(term) < 1e-18 * max(1.0, abs(s)):
            break
    xa = math.exp(a * lx)
    g = head - xa * s
    g1p = math.exp(lg1p)
    hd1, hd2 = _small_shape_head_partials(a, lx, head, xa, g1p)
    d1 = (hd1 - xa * (lx * s + s1)) / g
    g2 = hd2 - xa * (lx * (lx * s + 2.0 * s1) + 2.0 * s2)
    return math.log(g), d1, g2 / g - d1 * d1, math.log(g1p + xa * s_up)


def _step_down(up, a: float, rho: float, log_rho: float):
    """log Gamma(a, rho) and its a-derivatives from those at a + 1, via

        Gamma(a, rho) = (Gamma(a+1, rho) - rho^a e^-rho) / a

    carried in log scale. Differentiating a Gamma(a) = Gamma(a+1) - rho^a e^-rho
    gives the derivatives through the ratios Gamma(a+1)/Gamma(a) and
    rho^a e^-rho / Gamma(a), which differ by a. Over the documented box the
    two terms never come within 20% of each other; a subtraction that
    cancels raises instead of returning a value without precision.
    """
    log_g_up, u1, u2 = up[:3]
    l_term = a * log_rho - rho
    if a > 0:
        hi, lo = log_g_up, l_term
    else:
        hi, lo = l_term, log_g_up
    ratio = math.exp(lo - hi)
    if abs(1.0 - ratio) < 1e-6:
        raise _cancels(a, rho)
    value = hi + math.log1p(-ratio) - math.log(abs(a))
    k = abs(a) / (1.0 - ratio)
    r_up, r_term = (k, k * ratio) if a > 0 else (k * ratio, k)
    d1 = (r_up * u1 - r_term * log_rho - 1.0) / a
    m2 = (r_up * (u2 + u1 * u1) - r_term * log_rho * log_rho - 2.0 * d1) / a
    return value, d1, m2 - d1 * d1, log_g_up


def _cancels(a: float, rho) -> NumericsError:
    return NumericsError(f"incomplete gamma recurrence cancels at alpha={a}, rho={rho}")


def _on_fraction(alpha: float, rho):
    """Whether the continued fraction serves rho (a number, or elementwise
    over an array). It also converges (fast) for deeply negative alpha at
    any rho, which keeps the recurrence chain below ~30 steps."""
    return (rho > max(1.0, alpha + 1.0)) | (alpha <= -30.0)


def _log_upper_inc_gamma(alpha: float, rho: float):
    """(d, d_alpha, d_alpha_alpha, d_up) of d = log Gamma(alpha, rho), rho > 0,
    and d_up = log Gamma(alpha + 1, rho)."""
    if _on_fraction(alpha, rho):
        out = _log_continued_fraction(alpha, rho)
    elif alpha > 1.0:
        out = _log_series(alpha, rho)
    else:
        log_rho = math.log(rho)
        if alpha > 0.5:
            return _step_down(_log_series(alpha + 1.0, rho), alpha, rho, log_rho)
        # anchor the recurrence at the chain point inside (-0.5, 0.5], where
        # the dedicated series is stable, then walk down to alpha; each
        # link's value is the next one's d_up
        j = int(math.floor(0.5 - alpha))
        a = alpha + j
        out = _log_small_shape(a, rho, log_rho)
        for _ in range(j):
            a -= 1.0
            out = _step_down(out, a, rho, log_rho)
        return out
    # off the step-down chain d_up takes one more value-only evaluation, as
    # a separate call would
    return (*out, float(_log_values(alpha + 1.0, np.float64(rho))))


# ------------------------------------------------------- values over arrays
# Each function below takes a 1-D array of rho, or one NumPy float, at one
# shape, and works with operators and ufuncs only, so a single number runs
# on NumPy's scalar arithmetic rather than on a one-element array.
def _cf_values(alpha: float, rho):
    """_log_continued_fraction's value, element by element.

    Near rho = 1 the fraction takes about 90 Lentz steps, each some ten
    NumPy calls over an array: vectorized, it took about 0.7 ms for the one
    or two such elements a 40-point gof transform typically has, against
    about 30 us per element in floats. So the elements run one at a time;
    the recurrence and its stop are the scalar branch's without the
    derivatives.
    """
    log_h = []
    for r in np.ravel(rho).tolist():
        b = r + 1.0 - alpha
        c = 1.0 / _TINY
        d = h = 1.0 / b
        hits = 0
        for i in range(1, 100_001):
            an = -i * (i - alpha)
            b += 2.0
            d = an * d + b
            if abs(d) < _TINY:
                d = _TINY
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            hits = hits + 1 if abs(delta - 1.0) < 1e-16 else 0
            if hits >= 2:
                break
        else:
            raise NumericsError(
                f"incomplete gamma continued fraction stalled at alpha={alpha}, rho={r}")
        log_h.append(math.log(h))
    return alpha * np.log(rho) - rho + np.reshape(log_h, np.shape(rho))


def _series_values(alpha: float, rho):
    """_log_series's value, alpha > 1. The terms' ratio to the partial sum
    grows with rho, so the sum stops when the largest rho's has settled."""
    ap = alpha
    delt = s = 1.0 / alpha
    r_max = float(rho.max())
    delt_max = s_max = delt
    for _ in range(10_000):
        ap += 1.0
        delt = delt * (rho / ap)
        s = s + delt
        delt_max *= r_max / ap
        s_max += delt_max
        if delt_max < s_max * 1e-17:
            break
    lgam = math.lgamma(alpha)
    log_p = alpha * np.log(rho) - rho + np.log(s) - lgam
    return lgam + np.log1p(-np.exp(log_p))


def _small_shape_values(a: float, x, lx):
    """_log_small_shape's value. The sum is a polynomial in x, taken by
    Horner's rule to the degree where the largest x's term, x^k / k!, falls
    below 1e-18: no element's own test, 1e-18 max(1, |s|), stops earlier."""
    lg1p = _lgamma1p(a)
    if a == 0.0:
        head = -_EULER - lx
    else:
        head = (math.expm1(lg1p) - np.expm1(a * lx)) / a
    # coefficients (-1)^k / (k! (a + k)) of x^k, k = 1, 2, ...
    x_max = float(x.max())
    coef, t, t_max, k = [], 1.0, 1.0, 0
    while t_max >= 1e-18 and k < 500:
        k += 1
        t /= -k
        t_max *= x_max / k
        coef.append(t / (a + k))
    s = coef[-1]
    for c in reversed(coef[:-1]):
        s = s * x + c
    return np.log(head - np.exp(a * lx) * (s * x))


def _step_down_values(up, a: float, rho, log_rho):
    """_step_down's value, from log Gamma(a + 1, rho)."""
    l_term = a * log_rho - rho
    hi, lo = (up, l_term) if a > 0 else (l_term, up)
    ratio = np.exp(lo - hi)  # below 1 unless rounding says otherwise
    if ratio.max() > 1.0 - 1e-6:
        raise _cancels(a, rho)
    return hi + np.log1p(-ratio) - math.log(abs(a))


def _log_values(alpha: float, rho):
    """log Gamma(alpha, rho) for rho > 0: each element takes the branch that
    _log_upper_inc_gamma would, by mask."""
    on_cf = _on_fraction(alpha, rho)
    n_cf = np.count_nonzero(on_cf)
    if n_cf == np.size(rho):
        return _cf_values(alpha, rho)
    if n_cf:  # an array with elements on both sides
        out = np.empty_like(rho)
        out[on_cf] = _cf_values(alpha, rho[on_cf])
        out[~on_cf] = _log_values(alpha, rho[~on_cf])
        return out
    if alpha > 1.0:
        return _series_values(alpha, rho)
    log_rho = np.log(rho)
    if alpha > 0.5:
        return _step_down_values(_series_values(alpha + 1.0, rho), alpha, rho, log_rho)
    j = int(math.floor(0.5 - alpha))
    a = alpha + j
    out = _small_shape_values(a, rho, log_rho)
    for _ in range(j):
        a -= 1.0
        out = _step_down_values(out, a, rho, log_rho)
    return out


def log_upper_inc_gamma(alpha: float, rho):
    """log of the upper incomplete gamma function Gamma(alpha, rho), for a
    number rho or elementwise over an array of rho at one alpha.

    Parameters
    ----------
    alpha : any real shape.
    rho : lower integration limit, a number or an array, >= 0 (0 allowed
        only for alpha > 0, where the integral is the complete gamma
        function).

    Returns a float for a number rho and an array of rho's shape otherwise.

    Raises
    ------
    ValueError
        If some rho < 0, or rho == 0 with alpha <= 0 (the integral diverges).
    """
    alpha = float(alpha)
    y = np.asarray(rho, dtype=float)
    lo = float(y.min()) if y.size else 1.0
    if math.isnan(alpha) or math.isnan(lo):
        raise ValueError("alpha and rho must be numbers")
    if lo < 0.0:
        raise ValueError(f"rho must be >= 0, got {lo}")
    if lo > 0.0:
        out = _log_values(alpha, y[()] if y.ndim == 0 else y.ravel())
    elif alpha <= 0.0:
        raise ValueError("Gamma(alpha, 0) diverges for alpha <= 0")
    elif y.ndim == 0:
        return math.lgamma(alpha)
    else:
        flat = y.ravel()
        out = np.full_like(flat, math.lgamma(alpha))
        pos = flat > 0.0
        out[pos] = _log_values(alpha, flat[pos])
    return float(out) if y.ndim == 0 else out.reshape(y.shape)


@dataclass(frozen=True)
class IncGammaEval:
    """d = log Gamma(alpha, rho) together with its first and second partials,
    and log_value_up = log Gamma(alpha + 1, rho) from the same pass.

    Where the step-down chain serves (alpha, rho), log_value_up is the
    chain's previous link, or for alpha in (-0.5, 0.5] the small-shape
    series' by-product. On the continued-fraction and lower-series branches
    it is one more value-only evaluation at alpha + 1. Against
    mpmath it is within 2.6e-15 on the seam grid and 4.0e-14 on the inner
    solve's region (see tests/test_specfun.py).
    """

    log_value: float
    d_alpha: float
    d_rho: float
    d_alpha_alpha: float
    d_alpha_rho: float
    d_rho_rho: float
    log_value_up: float


def d_rho(alpha: float, rho: float, log_value: float) -> float:
    """Closed-form d/d_rho of log Gamma(alpha, rho): -rho^(a-1) e^-rho / Gamma,
    given log_value = log Gamma(alpha, rho)."""
    return -math.exp((alpha - 1.0) * math.log(rho) - rho - log_value)


def inc_gamma_eval(alpha: float, rho: float) -> IncGammaEval:
    """Evaluate d(alpha, rho) = log Gamma(alpha, rho) and all five partials.

    The value, the two alpha-derivatives and log Gamma(alpha + 1, rho) come
    from one pass through the branch that serves (alpha, rho); d_rho and
    d_rho_rho are closed forms, and d_alpha_rho = d_rho (log rho - d_alpha)
    is exact.
    """
    alpha, rho = float(alpha), float(rho)
    if not rho > 0.0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if math.isnan(alpha):
        raise ValueError("alpha and rho must be numbers")
    d0, da, daa, d_up = _log_upper_inc_gamma(alpha, rho)
    dr = d_rho(alpha, rho, d0)
    # positional: a frozen dataclass takes twice as long by keyword
    return IncGammaEval(d0, da, dr, daa, dr * (math.log(rho) - da),
                        dr * ((alpha - 1.0) / rho - 1.0 - dr), d_up)


def chi2_survival_1df(x: float) -> float:
    """P(chi-square with 1 df > x) = erfc(sqrt(x / 2))."""
    if x < 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    return math.erfc(math.sqrt(0.5 * x))
