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
downward recurrence passes both derivatives down the chain. d_rho and
d_alpha_rho follow in closed form. Against mpmath at 60 digits over the box,
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
within 4.1e-14 where the inner solve reads it, the error of a separate
value-only call at alpha + 1 there.

Each branch has one implementation, for one float rho or a 1-D array of
rho at one shape, and picks its namespace once per call. A float computes
in Python floats with NumPy's exp, expm1, log and log1p (see _FLOAT), so it
rounds as the same element of an array does, and takes its branch by if.
An array computes in NumPy and takes its branches by mask: the lower and
small-shape series run over all their elements at once until the largest
rho's term has settled, and the step-down chain walks them together. The
continued fraction runs element by element (see _continued_fraction). The
partials and log Gamma(alpha + 1, rho) are computed only when
inc_gamma_eval asks for them, on a float. On a 2-core x86_64 machine
(Python 3.11, NumPy 2.4; medians of 15 alternating in-process rounds), a
number takes 3.7 us at (-0.2, 4e-4) and 3.5 us at (1.5, 0.5), against 10.9
and 12.0 us when it ran the array code on NumPy scalars and 3.3 and 3.2 us
on the former float-only value code, which rounded with math.
inc_gamma_eval takes 19.4 us per call over perfbench/micro.py's grid,
against 24.1 us when its d_up off the chain ran the array code on NumPy
scalars; on the chain NumPy's rounding costs it up to 13% (9.2 against
8.1 us at (-0.45, 1e-8)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

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


def _on_float(ufunc):
    return lambda v: float(ufunc(v))


# The namespace of a float's value: NumPy's exp, expm1, log and log1p,
# returning Python floats. math's versions round differently from NumPy's
# vector loops in a few percent of arguments (on AVX-512 builds, for
# example): a number computed with them would differ in the last bit from
# the same element of an array, and a cdf near 0, a difference of two such
# logs, in its twelfth digit.
_FLOAT = SimpleNamespace(**{f.__name__: _on_float(f)
                            for f in (np.exp, np.expm1, np.log, np.log1p)})


def _lentz(alpha: float, rho: float, partials: bool):
    """log of the Legendre continued fraction at one float rho, by the
    modified Lentz recurrence; with partials also its first two shape
    derivatives (else NaN).

    The fraction is 1/E_0 times the product of the Lentz factors C_i / E_i,
    where C_i and E_i = 1/D_i obey the same recurrence x_i = b_i + a_i / x_{i-1}
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
    h1, h2 = (d, d * d) if partials else (math.nan, math.nan)
    hits = 0
    c_prev, d_prev = c, d
    for i in range(1, 100_001):
        ia = i - alpha
        an = -i * ia
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
        if partials:
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
            c_prev, d_prev = c, d
        # require two consecutive converged steps: lone |delta - 1| dips
        # below tolerance can occur before the tail has settled
        if abs(delta - 1.0) < 1e-16 and (
            not partials
            or abs(inc1) < 1e-16 * (1.0 + abs(h1)) and abs(inc2) < 1e-16 * (1.0 + abs(h2))
        ):
            hits += 1
            if hits >= 2:
                return math.log(h), h1, h2
        else:
            hits = 0
    raise NumericsError(
        f"incomplete gamma continued fraction stalled at alpha={alpha}, rho={rho}"
    )


def _continued_fraction(alpha: float, rho, partials: bool):
    """log Gamma(alpha, rho) by the Legendre continued fraction; with
    partials (a float rho) also its first two shape derivatives. Converges
    for rho > max(1, alpha + 1); valid for negative alpha.

    An array runs element by element. Near rho = 1 the fraction takes about
    90 Lentz steps, each some ten NumPy calls over an array: vectorized, it
    took about 0.7 ms for the one or two such elements a 40-point gof
    transform typically has, against about 30 us per element in floats.
    """
    if isinstance(rho, float):
        log_h, h1, h2 = _lentz(alpha, rho, partials)
        lr = _FLOAT.log(rho)
        value = alpha * lr - rho + log_h
        return (value, lr + h1, h2) if partials else value
    log_h = [_lentz(alpha, r, False)[0] for r in rho.tolist()]
    return alpha * np.log(rho) - rho + np.array(log_h)


def _series(alpha: float, rho, partials: bool):
    """log Gamma(alpha, rho) via the lower-gamma power series, alpha > 1;
    with partials (a float rho) also its first two shape derivatives.

    gamma(alpha, rho) = rho^alpha e^-rho sum_k t_k with
    t_k = rho^k / (alpha (alpha+1) ... (alpha+k)), so t_k'/t_k = -H_k and
    t_k''/t_k = H_k^2 + H2_k for the partial sums H_k, H2_k of 1/(alpha+j)
    and 1/(alpha+j)^2. The terms' ratio to the partial sum grows with rho,
    so the sum stops when the largest rho's has settled.
    """
    number = isinstance(rho, float)
    xp = _FLOAT if number else np
    ap = alpha
    delt = s = 1.0 / alpha
    r_max = rho if number else float(rho.max())
    delt_max = s_max = delt  # the largest rho's, for an array
    hk, h2k = delt, delt * delt
    s1, s2 = -delt * hk, delt * (hk * hk + h2k)
    for _ in range(10_000):
        ap += 1.0
        delt = delt * (rho / ap)
        s = s + delt
        if partials:
            inv = 1.0 / ap
            hk += inv
            h2k += inv * inv
            s1 = s1 - delt * hk
            s2 = s2 + delt * (hk * hk + h2k)
        if number:
            if delt < s * 1e-17:
                break
        else:
            delt_max *= r_max / ap
            s_max += delt_max
            if delt_max < s_max * 1e-17:
                break
    lgam = math.lgamma(alpha)
    lr = xp.log(rho)
    log_p = alpha * lr - rho + xp.log(s) - lgam
    value = lgam + xp.log1p(-xp.exp(log_p))
    if not partials:
        return value
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


def _small_shape(a: float, x, lx, partials: bool):
    """log Gamma(a, x) for |a| <= 0.5, 0 < x <= 2, including a = 0 exactly;
    with partials (a float x) also its first two a-derivatives and
    log Gamma(a+1, x).

    Rearranged power series with the 1/a pole cancelled analytically:

        Gamma(a, x) = (Gamma(a+1) - x^a)/a - x^a sum_{k>=1} t_k,
        t_k = (-x)^k / (k! (a+k))

    Each piece is evaluated in a form that stays stable as a -> 0, where the
    naive Gamma(a) - gamma(a, x) subtraction loses all precision. The sum is
    a polynomial in x, taken by Horner's rule to the degree where the
    largest x's term, x^k / k!, falls below 1e-18. Its a-derivatives are
    polynomials with the coefficients' a-derivatives, summed in the same
    pass. So is sum_{k>=1} k t_k, the lower series of gamma(a+1, x) with no
    pole to cancel, which gives
    log Gamma(a+1, x) = log(Gamma(1+a) + x^a sum_{k>=1} k t_k).
    """
    number = isinstance(x, float)
    xp = _FLOAT if number else np
    lg1p = _lgamma1p(a)
    if a == 0.0:
        head = -_EULER - lx
    else:
        head = (math.expm1(lg1p) - xp.expm1(a * lx)) / a
    # coefficients (-1)^k / (k! (a + k)) of x^k, k = 1, 2, ...
    x_max = x if number else float(x.max())
    coef, t, t_max, k = [], 1.0, 1.0, 0
    while t_max >= 1e-18 and k < 500:
        k += 1
        t /= -k
        t_max *= x_max / k
        coef.append(t / (a + k))
    # with partials also sum t_k / (a+k), sum t_k / (a+k)^2 and sum k t_k,
    # each over x
    s = s1 = s2 = s_up = 0.0
    for c in reversed(coef):
        s = s * x + c
        if partials:
            inv = 1.0 / (a + k)
            s1 = s1 * x + c * inv
            s2 = s2 * x + c * inv * inv
            s_up = s_up * x + k * c
            k -= 1
    s = s * x
    xa = xp.exp(a * lx)
    g = head - xa * s
    if not partials:
        return xp.log(g)
    s1, s2, s_up = -s1 * x, s2 * x, s_up * x
    g1p = math.exp(lg1p)
    hd1, hd2 = _small_shape_head_partials(a, lx, head, xa, g1p)
    d1 = (hd1 - xa * (lx * s + s1)) / g
    g2 = hd2 - xa * (lx * (lx * s + 2.0 * s1) + 2.0 * s2)
    return xp.log(g), d1, g2 / g - d1 * d1, math.log(g1p + xa * s_up)


def _step_down(up, a: float, rho, log_rho, partials: bool):
    """log Gamma(a, rho) from log Gamma(a + 1, rho), up; with partials, up
    and the result carry the first two a-derivatives and the result ends
    with up's value. Via

        Gamma(a, rho) = (Gamma(a+1, rho) - rho^a e^-rho) / a

    carried in log scale. Differentiating a Gamma(a) = Gamma(a+1) - rho^a e^-rho
    gives the derivatives through the ratios Gamma(a+1)/Gamma(a) and
    rho^a e^-rho / Gamma(a), which differ by a. Over the documented box the
    two terms never come within 20% of each other; a subtraction that
    cancels raises instead of returning a value without precision.
    """
    number = isinstance(rho, float)
    xp = _FLOAT if number else np
    log_g_up = up[0] if partials else up
    l_term = a * log_rho - rho
    hi, lo = (log_g_up, l_term) if a > 0 else (l_term, log_g_up)
    ratio = xp.exp(lo - hi)  # below 1 unless rounding says otherwise
    if (ratio if number else ratio.max()) > 1.0 - 1e-6:
        raise NumericsError(
            f"incomplete gamma recurrence cancels at alpha={a}, rho={rho}")
    value = hi + xp.log1p(-ratio) - math.log(abs(a))
    if not partials:
        return value
    u1, u2 = up[1], up[2]
    k = abs(a) / (1.0 - ratio)
    r_up, r_term = (k, k * ratio) if a > 0 else (k * ratio, k)
    d1 = (r_up * u1 - r_term * log_rho - 1.0) / a
    m2 = (r_up * (u2 + u1 * u1) - r_term * log_rho * log_rho - 2.0 * d1) / a
    return value, d1, m2 - d1 * d1, log_g_up


def _log_gamma(alpha: float, rho, partials: bool = False):
    """log Gamma(alpha, rho) for 0 < rho < inf, a float or a 1-D array; with
    partials (a float rho) the tuple (d, d_alpha, d_alpha_alpha, d_up) of
    d = log Gamma(alpha, rho) and d_up = log Gamma(alpha + 1, rho). A float
    takes its branch by if, an array's elements by mask."""
    # the continued fraction also converges (fast) for deeply negative alpha
    # at any rho, which keeps the recurrence chain below ~30 steps
    on_cf = (rho > max(1.0, alpha + 1.0)) | (alpha <= -30.0)
    if isinstance(rho, float):
        xp = _FLOAT
    else:
        xp = np
        n_cf = np.count_nonzero(on_cf)
        if 0 < n_cf < rho.size:  # elements on both sides
            out = np.empty_like(rho)
            out[on_cf] = _continued_fraction(alpha, rho[on_cf], False)
            out[~on_cf] = _log_gamma(alpha, rho[~on_cf])
            return out
        on_cf = n_cf == rho.size
    if on_cf:
        out = _continued_fraction(alpha, rho, partials)
    elif alpha > 1.0:
        out = _series(alpha, rho, partials)
    else:
        log_rho = xp.log(rho)
        if alpha > 0.5:
            return _step_down(_series(alpha + 1.0, rho, partials), alpha, rho,
                              log_rho, partials)
        # anchor the recurrence at the chain point inside (-0.5, 0.5], where
        # the dedicated series is stable, then walk down to alpha; each
        # link's value is the next one's d_up
        j = int(math.floor(0.5 - alpha))
        a = alpha + j
        out = _small_shape(a, rho, log_rho, partials)
        for _ in range(j):
            a -= 1.0
            out = _step_down(out, a, rho, log_rho, partials)
        return out
    # off the step-down chain d_up takes one more value-only evaluation, as
    # a separate call would
    return (*out, _log_gamma(alpha + 1.0, rho)) if partials else out


def log_upper_inc_gamma(alpha: float, rho):
    """log of the upper incomplete gamma function Gamma(alpha, rho), for a
    number rho or elementwise over an array of rho at one alpha.

    Parameters
    ----------
    alpha : any real shape.
    rho : lower integration limit, a number or an array, >= 0 (0 allowed
        only for alpha > 0, where the integral is the complete gamma
        function); Gamma(alpha, inf) = 0 gives -inf.

    Returns a float for a number rho and an array of rho's shape otherwise.

    Raises
    ------
    ValueError
        If some rho < 0, or rho == 0 with alpha <= 0 (the integral diverges).
    """
    alpha = float(alpha)
    if isinstance(rho, (float, int)):
        y = lo = float(rho)
    else:
        y = np.asarray(rho, dtype=float)
        lo, hi = (float(y.min()), float(y.max())) if y.size else (1.0, 1.0)
        if y.ndim == 0:
            y = lo
    if math.isnan(alpha) or math.isnan(lo):
        raise ValueError("alpha and rho must be numbers")
    if lo < 0.0:
        raise ValueError(f"rho must be >= 0, got {lo}")
    if lo == 0.0 and alpha <= 0.0:
        raise ValueError("Gamma(alpha, 0) diverges for alpha <= 0")
    # the endpoints are settled here, so every branch sees 0 < rho < inf:
    # Gamma(alpha, 0) = Gamma(alpha) and Gamma(alpha, inf) = 0
    if isinstance(y, float):
        if 0.0 < y < math.inf:
            return _log_gamma(alpha, y)
        return math.lgamma(alpha) if y == 0.0 else -math.inf
    flat = y.ravel()
    if 0.0 < lo and hi < math.inf:
        return _log_gamma(alpha, flat).reshape(y.shape)
    out = np.full_like(flat, -math.inf)
    if lo == 0.0:
        out[flat == 0.0] = math.lgamma(alpha)
    inner = (flat > 0.0) & (flat < math.inf)
    out[inner] = _log_gamma(alpha, flat[inner])
    return out.reshape(y.shape)


# slotted rather than frozen: a frozen dataclass's __init__ sets each field
# through object.__setattr__, and took about 1.1 us of the 9.4 us of one
# inc_gamma_eval at (-0.2, 4e-4); this one, built positionally, about 0.3 us
@dataclass(slots=True)
class IncGammaEval:
    """d = log Gamma(alpha, rho), its partials d_alpha, d_rho, d_alpha_alpha
    and d_alpha_rho, and log_value_up = log Gamma(alpha + 1, rho).

    Where the step-down chain serves (alpha, rho), log_value_up is the
    chain's previous link, or for alpha in (-0.5, 0.5] the small-shape
    series' by-product. On the continued-fraction and lower-series branches
    it is one more value-only evaluation at alpha + 1. Against
    mpmath it is within 2.6e-15 on the seam grid and 4.1e-14 on the inner
    solve's region (see tests/test_specfun.py).
    """

    log_value: float
    d_alpha: float
    d_rho: float
    d_alpha_alpha: float
    d_alpha_rho: float
    log_value_up: float


def inc_gamma_eval(alpha: float, rho: float) -> IncGammaEval:
    """Evaluate d(alpha, rho) = log Gamma(alpha, rho) and the four partials
    the package reads.

    The value, the two alpha-derivatives and log Gamma(alpha + 1, rho) come
    from one pass through the branch that serves (alpha, rho);
    d_rho = -rho^(alpha-1) e^-rho / Gamma(alpha, rho) is a closed form, and
    d_alpha_rho = d_rho (log rho - d_alpha) is exact.
    """
    alpha, rho = float(alpha), float(rho)
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be finite and > 0, got {rho}")
    if math.isnan(alpha):
        raise ValueError("alpha and rho must be numbers")
    d0, da, daa, d_up = _log_gamma(alpha, rho, True)
    dr = -math.exp((alpha - 1.0) * math.log(rho) - rho - d0)
    return IncGammaEval(d0, da, dr, daa, dr * (math.log(rho) - da), d_up)


def chi2_survival_1df(x: float) -> float:
    """P(chi-square with 1 df > x) = erfc(sqrt(x / 2))."""
    if x < 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    return math.erfc(math.sqrt(0.5 * x))
