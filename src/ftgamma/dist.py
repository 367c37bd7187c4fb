"""The full-tails gamma (FTG) family with its gamma and Pareto boundaries.

The interior density on (0, inf) is

    f(x; alpha, theta, rho) = theta (rho + theta x)^(alpha-1)
                              e^-(rho + theta x) / Gamma(alpha, rho)

for any real alpha, theta > 0, rho > 0. Setting rho = 0 (alpha > 0) gives
the ordinary gamma density; letting rho -> 0 with sigma = rho / theta held
fixed and alpha < 0 gives the Pareto density
p(x; alpha, sigma) = -alpha sigma^-1 (1 + x/sigma)^(alpha-1). beta = 1/theta
is a scale parameter, rho truncates the left tail, and -alpha is the Pareto
tail weight, so the family interpolates between exponential-type and
power-law tails.

The gamma edge is the interior formula at rho = 0, where Gamma(alpha, 0) =
Gamma(alpha), so only the Pareto edge has formulas of its own.

A quirk worth knowing: at alpha = 1 the interior density collapses to the
exponential with rate theta for *every* rho, so (theta, rho) are not jointly
identifiable there. The fitting code surfaces this as a large standard error
on rho; nothing in this module needs special treatment for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .specfun import log_upper_inc_gamma

_INTERIOR = "interior"
_GAMMA = "gamma"
_PARETO = "pareto"


@dataclass(frozen=True)
class FtgParams:
    """Parameter point (alpha, theta, rho) with derived dispersion sigma.

    Exactly one of three regimes holds:

    * interior:        theta > 0, rho > 0, any real alpha
    * gamma boundary:  rho == 0, alpha > 0, theta > 0
    * Pareto boundary: theta == 0 (and rho == 0), alpha < 0, sigma > 0

    Use the class directly for the first two; ``FtgParams.from_sigma`` for
    the (alpha, sigma, rho) parameterization preferred during estimation;
    ``FtgParams.pareto`` for the Pareto boundary, where sigma must be given
    explicitly because rho/theta is indeterminate.

    This is the package's only parameter type: the Pareto law is the
    family's closure edge theta -> 0 with sigma = rho / theta held fixed,
    so a Pareto fit's params are ``FtgParams.pareto(alpha, sigma)``.
    """

    alpha: float
    theta: float
    rho: float
    sigma: float = None  # type: ignore[assignment]  # derived in __post_init__

    def __post_init__(self):
        alpha = float(self.alpha)
        theta = float(self.theta)
        rho = float(self.rho)
        if not all(map(math.isfinite, (alpha, theta, rho))):
            raise ValueError("parameters must be finite")
        if theta < 0.0 or rho < 0.0:
            raise ValueError("theta and rho must be nonnegative")
        if theta > 0.0 and rho > 0.0:
            sigma = rho / theta
        elif rho == 0.0 and theta > 0.0:
            if alpha <= 0.0:
                raise ValueError("gamma boundary (rho = 0) requires alpha > 0")
            sigma = 0.0
        elif theta == 0.0 and rho == 0.0:
            if alpha >= 0.0:
                raise ValueError("Pareto boundary (theta = 0) requires alpha < 0")
            sigma = self.sigma
            if sigma is None or not (float(sigma) > 0.0):
                raise ValueError("Pareto boundary requires an explicit sigma > 0")
            sigma = float(sigma)
        else:
            raise ValueError("rho > 0 with theta = 0 is not a valid regime")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def from_sigma(cls, alpha: float, sigma: float, rho: float) -> "FtgParams":
        """Construct from (alpha, sigma, rho); theta = rho / sigma."""
        sigma = float(sigma)
        rho = float(rho)
        if sigma <= 0.0:
            raise ValueError("sigma must be > 0")
        if rho == 0.0:
            return cls.pareto(alpha, sigma)
        return cls(alpha, rho / sigma, rho)

    @classmethod
    def pareto(cls, alpha: float, sigma: float) -> "FtgParams":
        return cls(alpha, 0.0, 0.0, sigma)

    @classmethod
    def gamma(cls, alpha: float, theta: float) -> "FtgParams":
        return cls(alpha, theta, 0.0)

    @property
    def regime(self) -> str:
        if self.theta == 0.0:
            return _PARETO
        return _GAMMA if self.rho == 0.0 else _INTERIOR

    @property
    def is_interior(self) -> bool:
        return self.regime == _INTERIOR

    @property
    def is_pareto(self) -> bool:
        return self.regime == _PARETO

    @property
    def is_gamma(self) -> bool:
        return self.regime == _GAMMA

    @cached_property
    def log_norm(self) -> float:
        """log Gamma(alpha, rho), the log normalizing constant, evaluated once
        per parameter point; on the gamma edge it is the interior formula at
        rho = 0, log Gamma(alpha)."""
        if self.is_pareto:
            raise ValueError("Pareto boundary has no incomplete-gamma norm")
        return log_upper_inc_gamma(self.alpha, self.rho)


def model_to_dict(p: FtgParams, family: str) -> dict:
    """JSON form of a parameter point, tagged with the family of its fit: a
    Pareto fit writes (alpha, sigma), any other fit all four parameters."""
    if family == "pareto":
        return {"family": "pareto", "alpha": p.alpha, "sigma": p.sigma}
    return {"family": "ftg", "alpha": p.alpha, "theta": p.theta,
            "rho": p.rho, "sigma": p.sigma}


@dataclass(frozen=True)
class Moments:
    """First two moments plus the helper mu = e^-rho rho^alpha / Gamma(alpha, rho).

    mean is +inf at the Pareto boundary when alpha >= -1 (the operational-
    risk case of interest); variance is +inf when alpha >= -2.
    """

    mean: float
    variance: float
    mu: float

    @property
    def infinite_mean(self) -> bool:
        return math.isinf(self.mean)


# ----------------------------------------------------------------- densities
def log_pdf(p: FtgParams, x: float) -> float:
    """Log density at x >= 0."""
    if x < 0.0:
        raise ValueError("support is x >= 0")
    if p.is_pareto:
        return (
            math.log(-p.alpha)
            - math.log(p.sigma)
            + (p.alpha - 1.0) * math.log1p(x / p.sigma)
        )
    t = p.rho + p.theta * x
    if t == 0.0:
        # the gamma edge at the origin, where t^(alpha-1) has no logarithm
        if p.alpha < 1.0:
            return math.inf
        return math.log(p.theta) if p.alpha == 1.0 else -math.inf
    return math.log(p.theta) + (p.alpha - 1.0) * math.log(t) - t - p.log_norm


def pdf(p: FtgParams, x: float) -> float:
    return math.exp(log_pdf(p, x))


def _log_survival(p: FtgParams, x: float) -> float:
    """log P(X > x) for x > 0, as a gamma ratio (never from the cdf)."""
    if p.is_pareto:
        return p.alpha * math.log1p(x / p.sigma)
    return log_upper_inc_gamma(p.alpha, p.rho + p.theta * x) - p.log_norm


def survival(p: FtgParams, x: float) -> float:
    """P(X > x) = Gamma(alpha, rho + theta x) / Gamma(alpha, rho)."""
    if x <= 0.0:
        return 1.0
    return math.exp(_log_survival(p, x))


def cdf(p: FtgParams, x: float) -> float:
    """P(X <= x) = 1 - Gamma(alpha, rho + theta x) / Gamma(alpha, rho)."""
    if x <= 0.0:
        return 0.0
    return -math.expm1(_log_survival(p, x))


def quantile(p: FtgParams, prob: float) -> float:
    """Inverse CDF, prob in [0, 1).

    The Pareto boundary inverts in closed form. Elsewhere survival(x) =
    1 - prob is solved in u = log x, u in [-745, 709], by the fitter's
    one-dimensional search: a walk from the log mean brackets the root,
    and safeguarded Newton, with d survival / du = -x pdf(x), refines it.
    """
    if not 0.0 <= prob < 1.0:
        raise ValueError(f"prob must be in [0, 1), got {prob}")
    if prob == 0.0:
        return 0.0
    if p.is_pareto:
        # (1 - prob)^(1/alpha) - 1 in log scale keeps the lower tail's digits
        return p.sigma * math.expm1(math.log1p(-prob) / p.alpha)
    # imported here because fit imports this module
    from .fit import _bracket_maximum, _refine_maximum

    target = 1.0 - prob

    def fun(u: float):
        # survival - target is the slope of a function whose maximum in u
        # is the quantile
        x = math.exp(u)
        return 0.0, survival(p, x) - target, -math.exp(u + log_pdf(p, x))

    bracket, u = _bracket_maximum(fun, math.log(moments(p).mean), -745.0, 709.0)
    if bracket is not None:
        u = _refine_maximum(fun, *bracket, xatol=1e-14)
    return math.exp(u)


# ------------------------------------------------------------------- moments
def mgf(p: FtgParams, t: float) -> float:
    """Moment generating function E[e^(tX)], defined for t < theta.

    At the Pareto boundary the MGF exists only for t <= 0; t = 0 gives 1,
    and t < 0 has the closed form (-alpha) e^s s^(-alpha) Gamma(alpha, s)
    with s = -t sigma, evaluated in log scale.
    """
    if t == 0.0:
        return 1.0
    if p.is_pareto:
        if t > 0.0:
            raise ValueError("Pareto boundary has no MGF for t > 0")
        s = -t * p.sigma
        return math.exp(math.log(-p.alpha) + s - p.alpha * math.log(s)
                        + log_upper_inc_gamma(p.alpha, s))
    if t >= p.theta:
        raise ValueError(f"mgf requires t < theta = {p.theta}, got {t}")
    w = 1.0 - t / p.theta
    # the gamma ratio first: it is exactly 0 on the gamma edge (rho = 0)
    return math.exp(
        (log_upper_inc_gamma(p.alpha, p.rho * w) - p.log_norm)
        - p.alpha * math.log(w)
        - p.rho * t / p.theta
    )


def moments(p: FtgParams) -> Moments:
    """Mean and variance from the cumulant function.

    Interior: mean = (alpha - rho + mu)/theta,
    variance = (alpha + (1 + rho - alpha) mu - mu^2)/theta^2 with
    mu = e^-rho rho^alpha / Gamma(alpha, rho).
    """
    if p.is_pareto:
        a = -p.alpha  # tail weight > 0
        mean = p.sigma / (a - 1.0) if a > 1.0 else math.inf
        var = (
            p.sigma**2 * a / ((a - 1.0) ** 2 * (a - 2.0)) if a > 2.0 else math.inf
        )
        return Moments(mean=mean, variance=var, mu=a)
    # mu -> 0 as rho -> 0 (alpha > 0): the gamma edge's mean alpha/theta
    mu = math.exp(-p.rho + p.alpha * math.log(p.rho) - p.log_norm) if p.rho else 0.0
    mean = (p.alpha - p.rho + mu) / p.theta
    # divided by theta twice: theta**2 under- or overflows outside 1e-154..1e154
    var = (p.alpha + (1.0 + p.rho - p.alpha) * mu - mu * mu) / p.theta / p.theta
    return Moments(mean=mean, variance=var, mu=mu)


def conditional_mean_excess(p: FtgParams, u: float) -> float:
    """E[X | X > u]: u plus the mean of the exceedance distribution
    truncate(p, u). Infinite at the Pareto boundary when alpha >= -1."""
    return u + moments(truncate(p, u)).mean


# ------------------------------------------------------- closure transforms
def scale(p: FtgParams, lam: float) -> FtgParams:
    """Distribution of lam * X: FTG(alpha, theta/lam, rho); Pareto (alpha, lam sigma)."""
    if not lam > 0.0:
        raise ValueError("scale factor must be > 0")
    if p.is_pareto:
        return FtgParams.pareto(p.alpha, lam * p.sigma)
    return FtgParams(p.alpha, p.theta / lam, p.rho)


def truncate(p: FtgParams, u: float) -> FtgParams:
    """Exceedance distribution of X - u given X > u: FTG(alpha, theta, rho + theta u)."""
    if u < 0.0:
        raise ValueError("threshold must be >= 0")
    if u == 0.0:
        return p
    if p.is_pareto:
        return FtgParams.pareto(p.alpha, p.sigma + u)
    return FtgParams(p.alpha, p.theta, p.rho + p.theta * u)
