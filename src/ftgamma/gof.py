"""Goodness-of-fit statistics and empirical summaries for heavy-tail fits.

Cramer-von Mises W^2 and Anderson-Darling A^2 are computed on the
probability-integral transforms of the sorted sample. Tabulated critical
values for these statistics only cover a narrow shape range, so p-values
come from a parametric bootstrap instead: refit each simulated null sample and
compare the statistic distribution against the observed value.

Also here: the log-binned density histogram used to eyeball power-law
behaviour, and the empirical survival curve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .data import Sample
from .dist import FtgParams, cdf
from .errors import FitError
from .fit import _fit_family, fit_ftg  # noqa: F401  (fit_ftg stays importable here)
from .sample import RngStream, ftg_rvs

_Z_CLAMP = 1e-15


@dataclass(frozen=True)
class GofReport:
    w2: float
    a2: float
    p_w2: float
    p_a2: float
    n_bootstrap: int
    n_refit_failures: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def cvm_ad_statistics(sample, model: FtgParams) -> tuple[float, float]:
    """Cramer-von Mises W^2 and Anderson-Darling A^2 against a fitted model.

    z_i = F(x_(i)) on the sorted sample;
    W^2 = sum (z_i - (2i-1)/(2n))^2 + 1/(12n),
    A^2 = -n - (1/n) sum (2i-1)(log z_i + log(1 - z_(n+1-i))).
    Transforms exactly at 0 or 1 are clamped to the representable open
    interval (with a warning) so A^2 stays finite.
    """
    smp = Sample.coerce(sample)
    xs = smp.sorted()
    z = np.array([cdf(model, float(v)) for v in xs])
    if np.any(z <= 0.0) or np.any(z >= 1.0):
        warnings.warn("probability transforms hit 0 or 1 exactly; clamped")
        z = np.clip(z, _Z_CLAMP, 1.0 - _Z_CLAMP)
    n = z.size
    i = np.arange(1, n + 1)
    grid = (2.0 * i - 1.0) / (2.0 * n)
    w2 = float(np.sum((z - grid) ** 2) + 1.0 / (12.0 * n))
    a2 = float(-n - np.mean((2.0 * i - 1.0) * (np.log(z) + np.log1p(-z[::-1]))))
    return w2, a2


def bootstrap_pvalue(sample, family: str, n_boot: int, rng: RngStream) -> GofReport:
    """Parametric-bootstrap p-values for W^2 and A^2 under a fitted null.

    Fits the family, simulates n_boot same-size samples from the fit, refits
    each and recomputes the statistics; p = (1 + #{null >= observed}) /
    (n_boot + 1). Individual refit failures are skipped and counted; more
    than 10% of them aborts the report.
    """
    if n_boot < 99:
        raise ValueError("n_boot must be at least 99")
    smp = Sample.coerce(sample)
    n = len(smp)
    fit = _fit_family(smp, family)
    model = fit.params
    w2_obs, a2_obs = cvm_ad_statistics(smp, model)
    exceed_w2 = exceed_a2 = 0
    failures = 0
    done = 0
    for b in range(n_boot):
        sub = rng.child(b + 1)
        sim = Sample(ftg_rvs(model, n, sub))
        try:
            refit = _fit_family(sim, family)
            w2_b, a2_b = cvm_ad_statistics(sim, refit.params)
        except (FitError, ValueError):
            failures += 1
            if failures > 0.1 * n_boot:
                raise FitError(
                    f"{failures} bootstrap refits failed out of {b + 1}; aborting"
                )
            continue
        done += 1
        exceed_w2 += w2_b >= w2_obs
        exceed_a2 += a2_b >= a2_obs
    return GofReport(
        w2=w2_obs,
        a2=a2_obs,
        p_w2=(1.0 + exceed_w2) / (done + 1.0),
        p_a2=(1.0 + exceed_a2) / (done + 1.0),
        n_bootstrap=done,
        n_refit_failures=failures,
    )


# ------------------------------------------------------------------ binning
@dataclass(frozen=True)
class LogBinnedHistogram:
    """Density estimates on logarithmically spaced bins.

    eval_points[j] lies inside (bin_edges[j], bin_edges[j+1]]; densities are
    counts / (n * bin width) with n the full sample size, so the histogram
    integrates to the in-range fraction of the data.
    """

    bin_edges: np.ndarray
    eval_points: np.ndarray
    densities: np.ndarray
    counts: np.ndarray
    n: int


def log_binned_histogram(sample, decade_origin: float = 8.0,
                         bins_per_decade: int = 5,
                         x_range: tuple[float, float] | None = None) -> LogBinnedHistogram:
    """Histogram on bins l_s = offset * 10^(origin + s/b).

    With five bins per decade the offset is 0.5 * 11^(1/5), matching the
    tropical-cyclone preset; other bin counts use geometric midpoints,
    offset 10^(-1/(2b)). Evaluation points are 10^(origin + s/b); both
    offsets lie in (10^(-1/b), 1), so each falls inside its bin. Bins are
    laid to cover the data (or x_range if given); observations outside the
    covered span are excluded from counts but still included in the density
    normalization.
    """
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be >= 1")
    smp = Sample.coerce(sample)
    x = smp.values[smp.values > 0.0]
    if x.size == 0:
        raise ValueError("need positive observations")
    b = int(bins_per_decade)
    offset = 0.5 * 11.0 ** (1.0 / 5.0) if b == 5 else 10.0 ** (-0.5 / b)
    lo, hi = (float(x.min()), float(x.max())) if x_range is None else x_range
    if not 0.0 < lo <= hi:
        raise ValueError("x_range must be positive and ordered")
    # smallest s with edge >= lo, largest with edge <= hi, padded to cover
    s_lo = math.floor(b * (math.log10(lo) - math.log10(offset)) - b * decade_origin)
    s_hi = math.ceil(b * (math.log10(hi) - math.log10(offset)) - b * decade_origin)
    while offset * 10.0 ** (decade_origin + s_lo / b) >= lo:
        s_lo -= 1  # bins are left-open: the minimum must lie strictly inside
    s = np.arange(s_lo, s_hi + 1)
    edges = offset * 10.0 ** (decade_origin + s / b)
    eval_points = 10.0 ** (decade_origin + s[:-1] / b)
    # bin j is (edges[j], edges[j+1]]
    j = np.searchsorted(edges, x, side="left") - 1
    counts = np.bincount(j[(j >= 0) & (j < s.size - 1)], minlength=s.size - 1)
    widths = np.diff(edges)
    n = len(smp)
    return LogBinnedHistogram(
        bin_edges=edges,
        eval_points=eval_points,
        densities=counts / (n * widths),
        counts=counts,
        n=n,
    )


def empirical_survival(sample) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival S(x) = #{x_i > x} / n at the sorted sample points."""
    smp = Sample.coerce(sample)
    xs = smp.sorted()
    n = xs.size
    exceed = n - np.searchsorted(xs, xs, side="right")
    return xs, exceed / n
