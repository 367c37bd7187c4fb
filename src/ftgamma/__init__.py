"""Full-tails gamma distribution toolkit.

A three-parameter heavy-tail family containing the gamma and Pareto
distributions as boundary cases, with density evaluation, simulation,
profile-likelihood fitting, goodness-of-fit statistics and a compound-
Poisson operational-risk simulator.
"""

from .data import DataError, Sample, load_external_fraud, read_dataset
from .dist import (
    FtgParams,
    Moments,
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
from .errors import FitError, NumericsError
from .fit import (
    FitResult,
    SufficientStats,
    fit_ftg,
    fit_gamma,
    fit_pareto,
    inner_solve,
    loglik_ftg,
    loglik_pareto,
    lrt_pareto_vs_ftg,
    observed_information,
    score_ftg,
    sufficient_stats,
)
from .gof import (
    GofReport,
    LogBinnedHistogram,
    bootstrap_pvalue,
    cvm_ad_statistics,
    empirical_survival,
    log_binned_histogram,
)
from .risk import (
    BootstrapStudy,
    RiskConfig,
    RiskReport,
    bootstrap_study,
    risk_capital,
    simulate_aggregate,
)
from .sample import RngStream, SampleBatch, ftg_rvs, sample_ftg
from .specfun import (
    IncGammaEval,
    chi2_survival_1df,
    inc_gamma_eval,
    log_upper_inc_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapStudy",
    "DataError",
    "FitError",
    "FitResult",
    "FtgParams",
    "GofReport",
    "IncGammaEval",
    "LogBinnedHistogram",
    "Moments",
    "NumericsError",
    "RiskConfig",
    "RiskReport",
    "RngStream",
    "Sample",
    "SampleBatch",
    "SufficientStats",
    "bootstrap_pvalue",
    "bootstrap_study",
    "cdf",
    "chi2_survival_1df",
    "conditional_mean_excess",
    "cvm_ad_statistics",
    "empirical_survival",
    "fit_ftg",
    "fit_gamma",
    "fit_pareto",
    "ftg_rvs",
    "inc_gamma_eval",
    "inner_solve",
    "load_external_fraud",
    "log_binned_histogram",
    "log_pdf",
    "log_upper_inc_gamma",
    "loglik_ftg",
    "loglik_pareto",
    "lrt_pareto_vs_ftg",
    "mgf",
    "moments",
    "observed_information",
    "pdf",
    "quantile",
    "read_dataset",
    "risk_capital",
    "sample_ftg",
    "scale",
    "score_ftg",
    "simulate_aggregate",
    "sufficient_stats",
    "survival",
    "truncate",
]
