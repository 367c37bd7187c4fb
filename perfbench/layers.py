"""The per-layer metrics of the traced run: counts taken at the wrapped
boundaries, and how the spans of several commands become one figure each.

Counts and self times are per command (totals over the traced commands of a
run divided by their number); ratios, percentiles and rates pool the calls of
all of them. "self" is a span minus the wrapped spans inside it.

Which end-to-end figure each group should move, written down before any
change is measured against it:

- specfun (log_upper_inc_gamma, inc_gamma_eval, cache): wall_s on gof-ftg,
  less on boot-study; nothing on risk-ftg or fit-large.
- dist.cdf (40 calls per replicate from cvm_ad_statistics): gof-ftg wall_s.
- fit (fit_ftg with p50/tail and boundary counts, fit_pareto, inner_solve
  with fallbacks / boundary raises / failures): wall_s and failures on
  gof-ftg and boot-study. sufficient_stats: wall_s on fit-large, some on
  gof-ftg.
- gof (cvm_ad_statistics, bootstrap_pvalue): gof-ftg wall_s.
- sample (ftg_rvs): wall_s on risk-ftg and boot-study, peak_rss_mb on
  risk-ftg; nothing on fit-large, little on gof-ftg.
- risk (simulate_aggregate with its tracemalloc peak, bootstrap_study):
  wall_s and peak_rss_mb on risk-ftg and boot-study.
- data.read_dataset: wall_s on fit-large only.
- cli.main (formatting, JSON): nothing anywhere.
"""

from __future__ import annotations

import inspect
import statistics
import tracemalloc
from dataclasses import dataclass
from typing import Callable

PACKAGE = "ftgamma"
MODULES = ("specfun", "dist", "data", "fit", "gof", "sample", "risk", "cli")

CALLS_AND_SELF = (
    "specfun.log_upper_inc_gamma", "specfun.inc_gamma_eval", "dist.cdf",
    "fit.fit_ftg", "fit.fit_pareto", "fit.inner_solve", "fit.sufficient_stats",
    "gof.cvm_ad_statistics", "sample.ftg_rvs", "risk.simulate_aggregate",
)
SELF_ONLY = ("gof.bootstrap_pvalue", "risk.bootstrap_study", "data.read_dataset",
             "cli.main")
COUNTS = (
    "fit.fit_ftg.boundary_pareto", "fit.fit_ftg.boundary_gamma",
    "fit.inner_solve.fallbacks", "fit.inner_solve.boundary_raises",
    "fit.inner_solve.failures", "sample.ftg_rvs.draws",
)

METRICS: dict[str, str] = {}
for _f in CALLS_AND_SELF:
    METRICS[f"{_f}.calls"] = "count"
    METRICS[f"{_f}.self_s"] = "s"
for _f in SELF_ONLY:
    METRICS[f"{_f}.self_s"] = "s"
for _c in COUNTS:
    METRICS[_c] = "count"
METRICS.update({
    "specfun.cache.hits": "count",
    "specfun.cache.misses": "count",
    "specfun.cache.hit_ratio": "ratio",
    "fit.fit_ftg.p50_ms": "ms",
    "fit.fit_ftg.tail_ms": "ms",
    "sample.ftg_rvs.ns_per_draw": "ns",
    "risk.simulate_aggregate.traced_peak_mb": "MB",
    "data.read_dataset.lines_per_s": "1/s",
    "trace.overhead_frac": "ratio",
})


# ------------------------------------------------------------------- hooks
@dataclass(frozen=True)
class Hook:
    after: Callable
    before: Callable | None = None


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def make_hooks() -> dict[str, Hook]:
    from ftgamma.errors import FitError
    from ftgamma.fit import InnerBoundaryError, inner_solve

    max_iter_default = inspect.signature(inner_solve).parameters["max_iter"].default

    def fit_ftg_after(counts, _, args, kwargs, result, exc):
        if result is not None and result.boundary in ("pareto", "gamma"):
            counts[f"fit.fit_ftg.boundary_{result.boundary}"] += 1

    def inner_solve_after(counts, _, args, kwargs, result, exc):
        if isinstance(exc, InnerBoundaryError):
            counts["fit.inner_solve.boundary_raises"] += 1
        elif isinstance(exc, FitError):
            counts["fit.inner_solve.failures"] += 1
        elif result is not None:
            if result[2] > _arg(args, kwargs, 4, "max_iter", max_iter_default):
                counts["fit.inner_solve.fallbacks"] += 1

    def ftg_rvs_after(counts, _, args, kwargs, result, exc):
        counts["sample.ftg_rvs.draws"] += _arg(args, kwargs, 1, "n", 0)

    def simulate_before(args, kwargs):
        if tracemalloc.is_tracing():
            return False
        tracemalloc.start()
        return True

    def simulate_after(counts, started, args, kwargs, result, exc):
        if started:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            key = "risk.simulate_aggregate.traced_peak_bytes"
            counts[key] = max(counts[key], peak)

    def read_dataset_after(counts, _, args, kwargs, result, exc):
        if result is not None:
            counts["data.read_dataset.lines"] += result.values.size

    return {
        "fit.fit_ftg": Hook(fit_ftg_after),
        "fit.inner_solve": Hook(inner_solve_after),
        "sample.ftg_rvs": Hook(ftg_rvs_after),
        "risk.simulate_aggregate": Hook(simulate_after, simulate_before),
        "data.read_dataset": Hook(read_dataset_after),
    }


def cache_info() -> tuple[int, int]:
    """(hits, misses) of the log Gamma cache; (0, 0) if the package has none."""
    from ftgamma import specfun

    cached = getattr(specfun, "_log_upper_inc_gamma_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


# ----------------------------------------------------------------- metrics
def tail_value(values: list[float]) -> float:
    """The highest order statistic with at least ten values beyond it; the
    largest value when fewer than 20, where even the median has fewer."""
    v = sorted(values)
    return v[-11] if len(v) >= 20 else v[-1]


def per_layer(children: list[dict], overhead_frac: float) -> dict[str, float]:
    """One value per name in METRICS from the traced commands of a run."""
    k = len(children)
    funcs: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    hits = misses = 0
    fit_ms: list[float] = []
    for c in children:
        for name, f in c["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += f["calls"]
            acc["self_s"] += f["self_s"]
        for name, v in c["counts"].items():
            if name.endswith("_peak_bytes"):
                counts[name] = max(counts.get(name, 0), v)
            else:
                counts[name] = counts.get(name, 0) + v
        hits += c["cache_hits"]
        misses += c["cache_misses"]
        fit_ms += c["fit_ftg_ms"]

    def total(name, field):
        return funcs.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = total(name, "calls") / k
        out[f"{name}.self_s"] = total(name, "self_s") / k
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = total(name, "self_s") / k
    for name in COUNTS:
        out[name] = counts.get(name, 0) / k
    out["specfun.cache.hits"] = hits / k
    out["specfun.cache.misses"] = misses / k
    out["specfun.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["fit.fit_ftg.p50_ms"] = statistics.median(fit_ms) if fit_ms else 0.0
    out["fit.fit_ftg.tail_ms"] = tail_value(fit_ms) if fit_ms else 0.0
    draws = counts.get("sample.ftg_rvs.draws", 0)
    rvs_self = total("sample.ftg_rvs", "self_s")
    out["sample.ftg_rvs.ns_per_draw"] = 1e9 * rvs_self / draws if draws else 0.0
    out["risk.simulate_aggregate.traced_peak_mb"] = (
        counts.get("risk.simulate_aggregate.traced_peak_bytes", 0) / 2**20)
    lines = counts.get("data.read_dataset.lines", 0)
    read_self = total("data.read_dataset", "self_s")
    out["data.read_dataset.lines_per_s"] = lines / read_self if read_self else 0.0
    out["trace.overhead_frac"] = overhead_frac
    assert out.keys() == METRICS.keys()
    return out
