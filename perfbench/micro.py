"""Per-layer microbenchmarks, reported apart from the workloads so that they
never enter the end-to-end gate.

    python3 perfbench/micro.py --seed 1

Runs in this process with ``src/`` first on sys.path. Each figure is the
median of several timed passes:

- specfun: µs per call of ``log_upper_inc_gamma`` and ``inc_gamma_eval`` over
  a grid that reaches every branch (rho = 0, continued fraction, lower
  series, step down from the series, small-shape series plus downward
  recurrence), with the log Gamma cache cleared before every pass; the
  quadrature fallback, taken only when the recurrence cancels, is not on it;
- sample: ns per draw of ``ftg_rvs`` in each regime at a batch of 1e6, and
  µs per 40-draw call at the bundled fit;
- fit: ms per ``fit_ftg`` at n = 40 (bundled data), 1e3 and 1e5 (drawn by
  the benchmark's own generator from the seed), cache cleared before each.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from ftgamma import FtgParams, RngStream, fit_ftg, ftg_rvs, load_external_fraud  # noqa: E402
from ftgamma import specfun  # noqa: E402
from run import environment  # noqa: E402

ALPHAS = (-40.0, -12.5, -3.3, -0.7, -0.196, 0.0, 0.3, 0.75, 1.0, 2.5, 12.0, 60.0)
RHOS = (1e-10, 4.3e-4, 0.05, 0.7, 3.0, 30.0, 300.0)
GRID = [(a, r) for a in ALPHAS for r in RHOS]
ZERO_RHO = [(a, 0.0) for a in ALPHAS if a > 0.0]

REGIMES = {
    "interior_lt1": FtgParams.from_sigma(-0.196, 0.651, 4.3e-4),
    "interior_ge1": FtgParams(2.5, 1.0, 0.5),
    "pareto": FtgParams.pareto(-0.448, 1.382),
    "gamma": FtgParams.gamma(2.0, 1.0),
}
BIG_BATCH = 1_000_000
N40_CALLS = 2000


def clear_cache() -> None:
    cached = getattr(specfun, "_log_upper_inc_gamma_cached", None)
    if cached is not None and hasattr(cached, "cache_clear"):
        cached.cache_clear()


def median_time(fn, reps: int, prepare=clear_cache) -> float:
    times = []
    for _ in range(reps):
        prepare()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    m: dict[str, tuple[float, str]] = {}

    def grid_pass(fn, grid):
        return lambda: [fn(a, r) for a, r in grid]

    lg, ev = specfun.log_upper_inc_gamma, specfun.inc_gamma_eval
    m["specfun.log_upper_inc_gamma.us_per_call"] = (
        1e6 * median_time(grid_pass(lg, GRID + ZERO_RHO), 20) / len(GRID + ZERO_RHO), "us")
    m["specfun.inc_gamma_eval.us_per_call"] = (
        1e6 * median_time(grid_pass(ev, GRID), 20) / len(GRID), "us")

    rng = RngStream(args.seed)
    for regime, p in REGIMES.items():
        t = median_time(lambda: ftg_rvs(p, BIG_BATCH, rng.child(1)), 5)
        m[f"sample.ftg_rvs.ns_per_draw.{regime}"] = (1e9 * t / BIG_BATCH, "ns")
    p40 = REGIMES["interior_lt1"]
    streams = [rng.child(2, i) for i in range(N40_CALLS)]
    t = median_time(lambda: [ftg_rvs(p40, 40, s) for s in streams], 5)
    m["sample.ftg_rvs.us_per_call.n40"] = (1e6 * t / N40_CALLS, "us")

    bundled = load_external_fraud()
    failed = [] if fit_ftg(bundled).converged else ["n40"]  # pays the scipy import
    m["fit.fit_ftg.ms.n40"] = (1e3 * median_time(lambda: fit_ftg(bundled), 21), "ms")
    for label, n, reps in (("n1e3", 1000, 11), ("n1e5", 100_000, 3)):
        x = workloads.draw_large_input(args.seed, n)
        if not fit_ftg(x).converged:
            failed.append(label)
        m[f"fit.fit_ftg.ms.{label}"] = (1e3 * median_time(lambda: fit_ftg(x), reps), "ms")

    for name, (value, unit) in m.items():
        print(f"  {name:<44} {value:>12.6g} {unit}")
    print(json.dumps({"context": {**environment(), "seed": args.seed,
                                  "grid_points": len(GRID + ZERO_RHO),
                                  "batch": BIG_BATCH}}))
    for label in failed:
        print(f"  CHECK FAILED fit_ftg at {label} did not converge")
    print(json.dumps({"correct": not failed, "attempted": 3, "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
