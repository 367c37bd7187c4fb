"""Fit the bundled losses and the 786-sample parity panel, one line per fit.

Run from the repository root:

    PYTHONPATH=src:tests python tests/fit_parity.py > fits.txt

and compare the output of two versions of the fitter line by line. Each line
holds the sample's key, ``boundary``, ``converged``, and the reprs of alpha,
sigma, rho, loglik and ``iterations``. The panel is:

- the bundled losses themselves, key ``bundled``;
- 401 replicates of the bundled fit's law, ``ftg_rvs(law, 40,
  RngStream(s).child(b))`` for s = 1000-1003 and b = 1-100, plus (2, 939),
  keys ``bundled s b``;
- 384 synthetic samples, ``ftg_rvs(law, n, RngStream(4242).child(n, i))``
  for 8 laws, n = 40, 200 and 2000 and i = 1-16, keys ``law n i``;
- the exponential sample ``recipe``: 40 draws of
  ``np.random.default_rng(3).exponential(1.0)`` after 20 discarded ones.

The replicates draw from the bundled fit's law as printed below, not from
a fresh fit, so every version of the fitter sees the same samples. A few
light-tailed samples take seconds each; the whole panel takes under a
minute on a 2-core x86_64 machine.
"""

import sys

import numpy as np

from ftgamma import FitError, FtgParams, RngStream, fit_ftg, ftg_rvs, load_external_fraud

BUNDLED_LAW = FtgParams(-0.1964803671608535, 0.0006594575534190036, 0.0004295490596932579)

SYNTHETIC_LAWS = {
    "ftg(1.5,1,0.5)": FtgParams(1.5, 1.0, 0.5),
    "ftg(2,1,1)": FtgParams(2.0, 1.0, 1.0),
    "gamma(3)": FtgParams.gamma(3.0, 1.0),
    "gamma(0.6)": FtgParams.gamma(0.6, 1.0),
    "pareto(-3,1)": FtgParams.pareto(-3.0, 1.0),
    "pareto(-1.5,1)": FtgParams.pareto(-1.5, 1.0),
    "sigma(-1.5,1,0.02)": FtgParams.from_sigma(-1.5, 1.0, 0.02),
    "sigma(-0.5,1,0.1)": FtgParams.from_sigma(-0.5, 1.0, 0.1),
}


def panel():
    """(key, values) for every sample of the panel, in a fixed order."""
    yield "bundled", load_external_fraud().values
    for s, b in [(s, b) for s in range(1000, 1004) for b in range(1, 101)] + [(2, 939)]:
        yield f"bundled {s} {b}", ftg_rvs(BUNDLED_LAW, 40, RngStream(s).child(b))
    for name, law in SYNTHETIC_LAWS.items():
        for n in (40, 200, 2000):
            for i in range(1, 17):
                yield f"{name} {n} {i}", ftg_rvs(law, n, RngStream(4242).child(n, i))
    gen = np.random.default_rng(3)
    gen.exponential(1.0, 20)
    yield "recipe", gen.exponential(1.0, 40)


def fit_line(key: str, values: np.ndarray) -> str:
    try:
        fit = fit_ftg(values)
    except FitError as exc:
        return f"{key}: FitError {exc}"
    p = fit.params
    return (f"{key}: boundary={fit.boundary} converged={fit.converged} "
            f"alpha={p.alpha!r} sigma={p.sigma!r} rho={p.rho!r} "
            f"loglik={fit.loglik!r} iterations={fit.iterations!r}")


def main() -> None:
    for key, values in panel():
        print(fit_line(key, values), flush=True)


if __name__ == "__main__":
    sys.exit(main())
