"""Fit the bundled losses and the 787-sample parity panel, one line per fit.

Run from the repository root:

    PYTHONPATH=src:tests python tests/fit_parity.py > fits.txt

once for each of two versions of the fitter, then compare the two files:

    PYTHONPATH=src:tests python tests/fit_parity.py --compare old.txt new.txt

Each line holds the sample's key, ``boundary``, ``converged``, and the reprs
of alpha, sigma, rho, loglik and ``iterations``. ``--compare`` prints every
fit whose loglik fell by more than 1e-9, every fit whose ``boundary`` or
``converged`` flag changed or that became or stopped being a ``FitError``,
and the summed ``iterations`` of each file over the keys they share; it
names the keys found in one file only, and exits 1 if it printed any fit.
``--gof-replicates`` prints, in place of the panel, the 2,970 samples that
``gof --bundled --family ftg --n-boot 99`` refits at seeds 1000-1029,
``ftg_rvs(law, 40, RngStream(s).child(b))`` for b = 1-99, keys
``bundled s b``. The panel is:

- the bundled losses themselves, key ``bundled``;
- 402 replicates of the bundled fit's law, ``ftg_rvs(law, 40,
  RngStream(s).child(b))`` for s = 1000-1003 and b = 1-100, plus (2, 939)
  and (1010, 4), keys ``bundled s b``; (1010, 4) has a second profile mode
  that only the start at the sample mean finds;
- 384 synthetic samples, ``ftg_rvs(law, n, RngStream(4242).child(n, i))``
  for 8 laws, n = 40, 200 and 2000 and i = 1-16, keys ``law n i``;
- the exponential sample ``recipe``: 40 draws of
  ``np.random.default_rng(3).exponential(1.0)`` after 20 discarded ones.

The replicates draw from the bundled fit's law as printed below, not from
a fresh fit, so every version of the fitter sees the same samples. A few
light-tailed samples take seconds each; the whole panel takes under a
minute on a 2-core x86_64 machine.
"""

import argparse
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
    for s, b in [(s, b) for s in range(1000, 1004) for b in range(1, 101)] + [(2, 939), (1010, 4)]:
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


def gof_replicates():
    """(key, values) for the refits of gof --bundled --family ftg --n-boot 99
    at seeds 1000-1029."""
    for s in range(1000, 1030):
        for b in range(1, 100):
            yield f"bundled {s} {b}", ftg_rvs(BUNDLED_LAW, 40, RngStream(s).child(b))


def parse_fits(path: str) -> dict:
    """key -> {field: value} for every line of a file this script printed; a
    FitError line maps to {"error": message}."""
    fits = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, rest = line.rstrip("\n").partition(": ")
            if rest.startswith("FitError"):
                fits[key] = {"error": rest}
            else:
                fits[key] = dict(tok.split("=", 1) for tok in rest.split())
    return fits


def compare(old_path: str, new_path: str) -> int:
    """Print the fits that lost loglik or changed a flag between two files,
    the keys of one file only, and each file's summed iterations; 1 if any
    fit was printed."""
    old, new = parse_fits(old_path), parse_fits(new_path)
    for name, keys in (("old", [k for k in old if k not in new]),
                       ("new", [k for k in new if k not in old])):
        if keys:
            print(f"{len(keys)} keys only in {name}, the first {keys[0]!r}")
    shared = [k for k in old if k in new]
    bad = 0
    for key in shared:
        a, b = old[key], new[key]
        if "error" in a or "error" in b:
            if ("error" in a) != ("error" in b):
                print(f"error changed: {key}: {a.get('error', 'fit')} -> {b.get('error', 'fit')}")
                bad += 1
            continue
        flags = [f for f in ("boundary", "converged") if a[f] != b[f]]
        if flags:
            print(f"flag changed: {key}: "
                  + ", ".join(f"{f} {a[f]} -> {b[f]}" for f in flags))
            bad += 1
        fall = float(a["loglik"]) - float(b["loglik"])
        if fall > 1e-9:
            print(f"loglik fell: {key}: {a['loglik']} -> {b['loglik']} ({fall:.3g})")
            bad += 1
    for name, fits in (("old", old), ("new", new)):
        total = sum(int(fits[k]["iterations"]) for k in shared if "error" not in fits[k])
        print(f"{name}: iterations {total} over the {len(shared)} keys of both files")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two files this script printed")
    parser.add_argument("--gof-replicates", action="store_true",
                        help="fit the gof refits of seeds 1000-1029, not the panel")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for key, values in (gof_replicates() if args.gof_replicates else panel()):
        print(fit_line(key, values), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
