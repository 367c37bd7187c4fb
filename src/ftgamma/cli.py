"""Command-line interface: fit, sample, risk, gof, plotdata.

Every command writes its primary output (plain text or ``--json``) to stdout
or ``--out``, and a one-line JSON run manifest to stderr. The manifest
records the command, every parsed argument, the seed, a digest of the
values analysed and the version; identical manifests (timestamp aside)
produce byte-identical primary output. Exit codes: 0 success, 1 usage,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import secrets
import sys
import time

from . import __version__
from .data import DataError, Sample, load_external_fraud, read_dataset
from .dist import FtgParams, pdf, survival
from .errors import FitError, NumericsError
from .fit import FitResult, fit_ftg, fit_gamma, fit_pareto, lrt_pareto_vs_ftg
from .gof import bootstrap_pvalue, empirical_survival, log_binned_histogram
from .risk import RiskConfig, bootstrap_study, risk_capital
from .sample import RngStream, sample_ftg

_EXIT_USAGE = 1
_EXIT_DATA = 2
_EXIT_NUMERIC = 3


class UsageError(Exception):
    """A flag value that parses but makes no sense (negative rate, n = 0...)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _manifest(args, smp: Sample | None) -> int | None:
    """Write the run manifest to stderr and return the run's seed.

    The manifest holds every parsed argument under its argparse dest name,
    the seed (--seed, or a fresh one when a command that draws got none),
    and input_digest, the SHA-256 of the analysed values' float64 bytes.
    """
    parameters = {k: v for k, v in vars(args).items()
                  if k not in ("func", "command", "seed")}
    seed = getattr(args, "seed", None)
    if seed is None and hasattr(args, "seed"):
        seed = secrets.randbits(48)
    manifest = {
        "command": args.command,
        "parameters": parameters,
        "seed": seed,
        # hashes the values' own buffer: no copy
        "input_digest": (None if smp is None
                         else hashlib.sha256(smp.values).hexdigest()[:16]),
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    print(json.dumps({"manifest": manifest}, sort_keys=True), file=sys.stderr)
    return seed


def _load(args) -> Sample:
    if args.bundled:
        return load_external_fraud()
    if not args.data:
        raise DataError("provide --data PATH or --bundled")
    column = args.column
    if isinstance(column, str) and column.isdigit():
        column = int(column)
    return read_dataset(args.data, column=column)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _add_data_args(p: _Parser) -> None:
    p.add_argument("--data", help="path to a loss file (plain or single-column CSV)")
    p.add_argument("--bundled", action="store_true",
                   help="use the bundled 40-loss example dataset")
    p.add_argument("--column", default=None,
                   help="CSV column name or index (default: first)")


def _add_common(p: _Parser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", default=None, help="write primary output to this path")


# ------------------------------------------------------------------- fit
def _fit_text(pareto: FitResult | None, ftg: FitResult | None,
              gamma: FitResult | None, lrt) -> str:
    lines = []
    if pareto is not None:
        pp = pareto.params
        lines.append("Pareto distribution")
        lines.append(f"  alpha  {pp.alpha:12.4f}   (s.e. {pareto.std_errors[0]:.4f})")
        lines.append(f"  sigma  {pp.sigma:12.4f}   (s.e. {pareto.std_errors[1]:.4f})")
        lines.append(f"  loglik {pareto.loglik:12.4f}   converged={pareto.converged}")
    if gamma is not None:
        gp = gamma.params
        lines.append("Gamma distribution")
        lines.append(f"  alpha  {gp.alpha:12.4f}   (s.e. {gamma.std_errors[0]:.4f})")
        lines.append(f"  theta  {gp.theta:12.4f}   (s.e. {gamma.std_errors[1]:.4f})")
        lines.append(f"  loglik {gamma.loglik:12.4f}   converged={gamma.converged}")
    if ftg is not None:
        fp = ftg.params
        lines.append("FTG distribution")
        if ftg.boundary == "pareto":
            lines.append("  (optimum on the Pareto edge rho -> 0; reporting that model)")
            lines.append(f"  alpha  {fp.alpha:12.4f}")
            lines.append(f"  sigma  {fp.sigma:12.4f}")
        elif ftg.boundary == "gamma":
            lines.append("  (optimum on the gamma edge rho -> 0; reporting that model)")
            lines.append(f"  alpha  {fp.alpha:12.4f}")
            lines.append(f"  theta  {fp.theta:12.4f}")
        else:
            lines.append(f"  alpha  {fp.alpha:12.4f}   (s.e. {ftg.std_errors[0]:.4f})")
            lines.append(f"  sigma  {fp.sigma:12.4f}   (s.e. {ftg.std_errors[1]:.4f})")
            lines.append(f"  rho    {fp.rho:12.4e}   (s.e. {ftg.std_errors[2]:.4e})")
        lines.append(f"  loglik {ftg.loglik:12.4f}   converged={ftg.converged}")
    if lrt is not None:
        lines.append(f"LRT (Pareto within FTG)  statistic={lrt[0]:.4f}  p-value={lrt[1]:.4f}")
    return "\n".join(lines)


def cmd_fit(args) -> int:
    smp = _load(args)
    _manifest(args, smp)
    pareto = ftg = gamma = None
    lrt = None
    if args.family in ("ftg", "all"):
        ftg = fit_ftg(smp)
    if args.family == "pareto":
        pareto = fit_pareto(smp)
    if args.family == "gamma":
        gamma = fit_gamma(smp)
    if args.family == "all":
        # the FTG fit made the Pareto fit as an edge candidate
        pareto = ftg.pareto_fit
        lrt = lrt_pareto_vs_ftg(ftg)
    if args.json:
        payload = {
            "command": "fit",
            "family": args.family,
            "pareto": pareto.to_dict() if pareto else None,
            "ftg": ftg.to_dict() if ftg else None,
            "gamma": gamma.to_dict() if gamma else None,
            "lrt": {"statistic": lrt[0], "p_value": lrt[1]} if lrt else None,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit(_fit_text(pareto, ftg, gamma, lrt), args.out)
    failed = any(f.failed for f in (pareto, ftg, gamma) if f is not None)
    return _EXIT_NUMERIC if failed else 0


# ------------------------------------------------------------------ sample
def _params_from_args(args) -> FtgParams:
    if args.family == "pareto":
        if args.sigma is None:
            raise UsageError("pareto needs --alpha and --sigma")
        return FtgParams.pareto(args.alpha, args.sigma)
    if args.family == "gamma":
        if args.theta is None:
            raise UsageError("gamma needs --alpha and --theta")
        return FtgParams.gamma(args.alpha, args.theta)
    if args.rho is None:
        raise UsageError("ftg needs --rho (plus --theta or --sigma)")
    if (args.theta is None) == (args.sigma is None):
        raise UsageError("ftg needs exactly one of --theta or --sigma")
    if args.theta is not None:
        return FtgParams(args.alpha, args.theta, args.rho)
    return FtgParams.from_sigma(args.alpha, args.sigma, args.rho)


def cmd_sample(args) -> int:
    if args.n < 1:
        raise UsageError("-n must be >= 1")
    params = _params_from_args(args)
    seed = _manifest(args, None)
    batch = sample_ftg(params, args.n, RngStream(seed))
    if args.json:
        payload = {
            "command": "sample",
            "seed": seed,
            "n": args.n,
            "acceptance_rate": batch.acceptance_rate,
            "values": batch.values.tolist(),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit("\n".join(f"{v:.12g}" for v in batch.values), args.out)
    return 0


# -------------------------------------------------------------------- risk
def cmd_risk(args) -> int:
    if args.lam is not None and args.lam <= 0:
        raise UsageError("--lambda must be > 0")
    if args.bootstrap is not None and (args.bootstrap < 1 or args.keep_every < 1):
        raise UsageError("--bootstrap and --keep-every must be >= 1")
    smp = _load(args)
    seed = _manifest(args, smp)
    cfg = RiskConfig(lam=args.lam, quantile_level=args.level,
                     n_sims=args.n_sims, seed=seed)
    if args.bootstrap:
        study = bootstrap_study(smp, args.bootstrap, args.keep_every, cfg)
        if args.json:
            rows = []
            for r in study.all_rows():
                rows.append({
                    "sample_id": r.sample_id,
                    "ok": r.ok,
                    "error": r.error,
                    "pareto": r.pareto_fit.to_dict() if r.pareto_fit else None,
                    "pareto_risk_capital": r.pareto_risk_capital,
                    "ftg": r.ftg_fit.to_dict() if r.ftg_fit else None,
                    "ftg_risk_capital": r.ftg_risk_capital,
                })
            payload = {"command": "risk", "mode": "bootstrap",
                       "selection_rule": study.selection_rule, "rows": rows,
                       "seed": seed}
            _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        else:
            lines = [
                "          Pareto distribution             FTG distribution",
                "sample    alpha   sigma   risk capital    alpha  ln(theta)  ln(rho)  risk capital",
            ]
            for r in study.all_rows():
                tag = "orig" if r.sample_id == 0 else f"{r.sample_id:4d}"
                if not r.ok:
                    lines.append(f"{tag:>6}    fit failed: {r.error}")
                    continue
                pp, fp = r.pareto_fit.params, r.ftg_fit.params
                if fp.is_interior:
                    lth, lrh = math.log(fp.theta), math.log(fp.rho)
                    ftg_cols = f"{fp.alpha:+7.3f} {lth:9.3f} {lrh:9.3f}  {r.ftg_risk_capital:12.2f}"
                else:
                    ftg_cols = (f"{fp.alpha:+7.3f}  ({fp.regime} boundary)  "
                                f"{r.ftg_risk_capital:12.2f}")
                lines.append(
                    f"{tag:>6}  {pp.alpha:+7.3f} {pp.sigma:7.3f}   {r.pareto_risk_capital:12.4g} "
                    f"   {ftg_cols}"
                )
            _emit("\n".join(lines), args.out)
        return 0
    report = risk_capital(smp, args.family, cfg)
    if report.infinite_mean_severity:
        print("warning: fitted severity has infinite mean; capital estimates "
              "for it are intrinsically unstable", file=sys.stderr)
    if args.json:
        _emit(json.dumps({"command": "risk", **report.to_dict()},
                         indent=2, sort_keys=True), args.out)
    else:
        fit = report.fit
        p = fit.params
        lines = [f"severity family: {args.family}"]
        if fit.family == "pareto":
            lines.append(f"  alpha={p.alpha:.4f} sigma={p.sigma:.4f}")
        elif p.is_gamma:
            # sigma = rho / theta is 0 on this edge: theta sets the scale
            lines.append(f"  alpha={p.alpha:.4f} theta={p.theta:.4e}")
        else:
            lines.append(f"  alpha={p.alpha:.4f} sigma={p.sigma:.4f} rho={p.rho:.4e}")
        lines.append(f"loglik {fit.loglik:.4f}")
        lines.append(f"aggregate quantiles (lambda={args.lam}, {args.n_sims} sims, seed={seed}):")
        for lvl, q in sorted(report.aggregate_quantiles.items()):
            lines.append(f"  {lvl:7.4f}  {q:14.2f}")
        lines.append(f"risk capital ({args.level:.4f}): {report.risk_capital:.2f}")
        te = report.tail_expectation
        lines.append(
            "expected loss beyond risk capital: "
            + (f"{te:.2f}" if math.isfinite(te) else "infinite")
        )
        _emit("\n".join(lines), args.out)
    return 0


# --------------------------------------------------------------------- gof
def cmd_gof(args) -> int:
    smp = _load(args)
    seed = _manifest(args, smp)
    report = bootstrap_pvalue(smp, args.family, args.n_boot, RngStream(seed))
    if args.json:
        _emit(json.dumps({"command": "gof", "family": args.family, "seed": seed,
                          **report.to_dict()}, indent=2, sort_keys=True), args.out)
    else:
        _emit(
            "\n".join([
                f"family: {args.family}   bootstrap replicates: {report.n_bootstrap}"
                f" (failures: {report.n_refit_failures})",
                f"W^2 = {report.w2:.4f}   p = {report.p_w2:.4f}",
                f"A^2 = {report.a2:.4f}   p = {report.p_a2:.4f}",
            ]),
            args.out,
        )
    return 0


# ---------------------------------------------------------------- plotdata
def cmd_plotdata(args) -> int:
    smp = _load(args)
    _manifest(args, smp)
    ftg = fit_ftg(smp)
    p_f, p_p = ftg.params, ftg.pareto_fit.params
    if args.mode == "survival":
        rows = ["x empirical ftg pareto"]
        for x, s_emp in zip(*empirical_survival(smp)):
            rows.append(
                f"{x:.6g} {s_emp:.6f} {survival(p_f, float(x)):.6e} "
                f"{survival(p_p, float(x)):.6e}"
            )
    else:
        if args.preset == "cyclone":
            hist = log_binned_histogram(smp, decade_origin=8.0, bins_per_decade=5)
        else:
            origin = args.origin
            if origin is None:
                origin = math.floor(math.log10(float(smp.values[smp.values > 0].min())))
            hist = log_binned_histogram(smp, decade_origin=origin,
                                        bins_per_decade=args.bins_per_decade)
        rows = ["p density ftg pareto"]
        for pt, dens in zip(hist.eval_points, hist.densities):
            rows.append(
                f"{pt:.6g} {dens:.6e} {pdf(p_f, float(pt)):.6e} "
                f"{pdf(p_p, float(pt)):.6e}"
            )
    if args.json:
        header = rows[0].split()
        data = [[float(tok) for tok in r.split()] for r in rows[1:]]
        _emit(json.dumps({"command": "plotdata", "mode": args.mode,
                          "columns": header, "rows": data},
                         indent=2, sort_keys=True), args.out)
    else:
        _emit("\n".join(rows), args.out)
    return 0


# -------------------------------------------------------------------- main
def _build_parser() -> _Parser:
    parser = _Parser(prog="ftg", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[], help="maximum-likelihood fits")
    _add_data_args(p)
    p.add_argument("--family", choices=["ftg", "pareto", "gamma", "all"],
                   default="all")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="draw random variates")
    p.add_argument("--family", choices=["ftg", "pareto", "gamma"], default="ftg")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("-n", type=int, required=True, help="number of variates")
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("risk", help="compound-Poisson risk capital")
    _add_data_args(p)
    p.add_argument("--family", choices=["ftg", "pareto"], default="ftg")
    p.add_argument("--lambda", dest="lam", type=float, default=20.0,
                   help="annual loss frequency (default 20)")
    p.add_argument("--level", type=float, default=0.999)
    p.add_argument("--n-sims", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bootstrap", type=int, default=None, metavar="N",
                   help="run an N-resample stability study instead")
    p.add_argument("--keep-every", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("gof", help="goodness-of-fit with bootstrap p-values")
    _add_data_args(p)
    p.add_argument("--family", choices=["ftg", "pareto"], default="pareto")
    p.add_argument("--n-boot", type=int, default=999)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("plotdata", help="columns for external plotting")
    _add_data_args(p)
    p.add_argument("--mode", choices=["survival", "histogram"], required=True)
    p.add_argument("--origin", type=float, default=None,
                   help="histogram decade origin (default: from data)")
    p.add_argument("--bins-per-decade", type=int, default=5)
    p.add_argument("--preset", choices=["cyclone"], default=None,
                   help="tropical-cyclone binning preset (origin 8, five per decade)")
    _add_common(p)
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"ftg: data error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except (FitError, NumericsError) as exc:
        print(f"ftg: numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except UsageError as exc:
        print(f"ftg: usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except ValueError as exc:
        print(f"ftg: invalid request: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
