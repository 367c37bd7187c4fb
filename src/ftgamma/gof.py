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
import os
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
    The transforms are one array call of cdf. Transforms exactly at 0 or 1
    are clamped to the representable open interval (with a warning) so A^2
    stays finite.
    """
    smp = Sample.coerce(sample)
    xs = smp.sorted()
    z = cdf(model, xs)
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

    Replicate b draws only from rng.child(b + 1), so the replicates run
    apart: where more than one CPU is usable, os.fork exists and the
    process runs no other thread, forked workers share them with this
    process (see _map_replicates); otherwise this process runs them all.
    The replicates are then folded here in order b = 0, 1, ..., and a
    replicate that warned or raised in a worker runs again here, so the
    report, the abort and every exception and warning are those of one
    process running them in order, on any number of CPUs.
    """
    if n_boot < 99:
        raise ValueError("n_boot must be at least 99")
    smp = Sample.coerce(sample)
    n = len(smp)
    fit = _fit_family(smp, family)
    model = fit.params
    w2_obs, a2_obs = cvm_ad_statistics(smp, model)

    def replicate(b: int):
        """(W^2, A^2) of replicate b, or None if its refit fails."""
        sim = Sample._adopt(ftg_rvs(model, n, rng.child(b + 1)))
        try:
            refit = _fit_family(sim, family)
            return cvm_ad_statistics(sim, refit.params)
        except (FitError, ValueError):
            return None

    ran = _map_replicates(replicate, n_boot, _PER_WORKER)
    exceed_w2 = exceed_a2 = 0
    failures = 0
    done = 0
    for b in range(n_boot):
        stats = ran[b] if b in ran else replicate(b)
        if stats is None:
            failures += 1
            if failures > 0.1 * n_boot:
                raise FitError(
                    f"{failures} bootstrap refits failed out of {b + 1}; aborting"
                )
            continue
        w2_b, a2_b = stats
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


# A worker must earn its start. The fork blocks the parent for 1.5-2.5 ms,
# the child's first tasks run about 7.5 ms slower in all while it faults in
# the pages it shares with the parent, and its exit and reaping take a few
# ms more: some 12 ms, or about eight replicates of 1.5 ms, a 40-point FTG
# refit (2-core x86_64, Python 3.11). The caller of _map_replicates states
# how many of its tasks a worker's share must hold: bootstrap_pvalue asks
# for _PER_WORKER replicates, so that the start stays near a third of a
# share, and a many-core host forks at most three workers for 99 replicates.
_PER_WORKER = 25
# a ticket is 4 bytes; 1024 of them fill a 4 KiB page, which any pipe holds,
# so the parent writes every ticket before a process reads one
_MAX_TICKETS = 1024


def _usable_cpus() -> int:
    """The CPUs this process may run on: _map_replicates forks workers
    only where there is more than one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(n_tasks: int, per_worker: int) -> int:
    """The workers _map_replicates forks, where it may, for n_tasks tasks
    when each worker's share must hold at least per_worker of them: one for
    each usable CPU beyond this process's own, as far as the tasks go."""
    return min(_usable_cpus() - 1, n_tasks // per_worker)


def _map_replicates(task, n_tasks: int, per_worker: int) -> dict:
    """{i: task(i)} for i in range(n_tasks), computed by this process and
    by _worker_count(n_tasks, per_worker) forked workers. The tasks are
    gof's bootstrap replicates or the bootstrap study's simulations; each
    must depend on its index alone, not on which tasks ran before it.

    Workers are forked only where os.fork exists and this process runs no
    other thread; otherwise the same loop runs here with none. The start of
    every chunk of tasks is a ticket in one pipe, and each process, this one
    included, claims the next chunk with one read until the pipe is empty,
    so a worker on a core the host is busy with claims fewer. Each worker
    sends its share back in one pickle and ends in os._exit. A task that
    raised or warned where it ran is left out of the map, as is every task
    of a worker that did not exit cleanly: the caller runs those again
    itself, in order. Every worker is reaped before this returns or raises,
    and killed first if this process's own share raised.
    """
    import pickle
    import signal
    import struct
    import threading

    chunk = -(-n_tasks // _MAX_TICKETS) or 1
    starts = range(0, n_tasks, chunk)
    tickets, write_end = os.pipe()
    os.write(write_end, struct.pack(f"={len(starts)}I", *starts))
    os.close(write_end)
    forks = hasattr(os, "fork") and threading.active_count() == 1
    n_workers = _worker_count(n_tasks, per_worker) if forks else 0
    workers = []  # (pid, read end of its result pipe)
    aborted = True
    try:
        for _ in range(n_workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no room for another process: go on with fewer
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                _work(task, tickets, chunk, n_tasks, write_end)
            os.close(write_end)
            workers.append((pid, read_end))
        if workers:
            with warnings.catch_warnings():
                # a warning here would come before those of earlier tasks
                # that workers ran: raise it, and rerun in order
                warnings.simplefilter("error")
                ran = _run_share(task, tickets, chunk, n_tasks)
        else:
            ran = _run_share(task, tickets, chunk, n_tasks)
        payloads = []
        for _, fd in workers:
            with open(fd, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
        aborted = False
    finally:
        os.close(tickets)
        statuses = []
        for pid, fd in workers:
            os.close(fd)
            if aborted:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for payload, status in zip(payloads, statuses):
        if status == 0:
            ran.update(pickle.loads(payload))
    return ran


def _run_share(task, tickets: int, chunk: int, n_tasks: int) -> dict:
    """{i: task(i)} over the chunks this process claims from the ticket
    pipe, until the pipe is empty. An exception, a warning raised as one
    among them, ends the share and leaves its task out, and so does the
    end of this process's parent: a worker whose caller was killed stops
    claiming."""
    import struct

    parent = os.getppid()
    ran = {}
    while os.getppid() == parent and (ticket := os.read(tickets, 4)):
        (start,) = struct.unpack("=I", ticket)
        for i in range(start, min(start + chunk, n_tasks)):
            try:
                ran[i] = task(i)
            except Exception:
                return ran
    return ran


def _work(task, tickets: int, chunk: int, n_tasks: int, out: int):
    """A forked worker: run a share with every warning raised, send it to
    the parent in one pickle, and end. It never returns into its caller's
    stack, and os._exit leaves the stdout it inherited unflushed."""
    import pickle

    code = 1
    try:
        warnings.simplefilter("error")
        ran = _run_share(task, tickets, chunk, n_tasks)
        with open(out, "wb") as pipe:
            pickle.dump(ran, pipe)
        code = 0
    finally:
        os._exit(code)


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

    Raises ValueError for a NaN origin, for one so far from the data's
    decades (infinite ones included) that the exponents decade_origin + s / b
    are not formed to within 1e-9 of a decade, which would move the points
    off the 10^(origin + s/b) grid, or cannot resolve half a bin, and
    wherever the bin edges are not finite and strictly increasing.
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
    if math.isnan(decade_origin):
        raise ValueError("decade origin is not a number")
    unresolved = (f"decade origin {decade_origin} is too far from the data's "
                  "decades to lay its grid of bins over them")
    # the exponents decade_origin + s / b, at most `reach` in size, are
    # formed to within ulp(reach): that must stay within 1e-9 of a decade
    # and resolve half a bin, 0.5 / b, before any edge is laid
    reach = abs(decade_origin) + abs(math.log10(lo)) + abs(math.log10(hi)) + 1.0
    if not (math.ulp(reach) <= 1e-9 and b * math.ulp(reach) < 0.5):
        raise ValueError(unresolved)
    # smallest s with edge >= lo, largest with edge <= hi, padded to cover
    s_lo = math.floor(b * (math.log10(lo) - math.log10(offset)) - b * decade_origin)
    s_hi = math.ceil(b * (math.log10(hi) - math.log10(offset)) - b * decade_origin)
    for _ in range(2):  # one step down is all that rounding can need
        if offset * 10.0 ** (decade_origin + s_lo / b) < lo:
            break
        s_lo -= 1  # bins are left-open: the minimum must lie strictly inside
    s = np.arange(s_lo, s_hi + 1)
    edges = offset * 10.0 ** (decade_origin + s / b)
    if not (edges[0] < lo and np.isfinite(edges[-1]) and (np.diff(edges) > 0.0).all()):
        raise ValueError(unresolved)
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
