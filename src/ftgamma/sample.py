"""Random variate generation for the FTG family.

Each shape regime has one exact sampler. The Pareto boundary uses
inversion and the gamma boundary the generator's own gamma method. An
interior law is X = (T - rho) / theta, with T the left-truncated gamma of
density t^(alpha-1) e^-t on (rho, inf), drawn by rejection (Devroye,
Non-Uniform Random Variate Generation, 1986, ch. II): from a two-piece
composition envelope for alpha < 1 with rho < 1, whose acceptance tends to
1 as rho -> 0, and from a shifted exponential for every other interior law.

Both envelopes share one accept-and-fill loop, which proposes in blocks of
at most ``_BLOCK`` candidates and hands each block's accepted variates on,
in proposal order, as one piece: every temporary stays cache-sized.
``ftg_rvs`` and ``sample_ftg`` copy the pieces into their n-element result,
and hold little beyond it; ``ftg_rvs(..., take=fold)`` hands them to fold
instead, at most ``_BLOCK`` variates at a time, so a caller that folds them
as they come, as ``risk.simulate_aggregate`` does, never holds all n.
Each envelope splits a block into ``draw(k)``, which makes every generator
call, and ``judge(drawn)``, pure arithmetic that returns the candidates and
their acceptance. Where the process may use two CPUs, the blocks that the
loop would certainly draw at the full ``_BLOCK`` size are drawn on a helper
thread, up to ``_AHEAD`` blocks ahead, while the caller judges and takes
the pieces; NumPy releases the GIL for both. The generator makes the same
calls in the same order either way, so the variates, the attempt count and
the generator's end position are bit for bit those of the serial loop, and
no block is drawn that the serial loop would not draw. A request for fewer
than _BLOCK * (1 + 1 / _OVERDRAW), about 1.1e5, variates starts no thread.
The two-piece envelope computes its power-law piece densely with in-place
ufuncs, recycling the pick uniform as that piece's inversion uniform, and
draws the exponential piece only at the positions that picked it. The
boundary samplers draw all n variates at once, as one piece, and they and
the interior map (T - rho) / theta work in place on their pieces.
``ftg_rvs`` returns the variates; ``sample_ftg`` returns the same
variates with the envelope's attempt count.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .dist import FtgParams

_BLOCK = 1 << 16
# proposals per still-missing variate in each block
_OVERDRAW = 1.5
# blocks the helper thread may draw ahead of the one being judged: with two,
# the slower stage, the generator's, never waits for the caller to wake
_AHEAD = 2


@dataclass
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Identical keys reproduce identical variate sequences; distinct keys give
    statistically independent streams (counter-based Philox under a
    SeedSequence). A stream owns its generator state: do not share one
    instance between concurrent tasks, derive children instead. Within one
    request the sampler may hand the generator to a helper thread, which
    draws blocks ahead while the calling thread leaves the generator alone:
    one thread at a time uses it.
    """

    seed: int
    stream_id: int = 0
    _path: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            entropy = (int(self.seed), int(self.stream_id)) + self._path
            self._generator = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy))
            )
        return self._generator

    def child(self, *path: int) -> "RngStream":
        """Independent derived stream; children with distinct paths never collide."""
        return RngStream(self.seed, self.stream_id, self._path + tuple(path))


@dataclass
class SampleBatch:
    """Variates plus rejection diagnostics."""

    values: np.ndarray
    attempts: int

    @property
    def acceptance_rate(self) -> float:
        """Share of the proposals that were accepted."""
        return self.values.size / self.attempts


def _block(missing: int) -> int:
    """Proposals in the next block: _OVERDRAW per missing variate, within
    [1024, _BLOCK]."""
    return int(min(max(_OVERDRAW * missing, 1024), _BLOCK))


def _usable_cpus() -> int:
    """The CPUs this process may run on: the sampler draws ahead and
    gof.bootstrap_pvalue forks workers only where there is more than one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_ahead(draw, asks, results):
    """The helper thread: draw(k) for each k asked, in order, until k = 0;
    a draw that raises passes its exception on in place of the block."""
    for k in iter(asks.get, 0):
        try:
            results.put(draw(k))
        except BaseException as exc:  # raised again by the caller
            results.put(exc)


def _accept_and_fill(draw, judge, n: int):
    """Yield the first n accepted proposals, in proposal order, as the
    accepted proposals of one block at a time, each with the number of
    proposals made so far: through its whole block, or in the last piece up
    to the one that completed the request.

    draw(k) makes every generator call for a block of k proposals and
    judge(drawn) turns it into (t, accept) without the generator. Each
    block holds _OVERDRAW times the number of variates still missing, within
    [1024, _BLOCK]. The cap keeps the envelope's temporaries (a few arrays
    of k doubles) and each piece in cache: one block for a whole large
    request would allocate, page-fault and stream each of them through
    memory, and hold them all at once.

    A block is certain to be drawn, at exactly _BLOCK, when the blocks
    before it leave at least _BLOCK / _OVERDRAW variates missing even if
    they accept every proposal: n - filled - (proposals drawn but not yet
    folded) >= _BLOCK / _OVERDRAW. Where the process may use two CPUs, a
    helper thread draws such blocks, up to _AHEAD of them ahead, while this
    thread judges and the caller takes the pieces; every other block is
    drawn here, after the helper's blocks are folded. The generator sees
    the same calls in the same order on either path, so the values, the
    attempts and its end position are bit-identical to the serial loop, and
    no block is drawn that the serial loop would not draw. The helper
    starts only for a request whose first test passes, and is joined on
    every exit, including the caller's closing of this generator.
    """
    filled = 0
    attempts = 0
    k = _block(n)
    drawn = draw(k)
    # the variates still missing only shrink, so the test passes for a
    # prefix of the blocks or for none: the first block's test decides
    helper = None
    if n - k >= _BLOCK / _OVERDRAW and _usable_cpus() > 1:
        import queue  # imported here: only a request that draws ahead needs it

        asks, results = queue.SimpleQueue(), queue.SimpleQueue()
        helper = threading.Thread(target=_draw_ahead, args=(draw, asks, results),
                                  daemon=True)
        helper.start()
    queued = 0  # blocks asked of the helper and not yet taken
    try:
        while True:
            while (helper is not None and queued < _AHEAD
                   and n - filled - k - queued * _BLOCK >= _BLOCK / _OVERDRAW):
                asks.put(_BLOCK)
                queued += 1
            t, acc = judge(drawn)
            hits = np.flatnonzero(acc)
            need = n - filled
            if hits.size >= need:
                yield t[hits[:need]], attempts + int(hits[need - 1]) + 1
                return
            attempts += k
            filled += hits.size
            yield t[hits], attempts
            if queued:
                k, drawn = _BLOCK, results.get()
                queued -= 1
                if isinstance(drawn, BaseException):
                    raise drawn
            else:
                k = _block(n - filled)
                drawn = draw(k)
    finally:
        if helper is not None:
            asks.put(0)
            helper.join()


def _trunc_gamma_shifted_exp(alpha: float, rho: float, n: int,
                             gen: np.random.Generator):
    """n draws of T, with density t^(alpha-1) e^-t on (rho, inf), alpha >= 1
    or rho >= 1, in the pieces of ``_accept_and_fill``.

    Rejection from the shifted exponential rho + Exp(lam) with the classical
    optimal rate lam = (rho - alpha + sqrt((rho - alpha)^2 + 4 rho)) / (2 rho),
    capped at 1. lam = 1 whenever alpha <= 1, where the acceptance ratio is
    (t / rho)^(alpha-1). Below rho = alpha the rate is formed as
    2 / (alpha - rho + sqrt(...)), whose terms share one sign: the first
    form cancels to 0 once rho is below about 1e-16 alpha.
    """
    root = math.sqrt((rho - alpha) ** 2 + 4.0 * rho)
    if rho < alpha:
        lam = 2.0 / ((alpha - rho) + root)
    else:
        lam = ((rho - alpha) + root) / (2.0 * rho)
    lam = min(lam, 1.0)
    one_m = 1.0 - lam
    # mode of the acceptance ratio t^(alpha-1) e^-(1-lam) t over t >= rho
    if one_m > 0.0:
        t_hat = max(rho, (alpha - 1.0) / one_m)
    else:
        t_hat = rho
    log_m = (alpha - 1.0) * math.log(t_hat) - one_m * t_hat

    def draw(k: int):
        return gen.standard_exponential(k), gen.random(k)

    def judge(drawn):
        e, u = drawn
        t = rho + e / lam
        return t, u <= np.exp((alpha - 1.0) * np.log(t) - one_m * t - log_m)

    return _accept_and_fill(draw, judge, n)


def _trunc_gamma_two_piece(alpha: float, rho: float, n: int,
                           gen: np.random.Generator):
    """n draws of T, with density t^(alpha-1) e^-t on (rho, inf), alpha < 1
    and rho < 1, in the pieces of ``_accept_and_fill``.

    Composition envelope: a power-law piece t^(alpha-1) e^-rho on (rho, 1]
    with mass m1 and an exponential piece e^-t on (1, inf) with mass
    m2 = e^-1. The acceptance rate is Gamma(alpha, rho) / (m1 + m2), which
    tends to 1 as rho -> 0. m1 is taken in log scale, so that rho^alpha may
    exceed the float range.
    """
    log_ratio = -math.log(rho)  # ln(1 / rho)
    if alpha == 0.0:
        log_m1 = -rho + math.log(log_ratio)
    else:
        # expm = rho^-alpha - 1, and m1 = e^-rho rho^alpha expm / alpha
        expm = math.expm1(alpha * log_ratio)
        log_m1 = -rho - alpha * log_ratio + math.log(expm / alpha)
    p1 = 1.0 / (1.0 + math.exp(-1.0 - log_m1))  # m1 / (m1 + m2)

    def draw(k: int):
        u = gen.random(k)
        w = gen.random(k)
        other = np.flatnonzero(u >= p1)
        return u, w, other, gen.standard_exponential(other.size)

    def judge(drawn):
        u, w, other, t = drawn
        u[other] = 0.0
        # in place, by inversion on (rho, 1] with v = u / p1 uniform on
        # [0, 1) given u < p1: T = rho (1 + v expm1(alpha ln(1/rho)))^(1/alpha),
        # with acceptance ratio e^-(T - rho)
        if alpha == 0.0:
            u *= log_ratio / p1
        else:
            u *= expm / p1
            np.log1p(u, out=u)
            u /= alpha
        np.exp(u, out=u)
        u *= rho
        ratio = np.subtract(rho, u)
        np.exp(ratio, out=ratio)
        # the exponential piece: T = 1 + Exp(1), acceptance ratio T^(alpha - 1)
        t += 1.0
        u[other] = t
        ratio[other] = t ** (alpha - 1.0)
        return u, np.less_equal(w, ratio)

    return _accept_and_fill(draw, judge, n)


def _pieces(p: FtgParams, n: int, gen: np.random.Generator):
    """Yield n variates of p, in order, in pieces, each with the proposals
    taken so far (n at the boundaries, whose one draw is one piece). Close
    it to stop early: its helper thread is joined."""
    if p.is_pareto:
        # 1 - U in (0, 1]: never raises 0 to a negative power
        x = gen.random(n)
        np.subtract(1.0, x, out=x)
        x **= 1.0 / p.alpha
        x -= 1.0
        x *= p.sigma
        yield x, n
        return
    if p.is_gamma:
        x = gen.gamma(p.alpha, size=n)
        x /= p.theta
        yield x, n
        return
    if p.alpha < 1.0 and p.rho < 1.0:
        blocks = _trunc_gamma_two_piece(p.alpha, p.rho, n, gen)
    else:
        blocks = _trunc_gamma_shifted_exp(p.alpha, p.rho, n, gen)
    with contextlib.closing(blocks):
        for x, attempts in blocks:
            x -= p.rho
            x /= p.theta
            yield x, attempts


def _draw(p: FtgParams, n: int, gen: np.random.Generator):
    """n variates of p in one array, and the proposals they took."""
    out, filled = None, 0
    for x, attempts in _pieces(p, n, gen):
        if x.size == n:  # the whole request in one piece: no copy
            out = x
        else:
            if out is None:
                out = np.empty(n)
            out[filled:filled + x.size] = x
            filled += x.size
    return out, attempts


def sample_ftg(p: FtgParams, n: int, rng: RngStream) -> SampleBatch:
    """Draw n variates with rejection diagnostics.

    The values are exactly those of ``ftg_rvs`` on the same stream. For
    interior shapes, attempts counts the envelope proposals; at the
    boundaries every draw is accepted.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return SampleBatch(*_draw(p, n, rng.generator))


def ftg_rvs(p: FtgParams, n: int, rng: RngStream,
            take: Callable[[np.ndarray], object] | None = None) -> np.ndarray | None:
    """n variates of p; the values of ``sample_ftg`` without its diagnostics.

    Given ``take``, the variates are not gathered and None is returned:
    take(x) is called on them in order, at most _BLOCK at a time, as the
    sampler hands them over. An exception from take ends the draw, with
    the sampler's helper thread joined, and propagates.
    """
    if take is None:
        return _draw(p, n, rng.generator)[0]
    with contextlib.closing(_pieces(p, n, rng.generator)) as pieces:
        for x, _ in pieces:
            for lo in range(0, x.size, _BLOCK):
                take(x[lo:lo + _BLOCK])
    return None
