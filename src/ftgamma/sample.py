"""Random variate generation for the FTG family.

Each shape regime has one exact sampler. The Pareto boundary uses
inversion and the gamma boundary the generator's own gamma method. An
interior law is X = (T - rho) / theta, with T the left-truncated gamma of
density t^(alpha-1) e^-t on (rho, inf), drawn by rejection (Devroye,
Non-Uniform Random Variate Generation, 1986, ch. II): from a two-piece
composition envelope for alpha < 1 with rho < 1, whose acceptance tends to
1 as rho -> 0, and from a shifted exponential for every other interior law.

Every sampler draws on the calling thread, in blocks of at most ``_BLOCK``
variates or proposals, and hands each block's variates on, in order, as
one piece; a block is drawn only once the previous piece has been taken,
so every working array stays cache-sized. A request allocates its working
arrays once, at the size of its first block, and every block reuses them:
the generator fills them through ``out=``, the arithmetic runs in place,
and each piece is a view of them that the next block overwrites. Fresh
arrays per block would let malloc hand each block's freed arrays back to
the kernel and make the next block page-fault them in again: about 7,500
minor faults in a fresh process's 1e5-year simulation of the bundled fit,
against 1,300 with reuse. The edges draw ``min(_BLOCK, left)`` variates at
a time, which gives the bits of one call for all n and leaves the
generator where that call would. Both envelopes feed one accept-and-fill
loop, each through a closure that proposes one block. The two-piece
envelope computes its power-law piece densely with in-place ufuncs,
recycling the pick uniform as that piece's inversion uniform, and draws
the exponential piece only at the positions that picked it. The edge
samplers and the interior map (T - rho) / theta work in place on their
pieces. A request for no variates draws nothing. ``ftg_rvs`` and
``sample_ftg`` copy the pieces into their n-element result and hold little
beyond it: ``ftg_rvs`` returns the variates, ``sample_ftg`` the same
variates with the envelope's attempt count. ``ftg_rvs(..., take=fold)``
hands the pieces to fold instead, so a caller that folds them as they
come, as ``risk.simulate_aggregate`` does, never holds all n.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .dist import FtgParams

_BLOCK = 1 << 16
# proposals per still-missing variate in each block
_OVERDRAW = 1.5


@dataclass
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Identical keys reproduce identical variate sequences; distinct keys give
    statistically independent streams (counter-based Philox under a
    SeedSequence). A stream owns its generator state: do not share one
    instance between concurrent tasks, derive children instead.
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


def _trunc_gamma_shifted_exp(alpha: float, rho: float, n: int,
                             gen: np.random.Generator):
    """propose(k) -> (t, accept) for T, with density t^(alpha-1) e^-t on
    (rho, inf), alpha >= 1 or rho >= 1, and the buffer row it leaves free,
    for ``_pieces``.

    Rejection from the shifted exponential rho + Exp(lam) with the classical
    optimal rate lam = (rho - alpha + sqrt((rho - alpha)^2 + 4 rho)) / (2 rho),
    capped at 1. lam = 1 whenever alpha <= 1, where the acceptance ratio is
    (t / rho)^(alpha-1). Below rho = alpha the rate is formed as
    2 / (alpha - rho + sqrt(...)), whose terms share one sign: the first
    form cancels to 0 once rho is below about 1e-16 alpha. A law whose
    (rho - alpha)^2 overflows is refused with ValueError.

    For rho well below alpha the acceptance is about 0.93 / sqrt(alpha):
    0.029 at alpha = 1e3 with rho = 1, and 9.3e-6 at alpha = 1e10, where
    1,000 draws take seconds. Curing that needs a further exact regime.
    """
    try:
        root = math.sqrt((rho - alpha) ** 2 + 4.0 * rho)
    except OverflowError:
        raise ValueError(f"the sampler's rate overflows at alpha={alpha:g}, "
                         f"rho={rho:g}") from None
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
    # rows: the exponentials, then t; the uniforms, then the piece; the log
    # of the acceptance ratio; its one_m * t term
    bufs = np.empty((4, _block(n)))
    accept = np.empty(bufs.shape[1], dtype=bool)

    def propose(k: int):
        # in place: t = rho + e / lam, and
        # u <= exp((alpha - 1) ln t - one_m t - log_m)
        t = gen.standard_exponential(out=bufs[0, :k])
        u = gen.random(out=bufs[1, :k])
        t /= lam
        t += rho
        log_ratio, term = bufs[2, :k], bufs[3, :k]
        np.log(t, out=log_ratio)
        log_ratio *= alpha - 1.0
        np.multiply(t, one_m, out=term)
        log_ratio -= term
        log_ratio -= log_m
        np.exp(log_ratio, out=log_ratio)
        return t, np.less_equal(u, log_ratio, out=accept[:k])

    return propose, bufs[1]


def _trunc_gamma_two_piece(alpha: float, rho: float, n: int,
                           gen: np.random.Generator):
    """propose(k) -> (t, accept) for T, with density t^(alpha-1) e^-t on
    (rho, inf), alpha < 1 and rho < 1, and the buffer row it leaves free,
    for ``_pieces``.

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
    # rows: u, then t; w, then the piece; the acceptance ratio
    bufs = np.empty((3, _block(n)))
    mask = np.empty(bufs.shape[1], dtype=bool)

    def propose(k: int):
        u = gen.random(out=bufs[0, :k])
        w = gen.random(out=bufs[1, :k])
        other = np.flatnonzero(np.greater_equal(u, p1, out=mask[:u.size]))
        t = gen.standard_exponential(other.size)
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
        ratio = np.subtract(rho, u, out=bufs[2, :u.size])
        np.exp(ratio, out=ratio)
        # the exponential piece: T = 1 + Exp(1), acceptance ratio T^(alpha - 1)
        t += 1.0
        u[other] = t
        ratio[other] = t ** (alpha - 1.0)
        return u, np.less_equal(w, ratio, out=mask[:u.size])

    return propose, bufs[1]


def _pieces(p: FtgParams, n: int, gen: np.random.Generator):
    """Yield n variates of p, in order, in pieces of at most _BLOCK, each
    with the proposals taken so far (the variates so far at the edges,
    where every draw is accepted). Every piece is a view of one buffer of
    the request, which the next piece overwrites.

    An interior law keeps the first n accepted proposals of its envelope,
    in proposal order. Each block holds _OVERDRAW times the number of
    variates still missing, within [1024, _BLOCK]; the last piece counts
    the proposals up to the one that completed the request. The cap keeps
    the envelope's working arrays (a few arrays of k doubles) and each
    piece in cache: one block for a whole large request would stream each
    of them through memory. Each piece is gathered into the buffer row that
    the envelope's t and accept do not use, and the next block is drawn only
    when the caller asks, so every block reuses the same memory.
    """
    if p.is_pareto or p.is_gamma:
        buf = np.empty(min(_BLOCK, n))
        for filled in range(0, n, _BLOCK):
            x = buf[:min(_BLOCK, n - filled)]
            if p.is_pareto:
                # 1 - U in (0, 1]: never raises 0 to a negative power
                gen.random(out=x)
                np.subtract(1.0, x, out=x)
                x **= 1.0 / p.alpha
                x -= 1.0
                x *= p.sigma
            else:
                # the bits of gen.gamma(alpha, size=k), whose scale is 1
                gen.standard_gamma(p.alpha, out=x)
                x /= p.theta
            yield x, filled + x.size
        return
    if p.alpha < 1.0 and p.rho < 1.0:
        propose, out = _trunc_gamma_two_piece(p.alpha, p.rho, n, gen)
    else:
        propose, out = _trunc_gamma_shifted_exp(p.alpha, p.rho, n, gen)
    filled = attempts = 0
    while filled < n:
        need = n - filled
        k = _block(need)
        t, acc = propose(k)
        hits = np.flatnonzero(acc)
        if hits.size >= need:
            hits, attempts = hits[:need], attempts + int(hits[need - 1]) + 1
        else:
            attempts += k
        # mode="clip" writes into out directly ("raise" buffers the result)
        x = np.take(t, hits, out=out[:hits.size], mode="clip")
        del hits
        x -= p.rho
        x /= p.theta
        filled += x.size
        yield x, attempts


def _draw(p: FtgParams, n: int, gen: np.random.Generator):
    """n variates of p in one array, and the proposals they took."""
    out, filled, attempts = np.empty(n), 0, 0
    for x, attempts in _pieces(p, n, gen):
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
    sampler hands them over. x is a view of the sampler's working memory,
    valid until take returns: take copies what it keeps. An exception from
    take ends the draw and propagates.
    """
    if take is None:
        return _draw(p, n, rng.generator)[0]
    for x, _ in _pieces(p, n, rng.generator):
        take(x)
    return None
