"""Random variate generation for the FTG family.

Each shape regime has one exact sampler. The Pareto boundary uses
inversion and the gamma boundary the generator's own gamma method. An
interior law is X = (T - rho) / theta, with T the left-truncated gamma of
density t^(alpha-1) e^-t on (rho, inf), drawn by rejection (Devroye,
Non-Uniform Random Variate Generation, 1986, ch. II): from a two-piece
composition envelope for alpha < 1 with rho < 1, whose acceptance tends to
1 as rho -> 0, and from a shifted exponential for every other interior law.

Both envelopes share one accept-and-fill loop, which proposes in blocks of
at most ``_BLOCK`` candidates, so that every temporary stays cache-sized
and a request for n variates holds little beyond its n-element result.
The two-piece envelope computes its power-law piece densely with in-place
ufuncs, recycling the pick uniform as that piece's inversion uniform, and
draws the exponential piece only at the positions that picked it. The
boundary samplers and the interior map (T - rho) / theta work in place on
their result.
``ftg_rvs`` returns the variates; ``sample_ftg`` returns the same
variates with the envelope's attempt count.
"""

from __future__ import annotations

import math
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
    acceptance_rate: float


def _accept_and_fill(propose, n: int):
    """The first n accepted proposals, in proposal order, and the number of
    proposals up to the one that completed the batch.

    propose(k) draws k proposals and returns (t, accept); each block holds
    _OVERDRAW times the number of variates still missing, within
    [1024, _BLOCK]. The cap keeps the envelope's temporaries (a few arrays
    of k doubles) in cache: one block for a whole large request would
    allocate, page-fault and stream each of them through memory, and hold
    them all at once next to the result.
    """
    out = np.empty(n)
    filled = 0
    attempts = 0
    while filled < n:
        k = int(min(max(_OVERDRAW * (n - filled), 1024), _BLOCK))
        t, acc = propose(k)
        hits = np.flatnonzero(acc)
        need = n - filled
        if hits.size >= need:
            attempts += int(hits[need - 1]) + 1
            out[filled:n] = t[hits[:need]]
            filled = n
        else:
            attempts += k
            out[filled:filled + hits.size] = t[hits]
            filled += hits.size
    return out, attempts


def _trunc_gamma_shifted_exp(alpha: float, rho: float, n: int,
                             gen: np.random.Generator):
    """T with density t^(alpha-1) e^-t on (rho, inf), alpha >= 1 or rho >= 1.

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

    def propose(k: int):
        t = rho + gen.standard_exponential(k) / lam
        u = gen.random(k)
        return t, u <= np.exp((alpha - 1.0) * np.log(t) - one_m * t - log_m)

    return _accept_and_fill(propose, n)


def _trunc_gamma_two_piece(alpha: float, rho: float, n: int,
                           gen: np.random.Generator):
    """T with density t^(alpha-1) e^-t on (rho, inf), alpha < 1 and rho < 1.

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

    def exp_piece(k: int):
        # T = 1 + Exp(1) and its acceptance ratio T^(alpha - 1)
        t = gen.standard_exponential(k)
        t += 1.0
        return t, t ** (alpha - 1.0)

    def propose(k: int):
        u = gen.random(k)
        w = gen.random(k)
        other = np.flatnonzero(u >= p1)
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
        u[other], ratio[other] = exp_piece(other.size)
        return u, np.less_equal(w, ratio)

    return _accept_and_fill(propose, n)


def _draw(p: FtgParams, n: int, gen: np.random.Generator):
    """n variates of p and the proposals they took (n at the boundaries)."""
    if p.is_pareto:
        # 1 - U in (0, 1]: never raises 0 to a negative power
        x = gen.random(n)
        np.subtract(1.0, x, out=x)
        x **= 1.0 / p.alpha
        x -= 1.0
        x *= p.sigma
        return x, n
    if p.is_gamma:
        x = gen.gamma(p.alpha, size=n)
        x /= p.theta
        return x, n
    if p.alpha < 1.0 and p.rho < 1.0:
        x, attempts = _trunc_gamma_two_piece(p.alpha, p.rho, n, gen)
    else:
        x, attempts = _trunc_gamma_shifted_exp(p.alpha, p.rho, n, gen)
    x -= p.rho
    x /= p.theta
    return x, attempts


def sample_ftg(p: FtgParams, n: int, rng: RngStream) -> SampleBatch:
    """Draw n variates with rejection diagnostics.

    The values are exactly those of ``ftg_rvs`` on the same stream. For
    interior shapes, attempts counts the envelope proposals; at the
    boundaries every draw is accepted.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    values, attempts = _draw(p, n, rng.generator)
    return SampleBatch(values=values, attempts=attempts, acceptance_rate=n / attempts)


def ftg_rvs(p: FtgParams, n: int, rng: RngStream) -> np.ndarray:
    """n variates of p; the values of ``sample_ftg`` without its diagnostics."""
    return _draw(p, n, rng.generator)[0]
